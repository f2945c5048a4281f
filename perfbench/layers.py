"""Which package functions the traced run wraps, and the per-layer metrics.

Layers are the ``mcmag`` modules.  Every wrapped function is reached
through its module (``mcmag.discrim.solve_max_confidence``), never through
the re-exports in ``mcmag/__init__``.  ``channel.nu_mu`` groups the five
coherence/phase factor functions under one name.

Per-layer counts and times are per pass over the workload's inputs (the
traced run covers whole passes), except the oracle's, which cover the
run's single correctness check.
"""

from __future__ import annotations

import math
import re

NU_MU = ("nu_stretched", "nu_ou", "nu_ensemble_cpmg", "mu_static", "mu_cpmg")

_Z_FAIL = re.compile(r" z=\S+ FAIL$", re.MULTILINE)


def trajectory_steps(switching, dt: float) -> int:
    """Time steps of one bath trajectory on the validate grid for a switching function."""
    edges = (0.0, *switching.flip_times, switching.total_time)
    return sum(max(1, math.ceil((b - a) / dt - 1e-9)) for a, b in zip(edges[:-1], edges[1:]))


def _branch(counts, args, kwargs, sol):
    counts[f"discrim.branch.{sol.branch}"] += 1


def _capped(counts, args, kwargs, res):
    counts["discrim.threshold_inconclusive.capped"] += res.mix > 0.0


def _segments(counts, args, kwargs, res):
    switching = args[1] if len(args) > 1 else kwargs["switching"]
    counts["channel.dephasing_integral.segments"] += len(switching.flip_times) + 1


def _dephasing(counts, args, kwargs, res):
    params = args[0]
    switching = args[1] if len(args) > 1 and args[1] is not None else kwargs.get("switching")
    if switching is None:
        steps = max(1, math.ceil(params.T / params.dt - 1e-9))
    else:
        steps = trajectory_steps(switching, params.dt)
    counts["noise_sim.empirical_dephasing.traj"] += params.n_traj
    counts["noise_sim.empirical_dephasing.steps"] += params.n_traj * steps


def _shots(counts, args, kwargs, res):
    counts["noise_sim.simulate_clicks.shots"] += args[2] if len(args) > 2 else kwargs["shots"]


def _z_fail(counts, args, kwargs, res):
    counts["sweep.validate_report.z_fail"] += len(_Z_FAIL.findall(res[0]))


def register(tracer, mcmag) -> None:
    """Register every traced function of the package with ``tracer``."""
    ch, qm, dc, dl, ns, sw = (
        mcmag.channel, mcmag.qmat, mcmag.discrim, mcmag.dilation, mcmag.noise_sim, mcmag.sweep
    )
    tracer.add(ch, "build_state_pair")
    tracer.add(ch, "dephasing_integral", count=_segments)
    for attr in NU_MU:
        tracer.add(ch, attr, name="channel.nu_mu")
    tracer.add(qm, "psd_pow")
    tracer.add(qm, "herm_eig2")
    tracer.add(dc, "solve_max_confidence", count=_branch)
    tracer.add(dc, "min_error_probability")
    tracer.add(dc, "threshold_inconclusive", count=_capped)
    tracer.add(dc, "conditional_error")
    tracer.add(dc, "grid_search_povm")
    for attr in ("dilate_povm", "decompose_two_level", "born_residual"):
        tracer.add(dl, attr)
    tracer.add(ns, "substream")
    tracer.add(ns, "empirical_dephasing", count=_dephasing)
    tracer.add(ns, "simulate_clicks", count=_shots)
    for attr in ("parse_config_text", "run_sweep", "evaluate_point", "factors_at",
                 "rows_to_csv", "plot_csv", "neumark_report"):
        tracer.add(sw, attr)
    tracer.add(sw, "validate_report", count=_z_fail)


#: Functions reported with their calls and self time.  With the lists
#: below these make up the per-layer names BENCHMARK.json lists.
CALL_TIMED = (
    "discrim.solve_max_confidence", "discrim.min_error_probability",
    "qmat.psd_pow", "qmat.herm_eig2",
    "discrim.threshold_inconclusive", "discrim.conditional_error",
    "channel.build_state_pair", "channel.nu_mu", "channel.dephasing_integral",
    "sweep.factors_at", "noise_sim.substream", "noise_sim.empirical_dephasing",
    "noise_sim.simulate_clicks", "dilation.dilate_povm",
    "dilation.decompose_two_level", "dilation.born_residual",
    "discrim.grid_search_povm",
)
SELF_ONLY = (
    "sweep.parse_config_text", "sweep.run_sweep", "sweep.evaluate_point",
    "sweep.rows_to_csv", "sweep.plot_csv", "sweep.validate_report",
)
COUNTERS = (
    "discrim.threshold_inconclusive.capped", "discrim.conditional_error.undefined",
    "discrim.branch.interior", "discrim.branch.boundary_a",
    "discrim.branch.boundary_b", "discrim.branch.degenerate",
    "channel.dephasing_integral.segments", "noise_sim.empirical_dephasing.traj",
    "noise_sim.empirical_dephasing.steps", "noise_sim.simulate_clicks.shots",
    "sweep.validate_report.z_fail",
)
RATIOS = ("qmat.psd_pow.per_solve", "sweep.factors_at.per_point")
CLI_TIMES = ("cli.import_ms", "cli.sweep.ms", "cli.neumark.ms", "cli.plot.ms")


def metric_units() -> dict[str, str]:
    units = {}
    for name in CALL_TIMED:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_ms"] = "ms"
    for name in SELF_ONLY:
        units[f"{name}.self_ms"] = "ms"
    units.update({name: "count" for name in COUNTERS})
    units.update({name: "ratio" for name in RATIOS})
    units.update({name: "ms" for name in CLI_TIMES})
    units["trace.overhead_frac"] = "ratio"
    return units


def layer_metrics(op_stats: dict, check_stats: dict, counts, passes: int,
                  grid_points: float) -> dict[str, float]:
    """Per-pass layer metrics from aggregated spans (see spans.aggregate).

    ``op_stats`` covers the traced ops, ``check_stats`` the correctness
    check (only the oracle is reported from it), ``counts`` the work
    counters of the traced ops, ``grid_points`` the sweep rows per pass.
    """
    out: dict[str, float] = {}

    def stat(name: str) -> tuple[float, float]:
        src = check_stats if name == "discrim.grid_search_povm" else op_stats
        scale = 1 if name == "discrim.grid_search_povm" else passes
        entry = src.get(name, {"calls": 0, "self_ns": 0})
        return entry["calls"] / scale, entry["self_ns"] / 1e6 / scale

    for name in CALL_TIMED:
        out[f"{name}.calls"], out[f"{name}.self_ms"] = stat(name)
    for name in SELF_ONLY:
        out[f"{name}.self_ms"] = stat(name)[1]
    for name in COUNTERS:
        out[name] = counts.get(name, 0) / passes
    out["discrim.conditional_error.undefined"] = (
        counts.get("discrim.conditional_error.raised.UndefinedConditionalError", 0) / passes
    )
    solves = out["discrim.solve_max_confidence.calls"]
    out["qmat.psd_pow.per_solve"] = out["qmat.psd_pow.calls"] / solves if solves else 0.0
    out["sweep.factors_at.per_point"] = (
        out["sweep.factors_at.calls"] / grid_points if grid_points else 0.0
    )
    return out

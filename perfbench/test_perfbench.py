"""Self-tests of the benchmark harness: tracing arithmetic, statistics,
the seeded inputs and the failure counter."""

from __future__ import annotations

import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import mcmag  # noqa: E402

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children_only():
    # op [0, 100] holds a [10, 60] (which holds b and c) and d [70, 90].
    recs = [
        ["op", 0, 100, -1, 0],
        ["a", 10, 60, 0, 0],
        ["b", 20, 30, 1, 0],
        ["c", 40, 50, 1, 0],
        ["d", 70, 90, 0, 0],
        ["a", 200, 230, -1, "check"],
    ]
    assert spans.self_times(recs) == [30, 30, 10, 10, 20, 30]
    agg = spans.aggregate(recs, keep=lambda op: op != "check")
    assert agg["a"] == {"calls": 1, "self_ns": 30}
    assert agg["op"] == {"calls": 1, "self_ns": 30}
    assert spans.aggregate(recs)["a"] == {"calls": 2, "self_ns": 60}


def test_tracer_records_nesting_through_module_globals_and_restores():
    mod = types.ModuleType("fake.layer")
    source = "def inner(x):\n    return x + 1\n\ndef outer(x):\n    return inner(x) * 2\n"
    exec(source, mod.__dict__)
    orig_inner = mod.inner
    tracer = spans.Tracer()
    tracer.add(mod, "outer")
    tracer.add(mod, "inner", count=lambda counts, a, k, r: counts.update({"inner.seen": r}))
    tracer.install()
    with tracer.root("op", 7):
        assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.inner is orig_inner
    names = [(r[spans.NAME], r[spans.PARENT], r[spans.OP]) for r in tracer.spans]
    assert names == [("op", -1, 7), ("layer.outer", 0, 7), ("layer.inner", 1, 7)]
    assert tracer.counts["inner.seen"] == 2
    selfs = spans.self_times(tracer.spans)
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) == tracer.spans[0][spans.END] - tracer.spans[0][spans.START]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert spans.tail_percentile(19) is None
    assert spans.tail_percentile(20) == 50.0
    assert spans.tail_percentile(99) == 50.0
    assert spans.tail_percentile(100) == 90.0
    assert spans.tail_percentile(999) == 90.0
    assert spans.tail_percentile(1000) == 99.0
    assert spans.tail_percentile(10000) == 99.9
    values = list(np.random.default_rng(0).random(137))
    for q in (10.0, 50.0, 90.0):
        assert spans.percentile(values, q) == pytest.approx(np.percentile(values, q), abs=1e-15)


def test_default_seed_reproduces_shipped_configs():
    configs = inputs.jittered_configs(inputs.DEFAULT_SEED)
    files = sorted(inputs.CONFIG_DIR.glob("*.cfg"))
    assert list(configs) == [p.stem for p in files]
    for path in files:
        assert configs[path.stem] == path.read_text(encoding="utf-8")
    assert len(inputs.sweep_names(configs)) == 24


def test_seeded_inputs_are_deterministic_and_keep_the_grids():
    a, b = inputs.jittered_configs(7), inputs.jittered_configs(7)
    assert a == b
    assert a != inputs.jittered_configs(8)
    assert inputs.pair_draws(7) == inputs.pair_draws(7)
    assert inputs.pair_draws(7) != inputs.pair_draws(8)
    shipped = inputs.shipped_configs()
    for name, text in a.items():
        cfg = mcmag.sweep.parse_config_text(text)
        base = mcmag.sweep.parse_config_text(shipped[name])
        assert (cfg.scenario, cfg.grid_start, cfg.grid_stop, cfg.grid_points) == (
            base.scenario, base.grid_start, base.grid_stop, base.grid_points)


@pytest.mark.parametrize("seed", [inputs.DEFAULT_SEED, 7])
def test_api_draws_reach_every_branch(seed):
    branches = set()
    for d in inputs.pair_draws(seed):
        pair = mcmag.channel.build_state_pair(d.nu, d.mu, d.eta0)
        branches.add(mcmag.discrim.solve_max_confidence(pair).branch)
    assert branches == set(checks.BRANCHES)


def _attempt(i, same=True):
    return run.Attempt(i, 0.001, 1, False, None, same)


def test_perturbed_csv_cell_fails_the_op():
    ref = checks.load_reference()
    wl = workloads.SweepFigures(inputs.DEFAULT_SEED, mcmag, ref, None)
    wl.setup()
    i = wl.names.index("static_single_b1_thresh")
    csv_text = ref["sweep"][wl.names[i]]
    header, rows = checks.parse_csv(csv_text)
    k = header.index("c0_max")
    rows[5][k] = repr(float(rows[5][k]) + 1e-9)
    bad = "\n".join([",".join(header)] + [",".join(r) for r in rows]) + "\n"
    good_out = (csv_text, mcmag.sweep.plot_csv(csv_text, title=wl.names[i]))
    bad_out = (bad, mcmag.sweep.plot_csv(bad, title=wl.names[i]))
    assert wl.check(i, good_out) == []
    problems = [[] for _ in wl.names]
    problems[i] = wl.check(i, bad_out)
    assert any("row 6 c0_max" in p for p in problems[i])
    failed, known, bad_ops = run.count_failures([_attempt(j) for j in range(len(wl.names))] * 2,
                                                problems)
    assert (failed, known, bad_ops) == (1, 0, [i])


def test_changed_monte_carlo_byte_fails_the_op():
    ref = checks.load_reference()
    wl = workloads.McValidate(inputs.DEFAULT_SEED, mcmag, ref, None)
    wl.setup()
    report = ref["validate"][wl.names[0]]
    assert wl.check(0, (report, True)) == []
    pos = report.index("observed=") + len("observed=") + 3
    digit = "1" if report[pos] != "1" else "2"
    changed = report[:pos] + digit + report[pos + 1:]
    problems = [wl.check(0, (changed, True)), []]
    assert any("reference bytes" in p for p in problems[0])
    assert run.count_failures([_attempt(0), _attempt(1)], problems) == (1, 0, [0])


def test_known_defect_counts_as_failed_but_not_incorrect():
    problems = [[f"pair 3: {checks.KNOWN}capped: cond_err=-1e-18"], ["pair 4: cond_err=-0.5"], []]
    attempts = [_attempt(0), _attempt(1), _attempt(2)] * 3
    assert run.count_failures(attempts, problems) == (2, 1, [0, 1])
    # A run whose output changed is never a known defect, and fails a clean op too.
    attempts += [_attempt(0, same=False), _attempt(2, same=False)]
    assert run.count_failures(attempts, problems) == (3, 0, [0, 1, 2])

"""Acceptance gate: every release criterion, one pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines; each
criterion is also a hard assertion at its stated tolerance.
"""

import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad

from mcmag import (
    OuParams,
    build_state_pair,
    cpmg_switching,
    decompose_two_level,
    dilate_povm,
    empirical_confidence,
    empirical_dephasing,
    free_decay,
    nu_ou,
    simulate_clicks,
    solve_max_confidence,
)
from mcmag import channel, sweep
from mcmag.dilation import born_residual
from mcmag.discrim import achieved_confidences, grid_search_povm

from helpers import random_pair, sign_at

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
KAPPA = 3.6
TAU_C = 25.0


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[ACCEPT {criterion}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_oracle_equivalence():
    """Closed-form confidences match the grid search on 1000 random pairs."""
    rng = np.random.default_rng(20260808)
    t0 = time.time()
    worst_conf = 0.0
    worst_identity = 0.0
    for _ in range(1000):
        pair = random_pair(rng, nu_range=(1e-9, 1.0), eta_range=(0.1, 0.9))
        sol = solve_max_confidence(pair)
        oracle = grid_search_povm(pair, grid_density=256)
        worst_conf = max(
            worst_conf, abs(sol.c0_max - oracle.c0), abs(sol.c1_max - oracle.c1)
        )
        c0, c1 = achieved_confidences(sol.povm, pair)
        if sol.branch != "degenerate":
            if c0 is not None:
                worst_identity = max(worst_identity, abs(c0 - sol.c0_max))
            if c1 is not None:
                worst_identity = max(worst_identity, abs(c1 - sol.c1_max))
    elapsed = time.time() - t0
    ok = worst_conf <= 2e-3 and worst_identity <= 1e-9 and elapsed < 60.0
    report(
        1,
        ok,
        f"oracle equivalence: worst conf dev {worst_conf:.2e} (<=2e-3), "
        f"achieved-confidence identity {worst_identity:.2e} (<=1e-9), "
        f"runtime {elapsed:.1f}s (<60s)",
    )


def test_criterion_2_orthogonal_and_identical_limits():
    """Perfectly distinguishable and indistinguishable limits are exact."""
    devs = []
    for eta0 in (0.5, 0.3):
        sol = solve_max_confidence(build_state_pair(1.0, -1.0, eta0))
        devs += [abs(sol.c0_max - 1.0), abs(sol.c1_max - 1.0), abs(sol.p_inc_opt)]
    exact_ok = max(devs) <= 1e-12

    limit_devs = []
    for eta0 in (0.5, 0.35):
        for mu in (1j, -0.4 + 0.2j):
            sol = solve_max_confidence(build_state_pair(1e-10, mu, eta0))
            limit_devs += [
                abs(sol.c0_max - eta0),
                abs(sol.c1_max - (1.0 - eta0)),
                abs(sol.p_inc_opt),
            ]
    limit_ok = max(limit_devs) <= 1e-9
    report(
        2,
        exact_ok and limit_ok,
        f"limits: orthogonal dev {max(devs):.2e} (<=1e-12), "
        f"vanishing-coherence dev {max(limit_devs):.2e} (<=1e-9)",
    )


def _overlap_autocorr(switching, s):
    total = switching.total_time
    if s >= total:
        return 0.0
    edges = {0.0, total - s, *switching.flip_times}
    edges.update(f - s for f in switching.flip_times if 0.0 < f - s < total - s)
    edges = sorted(e for e in edges if 0.0 <= e <= total - s)
    acc = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        acc += sign_at(switching, mid) * sign_at(switching, mid + s) * (b - a)
    return acc


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_criterion_3_filter_integral_correctness():
    """The filter integral matches the closed form, quadrature, and limit."""
    rng = np.random.default_rng(3)
    worst_free = 0.0
    for _ in range(100):
        rate = rng.uniform(0.005, 5.0)
        total = rng.uniform(0.01, 30.0)
        got = channel.dephasing_integral(rate, free_decay(total))
        want = total / rate - (1.0 - math.exp(-rate * total)) / rate**2
        worst_free = max(worst_free, abs(got - want) / abs(want))

    worst_quad = 0.0
    for n in (2, 4, 8):
        sw = cpmg_switching(n, 0.5)
        rate = 1.0 / TAU_C
        pts = sorted(
            {
                abs(x - y)
                for x in (0.0, *sw.flip_times, sw.total_time)
                for y in (0.0, *sw.flip_times, sw.total_time)
            }
        )
        ref, _ = quad(
            lambda s: math.exp(-rate * s) * _overlap_autocorr(sw, s),
            0.0,
            sw.total_time,
            points=pts[1:-1],
            limit=400,
            epsabs=1e-14,
            epsrel=1e-12,
        )
        got = channel.dephasing_integral(rate, sw)
        worst_quad = max(worst_quad, abs(got - ref) / abs(ref))

    worst_short = 0.0
    for total in (0.05 / KAPPA, 0.02 / KAPPA, 0.005 / KAPPA):
        nu = nu_ou(KAPPA, TAU_C, free_decay(total))
        gauss = math.exp(-(KAPPA**2) * total**2 / 2.0)
        worst_short = max(worst_short, abs(nu - gauss) / gauss)

    ok = worst_free <= 1e-10 and worst_quad <= 1e-8 and worst_short <= 1e-4
    report(
        3,
        ok,
        f"filter integral: free-decay {worst_free:.2e} (<=1e-10), "
        f"quadrature {worst_quad:.2e} (<=1e-8), short-time {worst_short:.2e} (<=1e-4)",
    )


def test_criterion_4_monte_carlo_consistency():
    """Stochastic estimates sit within three standard errors of analytics."""
    t0 = time.time()
    worst_z = 0.0
    checks = []

    for t in (0.05, 0.1, 0.2):
        params = OuParams(
            kappa=KAPPA, tau_c=TAU_C, dt=t / 100.0, T=t, seed=101, n_traj=100_000
        )
        est = empirical_dephasing(params)
        z = (est.nu_hat - nu_ou(KAPPA, TAU_C, free_decay(t))) / est.std_err
        checks.append(("free", t, z))
        worst_z = max(worst_z, abs(z))

    for n in (2, 4, 8):
        sw = cpmg_switching(n, 0.5)
        params = OuParams(
            kappa=KAPPA, tau_c=TAU_C, dt=0.01, T=sw.total_time, seed=102, n_traj=100_000
        )
        est = empirical_dephasing(params, sw)
        z = (est.nu_hat - nu_ou(KAPPA, TAU_C, sw)) / est.std_err
        checks.append(("cpmg", n, z))
        worst_z = max(worst_z, abs(z))

    pair = build_state_pair(0.8, np.exp(-1j * np.pi / 4), 0.5)
    sol = solve_max_confidence(pair)
    est = empirical_confidence(simulate_clicks(sol.povm, pair, 1_000_000, seed=103))
    for z in (
        (est.c0_hat - sol.c0_max) / est.c0_std_err,
        (est.c1_hat - sol.c1_max) / est.c1_std_err,
        (est.p_inc_hat - sol.p_inc_opt) / est.p_inc_std_err,
    ):
        worst_z = max(worst_z, abs(z))

    elapsed = time.time() - t0
    ok = worst_z <= 3.0 and elapsed < 300.0
    report(
        4,
        ok,
        f"Monte Carlo: worst |z| {worst_z:.2f} (<=3) over {len(checks) + 3} checks, "
        f"runtime {elapsed:.0f}s (<300s)",
    )


def test_criterion_5_projective_extension():
    """Ten thousand solver outputs dilate unitarily and reconstruct."""
    rng = np.random.default_rng(5)
    worst_unit = worst_born = worst_rebuild = 0.0
    eye3 = np.eye(3)
    for _ in range(10_000):
        pair = random_pair(rng, nu_range=(1e-6, 1.0))
        sol = solve_max_confidence(pair)
        dil = dilate_povm(sol.povm)
        worst_unit = max(
            worst_unit, float(np.max(np.abs(dil.u.conj().T @ dil.u - eye3)))
        )
        worst_born = max(
            worst_born, born_residual(dil, sol.povm, (pair.rho0, pair.rho1))
        )
        prod = np.eye(3, dtype=complex)
        for f in decompose_two_level(dil.u):
            prod = prod @ f
        worst_rebuild = max(worst_rebuild, float(np.max(np.abs(prod - dil.u))))
    ok = worst_unit <= 1e-12 and worst_born <= 1e-12 and worst_rebuild <= 1e-10
    report(
        5,
        ok,
        f"projective extension: unitarity {worst_unit:.2e} (<=1e-12), "
        f"Born residual {worst_born:.2e} (<=1e-12), "
        f"two-level rebuild {worst_rebuild:.2e} (<=1e-10)",
    )


def test_criterion_6_threshold_behavior():
    """The capped 50 uT sweep hits the cap exactly and beats forced choice."""
    cfg = sweep.load_config(str(CONFIG_DIR / "static_single_b50_thresh.cfg"))
    rows = sweep.run_sweep(cfg)
    cap_dev = 0.0
    beats = True
    capped_rows = 0
    for r in rows:
        if r.p_inc_opt > 0.6:
            capped_rows += 1
            cap_dev = max(cap_dev, abs(r.p_inc_thresh - 0.6))
            if not (r.cond_err < r.helstrom_err):
                beats = False
    assert capped_rows > 0
    best = max(rows, key=lambda r: r.c0_thresh)
    rel_ok = best.rel_err < 0.7
    ok = cap_dev <= 1e-12 and beats and rel_ok
    report(
        6,
        ok,
        f"threshold: cap dev {cap_dev:.2e} (<=1e-12) on {capped_rows} rows, "
        f"conditional<forced-choice {beats}, rel_err at optimum {best.rel_err:.3f} "
        f"(<0.7; a ~50% error reduction corresponds to 0.5 - reported, not asserted)",
    )


def test_criterion_7_figure_trends():
    """Qualitative shapes of every figure family."""
    # (a) static single curves ordered by field strength early, decayed by 5*T2*
    singles = {
        b: sweep.load_config(str(CONFIG_DIR / f"static_single_b{b}.cfg"))
        for b in (1, 20, 50)
    }
    early_ok = True
    for t in (0.05, 0.1):
        c = {b: sweep.evaluate_point(cfg, t).c0_max for b, cfg in singles.items()}
        early_ok &= c[50] > c[20] > c[1]
    tail_ok = all(
        abs(sweep.evaluate_point(cfg, 5 * 0.4).c0_max - 0.5) <= 1e-3
        for cfg in singles.values()
    )

    # (b) ensemble outlasts the single sensor past T2*
    ens50 = sweep.load_config(str(CONFIG_DIR / "ens_static_b50.cfg"))
    outlast_ok = all(
        sweep.evaluate_point(ens50, t).c0_max > sweep.evaluate_point(singles[50], t).c0_max
        for t in np.linspace(0.45, 2.0, 32)
    )

    # (c) double-quantum dominates single-quantum.  Strict pointwise
    # dominance holds whenever the doubled phase never completes a full
    # turn inside the window (the weak-field case); at stronger fields
    # the doubled phase re-aligns at isolated times and the confidence
    # there briefly returns to the prior, so those full-turn windows are
    # the only tolerated exceptions and the peak must still dominate.
    dq_ok = True
    wrap_notes = []
    for b in (1, 20, 50):
        sq_cfg = sweep.load_config(str(CONFIG_DIR / f"ens_static_b{b}.cfg"))
        dq_cfg = sweep.load_config(str(CONFIG_DIR / f"ens_static_dq_b{b}.cfg"))
        assert sweep.grid_values(sq_cfg) == sweep.grid_values(dq_cfg)
        sq_rows = sweep.run_sweep(sq_cfg)
        dq_rows = sweep.run_sweep(dq_cfg)
        gamma = channel.GAMMA_E_DEFAULT
        wrap_period = 1.0 / (2.0 * gamma * b)  # doubled phase = multiple of 2*pi
        exceptions = 0
        for sq_row, dq_row in zip(sq_rows, dq_rows):
            if dq_row.c0_max > sq_row.c0_max:
                continue
            turns = dq_row.axis / wrap_period
            if abs(turns - round(turns)) < 0.15 and round(turns) % 2 == 1:
                exceptions += 1  # odd full turn of the doubled phase only
            else:
                dq_ok = False
        if not max(r.c0_max for r in dq_rows) > max(r.c0_max for r in sq_rows):
            dq_ok = False
        if b == 1 and exceptions:
            dq_ok = False  # no full turn happens in the weak-field window
        wrap_notes.append(f"{b}uT:{exceptions}")

    # (d) field-spread bias grows with the spread
    gaps = []
    for s in (1, 25, 50):
        cfg = sweep.load_config(str(CONFIG_DIR / f"gauss_single_sigma{s}.cfg"))
        rows = sweep.run_sweep(cfg)
        gaps.append(max(abs(r.c0_max - r.c1_max) for r in rows))
    gap_ok = gaps[0] < gaps[1] < gaps[2] and gaps[2] > 1e-3

    # (e) pulsed detection of a weak oscillating field beats static detection
    cpmg_cfg = sweep.load_config(str(CONFIG_DIR / "cpmg_single_sigma0p2.cfg"))
    static1 = singles[1]
    pulsed_ok = True
    for row in sweep.run_sweep(cfg=cpmg_cfg):
        t_match = row.axis / (2.0 * cpmg_cfg.f_MHz)
        if not row.c0_max > sweep.evaluate_point(static1, t_match).c0_max:
            pulsed_ok = False
            break

    ok = early_ok and tail_ok and outlast_ok and dq_ok and gap_ok and pulsed_ok
    report(
        7,
        ok,
        f"figure trends: ordering {early_ok}, tail-to-prior {tail_ok}, "
        f"ensemble-outlasts {outlast_ok}, DQ-dominates {dq_ok} "
        f"(full-turn exceptions {wrap_notes}), "
        f"spread-bias gaps {[f'{g:.3f}' for g in gaps]} increasing {gap_ok}, "
        f"pulsed-beats-static {pulsed_ok}",
    )


def test_criterion_8_cli_determinism(tmp_path):
    """Fixed seed, byte-identical output across runs and thread counts."""
    cfg_text = (
        "scenario    = static_single\n"
        "b0_uT      = 50\n"
        "T2_star_us = 0.4\n"
        "p          = 2\n"
        "kappa_per_us = 3.6\n"
        "tau_c_us   = 25\n"
        "p_inc_threshold = 0.6\n"
        "grid_start = 0.01\n"
        "grid_stop  = 2.0\n"
        "grid_points = 50\n"
        "seed       = 11\n"
        "n_traj     = 400\n"
        "shots      = 20000\n"
    )
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text(cfg_text, encoding="utf-8")

    def run(cmd, out, threads):
        env = dict(os.environ, MCMAG_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "mcmag.cli", *cmd, "--out", str(out)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0, proc.stderr
        return out.read_bytes()

    sweeps = {
        run(["sweep", str(cfg_path)], tmp_path / f"s{i}_{th}.csv", th)
        for i in range(2)
        for th in ("1", "4")
    }
    validates = {
        run(["validate", str(cfg_path)], tmp_path / f"v{i}_{th}.txt", th)
        for i, th in (("0", "1"), ("1", "4"))
    }
    csv_path = tmp_path / "s0_1.csv"
    plots = {
        run(["plot", str(csv_path)], tmp_path / f"p{i}.svg", "1") for i in range(2)
    }
    ok = len(sweeps) == 1 and len(validates) == 1 and len(plots) == 1
    report(
        8,
        ok,
        f"determinism: sweep variants {len(sweeps)}, validate variants "
        f"{len(validates)}, plot variants {len(plots)} (all must be 1)",
    )

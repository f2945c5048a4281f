"""The optimality certificate of the plane kernel and of the one-pair solve (ROADMAP item 18).

Every non-degenerate row of :func:`~mcmag.plane.plane_optimum` on the
shipped grids, the benchmark's jittered grids (seeds 1-9) and the seeded
edge pairs must meet the dual and complementary-slackness conditions of
its confidences within the bounds :func:`helpers.optimality_certificate`
derives from their rounding.  The check shares no formula with the kernel.
The one-pair :func:`~mcmag.discrim.solve_max_confidence` is judged with the
same bounds on the benchmark's pair draws and the edge pairs.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from mcmag import channel, discrim, plane, sweep
from mcmag.plane import BRANCHES

from helpers import optimality_certificate
from test_exact_rewrites import edge_pairs

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def certified_rows():
    """(label, nu, mu, eta0) of the non-degenerate plane rows: each sweep grid of
    perfbench seeds 0-9 (seed 0 is the shipped configs), then the edge pairs."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        inputs = importlib.import_module("inputs")
        names = inputs.sweep_names(inputs.shipped_configs())
        texts = {(seed, name): inputs.jittered_configs(seed)[name]
                 for seed in range(10) for name in names}
    stacks = []
    for label, text in texts.items():
        cfg = sweep.parse_config_text(text)
        values = sweep.grid_values(cfg)
        scenario = sweep.SCENARIOS[cfg.scenario]
        nu, mu = channel.pair_factors(np.maximum(scenario.nu(cfg, values), sweep.NU_FLOOR),
                                      scenario.mu(cfg, values))
        stacks.append((label, nu, mu, np.full(len(nu), cfg.eta0)))
    for seed in (0, 1):
        pairs = edge_pairs(seed)
        stacks.append((("edge", seed), *(np.array([getattr(p, key) for p in pairs])
                                         for key in ("nu", "mu", "eta0"))))
    out = []
    for label, nu, mu, eta0 in stacks:
        live = plane.plane_optimum(nu, mu, eta0)[1] != BRANCHES.index("degenerate")
        out.append((label, nu[live], mu[live], eta0[live]))
    assert sum(len(nu) for _, nu, _, _ in out) > 60_000
    return out


def failing(nu, mu, eta0, values, ops):
    """Per detector, which rows fail their dual or their slackness bound (NaN fails)."""
    return [~((abs(dual) <= dual_bound) & (abs(slack) <= slack_bound))
            for dual, dual_bound, slack, slack_bound
            in optimality_certificate(nu, mu, eta0, values, ops)]


def test_every_plane_optimum_meets_its_certificate(certified_rows):
    for label, nu, mu, eta0 in certified_rows:
        values, _branch, ops = plane.plane_optimum(nu, mu, eta0)
        for detector, bad in enumerate(failing(nu, mu, eta0, values, ops)):
            rows = np.flatnonzero(bad)
            assert rows.size == 0, (label, detector, nu[rows[:3]], mu[rows[:3]], eta0[rows[:3]])


@pytest.mark.parametrize("column", [1, 2])
def test_the_certificate_sees_a_confidence_1e_12_off(certified_rows, column):
    # A bound loose enough to pass anything would show nothing: a confidence
    # moved by 1e-12 must fail on nearly every row.
    moved = total = 0
    for _label, nu, mu, eta0 in certified_rows:
        values, _branch, ops = plane.plane_optimum(nu, mu, eta0)
        values[:, column] += 1e-12
        moved += np.count_nonzero(failing(nu, mu, eta0, values, ops)[column - 1])
        total += len(nu)
    assert moved >= 0.95 * total


def plane_coordinates(ops):
    """``(alpha, beta_x, beta_y)`` of 2x2 operators ``(alpha I + beta.sigma)/2`` (last two axes)."""
    return np.stack([(ops[..., 0, 0] + ops[..., 1, 1]).real,
                     2.0 * ops[..., 0, 1].real, -2.0 * ops[..., 0, 1].imag], axis=-1)


@pytest.fixture(scope="module")
def one_pair_rows():
    """(pairs, values, ops) of the non-degenerate one-pair solves of the
    benchmark's pair draws (seeds 0-3) and the edge pairs (seeds 0, 1)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        draws = [d for seed in range(4)
                 for d in importlib.import_module("inputs").pair_draws(seed)]
    pairs = [channel.build_state_pair(d.nu, d.mu, d.eta0) for d in draws]
    pairs += edge_pairs(0) + edge_pairs(1)
    rows = []
    for pair in pairs:
        try:
            sol = discrim.solve_max_confidence(pair)
        except discrim.PsdViolationError:  # rank-one Pi_? positivity: ROADMAP item 3 (3a)
            continue
        if sol.branch != "degenerate":
            rows.append((pair, sol))
    values = np.array([(sol.p_inc_opt, sol.c0_max, sol.c1_max) for _, sol in rows])
    ops = plane_coordinates(np.array([sol.povm.ops for _, sol in rows]))
    assert len(rows) > 2_000
    return [pair for pair, _ in rows], values, ops


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "ROADMAP item 14: rho^(-1/2) amplifies rounding in the one-pair solve; 305 of "
    "1,728 non-degenerate pair draws fail the dual bound and 270 the slackness bound, "
    "by up to 7.8e-13"))
def test_every_one_pair_optimum_meets_its_certificate(one_pair_rows):
    pairs, values, ops = one_pair_rows
    nu, mu, eta0 = (np.array([getattr(p, key) for p in pairs]) for key in ("nu", "mu", "eta0"))
    for detector, bad in enumerate(failing(nu, mu, eta0, values, ops)):
        rows = np.flatnonzero(bad)
        assert rows.size == 0, (detector, rows.size, nu[rows[:3]], mu[rows[:3]], eta0[rows[:3]])

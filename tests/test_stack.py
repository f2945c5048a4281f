"""The one-pair solver's POVM invariants on seeded draws that oversample the edges,
the plane stack's rows against the one-pair calls on them, the positivity pins,
the stack pair rule and the oracle's independence."""

import numpy as np
import pytest

from mcmag import channel, discrim, plane, qmat
from mcmag.discrim import grid_search_povm
from mcmag.errors import UndefinedConditionalError
from mcmag.plane import BRANCHES
from mcmag.sweep import NU_FLOOR, SweepConfig, run_sweep

I2 = np.eye(2)
TOL = 1e-9
#: Pure no-field states (nu = 1) round worse: ROADMAP item 3 (3a).
PURE_TOL = 1e-8
#: How far a plane row may stand from the one-pair call.  At a prior 4e-7 from
#: 0 or 1 the pairs are ill-conditioned: on these draws the two solvers part by
#: up to 2.1e-8 there, each about as far from exact (test_plane judges the plane
#: kernel against exact); at the other priors by at most 4e-14.
AGREE = 1e-7


def draws(rng, n):
    """nu and mu over their domain, edges oversampled."""
    nu = rng.uniform(1e-3, 1.0, n)
    kind = rng.integers(0, 5, n)
    nu[kind == 1] = NU_FLOOR
    nu[kind == 2] = 1.0
    nu[kind == 3] = 10.0 ** rng.uniform(-12, -3, np.count_nonzero(kind == 3))
    size = np.sqrt(rng.uniform(0.0, 1.0, n))
    shape = rng.integers(0, 4, n)
    size[shape == 1] = 1.0
    size[shape == 2] = 0.0
    size[shape == 3] = 10.0 ** rng.uniform(-12, -2, np.count_nonzero(shape == 3))
    mu = size * np.exp(1j * rng.uniform(-np.pi, np.pi, n))
    return nu, mu


def test_solutions_meet_the_invariants():
    rng = np.random.default_rng(2024)
    seen = set()
    for eta0 in (0.5, 0.3, 4e-7, 1.0 - 4e-7):
        nu, mu = draws(rng, 400)
        for k in range(len(nu)):
            pair = channel.build_state_pair(nu[k], mu[k], eta0)
            sol = discrim.solve_max_confidence(pair)
            seen.add(sol.branch)
            pi0, pi1, pi_inc = sol.povm.ops
            assert np.max(np.abs(pi0 + pi1 + pi_inc - I2)) <= TOL
            for op in (pi0, pi1, pi_inc):
                assert np.linalg.eigvalsh(op)[0] >= -TOL
            for x in (sol.c0_max, sol.c1_max, sol.p_inc_opt):
                assert 0.0 <= x <= 1.0
            rho, rho0, rho1 = pair.rho, pair.rho0, pair.rho1
            assert abs(np.trace(rho @ pi_inc).real - sol.p_inc_opt) <= TOL
            if sol.branch == "degenerate":
                assert (sol.c0_max, sol.c1_max, sol.p_inc_opt) == (eta0, 1.0 - eta0, 0.0)
                continue
            tol = PURE_TOL if nu[k] == 1.0 else TOL
            for op, rho_j, eta_j, want in ((pi0, rho0, eta0, sol.c0_max),
                                           (pi1, rho1, 1.0 - eta0, sol.c1_max)):
                fire = np.trace(rho @ op).real
                if fire > 1e-15:
                    assert abs(eta_j * np.trace(rho_j @ op).real / fire - want) <= tol
    assert seen == set(BRANCHES)


def agree(one, row):
    """Whether a one-pair output (None where undefined) is the plane row's (NaN there)."""
    if one is None or np.isnan(row):
        return one is None and np.isnan(row)
    return abs(one - row) <= AGREE


def conditional(povm, pair):
    """The one-pair conditional error, None where it is undefined."""
    try:
        return discrim.conditional_error(povm, pair)
    except UndefinedConditionalError:
        return None


@pytest.mark.parametrize("eta0", [0.5, 0.23, 0.81, 4e-7, 1.0 - 4e-7])
def test_plane_rows_agree_with_the_one_pair_call(eta0):
    # Both solvers stay: plane stacks for the sweep, the matrix path for one pair.
    rng = np.random.default_rng([7, int(eta0 * 1e9)])
    nu, mu = channel.pair_factors(*draws(rng, 300))
    values, branch, ops = plane.plane_optimum(nu, mu, eta0)
    helstrom = plane.helstrom_error(nu, mu, eta0)
    cond = plane.plane_conditional_error(nu, mu, eta0, ops[:, :2])
    for k in range(len(nu)):
        pair = channel.build_state_pair(nu[k], mu[k], eta0)
        one = discrim.solve_max_confidence(pair)
        assert one.branch == BRANCHES[branch[k]], k
        for x, row in zip((one.p_inc_opt, one.c0_max, one.c1_max), values[k], strict=True):
            assert agree(x, row), k
        assert np.float64(discrim.min_error_probability(pair)).tobytes() == helstrom[k].tobytes()
        assert agree(conditional(one.povm, pair), cond[k]), k


@pytest.mark.parametrize("eta0", [0.5, 0.23, 0.81, 4e-7, 1.0 - 4e-7])
def test_plane_capped_rows_agree_with_the_one_pair_cap(eta0):
    rng = np.random.default_rng([7, int(eta0 * 1e9)])
    nu, mu = channel.pair_factors(*draws(rng, 300))
    values, _branch, ops = plane.plane_optimum(nu, mu, eta0)
    for cap in (0.0, 0.37, 1.0):
        c0, c1, p_inc, detectors = plane.plane_capped(nu, mu, eta0, values, ops, cap)
        cond = plane.plane_conditional_error(nu, mu, eta0, detectors)
        for k in range(len(nu)):
            pair = channel.build_state_pair(nu[k], mu[k], eta0)
            sol = discrim.solve_max_confidence(pair)
            if (sol.p_inc_opt <= cap) != (values[k, 0] <= cap):
                # A tie with the cap (mu real, p_inc_opt 0 or 1e-17 at cap 0):
                # the two solvers may take its two sides.
                assert abs(sol.p_inc_opt - cap) <= AGREE and abs(values[k, 0] - cap) <= AGREE
                continue
            one = discrim.threshold_inconclusive(sol, pair, cap)
            for x, row in ((one.c0, c0[k]), (one.c1, c1[k]), (one.p_inc, p_inc[k])):
                assert agree(x, row), (cap, k)
            assert agree(conditional(one.povm, pair), cond[k]), (cap, k)


def test_pure_state_extreme_prior_keeps_positivity():
    # rho^(-1/2) rounding left Pi_? with an eigenvalue below -1e-10 here; the
    # row is solved again in plane coordinates (ROADMAP item 3a).
    mu = 7.640057898065168e-08 - 2.555426162089355e-07j
    sol = discrim.solve_max_confidence(channel.build_state_pair(1.0, mu, 1.0 - 4e-7))
    assert np.linalg.eigvalsh(sol.povm.pi_inc)[0] >= -TOL


def test_balanced_prior_sweep_from_t0_keeps_positivity():
    # The same rounding at eta0 = 0.5: a static sweep from t = 0 under a long
    # T2* has nu within about 1e-7 of 1 and a small phase on its first rows,
    # where `mcmag sweep` exited 3 before the sweep solved in plane coordinates.
    cfg = SweepConfig(scenario="static_single", b0_uT=1.0, T2_star_us=10.0, grid_start=0.0,
                      grid_stop=1.0, grid_points=400, eta0=0.5)
    rows = run_sweep(cfg)
    assert len(rows) == 400
    for r in rows:
        assert all(0.0 <= x <= 1.0 for x in (r.c0_max, r.c1_max, r.p_inc_opt, r.helstrom_err))


def test_stack_builder_rejects_each_bad_row():
    with pytest.raises(discrim.DomainError, match="nu"):
        channel.pair_factors([0.5, np.nan], [0.1, 0.1])
    with pytest.raises(discrim.DomainError, match="mu"):
        channel.pair_factors([0.5, 0.5], [0.1, np.nan])


def test_oracle_shares_no_code_with_the_solver(monkeypatch):
    # The grid search checks the closed form, so it must keep working with
    # every solver routine and every qmat routine broken.
    pair = channel.build_state_pair(0.8, np.exp(-0.7j), 0.4)
    want = grid_search_povm(pair, grid_density=64, refine=1)

    def broken(*args, **kwargs):
        raise AssertionError("the oracle reached solver code")

    for name in dir(qmat):
        if callable(getattr(qmat, name)) and not isinstance(getattr(qmat, name), type):
            monkeypatch.setattr(qmat, name, broken)
    for name in ("solve_max_confidence", "_measure", "_clip", "helstrom_error",
                 "min_error_probability", "conditional_error", "threshold_inconclusive",
                 "min_error_projectors"):
        monkeypatch.setattr(discrim, name, broken)
    got = grid_search_povm(pair, grid_density=64, refine=1)
    assert (got.c0, got.c1, got.p_inc) == (want.c0, want.c1, want.p_inc)

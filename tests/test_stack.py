"""The stacked solve and capping: every row bitwise its batch-of-one call, plus the POVM
invariants."""

import numpy as np
import pytest

from mcmag import channel, discrim, qmat
from mcmag.discrim import BRANCHES, grid_search_povm
from mcmag.errors import UndefinedConditionalError
from mcmag.sweep import NU_FLOOR, SweepConfig, run_sweep

I2 = np.eye(2)
TOL = 1e-9
#: Pure no-field states (nu = 1) round worse: ROADMAP item 3 (3a).
PURE_TOL = 1e-8


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


def blob(sol):
    p = sol.povm
    arrays = (p.pi0, p.pi1, p.pi_inc)
    scalars = np.array([sol.c0_max, sol.c1_max, sol.p_inc_opt])
    return (sol.branch, scalars.tobytes()) + tuple(np.asarray(a).tobytes() for a in arrays)


@pytest.mark.parametrize("eta0", [0.5, 0.23, 0.81, 4e-7, 1.0 - 4e-7])
def test_batch_rows_equal_batch_of_one(eta0):
    rng = np.random.default_rng([7, int(eta0 * 1e9)])
    nu, mu = draws(rng, 300)
    pairs = channel.StatePair(nu, mu, eta0)
    sols = discrim.solve_stack(pairs)
    helstrom = discrim.min_error_stack(pairs)
    cond = discrim.conditional_error_stack(sols.povm, pairs)
    for k in range(len(nu)):
        pair = channel.build_state_pair(nu[k], mu[k], eta0)
        for name in ("rho0", "rho1", "rho"):
            assert getattr(pair, name).tobytes() == getattr(pairs, name)[k].tobytes()
        one = discrim.solve_max_confidence(pair)
        assert blob(one) == blob(sols.row(k)), k
        assert np.float64(discrim.min_error_probability(pair)).tobytes() == helstrom[k].tobytes()
        try:
            single = discrim.conditional_error(one.povm, pair)
        except UndefinedConditionalError:
            assert np.isnan(cond[k])
        else:
            assert np.float64(single).tobytes() == cond[k].tobytes()


def test_stacked_solutions_meet_the_invariants():
    rng = np.random.default_rng(2024)
    seen = set()
    for eta0 in (0.5, 0.3, 4e-7, 1.0 - 4e-7):
        nu, mu = draws(rng, 400)
        pairs = channel.StatePair(nu, mu, eta0)
        sols = discrim.solve_stack(pairs)
        for k in range(len(nu)):
            sol = sols.row(k)
            seen.add(sol.branch)
            pi0, pi1, pi_inc = sol.povm.ops
            assert np.max(np.abs(pi0 + pi1 + pi_inc - I2)) <= TOL
            for op in (pi0, pi1, pi_inc):
                assert np.linalg.eigvalsh(op)[0] >= -TOL
            for x in (sol.c0_max, sol.c1_max, sol.p_inc_opt):
                assert 0.0 <= x <= 1.0
            rho, rho0, rho1 = pairs.rho[k], pairs.rho0[k], pairs.rho1[k]
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


def test_pure_state_extreme_prior_keeps_positivity():
    # rho^(-1/2) rounding left Pi_? with an eigenvalue below -1e-10 here; the
    # row is solved again in plane coordinates (ROADMAP item 3a).
    mu = 7.640057898065168e-08 - 2.555426162089355e-07j
    pairs = channel.StatePair([1.0], [mu], 1.0 - 4e-7)
    sol = discrim.solve_stack(pairs).row(0)
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
        channel.StatePair([0.5, np.nan], [0.1, 0.1], 0.5)
    with pytest.raises(discrim.DomainError, match="mu"):
        channel.StatePair([0.5, 0.5], [0.1, np.nan], 0.5)


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
    for name in ("solve_stack", "solve_max_confidence", "_measure",
                 "_clip01", "min_error_stack",
                 "conditional_error_stack", "threshold_inconclusive", "min_error_projectors"):
        monkeypatch.setattr(discrim, name, broken)
    got = grid_search_povm(pair, grid_density=64, refine=1)
    assert (got.c0, got.c1, got.p_inc) == (want.c0, want.c1, want.p_inc)


def same_confidence(one, stacked):
    """A one-pair confidence (None where undefined) against a stacked one (NaN there)."""
    return np.isnan(stacked) if one is None else np.float64(one).tobytes() == stacked.tobytes()


@pytest.mark.parametrize("eta0", [0.5, 0.23, 0.81, 4e-7, 1.0 - 4e-7])
def test_threshold_rows_equal_batch_of_one(eta0):
    rng = np.random.default_rng([7, int(eta0 * 1e9)])
    nu, mu = draws(rng, 300)
    pairs = channel.StatePair(nu, mu, eta0)
    sols = discrim.solve_stack(pairs)
    for cap in (0.0, 0.37, 1.0):
        capped = discrim.threshold_stack(sols, pairs, cap)
        for k in range(len(nu)):
            pair = channel.build_state_pair(nu[k], mu[k], eta0)
            one = discrim.threshold_inconclusive(discrim.solve_max_confidence(pair), pair, cap)
            assert one.povm.ops.tobytes() == capped.povm.ops[k].tobytes(), (cap, k)
            assert same_confidence(one.c0, capped.c0[k]) and same_confidence(one.c1, capped.c1[k])
            for x, xs in ((one.p_inc, capped.p_inc), (one.mix, capped.mix)):
                assert np.float64(x).tobytes() == xs[k].tobytes(), (cap, k)

import math

import numpy as np
import pytest

from mcmag import (
    OuParams,
    build_state_pair,
    cpmg_switching,
    empirical_confidence,
    empirical_dephasing,
    free_decay,
    nu_ou,
    ou_trajectory,
    simulate_clicks,
    solve_max_confidence,
)
from mcmag.discrim import Povm
from mcmag.errors import DomainError
from mcmag.noise_sim import ClickTally, _streams, substream

KAPPA = 3.6
TAU_C = 25.0


def test_params_validation():
    with pytest.raises(DomainError):
        OuParams(kappa=1.0, tau_c=25.0, dt=1.0, T=1.0, seed=0, n_traj=10)  # dt too big
    with pytest.raises(DomainError):
        OuParams(kappa=1.0, tau_c=25.0, dt=0.1, T=1.0, seed=0, n_traj=0)
    with pytest.raises(DomainError):
        OuParams(kappa=-1.0, tau_c=25.0, dt=0.1, T=1.0, seed=0, n_traj=1)
    with pytest.raises(DomainError):  # more trajectories than counter word 2 holds
        OuParams(kappa=1.0, tau_c=25.0, dt=0.1, T=1.0, seed=0, n_traj=2**64 + 1)


def test_negative_seed_is_a_domain_error():
    # Both used to reach SeedSequence and fail with its bare ValueError.
    with pytest.raises(DomainError):
        empirical_dephasing(OuParams(kappa=1.0, tau_c=25.0, dt=0.1, T=1.0, seed=-1, n_traj=10))
    pair = build_state_pair(0.8, np.exp(-0.3j), 0.5)
    sol = solve_max_confidence(pair)
    with pytest.raises(DomainError):
        simulate_clicks(sol.povm, pair, 100, seed=-1)


def jumped_stream(seed, index):
    """The reference construction of trajectory ``index``'s stream."""
    base = np.random.Philox(np.random.SeedSequence(seed))
    return np.random.Generator(base.jumped(index))


@pytest.mark.parametrize("seed", [0, 20260808])
def test_trajectory_stream_equals_jumped(seed):
    stream = _streams(seed)
    for index in (0, 1, 2047, 2048, 2**32, 2**63 + 5, 2**64 - 1):
        want = jumped_stream(seed, index).standard_normal(300).tobytes()
        rng = stream(index)
        assert rng.standard_normal(300).tobytes() == want
        rng.random(3, dtype=np.float32)  # leave a half-used word behind
        assert substream(seed, index).standard_normal(300).tobytes() == want


def test_trajectory_index_bound():
    stream = _streams(0)
    for index in (-1, 2**64):
        with pytest.raises(DomainError):
            stream(index)


def stationary_samples(params):
    """The n_traj stationary starting values, one per trajectory stream."""
    stream = _streams(params.seed)
    return np.array(
        [params.kappa * stream(i).standard_normal(1)[0] for i in range(params.n_traj)]
    )


def test_zero_coupling_is_silent():
    params = OuParams(kappa=0.0, tau_c=TAU_C, dt=0.01, T=0.5, seed=3, n_traj=64)
    assert np.all(ou_trajectory(params, 0) == 0.0)
    est = empirical_dephasing(params)
    assert est.nu_hat == 1.0
    assert est.imag_hat == 0.0


def test_trajectory_seed_determinism():
    params = OuParams(kappa=KAPPA, tau_c=TAU_C, dt=0.01, T=0.5, seed=5, n_traj=4)
    assert ou_trajectory(params, 2).tobytes() == ou_trajectory(params, 2).tobytes()
    other = OuParams(kappa=KAPPA, tau_c=TAU_C, dt=0.01, T=0.5, seed=6, n_traj=4)
    assert ou_trajectory(params, 2).tobytes() != ou_trajectory(other, 2).tobytes()
    est1 = empirical_dephasing(params)
    est2 = empirical_dephasing(params)
    assert est1 == est2


def numpy_scalar_ou_trajectory(params, index):
    """The OU recursion as first written, on numpy scalars: the reference path."""
    n_steps = math.ceil(params.T / params.dt - 1e-9)
    eps = substream(params.seed, index).standard_normal(n_steps + 1)
    decay = math.exp(-params.dt / params.tau_c)
    sig = params.kappa * math.sqrt(max(0.0, 1.0 - decay * decay))
    path = np.empty(n_steps + 1)
    path[0] = params.kappa * eps[0]
    for i in range(n_steps):
        path[i + 1] = path[i] * decay + sig * eps[i + 1]
    return path


@pytest.mark.parametrize("seed", [0, 8, 20260808])
def test_trajectory_equals_numpy_scalar_recursion(seed):
    for kappa, tau_c, dt, T in ((KAPPA, TAU_C, TAU_C / 100.0, TAU_C),
                                (0.7, 3.0, 0.01, 1.0), (12.0, 400.0, 0.05, 2.0)):
        params = OuParams(kappa=kappa, tau_c=tau_c, dt=dt, T=T, seed=seed, n_traj=2**41)
        for index in (0, 1, 999, 2**40):
            want = numpy_scalar_ou_trajectory(params, index)
            got = ou_trajectory(params, index)
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_stationary_variance():
    params = OuParams(kappa=KAPPA, tau_c=TAU_C, dt=0.1, T=1.0, seed=7, n_traj=100_000)
    samples = stationary_samples(params)
    var = samples.var(ddof=1)
    se = KAPPA**2 * math.sqrt(2.0 / (len(samples) - 1))
    assert abs(var - KAPPA**2) <= 3.0 * se
    assert abs(samples.mean()) <= 3.0 * KAPPA / math.sqrt(len(samples))


def test_lag_tau_c_autocorrelation():
    # correlate B(0) with B(tau_c): expectation kappa^2 / e
    n = 60_000
    dt = TAU_C / 100.0
    params = OuParams(kappa=KAPPA, tau_c=TAU_C, dt=dt, T=TAU_C, seed=8, n_traj=n)
    prods = np.empty(n)
    for i in range(n):
        path = ou_trajectory(params, i)
        prods[i] = path[0] * path[100]
    want = KAPPA**2 * math.exp(-1.0)
    se = prods.std(ddof=1) / math.sqrt(n)
    assert abs(prods.mean() - want) <= 3.0 * se


def test_empirical_dephasing_free_decay():
    t = 0.2
    params = OuParams(
        kappa=KAPPA, tau_c=TAU_C, dt=t / 100.0, T=t, seed=42, n_traj=100_000
    )
    est = empirical_dephasing(params)
    analytic = nu_ou(KAPPA, TAU_C, free_decay(t))
    assert abs(est.nu_hat - analytic) <= 3.0 * est.std_err
    assert abs(est.imag_hat) <= 3.0 * est.imag_std_err


def test_empirical_dephasing_pulsed():
    sw = cpmg_switching(4, 0.5)
    params = OuParams(
        kappa=KAPPA, tau_c=TAU_C, dt=0.01, T=sw.total_time, seed=43, n_traj=60_000
    )
    est = empirical_dephasing(params, sw)
    analytic = nu_ou(KAPPA, TAU_C, sw)
    assert abs(est.nu_hat - analytic) <= 3.0 * est.std_err


def test_empirical_dephasing_dt_guard():
    sw = cpmg_switching(2, 0.5)
    params = OuParams(
        kappa=KAPPA, tau_c=TAU_C, dt=0.05, T=sw.total_time, seed=1, n_traj=8
    )
    with pytest.raises(DomainError):
        empirical_dephasing(params, sw)  # dt > (pulse spacing)/50


def test_std_err_scales_with_trajectories():
    t = 0.15
    small = empirical_dephasing(
        OuParams(kappa=KAPPA, tau_c=TAU_C, dt=t / 60, T=t, seed=9, n_traj=4_000)
    )
    big = empirical_dephasing(
        OuParams(kappa=KAPPA, tau_c=TAU_C, dt=t / 60, T=t, seed=9, n_traj=16_000)
    )
    ratio = small.std_err / big.std_err
    assert 1.6 <= ratio <= 2.6


def test_std_err_scales_with_shots():
    pair = build_state_pair(0.7, 0.1 + 0.6j, 0.5)
    sol = solve_max_confidence(pair)
    small = empirical_confidence(simulate_clicks(sol.povm, pair, 25_000, seed=4))
    big = empirical_confidence(simulate_clicks(sol.povm, pair, 100_000, seed=4))
    for lo, hi in (
        (small.c0_std_err, big.c0_std_err),
        (small.p_inc_std_err, big.p_inc_std_err),
    ):
        assert 1.6 <= lo / hi <= 2.6


def test_clicks_orthogonal_states_never_cross():
    pair = build_state_pair(1.0, -1.0, 0.5)
    sol = solve_max_confidence(pair)
    tally = simulate_clicks(sol.povm, pair, 50_000, seed=11)
    assert tally.counts[0, 1] == 0
    assert tally.counts[1, 0] == 0
    assert tally.counts[:, 2].sum() == 0


def test_clicks_all_inconclusive():
    pair = build_state_pair(0.8, 0.5j, 0.5)
    all_inc = Povm(
        pi0=np.zeros((2, 2), dtype=complex),
        pi1=np.zeros((2, 2), dtype=complex),
        pi_inc=np.eye(2, dtype=complex),
        a=0.0,
        b=0.0,
    )
    tally = simulate_clicks(all_inc, pair, 10_000, seed=12)
    assert tally.counts[:, 2].sum() == 10_000
    est = empirical_confidence(tally)
    assert est.p_inc_hat == 1.0
    assert est.c0_hat is None and est.c1_hat is None


def test_clicks_match_solver_confidences():
    pair = build_state_pair(0.8, np.exp(-1j * np.pi / 4), 0.5)
    sol = solve_max_confidence(pair)
    tally = simulate_clicks(sol.povm, pair, 1_000_000, seed=99)
    est = empirical_confidence(tally)
    assert abs(est.c0_hat - sol.c0_max) <= 3.0 * est.c0_std_err
    assert abs(est.c1_hat - sol.c1_max) <= 3.0 * est.c1_std_err
    assert abs(est.p_inc_hat - sol.p_inc_opt) <= 3.0 * est.p_inc_std_err


def test_clicks_deterministic():
    pair = build_state_pair(0.7, 0.3 + 0.2j, 0.4)
    sol = solve_max_confidence(pair)
    t1 = simulate_clicks(sol.povm, pair, 5_000, seed=5)
    t2 = simulate_clicks(sol.povm, pair, 5_000, seed=5)
    assert np.array_equal(t1.counts, t2.counts)


def test_empirical_confidence_arithmetic():
    counts = np.array([[90, 0, 0], [10, 0, 0]], dtype=np.int64)
    est = empirical_confidence(ClickTally(counts=counts, shots=100))
    assert est.c0_hat == pytest.approx(0.9)
    assert est.c0_std_err == pytest.approx(math.sqrt(0.9 * 0.1 / 100))
    assert est.c1_hat is None
    assert est.p_inc_hat == 0.0
    with pytest.raises(DomainError):
        ClickTally(counts=counts, shots=99)

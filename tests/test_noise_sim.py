import dataclasses
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from mcmag import (
    OuParams,
    build_state_pair,
    cpmg_switching,
    empirical_confidence,
    empirical_dephasing,
    free_decay,
    noise_sim,
    nu_ou,
    ou_trajectory,
    simulate_clicks,
    solve_max_confidence,
    sweep,
)
from mcmag.discrim import Povm
from mcmag.errors import DomainError
from mcmag.noise_sim import (
    _BLOCK,
    _CHUNK,
    _CHUNK_BYTES,
    ClickTally,
    _grid_and_weights,
    _normals,
    _ou_rows,
    _streams,
    empirical_dephasings,
    substream,
)

ROOT = Path(__file__).resolve().parent.parent

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


def uniform_paths(params, first, count):
    """Trajectories first, ..., first+count-1 on ou_trajectory's uniform grid, as columns."""
    n_steps = math.ceil(params.T / params.dt - 1e-9)
    decay = math.exp(-params.dt / params.tau_c)
    sig = params.kappa * math.sqrt(max(0.0, 1.0 - decay * decay))
    rows = _ou_rows(params.kappa, _normals(params.seed, first, count, n_steps + 1),
                    np.full(n_steps, decay), np.full(n_steps, sig))
    return np.array([row.copy() for row in rows])


def test_chunk_columns_equal_trajectories():
    # One chunk that spans a _CHUNK boundary and ends in a short _BLOCK:
    # both sides of the first block copy, 2047 | 2048, and the last column.
    params = OuParams(kappa=KAPPA, tau_c=TAU_C, dt=0.05, T=1.0, seed=11, n_traj=_CHUNK + 3)
    paths = uniform_paths(params, 0, _CHUNK + 3)
    for index in (0, _BLOCK - 1, _BLOCK, _BLOCK + 1, _CHUNK - 1, _CHUNK, _CHUNK + 2):
        want = ou_trajectory(params, index)
        assert paths[:, index].dtype == want.dtype
        assert paths[:, index].tobytes() == want.tobytes()


def test_chunk_at_the_top_of_the_stream_range():
    count = _BLOCK + 3
    first = 2**64 - count
    params = OuParams(kappa=KAPPA, tau_c=TAU_C, dt=0.05, T=1.0, seed=13, n_traj=2**64)
    paths = uniform_paths(params, first, count)
    for offset in (0, _BLOCK - 1, _BLOCK, count - 1):
        want = ou_trajectory(params, first + offset)
        assert paths[:, offset].tobytes() == want.tobytes()
    with pytest.raises(DomainError):  # one trajectory past the last stream
        uniform_paths(params, first + 1, count)
    with pytest.raises(DomainError):
        _streams(params.seed)(2**64)


def test_chunk_memory_is_capped():
    # 20,000 steps: one chunk of all 200 trajectories would hold 32 MB of path.
    params = OuParams(kappa=0.05, tau_c=1.0, dt=0.02, T=400.0, seed=14, n_traj=200)
    tracemalloc.start()
    try:
        est = empirical_dephasing(params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * _CHUNK_BYTES
    assert abs(est.nu_hat - nu_ou(0.05, 1.0, free_decay(400.0))) <= 3.0 * est.std_err


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
    for start in range(0, n, _CHUNK):  # columns equal ou_trajectory(params, i)
        path = uniform_paths(params, start, min(_CHUNK, n - start))
        prods[start:start + path.shape[1]] = path[0] * path[100]
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


def test_empirical_dephasing_bits():
    # The validate reports print 9 digits; this pins the estimate to the
    # last bit, over a chunk boundary, so a reordered phase sum shows.
    sw = cpmg_switching(4, 0.5)
    params = OuParams(
        kappa=KAPPA, tau_c=TAU_C, dt=0.5 / 50, T=sw.total_time, seed=7, n_traj=_CHUNK + 2
    )
    est = empirical_dephasing(params, sw)
    assert [x.hex() for x in (est.nu_hat, est.std_err, est.imag_hat, est.imag_std_err)] == [
        "0x1.f4e5493a3a951p-1",
        "0x1.5e42a18e23aa6p-11",
        "0x1.42e821bae20f5p-14",
        "0x1.28ae4f79c2c17p-8",
    ]
    assert est.n_traj == _CHUNK + 2


def reference_dephasing(params, switching):
    """One check as the kernel was first written: each chunk's full path by
    the in-place recursion, then the phase loop over its rows."""
    times, weights = _grid_and_weights(switching, params.dt)
    decay = np.exp(-np.diff(times) / params.tau_c)
    sig = params.kappa * np.sqrt(np.maximum(0.0, 1.0 - decay * decay))
    n = params.n_traj
    chunk = max(1, min(_CHUNK, _CHUNK_BYTES // (8 * times.size)))
    stream = _streams(params.seed)
    sums = [[0.0, 0.0], [0.0, 0.0]]
    for start in range(0, n, chunk):
        path = np.empty((times.size, min(chunk, n - start)))
        for j in range(path.shape[1]):
            path[:, j] = stream(start + j).standard_normal(times.size)
        path[0] *= params.kappa
        for k in range(decay.size):
            path[k + 1] *= sig[k]
            path[k + 1] += path[k] * decay[k]
        phase = weights[0] * path[0]
        for k in range(1, times.size):
            phase += path[k] * weights[k]
        for total, part in zip(sums, (np.cos(phase), np.sin(phase))):
            total[0] += float(np.sum(part))
            total[1] += float(np.sum(part * part))
    stats = []
    for total, total2 in sums:
        mean = total / n
        var = max(0.0, (total2 - n * mean**2) / (n - 1)) if n > 1 else math.inf
        stats += [mean, math.sqrt(var / n)]
    return [x.hex() for x in stats]


def ou_checks(kappa, seed, n_traj, grids):
    """(params, switching) of each (switching, dt) in ``grids`` on one bath."""
    return [(OuParams(kappa=kappa, tau_c=TAU_C, dt=dt, T=sw.total_time, seed=seed,
                      n_traj=n_traj), sw) for sw, dt in grids]


SHARED_DRAW_CASES = {
    "free decay, three equal lengths": ou_checks(
        KAPPA, 0, 300, [(free_decay(t), t / 100.0) for t in (0.1, 0.25, 0.4)]),
    "pulse trains N = 2, 4, 8: prefix reads": ou_checks(
        KAPPA, 1, 300, [(cpmg_switching(n, 0.5), 0.01) for n in (2, 4, 8)]),
    "a grid over 1,024 points: two chunk groups": ou_checks(
        KAPPA, 2, 1500, [(free_decay(0.2), 0.002), (free_decay(3.0), 0.001),
                         (cpmg_switching(2, 0.5), 0.01)]),
    "two chunk boundaries, then a short block": ou_checks(
        KAPPA, 3, 2 * _CHUNK + 70, [(cpmg_switching(n, 0.5), 0.01) for n in (2, 4)]),
    "kappa = 0": ou_checks(
        0.0, 4, 100, [(free_decay(0.1), 0.001), (cpmg_switching(2, 0.5), 0.01)]),
}


@pytest.mark.parametrize("case", sorted(SHARED_DRAW_CASES))
def test_shared_draw_equals_one_check_at_a_time(case):
    checks = SHARED_DRAW_CASES[case]
    got = empirical_dephasings(checks)
    assert len(got) == len(checks)
    for est, (params, sw) in zip(got, checks):
        fields = (est.nu_hat, est.std_err, est.imag_hat, est.imag_std_err)
        assert [x.hex() for x in fields] == reference_dephasing(params, sw)
        assert est.n_traj == params.n_traj
    assert empirical_dephasing(*checks[-1]) == got[-1]


def test_shared_draw_checks_share_the_bath_and_the_streams():
    base = OuParams(kappa=KAPPA, tau_c=TAU_C, dt=0.01, T=1.0, seed=5, n_traj=16)
    with pytest.raises(DomainError, match="at least one"):
        empirical_dephasings([])
    for field, value in (("kappa", 1.0), ("tau_c", 30.0), ("seed", 6), ("n_traj", 17)):
        other = dataclasses.replace(base, **{field: value})
        with pytest.raises(DomainError, match=f"checks differ in {field}"):
            empirical_dephasings([(base, None), (other, None)])


def test_shared_draw_keeps_each_checks_refusals():
    base = OuParams(kappa=KAPPA, tau_c=TAU_C, dt=0.01, T=1.0, seed=5, n_traj=16)
    sw = cpmg_switching(2, 0.5)
    with pytest.raises(DomainError, match="switching horizon differs from params.T"):
        empirical_dephasings([(base, None), (base, cpmg_switching(4, 0.5))])
    coarse = OuParams(kappa=KAPPA, tau_c=TAU_C, dt=0.05, T=sw.total_time, seed=5, n_traj=16)
    with pytest.raises(DomainError, match=r"dt must be <= \(pulse spacing\)/50"):
        empirical_dephasings([(base, None), (coarse, sw)])


def test_shared_draw_memory_is_capped():
    # The 20,000-step grid takes chunks of 104 trajectories, so the call
    # holds one chunk's normals at a time only if each is dropped in turn.
    checks = ou_checks(0.05, 14, 200, [(free_decay(0.5), 0.005), (free_decay(400.0), 0.02),
                                       (free_decay(1.0), 0.01)])
    tracemalloc.start()
    try:
        est = empirical_dephasings(checks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * _CHUNK_BYTES
    assert abs(est[1].nu_hat - nu_ou(0.05, TAU_C, free_decay(400.0))) <= 3.0 * est[1].std_err


class CountingStreams:
    """Stands in for ``noise_sim._streams``: counts reseats and normals drawn."""

    def __init__(self):
        self.reseats = []  # trajectory index of each reseat
        self.normals = 0

    def __call__(self, seed):
        at = _streams(seed)

        def counted(index):
            self.reseats.append(index)
            return CountingGenerator(at(index), self)

        return counted


class CountingGenerator:
    def __init__(self, rng, tally):
        self.rng, self.tally = rng, tally

    def standard_normal(self, size=None, out=None):
        drawn = self.rng.standard_normal(size, out=out)
        self.tally.normals += np.size(drawn)
        return drawn


@pytest.mark.parametrize("name, points", [("validate_static_single", 101),
                                          ("validate_cpmg_single", 401)])
def test_a_validate_report_draws_each_normal_once(monkeypatch, name, points):
    # Every bit would survive a regression to one draw per check, so count:
    # one reseat per trajectory and the longest grid's normals, where one
    # draw per check reseats each trajectory three times.
    cfg = sweep.load_config(str(ROOT / "configs" / f"{name}.cfg"))
    cfg = dataclasses.replace(cfg, n_traj=130, shots=1000)
    counting = CountingStreams()
    monkeypatch.setattr(noise_sim, "_streams", counting)
    report, ok = sweep.validate_report(cfg)
    assert report.count("analytic=") >= 6  # three OU checks and the click lines
    assert counting.reseats == list(range(cfg.n_traj))  # one chunk group
    assert counting.normals == cfg.n_traj * points


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
    all_inc = Povm(np.array((
        np.zeros((2, 2), dtype=complex),
        np.zeros((2, 2), dtype=complex),
        np.eye(2, dtype=complex),
    )))
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

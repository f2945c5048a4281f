"""The one-pair kernels against the constructions they replaced, byte for byte.

Each ``reference_*`` function below is the earlier, slower construction
kept verbatim as the oracle: ``np.cross`` and ``np.column_stack`` in
``dilate_povm``, ``np.trace`` in ``born_residual``,
``achieved_confidences`` and ``threshold_inconclusive``, ``np.frompyfunc``
in ``spectral_pow``, the per-level block builder in
``decompose_two_level``, the one-pair capping (the per-eigenvalue
loop of ``min_error_projectors``, the scalar ``threshold_inconclusive``)
that the capping kernel replaced, the six ``np.trace`` calls
of ``simulate_clicks``' Born table, and the Helstrom bound as a trace norm.
The rewrites run the same floating-point operations in the same order, so
every field must match exactly, not within a tolerance; the one exception
is the closed-form Helstrom bound, which is exact only at ``eta0 = 0.5``
(every shipped config) and within 1.2e-16 at other priors.
"""

import math
from pathlib import Path

import numpy as np
import pytest

from mcmag import channel, dilation, discrim, noise_sim, plane, qmat, sweep
from mcmag.plane import BRANCHES
from mcmag.sweep import NU_FLOOR

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def edge_pairs(seed, n=400):
    """Seeded pairs with the edges oversampled: nu at NU_FLOOR and 1, |mu| at 0
    and 1, eta0 near 0 and near 1."""
    rng = np.random.default_rng(seed)
    out = []
    for k in range(n):
        nu = (rng.uniform(1e-3, 1.0), NU_FLOOR, 10.0 ** rng.uniform(-9, -3), 1.0)[k % 4]
        size = (math.sqrt(rng.uniform()), 1.0, 0.0, 10.0 ** rng.uniform(-12, -2))[(k // 4) % 4]
        mu = size * complex(np.exp(1j * rng.uniform(-np.pi, np.pi)))
        eta0 = (rng.uniform(0.1, 0.9), 10.0 ** rng.uniform(-6, -1.5),
                1.0 - 10.0 ** rng.uniform(-6, -1.5))[(k // 16) % 3]
        out.append(channel.build_state_pair(nu, mu, eta0))
    return out


def solved(seed):
    """(pair, solution) for every edge pair the solver accepts."""
    out = []
    for pair in edge_pairs(seed):
        try:
            out.append((pair, discrim.solve_max_confidence(pair)))
        except discrim.PsdViolationError:  # rank-one Pi_? positivity: ROADMAP item 3 (3a)
            pass
    return out


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- the replaced constructions ---------------------------------------------


def reference_dilate_povm(povm):
    pis = np.array([dilation.measurement_vector(op[None])[0] for op in povm.ops])
    b = pis.conj()
    col0 = b[:, 0]
    col1 = b[:, 1]
    anc = np.conj(np.cross(col0, col1))
    anc = anc / np.linalg.norm(anc)
    c = np.conj(anc)
    for k in range(3):
        if abs(c[k]) > 1e-8:
            phase = c[k].conjugate() / abs(c[k])
            c = c * phase
            c[k] = abs(c[k])
            break
    anc = np.conj(c)
    u = np.column_stack([col0, col1, anc])
    e_vectors = np.column_stack([pis, c])
    return u, c, e_vectors, pis


def reference_born_residual(dil, povm, states):
    worst = 0.0
    for rho in states:
        ext = np.zeros((3, 3), dtype=complex)
        ext[:2, :2] = rho
        for k, op in enumerate(povm.ops):
            direct = float(np.trace(rho @ op).real)
            e = dil.e_vectors[k]
            via_u = float(np.vdot(e, ext @ e).real)
            worst = max(worst, abs(direct - via_u))
    return worst


def reference_decompose_two_level(u, tol=1e-10):
    def two_level(block, rows):
        out = np.eye(3, dtype=complex)
        i, j = rows
        out[i, i] = block[0, 0]
        out[i, j] = block[0, 1]
        out[j, i] = block[1, 0]
        out[j, j] = block[1, 1]
        return out

    work = u.copy()
    right_ops = []
    for j, rows in ((0, (0, 2)), (1, (1, 2))):
        s = work[2, j]
        t = work[2, 2]
        n = np.hypot(abs(s), abs(t))
        if n == 0.0:
            continue
        block = np.array([[t / n, np.conj(s) / n], [-s / n, np.conj(t) / n]])
        k = two_level(block, rows)
        work = work @ k
        right_ops.append(k)
    factors = [work] + [k.conj().T for k in reversed(right_ops)]
    return [f for f in factors if float(np.max(np.abs(f - np.eye(3)))) > tol]


def reference_achieved_confidences(povm, pair, zero_tol=1e-15):
    out = []
    for op, rho_j, eta_j in ((povm.pi0, pair.rho0, pair.eta0), (povm.pi1, pair.rho1, pair.eta1)):
        fire = float(np.trace(pair.rho @ op).real)
        if fire <= zero_tol:
            out.append(None)
        else:
            conf = eta_j * float(np.trace(rho_j @ op).real) / fire
            out.append(min(max(conf, 0.0), 1.0))
    return tuple(out)


def reference_min_error_projectors(pair):
    diff = qmat.hermitize(pair.eta1 * pair.rho1 - pair.eta0 * pair.rho0)
    eigvals, eigvecs = qmat.herm_eig2(diff)
    pi1 = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        if eigvals[i] > 0.0:
            pi1 = pi1 + qmat.proj(eigvecs[:, i])
    pi0 = qmat.hermitize(qmat.I2 - pi1)
    return discrim.Povm(np.array((pi0, pi1, np.zeros((2, 2), dtype=complex))))


def reference_threshold_inconclusive(sol, pair, p_thresh):
    """The one-pair capping before the stacked kernel; its confidences are
    ``reference_achieved_confidences``, which ``test_traces_equal_np_trace``
    holds equal to the construction it used."""
    if sol.p_inc_opt <= p_thresh:
        return discrim.ThresholdResult(
            povm=sol.povm, c0=sol.c0_max, c1=sol.c1_max, p_inc=sol.p_inc_opt, mix=0.0
        )
    me = reference_min_error_projectors(pair)
    if p_thresh == 0.0:
        mix = 1.0
        povm = me
    else:
        mix = 1.0 - p_thresh / sol.p_inc_opt
        pi0 = qmat.hermitize((1.0 - mix) * sol.povm.pi0 + mix * me.pi0)
        pi1 = qmat.hermitize((1.0 - mix) * sol.povm.pi1 + mix * me.pi1)
        povm = discrim.Povm(np.array((pi0, pi1, qmat.hermitize(qmat.I2 - pi0 - pi1))))
    c0, c1 = reference_achieved_confidences(povm, pair)
    p_inc = float(qmat.trace(pair.rho @ povm.pi_inc))
    return discrim.ThresholdResult(povm=povm, c0=c0, c1=c1, p_inc=p_inc, mix=mix)


def reference_spectral_pow(eig, exponent):
    eigvals, eigvecs = eig
    powered = np.frompyfunc(lambda lam, kept: math.pow(lam, exponent) if kept else 0.0, 2, 1)
    support = eigvals > qmat.SUPPORT_CUTOFF * np.maximum(eigvals[..., 1:], 0.0)
    powered = powered(eigvals, support).astype(float)
    out = (eigvecs * powered[..., None, :]) @ qmat._dagger(eigvecs)
    return 0.5 * (out + qmat._dagger(out))


def reference_trace_norm_herm2(m):
    shape = np.shape(m)[:-2]
    flat = np.asarray(m, dtype=complex).reshape(-1, 4)
    a, c, b = flat[:, 0].real, flat[:, 3].real, flat[:, 1]
    mean = 0.5 * (a + c)
    radius = np.hypot(0.5 * (a - c), np.hypot(b.real, b.imag))
    return (np.abs(mean - radius) + np.abs(mean + radius)).reshape(shape)[()]


def reference_min_error(pair):
    diff = qmat.hermitize(pair.eta1 * pair.rho1 - pair.eta0 * pair.rho0)
    return 0.5 * (1.0 - reference_trace_norm_herm2(diff))


def reference_click_table(povm, pair):
    probs = np.empty((2, 3))
    for j, rho_j in enumerate((pair.rho0, pair.rho1)):
        for k, op in enumerate(povm.ops):
            probs[j, k] = max(0.0, float(np.trace(rho_j @ op).real))
    return probs


# --- the comparisons ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_dilation_equals_cross_product_construction(seed):
    branches = set()
    for pair, sol in solved(seed):
        branches.add(sol.branch)
        dil = dilation.dilate_povm(sol.povm)
        u, c, e_vectors, pis = reference_dilate_povm(sol.povm)
        assert same(dil.u, u) and same(dil.e_vectors, e_vectors) and same(dil.e_vectors[:, :2], pis)
        assert same([dil.c0, dil.c1, dil.c2], c)
        states = (pair.rho0, pair.rho1, pair.rho)
        assert same(dilation.born_residual(dil, sol.povm, states),
                    reference_born_residual(dil, sol.povm, states))
        got = dilation.decompose_two_level(dil.u)
        want = reference_decompose_two_level(u)
        assert len(got) == len(want) and all(same(f, g) for f, g in zip(got, want))
    assert branches == set(BRANCHES)


@pytest.mark.parametrize("seed", [2, 3])
def test_traces_equal_np_trace(seed):
    for pair, sol in solved(seed):
        assert discrim.achieved_confidences(sol.povm, pair) == reference_achieved_confidences(
            sol.povm, pair)
        for cap in (0.0, 0.5 * sol.p_inc_opt, 1.0):
            res = discrim.threshold_inconclusive(sol, pair, cap)
            if res.mix > 0.0:  # otherwise the optimum passes through untouched
                assert same(res.p_inc, float(np.trace(pair.rho @ res.povm.pi_inc).real))
                assert (res.c0, res.c1) == reference_achieved_confidences(res.povm, pair)


def random_hermitian_stack(rng, n):
    """Random, scaled, diagonal, scalar, rank-one and nearly degenerate 2x2s."""
    a = rng.normal(size=(n, 2, 2)) + 1j * rng.normal(size=(n, 2, 2))
    m = a + np.conj(a).swapaxes(1, 2)
    m[1::6] *= (10.0 ** rng.uniform(-100, 100, len(m[1::6])))[:, None, None]
    m[2::6, 0, 1] = m[2::6, 1, 0] = 0.0
    m[3::6] = rng.normal(size=len(m[3::6]))[:, None, None] * np.eye(2)
    v = rng.normal(size=(len(m[4::6]), 2)) + 1j * rng.normal(size=(len(m[4::6]), 2))
    m[4::6] = v[:, :, None] * np.conj(v)[:, None, :]
    m[5::6] = 0.5 * np.eye(2)
    m[5::6, 0, 1] = 1e-13 * (rng.normal(size=len(m[5::6])) + 1j)
    m[5::6, 1, 0] = np.conj(m[5::6, 0, 1])
    return 0.5 * (m + np.conj(m).swapaxes(1, 2))


def test_spectral_pow_equals_frompyfunc():
    rng = np.random.default_rng(23)
    psd = [m for m in random_hermitian_stack(rng, 1200) if qmat.min_eigval(m) >= -qmat.PSD_TOL]
    for exponent in (-0.5, 0.5, -1.0, 2.0):
        for m in psd:
            eig = qmat.herm_eig2(m)
            assert same(qmat.spectral_pow(eig, exponent), reference_spectral_pow(eig, exponent))


def numbers(res):
    """The floats of a one-pair capping result as bytes, None kept."""
    return [None if x is None else np.float64(x).tobytes() for x in (res.c0, res.c1, res.p_inc, res.mix)]


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_capping_equals_scalar_construction(seed):
    for pair, sol in solved(seed):
        me = discrim.min_error_projectors(pair)
        assert all(same(a, b) for a, b in zip(me.ops,
                                              reference_min_error_projectors(pair).ops))
        for povm in (sol.povm, me):
            assert discrim.achieved_confidences(povm, pair) == reference_achieved_confidences(
                povm, pair)
        # 0.5 * p_inc_opt mixes with weight exactly 1/2; 0.37 gives other weights.
        for cap in (0.0, 0.5 * sol.p_inc_opt, 0.37, 1.0):
            got = discrim.threshold_inconclusive(sol, pair, cap)
            want = reference_threshold_inconclusive(sol, pair, cap)
            assert all(same(a, b) for a, b in zip(got.povm.ops, want.povm.ops))
            assert numbers(got) == numbers(want)


def shipped_grids():
    """(name, nu, mu, eta0) of every shipped config's grid, as ``run_sweep`` takes them."""
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = sweep.load_config(str(path))
        values = sweep.grid_values(cfg)
        scenario = sweep.SCENARIOS[cfg.scenario]
        nus = np.maximum(scenario.nu(cfg, values), NU_FLOOR)
        yield (path.stem, *channel.pair_factors(nus, scenario.mu(cfg, values)), cfg.eta0)


def same_rows(stacked, nu, mu, eta0):
    """Whether row k of ``stacked`` is bitwise the trace-norm bound of pair k."""
    rows = [reference_min_error(channel.build_state_pair(nu[k], mu[k], eta0))
            for k in range(len(nu))]
    return same(stacked, np.array(rows))


@pytest.mark.parametrize("seed", [0, 1])
def test_helstrom_bound_equals_trace_norm_construction(seed):
    pairs = edge_pairs(seed)
    nu, mu = channel.pair_factors([p.nu for p in pairs], [p.mu for p in pairs])
    assert same_rows(plane.helstrom_error(nu, mu, 0.5), nu, mu, 0.5)
    for pair in pairs:  # each at its own prior, and the one-pair call a stack's row bit for bit
        one = discrim.min_error_probability(pair)
        assert abs(one - reference_min_error(pair)) <= 1.2e-16
        row = plane.helstrom_error(np.array([pair.nu]), np.array([pair.mu]), pair.eta0)
        assert same(np.float64(one), row[0])


def test_helstrom_bound_equals_trace_norm_construction_on_shipped_grids():
    for name, nu, mu, eta0 in shipped_grids():
        assert eta0 == 0.5, name
        assert same_rows(plane.helstrom_error(nu, mu, eta0), nu, mu, eta0), name


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_click_table_equals_np_trace_loop(seed, monkeypatch):
    # The table is read where simulate_clicks takes its traces.
    traces = []
    trace = qmat.trace

    def recorded(m):
        traces.append(trace(m))
        return traces[-1]

    monkeypatch.setattr(qmat, "trace", recorded)
    for pair, sol in solved(seed):
        capped = discrim.threshold_inconclusive(sol, pair, 0.5 * sol.p_inc_opt).povm
        for povm in (sol.povm, capped):
            noise_sim.simulate_clicks(povm, pair, 16, 0)
            assert same(np.maximum(traces.pop(), 0.0), reference_click_table(povm, pair))

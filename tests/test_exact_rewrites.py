"""The one-pair kernels against the constructions they replaced, byte for byte.

Each ``reference_*`` function below is the earlier, slower construction
kept verbatim as the oracle: ``np.cross`` and ``np.column_stack`` in
``dilate_povm``, ``np.trace`` in ``born_residual``,
``achieved_confidences`` and ``threshold_inconclusive``, ``np.frompyfunc``
in ``spectral_pow`` and the per-level block builder in
``decompose_two_level``.  The rewrites run the same floating-point
operations in the same order, so every field must match exactly, not
within a tolerance.
"""

import math

import numpy as np
import pytest

from mcmag import channel, dilation, discrim, qmat
from mcmag.discrim import BRANCHES
from mcmag.sweep import NU_FLOOR


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
        except discrim.PsdViolationError:  # the known extreme-prior defect
            pass
    return out


def same(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


# --- the replaced constructions ---------------------------------------------


def reference_dilate_povm(povm):
    pis = dilation.measurement_vector(np.stack(povm.operators()))
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
        for k, op in enumerate(povm.operators()):
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


def reference_spectral_pow(eig, exponent):
    eigvals, eigvecs = eig
    powered = np.frompyfunc(lambda lam, kept: math.pow(lam, exponent) if kept else 0.0, 2, 1)
    powered = powered(eigvals, qmat.support(eigvals)).astype(float)
    out = (eigvecs * powered[..., None, :]) @ qmat._dagger(eigvecs)
    return 0.5 * (out + qmat._dagger(out))


# --- the comparisons ---------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1])
def test_dilation_equals_cross_product_construction(seed):
    branches = set()
    for pair, sol in solved(seed):
        branches.add(sol.branch)
        dil = dilation.dilate_povm(sol.povm)
        u, c, e_vectors, pis = reference_dilate_povm(sol.povm)
        assert same(dil.u, u) and same(dil.e_vectors, e_vectors) and same(dil.pi_vectors, pis)
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
    stack = random_hermitian_stack(rng, 1200)
    stack = stack[qmat.is_psd(stack)]
    for exponent in (-0.5, 0.5, -1.0, 2.0):
        for m in (stack, *stack[:200]):
            eig = qmat.herm_eig2(m)
            assert same(qmat.spectral_pow(eig, exponent), reference_spectral_pow(eig, exponent))

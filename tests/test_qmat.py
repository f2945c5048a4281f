import numpy as np
import pytest

from mcmag import dilation, qmat
from mcmag.errors import HermiticityError, PsdViolationError


def random_hermitian(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    return a + a.conj().T


def test_identity_half():
    eigvals, eigvecs = qmat.herm_eig2(0.5 * np.eye(2))
    assert np.allclose(eigvals, [0.5, 0.5])
    # canonical basis under the phase convention
    assert np.allclose(eigvecs, np.eye(2))


def test_pauli_z_diagonal():
    eigvals, eigvecs = qmat.herm_eig2(np.diag([1.0, -1.0]))
    assert np.allclose(eigvals, [-1.0, 1.0])
    assert np.allclose(eigvecs[:, 0], [0.0, 1.0])  # eigenvector of -1 is |1>
    assert np.allclose(eigvecs[:, 1], [1.0, 0.0])


def test_non_hermitian_rejected():
    # The 2x2 kernels take Hermitian input by contract; an outside operator
    # is checked where the dilation takes it.
    with pytest.raises(HermiticityError):
        dilation.measurement_vector(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_reconstruction_oracle_1000_random():
    rng = np.random.default_rng(12)
    worst = 0.0
    for _ in range(1000):
        m = random_hermitian(rng)
        eigvals, eigvecs = qmat.herm_eig2(m)
        rebuilt = (eigvecs * eigvals) @ eigvecs.conj().T
        worst = max(worst, float(np.max(np.abs(rebuilt - m))))
        gram = eigvecs.conj().T @ eigvecs
        assert np.max(np.abs(gram - np.eye(2))) <= 1e-12
        assert eigvals[0] <= eigvals[1]
    assert worst <= 1e-12 * 10  # entries are O(1); a few ulps of slack


def test_eigvec_residual_and_phase_convention():
    rng = np.random.default_rng(3)
    for _ in range(200):
        m = random_hermitian(rng)
        eigvals, eigvecs = qmat.herm_eig2(m)
        for i in range(2):
            v = eigvecs[:, i]
            assert np.max(np.abs(m @ v - eigvals[i] * v)) <= 1e-12
            lead = v[0] if abs(v[0]) > 1e-12 else v[1]
            assert abs(lead.imag) <= 1e-12
            assert lead.real >= -1e-12


def test_determinism_bitwise():
    rng = np.random.default_rng(44)
    m = random_hermitian(rng)
    first_vals, first_vecs = qmat.herm_eig2(m)
    second_vals, second_vecs = qmat.herm_eig2(m.copy())
    assert first_vals.tobytes() == second_vals.tobytes()
    assert first_vecs.tobytes() == second_vecs.tobytes()


def test_psd_pow_scalar_matrix():
    out = qmat.psd_pow(0.5 * np.eye(2), -0.5)
    assert np.allclose(out, np.sqrt(2.0) * np.eye(2), atol=1e-14)


def test_psd_pow_rank1_support():
    proj = np.diag([1.0, 0.0]).astype(complex)
    out = qmat.psd_pow(proj, -0.5)
    assert np.allclose(out, proj, atol=1e-14)


def test_psd_pow_inverse():
    out = qmat.psd_pow(0.5 * np.eye(2), -1.0)
    assert np.allclose(out, 2.0 * np.eye(2), atol=1e-14)
    rng = np.random.default_rng(2)
    m = random_hermitian(rng)
    psd = m @ m.conj().T + 0.1 * np.eye(2)
    assert np.max(np.abs(qmat.psd_pow(psd, -1.0) @ psd - np.eye(2))) <= 1e-12


def test_psd_pow_square_oracle():
    rng = np.random.default_rng(9)
    for _ in range(300):
        m = random_hermitian(rng)
        psd = m @ m.conj().T + 1e-3 * np.eye(2)
        root = qmat.psd_pow(psd, 0.5)
        assert np.max(np.abs(root @ root - psd)) <= 1e-11


def test_psd_pow_support_projector_identity():
    rng = np.random.default_rng(21)
    for _ in range(200):
        v = rng.normal(size=2) + 1j * rng.normal(size=2)
        v = v / np.linalg.norm(v)
        m = 0.7 * np.outer(v, v.conj())  # rank one
        s = qmat.psd_pow(m, -0.5)
        proj = s @ m @ s
        assert np.max(np.abs(proj - np.outer(v, v.conj()))) <= 1e-12
        # full-rank case gives the identity
        m2 = m + 0.2 * np.eye(2)
        s2 = qmat.psd_pow(m2, -0.5)
        assert np.max(np.abs(s2 @ m2 @ s2 - np.eye(2))) <= 1e-12


def test_psd_pow_rejects_negative():
    with pytest.raises(PsdViolationError):
        qmat.psd_pow(np.diag([1.0, -0.1]), 0.5)


def support_rank(m):
    """Number of eigenvalues above the relative support cutoff (per matrix)."""
    rank = qmat.support(qmat.herm_eig2(m)[0]).sum(axis=-1)
    return int(rank) if rank.ndim == 0 else rank


def test_support_rank():
    assert support_rank(np.eye(2)) == 2
    assert support_rank(np.diag([1.0, 0.0])) == 1
    assert support_rank(np.diag([1.0, 1e-14])) == 1


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def test_a_stack_is_the_one_matrix_body_looped():
    # A stack loops the body the one-matrix call runs, so every row is the
    # call on its own matrix bit for bit; (2, 2) and (1, 2, 2) are one input.
    from mcmag import channel, discrim

    rng = np.random.default_rng(35)
    ops = []
    for _ in range(60):
        mu = rng.uniform(0.0, 1.0) * np.exp(1j * rng.uniform(-np.pi, np.pi))
        pair = channel.build_state_pair(rng.uniform(0.05, 1.0), mu, rng.uniform(0.1, 0.9))
        ops.append(discrim.solve_max_confidence(pair).povm.ops)
    stack = np.concatenate(ops)
    vals, vecs = qmat.herm_eig2(stack)
    tops = vecs[:, :, 1]  # strided columns, as the dilation pins them
    rows = rng.normal(size=(len(stack), 3)) + 1j * rng.normal(size=(len(stack), 3))
    pinned, units, lows = qmat.pin_phase(tops), qmat.unit(rows), qmat.min_eigval(stack)
    for k, m in enumerate(stack):
        for one in (m, m[None]):
            got_vals, got_vecs = qmat.herm_eig2(one)
            assert same_bits(got_vals.reshape(2), vals[k]) and same_bits(got_vecs.reshape(2, 2), vecs[k])
            assert same_bits(np.reshape(qmat.min_eigval(one), ()), lows[k])
        assert same_bits(qmat.pin_phase(tops[k]), pinned[k])
        assert same_bits(qmat.pin_phase(tops[k][None]), pinned[k][None])
        assert same_bits(qmat.unit(rows[k][None]), units[k][None])

    # A NaN entry, or a radius past the float range: the outputs the stacked
    # numpy solver gave, NaN where it had NaN.  Only the upper triangle is
    # read; an infinite radius makes the spectrum degenerate (the canonical
    # basis) unless the mean is NaN.
    nan, inf = float("nan"), float("inf")
    base = np.array([[0.3, 0.2 - 0.1j], [0.2 + 0.1j, -0.4]])
    cases = [((0, 0), nan, None), ((1, 1), nan, None), ((0, 1), complex(nan, -0.1), None),
             ((0, 1), complex(0.2, nan), None), ((1, 0), nan, base),
             ((0, 1), complex(inf, nan), ([-inf, inf], np.eye(2))),
             ((0, 1), complex(1.5e308, 1.5e308), ([-inf, inf], np.eye(2)))]
    for idx, value, want in cases:
        m = base.copy()
        m[idx] = value
        with np.errstate(invalid="ignore", over="ignore"):
            got = qmat.herm_eig2(m)
            low = qmat.min_eigval(m)
        if want is None:
            assert np.isnan(got[0]).all() and np.isnan(got[1].view(float)).all() and np.isnan(low)
        elif want is base:
            assert all(same_bits(g, w) for g, w in zip(got, qmat.herm_eig2(base)))
            assert same_bits(low, qmat.min_eigval(base))
        else:
            assert same_bits(got[0], np.array(want[0])) and same_bits(got[1], want[1].astype(complex))
            assert low == -inf

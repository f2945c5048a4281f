"""Extension of the three-outcome qubit measurement to a projective one.

A rank-one triple Pi_0 = |p0><p0|, Pi_1 = |p1><p1|, Pi_? = |p?><p?|
summing to the qubit identity embeds into a three-level system (the
sensor's spare level serves as the ancilla): append an ancilla amplitude
c_k to each |p_k> so the extended vectors |e_k> = |p_k> + c_k |2> become
orthonormal, then the unitary U whose rows are <e_k| maps the
measurement onto projections along the computational levels, with the
inconclusive outcome read out on the ancilla level.  The row order is
(detector 0, detector 1, inconclusive), so

    Tr(rho_j Pi_k) = <e_k| (rho_j ⊕ 0) |e_k> = <k| U (rho_j ⊕ 0) U† |k>.

The ancilla column is the unique (up to phase) unit vector completing
the two orthonormal columns that measurement completeness provides; it
is computed as a conjugated cross product, which keeps U unitary to
machine precision even when one operator carries almost all the weight.
Its phase is fixed so the first non-negligible c_k (in outcome order
0, 1, ?) is real and >= 0; when c_0 > 0 this reproduces

    c_0 = (1 - <p0|p0>)^(1/2),   c_k = -<p0|p_k> / c_0.

Any three-level unitary further factors into at most three two-level
unitaries, each acting on one pair of levels.

The functions follow :mod:`mcmag.qmat`'s rule: guards, weights, rotation
coefficients and checks' reductions on Python numbers with numpy's bits;
numpy keeps the matrix products, the dots, the complex products of the cross
product and the phase, and the complex magnitudes that decide a check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .discrim import Povm, check_povm
from .errors import DilationRankError, DomainError
from .plane import RANK_TOL

_ZERO_WEIGHT = 1e-14
_PIN_TOL = 1e-8
_UNITARY_TOL = 1e-10
_I3 = np.eye(3)
_I3C = np.eye(3, dtype=complex)
_NEXT, _LAST = np.array([1, 2, 0]), np.array([2, 0, 1])  # (a x b)_k = a_n b_l - a_l b_n


@dataclass(frozen=True)
class Dilation:
    """Projective realization of a rank-one three-outcome measurement.

    Row k of ``e_vectors`` is the extended vector |e_k> = |p_k> + c_k |2>:
    ``e_vectors[k, :2]`` is the (weighted) measurement vector |p_k>.  Derived
    from it: the 3x3 unitary ``u``, row k the bra <e_k|, and ``c0``, ``c1``,
    ``c2``.  Outcome order everywhere: detector 0, detector 1, inconclusive.
    ``c0`` is real and >= 0 by the phase convention.
    """

    e_vectors: np.ndarray

    @property
    def u(self) -> np.ndarray:
        return np.conj(self.e_vectors)

    @property
    def c0(self) -> complex:
        return self.e_vectors[0, 2]

    @property
    def c1(self) -> complex:
        return self.e_vectors[1, 2]

    @property
    def c2(self) -> complex:
        return self.e_vectors[2, 2]


def measurement_vector(ops: np.ndarray) -> np.ndarray:
    """Weighted vectors |p_k> with op_k = |p_k><p_k|, one row per operator of
    the ``(n, 2, 2)`` measurement ``ops``; a zero operator gets the zero vector.

    The whole measurement is checked for Hermiticity before any operator's rank:
    :class:`~mcmag.errors.HermiticityError`, then :class:`~mcmag.errors.DilationRankError`.
    """
    ops = qmat.require_hermitian(ops)
    vecs = []
    for op in ops:
        lo, hi, v_hi = qmat.herm_top(op)  # herm_eig2's eigenvalues and top eigenvector
        top = max(hi, 0.0)
        if lo > RANK_TOL * max(top, 1.0):
            raise DilationRankError(f"operator has second eigenvalue {lo:.3e}; rank-one required")
        if top <= _ZERO_WEIGHT:
            vecs.append([0j, 0j])
        else:
            root = math.sqrt(top)
            v_hi = qmat.I2[:, 1] if v_hi is None else v_hi
            vecs.append([qmat.scale(root, z) for z in qmat.pin_phase(v_hi).tolist()])
    return np.array(vecs, dtype=complex).reshape(len(ops), 2)


def dilate_povm(povm: Povm) -> Dilation:
    """Build the three-level unitary realizing a rank-one measurement triple."""
    check_povm(povm)
    (s00, s01), (s10, s11) = [[p + q + r for p, q, r in zip(*rows)]
                              for rows in zip(*povm.ops.tolist())]  # pi0 + pi1 + pi_inc
    if not all(x <= 1e-9 for x in np.abs(np.array([s00 - 1.0, s01, s10, s11 - 1.0])).tolist()):
        raise DomainError("measurement operators do not sum to the identity")

    pis = measurement_vector(povm.ops)

    # Columns of U over the computational levels: U[k, j] = <p_k| j >.  The
    # ancilla column is the conjugated cross product of the two, written
    # out with the multiply and subtract np.cross uses.
    b = pis.conj()
    col0 = b[:, 0]
    col1 = b[:, 1]
    cross = col0[_NEXT] * col1[_LAST] - col0[_LAST] * col1[_NEXT]
    anc = qmat.unit(np.conj(cross))

    # c_k = conj(U[k, 2]); pin the first non-negligible coefficient real >= 0.
    c = np.conj(anc)
    for k, z in enumerate(c.tolist()):
        size = abs(z)  # libm hypot, as numpy's complex scalar abs
        if size > _PIN_TOL:
            c = (c * qmat.over(z.conjugate(), size)).tolist()
            c[k] = abs(c[k])
            break
    e_vectors = np.empty((3, 3), dtype=complex)
    e_vectors[:, :2] = pis
    e_vectors[:, 2] = c
    return Dilation(e_vectors)


def born_residual(dilation: Dilation, povm: Povm, states) -> float:
    """Largest deviation between Tr(rho Pi_k) and the projective readout (NaN if any is NaN).

    ``states`` is one 2x2 state or several, of shape ``(..., 2, 2)``, or none; else DomainError.
    """
    check_povm(povm)
    if not isinstance(dilation, Dilation):
        raise DomainError(f"expected a Dilation, got {type(dilation).__name__}")
    rhos = np.array(states, dtype=complex)
    if rhos.size and rhos.shape[-2:] != (2, 2):  # no states: residual 0
        raise DomainError(f"states must have shape (..., 2, 2), got {rhos.shape}")
    rhos = rhos.reshape(-1, 1, 2, 2)
    direct = qmat.trace(rhos @ povm.ops)
    ext = np.zeros((len(rhos), 1, 3, 3), dtype=complex)
    ext[..., :2, :2] = rhos
    e = dilation.e_vectors
    via_u = np.vecdot(e, (ext @ e[..., None])[..., 0]).real
    return float(np.maximum.reduce(np.abs(direct - via_u), axis=None, initial=0.0))


def unitarity_residual(u: np.ndarray) -> float:
    """Largest entry of ``|u^H u - I|`` for a 3x3 matrix ``u`` (NaN if any is NaN)."""
    devs = np.abs(u.conj().T @ u - _I3).ravel().tolist()
    return math.nan if any(map(math.isnan, devs)) else max(devs)


def decompose_two_level(u: np.ndarray) -> list[np.ndarray]:
    """Factor a 3x3 unitary into at most three two-level unitaries.

    The ordered product of the returned factors reconstructs ``u``; each
    factor differs from the identity on exactly one pair of levels, and
    factors within ``_UNITARY_TOL`` of the identity are dropped (so the identity
    yields an empty list and a block-diagonal input a single factor).
    """
    try:
        u = np.asarray(u, dtype=complex)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"u must be a 3x3 complex matrix, got {u!r}") from exc
    if u.shape != (3, 3):
        raise DomainError("expected a 3x3 matrix")
    if not unitarity_residual(u) <= _UNITARY_TOL:
        raise DomainError("input is not unitary within tolerance")

    # Right-multiply by two-level rotations on levels (j, 2) clearing the
    # bottom row; what remains is a single 2x2 block on levels (0, 1).
    work = u.copy()
    inverses = []
    for j in (0, 1):
        bottom = work[2].tolist()
        s, t = bottom[j], bottom[2]
        try:
            n = abs(complex(abs(s), abs(t)))  # np.hypot: libm hypot
        except OverflowError:
            n = math.inf
        if n == 0.0:
            continue
        k = _I3C.copy()
        k[j, j], k[j, 2] = qmat.over(t, n), qmat.over(s.conjugate(), n)
        k[2, j], k[2, 2] = qmat.over(-s, n), qmat.over(t.conjugate(), n)
        work = work @ k
        inverses.append(k.conj().T)

    factors = [work, *reversed(inverses)]
    mags = np.abs(np.array(factors) - _I3).tolist()
    # A factor is unitary to _UNITARY_TOL, so no deviation is NaN.
    return [f for f, dev in zip(factors, mags) if any(x > _UNITARY_TOL for row in dev for x in row)]

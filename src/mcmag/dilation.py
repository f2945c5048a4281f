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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .discrim import Povm, check_povm
from .errors import DilationRankError, DomainError

_RANK_TOL = 1e-10
_ZERO_WEIGHT = 1e-14
_PIN_TOL = 1e-8
_UNITARY_TOL = 1e-10
_I3 = np.eye(3)
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


def measurement_vector(op: np.ndarray) -> np.ndarray:
    """Weighted vector |p> with op = |p><p|; zero vector for a zero operator.

    ``op`` is one operator or a stack of them; each gets its own vector.
    A non-Hermitian operator raises :class:`~mcmag.errors.HermiticityError`.
    """
    eigvals, eigvecs = qmat.herm_eig2(qmat.require_hermitian(op))
    top = np.maximum(eigvals[..., 1], 0.0)
    bad = eigvals[..., 0] > _RANK_TOL * np.maximum(1.0, top)
    if np.count_nonzero(bad):
        raise DilationRankError(
            f"operator has second eigenvalue {eigvals[..., 0][bad].flat[0]:.3e}; "
            "rank-one required"
        )
    vec = np.sqrt(top)[..., None] * qmat.pin_phase(eigvecs[..., :, 1])
    vec[top <= _ZERO_WEIGHT] = 0.0
    return vec


def dilate_povm(povm: Povm) -> Dilation:
    """Build the three-level unitary realizing a rank-one measurement triple."""
    check_povm(povm)
    total = povm.pi0 + povm.pi1 + povm.pi_inc
    if not np.maximum.reduce(np.abs(total - qmat.I2), axis=None) <= 1e-9:
        raise DomainError("measurement operators do not sum to the identity")

    pis = measurement_vector(povm.ops)

    # Columns of U over the computational levels: U[k, j] = <p_k| j >.  The
    # ancilla column is the conjugated cross product of the two, written
    # out with the multiply and subtract np.cross uses.
    b = pis.conj()
    col0 = b[:, 0]
    col1 = b[:, 1]
    cross = col0[_NEXT] * col1[_LAST] - col0[_LAST] * col1[_NEXT]
    anc = qmat.unit(np.conj(cross)[None])[0]

    # c_k = conj(U[k, 2]); pin the first non-negligible coefficient real >= 0.
    c = np.conj(anc)
    for k in range(3):
        if abs(c[k]) > _PIN_TOL:
            phase = c[k].conjugate() / abs(c[k])
            c = c * phase
            c[k] = abs(c[k])
            break

    e_vectors = np.empty((3, 3), dtype=complex)
    e_vectors[:, :2] = pis
    e_vectors[:, 2] = c
    return Dilation(e_vectors)


def born_residual(dilation: Dilation, povm: Povm, states) -> float:
    """Largest deviation between Tr(rho Pi_k) and the projective readout (NaN if any is NaN)."""
    check_povm(povm)
    rhos = np.array(states, dtype=complex).reshape(-1, 1, 2, 2)
    direct = qmat.trace(rhos @ povm.ops)
    ext = np.zeros((len(rhos), 1, 3, 3), dtype=complex)
    ext[..., :2, :2] = rhos
    e = dilation.e_vectors
    via_u = np.vecdot(e, (ext @ e[..., None])[..., 0]).real
    return float(np.maximum.reduce(np.abs(direct - via_u), axis=None, initial=0.0))


def decompose_two_level(u: np.ndarray) -> list[np.ndarray]:
    """Factor a 3x3 unitary into at most three two-level unitaries.

    The ordered product of the returned factors reconstructs ``u``; each
    factor differs from the identity on exactly one pair of levels, and
    factors within ``_UNITARY_TOL`` of the identity are dropped (so the identity
    yields an empty list and a block-diagonal input a single factor).
    """
    u = np.asarray(u, dtype=complex)
    if u.shape != (3, 3):
        raise DomainError("expected a 3x3 matrix")
    if not np.maximum.reduce(np.abs(u.conj().T @ u - _I3), axis=None) <= _UNITARY_TOL:
        raise DomainError("input is not unitary within tolerance")

    # Right-multiply by two-level rotations on levels (j, 2) clearing the
    # bottom row; what remains is a single 2x2 block on levels (0, 1).
    work = u.copy()
    inverses: list[np.ndarray] = []
    for j in (0, 1):
        s = work[2, j]
        t = work[2, 2]
        n = np.hypot(abs(s), abs(t))
        if n == 0.0:
            continue
        k = _I3.astype(complex)
        k[j, j] = t / n
        k[j, 2] = s.conjugate() / n
        k[2, j] = -s / n
        k[2, 2] = t.conjugate() / n
        work = work @ k
        inverses.append(k.conj().T)

    factors = [work, *reversed(inverses)]
    return [f for f in factors if np.maximum.reduce(np.abs(f - _I3), axis=None) > _UNITARY_TOL]

"""Dense complex linear algebra for 2x2 Hermitian operators, one or a stack.

Everything the rest of the package needs from linear algebra lives here:
a closed-form Hermitian eigensolver, spectral powers restricted to the
positive support, a positivity test, and the 2x2 idioms every layer shares
(``I2``, ``trace``, ``proj``, ``hermitize``).  Every function takes one matrix
of shape ``(2, 2)`` or a stack of shape ``(n, 2, 2)`` and runs the same
array operations on both, so row ``k`` of a stacked call is bitwise the
call on matrix ``k`` alone.  The closed forms are exact and fully
deterministic -- repeated calls on identical input return
bitwise-identical output, which the sweep tooling relies on.

Matrices are plain ``numpy`` arrays of ``complex128``; no wrapper types.
Input is Hermitian by contract and is not checked here; the dilation
checks a user's operators with :func:`require_hermitian`.
Bitwise stability rests on a few rules: magnitudes of complex numbers
are ``np.hypot`` of the parts, inner products and norms go through
``np.vecdot`` and ``@`` (the BLAS dot and gemv kernels, as ``np.vdot``
and ``np.linalg.norm`` use them), real powers go through ``math.pow``,
traces are the sum of the two diagonal entries (``np.trace``'s sum
without its call), and a cross product is written out with the multiply
and subtract ``np.cross`` uses.  Fixed per-call cost matters as much as
the arithmetic: one pair is a stack of one, so helpers avoid numpy's
Python-level wrappers (``np.max``, ``np.stack``, ``np.cross``) on 2x2 data.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import HermiticityError, PsdViolationError

HERM_TOL = 1e-12
SUPPORT_CUTOFF = 1e-12  # relative to the largest eigenvalue
PSD_TOL = 1e-12
_PHASE_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
_SIGNS = np.array([-1.0, 1.0])
_EYE_FLAT = np.array([1.0, 0.0, 0.0, 1.0])


def _dagger(m: np.ndarray) -> np.ndarray:
    return np.conj(m).swapaxes(-1, -2)


def hermitize(m: np.ndarray) -> np.ndarray:
    """The Hermitian part ``(m + m^H)/2`` of a matrix or of each in a stack."""
    return 0.5 * (m + _dagger(m))


def trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of a matrix or of each in a stack (``np.trace``'s sum)."""
    return (m[..., 0, 0] + m[..., 1, 1]).real


def proj(vec: np.ndarray) -> np.ndarray:
    """|v><v| of a vector, or of each vector in a stack."""
    return vec[..., :, None] * np.conj(vec)[..., None, :]


def unit(vec: np.ndarray) -> np.ndarray:
    """Each row of an ``(n, k)`` complex stack divided by its Euclidean norm.

    The norm is ``np.linalg.norm``'s: the real parts' dot plus the
    imaginary parts', each a strided BLAS dot.
    """
    return vec / np.sqrt(np.vecdot(vec.real, vec.real) + np.vecdot(vec.imag, vec.imag))[:, None]


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Return ``m`` as a complex array, raising if any matrix is not Hermitian.

    Matrix k fails when ``max|m_k - m_k^H| > HERM_TOL * max(1, max|m_k|)``.
    The kernels here trust their input; the dilation calls this on its operators.
    """
    m = np.asarray(m, dtype=complex)
    dev = np.abs(m - _dagger(m))
    if np.maximum.reduce(dev, axis=None, initial=0.0) > HERM_TOL:  # else no matrix can fail
        dev = np.maximum.reduce(dev.reshape(-1, 4), axis=1)
        bad = dev > HERM_TOL * np.maximum(1.0, np.maximum.reduce(np.abs(m).reshape(-1, 4), axis=1))
        if np.count_nonzero(bad):
            raise HermiticityError(f"matrix deviates from Hermiticity by {dev[bad].max():.3e}")
    return m


def pin_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a global phase so the first non-negligible component is real >= 0.

    ``vec`` is a 2-vector or a stack of them (last axis); a vector with
    no component above ``_PHASE_TOL`` comes back unchanged.
    """
    vec = np.asarray(vec, dtype=complex)
    flat = vec.reshape(-1, 2)
    head = flat[:, 0]
    head_size = np.hypot(head.real, head.imag)
    first = head_size > _PHASE_TOL
    if np.count_nonzero(first) == len(flat):  # every pivot is the first component
        return (flat * (np.conj(head) / head_size)[:, None]).reshape(vec.shape)
    tail = flat[:, 1]
    pivot = np.where(first, head, tail)
    size = np.where(first, head_size, np.hypot(tail.real, tail.imag))
    found = size > _PHASE_TOL
    phase = np.conj(pivot) / np.where(found, size, 1.0)
    return np.where(found[:, None], flat * phase[:, None], flat).reshape(vec.shape)


def _mean_radius(m: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``m`` as an ``(n, 4)`` stack of flattened matrices, with the mean and
    half-gap of each spectrum (read from the diagonal and the upper corner)."""
    flat = np.asarray(m, dtype=complex).reshape(-1, 4)
    a = flat[:, 0].real
    c = flat[:, 3].real
    b = flat[:, 1]
    mean = 0.5 * (a + c)
    radius = np.hypot(0.5 * (a - c), np.hypot(b.real, b.imag))
    return flat, mean, radius


def herm_eig2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``(eigvals, eigvecs)`` of a 2x2 Hermitian matrix or a stack.

    ``eigvals[..., :]`` is real and ascending; column ``i`` of ``eigvecs[...]``
    is the unit eigenvector of ``eigvals[..., i]``, its first non-negligible
    component real and >= 0.  The trace/determinant discriminant, not an
    iterative routine, makes the results exact to rounding and deterministic;
    the second eigenvector is the exact orthogonal complement of the first,
    so the columns are orthonormal even near degeneracy.
    """
    shape = np.shape(m)
    flat, mean, radius = _mean_radius(m)
    eigvals = mean[:, None] + radius[:, None] * _SIGNS  # mean - radius, mean + radius
    # Degenerate spectrum: canonical basis under the phase convention.  The
    # scale max(1, |lo|, |hi|) is max(1, |mean| + radius), rounding included.
    degenerate = radius <= 0.5e-12 * np.maximum(1.0, np.abs(mean) + radius)
    any_degenerate = np.count_nonzero(degenerate)

    # Eigenvector of the top eigenvalue; pick the better-conditioned of the
    # two algebraic candidates (b, hi - a) and (hi - c, conj b), then build
    # the bottom one as its exact orthogonal complement.
    cand = np.empty(flat.shape, dtype=complex)
    cand[:, 0] = flat[:, 1]
    cand[:, 1:3] = eigvals[:, 1:] - flat[:, ::3].real
    cand[:, 3] = np.conj(flat[:, 1])
    cand = cand.reshape(-1, 2)
    sq = np.vecdot(cand, cand).real
    v_hi = np.where((sq[0::2] >= sq[1::2])[:, None], cand[0::2], cand[1::2])
    if any_degenerate:
        v_hi[degenerate] = 1.0  # any nonzero vector; replaced below
    v_hi = pin_phase(unit(v_hi))
    v_lo = np.conj(v_hi[:, ::-1])
    v_lo[:, 0] = -v_lo[:, 0]
    eigvecs = np.empty(flat.shape, dtype=complex)
    eigvecs[:, 0::2] = pin_phase(v_lo)
    eigvecs[:, 1::2] = v_hi
    if any_degenerate:
        eigvecs[degenerate] = _EYE_FLAT
    return eigvals.reshape(shape[:-1]), eigvecs.reshape(shape)


def support(eigvals: np.ndarray) -> np.ndarray:
    """Which ascending eigenvalues lie above the relative support cutoff."""
    return eigvals > SUPPORT_CUTOFF * np.maximum(eigvals[..., 1:], 0.0)


def spectral_pow(eig: tuple[np.ndarray, np.ndarray], exponent: float) -> np.ndarray:
    """:func:`psd_pow` of the matrix (or stack) whose :func:`herm_eig2` is ``eig``."""
    eigvals, eigvecs = eig
    if np.count_nonzero(eigvals[..., 0] < -PSD_TOL):
        raise PsdViolationError(
            f"eigenvalue {np.min(eigvals[..., 0]):.3e} below -{PSD_TOL:g}"
        )
    lams, kept = eigvals.ravel().tolist(), support(eigvals).ravel().tolist()
    powered = np.array([math.pow(lam, exponent) if k else 0.0 for lam, k in zip(lams, kept)])
    return hermitize((eigvecs * powered.reshape(eigvals.shape)[..., None, :]) @ _dagger(eigvecs))


def psd_pow(m: np.ndarray, exponent: float) -> np.ndarray:
    """Spectral power of a PSD 2x2 matrix (or stack), pseudo-inverted on its support.

    Eigenvalues below ``SUPPORT_CUTOFF`` relative to the largest one are
    treated as exactly zero; for negative exponents the null space maps
    to zero (Moore-Penrose convention).  An eigenvalue below ``-PSD_TOL``
    raises :class:`PsdViolationError`.
    """
    return spectral_pow(herm_eig2(m), exponent)


def min_eigval(m: np.ndarray) -> float | np.ndarray:
    """The smaller eigenvalue of a Hermitian 2x2 matrix (per matrix)."""
    shape = np.shape(m)[:-2]
    _, mean, radius = _mean_radius(m)
    return (mean - radius).reshape(shape)[()]


def is_psd(m: np.ndarray, tol: float = PSD_TOL) -> bool | np.ndarray:
    """True when all eigenvalues of a Hermitian 2x2 matrix are >= -tol (per matrix)."""
    return min_eigval(m) >= -tol

"""Dense complex linear algebra for 2x2 Hermitian operators.

Everything the rest of the package needs from linear algebra lives here:
a closed-form Hermitian eigensolver, spectral powers restricted to the
positive support, and the 2x2 idioms every layer shares (``I2``,
``trace``, ``proj``, ``hermitize``, which broadcast over leading axes).
The other functions take one ``(2, 2)`` matrix or one vector, except
:func:`require_hermitian`, which checks a whole measurement.  The closed
forms are exact and fully deterministic -- repeated calls on identical
input return bitwise-identical output, which the sweep tooling relies on.

Matrices are plain ``numpy`` arrays of ``complex128``; no wrapper types.
Input is Hermitian by contract and is not checked here; the dilation
checks a user's operators with :func:`require_hermitian`.
Bitwise stability rests on a few rules: magnitudes of complex numbers
are libm's ``hypot`` of the parts (``np.hypot``, or ``abs`` of a Python
complex), inner products and norms go through ``np.vecdot`` and ``@``
(the BLAS dot and gemv kernels, as ``np.vdot`` and ``np.linalg.norm`` use
them), real powers go through ``math.pow``, traces are the sum of the two
diagonal entries (``np.trace``'s sum without its call), and a cross
product is written out with the multiply and subtract ``np.cross`` uses.

The matrix path solves one pair at a time, so fixed per-call cost matters
as much as the arithmetic: the eigensolver reads a matrix's entries once
and does its real arithmetic (the mean, the radius, the eigenvalues, the
degenerate guard, the choice of candidate) on Python floats, whose IEEE
operations give numpy's bits.  The kernels whose last bits depend on the
CPU kernel family (OpenBLAS's dots, numpy's SIMD loops) stay numpy calls:
``np.vecdot`` for the candidate norms and in :func:`unit`, and the complex
divide and multiply of :func:`pin_phase`.
A NaN output's sign is unspecified: ``abs`` of a complex gives +NaN.
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
    """A vector over ``np.linalg.norm``'s norm: two strided BLAS dots, real and imaginary."""
    return vec / math.sqrt(np.vecdot(vec.real, vec.real) + np.vecdot(vec.imag, vec.imag))


def require_hermitian(m: np.ndarray) -> np.ndarray:
    """Return ``m`` as a complex array, raising if any matrix is not Hermitian.

    Matrix k fails when ``max|m_k - m_k^H| > HERM_TOL * max(1, max|m_k|)``.
    The kernels here trust their input; the dilation calls this on its operators.
    """
    m = np.asarray(m, dtype=complex)
    dev = np.abs(m - _dagger(m))
    if np.maximum.reduce(dev, axis=None, initial=0.0) > HERM_TOL:  # else no matrix can fail
        dev = np.maximum.reduce(dev, axis=(-2, -1))
        bad = dev > HERM_TOL * np.maximum(1.0, np.maximum.reduce(np.abs(m), axis=(-2, -1)))
        if np.count_nonzero(bad):
            raise HermiticityError(f"matrix deviates from Hermiticity by {dev[bad].max():.3e}")
    return m


def pin_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a 2-vector's global phase so its first non-negligible component is real >= 0.

    A vector with no component above ``_PHASE_TOL`` comes back unchanged.
    """
    for z in vec.tolist():
        size = abs(z)  # libm hypot, as np.hypot
        if size > _PHASE_TOL:
            return vec * (np.conj(z) / size)
    return vec


def _spectrum(a: float, b: complex, c: float) -> tuple[float, float, float, float]:
    """Eigenvalues (ascending), mean and half-gap of ``[[a, b], [conj b, c]]``."""
    mean = 0.5 * (a + c)
    try:
        radius = abs(complex(0.5 * (a - c), abs(b)))
    except OverflowError:  # hypot past the float range, where np.hypot returns inf
        radius = math.inf
    return mean - radius, mean + radius, mean, radius


def herm_eig2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``(eigvals, eigvecs)`` of a 2x2 Hermitian matrix.

    ``eigvals`` is real and ascending; column ``i`` of ``eigvecs`` is the
    unit eigenvector of ``eigvals[i]``, its first non-negligible component
    real and >= 0.  The trace/determinant discriminant, not an iterative
    routine, makes the results exact to rounding and deterministic; the
    second eigenvector is the exact orthogonal complement of the first,
    so the columns are orthonormal even near degeneracy.
    """
    (a, b), (_, c) = np.asarray(m, dtype=complex).tolist()
    a, c = a.real, c.real
    lo, hi, mean, radius = _spectrum(a, b, c)
    # Degenerate spectrum: canonical basis under the phase convention.  The
    # scale max(1, |lo|, |hi|) is max(1, |mean| + radius), rounding included;
    # it is NaN only beside a NaN or infinite radius, which fails either way.
    if radius <= 0.5e-12 * max(1.0, abs(mean) + radius):
        return np.array([lo, hi]), I2.copy()
    # Eigenvector of the top eigenvalue; pick the better-conditioned of the
    # two algebraic candidates (b, hi - a) and (hi - c, conj b), then build
    # the bottom one as its exact orthogonal complement.
    cand = np.array([[b, hi - a], [hi - c, b.conjugate()]])
    sq0, sq1 = np.vecdot(cand, cand).real.tolist()
    v_hi = pin_phase(unit(cand[0] if sq0 >= sq1 else cand[1])).tolist()
    v_lo = pin_phase(np.array([-v_hi[1].conjugate(), v_hi[0].conjugate()])).tolist()
    return np.array([lo, hi]), np.array([[v_lo[0], v_hi[0]], [v_lo[1], v_hi[1]]])


def support(eigvals: np.ndarray) -> np.ndarray:
    """Which ascending eigenvalues lie above the relative support cutoff."""
    return eigvals > SUPPORT_CUTOFF * np.maximum(eigvals[..., 1:], 0.0)


def spectral_pow(eig: tuple[np.ndarray, np.ndarray], exponent: float) -> np.ndarray:
    """:func:`psd_pow` of the matrix whose :func:`herm_eig2` is ``eig``."""
    eigvals, eigvecs = eig
    if eigvals[0] < -PSD_TOL:
        raise PsdViolationError(f"eigenvalue {eigvals[0]:.3e} below -{PSD_TOL:g}")
    lams, kept = eigvals.tolist(), support(eigvals).tolist()
    powered = np.array([math.pow(lam, exponent) if k else 0.0 for lam, k in zip(lams, kept)])
    return hermitize((eigvecs * powered) @ _dagger(eigvecs))


def psd_pow(m: np.ndarray, exponent: float) -> np.ndarray:
    """Spectral power of a PSD 2x2 matrix, pseudo-inverted on its support.

    Eigenvalues below ``SUPPORT_CUTOFF`` relative to the largest one are
    treated as exactly zero; for negative exponents the null space maps
    to zero (Moore-Penrose convention).  An eigenvalue below ``-PSD_TOL``
    raises :class:`PsdViolationError`.
    """
    return spectral_pow(herm_eig2(m), exponent)


def min_eigval(m: np.ndarray) -> float:
    """The smaller eigenvalue of a Hermitian 2x2 matrix."""
    (a, b), (_, c) = np.asarray(m, dtype=complex).tolist()
    return _spectrum(a.real, b, c.real)[0]

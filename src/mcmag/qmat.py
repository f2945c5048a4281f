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
as much as the arithmetic.  The rule, here and in ``discrim``, ``dilation``
and ``StatePair``: read each 2x2 or 3x3 once with ``tolist()`` and do on
Python numbers every step whose IEEE result numpy does not own -- branches,
guards and clips, scalar arithmetic, entrywise add, subtract and ``conj``,
real x complex scalings (:func:`scale`), ``hypot`` as ``abs(complex(x, y))``,
complex / real as numpy does it (:func:`over`), traces and maxima.  Keep as
numpy calls, on the same strides, only the kernels whose last bits depend on
the CPU kernel family: ``np.vecdot`` and ``@`` (OpenBLAS dot and gemm),
``np.linalg.det``, complex x complex array products (:func:`proj`, the
rotation of :func:`pin_phase`), the divide in :func:`unit`, and ``np.abs``
of a complex array wherever it decides a branch, a count or a check.
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


def scale(r: float, z: complex) -> complex:
    """``r * z`` with numpy's bits: ``(r + 0j) * z``, the zero terms written out."""
    return complex(r * z.real - 0.0 * z.imag, r * z.imag + 0.0 * z.real)


def over(z: complex, n: float) -> complex:
    """``z / n`` for a real ``n > 0`` with numpy's bits: numpy divides a complex by a
    real by multiplying with the reciprocal, where Python's ``/`` divides."""
    inv = 1.0 / n
    return complex((z.real + z.imag * 0.0) * inv, (z.imag - z.real * 0.0) * inv)


def pin_phase(vec: np.ndarray) -> np.ndarray:
    """Rotate a 2-vector's global phase so its first non-negligible component is real >= 0.

    A vector with no component above ``_PHASE_TOL`` comes back unchanged.
    """
    for z in vec.tolist():
        size = abs(z)  # libm hypot, as np.hypot
        if size > _PHASE_TOL:
            return vec * over(z.conjugate(), size)
    return vec


def spectrum(a: float, b: complex, c: float) -> tuple[float, float, float, float]:
    """Eigenvalues (ascending), mean and half-gap of ``[[a, b], [conj b, c]]``."""
    mean = 0.5 * (a + c)
    try:
        radius = abs(complex(0.5 * (a - c), abs(b)))
    except OverflowError:  # hypot past the float range, where np.hypot returns inf
        radius = math.inf
    return mean - radius, mean + radius, mean, radius


def herm_top(m: np.ndarray) -> tuple[float, float, np.ndarray | None]:
    """``(lo, hi, v_hi)`` of a 2x2 Hermitian matrix: its ascending eigenvalues and
    the unit eigenvector of ``hi`` as :func:`herm_eig2` gives it, or None where
    the spectrum is degenerate and :func:`herm_eig2` gives the canonical basis."""
    (a, b), (_, c) = np.asarray(m, dtype=complex).tolist()
    a, c = a.real, c.real
    lo, hi, mean, radius = spectrum(a, b, c)
    # Degenerate spectrum.  The scale max(1, |lo|, |hi|) is max(1, |mean| + radius),
    # rounding included; it is NaN only beside a NaN or infinite radius, which fails either way.
    if radius <= 0.5e-12 * max(1.0, abs(mean) + radius):
        return lo, hi, None
    # Pick the better-conditioned of the two algebraic candidates (b, hi - a)
    # and (hi - c, conj b).
    cand = np.array([[b, hi - a], [hi - c, b.conjugate()]])
    sq0, sq1 = np.vecdot(cand, cand).real.tolist()
    return lo, hi, pin_phase(unit(cand[0] if sq0 >= sq1 else cand[1]))


def herm_eig2(m: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Closed-form ``(eigvals, eigvecs)`` of a 2x2 Hermitian matrix.

    ``eigvals`` is real and ascending; column ``i`` of ``eigvecs`` is the
    unit eigenvector of ``eigvals[i]``, its first non-negligible component
    real and >= 0.  The trace/determinant discriminant, not an iterative
    routine, makes the results exact to rounding and deterministic; the
    second eigenvector is the exact orthogonal complement of the first,
    so the columns are orthonormal even near degeneracy.
    """
    lo, hi, v_hi = herm_top(m)
    if v_hi is None:  # canonical basis under the phase convention
        return np.array([lo, hi]), I2.copy()
    v_hi = v_hi.tolist()
    v_lo = pin_phase(np.array([-v_hi[1].conjugate(), v_hi[0].conjugate()])).tolist()
    return np.array([lo, hi]), np.array([[v_lo[0], v_hi[0]], [v_lo[1], v_hi[1]]])


def spectral_pow(eig: tuple[np.ndarray, np.ndarray], exponent: float) -> np.ndarray:
    """:func:`psd_pow` of the matrix whose :func:`herm_eig2` is ``eig``."""
    eigvals, eigvecs = eig
    lams = eigvals.tolist()
    if lams[0] < -PSD_TOL:
        raise PsdViolationError(f"eigenvalue {lams[0]:.3e} below -{PSD_TOL:g}")
    floor = SUPPORT_CUTOFF * max(lams[1], 0.0)  # the support: eigenvalues above it
    powered = np.array([math.pow(lam, exponent) if lam > floor else 0.0 for lam in lams])
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
    return spectrum(a.real, b, c.real)[0]

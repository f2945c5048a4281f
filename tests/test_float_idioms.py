"""The Python-number idioms of the one-pair path against the numpy steps they
replace, bit for bit.

``qmat``, ``discrim``, ``dilation`` and ``StatePair`` read each 2x2 or 3x3
once with ``tolist()`` and do on Python numbers every step whose IEEE result
numpy does not own.  Each test here pins one such idiom on seeded draws that
include +-0, subnormals, huge values, +-inf and NaN: "same" means the same
bits, or NaN on both sides.  Where numpy's result depends on the CPU kernel
(its SIMD complex magnitude and power loops, its fused multiply-add), the
test says so and the package keeps the numpy call.
"""

import math
import re
import struct
import zlib
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "mcmag"
N = 20000


def draws(rng, n=N):
    """Doubles of every class: ordinary, subnormal, tiny, zero of either sign,
    huge, and a few infinities and NaNs."""
    kind = rng.integers(0, 7, n)
    x = rng.standard_normal(n) * 10.0 ** rng.uniform(-3, 3, n)
    x = np.where(kind == 1, rng.standard_normal(n) * 1e-310, x)
    x = np.where(kind == 2, rng.standard_normal(n) * 10.0 ** rng.uniform(-320, -290, n), x)
    x = np.where(kind == 3, np.copysign(0.0, rng.standard_normal(n)), x)
    x = np.where(kind == 4, rng.standard_normal(n) * 10.0 ** rng.uniform(290, 307, n), x)
    x = np.where((kind == 5) & (rng.uniform(size=n) < 0.1), np.copysign(np.inf, x), x)
    return np.where((kind == 6) & (rng.uniform(size=n) < 0.1), np.nan, x)


def complexes(rng, n=N):
    z = np.empty(n, dtype=complex)
    z.real, z.imag = draws(rng, n), draws(rng, n)
    return z


def same(a, b):
    a, b = complex(a), complex(b)
    return all((math.isnan(x) and math.isnan(y)) or struct.pack("<d", x) == struct.pack("<d", y)
               for x, y in ((a.real, b.real), (a.imag, b.imag)))


def mismatches(got, want):
    return sum(not same(g, w) for g, w in zip(got, want))


@pytest.fixture
def rng(request):
    return np.random.default_rng(zlib.crc32(request.node.name.encode()))


def over(z, n):
    """``z / n`` as numpy divides a complex by a positive real: times ``1/n``."""
    inv = 1.0 / n
    return complex((z.real + z.imag * 0.0) * inv, (z.imag - z.real * 0.0) * inv)


def test_complex_over_real_is_a_multiply_by_the_reciprocal(rng):
    z = complexes(rng)
    n = np.abs(draws(rng))
    n = np.where((n == 0.0) | np.isnan(n), 1.0, n)
    with np.errstate(all="ignore"):
        array = (z / n).tolist()
        scalar = [np.complex128(a) / np.float64(m) for a, m in zip(z.tolist(), n.tolist())]
    mine = [over(a, m) for a, m in zip(z.tolist(), n.tolist())]
    assert mismatches(array, mine) == 0
    assert mismatches(scalar, mine) == 0
    # Python's own complex division divides, and gives other bits.
    assert mismatches(array, [a / m for a, m in zip(z.tolist(), n.tolist())]) > 0


def hypot(x, y):
    try:
        return abs(complex(x, y))
    except OverflowError:  # Python raises past the float range; np.hypot gives inf
        return math.inf


def test_abs_of_a_python_complex_is_libm_hypot(rng):
    x, y = draws(rng), draws(rng)
    with np.errstate(all="ignore"):
        want = np.hypot(x, y).tolist()
    assert mismatches([hypot(a, b) for a, b in zip(x.tolist(), y.tolist())], want) == 0
    # numpy's complex scalar abs is the same libm hypot.
    z = complexes(rng)
    assert mismatches([abs(np.complex128(a)) for a in z.tolist()],
                      [hypot(a.real, a.imag) for a in z.tolist()]) == 0


def test_numpy_abs_of_a_complex_array_is_its_own_kernel(rng):
    # np.abs of a complex array runs numpy's own loop, not libm: under AVX-512 it
    # differs from hypot on about a tenth of these draws, by up to two ulps.  So the
    # package keeps it wherever it decides a branch, a count or a check.  What it
    # may rely on: an entry's bits do not depend on the array's length, shape,
    # strides or the entry's position, so one call may cover several matrices.
    z = complexes(rng)
    with np.errstate(all="ignore"):
        whole = np.abs(z).tolist()
        for length in (1, 2, 3, 4, 8, 9, 27):
            parts = [v for i in range(0, 3000, length) for v in np.abs(z[i:i + length]).tolist()]
            assert mismatches(parts, whole[:len(parts)]) == 0, length
        stack = z[:4000].reshape(-1, 2, 2)
        assert mismatches(np.abs(stack.swapaxes(1, 2)).ravel().tolist(),
                          np.abs(np.ascontiguousarray(stack.swapaxes(1, 2))).ravel().tolist()) == 0
        finite = np.isfinite(z) & (np.abs(z) < 1e300) & (np.abs(z) > 1e-300)
        lib = np.hypot(z.real, z.imag)
    ulps = np.abs(np.abs(z[finite]).view(np.int64) - lib[finite].view(np.int64))
    assert ulps.max() <= 2


def test_math_hypot_is_never_used():
    # Python's math.hypot is its own algorithm, not libm's: it differs from
    # np.hypot on some inputs, so the package never calls it.
    for path in SRC.glob("*.py"):
        assert "math.hypot" not in path.read_text(encoding="utf-8"), path.name


def scale(r, z):
    """``r * z`` for a real ``r``: numpy's ``(r + 0j) * z`` with the zero terms written out."""
    return complex(r * z.real - 0.0 * z.imag, r * z.imag + 0.0 * z.real)


def underflows(r, z):
    """Whether a product of two nonzero factors of ``r * z`` rounds to zero.  There
    numpy's fused multiply-add (AVX-512 and AVX2 kernels) keeps the exact
    product's sign, and without FMA (the x86-64-v2 kernels) it does not, so no
    Python expression gives numpy's bits on every kernel family."""
    return any(r * x == 0.0 and r != 0.0 and x != 0.0 for x in (z.real, z.imag))


def test_real_times_complex_writes_out_the_zero_terms(rng):
    z, r = complexes(rng), draws(rng)
    keep = [not underflows(a, b) for a, b in zip(r.tolist(), z.tolist())]
    with np.errstate(all="ignore"):
        products = {
            "array * array": (r * z).tolist(),
            "array * scalar": [v for a, b in zip(r.tolist()[:500], z.reshape(500, -1))
                               for v in (b * a).tolist()],
            "scalar * array": [v for a, b in zip(r.tolist()[:500], z.reshape(500, -1))
                               for v in (a * b).tolist()],
        }
    pairs = list(zip(r.tolist(), z.tolist()))
    per_row = [(a, b) for a, row in zip(r.tolist()[:500], z.reshape(500, -1).tolist())
               for b in row]
    for name, got in products.items():
        inputs = pairs if name == "array * array" else per_row
        mask = keep if name == "array * array" else [not underflows(a, b) for a, b in per_row]
        want = [scale(a, b) for a, b in inputs]
        bad = [i for i, ok in enumerate(mask) if ok and not same(got[i], want[i])]
        assert not bad, (name, [inputs[i] for i in bad[:3]])
    # Dropping the zero terms is not the same: inf * 0 is NaN.
    assert mismatches(products["array * array"], [complex(a * b.real, a * b.imag)
                                                   for a, b in pairs]) > 0


def test_python_max_and_min_against_numpy(rng):
    x, y = draws(rng).tolist(), draws(rng).tolist()
    with np.errstate(all="ignore"):
        for c in (1.0, 1e-12, -3.0):
            # max(x, c) keeps a NaN x (it comes first), as np.maximum does.
            assert mismatches([max(a, c) for a in x], np.maximum(x, c).tolist()) == 0
            assert mismatches([min(a, c) for a in x], np.minimum(x, c).tolist()) == 0
        # Against 0.0 only the sign of a zero differs: np.maximum(-0.0, 0.0) is +0.0.
        got = [max(a, 0.0) for a in x]
        want = np.maximum(x, 0.0).tolist()
        assert {a for a, g, w in zip(x, got, want) if not same(g, w)} <= {0.0}
        # A NaN second argument is dropped by max, kept by np.maximum.
        assert math.isnan(np.maximum(1.0, math.nan)) and max(1.0, math.nan) == 1.0
        # The conditional form drops a NaN.
        assert (lambda hi: hi if hi >= 0 else 0.0)(math.nan) == 0.0
        # Two general floats: max and np.maximum part only at NaNs and signed zeros.
        for got, want in (([max(a, b) for a, b in zip(x, y)], np.maximum(x, y).tolist()),
                          ([min(a, b) for a, b in zip(x, y)], np.minimum(x, y).tolist())):
            assert all(same(g, w) or math.isnan(w) or (g == 0.0 and w == 0.0)
                       for g, w in zip(got, want))


def test_math_sqrt_and_math_pow_against_numpy(rng):
    x = np.abs(draws(rng))
    with np.errstate(all="ignore"):
        assert mismatches([math.sqrt(v) for v in x.tolist()], np.sqrt(x).tolist()) == 0
    # math.pow is libm's pow, as numpy's scalar power; numpy's array loop is its
    # own SIMD kernel and may differ, so the package powers through math.pow.
    positive = [v for v in x.tolist() if 1e-300 < v < 1e300]
    for e in (-0.5, 0.5, -1.0):
        assert mismatches([math.pow(v, e) for v in positive],
                          [np.float64(v) ** e for v in positive]) == 0
    assert re.search(r"math\.pow\(", (SRC / "qmat.py").read_text(encoding="utf-8"))

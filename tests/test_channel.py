import math

import numpy as np
import pytest
from scipy.integrate import quad

from mcmag import channel
from mcmag.errors import DomainError

from helpers import sign_at

KAPPA = 3.6
TAU_C = 25.0


def overlap_autocorr(switching, s):
    """Brute-force p(s) = integral of xi(t) xi(t+s) over [0, T-s]."""
    total = switching.total_time
    if s >= total:
        return 0.0
    edges = {0.0, total - s, *switching.flip_times}
    edges.update(f - s for f in switching.flip_times if 0.0 < f - s < total - s)
    edges = sorted(e for e in edges if 0.0 <= e <= total - s)
    acc = 0.0
    for a, b in zip(edges[:-1], edges[1:]):
        mid = 0.5 * (a + b)
        acc += sign_at(switching, mid) * sign_at(switching, mid + s) * (b - a)
    return acc


def quadrature_w(switching, rate):
    """Adaptive-quadrature evaluation of the filter integral (test oracle)."""
    pts = sorted(
        {
            abs(x - y)
            for x in (0.0, *switching.flip_times, switching.total_time)
            for y in (0.0, *switching.flip_times, switching.total_time)
        }
    )
    val, _ = quad(
        lambda s: math.exp(-rate * s) * overlap_autocorr(switching, s),
        0.0,
        switching.total_time,
        points=pts[1:-1],
        limit=400,
        epsabs=1e-14,
        epsrel=1e-12,
    )
    return val


def test_nu_stretched_values():
    assert channel.nu_stretched(0.4, 2.0, 0.0) == 1.0
    assert channel.nu_stretched(0.4, 2.0, 0.4) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(DomainError):
        channel.nu_stretched(0.4, 2.0, -0.1)


def test_t2_star_matches_bath_strength():
    # T2* = sqrt(2/kappa^2) for the quadratic decay shape
    assert math.sqrt(2.0 / KAPPA**2) == pytest.approx(0.3928, abs=5e-4)
    assert math.sqrt(2.0 / KAPPA**2) == pytest.approx(0.4, abs=0.01)


def test_cpmg_switching_layout():
    sw = channel.cpmg_switching(2, 1.0)
    assert sw.flip_times == (0.5, 1.5)
    assert sw.total_time == 2.0
    sw = channel.cpmg_switching(4, 0.5)
    assert sw.flip_times == (0.25, 0.75, 1.25, 1.75)
    assert sw.total_time == 2.0
    with pytest.raises(DomainError):
        channel.cpmg_switching(3, 1.0)


def test_cpmg_switching_zero_average():
    for n in (2, 4, 8, 30):
        sw = channel.cpmg_switching(n, 0.37)
        assert len(sw.flip_times) == n
        area = sum(sign * (t1 - t0) for t0, t1, sign in sw.segments())
        assert abs(area) <= 1e-12


def test_dephasing_integral_free_decay_closed_form():
    rng = np.random.default_rng(17)
    for _ in range(100):
        rate = rng.uniform(0.005, 5.0)
        total = rng.uniform(0.01, 30.0)
        got = channel.dephasing_integral(rate, channel.free_decay(total))
        want = total / rate - (1.0 - math.exp(-rate * total)) / rate**2
        assert abs(got - want) <= 1e-10 * abs(want)


def test_dephasing_short_time_gaussian_limit():
    for total in (0.01, 0.005, 0.001):
        assert KAPPA * total <= 0.05
        nu = channel.nu_ou(KAPPA, TAU_C, channel.free_decay(total))
        gauss = math.exp(-(KAPPA**2) * total**2 / 2.0)
        assert abs(nu - gauss) <= 1e-4 * gauss


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
@pytest.mark.parametrize("n_pulses", [2, 4, 8])
def test_dephasing_integral_vs_quadrature(n_pulses):
    sw = channel.cpmg_switching(n_pulses, 0.5)
    rate = 1.0 / TAU_C
    got = channel.dephasing_integral(rate, sw)
    want = quadrature_w(sw, rate)
    assert abs(got - want) <= 1e-8 * abs(want)


def test_pulse_train_suppresses_noise():
    rate = 1.0 / TAU_C
    for total in (1.0, 2.0, 5.0):
        free = channel.dephasing_integral(rate, channel.free_decay(total))
        for n in (2, 4, 8, 16, 32):
            tau = total / n
            assert tau < TAU_C
            driven = channel.dephasing_integral(rate, channel.cpmg_switching(n, tau))
            assert driven < free


def test_nu_ou_trivial():
    assert channel.nu_ou(0.0, TAU_C, channel.free_decay(1.0)) == 1.0
    nu = channel.nu_ou(KAPPA, TAU_C, channel.free_decay(0.5))
    assert 0.0 < nu < 1.0


def test_nu_ensemble_cpmg():
    # exponent equal to one by construction: N^(1-s) = 2*T2*f
    f = 1.0
    n = 8
    target = (n ** (1.0 / 3.0)) / (2.0 * 53.0 * f)
    assert channel.nu_ensemble_cpmg(53.0, 2.0 / 3.0, 1.0, n, f) == pytest.approx(
        math.exp(-target), rel=1e-12
    )
    assert channel.nu_ensemble_cpmg(53.0, 2.0 / 3.0, 1.0, 8, 1.0) == pytest.approx(
        math.exp(-2.0 / 106.0), rel=1e-12
    )
    # constructed unit exponent
    assert channel.nu_ensemble_cpmg(2.0, 0.0, 1.7, 8, 2.0) == pytest.approx(
        math.exp(-1.0), rel=1e-12
    )
    # monotone in T2
    lo = channel.nu_ensemble_cpmg(10.0, 0.5, 1.0, 8, 1.0)
    hi = channel.nu_ensemble_cpmg(20.0, 0.5, 1.0, 8, 1.0)
    assert hi > lo


def test_mu_static_without_spread():
    assert channel.mu_static(0.0, 0.0, 1, 1.0) == 1.0

    mu = channel.mu_static(50.0, 0.0, 1, 0.4)
    assert abs(mu) == pytest.approx(1.0, abs=1e-15)
    # accumulated angle is -2*pi*0.56
    want = -2.0 * math.pi * 0.028 * 50.0 * 0.4
    assert math.remainder(math.atan2(mu.imag, mu.real) - want, 2 * math.pi) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(DomainError):
        channel.mu_static(50.0, 0.0, 1, -1.0)


def test_mu_static_gaussian_damping():
    t = 0.3
    mu = channel.mu_static(50.0, 50.0, 1, t)
    g = channel.GAMMA_E_DEFAULT
    want = math.exp(-2.0 * math.pi**2 * g**2 * t**2 * 50.0**2)
    assert abs(mu) == pytest.approx(want, rel=1e-12)


def test_mu_static_double_quantum_scaling():
    t = 0.2
    mu1 = channel.mu_static(10.0, 5.0, 1, t)
    mu2 = channel.mu_static(10.0, 5.0, 2, t)
    # phase doubles, damping exponent quadruples
    a1 = math.atan2(mu1.imag, mu1.real)
    a2 = math.atan2(mu2.imag, mu2.real)
    assert math.remainder(a2 - 2 * a1, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert abs(mu2) == pytest.approx(abs(mu1) ** 4, rel=1e-10)


def test_mu_cpmg_values():
    assert channel.mu_cpmg(0.0, 0.0, 1.0, 4) == 1.0

    mu = channel.mu_cpmg(1.0, 0.2, 1.0, 10)
    g = channel.GAMMA_E_DEFAULT
    want_phase = -2.0 * 10 * g * 1.0 / 1.0
    want_damp = math.exp(-2.0 * 100 * g**2 * 0.04 / 1.0)
    assert abs(mu) == pytest.approx(want_damp, rel=1e-12)
    assert math.atan2(mu.imag, mu.real) == pytest.approx(want_phase, abs=1e-12)
    # damping strictly decreases with the pulse count
    damps = [abs(channel.mu_cpmg(1.0, 0.2, 1.0, n)) for n in (2, 4, 8, 16)]
    assert all(b < a for a, b in zip(damps[:-1], damps[1:]))


def test_phase_past_the_float_range_is_a_domain_error():
    # math.cos(-inf) raised a bare "ValueError: math domain error"; the
    # phase of an unbounded field has no limit to return.
    with pytest.raises(DomainError, match="phase"):
        channel.mu_static(1e308, 0.0, 1, 40.0)
    with pytest.raises(DomainError, match="phase"):
        channel.mu_cpmg(1e308, 0.0, 1.0, 40)
    with pytest.raises(DomainError, match="phase"):
        channel.mu_cpmg(1e10, 0.0, 1e-300, 40)
    # A huge but finite phase is still a phase.
    assert abs(channel.mu_static(1e300, 0.0, 1, 40.0)) == pytest.approx(1.0, abs=1e-15)


def test_build_state_pair_entries():
    pair = channel.build_state_pair(0.8, np.exp(-1j * np.pi / 4), 0.5)
    assert pair.rho0[0, 1] == 0.4
    assert pair.rho1[0, 1] == 0.4 * np.exp(-1j * np.pi / 4)
    assert pair.rho1[1, 0] == np.conj(pair.rho1[0, 1])
    assert np.trace(pair.rho0) == 1.0
    # eigenvalues (1 +- nu)/2
    lam = np.linalg.eigvalsh(pair.rho0)
    assert np.allclose(lam, [0.1, 0.9])

    same = channel.build_state_pair(1.0, 1.0, 0.5)
    plus = np.full((2, 2), 0.5)
    assert np.allclose(same.rho0, plus) and np.allclose(same.rho1, plus)

    orth = channel.build_state_pair(1.0, -1.0, 0.5)
    assert np.allclose(orth.rho1, np.array([[0.5, -0.5], [-0.5, 0.5]]))

    for bad in ((0.0, 1.0, 0.5), (1.2, 1.0, 0.5), (0.5, 1.5, 0.5), (0.5, 1.0, 0.0)):
        with pytest.raises(DomainError):
            channel.build_state_pair(*bad)


def test_state_pair_is_made_from_its_factors():
    # A pair took its three density matrices as arguments and raised
    # TypeError without them; it now derives them from (nu, mu, eta0).
    pair = channel.StatePair(0.5, 0.3, 0.5)
    built = channel.build_state_pair(0.5, 0.3, 0.5)
    for name in ("rho0", "rho1", "rho"):
        assert getattr(pair, name).tobytes() == getattr(built, name).tobytes()


def test_factors_bounded_and_unit_at_zero():
    rng = np.random.default_rng(31)
    assert channel.nu_stretched(0.4, 2.0, 0.0) == 1.0
    assert channel.mu_static(20.0, 10.0, 1, 0.0) == 1.0
    for _ in range(200):
        t = rng.uniform(0.0, 3.0)
        nu = channel.nu_stretched(0.4, 2.0, t)
        mu = channel.mu_static(20.0, 10.0, 1, t)
        assert 0.0 < nu <= 1.0
        assert abs(mu) <= 1.0 + 1e-12
    for n in range(2, 60, 2):
        assert abs(channel.mu_cpmg(1.0, 0.4, 1.0, n)) <= 1.0 + 1e-12
        assert 0.0 < channel.nu_ou(KAPPA, TAU_C, channel.cpmg_switching(n, 0.5)) <= 1.0


def test_factor_limits_where_a_power_overflows():
    # Each of these used to raise OverflowError or ZeroDivisionError.
    assert channel.nu_stretched(1e-300, 2.0, 40.0) == 0.0
    assert channel.nu_stretched(0.4, 1000.0, 40.0) == 0.0
    assert channel.nu_ensemble_cpmg(1e-200, 0.5, 1.0, 8, 1e-200) == 0.0
    assert channel.nu_ou(1e200, TAU_C, channel.free_decay(1.0)) == 0.0
    # motional narrowing: the 1/rate**2 terms vanish, W -> T/rate
    assert channel.dephasing_integral(1e300, channel.free_decay(1.0)) == pytest.approx(1e-300)
    assert channel.nu_ou(KAPPA, 1e-300, channel.cpmg_switching(4, 0.5)) == 1.0
    assert channel.mu_static(1.0, 1e200, 1, 0.5) == 0.0
    assert channel.mu_cpmg(1.0, 0.2, 1e-200, 4) == 0.0
    # one square overflows or underflows, the product of the terms does not
    assert channel.mu_static(0.0, 1e200, 1, 1e-200) == pytest.approx(
        channel.mu_static(0.0, 1.0, 1, 1.0), rel=1e-12
    )
    assert channel.mu_cpmg(0.0, 1e-200, 1e-200, 2) == pytest.approx(
        channel.mu_cpmg(0.0, 1.0, 1.0, 2), rel=1e-12
    )


# --- the grid kernels against the per-point functions they replaced ----------
#
# Each ``reference_*`` function is the per-point factor function as it was
# before the grid kernels, kept verbatim as the oracle; the sweep called it
# once per grid point.  Floats compare by ``float.hex``, complex numbers by
# the hex of both parts, so even a signed zero must agree.


def reference_check_pulses(n_pulses):
    if n_pulses < 2 or n_pulses % 2 != 0:
        raise DomainError("pulse count must be an even integer >= 2")


def reference_nu_stretched(T2_star, p, t):
    if not T2_star > 0:
        raise DomainError("T2_star must be > 0")
    if not p > 0:
        raise DomainError("stretch exponent p must be > 0")
    if not t >= 0:
        raise DomainError("time must be >= 0")
    try:
        return math.exp(-((t / T2_star) ** p))
    except OverflowError:
        return 0.0


def reference_nu_ensemble_cpmg(T2, s, p, n_pulses, f):
    if not T2 > 0:
        raise DomainError("T2 must be > 0")
    if not 0.0 <= s < 1.0:
        raise DomainError("s must be in [0, 1)")
    if not p > 0:
        raise DomainError("stretch exponent p must be > 0")
    reference_check_pulses(n_pulses)
    if not f > 0:
        raise DomainError("f must be > 0")
    try:
        x = n_pulses ** (1.0 - s) / (2.0 * T2 * f)
        return math.exp(-(x**p))
    except (OverflowError, ZeroDivisionError):
        return 0.0


def reference_field_phasor(b0, phase, at, value):
    if not math.isfinite(phase):
        if math.isnan(b0):
            raise DomainError(f"b0 must be a number, got {b0}")
        raise DomainError(f"b0 = {b0:g} takes the phase past the float range at {at.format(value)}")
    return complex(math.cos(phase), math.sin(phase))


def reference_mu_static(b0, sigma_b, delta_ms, t):
    if not sigma_b >= 0:
        raise DomainError("sigma_b must be >= 0")
    if delta_ms not in (1, 2):
        raise DomainError("delta_ms must be 1 or 2")
    if not t >= 0:
        raise DomainError("time must be >= 0")
    g = channel.GAMMA_E_DEFAULT
    out = reference_field_phasor(b0, -2.0 * math.pi * g * b0 * t * delta_ms, "t = {:g}", t)
    if sigma_b > 0:
        try:
            damp = math.exp(-2.0 * math.pi**2 * g**2 * t**2 * sigma_b**2 * delta_ms**2)
        except OverflowError:
            x = g * t * sigma_b * delta_ms
            damp = math.exp(-2.0 * math.pi**2 * x * x)
        out *= damp
    return out


def reference_mu_cpmg(b0, sigma_b, f, n_pulses):
    if not sigma_b >= 0:
        raise DomainError("sigma_b must be >= 0")
    if not f > 0:
        raise DomainError("f must be > 0")
    reference_check_pulses(n_pulses)
    g = channel.GAMMA_E_DEFAULT
    out = reference_field_phasor(b0, -2.0 * n_pulses * g * b0 / f, "N = {}", n_pulses)
    if sigma_b > 0:
        try:
            damp = math.exp(-2.0 * n_pulses**2 * g**2 * sigma_b**2 / f**2)
        except (OverflowError, ZeroDivisionError):
            x = n_pulses * g * sigma_b / f
            damp = math.exp(-2.0 * x * x)
        out *= damp
    return out


#: name: (grid kernel, the replaced per-point function, position of the axis argument).
KERNELS = {
    "nu_stretched": (channel.nu_stretched_grid, reference_nu_stretched, 2),
    "nu_ensemble_cpmg": (channel.nu_ensemble_cpmg_grid, reference_nu_ensemble_cpmg, 3),
    "mu_static": (channel.mu_static_grid, reference_mu_static, 3),
    "mu_cpmg": (channel.mu_cpmg_grid, reference_mu_cpmg, 3),
}

#: A pulse count whose square leaves the float range while the count does not.
HUGE_COUNT = 2 * 10**160


def bits(values):
    out = []
    for v in values:
        parts = (v.real, v.imag) if isinstance(v, complex) else (v,)
        out.append((type(v), *(x.hex() for x in parts)))
    return out


def outcome(call):
    """("ok", the bits of the result), or the type and message of what it raised."""
    try:
        return "ok", bits(call())
    except Exception as exc:  # noqa: BLE001 - the exception is what is compared
        return type(exc), str(exc)


def per_point(function, args, axis):
    """The sweep's earlier loop: ``function`` once per value of ``args[axis]``."""
    return [function(*args[:axis], x, *args[axis + 1:]) for x in args[axis]]


def kernel_cases(name, rng):
    """Seeded argument tuples of one kernel that reach every branch of its formula."""
    times = [0.0, -0.0, *rng.uniform(0.0, 3.0, 12).tolist(), 40.0, 1e200]
    counts = [2, 4, *sorted((2 * rng.integers(3, 500_000, 12)).tolist()), 10**6]
    u, R = rng.uniform, range(16)  # R: how many random scalar tuples
    if name == "nu_stretched":
        for T2_star, p in [(0.4, 2.0), *((u(0.1, 5.0), u(0.5, 3.0)) for _ in R),
                           (1e-300, 2.0), (0.4, 1000.0), (5e-324, 1e-3), (math.inf, 2.0)]:
            yield T2_star, p, times + [math.inf]
    elif name == "nu_ensemble_cpmg":
        for T2, s, p, f in [(53.0, 2.0 / 3.0, 1.0, 1.0), (100.0, 0.0, 1.0, 1.0),
                            *((u(10, 500), u(0, 1), u(0.5, 2), u(0.1, 5)) for _ in R),
                            (1e-200, 0.5, 1.0, 1e-200), (1.0, 0.0, 1000.0, 1e-3),
                            (1e300, 0.5, 2.0, 1e300)]:
            yield T2, s, p, counts + [HUGE_COUNT], f
    elif name == "mu_static":
        for b0, sigma_b, delta_ms in [(50.0, 0.0, 1), (20.0, 10.0, 2),
                                      *((u(0, 60), u(0, 60), 1 + k % 2) for k in R),
                                      (u(0, 60), 0.0, 2), (0.0, 1e200, 1), (1e-310, 1.0, 2),
                                      (1e-100, 1.0, 1), (1.0, 1e200, 2)]:
            yield b0, sigma_b, delta_ms, times + [1e-200]
    else:
        for b0, sigma_b, f in [(1.0, 0.2, 1.0), *((u(0, 60), u(0, 1), u(0.1, 5)) for _ in R),
                               (u(0, 60), 0.0, 2.0), (1.0, 0.2, 1e-200), (0.0, 1e-170, 1.0),
                               (0.0, 1e200, 1.0), (1e-310, 0.5, 1e300)]:
            yield b0, sigma_b, f, counts + [HUGE_COUNT] * (b0 == 0.0)


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_each_grid_kernel_has_the_bits_of_the_per_point_loop(name, seed):
    kernel, reference, axis = KERNELS[name]
    one_point = getattr(channel, name)
    for args in kernel_cases(name, np.random.default_rng([seed, len(name)])):
        want = outcome(lambda: per_point(reference, args, axis))
        assert want[0] == "ok", (args, want)
        assert outcome(lambda: kernel(*args)) == want, args
        assert outcome(lambda: per_point(one_point, args, axis)) == want, args


def fallback(call):
    """The type of what ``call`` raised if it is one the formulas fall back from, else None."""
    try:
        call()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc).__name__
    return None


def test_the_kernel_cases_reach_every_branch():
    # Each fallback of the formulas is taken by some case above: the first
    # expression of each ``try`` raises, as in the per-point functions.
    g = channel.GAMMA_E_DEFAULT
    rng = np.random.default_rng(0)
    hit = set()
    for T2_star, p, times in kernel_cases("nu_stretched", rng):
        hit.update(("nu", t == 0.0, fallback(lambda: (t / T2_star) ** p)) for t in times)
    for T2, s, p, counts, f in kernel_cases("nu_ensemble_cpmg", rng):
        hit.update(("ens", fallback(lambda: (n ** (1.0 - s) / (2.0 * T2 * f)) ** p))
                   for n in counts)
    for b0, sigma_b, delta_ms, times in kernel_cases("mu_static", rng):
        hit.update(("static", delta_ms, sigma_b > 0,
                    fallback(lambda: t**2), fallback(lambda: g**2 * t**2 * sigma_b**2))
                   for t in times)
    for b0, sigma_b, f, counts in kernel_cases("mu_cpmg", rng):
        hit.update(("cpmg", sigma_b > 0, fallback(lambda: -2.0 * n**2),
                    fallback(lambda: -2.0 * n**2 * g**2 * sigma_b**2 / f**2)) for n in counts)
    assert {("nu", True, None), ("nu", False, None), ("nu", False, "OverflowError")} <= hit
    assert {("ens", None), ("ens", "OverflowError"), ("ens", "ZeroDivisionError")} <= hit
    for delta_ms in (1, 2):
        assert {("static", delta_ms, False, None, None), ("static", delta_ms, True, None, None),
                ("static", delta_ms, True, None, "OverflowError")} <= hit
    assert ("static", 1, True, "OverflowError", "OverflowError") in hit  # t**2 overflows
    assert {("cpmg", False, None, None), ("cpmg", True, None, None),
            ("cpmg", True, None, "ZeroDivisionError"),  # a tiny f: f**2 is 0
            ("cpmg", True, None, "OverflowError"),  # sigma_b**2 overflows
            ("cpmg", True, "OverflowError", "OverflowError")} <= hit  # n**2 does


#: Grids with faults: (name, scalar arguments around the axis, the axis values).
FAULTY = [
    ("nu_stretched", (0.4, 2.0), [0.1, -1.0, 0.5]),
    ("nu_stretched", (0.4, 2.0), [0.1, 0.2, math.nan]),
    ("nu_stretched", (0.0, 2.0), [-1.0, 0.5]),
    ("nu_stretched", (0.4, math.nan), [0.1, math.nan]),
    ("nu_ensemble_cpmg", (10.0, 0.5, 1.0, 1.0), [2, 4, 7, 8]),
    ("nu_ensemble_cpmg", (10.0, 0.5, 1.0, 0.0), [3, 4]),
    ("nu_ensemble_cpmg", (10.0, 0.5, 1.0, 0.0), [4, 3]),
    ("nu_ensemble_cpmg", (10.0, 0.5, 1.0, math.nan), [2, 0]),
    ("nu_ensemble_cpmg", (10.0, 1.5, 1.0, 1.0), [3]),
    ("mu_static", (1.0, 0.0, 1), [0.1, -0.5, 0.2]),
    ("mu_static", (1.0, 0.5, 2), [0.1, math.nan]),
    ("mu_static", (math.nan, 0.0, 1), [0.1, -1.0]),
    ("mu_static", (math.nan, 0.0, 1), [-1.0, 0.1]),
    ("mu_static", (1e300, 1.0, 2), [1.0, 1e10, -1.0]),
    ("mu_static", (1e300, 1.0, 2), [1.0, -1.0, 1e10]),
    ("mu_static", (1.0, -1.0, 3), [-1.0]),
    ("mu_cpmg", (1.0, 0.2, 1.0), [2, 4, 5, 6]),
    ("mu_cpmg", (1.0, 0.2, 1.0), [2, 0]),
    ("mu_cpmg", (math.nan, 0.2, 1.0), [2, 3]),
    ("mu_cpmg", (math.nan, 0.2, 1.0), [3, 2]),
    ("mu_cpmg", (1e307, 0.0, 1.0), [2, 20, 2000, 7]),
    ("mu_cpmg", (1e307, 0.0, 1.0), [2, 7, 2000]),
    ("mu_cpmg", (1.0, 0.2, 0.0), [3]),
]


@pytest.mark.parametrize("name, scalars, values", FAULTY)
def test_a_faulty_grid_raises_what_the_per_point_loop_raised_first(name, scalars, values):
    kernel, reference, axis = KERNELS[name]
    args = (*scalars[:axis], values, *scalars[axis:])
    want = outcome(lambda: per_point(reference, args, axis))
    assert want[0] is DomainError
    assert outcome(lambda: kernel(*args)) == want


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("name", sorted(KERNELS))
def test_a_seeded_faulty_grid_raises_what_the_per_point_loop_raised_first(name, seed):
    # Faults of each kind at seeded places in a valid grid; a phase past the
    # float range takes a field whose phase overflows from some point on.
    kernel, reference, axis = KERNELS[name]
    rng = np.random.default_rng([seed, len(name), 7])
    faults = (-1.0, math.nan) if name in ("nu_stretched", "mu_static") else (3, 0, -2)
    for args in kernel_cases(name, rng):
        values = list(args[axis])
        for _ in range(int(rng.integers(1, 3))):
            values[int(rng.integers(len(values)))] = faults[int(rng.integers(len(faults)))]
        cases = [(*args[:axis], values, *args[axis + 1:])]
        if name.startswith("mu_"):
            cases += [(b0, *args[1:axis], values, *args[axis + 1:]) for b0 in (math.nan, 1e305)]
        for case in cases:
            want = outcome(lambda: per_point(reference, case, axis))
            assert outcome(lambda: kernel(*case)) == want, case

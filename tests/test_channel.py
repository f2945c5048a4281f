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

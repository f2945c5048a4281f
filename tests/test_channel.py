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
    model = channel.NoiseModel(kind="stretched_exp", T2_star=0.4, p=2.0)
    assert channel.nu_stretched(model, 0.0) == 1.0
    assert channel.nu_stretched(model, 0.4) == pytest.approx(math.exp(-1.0), rel=1e-12)
    with pytest.raises(DomainError):
        channel.nu_stretched(model, -0.1)


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
    model = channel.NoiseModel(kind="ensemble_cpmg", T2=53.0, s=2.0 / 3.0, p=1.0)
    # exponent equal to one by construction: N^(1-s) = 2*T2*f
    f = 1.0
    n = 8
    target = (n ** (1.0 / 3.0)) / (2.0 * 53.0 * f)
    assert channel.nu_ensemble_cpmg(model, n, f) == pytest.approx(
        math.exp(-target), rel=1e-12
    )
    assert channel.nu_ensemble_cpmg(model, 8, 1.0) == pytest.approx(
        math.exp(-2.0 / 106.0), rel=1e-12
    )
    # constructed unit exponent
    model_s0 = channel.NoiseModel(kind="ensemble_cpmg", T2=2.0, s=0.0, p=1.7)
    assert channel.nu_ensemble_cpmg(model_s0, 8, 2.0) == pytest.approx(
        math.exp(-1.0), rel=1e-12
    )
    # monotone in T2
    lo = channel.nu_ensemble_cpmg(
        channel.NoiseModel(kind="ensemble_cpmg", T2=10.0, s=0.5, p=1.0), 8, 1.0
    )
    hi = channel.nu_ensemble_cpmg(
        channel.NoiseModel(kind="ensemble_cpmg", T2=20.0, s=0.5, p=1.0), 8, 1.0
    )
    assert hi > lo


def test_mu_static_known_field():
    fieldm = channel.FieldModel(kind="static_known", b0=0.0)
    assert channel.mu_static(fieldm, 1.0) == 1.0

    fieldm = channel.FieldModel(kind="static_known", b0=50.0)
    mu = channel.mu_static(fieldm, 0.4)
    assert abs(mu) == pytest.approx(1.0, abs=1e-15)
    # accumulated angle is -2*pi*0.56
    want = -2.0 * math.pi * 0.028 * 50.0 * 0.4
    assert math.remainder(math.atan2(mu.imag, mu.real) - want, 2 * math.pi) == pytest.approx(
        0.0, abs=1e-12
    )
    with pytest.raises(DomainError):
        channel.mu_static(fieldm, -1.0)


def test_mu_static_gaussian_damping():
    fieldm = channel.FieldModel(kind="static_gaussian", b0=50.0, sigma_b=50.0)
    t = 0.3
    mu = channel.mu_static(fieldm, t)
    g = fieldm.gamma
    want = math.exp(-2.0 * math.pi**2 * g**2 * t**2 * 50.0**2)
    assert abs(mu) == pytest.approx(want, rel=1e-12)


def test_mu_static_double_quantum_scaling():
    sq = channel.FieldModel(kind="static_gaussian", b0=10.0, sigma_b=5.0, delta_ms=1)
    dq = channel.FieldModel(kind="static_gaussian", b0=10.0, sigma_b=5.0, delta_ms=2)
    t = 0.2
    mu1 = channel.mu_static(sq, t)
    mu2 = channel.mu_static(dq, t)
    # phase doubles, damping exponent quadruples
    a1 = math.atan2(mu1.imag, mu1.real)
    a2 = math.atan2(mu2.imag, mu2.real)
    assert math.remainder(a2 - 2 * a1, 2 * math.pi) == pytest.approx(0.0, abs=1e-12)
    assert abs(mu2) == pytest.approx(abs(mu1) ** 4, rel=1e-10)


def test_mu_cpmg_values():
    quiet = channel.FieldModel(kind="oscillating_gaussian", b0=0.0, sigma_b=0.0, f=1.0)
    assert channel.mu_cpmg(quiet, 4) == 1.0

    fieldm = channel.FieldModel(kind="oscillating_gaussian", b0=1.0, sigma_b=0.2, f=1.0)
    mu = channel.mu_cpmg(fieldm, 10)
    g = fieldm.gamma
    want_phase = -2.0 * 10 * g * 1.0 / 1.0
    want_damp = math.exp(-2.0 * 100 * g**2 * 0.04 / 1.0)
    assert abs(mu) == pytest.approx(want_damp, rel=1e-12)
    assert math.atan2(mu.imag, mu.real) == pytest.approx(want_phase, abs=1e-12)
    # damping strictly decreases with the pulse count
    damps = [abs(channel.mu_cpmg(fieldm, n)) for n in (2, 4, 8, 16)]
    assert all(b < a for a, b in zip(damps[:-1], damps[1:]))


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


def test_factors_bounded_and_unit_at_zero():
    rng = np.random.default_rng(31)
    noise = channel.NoiseModel(kind="stretched_exp", T2_star=0.4, p=2.0)
    fieldm = channel.FieldModel(kind="static_gaussian", b0=20.0, sigma_b=10.0)
    assert channel.nu_stretched(noise, 0.0) == 1.0
    assert channel.mu_static(fieldm, 0.0) == 1.0
    for _ in range(200):
        t = rng.uniform(0.0, 3.0)
        nu = channel.nu_stretched(noise, t)
        mu = channel.mu_static(fieldm, t)
        assert 0.0 < nu <= 1.0
        assert abs(mu) <= 1.0 + 1e-12
    osc = channel.FieldModel(kind="oscillating_gaussian", b0=1.0, sigma_b=0.4, f=1.0)
    for n in range(2, 60, 2):
        assert abs(channel.mu_cpmg(osc, n)) <= 1.0 + 1e-12
        assert 0.0 < channel.nu_ou(KAPPA, TAU_C, channel.cpmg_switching(n, 0.5)) <= 1.0

"""The OU coherence against a ``decimal`` replica of the segment recursion in
``channel.dephasing_integrals`` (ROADMAP item 1).

The replica takes the float inputs as they reach the recursion -- the rate
``1.0/tau_c`` and the flip times -- converted exactly, and runs the same
steps at 60 or 120 significant digits, so what it measures is the rounding
of the float walk and not the float inputs."""

from decimal import Decimal, localcontext

import pytest

from mcmag.channel import cpmg_switching, free_decay, nu_ou, nu_ou_cpmg

TAU = 0.5  # pulse spacing, us
SHIPPED_BATH = (3.6, 25.0)  # kappa_per_us, tau_c_us of the shipped configs


def replica_nus(kappa, tau_c, flips, trains, digits):
    """``exp(-kappa**2 W)`` of each train ``(n, T)`` (flips at the first n of
    ``flips``, increasing n) as Decimals, with W from the recursion of
    ``dephasing_integrals`` in ``digits``-digit arithmetic."""
    with localcontext() as ctx:
        ctx.prec = digits
        rate = Decimal(1.0 / tau_c)
        w = cross = t0 = Decimal(0)
        sign, k, out = 1, 0, []
        for n, total in trains:
            while k < n:  # the segment [t0, flip k] into the running state
                t1 = Decimal(flips[k])
                d = t1 - t0
                one_m = 1 - (-rate * d).exp()
                w += d / rate - one_m / rate**2 + sign * cross * one_m / rate**2
                cross = cross * (-rate * d).exp() + sign * one_m
                t0, sign, k = t1, -sign, k + 1
            d = Decimal(total) - t0  # the train's last segment, [flip n, T]
            one_m = 1 - (-rate * d).exp()
            w_end = w + d / rate - one_m / rate**2 + sign * cross * one_m / rate**2
            out.append((-Decimal(kappa) ** 2 * w_end).exp())
        return out


def replica_cpmg(kappa, tau_c, n_pulses, digits=120):
    flips = cpmg_switching(max(n_pulses), TAU).flip_times
    return replica_nus(kappa, tau_c, flips, [(n, n * TAU) for n in n_pulses], digits)


def replica_free(kappa, tau_c, total, digits=120):
    return replica_nus(kappa, tau_c, (), [(0, total)], digits)[0]


#: (kappa, tau_c, pulse count or None for free decay over T = 1) where the
#: float walk is off by more than 1e-12: 8.0e-12 and 4.8e-10 at tau_c = 1e4,
#: 1.2e-9 and 7.1e-8 at tau_c = 1e7, and 0.967148 against 0.901075 for
#: kappa = 1000.
SLOW_BATHS = [(3.6, 1e4, 2), (3.6, 1e4, 100), (1.0, 1e7, None), (1.0, 1e7, 100),
              (1000.0, 1e7, 100)]


@pytest.mark.parametrize("kappa, tau_c, n", [(*SHIPPED_BATH, 400), *SLOW_BATHS])
def test_the_replica_agrees_with_itself_at_twice_the_digits(kappa, tau_c, n):
    if n is None:
        pairs = [(replica_free(kappa, tau_c, 1.0, 60), replica_free(kappa, tau_c, 1.0, 120))]
    else:
        pairs = zip(replica_cpmg(kappa, tau_c, [2, n], 60), replica_cpmg(kappa, tau_c, [2, n], 120))
    for lo, hi in pairs:
        assert abs(lo - hi) <= Decimal("1e-30")


def test_the_shipped_bath_is_within_1e_12_of_the_replica():
    # 2.2e-13 at most over these trains and times.
    n_pulses = list(range(2, 402, 2))
    for n, got, want in zip(n_pulses, nu_ou_cpmg(*SHIPPED_BATH, n_pulses, TAU),
                            replica_cpmg(*SHIPPED_BATH, n_pulses)):
        assert abs(got - float(want)) <= 1e-12, n
    for total in [0.05 * i for i in range(1, 41)]:
        want = replica_free(*SHIPPED_BATH, total)
        assert abs(nu_ou(*SHIPPED_BATH, free_decay(total)) - float(want)) <= 1e-12, total


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the segment recursion loses digits for a slow bath (ROADMAP item 1)")
def test_slow_baths_are_within_1e_12_of_the_replica():
    for kappa, tau_c, n in SLOW_BATHS:
        if n is None:
            got, want = nu_ou(kappa, tau_c, free_decay(1.0)), replica_free(kappa, tau_c, 1.0)
        else:
            got, want = nu_ou_cpmg(kappa, tau_c, [n], TAU)[0], replica_cpmg(kappa, tau_c, [n])[0]
        assert abs(got - float(want)) <= 1e-12, (kappa, tau_c, n)

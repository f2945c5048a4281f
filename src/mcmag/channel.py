"""Coherence decay and field-phase factors for each sensing protocol.

A sensing run leaves the qubit coherence multiplied by two numbers: a
dephasing factor ``nu`` in (0, 1] set by the noise environment, and a
complex phase factor ``mu`` (|mu| <= 1) set by the target field.  The
two hypotheses "no field" / "field present" then correspond to the
density matrices

    rho0 = [[1, nu], [nu, 1]] / 2
    rho1 = [[1, nu*mu], [conj(nu*mu), 1]] / 2

Each factor function takes a protocol's physics parameters as plain
numbers and raises DomainError outside their domain:

    nu_stretched(T2_star, p, t)              free decay, exp(-(t/T2*)^p)
    nu_ou(kappa, tau_c, switching)           correlated bath, any switching
    nu_ou_cpmg(kappa, tau_c, n_pulses, tau)  the same under a grid of echo trains
    nu_ensemble_cpmg(T2, s, p, n_pulses, f)  driven ensemble under a pulse train
    mu_static(b0, sigma_b, delta_ms, t)      constant field, Gaussian spread
    mu_cpmg(b0, sigma_b, f, n_pulses)        oscillating field, pulse train

The four closed forms also come as grid kernels (``nu_stretched_grid``,
``nu_ensemble_cpmg_grid``, ``mu_static_grid``, ``mu_cpmg_grid``) that take
the axis argument as an iterable of values, check the others once and
list one factor per value; each per-point function is its kernel on one point.

Where a power in a formula overflows, the function returns the formula's
limit: a coherence or damping of 0 (or a vanishing 1/rate**2 term).  A
field phase past the float range (no limit) or a NaN field is a DomainError.
:class:`StatePair` assembles the pair.  Units throughout: time in
microseconds, frequency in MHz, field in microtesla (gyromagnetic ratio
:data:`GAMMA_E_DEFAULT`), so every exponent is dimensionless and the
interesting parameter values are order one.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

#: Electron gyromagnetic ratio, 1/(us*uT).  Equals 28 Hz/nT.
GAMMA_E_DEFAULT = 0.028


@dataclass(frozen=True)
class SwitchingFunction:
    """Piecewise-constant sign switched by a pulse train.

    The sign starts at +1 at t = 0 and flips at each entry of
    ``flip_times`` (strictly increasing, inside (0, total_time)).
    """

    flip_times: tuple[float, ...]
    total_time: float

    def __post_init__(self) -> None:
        if not self.total_time > 0:
            raise DomainError("total_time must be > 0")
        prev = 0.0
        for t in self.flip_times:
            if not (prev < t < self.total_time):
                raise DomainError("flip times must be increasing inside (0, T)")
            prev = t

    def segments(self) -> list[tuple[float, float, int]]:
        """Constant-sign intervals as (start, end, sign)."""
        edges = (0.0, *self.flip_times, self.total_time)
        out = []
        sign = 1
        for t0, t1 in zip(edges[:-1], edges[1:]):
            out.append((t0, t1, sign))
            sign = -sign
        return out

    def min_gap(self) -> float:
        """Smallest spacing between consecutive flips (inf when < 2 flips)."""
        if len(self.flip_times) < 2:
            return math.inf
        return min(b - a for a, b in zip(self.flip_times[:-1], self.flip_times[1:]))


def free_decay(total_time: float) -> SwitchingFunction:
    """Switching function of an undriven run: +1 on all of [0, T]."""
    return SwitchingFunction((), total_time)


def _check_pulses(n_pulses: int) -> None:
    if n_pulses < 2 or n_pulses % 2 != 0:
        raise DomainError("pulse count must be an even integer >= 2")


def _cpmg_flips(n_pulses: int, tau: float):
    """Flip k of an equally spaced train, (2k - 1)*tau/2, for k = 1..N: the
    same floats whatever train they start."""
    return ((2 * k - 1) * (tau / 2.0) for k in range(1, n_pulses + 1))


def cpmg_switching(n_pulses: int, tau: float) -> SwitchingFunction:
    """Sign profile of an N-pulse equally spaced echo train.

    Pulses (sign flips) sit at tau/2, 3*tau/2, ..., (N - 1/2)*tau, giving
    N flips on [0, N*tau] and a time-average of exactly zero.
    """
    _check_pulses(n_pulses)
    if not tau > 0:
        raise DomainError("tau must be > 0")
    return SwitchingFunction(tuple(_cpmg_flips(n_pulses, tau)), n_pulses * tau)


def nu_stretched_grid(T2_star: float, p: float, times: Iterable[float]) -> list[float]:
    """:func:`nu_stretched` at each of ``times``, in order, with the scalar
    arguments checked once."""
    if not T2_star > 0:
        raise DomainError("T2_star must be > 0")
    if not p > 0:
        raise DomainError("stretch exponent p must be > 0")
    out = []
    for t in times:
        if not t >= 0:
            raise DomainError("time must be >= 0")
        try:
            out.append(math.exp(-((t / T2_star) ** p)))  # exactly 1.0 at t = 0
        except OverflowError:
            out.append(0.0)
    return out


def nu_stretched(T2_star: float, p: float, t: float) -> float:
    """Free-decay coherence exp(-(t/T2_star)^p); 0 where the power overflows."""
    return nu_stretched_grid(T2_star, p, [t])[0]


def _walk_order(flips, trains):
    """Edges of the walk: ``(t, False)`` at each flip, ``(T, True)`` where a train ends."""
    flips = iter(flips)
    done = 0
    for n, end in trains:
        if n < done:
            raise DomainError("trains must come in order of flip count")
        for t in itertools.islice(flips, n - done):
            yield t, False
        done = n
        yield end, True


def dephasing_integrals(rate: float, flips, trains) -> list[float]:
    """W of every train in a set that shares its first flips, from one walk.

    Train ``(n, T)`` flips at the first ``n`` entries of ``flips`` (strictly
    increasing, > 0) and ends at ``T``; ``trains`` come in order of ``n``.
    The recursion state after a segment depends only on the segments before
    it, so the walk runs once over the flips of the longest train and ends
    each train with its own last segment, ``[flip_n, T]``: each ``W`` has the
    bits of a walk over that train alone, and a set of G trains up to n_max
    flips costs n_max + G segment steps.
    """
    if not rate > 0:
        raise DomainError("rate must be > 0")
    try:
        rate2 = rate**2
    except OverflowError:
        rate2 = math.inf
    out = []
    w = 0.0
    cross = 0.0  # sum over earlier intervals, discounted to the current edge
    t0, sign = 0.0, 1
    for t1, ends in _walk_order(flips, trains):
        if not t1 > t0:
            raise DomainError("flip times must be increasing inside (0, T)")
        d = t1 - t0
        one_m = -math.expm1(-rate * d)  # 1 - exp(-rate*d), accurate for small d
        w_t1 = w + (d / rate - one_m / rate2) + sign * cross * one_m / rate2
        if ends:
            out.append(w_t1)
        else:
            w, cross = w_t1, cross * math.exp(-rate * d) + sign * one_m
            t0, sign = t1, -sign
    return out


def dephasing_integral(rate: float, switching: SwitchingFunction) -> float:
    """Exact overlap integral of the switched noise filter.

    Evaluates W(T) = integral over 0 <= u < v <= T of
    xi(u)*xi(v)*exp(-rate*(v-u)), the quantity whose product with the
    squared bath coupling sets the dephasing exponent.  Because xi is
    piecewise constant, the double integral splits into interval pairs
    with closed-form exponential moments; a running suffix sum collapses
    the pair sum to one pass over the segments, with every intermediate
    bounded (no large exponentials).  Where ``rate**2`` overflows, the
    terms divided by it go to 0 (motional narrowing).

    The result is not exact to rounding for a slow bath, because two
    cancellations lose digits.  Within one segment of length d, ``d/rate``
    and ``(1 - exp(-rate*d))/rate**2`` nearly cancel when ``rate*d`` is
    small; across an echo train the segments' contributions cancel each
    other as the static part of the bath is refocused.  Against the same
    recursion in decimal arithmetic at 120 to 600 digits, W of free decay
    over T = 1 has a relative error of 2.7e-15 at tau_c = 25 and 3.9e-9
    at tau_c = 1e7, and W of 100 echoes (tau = 0.5) at tau_c = 1e7 is 68%
    off (ROADMAP item 1).  This is :func:`dephasing_integrals` on one train.
    """
    flips = switching.flip_times
    return dephasing_integrals(rate, flips, [(len(flips), switching.total_time)])[0]


def check_bath(kappa: float, tau_c: float) -> None:
    """The bath domain: ``kappa >= 0`` and ``tau_c > 0``, else DomainError."""
    if not kappa >= 0:
        raise DomainError("kappa must be >= 0")
    if not tau_c > 0:
        raise DomainError("tau_c must be > 0")


def _coherence(kappa: float, w: float) -> float:
    """exp(-kappa**2 * W)."""
    try:
        return math.exp(-(kappa**2) * w)
    except OverflowError:  # kappa**2 overflows; the product may not
        return math.exp(-kappa * (kappa * w))


def nu_ou(kappa: float, tau_c: float, switching: SwitchingFunction) -> float:
    """Coherence exp(-kappa**2 * W) left by an exponentially correlated bath
    under switching, W the :func:`dephasing_integral` at rate 1/tau_c; 1
    without a walk when kappa = 0.  :func:`nu_ou_cpmg` gives the same bits
    for a whole grid of echo trains."""
    check_bath(kappa, tau_c)
    if kappa == 0.0:
        return 1.0
    return _coherence(kappa, dephasing_integral(1.0 / tau_c, switching))


def nu_ou_cpmg(kappa: float, tau_c: float, n_pulses: list[int], tau: float) -> list[float]:
    """``nu_ou(kappa, tau_c, cpmg_switching(n, tau))`` for each of the
    increasing pulse counts ``n_pulses``, bit for bit, from one walk.

    Flip k sits at (2k - 1)*tau/2 in every train, so the trains share their
    flips and :func:`dephasing_integrals` walks only the longest one.  The
    flips are made as the walk goes: memory does not grow with the train.
    """
    for n in n_pulses:
        _check_pulses(n)
    if not tau > 0:
        raise DomainError("tau must be > 0")
    check_bath(kappa, tau_c)
    if kappa == 0.0:
        return [1.0] * len(n_pulses)
    flips = _cpmg_flips(max(n_pulses, default=0), tau)
    ws = dephasing_integrals(1.0 / tau_c, flips, [(n, n * tau) for n in n_pulses])
    return [_coherence(kappa, w) for w in ws]


def nu_ensemble_cpmg_grid(
    T2: float, s: float, p: float, n_pulses: Iterable[int], f: float
) -> list[float]:
    """:func:`nu_ensemble_cpmg` at each of the pulse counts ``n_pulses``, in
    order, with the scalar arguments checked once."""
    if not T2 > 0:
        raise DomainError("T2 must be > 0")
    if not 0.0 <= s < 1.0:
        raise DomainError("s must be in [0, 1)")
    if not p > 0:
        raise DomainError("stretch exponent p must be > 0")
    out = []
    for n in n_pulses:
        _check_pulses(n)
        if not f > 0:  # after the count, in argument order: a bad first count is named
            raise DomainError("f must be > 0")
        try:
            x = n ** (1.0 - s) / (2.0 * T2 * f)
            out.append(math.exp(-(x**p)))
        except (OverflowError, ZeroDivisionError):
            out.append(0.0)
    return out


def nu_ensemble_cpmg(T2: float, s: float, p: float, n_pulses: int, f: float) -> float:
    """Driven-ensemble coherence exp(-(N^(1-s) / (2*T2*f))^p); 0 where that
    exponent leaves the float range."""
    return nu_ensemble_cpmg_grid(T2, s, p, [n_pulses], f)[0]


def _field_phasor(b0: float, phase: float, at: str, value) -> complex:
    """``exp(i*phase)`` for the phase a field ``b0`` leaves; a NaN ``b0``, or a
    phase past the float range at ``at.format(value)``, is a DomainError."""
    if not math.isfinite(phase):
        if math.isnan(b0):
            raise DomainError(f"b0 must be a number, got {b0}")
        raise DomainError(f"b0 = {b0:g} takes the phase past the float range at {at.format(value)}")
    return complex(math.cos(phase), math.sin(phase))


def mu_static_grid(
    b0: float, sigma_b: float, delta_ms: int, times: Iterable[float]
) -> list[complex]:
    """:func:`mu_static` at each of ``times``, in order, with the scalar
    arguments checked once."""
    if not sigma_b >= 0:
        raise DomainError("sigma_b must be >= 0")
    if delta_ms not in (1, 2):
        raise DomainError("delta_ms must be 1 or 2")
    g = GAMMA_E_DEFAULT
    # The leading constant factors of each exponent, multiplied in the same
    # left-to-right order as at one point, so with the same roundings.
    turn = -2.0 * math.pi * g * b0
    spread = -2.0 * math.pi**2 * g**2
    out = []
    for t in times:
        if not t >= 0:
            raise DomainError("time must be >= 0")
        mu = _field_phasor(b0, turn * t * delta_ms, "t = {:g}", t)
        if sigma_b > 0:
            try:
                damp = math.exp(spread * t**2 * sigma_b**2 * delta_ms**2)
            except OverflowError:  # a square overflows; their product may not
                x = g * t * sigma_b * delta_ms
                damp = math.exp(-2.0 * math.pi**2 * x * x)
            mu *= damp
        out.append(mu)
    return out


def mu_static(b0: float, sigma_b: float, delta_ms: int, t: float) -> complex:
    """Phase factor from a constant field over time t.

    The unit-modulus phase exp(-i*2*pi*gamma*b0*t*delta_ms) at the mean
    field ``b0``, damped by exp(-2*pi^2*gamma^2*t^2*sigma_b^2*delta_ms^2)
    for a Gaussian amplitude of spread ``sigma_b`` (none for a known
    field, ``sigma_b = 0``); delta_ms multiplies the phase exponent and
    its square the damping exponent.
    """
    return mu_static_grid(b0, sigma_b, delta_ms, [t])[0]


def mu_cpmg_grid(
    b0: float, sigma_b: float, f: float, n_pulses: Iterable[int]
) -> list[complex]:
    """:func:`mu_cpmg` at each of the pulse counts ``n_pulses``, in order,
    with the scalar arguments checked once."""
    if not sigma_b >= 0:
        raise DomainError("sigma_b must be >= 0")
    if not f > 0:
        raise DomainError("f must be > 0")
    g = GAMMA_E_DEFAULT
    out = []
    for n in n_pulses:
        _check_pulses(n)
        mu = _field_phasor(b0, -2.0 * n * g * b0 / f, "N = {}", n)
        if sigma_b > 0:
            try:
                damp = math.exp(-2.0 * n**2 * g**2 * sigma_b**2 / f**2)
            except (OverflowError, ZeroDivisionError):  # a square leaves the float range
                x = n * g * sigma_b / f
                damp = math.exp(-2.0 * x * x)
            mu *= damp
        out.append(mu)
    return out


def mu_cpmg(b0: float, sigma_b: float, f: float, n_pulses: int) -> complex:
    """Phase factor from an oscillating field sensed with node-aligned pulses.

    With pulse spacing tau = 1/(2f) the accumulated factor is
    exp(-i*2*N*gamma*b0/f) * exp(-2*N^2*gamma^2*sigma_b^2/f^2).
    Only the single-quantum transition is supported here.
    """
    return mu_cpmg_grid(b0, sigma_b, f, [n_pulses])[0]


@dataclass(frozen=True)
class StatePair:
    """The two hypothesis states and their prior mixture, made from ``(nu, mu, eta0)``.

    ``states[j]`` (the view ``rhoj``) and ``rho = eta0*rho0 + eta1*rho1`` are
    derived when the pair is made (by ``dataclasses.replace`` too), after the
    pair rule (:func:`pair_factors`): ``nu`` in (0, 1] and ``|mu| <= 1`` with 1e-12
    of slack clamped away, ``eta0`` in (0, 1), else DomainError.  A StatePair is
    one pair, a float ``nu``, a complex ``mu`` and ``states`` of shape ``(2, 2, 2)``:
    an array in ``nu`` or ``mu``, None, a bool or a string in any factor, or a complex ``nu``
    or ``eta0`` (numpy scalars and 0-d arrays too), is a DomainError.  Stacks of pairs are
    :func:`pair_factors` arrays, solved by :mod:`mcmag.plane`.
    """

    nu: float
    mu: complex
    eta0: float
    states: np.ndarray = field(init=False, repr=False, compare=False)
    rho: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        for name, value in (("nu", self.nu), ("mu", self.mu), ("eta0", self.eta0)):
            kind = np.asarray(value).dtype.kind  # a scalar, an array or a 0-d array alike
            if value is None or kind in "bSU":
                raise DomainError(f"{name} must be a number, got {value!r}")
            if kind == "c" and name != "mu":
                raise DomainError(f"{name} must be a real number, got {value!r}")
        shapes = np.shape(self.nu), np.shape(self.mu)
        if shapes != ((), ()):
            raise DomainError(
                f"a StatePair is one pair: nu and mu must be numbers, got shapes {shapes[0]} "
                f"and {shapes[1]}"
            )
        nu, mu = pair_factors(self.nu, self.mu)
        nu, mu, eta0 = float(nu[0]), complex(mu[0]), float(self.eta0)
        if not 0.0 < eta0 < 1.0:
            raise DomainError(f"eta0 must be in (0, 1), got {eta0}")
        # off1 = nu*mu/2 with the roundings of Python's complex 0.5*nu*mu.
        off0 = 0.5 * nu
        off1 = complex(off0 * mu.real - 0.0 * mu.imag, off0 * mu.imag + 0.0 * mu.real)
        states = np.array([[[0.5, off0], [off0, 0.5]], [[0.5, off1], [off1.conjugate(), 0.5]]],
                          dtype=complex)
        rho = eta0 * states[0] + (1.0 - eta0) * states[1]
        self.__dict__.update(nu=nu, mu=mu, eta0=eta0, states=states, rho=rho)  # frozen

    @property
    def rho0(self) -> np.ndarray:
        return self.states[0]

    @property
    def rho1(self) -> np.ndarray:
        return self.states[1]

    @property
    def eta1(self) -> float:
        return 1.0 - self.eta0


def pair_factors(nu, mu):
    """The pair rule on a stack: ``(nu, mu)`` as ``(n,)`` arrays, one row per
    pair, ``nu`` clamped to 1 and ``mu`` rescaled to the unit circle inside
    the 1e-12 of slack (the rescaling repeats the bits of Python's complex
    ``mu/abs(mu)``), else DomainError."""
    nu = np.asarray(nu, dtype=float).reshape(-1)
    mu = np.array(mu, dtype=complex).reshape(-1)
    size = np.hypot(mu.real, mu.imag)
    bad_nu = ~((0.0 < nu) & (nu <= 1.0 + 1e-12))
    if np.count_nonzero(bad_nu):
        raise DomainError(f"nu must be in (0, 1], got {float(nu[bad_nu][0])}")
    bad_mu = ~(size <= 1.0 + 1e-12)
    if np.count_nonzero(bad_mu):
        raise DomainError(f"|mu| must be <= 1, got {float(size[bad_mu][0])}")
    if nu.size != mu.size:
        raise DomainError(f"nu and mu must have one length, got {nu.size} and {mu.size}")
    nu = np.minimum(nu, 1.0)
    over = size > 1.0
    if np.count_nonzero(over):
        re, im, size = mu.real[over], mu.imag[over], size[over]
        mu.real[over] = (re + im * 0.0) / size
        mu.imag[over] = (im - re * 0.0) / size
    return nu, mu


def build_state_pair(nu: float, mu: complex, eta0: float = 0.5) -> StatePair:
    """One state pair: ``StatePair(nu, mu, eta0)``."""
    return StatePair(nu, mu, eta0)

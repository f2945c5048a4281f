"""Coherence decay and field-phase factors for each sensing protocol.

A sensing run leaves the qubit coherence multiplied by two numbers: a
dephasing factor ``nu`` in (0, 1] set by the noise environment, and a
complex phase factor ``mu`` (|mu| <= 1) set by the target field.  The
two hypotheses "no field" / "field present" then correspond to the
density matrices

    rho0 = [[1, nu], [nu, 1]] / 2
    rho1 = [[1, nu*mu], [conj(nu*mu), 1]] / 2

This module computes ``nu`` and ``mu`` for every supported protocol and
assembles the pair.  Units throughout: time in microseconds, frequency
in MHz, field in microtesla, so every exponent is dimensionless and the
interesting parameter values are order one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

#: Electron gyromagnetic ratio, 1/(us*uT).  Equals 28 Hz/nT.
GAMMA_E_DEFAULT = 0.028

NOISE_KINDS = ("stretched_exp", "ou_cpmg", "ensemble_cpmg")
FIELD_KINDS = ("static_known", "static_gaussian", "oscillating_gaussian")


@dataclass(frozen=True)
class NoiseModel:
    """Parameters of the dephasing environment.

    kind selects the evaluation path:
      * ``stretched_exp``  -- free decay exp(-(T/T2_star)^p)
      * ``ou_cpmg``        -- exponentially correlated bath (strength
        ``kappa``, correlation time ``tau_c``) filtered by a pulse train
      * ``ensemble_cpmg``  -- driven-ensemble form with coherence time
        ``T2`` and spectral exponent ``s``
    """

    kind: str
    T2_star: float | None = None
    p: float = 1.0
    kappa: float | None = None
    tau_c: float | None = None
    T2: float | None = None
    s: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in NOISE_KINDS:
            raise DomainError(f"unknown noise kind {self.kind!r}")
        if self.p <= 0:
            raise DomainError("stretch exponent p must be > 0")
        if self.kind == "stretched_exp":
            if self.T2_star is None or self.T2_star <= 0:
                raise DomainError("stretched_exp requires T2_star > 0")
        elif self.kind == "ou_cpmg":
            if self.kappa is None or self.kappa < 0:
                raise DomainError("ou_cpmg requires kappa >= 0")
            if self.tau_c is None or self.tau_c <= 0:
                raise DomainError("ou_cpmg requires tau_c > 0")
        else:
            if self.T2 is None or self.T2 <= 0:
                raise DomainError("ensemble_cpmg requires T2 > 0")
            if self.s is None or not (0.0 <= self.s < 1.0):
                raise DomainError("ensemble_cpmg requires 0 <= s < 1")


@dataclass(frozen=True)
class FieldModel:
    """Target-field hypothesis: mean, spread, frequency, transition order."""

    kind: str
    b0: float = 0.0
    sigma_b: float = 0.0
    f: float | None = None
    delta_ms: int = 1
    gamma: float = GAMMA_E_DEFAULT

    def __post_init__(self) -> None:
        if self.kind not in FIELD_KINDS:
            raise DomainError(f"unknown field kind {self.kind!r}")
        if self.sigma_b < 0:
            raise DomainError("sigma_b must be >= 0")
        if self.gamma <= 0:
            raise DomainError("gamma must be > 0")
        if self.delta_ms not in (1, 2):
            raise DomainError("delta_ms must be 1 or 2")
        if self.kind == "oscillating_gaussian" and (self.f is None or self.f <= 0):
            raise DomainError("oscillating field requires f > 0")


@dataclass(frozen=True)
class SwitchingFunction:
    """Piecewise-constant sign switched by a pulse train.

    The sign starts at +1 at t = 0 and flips at each entry of
    ``flip_times`` (strictly increasing, inside (0, total_time)).
    """

    flip_times: tuple[float, ...]
    total_time: float

    def __post_init__(self) -> None:
        if self.total_time <= 0:
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


def cpmg_switching(n_pulses: int, tau: float) -> SwitchingFunction:
    """Sign profile of an N-pulse equally spaced echo train.

    Pulses (sign flips) sit at tau/2, 3*tau/2, ..., (N - 1/2)*tau, giving
    N flips on [0, N*tau] and a time-average of exactly zero.
    """
    if n_pulses < 2 or n_pulses % 2 != 0:
        raise DomainError("pulse count must be an even integer >= 2")
    if tau <= 0:
        raise DomainError("tau must be > 0")
    flips = tuple((2 * k - 1) * (tau / 2.0) for k in range(1, n_pulses + 1))
    return SwitchingFunction(flips, n_pulses * tau)


def nu_stretched(model: NoiseModel, total_time: float) -> float:
    """Free-decay coherence exp(-(T/T2_star)^p)."""
    if model.kind != "stretched_exp":
        raise DomainError("nu_stretched needs a stretched_exp noise model")
    if total_time < 0:
        raise DomainError("time must be >= 0")
    if total_time == 0.0:
        return 1.0
    return math.exp(-((total_time / model.T2_star) ** model.p))


def dephasing_integral(rate: float, switching: SwitchingFunction) -> float:
    """Exact overlap integral of the switched noise filter.

    Evaluates W(T) = integral over 0 <= u < v <= T of
    xi(u)*xi(v)*exp(-rate*(v-u)), the quantity whose product with the
    squared bath coupling sets the dephasing exponent.  Because xi is
    piecewise constant, the double integral splits into interval pairs
    with closed-form exponential moments; a running suffix sum collapses
    the pair sum to one pass over the segments, with every intermediate
    bounded (no large exponentials), so the result is exact to rounding.
    """
    if rate <= 0:
        raise DomainError("rate must be > 0")
    w = 0.0
    cross = 0.0  # sum over earlier intervals, discounted to the current edge
    for t0, t1, sign in switching.segments():
        d = t1 - t0
        decay = math.exp(-rate * d)
        one_m = -math.expm1(-rate * d)  # 1 - exp(-rate*d), accurate for small d
        w += d / rate - one_m / rate**2
        w += sign * cross * one_m / rate**2
        cross = cross * decay + sign * one_m
    return w


def nu_ou(kappa: float, tau_c: float, switching: SwitchingFunction) -> float:
    """Coherence left by an exponentially correlated bath under switching."""
    if kappa < 0:
        raise DomainError("kappa must be >= 0")
    if tau_c <= 0:
        raise DomainError("tau_c must be > 0")
    if kappa == 0.0:
        return 1.0
    return math.exp(-(kappa**2) * dephasing_integral(1.0 / tau_c, switching))


def nu_ensemble_cpmg(model: NoiseModel, n_pulses: int, f: float) -> float:
    """Driven-ensemble coherence exp(-(N^(1-s) / (2*T2*f))^p)."""
    if model.kind != "ensemble_cpmg":
        raise DomainError("nu_ensemble_cpmg needs an ensemble_cpmg noise model")
    if n_pulses < 2 or n_pulses % 2 != 0:
        raise DomainError("pulse count must be an even integer >= 2")
    if f <= 0:
        raise DomainError("f must be > 0")
    x = n_pulses ** (1.0 - model.s) / (2.0 * model.T2 * f)
    return math.exp(-(x**model.p))


def mu_static(fieldm: FieldModel, total_time: float) -> complex:
    """Phase factor from a constant field over time T.

    Known field: unit-modulus exp(-i*2*pi*gamma*b0*T*delta_ms).  Gaussian
    amplitude of spread sigma_b: the same phase at the mean, damped by
    exp(-2*pi^2*gamma^2*T^2*sigma_b^2*delta_ms^2); delta_ms multiplies the
    phase exponent and its square the damping exponent.
    """
    if fieldm.kind not in ("static_known", "static_gaussian"):
        raise DomainError("mu_static needs a static field model")
    if total_time < 0:
        raise DomainError("time must be >= 0")
    g = fieldm.gamma
    dm = fieldm.delta_ms
    phase = -2.0 * math.pi * g * fieldm.b0 * total_time * dm
    out = complex(math.cos(phase), math.sin(phase))
    if fieldm.kind == "static_gaussian" and fieldm.sigma_b > 0:
        damp = math.exp(
            -2.0 * math.pi**2 * g**2 * total_time**2 * fieldm.sigma_b**2 * dm**2
        )
        out *= damp
    return out


def mu_cpmg(fieldm: FieldModel, n_pulses: int) -> complex:
    """Phase factor from an oscillating field sensed with node-aligned pulses.

    With pulse spacing tau = 1/(2f) the accumulated factor is
    exp(-i*2*N*gamma*b0/f) * exp(-2*N^2*gamma^2*sigma_b^2/f^2).
    Only the single-quantum transition is supported here.
    """
    if fieldm.kind != "oscillating_gaussian":
        raise DomainError("mu_cpmg needs an oscillating field model")
    if fieldm.delta_ms != 1:
        raise DomainError("pulsed detection is implemented for delta_ms = 1 only")
    if n_pulses < 2 or n_pulses % 2 != 0:
        raise DomainError("pulse count must be an even integer >= 2")
    g = fieldm.gamma
    f = fieldm.f
    phase = -2.0 * n_pulses * g * fieldm.b0 / f
    out = complex(math.cos(phase), math.sin(phase))
    if fieldm.sigma_b > 0:
        out *= math.exp(-2.0 * n_pulses**2 * g**2 * fieldm.sigma_b**2 / f**2)
    return out


@dataclass(frozen=True)
class StatePair:
    """The two hypothesis states, their mixture, and the prior.

    One pair, or a stack of ``n`` pairs sharing the prior: then ``nu``
    and ``mu`` have shape ``(n,)`` and the density matrices ``(n, 2, 2)``.
    """

    nu: float
    mu: complex
    eta0: float
    rho0: np.ndarray = field(repr=False, compare=False, default=None)
    rho1: np.ndarray = field(repr=False, compare=False, default=None)
    rho: np.ndarray = field(repr=False, compare=False, default=None)

    @property
    def eta1(self) -> float:
        return 1.0 - self.eta0


def build_state_stack(nu, mu, eta0: float = 0.5) -> StatePair:
    """Stack of state pairs for arrays of ``nu`` and ``mu`` under one prior.

    Row ``k`` is bitwise ``build_state_pair(nu[k], mu[k], eta0)``: the
    off-diagonal ``nu*mu/2`` and the rescaling of ``|mu|`` slightly above
    one repeat Python's complex arithmetic part by part.
    """
    nu = np.array(nu, dtype=float).reshape(-1)
    mu = np.array(mu, dtype=complex).reshape(-1)
    eta0 = float(eta0)
    size = np.hypot(mu.real, mu.imag)
    bad_nu = ~((0.0 < nu) & (nu <= 1.0 + 1e-12))
    if np.count_nonzero(bad_nu):
        raise DomainError(f"nu must be in (0, 1], got {float(nu[bad_nu][0])}")
    bad_mu = ~(size <= 1.0 + 1e-12)
    if np.count_nonzero(bad_mu):
        raise DomainError(f"|mu| must be <= 1, got {float(size[bad_mu][0])}")
    if not 0.0 < eta0 < 1.0:
        raise DomainError(f"eta0 must be in (0, 1), got {eta0}")
    nu = np.minimum(nu, 1.0)
    over = size > 1.0
    if np.count_nonzero(over):
        re, im, size = mu.real[over], mu.imag[over], size[over]
        mu[over] = _parts((re + im * 0.0) / size, (im - re * 0.0) / size)
    off0 = 0.5 * nu
    # Each pair as [rho0, rho1] flattened: 0.5, off0, off0, 0.5, 0.5, off1, conj(off1), 0.5.
    pairs = np.empty((nu.size, 8), dtype=complex)
    pairs.reshape(-1, 2, 4)[:, :, ::3] = 0.5
    pairs[:, 1:3] = off0[:, None]
    pairs[:, 5] = _parts(off0 * mu.real - 0.0 * mu.imag, off0 * mu.imag + 0.0 * mu.real)
    pairs[:, 6] = np.conj(pairs[:, 5])
    pairs = pairs.reshape(-1, 2, 2, 2)
    rho0 = pairs[:, 0]
    rho1 = pairs[:, 1]
    rho = eta0 * rho0 + (1.0 - eta0) * rho1
    return StatePair(nu=nu, mu=mu, eta0=eta0, rho0=rho0, rho1=rho1, rho=rho)


def _parts(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(re.shape, dtype=complex)
    out.real = re
    out.imag = im
    return out


def build_state_pair(nu: float, mu: complex, eta0: float = 0.5) -> StatePair:
    """Assemble rho0, rho1, and the prior mixture rho = eta0*rho0 + eta1*rho1.

    One pair in scalar arithmetic; :func:`build_state_stack` builds the
    same matrices for a whole grid at once.
    """
    nu = float(nu)
    mu = complex(mu)
    eta0 = float(eta0)
    if not 0.0 < nu <= 1.0 + 1e-12:
        raise DomainError(f"nu must be in (0, 1], got {nu}")
    if not abs(mu) <= 1.0 + 1e-12:
        raise DomainError(f"|mu| must be <= 1, got {abs(mu)}")
    if not 0.0 < eta0 < 1.0:
        raise DomainError(f"eta0 must be in (0, 1), got {eta0}")
    nu = min(nu, 1.0)
    if abs(mu) > 1.0:
        mu = mu / abs(mu)
    off0 = 0.5 * nu
    off1 = 0.5 * nu * mu
    rho0 = np.array([[0.5, off0], [off0, 0.5]], dtype=complex)
    rho1 = np.array([[0.5, off1], [np.conj(off1), 0.5]], dtype=complex)
    rho = eta0 * rho0 + (1.0 - eta0) * rho1
    return StatePair(nu=nu, mu=mu, eta0=eta0, rho0=rho0, rho1=rho1, rho=rho)

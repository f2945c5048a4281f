"""Stochastic cross-checks of the analytic channel and solver outputs.

Two independent estimators live here:

* bath trajectories -- the dephasing field is an exponentially
  correlated Gaussian process (stationary variance kappa^2, correlation
  time tau_c) advanced with its exact one-step update, so the only
  discretization left is the quadrature of the accumulated phase;
* measurement clicks -- categorical sampling of (true state, outcome)
  from the Born probabilities, giving empirical confidences and
  inconclusive rates with binomial error bars.

Randomness contract: the counter-based Philox generator keyed by
SeedSequence(seed); trajectory i draws from the base stream with counter
word 2 set to i (counter [0, 0, i, 0], empty buffer), which is exactly
Philox.jumped(i), for 0 <= i < 2**64.  Statistics are accumulated in
fixed chunk order.  Results for a given seed are therefore reproducible
bit for bit and independent of any thread-count setting.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .channel import StatePair, SwitchingFunction, free_decay
from .discrim import Povm
from .errors import DomainError

_CHUNK = 2048
_MAX_STREAMS = 2**64  # trajectory indices fit counter word 2


@dataclass(frozen=True)
class OuParams:
    """Bath-simulation parameters (times in microseconds)."""

    kappa: float
    tau_c: float
    dt: float
    T: float
    seed: int
    n_traj: int

    def __post_init__(self) -> None:
        if self.kappa < 0:
            raise DomainError("kappa must be >= 0")
        if self.tau_c <= 0:
            raise DomainError("tau_c must be > 0")
        if not 0 < self.dt <= self.tau_c / 50.0:
            raise DomainError("dt must satisfy 0 < dt <= tau_c/50")
        if self.T <= 0:
            raise DomainError("T must be > 0")
        if not 1 <= self.n_traj <= _MAX_STREAMS:
            raise DomainError("n_traj must be in [1, 2**64]")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")


@dataclass(frozen=True)
class DephasingEstimate:
    """Monte Carlo estimate of the coherence left after a run."""

    nu_hat: float
    std_err: float
    imag_hat: float
    imag_std_err: float
    n_traj: int


@dataclass(frozen=True)
class ClickTally:
    """Counts of (true state j, outcome k) with k in (0, 1, inconclusive)."""

    counts: np.ndarray  # shape (2, 3), integer
    shots: int

    def __post_init__(self) -> None:
        if int(np.sum(self.counts)) != self.shots:
            raise DomainError("tally does not add up to the shot count")


@dataclass(frozen=True)
class ConfidenceEstimate:
    """Plug-in confidence estimates; a field is None when no clicks inform it."""

    c0_hat: float | None
    c0_std_err: float | None
    c1_hat: float | None
    c1_std_err: float | None
    p_inc_hat: float
    p_inc_std_err: float
    shots: int


def _streams(seed: int) -> Callable[[int], np.random.Generator]:
    """Return ``at(index)``, which reseats one generator to a trajectory stream.

    ``at(i)`` sets the Philox state in place to that of
    ``Philox(SeedSequence(seed)).jumped(i)`` -- same key, counter
    [0, 0, i, 0], empty buffer -- and returns the one shared Generator,
    so each call restarts the stream of the previous one.  The counter
    goes in through the state dict's uint64 array: the
    ``Philox(counter=...)`` constructor reads indices >= 2**63 differently.
    """
    bitgen = np.random.Philox(np.random.SeedSequence(seed))
    state = bitgen.state  # counter [0, 0, 0, 0], empty buffer: jumped(0)
    counter = state["state"]["counter"]
    rng = np.random.Generator(bitgen)

    def at(index: int) -> np.random.Generator:
        if not 0 <= index < _MAX_STREAMS:
            raise DomainError("trajectory index must be in [0, 2**64)")
        counter[2] = index
        bitgen.state = state
        return rng

    return at


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent per-trajectory stream: Philox jumped by the trajectory index."""
    return _streams(seed)(index)


def _grid_and_weights(
    switching: SwitchingFunction, dt: float
) -> tuple[np.ndarray, np.ndarray]:
    """Time grid aligned with the sign flips, plus trapezoid weights.

    Each constant-sign segment is subdivided uniformly with step <= dt,
    so the integrand's jumps always land on grid points; the weights w
    satisfy  integral(xi * B) ~= sum(w * B)  by the trapezoid rule.
    """
    times = [0.0]
    weights = [0.0]
    for t0, t1, sign in switching.segments():
        m = max(1, math.ceil((t1 - t0) / dt - 1e-9))
        h = (t1 - t0) / m
        weights[-1] += sign * h / 2.0
        for i in range(1, m + 1):
            times.append(t0 + i * h)
            weights.append(sign * h if i < m else sign * h / 2.0)
    return np.asarray(times), np.asarray(weights)


def ou_trajectory(params: OuParams, index: int = 0) -> np.ndarray:
    """One bath path on the uniform grid 0, dt, 2dt, ..., >= T.

    Exact one-step update B(t+dt) = B(t)*exp(-dt/tau_c) + kappa *
    sqrt(1 - exp(-2dt/tau_c)) * N(0,1), started from the stationary draw
    B(0) ~ N(0, kappa^2).  Deterministic for a given (seed, index).
    """
    n_steps = math.ceil(params.T / params.dt - 1e-9)
    rng = substream(params.seed, index)
    eps = rng.standard_normal(n_steps + 1).tolist()
    decay = math.exp(-params.dt / params.tau_c)
    sig = params.kappa * math.sqrt(max(0.0, 1.0 - decay * decay))
    path = [params.kappa * eps[0]]
    for e in eps[1:]:
        path.append(path[-1] * decay + sig * e)
    return np.array(path)


def empirical_dephasing(
    params: OuParams, switching: SwitchingFunction | None = None
) -> DephasingEstimate:
    """Monte Carlo coherence <exp(-i * integral(xi * B))> over bath paths.

    Returns the real part (the coherence estimate) with its standard
    error; the imaginary part averages to zero by symmetry and is
    reported as a diagnostic.
    """
    if switching is None:
        switching = free_decay(params.T)
    if abs(switching.total_time - params.T) > 1e-9:
        raise DomainError("switching horizon differs from params.T")
    gap = switching.min_gap()
    if math.isfinite(gap) and params.dt > gap / 50.0 + 1e-15:
        raise DomainError("dt must be <= (pulse spacing)/50")

    times, weights = _grid_and_weights(switching, params.dt)
    steps = np.diff(times)
    decay = np.exp(-steps / params.tau_c)
    sig = params.kappa * np.sqrt(np.maximum(0.0, 1.0 - decay * decay))

    n = params.n_traj
    sum_cos = sum_cos2 = 0.0
    sum_sin = sum_sin2 = 0.0
    n_pts = times.size
    stream = _streams(params.seed)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        c = stop - start
        # one column per trajectory, so the recursion reads contiguous rows
        eps = np.empty((n_pts, c))
        for i in range(c):
            eps[:, i] = stream(start + i).standard_normal(n_pts)
        b = params.kappa * eps[0]
        phase = weights[0] * b
        for k in range(n_pts - 1):
            b = b * decay[k] + sig[k] * eps[k + 1]
            phase += weights[k + 1] * b
        cos_p = np.cos(phase)
        sin_p = np.sin(phase)
        sum_cos += float(np.sum(cos_p))
        sum_cos2 += float(np.sum(cos_p * cos_p))
        sum_sin += float(np.sum(sin_p))
        sum_sin2 += float(np.sum(sin_p * sin_p))

    mean_cos = sum_cos / n
    mean_sin = sum_sin / n
    if n > 1:
        var_cos = max(0.0, (sum_cos2 - n * mean_cos**2) / (n - 1))
        var_sin = max(0.0, (sum_sin2 - n * mean_sin**2) / (n - 1))
        se_cos = math.sqrt(var_cos / n)
        se_sin = math.sqrt(var_sin / n)
    else:
        se_cos = se_sin = float("inf")
    return DephasingEstimate(
        nu_hat=mean_cos,
        std_err=se_cos,
        imag_hat=mean_sin,
        imag_std_err=se_sin,
        n_traj=n,
    )


def simulate_clicks(povm: Povm, pair: StatePair, shots: int, seed: int) -> ClickTally:
    """Sample (true state, outcome) pairs from the Born probabilities."""
    if shots < 1:
        raise DomainError("shots must be >= 1")
    if seed < 0:
        raise DomainError("seed must be >= 0")
    probs = np.empty((2, 3))
    for j, rho_j in enumerate((pair.rho0, pair.rho1)):
        for k, op in enumerate(povm.operators()):
            probs[j, k] = max(0.0, float(np.trace(rho_j @ op).real))
    row_sums = probs.sum(axis=1, keepdims=True)
    if np.any(np.abs(row_sums - 1.0) > 1e-9):
        raise DomainError("outcome probabilities do not sum to one")
    probs /= row_sums

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    states = (rng.random(shots) < pair.eta1).astype(np.int64)
    u = rng.random(shots)
    t1 = np.where(states == 0, probs[0, 0], probs[1, 0])
    t2 = t1 + np.where(states == 0, probs[0, 1], probs[1, 1])
    outcomes = (u >= t1).astype(np.int64) + (u >= t2).astype(np.int64)

    counts = np.zeros((2, 3), dtype=np.int64)
    for j in range(2):
        for k in range(3):
            counts[j, k] = int(np.sum((states == j) & (outcomes == k)))
    return ClickTally(counts=counts, shots=shots)


def empirical_confidence(tally: ClickTally) -> ConfidenceEstimate:
    """Plug-in confidence and inconclusive-rate estimates with binomial errors."""
    counts = tally.counts
    out: list[float | None] = []
    for j in (0, 1):
        fired = int(counts[0, j] + counts[1, j])
        if fired == 0:
            out.extend([None, None])
        else:
            c_hat = counts[j, j] / fired
            out.extend([float(c_hat), math.sqrt(c_hat * (1.0 - c_hat) / fired)])
    n_inc = int(counts[0, 2] + counts[1, 2])
    p_inc = n_inc / tally.shots
    p_se = math.sqrt(p_inc * (1.0 - p_inc) / tally.shots)
    return ConfidenceEstimate(
        c0_hat=out[0],
        c0_std_err=out[1],
        c1_hat=out[2],
        c1_std_err=out[3],
        p_inc_hat=float(p_inc),
        p_inc_std_err=p_se,
        shots=tally.shots,
    )

"""Stochastic cross-checks of the analytic channel and solver outputs.

Two independent estimators live here:

* bath trajectories -- the dephasing field is an exponentially
  correlated Gaussian process (stationary variance kappa^2, correlation
  time tau_c) advanced with its exact one-step update, so the only
  discretization left is the quadrature of the accumulated phase.  One
  kernel advances a chunk of paths at once: each trajectory draws into a
  contiguous row, blocks of rows are copied transposed into time-major
  normals, and the recursion carries the path one contiguous row at a
  time, folding each row into the phase sum, so no full path is held.
  Checks on one bath, seed and trajectory count share the draw: a
  trajectory's first p normals are those of a p-point draw, so each
  check reads a prefix of the longest grid's normals.  Reseating the
  generator costs about 0.9 us per trajectory and a 100-normal draw about
  2.7 us, close to their share of one bulk draw, so what the sharing
  saves is drawing a number twice.  ``ou_trajectory`` collects the rows
  of the same recursion for one trajectory and costs about 0.3 ms per
  100-step path (numpy calls per time step), so take many paths from the
  kernel;
* measurement clicks -- categorical sampling of (true state, outcome)
  from the Born probabilities, giving empirical confidences and
  inconclusive rates with binomial error bars.

Randomness contract: the counter-based Philox generator keyed by
SeedSequence(seed); trajectory i draws from the base stream with counter
word 2 set to i (counter [0, 0, i, 0], empty buffer), which is exactly
Philox.jumped(i), for 0 <= i < 2**64.  The counter is set through the
generator's state dict, held as plain Python ints, and not through the
``Philox(counter=...)`` constructor, which reads indices >= 2**63
differently.  Statistics are accumulated in fixed chunk order; a chunk
holds at most 2048 trajectories, fewer on a grid so long that their normals
would pass 16 MiB.  Results for a given seed are therefore reproducible
bit for bit and independent of any thread-count setting.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from . import qmat
from .channel import StatePair, SwitchingFunction, check_bath, free_decay
from .discrim import Povm, check_pair
from .errors import DomainError

_CHUNK = 2048  # trajectories per chunk, while a chunk's normals fit _CHUNK_BYTES
_CHUNK_BYTES = 16 * 2**20  # a chunk on a longer grid takes fewer trajectories
_BLOCK = 64  # trajectories drawn row-wise before one transposed copy
_MAX_STREAMS = 2**64  # trajectory indices fit counter word 2


def _check_int(name: str, value, low: int) -> None:
    """An integer argument is an int or a numpy int (not a bool) and at least ``low``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{name} must be an int, got {value!r}")
    if value < low:
        raise DomainError(f"{name} must be >= {low}")


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
        check_bath(self.kappa, self.tau_c)
        if not 0 < self.dt <= self.tau_c / 50.0:
            raise DomainError("dt must satisfy 0 < dt <= tau_c/50")
        if not self.T > 0:
            raise DomainError("T must be > 0")
        _check_int("n_traj", self.n_traj, 1)
        if self.n_traj > _MAX_STREAMS:
            raise DomainError("n_traj must be <= 2**64")
        _check_int("seed", self.seed, 0)


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

    counts: np.ndarray  # shape (2, 3), non-negative integers
    shots: int

    def __post_init__(self) -> None:
        counts = self.counts
        if not (
            isinstance(counts, np.ndarray)
            and counts.shape == (2, 3)
            and np.issubdtype(counts.dtype, np.integer)
            and not np.count_nonzero(counts < 0)
        ):
            raise DomainError("counts must be a (2, 3) array of non-negative integers")
        if int(np.sum(counts)) != self.shots:
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
    so each call restarts the stream of the previous one.  The state dict
    holds ``counter``, ``key`` and ``buffer`` as lists of Python ints:
    numpy's state setter converts them word by word, and it boxes each
    element of a ``uint64`` array as a numpy scalar first, which makes a
    reseat take more than twice as long.  The counter goes in through the
    state dict: the ``Philox(counter=...)`` constructor reads indices
    >= 2**63 differently.
    """
    bitgen = np.random.Philox(np.random.SeedSequence(seed))
    state = bitgen.state  # counter [0, 0, 0, 0], empty buffer: jumped(0)
    words = state["state"]
    words["counter"], words["key"] = words["counter"].tolist(), words["key"].tolist()
    state["buffer"] = state["buffer"].tolist()
    counter = words["counter"]
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


def _normals(seed: int, first: int, count: int, points: int) -> np.ndarray:
    """Normals of trajectories first, ..., first+count-1 as time-major columns.

    Each trajectory draws into a contiguous row of a ``_BLOCK``-row buffer,
    which is copied transposed into the C-contiguous result.  A trajectory's
    first p normals are those of a p-point draw, so a shorter grid reads a
    prefix of the rows."""
    at = _streams(seed)
    z = np.empty((points, count))
    block = np.empty((min(_BLOCK, count), points))
    for lo in range(0, count, _BLOCK):
        rows = block[: min(_BLOCK, count - lo)]
        for i, row in enumerate(rows, start=first + lo):
            at(i).standard_normal(out=row)
        z[:, lo : lo + len(rows)] = rows.T
    return z


def _ou_rows(
    kappa: float, z: np.ndarray, decay: np.ndarray, sig: np.ndarray
) -> Iterator[np.ndarray]:
    """Bath rows B(0), ..., B(decay.size) over the columns of ``z``: B(0) =
    kappa*z[0], then B(k+1) = z[k+1]*sig[k] + B(k)*decay[k] (IEEE + and *
    commute).  ``z`` is only read; two buffers take turns, so a yielded row
    is overwritten two rows later."""
    row = np.multiply(z[0], kappa)
    yield row
    nxt, tmp = np.empty_like(row), np.empty_like(row)
    for k in range(decay.size):
        np.multiply(z[k + 1], sig[k], out=nxt)
        nxt += np.multiply(row, decay[k], out=tmp)
        row, nxt = nxt, row
        yield row


def _phase(
    kappa: float, z: np.ndarray, weights: np.ndarray, decay: np.ndarray, sig: np.ndarray
) -> np.ndarray:
    """sum(w * B) of each column: each bath row is folded in as it is made."""
    rows = _ou_rows(kappa, z, decay, sig)
    phase = weights[0] * next(rows)
    tmp = np.empty_like(phase)
    for k, row in enumerate(rows, start=1):
        phase += np.multiply(row, weights[k], out=tmp)
    return phase


def ou_trajectory(params: OuParams, index: int = 0) -> np.ndarray:
    """One bath path on the uniform grid 0, dt, 2dt, ..., >= T.

    Exact one-step update B(t+dt) = B(t)*exp(-dt/tau_c) + kappa *
    sqrt(1 - exp(-2dt/tau_c)) * N(0,1), started from the stationary draw
    B(0) ~ N(0, kappa^2).  Deterministic for a given (seed, index).
    """
    n_steps = math.ceil(params.T / params.dt - 1e-9)
    decay = math.exp(-params.dt / params.tau_c)
    sig = params.kappa * math.sqrt(max(0.0, 1.0 - decay * decay))
    z = _normals(params.seed, index, 1, n_steps + 1)
    rows = _ou_rows(params.kappa, z, np.full(n_steps, decay), np.full(n_steps, sig))
    return np.array([row[0] for row in rows])


def empirical_dephasing(
    params: OuParams, switching: SwitchingFunction | None = None
) -> DephasingEstimate:
    """Monte Carlo coherence <exp(-i * integral(xi * B))> over bath paths.

    Returns the real part (the coherence estimate) with its standard
    error; the imaginary part averages to zero by symmetry and is
    reported as a diagnostic.
    """
    return empirical_dephasings([(params, switching)])[0]


def empirical_dephasings(
    checks: Sequence[tuple[OuParams, SwitchingFunction | None]],
) -> list[DephasingEstimate]:
    """:func:`empirical_dephasing` of each (params, switching) check, bit for
    bit, drawing each trajectory's normals once for all of them.

    The checks must share ``kappa``, ``tau_c``, ``seed`` and ``n_traj``, so
    they read the same streams.  Each check keeps its own chunk size; the
    checks of one chunk size share one draw at the longest of their grids,
    and each reads its prefix.
    """
    if not checks:
        raise DomainError("checks must hold at least one (params, switching) pair")
    base = checks[0][0]
    grids = []  # weights, decay and sig of each check
    for params, switching in checks:
        for field in ("kappa", "tau_c", "seed", "n_traj"):
            if getattr(params, field) != getattr(base, field):
                raise DomainError(f"checks differ in {field}")
        if switching is None:
            switching = free_decay(params.T)
        if abs(switching.total_time - params.T) > 1e-9:
            raise DomainError("switching horizon differs from params.T")
        gap = switching.min_gap()
        if math.isfinite(gap) and params.dt > gap / 50.0 + 1e-15:
            raise DomainError("dt must be <= (pulse spacing)/50")
        times, weights = _grid_and_weights(switching, params.dt)
        decay = np.exp(-np.diff(times) / params.tau_c)
        sig = params.kappa * np.sqrt(np.maximum(0.0, 1.0 - decay * decay))
        grids.append((weights, decay, sig))

    n = base.n_traj
    groups: dict[int, list[int]] = {}  # chunk size -> indices of its checks
    for i, (weights, _, _) in enumerate(grids):
        chunk = max(1, min(_CHUNK, _CHUNK_BYTES // (8 * weights.size)))
        groups.setdefault(chunk, []).append(i)
    # per check: sum and sum of squares of cos(phase), then of sin(phase)
    sums = [[[0.0, 0.0], [0.0, 0.0]] for _ in checks]
    for chunk, members in groups.items():
        points = max(grids[i][0].size for i in members)
        for start in range(0, n, chunk):
            z = _normals(base.seed, start, min(chunk, n - start), points)
            for i in members:
                phase = _phase(base.kappa, z, *grids[i])
                for total, part in zip(sums[i], (np.cos(phase), np.sin(phase))):
                    total[0] += float(np.sum(part))
                    total[1] += float(np.sum(part * part))
            del z  # so that the next chunk's normals do not coexist with these

    estimates = []
    for check_sums in sums:
        stats = []  # mean and standard error of cos(phase), then of sin(phase)
        for total, total2 in check_sums:
            mean = total / n
            var = max(0.0, (total2 - n * mean**2) / (n - 1)) if n > 1 else math.inf
            stats += [mean, math.sqrt(var / n)]
        estimates.append(DephasingEstimate(*stats, n_traj=n))
    return estimates


def simulate_clicks(povm: Povm, pair: StatePair, shots: int, seed: int) -> ClickTally:
    """Sample (true state, outcome) pairs from the Born probabilities."""
    check_pair(pair, povm)
    _check_int("shots", shots, 1)
    _check_int("seed", seed, 0)
    born = qmat.trace(pair.states[:, None] @ povm.ops)
    probs = np.maximum(born, 0.0)  # Tr(rho_j Pi_k); a rounded -0.0 or below becomes +0.0
    row_sums = probs.sum(axis=1, keepdims=True)
    if not np.all(np.abs(row_sums - 1.0) <= 1e-9):  # NaN fails too
        raise DomainError("outcome probabilities do not sum to one")
    probs /= row_sums

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    states = (rng.random(shots) < pair.eta1).astype(np.int64)
    u = rng.random(shots)
    t1 = probs[:, 0][states]  # per shot: P(outcome 0 | state)
    t2 = (probs[:, 0] + probs[:, 1])[states]  # the same one IEEE add as t1 + P(1 | state)
    outcomes = (u >= t1).astype(np.int64) + (u >= t2).astype(np.int64)

    counts = np.bincount(3 * states + outcomes, minlength=6).reshape(2, 3)
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

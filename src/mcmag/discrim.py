"""Maximum-confidence discrimination of the two hypothesis states.

The confidence of detector j is the conditional probability that state j
was prepared given that detector j fired,

    C_j = eta_j * Tr(rho_j Pi_j) / Tr(rho Pi_j),

and the solver below maximizes both confidences simultaneously while
minimizing the probability Tr(rho Pi_?) of the explicit "don't know"
outcome.  For a pair of qubit states the optimum is closed-form:

  * form  D0 = eta0 * rho^(-1/2) rho0 rho^(-1/2)  (weighted by the prior
    of the hypothesis being detected; a grid-search test pins this
    convention) and diagonalize it,
  * the top eigenvalue is C0_max, one minus the bottom eigenvalue is
    C1_max, and the optimal detector directions are the eigenvectors
    pulled back through rho^(-1/2),
  * with r_ij the matrix elements of rho in that eigenbasis and
    c = |r_01|, the least inconclusive rate is

        1 - det(rho)/r_11   when c >= r_11   (only detector 0 kept)
        1 - det(rho)/r_00   when c >= r_00   (only detector 1 kept)
        2c                  otherwise,

    the interior weights being a = (r_00 - c) r_11 / det(rho) and
    b = (r_11 - c) r_00 / det(rho).  In the one-sided cases the
    measurement collapses to the two-outcome minimum-error projectors.

Also here: the minimum-error (Helstrom) baseline, capping of the
inconclusive rate by mixing toward the minimum-error measurement, the
conditional error of a conclusive call, and an independent brute-force
grid search used to verify all of the above.  Each operation is one
kernel on a stack of pairs (``*_stack``) whose row k is bitwise the
kernel on pair k alone; the one-pair functions are a stack of one.

The sweep takes none of these matrix kernels.  Both states lie in the
equatorial plane of the Bloch ball, so the same optimum, the cap and the
conditional error have closed forms in plane coordinates (Croke et al.,
PRL 96, 070401 (2006); Herzog, PRA 85, 032312 (2012)), in real
elementwise arithmetic on ``(n,)`` arrays of ``nu``, ``mu`` and ``eta0``:
:func:`plane_optimum`, :func:`plane_capped`, :func:`helstrom_error` and
:func:`plane_conditional_error` give every solver column of a grid.  The
degenerate rule is stated there: ``(delta_0 + delta_1)/2 <= DEGENERACY_TOL``.
The matrix path solves a row again with :func:`plane_optimum` where
``rho^(-1/2)`` rounding has left ``Pi_?`` more than 1e-10 from rank one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .channel import StatePair
from .errors import DomainError, PsdViolationError, UndefinedConditionalError

#: Relative tolerance below which the transformed detector state counts as
#: scalar, i.e. the two hypotheses are operationally identical.
DEGENERACY_TOL = 1e-12

BRANCHES = ("interior", "boundary_a", "boundary_b", "degenerate")
_BRANCH_NAMES = np.array(BRANCHES)  # a stack's branch index -> its name


@dataclass(frozen=True)
class Povm:
    """Three-outcome measurement (detector 0, detector 1, inconclusive).

    ``ops[..., k, :, :]`` is the 2x2 operator of outcome k, and ``pi0``,
    ``pi1``, ``pi_inc`` are views of it: ``Povm(np.array((pi0, pi1, pi_inc)))``.
    A stacked :class:`McSolution` or :class:`ThresholdResult` has ``ops`` of
    shape ``(n, 3, 2, 2)``; any trailing shape but ``(3, 2, 2)`` is a DomainError.
    """

    ops: np.ndarray

    def __post_init__(self) -> None:
        self.__dict__["ops"] = ops = np.asarray(self.ops, dtype=complex)  # frozen
        if ops.shape[-3:] != (3, 2, 2):
            raise DomainError(f"Povm operators must have shape (..., 3, 2, 2), got {ops.shape}")

    @property
    def pi0(self) -> np.ndarray:
        return self.ops[..., 0, :, :]

    @property
    def pi1(self) -> np.ndarray:
        return self.ops[..., 1, :, :]

    @property
    def pi_inc(self) -> np.ndarray:
        return self.ops[..., 2, :, :]


@dataclass(frozen=True)
class McSolution:
    """Closed-form solver output: numbers for one pair, or one array per
    field for a stack of n pairs (:func:`solve_stack`), row k the solution
    of pair k.

    ``c0_max`` is the top eigenvalue of ``eta0 * rho^(-1/2) rho0 rho^(-1/2)``
    and ``c1_max`` one minus its bottom one, both clipped to [0, 1].  A
    ``degenerate`` pair reports a convention instead (:func:`solve_stack`):
    the priors as confidences, ``p_inc_opt = 0`` and the balanced measurement.
    ``branch`` names the solution family, one of :data:`BRANCHES`.  In a
    stack ``c0_max``, ``c1_max``, ``p_inc_opt`` and ``branch`` (the names)
    have shape ``(n,)`` and ``povm.ops`` has shape ``(n, 3, 2, 2)``; the
    solution of pair k holds the view ``povm.ops[k]``.
    """

    c0_max: float | np.ndarray
    c1_max: float | np.ndarray
    p_inc_opt: float | np.ndarray
    povm: Povm
    branch: str | np.ndarray

    def row(self, k: int) -> McSolution:
        """The solution of pair k of a stack."""
        return McSolution(
            c0_max=float(self.c0_max[k]),
            c1_max=float(self.c1_max[k]),
            p_inc_opt=float(self.p_inc_opt[k]),
            povm=Povm(self.povm.ops[k]),
            branch=str(self.branch[k]),
        )


@dataclass(frozen=True)
class ThresholdResult:
    """Measurement after capping the inconclusive rate.

    A confidence that is undefined (the detector never fires) is None for
    one pair; in a stack every field has a leading axis and it is NaN.
    """

    povm: Povm
    c0: float | None
    c1: float | None
    p_inc: float
    mix: float  # 0 = untouched optimum, 1 = pure minimum-error measurement

    def row(self, k: int) -> ThresholdResult:
        c0, c1 = float(self.c0[k]), float(self.c1[k])
        return ThresholdResult(
            povm=Povm(self.povm.ops[k]),
            c0=None if math.isnan(c0) else c0,
            c1=None if math.isnan(c1) else c1,
            p_inc=float(self.p_inc[k]),
            mix=float(self.mix[k]),
        )


@dataclass(frozen=True)
class OracleSolution:
    """Best measurement found by the independent grid search."""

    c0: float
    c1: float
    p_inc: float
    povm: Povm


def _clip01(x: np.ndarray) -> np.ndarray:
    """``min(max(x, 0.0), 1.0)`` elementwise, signed zeros and NaN included (``x`` if inside)."""
    low, high = 0.0 > x, 1.0 < x
    if np.count_nonzero(low) or np.count_nonzero(high):
        x = np.where(low, 0.0, np.where(high, 1.0, x))
    return x


# The balanced projective measurement reported for identical hypotheses.
_BALANCED = qmat.proj(np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]], dtype=complex) / np.sqrt(2.0))


def check_pair(pair: StatePair, *povm: Povm) -> None:
    """The one-record rule of the one-pair calls, read from type and array rank:
    ``pair`` is a StatePair of one pair and ``povm``, if passed, one measurement,
    else DomainError."""
    if not isinstance(pair, StatePair):
        raise DomainError("expected a StatePair")
    if pair.states.ndim != 3:
        raise DomainError(f"expected one pair, got a stack of {len(pair.states)}")
    for measurement in povm:
        check_povm(measurement)


def check_povm(povm: Povm, record: str = "one measurement") -> None:
    """The one-record rule for a measurement: a Povm of one, else DomainError naming ``record``."""
    if not isinstance(povm, Povm):
        raise DomainError(f"expected a Povm, got {type(povm).__name__}")
    if povm.ops.ndim != 3:
        raise DomainError(f"expected {record}, got operators of shape {povm.ops.shape}")


def solve_stack(pairs: StatePair) -> McSolution:
    """Closed-form maximum-confidence measurement of every pair in a stack.

    ``pairs`` is a ``StatePair`` made from arrays, or one pair (a stack
    of one).  Every row runs the same array operations, so row k is
    bitwise the solution of pair k on its own.
    Pairs whose mixture is rank-deficient or whose transformed detector
    state is scalar (``DEGENERACY_TOL``, relative) take the ``degenerate``
    branch, whose values are a convention: the priors as confidences,
    ``p_inc_opt = 0`` and the balanced projective measurement.  Every
    measurement attains the priors there, but ``p_inc_opt`` is
    discontinuous, so a pair's exact optimum may be far from 0.
    """
    rho0 = pairs.rho0.reshape(-1, 2, 2)
    rho = pairs.rho.reshape(-1, 2, 2)
    eta0 = pairs.eta0
    n = len(rho)
    rho_vals, rho_vecs = qmat.herm_eig2(rho)
    s_inv = qmat.spectral_pow((rho_vals, rho_vecs), -0.5)
    d0 = qmat.hermitize(eta0 * (s_inv @ rho0 @ s_inv))  # top eigenvalue: c0_max
    gamma_vals, gamma_vecs = qmat.herm_eig2(d0)

    scale = np.maximum(1.0, np.maximum.reduce(np.abs(d0).reshape(n, 4), axis=1))
    shift = (0.5 * qmat.trace(d0))[:, None, None] * qmat.I2
    dev_from_scalar = np.maximum.reduce(np.abs(d0 - shift).reshape(n, 4), axis=1)
    live = qmat.support(rho_vals)[:, 0] & ~(dev_from_scalar <= DEGENERACY_TOL * scale)
    n_live = np.count_nonzero(live)
    if n_live == n:
        values, branch, ops = _measure(rho, s_inv, gamma_vals, gamma_vecs, pairs)
    else:
        values = np.empty((n, 3))
        values[:] = (0.0, eta0, 1.0 - eta0)
        branch = np.full(n, 3)
        ops = np.tile(_BALANCED, (n, 1, 1, 1))
        if n_live:
            rows = np.flatnonzero(live)
            values[rows], branch[rows], ops[rows] = _measure(
                rho[rows], s_inv[rows], gamma_vals[rows], gamma_vecs[rows], pairs, rows
            )

    p_inc, c0_max, c1_max = values.T
    return McSolution(c0_max, c1_max, p_inc, Povm(ops), _BRANCH_NAMES[branch])


def _measure(rho, s_inv, gamma_vals, gamma_vecs, pairs: StatePair, live=slice(None)):
    """The optimal measurement of the ``live`` rows of ``pairs``, which are not degenerate.

    Returns ``(values, branch, ops)``: columns p_inc, c0_max, c1_max; the
    branch index; the operators (pi0, pi1, pi_inc).  ``Pi_?`` is rank one
    at the optimum; a row where ``rho^(-1/2)`` has left its smaller
    eigenvalue outside +-1e-10 is solved again in plane coordinates
    (:func:`plane_optimum`), from the pair's ``nu``, ``mu`` and ``eta0``.
    """
    n = len(rho)
    # Row j of gcols is eigenvector j of d0: j = 1 (top eigenvalue) is the
    # detector-0 direction, j = 0 the detector-1 direction.
    gcols = gamma_vecs.transpose(0, 2, 1)
    rho_g = (rho[:, None] @ gcols[..., None])[..., 0]
    rows = np.ascontiguousarray(gcols)  # r_jk = <g_j| rho |g_k>: dots of contiguous 2-vectors
    r_diag = np.vecdot(rows[:, ::-1], rho_g[:, ::-1]).real  # r00, r11
    r01 = np.vecdot(rows[:, 1], rho_g[:, 0])
    c = np.hypot(r01.real, r01.imag)  # |r01|
    det_rho = np.linalg.det(rho).real
    bound_a = c >= r_diag[:, 1]  # only detector 0 kept
    bound_b = ~bound_a & (c >= r_diag[:, 0])  # only detector 1 kept
    branch = bound_a + 2 * bound_b  # index into BRANCHES

    # Columns a, b, p_inc, c0_max, c1_max before clipping to [0, 1]; the
    # interior weights and rate first, then the boundary rows.
    values = np.empty((n, 5))
    values[:, :2] = (r_diag - c[:, None]) * r_diag[:, ::-1] / det_rho[:, None]
    values[:, 2] = 2.0 * c
    values[:, 3] = gamma_vals[:, 1]
    values[:, 4] = 1.0 - gamma_vals[:, 0]
    for rows, weights, r_kept in ((bound_a, (1.0, 0.0), 1), (bound_b, (0.0, 1.0), 0)):
        if np.count_nonzero(rows):
            values[rows, :2] = weights
            values[rows, 2] = 1.0 - det_rho[rows] / r_diag[rows, r_kept]
    values = _clip01(values)

    # Detector directions (w, v): the eigenvectors pulled back through
    # rho^(-1/2) and normalized.
    wv = (s_inv[:, None] @ gcols[..., None])[..., 0]
    wv = qmat.pin_phase(qmat.unit(wv.reshape(-1, 2))).reshape(n, 2, 2)
    ops = np.empty((n, 3, 2, 2), dtype=complex)
    ops[:, 1::-1] = qmat.proj(wv) * values[:, 1::-1, None, None]  # a|v><v|, b|w><w|
    ops[:, 2] = qmat.hermitize(qmat.I2 - ops[:, 0] - ops[:, 1])
    values = values[:, 2:]
    off = ~(abs(qmat.min_eigval(ops[:, 2])) <= 1e-10)
    if np.count_nonzero(off):
        off = np.flatnonzero(off)
        nu, mu = np.reshape(pairs.nu, -1)[live][off], np.reshape(pairs.mu, -1)[live][off]
        values[off], branch[off], plane_ops = plane_optimum(nu, mu, pairs.eta0)
        ops[off] = _matrices(plane_ops)
        if np.count_nonzero(~qmat.is_psd(ops[off, 2], tol=1e-10)):
            raise PsdViolationError("inconclusive operator lost positivity")
    return values, branch, ops


def solve_max_confidence(pair: StatePair) -> McSolution:
    """Closed-form maximum-confidence measurement for a state pair."""
    check_pair(pair)
    return solve_stack(pair).row(0)


#: Firing probability at or below which a detector counts as never firing.
_ZERO_FIRE = 1e-15


def achieved_confidences(povm: Povm, pair: StatePair) -> tuple[float | None, float | None]:
    """Confidences a given measurement actually attains on a pair.

    Returns ``None`` for a detector that never fires (firing probability
    at most ``_ZERO_FIRE``), where the conditional probability is undefined.
    """
    check_pair(pair, povm)
    c0, c1 = _confidence_stack(povm.ops[:2], pair).tolist()
    return (None if math.isnan(c0) else c0), (None if math.isnan(c1) else c1)


def _confidence_stack(detectors: np.ndarray, pairs: StatePair):
    """Confidences ``(c0, c1)`` that detectors ``(pi0, pi1)``, an array of
    shape ``(..., 2, 2, 2)``, attain on their pairs, clipped to [0, 1];
    NaN where a detector fires with probability <= ``_ZERO_FIRE``."""
    fire = qmat.trace(pairs.rho[..., None, :, :] @ detectors)
    hit = qmat.trace(pairs.states @ detectors)
    eta = np.array([pairs.eta0, pairs.eta1])
    return _clip01(eta * hit / np.where(fire <= _ZERO_FIRE, np.nan, fire))


def min_error_stack(pairs: StatePair) -> np.ndarray:
    """Helstrom bound of every pair in a stack (row k = pair k): :func:`helstrom_error`
    of its ``nu``, ``mu`` and ``eta0``."""
    return helstrom_error(pairs.nu, pairs.mu, pairs.eta0)


def helstrom_error(nu, mu, eta0) -> np.ndarray:
    """Helstrom bound ``1/2 - max(|d|, |z|)`` of pairs in plane coordinates, for
    ``eta1*rho1 - eta0*rho0 = [[d, z], [z*, d]]`` (both states have diagonal 1/2):
    ``z = (eta1*nu*mu - eta0*nu)/2``, with the roundings of the complex
    arithmetic on the matrix entries ``nu/2`` and ``nu*mu/2``."""
    eta1 = 1.0 - eta0
    off0 = 0.5 * nu
    z_re = eta1 * (off0 * mu.real) - eta0 * off0
    z_im = eta1 * (off0 * mu.imag)
    return 0.5 - np.maximum(abs(0.5 * (eta1 - eta0)), np.hypot(z_re, z_im))


def min_error_probability(pair: StatePair) -> float:
    """Least average error of any two-outcome measurement (Helstrom bound)."""
    check_pair(pair)
    return float(min_error_stack(pair))


def _min_error_ops(pairs: StatePair) -> np.ndarray:
    """:func:`min_error_projectors` of every pair in a stack, as an
    ``(n, 3, 2, 2)`` array of the operators (pi0, pi1, pi_inc)."""
    diff = qmat.hermitize(pairs.eta1 * pairs.rho1 - pairs.eta0 * pairs.rho0).reshape(-1, 2, 2)
    eigvals, eigvecs = qmat.herm_eig2(diff)
    kept = np.where((eigvals > 0.0)[..., None, None], qmat.proj(eigvecs.swapaxes(1, 2)), 0.0)
    ops = np.zeros((len(diff), 3, 2, 2), dtype=complex)
    # Summed from +0.0, so no entry is -0.0 (the neumark dump prints the sign).
    ops[:, 1] = 0.0 + kept[:, 0] + kept[:, 1]
    ops[:, 0] = qmat.hermitize(qmat.I2 - ops[:, 1])
    return ops


def min_error_projectors(pair: StatePair) -> Povm:
    """Two-outcome measurement attaining the minimum-error bound.

    Detector 1 collects the strictly positive eigenspace of
    eta1*rho1 - eta0*rho0; ties at zero go to detector 0.
    """
    check_pair(pair)
    return Povm(_min_error_ops(pair)[0])


def threshold_stack(sols: McSolution, pairs: StatePair, p_thresh: float) -> ThresholdResult:
    """Cap the inconclusive rate of every row of a stack at ``p_thresh``.

    Rows whose optimum already satisfies the cap pass through untouched.
    The others are mixed linearly with the minimum-error projectors,

        Pi_k(mix) = (1 - mix) * Pi_k_opt + mix * Pi_k_minerr,

    with mix = 1 - p_thresh / p_inc_opt; the inconclusive operator only
    shrinks, so Tr(rho Pi_?) = p_thresh holds exactly, positivity is
    automatic, and mix = 1 reproduces the minimum-error measurement.
    Confidences are re-evaluated on the mixed measurement.  ``sols`` is
    :func:`solve_stack` of ``pairs``, or the one-pair solution of one pair
    (a stack of one); row k of the result is bitwise
    :func:`threshold_inconclusive` of pair k.
    """
    if not 0.0 <= p_thresh <= 1.0:
        raise DomainError("p_thresh must be in [0, 1]")
    c0_max, c1_max, p_inc_opt = np.array((sols.c0_max, sols.c1_max, sols.p_inc_opt)).reshape(3, -1)
    n_sols, n_pairs = len(p_inc_opt), np.size(pairs.nu)
    if n_sols != n_pairs:
        raise DomainError(f"sols and pairs must have one length, got {n_sols} and {n_pairs}")
    optimum = sols.povm.ops.reshape(-1, 3, 2, 2)
    over = ~(p_inc_opt <= p_thresh)
    if not np.count_nonzero(over):
        return ThresholdResult(
            povm=Povm(optimum), c0=c0_max, c1=c1_max, p_inc=p_inc_opt, mix=np.zeros(len(over))
        )
    # Rows under the cap get mix = 1 here and keep their optimum below.
    mix = 1.0 - p_thresh / np.where(over, p_inc_opt, np.inf)
    ops = _min_error_ops(pairs)
    if p_thresh > 0.0:  # else mix = 1: the minimum-error measurement itself
        weight = mix[:, None, None, None]
        ops[:, :2] = qmat.hermitize((1.0 - weight) * optimum[:, :2] + weight * ops[:, :2])
        ops[:, 2] = qmat.hermitize(qmat.I2 - ops[:, 0] - ops[:, 1])
    c0, c1 = _confidence_stack(ops[:, :2], pairs).T
    p_inc = qmat.trace(pairs.rho @ ops[:, 2])
    ops = np.where(over[:, None, None, None], ops, optimum)
    c0 = np.where(over, c0, c0_max)
    c1 = np.where(over, c1, c1_max)
    p_inc = np.where(over, p_inc, p_inc_opt)
    mix = np.where(over, mix, 0.0)
    return ThresholdResult(povm=Povm(ops), c0=c0, c1=c1, p_inc=p_inc, mix=mix)


def threshold_inconclusive(
    sol: McSolution, pair: StatePair, p_thresh: float
) -> ThresholdResult:
    """Cap the inconclusive rate at ``p_thresh``: :func:`threshold_stack` on one pair."""
    check_pair(pair)
    if not isinstance(sol, McSolution):
        raise DomainError(f"expected an McSolution, got {type(sol).__name__}")
    check_povm(sol.povm, "the solution of one pair")
    return threshold_stack(sol, pair, p_thresh).row(0)


def conditional_error_stack(povm: Povm, pairs: StatePair) -> np.ndarray:
    """Conditional error of each row's measurement on its pair.

    NaN where the measurement is (almost) never conclusive (a conclusive
    probability ``1 - Tr(rho Pi_?)`` at most 1e-12); the other errors are
    clipped to [0, 1] (one that is never wrong can round below 0).
    """
    wrong = pairs.eta0 * qmat.trace(pairs.rho0 @ povm.pi1) + pairs.eta1 * qmat.trace(
        pairs.rho1 @ povm.pi0
    )
    conclusive = 1.0 - qmat.trace(pairs.rho @ povm.pi_inc)
    return _clip01(wrong / np.where(conclusive <= 1e-12, np.nan, conclusive))


def conditional_error(povm: Povm, pair: StatePair) -> float:
    """Probability a conclusive call is wrong, given that it was conclusive."""
    check_pair(pair, povm)
    error = float(conditional_error_stack(povm, pair))
    if math.isnan(error):
        raise UndefinedConditionalError("measurement is (almost) never conclusive")
    return error


# ---------------------------------------------------------------------------
# Plane coordinates
# ---------------------------------------------------------------------------
#
# Both states have diagonal 1/2, so with rho_j = (I + r_j.sigma)/2 their
# Bloch vectors lie in the equatorial plane: r0 = nu (1, 0) and
# r1 = nu (x, -y) for mu = x + iy.  Every operator of the optimum and of
# the cap is (alpha I + beta.sigma)/2 with beta in that plane, held as the
# row (alpha, beta_x, beta_y), and Tr(rho_j Pi) = (alpha + r_j.beta)/2.
# The arithmetic is elementwise real + - * /, sqrt and hypot: no matrix and
# no BLAS kernel, so the bits do not depend on the CPU kernel family.

#: The balanced measurement of identical hypotheses: |+><+|, |-><-|, no inconclusive outcome.
_BALANCED_PLANE = np.array([[1.0, 1.0, 0.0], [1.0, -1.0, 0.0], [0.0, 0.0, 0.0]])


def plane_optimum(nu: np.ndarray, mu: np.ndarray, eta0):
    """The maximum-confidence optimum of pairs in plane coordinates.

    ``nu`` and ``mu`` are ``(n,)`` arrays that passed the pair rule
    (:func:`~mcmag.channel.pair_factors`), ``eta0`` a float or an ``(n,)``
    array.  Returns ``(values, branch, ops)``: columns p_inc, c0_max, c1_max,
    clipped to [0, 1]; the index into :data:`BRANCHES`; and ``ops`` of shape
    ``(n, 3, 3)``, outcome k (pi0, pi1, pi_inc) of row i as
    ``(alpha, beta_x, beta_y)``.

    With ``D = |r0 - r1|^2/nu^2``, ``R = (r0 - r1).r/nu^2`` and
    ``S = 1 - |r|^2`` for ``r = eta0 r0 + eta1 r1``, and
    ``Q = sqrt((nu R)^2 + S D)``, the confidences are ``eta_j + delta_j``
    with ``delta_0 = a nu D/(Q + nu R)`` and ``delta_1 = a nu D/(Q - nu R)``
    (``a = eta0 eta1``), the smaller of ``Q +- nu R`` taken as ``S D`` over
    the larger.  The detector directions have squared overlap
    ``g = (nu y)^2/D``: detector 1 is dropped (``boundary_a``) where
    ``g (Q + nu R) >= Q - nu R``, detector 0 (``boundary_b``) where
    ``g (Q - nu R) >= Q + nu R``, and in the ``interior`` the inconclusive
    rate is ``nu |y| sqrt(S)/Q``.  A pair whose detector state is within
    ``DEGENERACY_TOL`` of a scalar, ``(delta_0 + delta_1)/2 <= DEGENERACY_TOL``
    (the radius of its spectrum), or whose deltas are not numbers, is
    ``degenerate``: the priors, ``p_inc = 0`` and the balanced measurement.
    """
    x, y = mu.real, mu.imag
    eta1 = 1.0 - eta0
    a = eta0 * eta1
    one_x = 1.0 - x  # exact for x >= 1/2
    # 1 - |mu|^2 from the larger part: no rounding of |mu| near the unit circle
    # (clamped at 0, where the pair rule put mu on the circle).
    hi, lo = np.maximum(abs(x), abs(y)), np.minimum(abs(x), abs(y))
    mm = np.maximum((1.0 - hi) * (1.0 + hi) - lo * lo, 0.0)
    d2 = one_x * one_x + y * y  # D
    nu_r = nu * (0.5 * mm + 0.5 * (eta0 - eta1) * d2)  # nu R
    s = (1.0 - nu) * (1.0 + nu) + nu * nu * (eta1 * eta1 * mm + 2.0 * a * one_x)  # S
    q = np.sqrt(nu_r * nu_r + s * d2)  # Q
    with np.errstate(divide="ignore", invalid="ignore"):
        big = q + abs(nu_r)  # the larger of Q +- nu R; their product is S D
        small = s * d2 / big
        up = nu_r >= 0.0
        near, far = a * nu * d2 / big, a * nu * big / s
        delta0, delta1 = np.where(up, near, far), np.where(up, far, near)
        q_plus, q_minus = np.where(up, big, small), np.where(up, small, big)
        g = (nu * y) ** 2 / d2
        h = q * q / d2  # 1 - g
        bound_a = g * q_plus >= q_minus  # only detector 0 kept
        bound_b = ~bound_a & (g * q_minus >= q_plus)  # only detector 1 kept
        w = nu * abs(y) * np.sqrt(s)  # sqrt(g (Q + nu R) (Q - nu R))
        p_inc = np.where(bound_a, 1.0 - q * q_plus / (2.0 * d2), w / q)
        p_inc = np.where(bound_b, 1.0 - q * q_minus / (2.0 * d2), p_inc)
        # (Q + nu R) - g (Q - nu R) = h (Q - nu R) + 2 nu R, and its mirror: no 1 - g.
        weight_v = np.where(bound_a, 1.0, (h * q_minus + 2.0 * nu_r) / ((q_plus + w) * h))
        weight_w = np.where(bound_a, 0.0, (h * q_plus - 2.0 * nu_r) / ((q_minus + w) * h))
        weight_v = _clip01(np.where(bound_b, 0.0, weight_v))
        weight_w = _clip01(np.where(bound_b, 1.0, weight_w))
        # n_v, n_w = -r_perp +- (Q/D) (1 - x, y), r_perp the part of r normal to r0 - r1.
        n_v = ((q * one_x - nu * y * y) / d2, y * (q + nu * one_x) / d2)
        n_w = (-(q * one_x + nu * y * y) / d2, y * (nu * one_x - q) / d2)
        live = 0.5 * (delta0 + delta1) > DEGENERACY_TOL
    n = len(nu)
    values = np.empty((n, 3))
    values[:, 0] = np.where(live, p_inc, 0.0)
    values[:, 1] = np.where(live, eta0 + delta0, eta0)
    values[:, 2] = np.where(live, eta1 + delta1, eta1)
    values = _clip01(values)
    branch = np.where(live, bound_a + 2 * bound_b, 3)
    ops = np.empty((n, 3, 3))
    ops[:, 0, 0], ops[:, 0, 1], ops[:, 0, 2] = weight_v, weight_v * n_v[0], weight_v * n_v[1]
    ops[:, 1, 0], ops[:, 1, 1], ops[:, 1, 2] = weight_w, weight_w * n_w[0], weight_w * n_w[1]
    ops[:, 2] = -ops[:, 0] - ops[:, 1]
    ops[:, 2, 0] += 2.0
    if np.count_nonzero(~live):
        ops[~live] = _BALANCED_PLANE
    return values, branch, ops


def _tr(op: np.ndarray, rx, ry) -> np.ndarray:
    """``Tr(rho Pi)`` for ``rho = (I + r.sigma)/2``, ``r = (rx, ry)``, and ``Pi``
    the row ``(alpha, beta_x, beta_y)``."""
    return 0.5 * (op[..., 0] + op[..., 1] * rx + op[..., 2] * ry)


def plane_capped(nu: np.ndarray, mu: np.ndarray, eta0, values: np.ndarray, ops: np.ndarray,
                 p_thresh: float):
    """:func:`threshold_stack` in plane coordinates, on :func:`plane_optimum`'s
    ``values`` and ``ops``: ``(c0, c1, p_inc, detectors)``, the capped
    confidences (NaN where a detector fires with probability <= ``_ZERO_FIRE``),
    the inconclusive rate and the detectors ``(pi0, pi1)`` as ``(n, 2, 3)``.

    A row over the cap mixes its detectors with the minimum-error ones,
    ``(1 - mix) Pi_opt + mix Pi_minerr`` with ``mix = 1 - p_thresh/p_inc_opt``,
    so its rate is ``p_thresh``.  Detector 1 of the minimum-error measurement
    is the strictly positive eigenspace of ``eta1 rho1 - eta0 rho0 =
    (e I + m.sigma)/2``, eigenvalues ``(e +- |m|)/2``: all of it where
    ``e - |m| > 0``, none where ``e + |m| <= 0``, else ``(I + m.sigma/|m|)/2``.
    """
    if not 0.0 <= p_thresh <= 1.0:
        raise DomainError("p_thresh must be in [0, 1]")
    p_inc_opt, c0_max, c1_max = values.T
    detectors = ops[:, :2]
    over = ~(p_inc_opt <= p_thresh)
    if not np.count_nonzero(over):
        return c0_max, c1_max, p_inc_opt, detectors
    eta1 = 1.0 - eta0
    r0x, r1x, r1y = nu, nu * mu.real, -nu * mu.imag
    e = eta1 - eta0
    mx, my = eta1 * r1x - eta0 * r0x, eta1 * r1y
    size = np.hypot(mx, my)
    both = e - size > 0.0
    split = ~both & (e + size > 0.0)
    minerr = np.zeros((len(nu), 2, 3))
    minerr[:, 1, 0] = np.where(both, 2.0, np.where(split, 1.0, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        minerr[:, 1, 1] = np.where(split, mx / size, 0.0)
        minerr[:, 1, 2] = np.where(split, my / size, 0.0)
    minerr[:, 0] = -minerr[:, 1]
    minerr[:, 0, 0] += 2.0
    mixed = minerr
    if p_thresh > 0.0:  # else mix = 1: the minimum-error measurement itself
        mix = 1.0 - p_thresh / np.where(over, p_inc_opt, np.inf)
        mixed = (1.0 - mix)[:, None, None] * detectors + mix[:, None, None] * minerr
    rx, ry = eta0 * r0x + eta1 * r1x, eta1 * r1y
    fire = _tr(mixed, rx[:, None], ry[:, None])
    hit = np.array((eta0 * _tr(mixed[:, 0], r0x, 0.0), eta1 * _tr(mixed[:, 1], r1x, r1y))).T
    with np.errstate(divide="ignore", invalid="ignore"):
        c0, c1 = _clip01(hit / np.where(fire <= _ZERO_FIRE, np.nan, fire)).T
    return (np.where(over, c0, c0_max), np.where(over, c1, c1_max),
            np.where(over, p_thresh, p_inc_opt), np.where(over[:, None, None], mixed, detectors))


def plane_conditional_error(nu: np.ndarray, mu: np.ndarray, eta0, ops: np.ndarray):
    """:func:`conditional_error_stack` in plane coordinates, for the detectors
    ``ops[:, 0]`` and ``ops[:, 1]`` (pi0, pi1) of each row: the wrong
    conclusive calls over all of them, NaN where those fire with probability
    <= 1e-12."""
    eta1 = 1.0 - eta0
    r1x, r1y = nu * mu.real, -nu * mu.imag
    rx, ry = eta0 * nu + eta1 * r1x, eta1 * r1y
    wrong = eta0 * _tr(ops[:, 1], nu, 0.0) + eta1 * _tr(ops[:, 0], r1x, r1y)
    conclusive = _tr(ops[:, 0], rx, ry) + _tr(ops[:, 1], rx, ry)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _clip01(wrong / np.where(conclusive <= 1e-12, np.nan, conclusive))


def _matrices(ops: np.ndarray) -> np.ndarray:
    """The 2x2 operators ``(alpha I + beta.sigma)/2`` of rows ``(..., 3)`` in plane coordinates."""
    half = 0.5 * ops
    out = np.empty(ops.shape[:-1] + (2, 2), dtype=complex)
    out[..., 0, 0] = out[..., 1, 1] = half[..., 0]
    out[..., 0, 1] = half[..., 1] - 1j * half[..., 2]
    out[..., 1, 0] = half[..., 1] + 1j * half[..., 2]
    return out


# ---------------------------------------------------------------------------
# Independent brute-force verifier
# ---------------------------------------------------------------------------


def _bloch_coeffs(m: np.ndarray) -> tuple[float, np.ndarray]:
    # m = alpha*I + beta . sigma  for Hermitian m
    alpha = 0.5 * float(np.trace(m).real)
    beta = np.array(
        [m[0, 1].real, -m[0, 1].imag, 0.5 * (m[0, 0].real - m[1, 1].real)]
    )
    return alpha, beta


def _directions(theta_lo, theta_hi, phi_lo, phi_hi, n):
    theta = np.linspace(theta_lo, theta_hi, n)
    phi = np.linspace(phi_lo, phi_hi, n, endpoint=False)
    tt, pp = np.meshgrid(theta, phi, indexing="ij")
    tt = tt.ravel()
    pp = pp.ravel()
    st = np.sin(tt)
    hats = np.column_stack([st * np.cos(pp), st * np.sin(pp), np.cos(tt)])
    return tt, pp, hats


_COARSE_GRIDS: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}
_REFINE_GRID = 64  # window subdivisions per refinement round
_NEAR_TOL = 1e-3  # confidence shortfall that still counts as optimal
_POOL = 32  # near-optimal directions kept for the weight search, both detectors


def _coarse_directions(n):
    if n not in _COARSE_GRIDS:
        _COARSE_GRIDS[n] = _directions(0.0, np.pi, 0.0, 2.0 * np.pi, n)
    return _COARSE_GRIDS[n]


def _ket(theta: float, phi: float) -> np.ndarray:
    return np.array(
        [np.cos(theta / 2.0), np.exp(1j * phi) * np.sin(theta / 2.0)], dtype=complex
    )


def _confidence_scan(pair: StatePair, which: int, grid: int, refine: int):
    """Grid-maximize the confidence functional of one detector.

    Full-sphere scan at the requested density, then window refinement
    around the running argmax.  Returns the best value plus the sampled
    (confidence, theta, phi) table of the final round for near-optimal
    pooling.
    """
    rho_j = pair.rho0 if which == 0 else pair.rho1
    eta_j = pair.eta0 if which == 0 else pair.eta1
    a_num, b_num = _bloch_coeffs(rho_j)
    a_den, b_den = _bloch_coeffs(pair.rho)

    def evaluate(tt, pp, hats):
        return eta_j * (a_num + hats @ b_num) / (a_den + hats @ b_den)

    tt, pp, hats = _coarse_directions(grid)
    conf = evaluate(tt, pp, hats)
    k = int(np.argmax(conf))
    best = (float(conf[k]), float(tt[k]), float(pp[k]))
    final = (conf, tt, pp)

    dt = np.pi / max(grid - 1, 1)
    dp = 2.0 * np.pi / grid
    t_ctr, p_ctr = float(tt[k]), float(pp[k])
    for _ in range(refine):
        t_lo = max(0.0, t_ctr - 2 * dt)
        t_hi = min(np.pi, t_ctr + 2 * dt)
        tt, pp, hats = _directions(t_lo, t_hi, p_ctr - 2 * dp, p_ctr + 2 * dp, _REFINE_GRID)
        conf = evaluate(tt, pp, hats)
        k = int(np.argmax(conf))
        if conf[k] > best[0]:
            best = (float(conf[k]), float(tt[k]), float(pp[k]))
        final = (conf, tt, pp)
        dt = (t_hi - t_lo) / max(_REFINE_GRID - 1, 1)
        dp = 4.0 * dp / _REFINE_GRID
        t_ctr, p_ctr = float(tt[k]), float(pp[k])
    return best, final


def grid_search_povm(
    pair: StatePair,
    grid_density: int = 256,
    refine: int = 3,
) -> OracleSolution:
    """Exhaustive-search verifier for the closed-form solver.

    Detector directions are scanned on a polar/azimuthal grid (with local
    window refinement around the running maximum), weights (a, b) on a
    grid over [0, 1] restricted to the region where the leftover
    inconclusive operator stays positive; positivity of the reported
    winner is confirmed via its eigenvalues.  Uses nothing but the
    defining confidence ratio, so it is independent of the eigenbasis
    closed forms it checks.
    """
    check_pair(pair)
    if grid_density < 64:
        raise DomainError("grid_density must be >= 64")

    best0, final0 = _confidence_scan(pair, 0, grid_density, refine)
    best1, final1 = _confidence_scan(pair, 1, grid_density, refine)
    c0_best = best0[0]
    c1_best = best1[0]

    def near_optimal(c_best, scan):
        # Directions achieving the maximum up to grid resolution.  The
        # pool is drawn from the refined window so the P_inc search stays
        # on the maximum-confidence family instead of trading confidence
        # away for conclusiveness.
        conf, tt, pp = scan
        idx = np.nonzero(conf >= c_best - _NEAR_TOL)[0]
        order = np.argsort(conf[idx], kind="stable")[::-1][: _POOL // 2]
        return [(float(tt[i]), float(pp[i])) for i in idx[order]]

    vs = np.array([_ket(t, p) for (t, p) in near_optimal(c0_best, final0)])
    ws = np.array([_ket(t, p) for (t, p) in near_optimal(c1_best, final1)])

    # Vectorized weight search over every near-optimal direction pair:
    # push b to the positivity boundary of I - a|v><v| - b|w><w|
    # (det = 1 - a - b + a*b*(1-g) >= 0) and window-refine the a grid.
    qv = np.einsum("ij,jk,ik->i", vs.conj(), pair.rho, vs).real
    qw = np.einsum("ij,jk,ik->i", ws.conj(), pair.rho, ws).real
    overlap = np.abs(vs.conj() @ ws.T) ** 2
    g_flat = overlap.ravel()
    qv_flat = np.repeat(qv, ws.shape[0])
    qw_flat = np.tile(qw, vs.shape[0])

    n_pairs = g_flat.size
    rows = np.arange(n_pairs)
    base = np.linspace(0.0, 1.0, grid_density)
    lo = np.zeros(n_pairs)
    hi = np.ones(n_pairs)
    best_conc = np.full(n_pairs, -1.0)
    best_a = np.zeros(n_pairs)
    best_b = np.zeros(n_pairs)
    for _ in range(refine + 1):
        a = lo[:, None] + (hi - lo)[:, None] * base[None, :]
        denom = 1.0 - a * (1.0 - g_flat)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            b_cap = np.where(denom > 1e-15, (1.0 - a) / denom, 0.0)
        b_vals = np.clip(b_cap, 0.0, 1.0)
        conclusive = a * qv_flat[:, None] + b_vals * qw_flat[:, None]
        k = np.argmax(conclusive, axis=1)
        vals = conclusive[rows, k]
        upd = vals > best_conc
        best_conc[upd] = vals[upd]
        best_a[upd] = a[rows, k][upd]
        best_b[upd] = b_vals[rows, k][upd]
        step = (hi - lo) / max(grid_density - 1, 1)
        centers = a[rows, k]
        lo = np.maximum(0.0, centers - 2 * step)
        hi = np.minimum(1.0, centers + 2 * step)

    top = int(np.argmax(best_conc))
    best_conclusive = float(best_conc[top])
    a = float(best_a[top])
    b = float(best_b[top])
    v = vs[top // ws.shape[0]]
    w = ws[top % ws.shape[0]]
    # Built with plain numpy: the oracle shares no code with the solver it checks.
    pi0 = a * np.outer(v, v.conj())
    pi1 = b * np.outer(w, w.conj())
    pi_inc = np.eye(2) - pi0 - pi1
    pi_inc = 0.5 * (pi_inc + pi_inc.conj().T)
    lam = np.linalg.eigvalsh(pi_inc)
    if lam[0] < -1e-9:
        raise PsdViolationError("grid search produced a non-positive leftover")
    povm = Povm(np.array((pi0, pi1, pi_inc)))
    return OracleSolution(
        c0=c0_best, c1=c1_best, p_inc=1.0 - best_conclusive, povm=povm
    )

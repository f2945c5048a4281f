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
grid search used to verify all of the above.  Each call takes one pair
and one measurement; its matrices are ``(1, 2, 2)`` stacks of one, the
shapes whose numpy kernels give the pinned bits.

Stacks of pairs are solved in plane coordinates: the pair rule
:func:`~mcmag.channel.pair_factors`, then :mod:`mcmag.plane`, whose
``plane_optimum`` states the same optimum in closed form and the
degenerate rule ``(delta_0 + delta_1)/2 <= DEGENERACY_TOL``.  This module
takes from there the rules both solvers share
(:data:`~mcmag.plane.BRANCHES`, :data:`~mcmag.plane.DEGENERACY_TOL`,
:data:`~mcmag.plane.ZERO_FIRE`, the clip to [0, 1]), the Helstrom bound,
and the re-solve of a pair where ``rho^(-1/2)`` rounding has left ``Pi_?``
more than 1e-10 from rank one.  Of the CLI subcommands only ``neumark``
and ``validate`` load this module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import qmat
from .channel import StatePair
from .errors import DomainError, PsdViolationError, UndefinedConditionalError
from .plane import BRANCHES, DEGENERACY_TOL, ZERO_FIRE, clip01, helstrom_error, plane_optimum


@dataclass(frozen=True)
class Povm:
    """Three-outcome measurement (detector 0, detector 1, inconclusive).

    ``ops[k]`` is the 2x2 operator of outcome k, and ``pi0``, ``pi1``,
    ``pi_inc`` are views of it: ``Povm(np.array((pi0, pi1, pi_inc)))``.
    Any shape but ``(3, 2, 2)`` is a DomainError, so a Povm is one measurement.
    """

    ops: np.ndarray

    def __post_init__(self) -> None:
        self.__dict__["ops"] = ops = np.asarray(self.ops, dtype=complex)  # frozen
        if ops.shape != (3, 2, 2):
            raise DomainError(f"Povm operators must have shape (3, 2, 2), got {ops.shape}")

    @property
    def pi0(self) -> np.ndarray:
        return self.ops[0]

    @property
    def pi1(self) -> np.ndarray:
        return self.ops[1]

    @property
    def pi_inc(self) -> np.ndarray:
        return self.ops[2]


@dataclass(frozen=True)
class McSolution:
    """Closed-form solver output for one pair.

    ``c0_max`` is the top eigenvalue of ``eta0 * rho^(-1/2) rho0 rho^(-1/2)``
    and ``c1_max`` one minus its bottom one, both clipped to [0, 1].  A
    ``degenerate`` pair reports a convention instead (:func:`solve_max_confidence`):
    the priors as confidences, ``p_inc_opt = 0`` and the balanced measurement.
    ``branch`` names the solution family, one of :data:`~mcmag.plane.BRANCHES`.
    """

    c0_max: float
    c1_max: float
    p_inc_opt: float
    povm: Povm
    branch: str


@dataclass(frozen=True)
class ThresholdResult:
    """Measurement after capping the inconclusive rate.

    A confidence that is undefined (the detector never fires) is None.
    """

    povm: Povm
    c0: float | None
    c1: float | None
    p_inc: float
    mix: float  # 0 = untouched optimum, 1 = pure minimum-error measurement


@dataclass(frozen=True)
class OracleSolution:
    """Best measurement found by the independent grid search."""

    c0: float
    c1: float
    p_inc: float
    povm: Povm


# The balanced projective measurement reported for identical hypotheses.
_BALANCED = qmat.proj(np.array([[1.0, 1.0], [1.0, -1.0], [0.0, 0.0]], dtype=complex) / np.sqrt(2.0))


def check_pair(pair: StatePair, *povm: Povm) -> None:
    """The one-record rule of the one-pair calls, held by type: ``pair`` is a
    StatePair and ``povm``, if passed, a Povm, else DomainError."""
    if not isinstance(pair, StatePair):
        raise DomainError("expected a StatePair")
    for measurement in povm:
        check_povm(measurement)


def check_povm(povm: Povm) -> None:
    """The one-record rule for a measurement: a Povm, else DomainError."""
    if not isinstance(povm, Povm):
        raise DomainError(f"expected a Povm, got {type(povm).__name__}")


def solve_max_confidence(pair: StatePair) -> McSolution:
    """Closed-form maximum-confidence measurement for a state pair.

    A pair whose mixture is rank-deficient or whose transformed detector
    state is scalar (``DEGENERACY_TOL``, relative) takes the ``degenerate``
    branch, whose values are a convention: the priors as confidences,
    ``p_inc_opt = 0`` and the balanced projective measurement.  Every
    measurement attains the priors there, but ``p_inc_opt`` is
    discontinuous, so a pair's exact optimum may be far from 0.
    """
    check_pair(pair)
    rho0 = pair.rho0.reshape(-1, 2, 2)
    rho = pair.rho.reshape(-1, 2, 2)
    eta0 = pair.eta0
    rho_vals, rho_vecs = qmat.herm_eig2(rho)
    s_inv = qmat.spectral_pow((rho_vals, rho_vecs), -0.5)
    d0 = qmat.hermitize(eta0 * (s_inv @ rho0 @ s_inv))  # top eigenvalue: c0_max
    gamma_vals, gamma_vecs = qmat.herm_eig2(d0)

    scale = max(1.0, np.maximum.reduce(np.abs(d0), axis=None))
    shift = (0.5 * qmat.trace(d0))[:, None, None] * qmat.I2
    dev_from_scalar = np.maximum.reduce(np.abs(d0 - shift), axis=None)
    if not qmat.support(rho_vals)[0, 0] or dev_from_scalar <= DEGENERACY_TOL * scale:
        return McSolution(eta0, 1.0 - eta0, 0.0, Povm(_BALANCED.copy()), "degenerate")
    return _measure(rho, s_inv, gamma_vals, gamma_vecs, pair)


def _measure(rho, s_inv, gamma_vals, gamma_vecs, pair: StatePair) -> McSolution:
    """The optimal measurement of a pair that is not degenerate.

    ``Pi_?`` is rank one at the optimum; a pair where ``rho^(-1/2)`` has
    left its smaller eigenvalue outside +-1e-10 is solved again in plane
    coordinates (:func:`~mcmag.plane.plane_optimum`), from its ``nu``,
    ``mu`` and ``eta0``.
    """
    # Row j of gcols is eigenvector j of d0: j = 1 (top eigenvalue) is the
    # detector-0 direction, j = 0 the detector-1 direction.
    gcols = gamma_vecs.transpose(0, 2, 1)
    rho_g = (rho[:, None] @ gcols[..., None])[..., 0]
    rows = np.ascontiguousarray(gcols)  # r_jk = <g_j| rho |g_k>: dots of contiguous 2-vectors
    r_diag = np.vecdot(rows[:, ::-1], rho_g[:, ::-1]).real  # r00, r11
    r01 = np.vecdot(rows[:, 1], rho_g[:, 0])
    c = np.hypot(r01.real, r01.imag)  # |r01|
    det_rho = np.linalg.det(rho).real

    # Columns a, b, p_inc, c0_max, c1_max before clipping to [0, 1].
    values = np.empty((1, 5))
    values[:, 3] = gamma_vals[:, 1]
    values[:, 4] = 1.0 - gamma_vals[:, 0]
    if c[0] >= r_diag[0, 1]:  # only detector 0 kept
        branch = 1
        values[0, :3] = 1.0, 0.0, 1.0 - det_rho[0] / r_diag[0, 1]
    elif c[0] >= r_diag[0, 0]:  # only detector 1 kept
        branch = 2
        values[0, :3] = 0.0, 1.0, 1.0 - det_rho[0] / r_diag[0, 0]
    else:
        branch = 0
        values[:, :2] = (r_diag - c[:, None]) * r_diag[:, ::-1] / det_rho[:, None]
        values[:, 2] = 2.0 * c
    values = clip01(values)

    # Detector directions (w, v): the eigenvectors pulled back through
    # rho^(-1/2) and normalized.
    wv = (s_inv[:, None] @ gcols[..., None])[..., 0]
    wv = qmat.pin_phase(qmat.unit(wv.reshape(-1, 2))).reshape(1, 2, 2)
    ops = np.empty((1, 3, 2, 2), dtype=complex)
    ops[:, 1::-1] = qmat.proj(wv) * values[:, 1::-1, None, None]  # a|v><v|, b|w><w|
    ops[:, 2] = qmat.hermitize(qmat.I2 - ops[:, 0] - ops[:, 1])
    values = values[:, 2:]
    if not abs(qmat.min_eigval(ops[:, 2])[0]) <= 1e-10:
        values, branches, plane_ops = plane_optimum(
            np.array([pair.nu]), np.array([pair.mu]), pair.eta0
        )
        branch = int(branches[0])
        ops = _matrices(plane_ops)
        if not qmat.is_psd(ops[:, 2], tol=1e-10)[0]:
            raise PsdViolationError("inconclusive operator lost positivity")
    p_inc, c0_max, c1_max = values[0].tolist()
    return McSolution(c0_max, c1_max, p_inc, Povm(ops[0]), BRANCHES[branch])


def achieved_confidences(povm: Povm, pair: StatePair) -> tuple[float | None, float | None]:
    """Confidences a given measurement actually attains on a pair.

    Returns ``None`` for a detector that never fires (firing probability
    at most ``ZERO_FIRE``), where the conditional probability is undefined.
    """
    check_pair(pair, povm)
    return _confidences(povm.ops[:2], pair)


def _confidences(detectors: np.ndarray, pair: StatePair) -> tuple[float | None, float | None]:
    """Confidences ``(c0, c1)`` that detectors ``(pi0, pi1)``, an array of
    shape ``(2, 2, 2)`` or ``(1, 2, 2, 2)``, attain on the pair, clipped to
    [0, 1]; None where a detector fires with probability <= ``ZERO_FIRE``."""
    fire = qmat.trace(pair.rho[..., None, :, :] @ detectors)
    hit = qmat.trace(pair.states @ detectors)
    eta = np.array([pair.eta0, pair.eta1])
    c0, c1 = clip01(eta * hit / np.where(fire <= ZERO_FIRE, np.nan, fire)).reshape(2).tolist()
    return (None if math.isnan(c0) else c0), (None if math.isnan(c1) else c1)


def min_error_probability(pair: StatePair) -> float:
    """Least average error of any two-outcome measurement (Helstrom bound):
    :func:`~mcmag.plane.helstrom_error` of the pair's ``nu``, ``mu`` and ``eta0``."""
    check_pair(pair)
    return float(helstrom_error(pair.nu, pair.mu, pair.eta0))


def _min_error_ops(pair: StatePair) -> np.ndarray:
    """:func:`min_error_projectors` of a pair, as the ``(1, 3, 2, 2)`` array of
    the operators (pi0, pi1, pi_inc)."""
    diff = qmat.hermitize(pair.eta1 * pair.rho1 - pair.eta0 * pair.rho0).reshape(-1, 2, 2)
    eigvals, eigvecs = qmat.herm_eig2(diff)
    kept = np.where((eigvals > 0.0)[..., None, None], qmat.proj(eigvecs.swapaxes(1, 2)), 0.0)
    ops = np.zeros((1, 3, 2, 2), dtype=complex)
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


def threshold_inconclusive(
    sol: McSolution, pair: StatePair, p_thresh: float
) -> ThresholdResult:
    """Cap the inconclusive rate of the pair's optimum ``sol`` at ``p_thresh``.

    An optimum that already satisfies the cap passes through untouched.
    Otherwise it is mixed linearly with the minimum-error projectors,

        Pi_k(mix) = (1 - mix) * Pi_k_opt + mix * Pi_k_minerr,

    with mix = 1 - p_thresh / p_inc_opt; the inconclusive operator only
    shrinks, so Tr(rho Pi_?) = p_thresh holds exactly, positivity is
    automatic, and mix = 1 reproduces the minimum-error measurement.
    Confidences are re-evaluated on the mixed measurement.
    """
    check_pair(pair)
    if not isinstance(sol, McSolution):
        raise DomainError(f"expected an McSolution, got {type(sol).__name__}")
    if not 0.0 <= p_thresh <= 1.0:
        raise DomainError("p_thresh must be in [0, 1]")
    if sol.p_inc_opt <= p_thresh:
        return ThresholdResult(sol.povm, sol.c0_max, sol.c1_max, sol.p_inc_opt, 0.0)
    mix = 1.0 - p_thresh / sol.p_inc_opt
    ops = _min_error_ops(pair)
    if p_thresh > 0.0:  # else mix = 1: the minimum-error measurement itself
        optimum = sol.povm.ops[None, :2]
        ops[:, :2] = qmat.hermitize((1.0 - mix) * optimum + mix * ops[:, :2])
        ops[:, 2] = qmat.hermitize(qmat.I2 - ops[:, 0] - ops[:, 1])
    c0, c1 = _confidences(ops[:, :2], pair)
    p_inc = float(qmat.trace(pair.rho @ ops[:, 2])[0])
    return ThresholdResult(povm=Povm(ops[0]), c0=c0, c1=c1, p_inc=p_inc, mix=mix)


def conditional_error(povm: Povm, pair: StatePair) -> float:
    """Probability a conclusive call is wrong, given that it was conclusive.

    Clipped to [0, 1] (one that is never wrong can round below 0).  A
    measurement that is (almost) never conclusive, a conclusive probability
    ``1 - Tr(rho Pi_?)`` at most 1e-12, or NaN, is an UndefinedConditionalError.
    """
    check_pair(pair, povm)
    wrong = pair.eta0 * qmat.trace(pair.rho0 @ povm.pi1) + pair.eta1 * qmat.trace(
        pair.rho1 @ povm.pi0
    )
    conclusive = 1.0 - qmat.trace(pair.rho @ povm.pi_inc)
    error = float(clip01(wrong / np.where(conclusive <= 1e-12, np.nan, conclusive)))
    if math.isnan(error):
        raise UndefinedConditionalError("measurement is (almost) never conclusive")
    return error


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

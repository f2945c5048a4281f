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
grid search used to verify all of the above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import qmat
from .channel import StatePair, build_state_pair
from .errors import DomainError, PsdViolationError, UndefinedConditionalError

_I2 = np.eye(2, dtype=complex)

#: Relative tolerance below which the transformed detector state counts as
#: scalar, i.e. the two hypotheses are operationally identical.
DEGENERACY_TOL = 1e-12

BRANCHES = ("interior", "boundary_a", "boundary_b", "degenerate")


@dataclass(frozen=True)
class Povm:
    """Three-outcome measurement (detector 0, detector 1, inconclusive).

    ``a, v`` (and ``b, w``) hold the rank-one decomposition
    ``pi0 = a |v><v|`` when one exists; they are ``None`` for operators of
    rank two (which occur only for interpolated, capped measurements).
    In a :class:`SolutionStack` every field carries a leading axis of
    length n.
    """

    pi0: np.ndarray
    pi1: np.ndarray
    pi_inc: np.ndarray
    a: float | None = None
    b: float | None = None
    v: np.ndarray | None = None
    w: np.ndarray | None = None

    def operators(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.pi0, self.pi1, self.pi_inc


@dataclass(frozen=True)
class McSolution:
    """Closed-form solver output.

    ``gamma`` is the eigenpair of the transformed detector state
    (ascending, per :class:`~mcmag.qmat.EigPair2`); its top eigenvector
    is the detector-0 direction before the pull-back through rho^(-1/2).
    """

    c0_max: float
    c1_max: float
    p_inc_opt: float
    povm: Povm
    branch: str
    gamma: qmat.EigPair2


@dataclass(frozen=True)
class SolutionStack:
    """Closed-form solutions of a stack of n pairs, one array per field.

    Row k is the solution of pair k: ``c0_max``, ``c1_max``, ``p_inc_opt``
    and ``branch`` (an index into :data:`BRANCHES`) have shape ``(n,)``;
    ``povm`` and ``gamma`` carry the same leading axis.
    """

    c0_max: np.ndarray
    c1_max: np.ndarray
    p_inc_opt: np.ndarray
    branch: np.ndarray
    povm: Povm
    gamma: qmat.EigPair2

    def row(self, k: int) -> McSolution:
        p = self.povm
        return McSolution(
            c0_max=float(self.c0_max[k]),
            c1_max=float(self.c1_max[k]),
            p_inc_opt=float(self.p_inc_opt[k]),
            povm=Povm(
                pi0=p.pi0[k],
                pi1=p.pi1[k],
                pi_inc=p.pi_inc[k],
                a=float(p.a[k]),
                b=float(p.b[k]),
                v=p.v[k],
                w=p.w[k],
            ),
            branch=BRANCHES[self.branch[k]],
            gamma=qmat.EigPair2(self.gamma.eigvals[k], self.gamma.eigvecs[k]),
        )


@dataclass(frozen=True)
class ThresholdResult:
    """Measurement after capping the inconclusive rate."""

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


def _proj(vec: np.ndarray) -> np.ndarray:
    """|v><v| of a vector, or of each vector in a stack."""
    return vec[..., :, None] * np.conj(vec)[..., None, :]


def _hermitize(m: np.ndarray) -> np.ndarray:
    return 0.5 * (m + np.conj(m).swapaxes(-1, -2))


def _clip01(x: np.ndarray) -> np.ndarray:
    """``min(max(x, 0.0), 1.0)`` elementwise, signed zeros and NaN included (``x`` if inside)."""
    low, high = 0.0 > x, 1.0 < x
    if np.count_nonzero(low) or np.count_nonzero(high):
        x = np.where(low, 0.0, np.where(high, 1.0, x))
    return x


def _trace(m: np.ndarray) -> np.ndarray:
    """Real part of the trace of a matrix or of each in a stack (``np.trace``'s sum)."""
    return (m[..., 0, 0] + m[..., 1, 1]).real


# The balanced projective measurement reported for identical hypotheses.
_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
_MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def _check_pair(pair: StatePair) -> None:
    if not isinstance(pair, StatePair):
        raise DomainError("expected a StatePair")
    if not (0.0 < pair.nu <= 1.0) or abs(pair.mu) > 1.0 + 1e-12:
        raise DomainError("state pair outside its domain")
    if not (0.0 < pair.eta0 < 1.0):
        raise DomainError("eta0 must be in (0, 1)")


def _detector_state(s_inv: np.ndarray, rho0: np.ndarray, eta0: float) -> np.ndarray:
    return _hermitize(eta0 * (s_inv @ rho0 @ s_inv))


def transformed_detector_state(pair: StatePair) -> np.ndarray:
    """eta0 * rho^(-1/2) rho0 rho^(-1/2), the operator whose spectrum caps C0."""
    return _detector_state(qmat.psd_pow(pair.rho, -0.5), pair.rho0, pair.eta0)


def solve_stack(pairs: StatePair) -> SolutionStack:
    """Closed-form maximum-confidence measurement of every pair in a stack.

    ``pairs`` comes from :func:`~mcmag.channel.build_state_stack`, or is
    one checked pair (a stack of one).  Every row runs the same array
    operations, so row k is bitwise the solution of pair k on its own.
    Pairs whose mixture is rank-deficient or whose transformed detector
    state is scalar take the ``degenerate`` branch: the hypotheses are
    operationally identical, confidences fall back to the priors, nothing
    is gained by an inconclusive outcome, and the balanced projective
    measurement is reported as the continuity limit.
    """
    rho0 = pairs.rho0.reshape(-1, 2, 2)
    rho = pairs.rho.reshape(-1, 2, 2)
    eta0 = pairs.eta0
    n = len(rho)
    eig_rho = qmat.herm_eig2(rho)
    s_inv = qmat.spectral_pow(eig_rho, -0.5)
    d0 = _detector_state(s_inv, rho0, eta0)
    gamma = qmat.herm_eig2(d0)

    scale = np.maximum(1.0, np.maximum.reduce(np.abs(d0).reshape(n, 4), axis=1))
    shift = (0.5 * _trace(d0))[:, None, None] * _I2
    dev_from_scalar = np.maximum.reduce(np.abs(d0 - shift).reshape(n, 4), axis=1)
    live = qmat.support(eig_rho.eigvals)[:, 0] & ~(dev_from_scalar <= DEGENERACY_TOL * scale)
    n_live = np.count_nonzero(live)
    if n_live == n:
        values, branch, wv, ops = _measure(rho, s_inv, gamma)
    else:
        values = np.empty((n, 5))
        values[:] = (1.0, 1.0, 0.0, eta0, 1.0 - eta0)
        branch = np.full(n, 3)
        wv = np.empty((n, 2, 2), dtype=complex)
        wv[:] = (_MINUS, _PLUS)
        ops = np.zeros((n, 3, 2, 2), dtype=complex)
        ops[:, 0] = _proj(_PLUS)
        ops[:, 1] = _proj(_MINUS)
        if n_live:
            rows = np.flatnonzero(live)
            values[rows], branch[rows], wv[rows], ops[rows] = _measure(
                rho[rows], s_inv[rows], qmat.EigPair2(gamma.eigvals[rows], gamma.eigvecs[rows])
            )

    a, b, p_inc, c0_max, c1_max = values.T
    povm = Povm(pi0=ops[:, 0], pi1=ops[:, 1], pi_inc=ops[:, 2], a=a, b=b, v=wv[:, 1], w=wv[:, 0])
    return SolutionStack(
        c0_max=c0_max, c1_max=c1_max, p_inc_opt=p_inc, branch=branch, povm=povm, gamma=gamma
    )


def _measure(rho: np.ndarray, s_inv: np.ndarray, gamma: qmat.EigPair2):
    """The optimal measurement of pairs that are not degenerate.

    Returns ``(values, branch, wv, ops)``: columns a, b, p_inc, c0_max,
    c1_max; the branch index; the unit directions (w, v) of the two
    detectors; the operators (pi0, pi1, pi_inc).
    """
    n = len(rho)
    # Row j of gcols is eigenvector j of d0: j = 1 (top eigenvalue) is the
    # detector-0 direction, j = 0 the detector-1 direction.
    gcols = gamma.eigvecs.transpose(0, 2, 1)
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
    values[:, 3] = gamma.eigvals[:, 1]
    values[:, 4] = 1.0 - gamma.eigvals[:, 0]
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
    ops[:, 1::-1] = _proj(wv) * values[:, 1::-1, None, None]  # a|v><v|, b|w><w|
    ops[:, 2] = _hermitize(_I2 - ops[:, 0] - ops[:, 1])
    if np.count_nonzero(~qmat.is_psd(ops[:, 2], tol=1e-10)):
        raise PsdViolationError("inconclusive operator lost positivity")
    return values, branch, wv, ops


def solve_max_confidence(pair: StatePair) -> McSolution:
    """Closed-form maximum-confidence measurement for a state pair."""
    _check_pair(pair)
    return solve_stack(pair).row(0)


def achieved_confidences(
    povm: Povm, pair: StatePair, zero_tol: float = 1e-15
) -> tuple[float | None, float | None]:
    """Confidences a given measurement actually attains on a pair.

    Returns ``None`` for a detector that never fires (firing probability
    below ``zero_tol``), where the conditional probability is undefined.
    """
    out: list[float | None] = []
    for op, rho_j, eta_j in (
        (povm.pi0, pair.rho0, pair.eta0),
        (povm.pi1, pair.rho1, pair.eta1),
    ):
        fire = float(_trace(pair.rho @ op))
        if fire <= zero_tol:
            out.append(None)
        else:
            conf = eta_j * float(_trace(rho_j @ op)) / fire
            out.append(min(max(conf, 0.0), 1.0))
    return out[0], out[1]


def min_error_stack(pairs: StatePair) -> np.ndarray:
    """Helstrom bound of every pair in a stack (row k = pair k)."""
    diff = _hermitize(pairs.eta1 * pairs.rho1 - pairs.eta0 * pairs.rho0)
    return 0.5 * (1.0 - qmat.trace_norm_herm2(diff))


def min_error_probability(pair: StatePair) -> float:
    """Least average error of any two-outcome measurement (Helstrom bound)."""
    _check_pair(pair)
    return float(min_error_stack(pair))


def min_error_projectors(pair: StatePair) -> Povm:
    """Two-outcome measurement attaining the minimum-error bound.

    Detector 1 collects the strictly positive eigenspace of
    eta1*rho1 - eta0*rho0; ties at zero go to detector 0.
    """
    _check_pair(pair)
    diff = _hermitize(pair.eta1 * pair.rho1 - pair.eta0 * pair.rho0)
    eigvals, eigvecs = qmat.herm_eig2(diff)
    pi1 = np.zeros((2, 2), dtype=complex)
    rank1 = 0
    wvec = None
    for i in range(2):
        if eigvals[i] > 0.0:
            vec = eigvecs[:, i]
            pi1 = pi1 + _proj(vec)
            rank1 += 1
            wvec = vec
    pi0 = _hermitize(_I2 - pi1)
    pi_inc = np.zeros((2, 2), dtype=complex)

    if rank1 == 0:
        a, v = None, None  # pi0 = identity, rank two
        b, w = 0.0, None
    elif rank1 == 1:
        w, v = qmat.pin_phase(np.array([wvec, [-np.conj(wvec[1]), np.conj(wvec[0])]]))
        a, b = 1.0, 1.0
    else:
        b, w = None, None  # pi1 = identity
        a, v = 0.0, None
    return Povm(pi0=pi0, pi1=pi1, pi_inc=pi_inc, a=a, b=b, v=v, w=w)


def _rank1_metadata(ops: np.ndarray) -> list[tuple[float | None, np.ndarray | None]]:
    """``(a, v)`` with ``op = a |v><v|`` for each operator of a stack, if rank one."""
    eigvals, eigvecs = qmat.herm_eig2(ops)
    vecs = qmat.pin_phase(eigvecs[:, :, 1])
    out: list[tuple[float | None, np.ndarray | None]] = []
    for (lo, hi), vec in zip(eigvals.tolist(), vecs):
        if lo > 1e-12 * max(1.0, hi):
            out.append((None, None))
        elif hi <= 1e-14:
            out.append((0.0, None))
        else:
            out.append((hi, vec))
    return out


def threshold_inconclusive(
    sol: McSolution, pair: StatePair, p_thresh: float
) -> ThresholdResult:
    """Cap the inconclusive rate at ``p_thresh``.

    When the optimum already satisfies the cap the solution passes
    through untouched.  Otherwise the measurement is mixed linearly with
    the minimum-error projectors,

        Pi_k(mix) = (1 - mix) * Pi_k_opt + mix * Pi_k_minerr,

    with mix = 1 - p_thresh / p_inc_opt; the inconclusive operator only
    shrinks, so Tr(rho Pi_?) = p_thresh holds exactly, positivity is
    automatic, and mix = 1 reproduces the minimum-error measurement.
    Confidences are re-evaluated on the mixed measurement.
    """
    _check_pair(pair)
    if not 0.0 <= p_thresh <= 1.0:
        raise DomainError("p_thresh must be in [0, 1]")
    if sol.p_inc_opt <= p_thresh:
        return ThresholdResult(
            povm=sol.povm,
            c0=sol.c0_max,
            c1=sol.c1_max,
            p_inc=sol.p_inc_opt,
            mix=0.0,
        )
    me = min_error_projectors(pair)
    if p_thresh == 0.0:
        mix = 1.0
        povm = me
    else:
        mix = 1.0 - p_thresh / sol.p_inc_opt
        pi0 = _hermitize((1.0 - mix) * sol.povm.pi0 + mix * me.pi0)
        pi1 = _hermitize((1.0 - mix) * sol.povm.pi1 + mix * me.pi1)
        pi_inc = _hermitize(_I2 - pi0 - pi1)
        (a, v), (b, w) = _rank1_metadata(np.stack([pi0, pi1]))
        povm = Povm(pi0=pi0, pi1=pi1, pi_inc=pi_inc, a=a, b=b, v=v, w=w)
    c0, c1 = achieved_confidences(povm, pair)
    p_inc = float(_trace(pair.rho @ povm.pi_inc))
    return ThresholdResult(povm=povm, c0=c0, c1=c1, p_inc=p_inc, mix=mix)


def conditional_error_stack(povm: Povm, pairs: StatePair) -> tuple[np.ndarray, np.ndarray]:
    """Conditional error of each row's measurement on its pair.

    Returns ``(error, defined)``; ``defined`` is False (and the error NaN)
    where the measurement is (almost) never conclusive; defined errors are
    clipped to [0, 1] (one that is never wrong can round below 0).
    """
    wrong = pairs.eta0 * _trace(pairs.rho0 @ povm.pi1) + pairs.eta1 * _trace(
        pairs.rho1 @ povm.pi0
    )
    conclusive = 1.0 - _trace(pairs.rho @ povm.pi_inc)
    defined = ~(conclusive <= 1e-12)
    return _clip01(wrong / np.where(defined, conclusive, np.nan)), defined


def conditional_error(povm: Povm, pair: StatePair) -> float:
    """Probability a conclusive call is wrong, given that it was conclusive."""
    _check_pair(pair)
    error, defined = conditional_error_stack(povm, pair)
    if not defined:
        raise UndefinedConditionalError("measurement is (almost) never conclusive")
    return float(error)


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
    (confidence, theta, phi) tables of the coarse and final rounds for
    near-optimal pooling.
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
    coarse = (conf, tt, pp)
    final = coarse

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
    return best, coarse, final


def grid_search_povm(
    pair: StatePair,
    grid_density: int = 256,
    refine: int = 3,
    near_tol: float = 1e-3,
    pool: int = 32,
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
    _check_pair(pair)
    if grid_density < 64:
        raise DomainError("grid_density must be >= 64")

    best0, _, final0 = _confidence_scan(pair, 0, grid_density, refine)
    best1, _, final1 = _confidence_scan(pair, 1, grid_density, refine)
    c0_best = best0[0]
    c1_best = best1[0]

    def near_optimal(c_best, scan):
        # Directions achieving the maximum up to grid resolution.  The
        # pool is drawn from the refined window so the P_inc search stays
        # on the maximum-confidence family instead of trading confidence
        # away for conclusiveness.
        conf, tt, pp = scan
        idx = np.nonzero(conf >= c_best - near_tol)[0]
        order = np.argsort(conf[idx], kind="stable")[::-1][: max(1, pool // 2)]
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
    pi_inc = _I2 - pi0 - pi1
    pi_inc = 0.5 * (pi_inc + pi_inc.conj().T)
    lam = np.linalg.eigvalsh(pi_inc)
    if lam[0] < -1e-9:
        raise PsdViolationError("grid search produced a non-positive leftover")
    povm = Povm(pi0=pi0, pi1=pi1, pi_inc=pi_inc, a=a, b=b, v=v, w=w)
    return OracleSolution(
        c0=c0_best, c1=c1_best, p_inc=1.0 - best_conclusive, povm=povm
    )


def random_pair(
    rng: np.random.Generator,
    nu_range: tuple[float, float] = (1e-3, 1.0),
    eta_range: tuple[float, float] = (0.1, 0.9),
) -> StatePair:
    """Draw a random state pair (uniform nu, uniform |mu|<=1 disk, uniform prior)."""
    nu = rng.uniform(*nu_range)
    r = np.sqrt(rng.uniform(0.0, 1.0))
    ang = rng.uniform(0.0, 2.0 * np.pi)
    mu = r * np.exp(1j * ang)
    eta0 = rng.uniform(*eta_range)
    return build_state_pair(nu, mu, eta0)

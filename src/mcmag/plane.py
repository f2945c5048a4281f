"""The maximum-confidence optimum, its cap and its conditional error in plane coordinates.

Both hypothesis states have diagonal 1/2, so with rho_j = (I + r_j.sigma)/2
their Bloch vectors lie in the equatorial plane: r0 = nu (1, 0) and
r1 = nu (x, -y) for mu = x + iy.  The optimum of :mod:`mcmag.discrim`, the
cap of its inconclusive rate and the conditional error then have closed
forms (Croke et al., PRL 96, 070401 (2006); Herzog, PRA 85, 032312 (2012)).
Every operator of the optimum and of the cap is (alpha I + beta.sigma)/2
with beta in that plane, held as the row (alpha, beta_x, beta_y), and
Tr(rho_j Pi) = (alpha + r_j.beta)/2.  The arithmetic is elementwise real
+ - * /, sqrt and hypot on ``(n,)`` arrays of ``nu``, ``mu`` and ``eta0``:
no matrix and no BLAS kernel, so the bits do not depend on the CPU kernel
family.

The sweep takes every solver column of a grid from here
(:func:`plane_optimum`, :func:`plane_capped`, :func:`plane_conditional_error`
and :func:`helstrom_error`), so it loads neither the matrix solver nor
:mod:`mcmag.qmat`.  The rules both solvers share live here too: the
degenerate tolerance, the branch names, the never-firing threshold and the
clip to [0, 1].
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError

#: Relative tolerance below which the transformed detector state counts as
#: scalar, i.e. the two hypotheses are operationally identical.
DEGENERACY_TOL = 1e-12

#: The solution families; a solver's branch index points into this tuple.
BRANCHES = ("interior", "boundary_a", "boundary_b", "degenerate")

#: Firing probability at or below which a detector counts as never firing.
ZERO_FIRE = 1e-15


def clip01(x: np.ndarray) -> np.ndarray:
    """``min(max(x, 0.0), 1.0)`` elementwise, signed zeros and NaN included (``x`` if inside)."""
    low, high = 0.0 > x, 1.0 < x
    if np.count_nonzero(low) or np.count_nonzero(high):
        x = np.where(low, 0.0, np.where(high, 1.0, x))
    return x


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
        weight_v = clip01(np.where(bound_b, 0.0, weight_v))
        weight_w = clip01(np.where(bound_b, 1.0, weight_w))
        # n_v, n_w = -r_perp +- (Q/D) (1 - x, y), r_perp the part of r normal to r0 - r1.
        n_v = ((q * one_x - nu * y * y) / d2, y * (q + nu * one_x) / d2)
        n_w = (-(q * one_x + nu * y * y) / d2, y * (nu * one_x - q) / d2)
        live = 0.5 * (delta0 + delta1) > DEGENERACY_TOL
    n = len(nu)
    values = np.empty((n, 3))
    values[:, 0] = np.where(live, p_inc, 0.0)
    values[:, 1] = np.where(live, eta0 + delta0, eta0)
    values[:, 2] = np.where(live, eta1 + delta1, eta1)
    values = clip01(values)
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
    """:func:`~mcmag.discrim.threshold_inconclusive` of each row in plane
    coordinates, on :func:`plane_optimum`'s ``values`` and ``ops``: ``(c0, c1, p_inc, detectors)``,
    the capped confidences (NaN where a detector fires with probability <=
    ``ZERO_FIRE``), the inconclusive rate and the detectors ``(pi0, pi1)`` as
    ``(n, 2, 3)``.

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
        c0, c1 = clip01(hit / np.where(fire <= ZERO_FIRE, np.nan, fire)).T
    return (np.where(over, c0, c0_max), np.where(over, c1, c1_max),
            np.where(over, p_thresh, p_inc_opt), np.where(over[:, None, None], mixed, detectors))


def plane_conditional_error(nu: np.ndarray, mu: np.ndarray, eta0, ops: np.ndarray):
    """:func:`~mcmag.discrim.conditional_error` of each row in plane coordinates,
    for the detectors ``ops[:, 0]`` and ``ops[:, 1]`` (pi0, pi1): the wrong
    conclusive calls over all of them, NaN where those fire with probability
    <= 1e-12 (where the one-pair call raises)."""
    eta1 = 1.0 - eta0
    r1x, r1y = nu * mu.real, -nu * mu.imag
    rx, ry = eta0 * nu + eta1 * r1x, eta1 * r1y
    wrong = eta0 * _tr(ops[:, 1], nu, 0.0) + eta1 * _tr(ops[:, 0], r1x, r1y)
    conclusive = _tr(ops[:, 0], rx, ry) + _tr(ops[:, 1], rx, ry)
    with np.errstate(divide="ignore", invalid="ignore"):
        return clip01(wrong / np.where(conclusive <= 1e-12, np.nan, conclusive))


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

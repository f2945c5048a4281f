"""Exact maximum-confidence values of a state pair, capped or not, in decimal arithmetic.

A test reference that shares no code with ``mcmag``: stdlib ``decimal`` at
50 significant digits (or more), every step in the equatorial plane of the
Bloch ball, where both states lie.  With ``rho_j = (I + r_j.sigma)/2``,

    r0 = (nu, 0),  r1 = nu (Re mu, -Im mu),  r = eta0 r0 + eta1 r1,
    d = r0 - r1,   a = eta0 eta1.

* **Confidences.**  ``C_j = eta_j + delta_j``, where ``delta_j`` is the
  positive root of ``delta^2 (1 - |r|^2) +- 2 a delta (d.r) - a^2 |d|^2 = 0``
  (``+`` for j = 0): the largest ``c`` with ``det(eta_j rho_j - c rho) = 0``.
  It is taken in the form ``a |d|^2 / (q +- d.r)``, ``q^2 = (d.r)^2 +
  (1 - |r|^2)|d|^2``, which has no cancellation.
* **Detector directions.**  ``eta_j rho_j - C_j rho`` is
  ``(-delta_j I + beta_j.sigma)/2`` with ``|beta_j| = delta_j``, and its null
  direction is ``beta_j / delta_j``: ``n_v = (a d - delta_0 r)/delta_0`` for
  detector 0 and ``n_w = (-a d - delta_1 r)/delta_1`` for detector 1.
* **Inconclusive rate.**  With ``Pi_0 = A |v><v|`` and ``Pi_1 = B |w><w|``,
  ``Pi_? = I - Pi_0 - Pi_1`` is positive up to the boundary
  ``B = (1 - A)/(1 - A h)``, where ``g = |<v|w>|^2 = (1 + n_v.n_w)/2`` and
  ``h = 1 - g`` (taken as ``|n_v +- n_w|^2 / 4``).  Along it the conclusive
  rate ``A q_v + B q_w``, with ``q = (1 + r.n)/2``, is concave in ``A``, with
  its maximum at
  ``A* = (1 - sqrt(q_w g / q_v))/h``, where ``B* = (1 - sqrt(q_v g / q_w))/h``
  (the boundary written without its 0/0 at ``A = 1``).  Where ``B* <= 0``
  the optimum keeps detector 0 alone (``A = 1``, ``B = 0``); where
  ``A* <= 0``, detector 1 alone.
* **Degenerate pairs** (``d = 0``, identical states): the confidences are
  the priors, the inconclusive rate is 0, and the measurement is the
  solver's balanced one, ``|+><+|`` and ``|-><-|``.  With ``degenerate=True``
  any pair gets this convention, as the solver reports it for a pair whose
  detector state is within ``DEGENERACY_TOL`` of a scalar.
* **Minimum-error measurement.**  ``eta1 rho1 - eta0 rho0 = (e I + m.sigma)/2``
  with ``e = eta1 - eta0`` and ``m = eta1 r1 - eta0 r0`` has the eigenvalues
  ``(e +- |m|)/2``.  Detector 1 takes the strictly positive eigenspace: all
  of it (``I``) where ``e - |m| > 0``, none where ``e + |m| <= 0``, else
  ``(I + m.sigma/|m|)/2``; detector 0 takes the rest.
* **The cap.**  Where ``p_inc_opt`` exceeds the cap ``p``, each detector is
  ``(1 - mix) Pi_opt + mix Pi_minerr`` with ``mix = 1 - p/p_inc_opt``, so the
  inconclusive rate is ``p``; elsewhere the optimum and its confidences are
  kept.  The capped confidences are ``eta_j Tr(rho_j Pi_j)/Tr(rho Pi_j)``,
  and the conditional error is the wrong conclusive calls over all of them.
  A rate within ``1e-44`` of the cap is a tie, below the reference's own
  rounding; the caller says which side it takes.

The arguments are the floats of a pair.  ``|mu| > 1`` is scaled back to the
unit circle, as the solver's pair rule does with its rounding slack.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

#: Significant digits of the reference.
DIGITS = 50


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


#: The solver's measurement for identical states: ``|+><+|`` and ``|-><-|``.
BALANCED = ((Decimal(1), [Decimal(1), Decimal(0)]), (Decimal(1), [Decimal(-1), Decimal(0)]))


def _optimum(nu, mu, eta0, degenerate=False):
    """The pair in plane coordinates and its optimum, in the current context:
    ``(eta0, r0, r1, (c0, c1, p_inc), (pi0, pi1))``, each detector as
    ``(alpha, beta)`` for ``(alpha I + beta.sigma)/2``; with ``degenerate``
    the identical-states convention in place of the optimum."""
    mu = complex(mu)
    nu, eta0, x, y = (+Decimal(v) for v in (nu, eta0, mu.real, mu.imag))  # to the context
    size2 = x * x + y * y
    if size2 > 1:
        size = size2.sqrt()
        x, y = x / size, y / size
    eta1 = 1 - eta0
    r0, r1 = (nu, Decimal(0)), (nu * x, -nu * y)
    d = (r0[0] - r1[0], r0[1] - r1[1])
    r = (eta0 * r0[0] + eta1 * r1[0], eta0 * r0[1] + eta1 * r1[1])
    dd = _dot(d, d)
    if dd == 0 or degenerate:
        return eta0, r0, r1, (eta0, eta1, Decimal(0)), BALANCED
    a = eta0 * eta1
    dr = _dot(d, r)
    q = (dr * dr + (1 - _dot(r, r)) * dd).sqrt()
    delta0, delta1 = a * dd / (q + dr), a * dd / (q - dr)
    n_v = [(a * dk - delta0 * rk) / delta0 for dk, rk in zip(d, r)]
    n_w = [(-a * dk - delta1 * rk) / delta1 for dk, rk in zip(d, r)]
    q_v, q_w = (1 + _dot(r, n_v)) / 2, (1 + _dot(r, n_w)) / 2
    # g = (1 + n_v.n_w)/2 and h = 1 - g, for unit vectors, without cancellation.
    s, t = [v + w for v, w in zip(n_v, n_w)], [v - w for v, w in zip(n_v, n_w)]
    g, h = _dot(s, s) / 4, _dot(t, t) / 4
    weight_v = (1 - (g * q_w / q_v).sqrt()) / h
    weight_w = (1 - (g * q_v / q_w).sqrt()) / h
    if weight_w <= 0:  # detector 0 alone
        weight_v, weight_w = 1, 0
    elif weight_v <= 0:  # detector 1 alone
        weight_v, weight_w = 0, 1
    values = eta0 + delta0, eta1 + delta1, 1 - weight_v * q_v - weight_w * q_w
    detectors = ((weight_v, [weight_v * v for v in n_v]), (weight_w, [weight_w * w for w in n_w]))
    return eta0, r0, r1, values, detectors


def max_confidence(nu: float, mu: complex, eta0: float, digits: int = DIGITS,
                   degenerate: bool = False):
    """``(c0_max, c1_max, p_inc_opt)`` of the pair ``(nu, mu, eta0)``, as Decimals."""
    with localcontext() as ctx:
        ctx.prec = digits
        return _optimum(nu, mu, eta0, degenerate)[3]


def _min_error(eta0, r0, r1):
    """Detectors ``(pi0, pi1)`` of the minimum-error measurement: detector 1
    is the strictly positive eigenspace of ``eta1 rho1 - eta0 rho0 =
    (e I + m.sigma)/2``, eigenvalues ``(e +- |m|)/2``; a tie goes to detector 0."""
    eta1 = 1 - eta0
    e = eta1 - eta0
    m = [eta1 * u - eta0 * v for u, v in zip(r1, r0)]
    size = _dot(m, m).sqrt()
    if e - size > 0:  # both eigenvalues positive
        return (Decimal(0), [Decimal(0)] * 2), (Decimal(2), [Decimal(0)] * 2)
    if e + size <= 0:  # neither
        return (Decimal(2), [Decimal(0)] * 2), (Decimal(0), [Decimal(0)] * 2)
    unit = [v / size for v in m]
    return (Decimal(1), [-v for v in unit]), (Decimal(1), unit)


def _fire(r, detector):
    """``Tr(rho Pi)`` for ``rho = (I + r.sigma)/2`` and ``Pi = (alpha I + beta.sigma)/2``."""
    alpha, beta = detector
    return (alpha + _dot(r, beta)) / 2


def capped(nu: float, mu: complex, eta0: float, p_thresh: float, digits: int = DIGITS,
           tie_over: bool = False, degenerate: bool = False):
    """``(c0, c1, p_inc, cond_err)`` of the optimum capped at ``p_thresh``, as
    Decimals; a confidence is None where its detector never fires, and
    ``cond_err`` where no outcome is conclusive.  ``tie_over`` says whether a
    rate that ties with the cap counts as over it."""
    with localcontext() as ctx:
        ctx.prec = digits
        eta0, r0, r1, (c0, c1, p_inc), detectors = _optimum(nu, mu, eta0, degenerate)
        p = Decimal(p_thresh)
        gap = p_inc - p
        over = gap > 0 if abs(gap) > Decimal(10) ** (6 - digits) else tie_over  # 1e-44 at 50
        if over:
            mix = 1 - p / p_inc if p else Decimal(1)
            detectors = [
                ((1 - mix) * a + mix * b, [(1 - mix) * u + mix * v for u, v in zip(beta, gamma)])
                for (a, beta), (b, gamma) in zip(detectors, _min_error(eta0, r0, r1))
            ]
            p_inc = p
        priors = eta0, 1 - eta0
        r = [priors[0] * u + priors[1] * v for u, v in zip(r0, r1)]
        fires = [_fire(r, det) for det in detectors]
        hits = [prior * _fire(rj, det) for prior, rj, det in zip(priors, (r0, r1), detectors)]
        confidences = [hit / fire if fire else None for hit, fire in zip(hits, fires)]
        if not over:
            confidences = c0, c1
        conclusive = fires[0] + fires[1]
        wrong = priors[0] * _fire(r0, detectors[1]) + priors[1] * _fire(r1, detectors[0])
        return (*confidences, p_inc, wrong / conclusive if conclusive else None)

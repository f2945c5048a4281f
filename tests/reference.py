"""Exact maximum-confidence values of a state pair, in decimal arithmetic.

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
  the priors and the inconclusive rate is 0.

The arguments are the floats of a pair.  ``|mu| > 1`` is scaled back to the
unit circle, as the solver's pair rule does with its rounding slack.
"""

from __future__ import annotations

from decimal import Decimal, localcontext

#: Significant digits of the reference.
DIGITS = 50


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1]


def max_confidence(nu: float, mu: complex, eta0: float, digits: int = DIGITS):
    """``(c0_max, c1_max, p_inc_opt)`` of the pair ``(nu, mu, eta0)``, as Decimals."""
    mu = complex(mu)
    with localcontext() as ctx:
        ctx.prec = digits
        nu, eta0, x, y = (+Decimal(v) for v in (nu, eta0, mu.real, mu.imag))  # to `digits`
        size2 = x * x + y * y
        if size2 > 1:
            size = size2.sqrt()
            x, y = x / size, y / size
        eta1 = 1 - eta0
        r0, r1 = (nu, Decimal(0)), (nu * x, -nu * y)
        d = (r0[0] - r1[0], r0[1] - r1[1])
        r = (eta0 * r0[0] + eta1 * r1[0], eta0 * r0[1] + eta1 * r1[1])
        dd = _dot(d, d)
        if dd == 0:
            return eta0, eta1, Decimal(0)
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
        return eta0 + delta0, eta1 + delta1, 1 - weight_v * q_v - weight_w * q_w

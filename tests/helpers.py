"""Helpers shared by several test modules."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from mcmag import qmat
from mcmag.channel import StatePair, SwitchingFunction, build_state_pair
from mcmag.errors import DomainError

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_python(code, *args, cwd=None):
    """Run ``code`` in a fresh interpreter that imports the package from ``src/``;
    its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], capture_output=True, text=True, env=env, cwd=cwd
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


def transformed_detector_state(pair: StatePair) -> np.ndarray:
    """eta0 * rho^(-1/2) rho0 rho^(-1/2), the operator whose spectrum caps C0."""
    s = qmat.psd_pow(pair.rho, -0.5)
    return qmat.hermitize(pair.eta0 * (s @ pair.rho0 @ s))


def sign_at(switching: SwitchingFunction, t: float) -> int:
    """The sign of a switching function at time t; a flip at t counts."""
    if not 0.0 <= t <= switching.total_time:
        raise DomainError("t outside [0, T]")
    flips = sum(1 for ft in switching.flip_times if ft <= t)
    return 1 if flips % 2 == 0 else -1


#: Unit roundoff of a double: half an ulp of 1, the largest relative error of one rounding.
UNIT_ROUNDOFF = 2.0**-53


def optimality_certificate(nu, mu, eta0, values, ops):
    """Dual and complementary-slackness residuals of plane optimum rows, with
    the bound each one's own rounding allows.

    ``nu``, ``mu`` and ``eta0`` are the rows' factors (``eta0`` a float or an
    array), ``values`` and ``ops`` :func:`~mcmag.plane.plane_optimum`'s.  With
    ``r_j`` the Bloch vectors of the states and ``r`` that of ``rho``,
    ``c0_max`` is the least ``c`` with ``c rho - eta0 rho0 >= 0`` (Croke et al.,
    PRL 96, 070401 (2006)).  That operator is ``((c - eta0) I + v.sigma)/2``
    with ``v = c r - eta0 r0``, so at the optimum its smaller eigenvalue,
    ``dual = (c - eta0) - |v|``, is 0, and so is ``slack = Tr(Pi0 (c rho -
    eta0 rho0)) = ((c - eta0) alpha + v.beta)/2`` for ``Pi0 = (alpha, beta)``.
    ``c1_max`` mirrors both with ``eta1``, ``r1`` and ``Pi1``.  Neither uses
    the kernel's Q, R or deltas.

    Returns ``(dual, dual_bound, slack, slack_bound)`` for detector 0 and for
    detector 1.  Each bound is ``u`` (:data:`UNIT_ROUNDOFF`) times a count of
    roundings times the sum of the magnitudes of the terms they round:

    * evaluating ``dual`` rounds ``vx`` at most 6 deep (``eta1``, ``nu*x``,
      their product, ``rx``, ``c*rx``, the difference), ``vy`` 5 deep, then
      ``hypot``, ``c - eta`` (2 with ``eta1``) and the difference: at most
      ``8u`` of ``scale = c + eta + |vx|_terms + |vy|_terms``;
    * ``c`` itself may be 2 ulps (``4u c``) from the exact optimum, and
      ``dual`` moves at most 2 per unit of ``c``: ``8u c``;
    * evaluating ``slack`` adds a product per term and two sums to those
      depths, 9 in all, of ``sscale``, the same sum with each term times its
      operator entry; each operator entry may be 2 ulps from exact, ``4u`` of
      ``sscale`` in all; and ``slack`` moves by ``Tr(rho Pi) <= alpha`` per
      unit of ``c``: ``4u c alpha``.
    """
    u = UNIT_ROUNDOFF
    eta1 = 1.0 - eta0
    r1x, r1y = nu * mu.real, -(nu * mu.imag)
    rx, ry = eta0 * nu + eta1 * r1x, eta1 * r1y
    out = []
    for c, eta, sx, sy, op in ((values[:, 1], eta0, nu, 0.0, ops[:, 0]),
                               (values[:, 2], eta1, r1x, r1y, ops[:, 1])):
        vx, vy = c * rx - eta * sx, c * ry - eta * sy
        # The magnitudes of the terms each coordinate of v sums.
        avx = c * (abs(eta0 * nu) + abs(eta1 * r1x)) + eta * abs(sx)
        avy = c * abs(ry) + eta * abs(sy)
        alpha, beta_x, beta_y = op[:, 0], op[:, 1], op[:, 2]
        dual = (c - eta) - np.hypot(vx, vy)
        dual_bound = 8.0 * u * (c + eta + avx + avy) + 8.0 * u * c
        slack = 0.5 * ((c - eta) * alpha + vx * beta_x + vy * beta_y)
        sscale = 0.5 * ((c + eta) * abs(alpha) + avx * abs(beta_x) + avy * abs(beta_y))
        slack_bound = 13.0 * u * sscale + 4.0 * u * c * abs(alpha)
        out.append((dual, dual_bound, slack, slack_bound))
    return out

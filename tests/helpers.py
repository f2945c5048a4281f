"""Helpers shared by several test modules."""

import numpy as np

from mcmag import qmat
from mcmag.channel import StatePair, SwitchingFunction, build_state_pair
from mcmag.errors import DomainError


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

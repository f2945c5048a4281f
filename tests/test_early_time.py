"""Early-time rounding in ``rho^(-1/2)`` (ROADMAP item 3, 3a).

At early times of a balanced-prior static sweep ``nu`` is close to 1 and the
phase is small, and the solver's ``rho^(-1/2)`` amplifies rounding in the
inconclusive operator ``Pi_?`` both ways.  Below zero it failed the
positivity check (``PsdViolationError``); above zero it left a second
eigenvalue that the dilation's rank-one check refused (``DilationRankError``).
The solver now solves a row whose ``Pi_?`` has its small eigenvalue outside
+-1e-10, of either sign, again in plane coordinates; the tests below solve
and dilate each point.
"""

import dataclasses
from pathlib import Path

import numpy as np

from mcmag import channel, dilation, discrim, sweep
from mcmag.errors import DilationRankError, PsdViolationError

ROOT = Path(__file__).resolve().parent.parent

#: The early-time family: 3 x 3 x 5 x 60 = 2,700 static free-decay points.
T2_STAR_US = (0.4, 10.0, 1e3)
B0_UT = (0.1, 1.0, 50.0)
ETA0 = (0.05, 0.3, 0.5, 0.7, 0.95)
TIMES_US = np.logspace(-7, -1, 60)


def test_early_time_family_solves_and_dilates():
    failures = {}
    for t2_star in T2_STAR_US:
        for b0 in B0_UT:
            for eta0 in ETA0:
                cfg = sweep.SweepConfig(scenario="static_single", b0_uT=b0, T2_star_us=t2_star,
                                        p=2.0, grid_start=0.0, grid_stop=1.0, grid_points=2,
                                        eta0=eta0)
                for t in TIMES_US.tolist():
                    nu, mu = sweep.factors_at(cfg, t)
                    pair = channel.build_state_pair(max(nu, sweep.NU_FLOOR), mu, eta0)
                    try:
                        dilation.dilate_povm(discrim.solve_max_confidence(pair).povm)
                    except (PsdViolationError, DilationRankError) as exc:
                        failures.setdefault(type(exc).__name__, []).append((t2_star, b0, eta0, t))
    counts = {name: len(points) for name, points in failures.items()}
    assert not failures, f"{counts}; first failing points: " + str(
        {name: points[:3] for name, points in failures.items()})


def test_shipped_neumark_config_dilates_at_an_early_point():
    # The matrix path left Pi_? a second eigenvalue of +3.8e-10 at t = 1e-4.
    cfg = sweep.load_config(str(ROOT / "configs" / "neumark_static_single.cfg"))
    text = sweep.neumark_report(dataclasses.replace(cfg, point=1e-4))
    assert float(text.split("born_residual=")[1].splitlines()[0]) < 1e-12

"""The plane-coordinate kernel that solves the sweep, :mod:`mcmag.plane` (ROADMAP items 3 and 13).

Judged against :mod:`reference` on the rows, caps and bound of
``test_reference_accuracy`` and ``test_reference_capped``: an output is
accurate if it lies within ``1e-13 + 10*s`` of the exact value, ``s`` its
spread under 4-ulp moves of an input (and, capped, under the other side
of a tie with the cap).  A row the kernel calls ``degenerate`` is judged
against the convention it states (the priors, rate 0 and the balanced
measurement), computed exactly by the reference for that row.  The
kernel's degenerate rule, ``(delta_0 + delta_1)/2 <= DEGENERACY_TOL``,
must flag the rows the matrix solver's rule flags.
"""

import math
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from mcmag import channel, discrim, plane, sweep
from mcmag.plane import BRANCHES

import reference
from helpers import run_python
from test_reference_accuracy import pairs, moved
from test_reference_capped import caps

ROOT = Path(__file__).resolve().parent.parent
OPTIMUM = ("c0_max", "c1_max", "p_inc_opt")
CAPPED = ("c0", "c1", "p_inc", "cond_err")


def plane_columns(nu, mu, eta0, p_thresh=None):
    """The sweep's solver columns of pairs that passed the pair rule, as the
    plane kernel gives them: branch names and a dict of arrays, the capped
    ones (and the conditional error) only under a cap."""
    optimum, branch, ops = plane.plane_optimum(nu, mu, eta0)
    cols = dict(zip(("p_inc_opt", "c0_max", "c1_max"), optimum.T))
    if p_thresh is not None:
        *capped, detectors = plane.plane_capped(nu, mu, eta0, optimum, ops, p_thresh)
        cols.update(zip(("c0", "c1", "p_inc"), capped))
        cols["cond_err"] = plane.plane_conditional_error(nu, mu, eta0, detectors)
    return np.array(BRANCHES)[branch], cols


def plane_row(nu, mu, eta0, p_thresh):
    """:func:`plane_columns` of one pair: its branch and its outputs as floats
    (None for NaN)."""
    branch, cols = plane_columns(*channel.pair_factors([nu], [mu]), eta0, p_thresh)
    return str(branch[0]), {key: None if math.isnan(v[0]) else float(v[0])
                            for key, v in cols.items()}


def within(got, exact, nearby):
    """Whether ``got`` meets the bound of ``exact`` and its moved values ``nearby``."""
    if got is None or exact is None:
        return (got is None) == (exact is None) or None in nearby
    spread = max((abs(m - exact) for m in nearby if m is not None), default=Decimal(0))
    return abs(got - float(exact)) <= 1e-13 + 10.0 * float(spread)


@pytest.fixture(scope="module")
def judged():
    """Per row: its name, the kernel's branch, and per output whether it meets its bound."""
    out = []
    for (name, nu, mu, eta0), p in zip(pairs(), caps(), strict=True):
        branch, got = plane_row(nu, mu, eta0, p)
        degenerate = branch == "degenerate"
        exact = reference.max_confidence(nu, mu, eta0, degenerate=degenerate)
        nearby = [reference.max_confidence(*args, degenerate=degenerate)
                  for args in moved(nu, mu, eta0)]
        ok = {key: within(got[key], e, near) for key, e, near in zip(OPTIMUM, exact, zip(*nearby))}
        exact = reference.capped(nu, mu, eta0, p, degenerate=degenerate)
        nearby = [reference.capped(*args, p, degenerate=degenerate) for args in moved(nu, mu, eta0)]
        nearby.append(reference.capped(nu, mu, eta0, p, tie_over=True, degenerate=degenerate))
        ok.update((key, within(got[key], e, near))
                  for key, e, near in zip(CAPPED, exact, zip(*nearby)))
        out.append((name, branch, ok))
    assert len(out) == 512 + 400 + 400
    return out


@pytest.mark.parametrize("key", OPTIMUM + CAPPED)
def test_plane_kernel_is_within_the_conditioning_bound_of_exact(judged, key):
    outside = [(name, branch) for name, branch, ok in judged if not ok[key]]
    assert outside == []


def test_plane_kernel_reaches_every_branch(judged):
    assert {branch for _name, branch, _ok in judged} == set(BRANCHES)


def test_the_conditional_error_of_pure_states_is_conditioning_not_a_defect():
    # nu = 1 (no dephasing), t = 0.01, 0.02, 0.03: the ideal states are pure
    # and a conclusive call is never wrong, yet the cond_err cells read 1e-11.
    # Judged at the kernel's own nu and mu floats, they are within the bound.
    cfg = sweep.parse_config_text(
        "scenario = static_single\nb0_uT = 1\nT2_star_us = 1e12\np = 2\n"
        "grid_start = 0.01\ngrid_stop = 0.03\ngrid_points = 3\n"
    )
    values = sweep.grid_values(cfg)
    scenario = sweep.SCENARIOS[cfg.scenario]
    nu, mu = channel.pair_factors(scenario.nu(cfg, values), scenario.mu(cfg, values))
    rows = sweep.run_sweep(cfg)
    assert nu.tolist() == [1.0] * 3 and max(r.cond_err for r in rows) > 1e-11
    for k, row in enumerate(rows):
        args = float(nu[k]), complex(mu[k]), cfg.eta0
        exact = reference.capped(*args, 1.0)[3]  # a cap of 1 keeps the optimum
        nearby = [reference.capped(*moved_args, 1.0)[3] for moved_args in moved(*args)]
        assert within(row.cond_err, exact, nearby), values[k]


def test_plane_rule_flags_the_matrix_solvers_degenerate_rows_on_the_judged_rows():
    flagged = []
    for name, nu, mu, eta0 in pairs():
        plane, _got = plane_row(nu, mu, eta0, None)
        matrix = discrim.solve_max_confidence(channel.build_state_pair(nu, mu, eta0)).branch
        if (plane == "degenerate") != (matrix == "degenerate"):
            flagged.append((name, plane, matrix))
    assert flagged == []


def shipped_grids():
    """(name, nu, mu, eta0) of every shipped sweep config's grid, after the pair rule."""
    for path in sorted((ROOT / "configs").glob("*.cfg")):
        if path.stem.startswith(("neumark", "validate")):
            continue
        cfg = sweep.load_config(str(path))
        values = sweep.grid_values(cfg)
        scenario = sweep.SCENARIOS[cfg.scenario]
        nus = np.maximum(scenario.nu(cfg, values), sweep.NU_FLOOR)
        yield (path.stem, *channel.pair_factors(nus, scenario.mu(cfg, values)), cfg.eta0)


def test_plane_rule_flags_the_matrix_solvers_degenerate_rows_on_the_shipped_grids():
    rows = degenerate = 0
    for name, nu, mu, eta0 in shipped_grids():
        plane = plane_columns(nu, mu, eta0)[0] == "degenerate"
        matrix = [discrim.solve_max_confidence(channel.build_state_pair(nu[k], mu[k], eta0))
                  .branch == "degenerate" for k in range(len(nu))]
        assert np.flatnonzero(plane).tolist() == np.flatnonzero(matrix).tolist(), name
        rows += len(nu)
        degenerate += np.count_nonzero(plane)
    assert rows == 6300 and degenerate > 0


def test_the_helstrom_error_keeps_the_matrix_bits_on_the_shipped_grids():
    for name, nu, mu, eta0 in shipped_grids():
        matrix = []
        for k in range(len(nu)):
            pair = channel.build_state_pair(nu[k], mu[k], eta0)
            z = pair.eta1 * pair.rho1[0, 1] - pair.eta0 * pair.rho0[0, 1]
            d = abs(0.5 * (pair.eta1 - pair.eta0))
            matrix.append(0.5 - np.maximum(d, np.hypot(z.real, z.imag)))
        assert plane.helstrom_error(nu, mu, eta0).tobytes() == np.array(matrix).tobytes(), name


@pytest.mark.parametrize("eta0", [0.5, 0.2, 0.9, 1e-6, 1.0 - 1e-6])
def test_a_cap_of_zero_keeps_the_optimum_where_it_is_conclusive(eta0):
    # mu = 0 makes rho1 = I/2: the two detectors are orthogonal and the exact
    # optimum has no inconclusive outcome, so a cap of 0 leaves it alone.
    nu = np.random.default_rng(5).uniform(1e-6, 1.0, 300)
    nu[:3] = (1.0, 1e-300, 0.5)
    mu = np.zeros(len(nu), dtype=complex)
    optimum, _branch, ops = plane.plane_optimum(nu, mu, eta0)
    assert np.count_nonzero(optimum[:, 0]) == 0
    c0, c1, p_inc, detectors = plane.plane_capped(nu, mu, eta0, optimum, ops, 0.0)
    assert np.array((p_inc, c0, c1)).T.tobytes() == optimum.tobytes()
    assert detectors.tobytes() == ops[:, :2].tobytes()


def test_plane_operators_are_a_measurement_with_a_rank_one_inconclusive_outcome():
    rng = np.random.default_rng(11)
    for eta0 in (0.5, 0.3, 0.8, 1e-6, 1.0 - 1e-6):
        nu = rng.uniform(1e-6, 1.0, 500)
        nu[::5] = 1.0
        mu = np.sqrt(rng.uniform(0.0, 1.0, 500)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 500))
        mu[1::5] = np.exp(1j * 10.0 ** rng.uniform(-9, 0, 100))
        nu, mu = channel.pair_factors(nu, mu)
        _values, _branch, ops = plane.plane_optimum(nu, mu, eta0)
        assert np.max(np.abs(ops.sum(axis=1) - (2.0, 0.0, 0.0))) <= 1e-15
        lowest = 0.5 * (ops[..., 0] - np.hypot(ops[..., 1], ops[..., 2]))
        assert np.min(lowest) >= -1e-15 and np.max(np.abs(lowest[:, 2])) <= 1e-15


def test_the_sweep_builds_no_matrix():
    # Every solver column comes from the plane kernel: in a fresh interpreter
    # where the matrix solver and qmat cannot be imported and the state pairs
    # are broken, sweeps with and without a cap give the in-process bytes.
    paths = [str(ROOT / "configs" / f"{name}.cfg")
             for name in ("static_single_b20", "static_single_b20_thresh", "cpmg_single_sigma0p4")]
    code = (
        "import sys\n"
        "sys.modules['mcmag.qmat'] = sys.modules['mcmag.discrim'] = None\n"
        "from mcmag import channel, sweep\n"
        "def broken(*args, **kwargs):\n"
        "    raise AssertionError('the sweep reached matrix code')\n"
        "channel.StatePair = broken\n"
        "for path in sys.argv[1:]:\n"
        "    sys.stdout.write(sweep.rows_to_csv(sweep.run_sweep(sweep.load_config(path))))\n"
    )
    want = "".join(sweep.rows_to_csv(sweep.run_sweep(sweep.load_config(p))) for p in paths)
    assert run_python(code, *paths) == want

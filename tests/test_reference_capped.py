"""The one-pair capped measurement against :func:`reference.capped` (ROADMAP item 8).

The rows and the bound are those of ``test_reference_accuracy``: the
benchmark's seed-0 ``api_pointwise`` draws at their own cap, and the edge
pairs at seeds 0 and 1 at a seeded cap (one in ten exactly 0, one in ten
exactly 1).  An output is accurate if it lies within ``1e-13 + 10*s`` of the
exact value, where ``s`` is its spread under 4-ulp moves of ``nu``,
``Re mu``, ``Im mu`` or ``eta0``, and under the other side of a tie between
the optimum's inconclusive rate and the cap: at a cap of 0 the capped
measurement jumps from the optimum to the minimum-error one as soon as that
rate leaves 0.  A confidence or conditional error that is undefined (None)
is right where the exact one is undefined, or where a move makes it so.
"""

import importlib
import random
from decimal import Decimal

import numpy as np
import pytest

from mcmag import build_state_pair, discrim, min_error_probability, solve_max_confidence
from mcmag.errors import UndefinedConditionalError

import reference
from helpers import random_pair
from test_reference_accuracy import DEGENERATE_SLACK, ROOT, moved, pairs

KEYS = ("c0", "c1", "p_inc", "cond_err")


def caps():
    """One cap per row of :func:`pairs`, in its order."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))  # read-only: the benchmark's draws
        out = [d.p_thresh for d in importlib.import_module("inputs").pair_draws(0)]
    for seed in (0, 1):
        rng = random.Random(seed)
        for _ in range(400):
            u = rng.random()
            out.append(0.0 if u < 0.1 else 1.0 if u < 0.2 else rng.random())
    return out


def solver_capped(nu, mu, eta0, p_thresh):
    """``(c0, c1, p_inc, cond_err)`` of the package's capped measurement; None where undefined."""
    pair = build_state_pair(nu, mu, eta0)
    sol = solve_max_confidence(pair)
    capped = discrim.threshold_inconclusive(sol, pair, p_thresh)
    try:
        cond = discrim.conditional_error(capped.povm, pair)
    except UndefinedConditionalError:
        cond = None
    return sol.branch, (capped.c0, capped.c1, capped.p_inc, cond)


@pytest.fixture(scope="module")
def judged():
    """Per row: its name, and per output whether it meets its bound."""
    out = []
    for (name, nu, mu, eta0), p in zip(pairs(), caps(), strict=True):
        branch, got = solver_capped(nu, mu, eta0, p)
        exact = reference.capped(nu, mu, eta0, p)
        nearby = [reference.capped(*args, p) for args in moved(nu, mu, eta0)]
        nearby.append(reference.capped(nu, mu, eta0, p, tie_over=True))
        ok = {}
        for key, g, e, near in zip(KEYS, got, exact, zip(*nearby)):
            if g is None or e is None:
                ok[key] = (g is None) == (e is None) or None in near
                continue
            spread = max((abs(m - e) for m in near if m is not None), default=Decimal(0))
            bound = 1e-13 + 10.0 * float(spread)
            if branch == "degenerate" and key in ("c0", "c1"):
                bound += DEGENERATE_SLACK
            ok[key] = abs(g - float(e)) <= bound
        out.append((name, branch, ok))
    assert len(out) == 512 + 400 + 400
    return out


def unstable(reason):
    return pytest.mark.xfail(
        strict=True, reason=f"ROADMAP item 3b, one-pair half, then item 14: {reason}")


@pytest.mark.parametrize("key", [
    pytest.param("c0", marks=unstable(
        "under the cap c0 is c0_max, off by up to 4.1e-13 at nu = 1 with eta0 near 1 "
        "(5 rows)")),
    "c1",
    pytest.param("p_inc", marks=unstable(
        "under the cap p_inc is p_inc_opt: 0 on degenerate rows where the exact rate is "
        "up to 1e-7, and off by up to 9.0e-11 elsewhere, at eta0 near 1")),
    pytest.param("cond_err", marks=unstable(
        "follows p_inc_opt: off by up to 0.5 on degenerate rows at a cap of 0, and by up "
        "to 1.8e-11 at eta0 near 1")),
])
def test_capped_measurement_is_within_the_conditioning_bound_of_exact(judged, key):
    outside = [(name, branch) for name, branch, ok in judged if not ok[key]]
    assert outside == []


# --- checks of the reference itself -----------------------------------------------


def test_capped_reference_agrees_with_itself_at_twice_the_digits():
    for (_name, nu, mu, eta0), p in zip(pairs(), caps(), strict=True):
        ours = reference.capped(nu, mu, eta0, p)
        finer = reference.capped(nu, mu, eta0, p, 2 * reference.DIGITS)
        for a, b in zip(ours, finer):
            assert (a is None) == (b is None) and (a is None or abs(a - b) < Decimal("1e-40"))


def test_a_cap_of_one_keeps_the_optimum():
    for _name, nu, mu, eta0 in pairs()[::7]:
        c0, c1, p_inc, _cond = reference.capped(nu, mu, eta0, 1.0)
        assert (c0, c1, p_inc) == reference.max_confidence(nu, mu, eta0)


@pytest.mark.parametrize("seed", range(8))
def test_a_cap_of_zero_gives_the_helstrom_error(seed):
    # At cap 0 every conclusive call is the minimum-error measurement's, so the
    # conditional error is the Helstrom bound.
    pair = random_pair(np.random.default_rng(seed))
    _c0, _c1, p_inc, cond = reference.capped(pair.nu, pair.mu, pair.eta0, 0.0)
    assert p_inc == 0 and abs(float(cond) - min_error_probability(pair)) <= 1e-13

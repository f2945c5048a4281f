"""The one-pair API under seeded edge draws (the API half of ROADMAP item 9),
the entry checks of ``threshold_inconclusive`` and the dilation, and a smoke
run of the byte-dump harness ``tests/one_pair_dump.py``.

Every public one-pair call either returns a value in its documented range or
raises a DomainError that names the argument; no draw is filtered out.
"""

import math
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import one_pair_dump
from mcmag import channel, dilation, discrim, plane
from mcmag.errors import DomainError, UndefinedConditionalError

ROOT = Path(__file__).resolve().parent.parent
TOL = 1e-9


@pytest.fixture(scope="module")
def solved():
    pair = channel.build_state_pair(0.6, 0.3 + 0.4j, 0.45)
    return pair, discrim.solve_max_confidence(pair)


@pytest.mark.parametrize("cap", [True, np.array([0.1, 0.2]), "0.5", None, 0.5 + 0j,
                                 np.complex128(0.5), np.array(True)],
                         ids=["bool", "array", "str", "None", "complex", "np-complex", "0-d-bool"])
def test_threshold_refuses_a_cap_that_is_not_one_real_number(solved, cap):
    # True capped at 1.0, an array raised numpy's "truth value is ambiguous"
    # ValueError, and a string, None or a complex raised a bare TypeError.
    pair, sol = solved
    with pytest.raises(DomainError, match="^p_thresh must be"):
        discrim.threshold_inconclusive(sol, pair, cap)


@pytest.mark.parametrize("cap", [0.25, np.float64(0.25), np.array(0.25), np.float32(0.25)])
def test_threshold_takes_a_real_scalar_cap_of_any_kind(solved, cap):
    pair, sol = solved
    want = discrim.threshold_inconclusive(sol, pair, 0.25)
    got = discrim.threshold_inconclusive(sol, pair, cap)
    assert got.povm.ops.tobytes() == want.povm.ops.tobytes()
    assert (got.c0, got.c1, got.p_inc, got.mix) == (want.c0, want.c1, want.p_inc, want.mix)


def test_born_residual_refuses_a_missing_dilation(solved):
    # An AttributeError on e_vectors before.
    pair, sol = solved
    with pytest.raises(DomainError, match="^expected a Dilation, got NoneType"):
        dilation.born_residual(None, sol.povm, pair.states)


@pytest.mark.parametrize("states", [np.eye(3), np.ones(4), np.zeros((2, 2, 3))])
def test_born_residual_refuses_states_of_another_shape(solved, states):
    # numpy's reshape ValueError before.
    pair, sol = solved
    dil = dilation.dilate_povm(sol.povm)
    with pytest.raises(DomainError, match=r"^states must have shape \(\.\.\., 2, 2\)"):
        dilation.born_residual(dil, sol.povm, states)


@pytest.mark.parametrize("u", ["abc", [[1, "x", 0]] * 3, object()])
def test_decompose_two_level_refuses_what_is_not_a_complex_matrix(u):
    # A ValueError (or TypeError) from complex() before.
    with pytest.raises(DomainError, match="^u must be a 3x3 complex matrix"):
        dilation.decompose_two_level(u)


# --- the fuzz ------------------------------------------------------------------

#: Edge values per factor, in and out of the domain.
NU = (0.5, 1e-300, 1e-9, 1.0, 1.0 + 5e-13, 0.0, -0.1, 1.5, math.nan, math.inf)
MU_SIZE = (0.7, 1.0, 1e-12, 0.0, 1.0 + 5e-13, 1.5, math.nan)
ETA0 = (0.5, 1e-6, 1.0 - 1e-6, 0.3, 0.0, 1.0, math.nan, -0.2)
CAP = (0.3, 0.0, 1.0, -0.1, 1.5, math.nan)
#: How a factor is passed: a Python number, a numpy scalar, a 0-d array.
FORMS = (lambda x: x, np.float64, np.array)
N_DRAWS = 300


def fuzz_draws(seed=0):
    """Seeded ``(nu, mu, eta0, cap)`` with each factor in one of ``FORMS``."""
    rng = np.random.default_rng(zlib.crc32(b"one-pair fuzz") + seed)
    out = []
    for _ in range(N_DRAWS):
        nu, size, eta0, cap = (float(rng.choice(v)) for v in (NU, MU_SIZE, ETA0, CAP))
        angle = rng.uniform(-math.pi, math.pi)
        mu = complex(size * math.cos(angle), size * math.sin(angle)) if size == size else (
            complex(math.nan, 0.0))
        form = [FORMS[i] for i in rng.integers(0, len(FORMS), 4)]
        out.append((form[0](nu), (np.complex128 if form[1] is np.float64 else form[1])(mu),
                    form[2](eta0), form[3](cap)))
    return out


def refused(call, name):
    """Run ``call``; None if it returns, else the DomainError, which must name ``name``."""
    try:
        return call(), None
    except DomainError as exc:
        assert name in str(exc), (name, str(exc))
        return None, exc


def in_unit(*xs):
    return all(x is None or 0.0 <= x <= 1.0 for x in xs)


def check_draw(nu, mu, eta0, cap):
    """Every public one-pair call on one draw: a value in range or a named refusal."""
    pair, err = None, None
    try:
        pair = channel.build_state_pair(nu, mu, eta0)
    except DomainError as exc:
        err = str(exc)
    if pair is None:
        assert err.startswith(("nu must", "|mu| must", "eta0 must")), err
        bad = {"nu": not 0 < float(nu) <= 1 + 1e-12, "mu": not abs(complex(mu)) <= 1 + 1e-12,
               "eta0": not 0 < float(eta0) < 1}
        assert bad[err.split()[0].strip("|")], err
        return
    sol = discrim.solve_max_confidence(pair)
    assert sol.branch in plane.BRANCHES and in_unit(sol.c0_max, sol.c1_max, sol.p_inc_opt)
    assert 0.0 <= discrim.min_error_probability(pair) <= 0.5
    me = discrim.min_error_projectors(pair)
    for povm in (sol.povm, me):
        assert in_unit(*discrim.achieved_confidences(povm, pair))
        try:
            assert in_unit(discrim.conditional_error(povm, pair))
        except UndefinedConditionalError:
            pass
    capped, exc = refused(lambda: discrim.threshold_inconclusive(sol, pair, cap), "p_thresh")
    if exc is not None:
        assert not 0.0 <= float(cap) <= 1.0
    else:
        assert in_unit(capped.c0, capped.c1, capped.mix)
        assert capped.p_inc <= max(float(cap), sol.p_inc_opt) + TOL
    dil = dilation.dilate_povm(sol.povm)
    assert dilation.unitarity_residual(dil.u) <= TOL
    factors = dilation.decompose_two_level(dil.u)
    assert len(factors) <= 3
    assert 0.0 <= dilation.born_residual(dil, sol.povm, pair.states) <= TOL


def test_every_one_pair_call_returns_in_range_or_refuses_by_name():
    draws = fuzz_draws()
    built = 0
    for draw in draws:
        check_draw(*draw)
        try:
            channel.build_state_pair(*draw[:3])
            built += 1
        except DomainError:
            pass
    # The mix covers both sides of the domain.
    assert 0 < built < len(draws)


def test_the_dump_harness_gives_the_same_bytes_twice(tmp_path):
    out = tmp_path / "dump.bin"
    env = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
    subprocess.run([sys.executable, str(ROOT / "tests" / "one_pair_dump.py"), str(out),
                    "--limit", "6"], check=True, env=env)
    data = one_pair_dump.dump_bytes(6)
    assert out.read_bytes() == data
    assert data.count(b" solve_max_confidence ") == 5 * 6

"""A StatePair is made from its factors, and Hermiticity is checked where an
outside matrix enters: the dilation of a user's measurement."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from mcmag import dilation, discrim, qmat, sweep
from mcmag.channel import StatePair, build_state_pair, pair_factors
from mcmag.discrim import Povm
from mcmag.errors import DomainError, HermiticityError

from test_exact_rewrites import edge_pairs

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def hexes(*values):
    """``float.hex`` of every real and imaginary part of ``values``."""
    parts = (np.asarray(v, dtype=complex).reshape(-1).view(float).tolist() for v in values)
    return [x.hex() for part in parts for x in part]


def pair_hexes(pair):
    """Every float of a pair as ``float.hex``."""
    return hexes(pair.eta0, pair.nu, pair.mu, pair.rho0, pair.rho1, pair.rho)


def solution(pair):
    sol = discrim.solve_max_confidence(pair)
    ops = sol.povm.ops
    return sol.branch, hexes(sol.c0_max, sol.c1_max, sol.p_inc_opt, ops)


def test_replace_derives_the_matrices_from_the_new_factors():
    # replace(pair, nu=0.1) kept the matrices of nu = 0.8 and solved to
    # c0_max 0.68601, where build_state_pair(0.1, 0.5j, 0.5) gives 0.52707.
    pair = build_state_pair(0.8, 0.5j, 0.5)
    for changes in ({"nu": 0.1}, {"mu": -0.3 + 0.2j}, {"eta0": 0.3}):
        changed = dataclasses.replace(pair, **changes)
        want = build_state_pair(**{"nu": 0.8, "mu": 0.5j, "eta0": 0.5, **changes})
        assert pair_hexes(changed) == pair_hexes(want)
        assert solution(changed) == solution(want)
    assert discrim.solve_max_confidence(dataclasses.replace(pair, nu=0.1)).c0_max == (
        pytest.approx(0.52707, abs=1e-5)
    )


@pytest.mark.parametrize("seed", [0, 1])
def test_the_constructor_is_bitwise_both_builders_at_the_edges(seed):
    pairs = edge_pairs(seed)
    nu, mu = pair_factors([p.nu for p in pairs], [p.mu for p in pairs])
    for k, built in enumerate(pairs):
        made = StatePair(built.nu, built.mu, built.eta0)
        assert isinstance(made.nu, float) and isinstance(made.mu, complex)
        assert pair_hexes(made) == pair_hexes(built), k
        assert hexes(nu[k], mu[k]) == hexes(made.nu, made.mu), k


@pytest.mark.parametrize(
    "nu, mu",
    [(1.0 + 1e-13, 0.5), (1.0, 1.0 + 1e-13), (0.7, (1.0 + 1e-13) * np.exp(0.3j)), (1e-300, 0.0),
     (np.float64(0.8), np.array(0.5j)), (np.array(1.0 + 1e-13), np.complex128(0.6 - 0.8j))],
)
def test_the_pair_rule_clamps_alike_in_both_forms(nu, mu):
    made = StatePair(nu, mu, 0.4)
    assert made.nu <= 1.0 and abs(made.mu) <= 1.0
    # One pair is plain Python numbers, the clamped row of the stack rule, and
    # states a (2, 2, 2) view whose hypotheses are views of it in turn.
    assert type(made.nu) is float and type(made.mu) is complex
    assert made.states.shape == (2, 2, 2) and made.states.base is not None
    assert all(np.shares_memory(rho, made.states) for rho in (made.rho0, made.rho1))
    assert pair_hexes(made) == pair_hexes(build_state_pair(nu, mu, 0.4))
    assert hexes(*pair_factors([nu], [mu])) == hexes(made.nu, made.mu)


def test_the_named_operators_are_views_of_one_array():
    pair = build_state_pair(0.8, 0.5j, 0.3)
    assert all(np.shares_memory(rho, pair.states) for rho in (pair.rho0, pair.rho1))
    povm = discrim.solve_max_confidence(pair).povm
    assert all(np.shares_memory(op, povm.ops) for op in (povm.pi0, povm.pi1, povm.pi_inc))


def test_a_matrix_cannot_be_handed_in():
    # A pair whose rho was not the mixture solved to c0_max 0.90000 instead
    # of 0.68601, and a non-Hermitian rho0 was silently hermitized.
    pair = build_state_pair(0.8, 0.5j, 0.5)
    with pytest.raises(TypeError, match="rho0"):
        StatePair(0.8, 0.5j, 0.5, rho0=pair.rho0)
    with pytest.raises(ValueError, match="init=False"):
        dataclasses.replace(pair, states=pair.states)
    with pytest.raises(TypeError, match="rho0"):
        dataclasses.replace(pair, rho0=pair.rho0)


@pytest.mark.parametrize(
    "changes, message",
    [({"nu": 0.0}, "nu must be in"), ({"nu": 1.5}, "nu must be in"),
     ({"mu": 1.5}, r"\|mu\| must be"), ({"eta0": 1.0}, "eta0 must be in"),
     ({"nu": np.array([0.5, np.nan])}, r"one pair: .* got shapes \(2,\) and \(\)$"),
     ({"mu": [0.1, 0.2]}, r"one pair: .* got shapes \(\) and \(2,\)$")],
)
def test_replace_runs_the_pair_rule(changes, message):
    with pytest.raises(DomainError, match=message):
        dataclasses.replace(build_state_pair(0.8, 0.5j, 0.5), **changes)


def test_dilation_rejects_a_non_hermitian_measurement():
    # The operators sum to the identity, but pi0 and pi1 are not Hermitian.
    povm = Povm(np.array(([[1.0, 0.5], [0.0, 0.0]],
                          [[0.0, -0.5], [0.0, 1.0]],
                          np.zeros((2, 2))), dtype=complex))
    with pytest.raises(HermiticityError):
        dilation.dilate_povm(povm)


@pytest.fixture
def hermiticity_checks(monkeypatch):
    """A list that grows by one entry per ``qmat.require_hermitian`` call."""
    calls = []
    check = qmat.require_hermitian

    def counting(m):
        calls.append(np.shape(m))
        return check(m)

    monkeypatch.setattr(qmat, "require_hermitian", counting)
    return calls


def test_hermiticity_is_checked_only_where_the_dilation_takes_its_operators(hermiticity_checks):
    # One solve, Helstrom error, cap and conditional error made 5 checks on
    # matrices the package had just built, and a capped sweep made 5 more.
    pair = build_state_pair(0.8, np.exp(-1j * np.pi / 4), 0.4)
    sol = discrim.solve_max_confidence(pair)
    discrim.min_error_probability(pair)
    capped = discrim.threshold_inconclusive(sol, pair, 0.3 * sol.p_inc_opt)
    assert capped.mix > 0.0
    discrim.conditional_error(capped.povm, pair)
    rows = sweep.run_sweep(sweep.load_config(str(CONFIG_DIR / "static_single_b50_thresh.cfg")))
    assert any(row.p_inc_thresh is not None for row in rows)
    assert hermiticity_checks == []
    dilation.dilate_povm(sol.povm)
    assert hermiticity_checks == [(3, 2, 2)]

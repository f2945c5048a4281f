import math

import numpy as np
import pytest

from mcmag import build_state_pair, decompose_two_level, dilate_povm
from mcmag.dilation import born_residual, measurement_vector
from mcmag.discrim import Povm, solve_max_confidence
from mcmag.errors import DilationRankError, DomainError, HermiticityError

from helpers import random_pair

I2 = np.eye(2, dtype=complex)
PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0], dtype=complex) / np.sqrt(2.0)


def projective_povm():
    return Povm(np.array((
        np.outer(PLUS, PLUS.conj()),
        np.outer(MINUS, MINUS.conj()),
        np.zeros((2, 2), dtype=complex),
    )))


def unitarity_dev(u):
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def test_projective_triple_needs_no_ancilla():
    dil = dilate_povm(projective_povm())
    assert abs(dil.c0) <= 1e-14
    assert abs(dil.c1) <= 1e-14
    assert abs(dil.c2 - 1.0) <= 1e-14
    # balanced mixing block on the computational levels, ancilla untouched
    want = np.array(
        [
            [1.0, 1.0, 0.0],
            [1.0, -1.0, 0.0],
            [0.0, 0.0, math.sqrt(2.0)],
        ]
    ) / math.sqrt(2.0)
    assert np.max(np.abs(dil.u - want)) <= 1e-14
    assert len(decompose_two_level(dil.u)) == 1


def test_interior_solution_dilates_unitarily():
    pair = build_state_pair(0.8, np.exp(-1j * np.pi / 4), 0.5)
    sol = solve_max_confidence(pair)
    dil = dilate_povm(sol.povm)
    assert unitarity_dev(dil.u) <= 1e-12
    assert born_residual(dil, sol.povm, (pair.rho0, pair.rho1)) <= 1e-12


def test_ancilla_coefficients_match_closed_form():
    # When the first conclusive operator leaves ancilla weight, the
    # kernel completion reproduces c0 = sqrt(1 - <p0|p0>) and
    # c_k = -<p0|p_k>/c0.
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 200:
        pair = random_pair(rng)
        sol = solve_max_confidence(pair)
        if sol.branch != "interior" or np.trace(sol.povm.pi0).real > 1.0 - 1e-6:
            continue
        dil = dilate_povm(sol.povm)
        p0, p1, pq = dil.e_vectors[:, :2]
        c0 = math.sqrt(1.0 - np.vdot(p0, p0).real)
        assert abs(dil.c0 - c0) <= 1e-10
        assert abs(dil.c1 - (-np.vdot(p0, p1) / c0)) <= 1e-9
        assert abs(dil.c2 - (-np.vdot(p0, pq) / c0)) <= 1e-9
        assert dil.c0.imag == 0.0 and dil.c0.real >= 0.0
        checked += 1


def test_rows_are_orthonormal_extended_vectors():
    rng = np.random.default_rng(11)
    for _ in range(200):
        pair = random_pair(rng)
        sol = solve_max_confidence(pair)
        dil = dilate_povm(sol.povm)
        gram = dil.e_vectors.conj() @ dil.e_vectors.T
        assert np.max(np.abs(gram - np.eye(3))) <= 1e-12
        # rows of U are the bras of the extended vectors, bit for bit
        assert dil.u.tobytes() == np.conj(dil.e_vectors).tobytes()


def test_born_rule_and_probability_conservation():
    rng = np.random.default_rng(5)
    for _ in range(500):
        pair = random_pair(rng)
        sol = solve_max_confidence(pair)
        dil = dilate_povm(sol.povm)
        assert born_residual(dil, sol.povm, (pair.rho0, pair.rho1)) <= 1e-12
        for rho in (pair.rho0, pair.rho1):
            ext = np.zeros((3, 3), dtype=complex)
            ext[:2, :2] = rho
            total = sum(
                np.vdot(dil.e_vectors[k], ext @ dil.e_vectors[k]).real
                for k in range(3)
            )
            assert abs(total - 1.0) <= 1e-12


def test_dilate_deterministic():
    pair = build_state_pair(0.83, 0.2 - 0.6j, 0.35)
    sol = solve_max_confidence(pair)
    a = dilate_povm(sol.povm)
    b = dilate_povm(solve_max_confidence(pair).povm)
    assert a.u.tobytes() == b.u.tobytes()
    # the same triple from nested lists dilates exactly like the array
    c = dilate_povm(Povm(sol.povm.ops.tolist()))
    assert c.e_vectors.tobytes() == a.e_vectors.tobytes()


def test_rank_two_operator_rejected():
    rank2 = Povm(np.array((
        0.25 * I2,
        0.25 * I2,
        0.5 * I2,
    )))
    with pytest.raises(DilationRankError):
        dilate_povm(rank2)
    with pytest.raises(DilationRankError):
        measurement_vector(np.array([0.5 * I2]))


def test_hermiticity_is_checked_before_rank():
    # The whole measurement is checked for Hermiticity before any operator's
    # rank, so a rank-two operator ahead of a non-Hermitian one does not
    # decide the exception.
    skew = np.array([[0.5, 0.25], [0.0, 0.0]])
    ops = Povm(np.array((0.5 * I2, skew, 0.5 * I2 - skew)))
    with pytest.raises(HermiticityError):
        dilate_povm(ops)


def test_incomplete_triple_rejected():
    bad = Povm(np.array((
        np.outer(PLUS, PLUS.conj()),
        np.zeros((2, 2), dtype=complex),
        np.zeros((2, 2), dtype=complex),
    )))
    with pytest.raises(DomainError):
        dilate_povm(bad)


def test_boundary_branch_zero_weight_row():
    # A dropped detector leaves a zero measurement vector; its extended
    # vector must be the pure ancilla direction with unit coefficient.
    rng = np.random.default_rng(21)
    found = False
    for _ in range(2000):
        pair = random_pair(rng)
        sol = solve_max_confidence(pair)
        if sol.branch == "boundary_a":
            dil = dilate_povm(sol.povm)
            assert np.allclose(dil.e_vectors[1, :2], 0.0)
            assert abs(abs(dil.c1) - 1.0) <= 1e-12
            assert dil.c1.imag == pytest.approx(0.0, abs=1e-12)
            assert dil.c1.real >= 0.0
            assert unitarity_dev(dil.u) <= 1e-12
            found = True
            break
    assert found


def test_decompose_identity_and_blocks():
    assert decompose_two_level(np.eye(3)) == []
    had = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)
    block = np.eye(3, dtype=complex)
    block[:2, :2] = had
    factors = decompose_two_level(block)
    assert len(factors) == 1
    assert np.max(np.abs(factors[0] - block)) <= 1e-14
    with pytest.raises(DomainError):
        decompose_two_level(np.ones((3, 3)))


def test_decompose_reconstructs_solver_unitaries():
    rng = np.random.default_rng(100)
    for _ in range(300):
        pair = random_pair(rng)
        sol = solve_max_confidence(pair)
        u = dilate_povm(sol.povm).u
        factors = decompose_two_level(u)
        assert len(factors) <= 3
        prod = np.eye(3, dtype=complex)
        for f in factors:
            prod = prod @ f
            # each factor leaves one level untouched
            moved = [
                lvl
                for lvl in range(3)
                if np.max(np.abs(f[lvl] - np.eye(3)[lvl])) > 1e-12
                or np.max(np.abs(f[:, lvl] - np.eye(3)[:, lvl])) > 1e-12
            ]
            assert len(moved) <= 2
        assert np.max(np.abs(prod - u)) <= 1e-10


def test_decompose_rejects_nan():
    # max|U^H U - I| is NaN here; a NaN-blind "> tol" check let it through as the identity.
    with pytest.raises(DomainError):
        decompose_two_level(np.full((3, 3), np.nan, dtype=complex))


@pytest.mark.parametrize("which", ["all", "pi0"])
def test_dilate_rejects_nan_measurement(which):
    sol = solve_max_confidence(build_state_pair(0.8, 0.3 + 0.4j, 0.4))
    nan = np.full((2, 2), np.nan, dtype=complex)
    ops = [nan, nan, nan] if which == "all" else [nan, sol.povm.pi1, sol.povm.pi_inc]
    with pytest.raises(DomainError, match="identity"):
        dilate_povm(Povm(np.array(ops)))


def test_born_residual_propagates_nan():
    pair = build_state_pair(0.8, 0.3 + 0.4j, 0.4)
    sol = solve_max_confidence(pair)
    dil = dilate_povm(sol.povm)
    assert math.isnan(born_residual(dil, sol.povm, (pair.rho0 * np.nan,)))
    assert math.isnan(born_residual(dil, sol.povm, (pair.rho0, pair.rho1 * np.nan)))
    assert born_residual(dil, sol.povm, ()) == 0.0

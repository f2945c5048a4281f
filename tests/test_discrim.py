import math

import numpy as np
import pytest

from mcmag import build_state_pair, channel, qmat
from mcmag import discrim
from mcmag.discrim import (
    achieved_confidences,
    conditional_error,
    grid_search_povm,
    min_error_probability,
    min_error_projectors,
    random_pair,
    solve_max_confidence,
    threshold_inconclusive,
    transformed_detector_state,
)
from mcmag.errors import DomainError, UndefinedConditionalError

I2 = np.eye(2, dtype=complex)
PLUS = np.array([1.0, 1.0]) / np.sqrt(2.0)
MINUS = np.array([1.0, -1.0]) / np.sqrt(2.0)


def povm_checks(povm, tol=1e-12):
    total = povm.pi0 + povm.pi1 + povm.pi_inc
    assert np.max(np.abs(total - I2)) <= tol
    for op in povm.operators():
        assert np.min(np.linalg.eigvalsh(op)) >= -1e-12


def test_orthogonal_pure_states():
    for eta0 in (0.5, 0.3):
        sol = solve_max_confidence(build_state_pair(1.0, -1.0, eta0))
        assert abs(sol.c0_max - 1.0) <= 1e-12
        assert abs(sol.c1_max - 1.0) <= 1e-12
        assert abs(sol.p_inc_opt) <= 1e-12
    sol = solve_max_confidence(build_state_pair(1.0, -1.0, 0.5))
    assert np.max(np.abs(sol.povm.pi0 - np.outer(PLUS, PLUS))) <= 1e-12
    assert np.max(np.abs(sol.povm.pi1 - np.outer(MINUS, MINUS))) <= 1e-12


def test_identical_states_fall_back_to_priors():
    for nu, mu in ((1e-14, 0.3 + 0.1j), (0.7, 1.0), (1.0, 1.0)):
        pair = build_state_pair(max(nu, 1e-300), mu, 0.3)
        sol = solve_max_confidence(pair)
        assert sol.branch == "degenerate"
        assert sol.c0_max == pytest.approx(0.3, abs=1e-12)
        assert sol.c1_max == pytest.approx(0.7, abs=1e-12)
        assert sol.p_inc_opt == 0.0


def test_vanishing_coherence_limits():
    # tiny but not formally degenerate coherence: confidences within 1e-9
    sol = solve_max_confidence(build_state_pair(1e-10, 1j, 0.4))
    assert sol.c0_max == pytest.approx(0.4, abs=1e-9)
    assert sol.c1_max == pytest.approx(0.6, abs=1e-9)
    assert sol.p_inc_opt <= 1e-9


def test_transformed_state_weight_is_eta0():
    # The transformed operator must carry the prior of the state being
    # detected: its top eigenvalue is the best achievable C0, which the
    # definition-only grid search confirms.  The opposite weighting is
    # inconsistent with the search for asymmetric priors.
    rng = np.random.default_rng(2024)
    for _ in range(5):
        pair = random_pair(rng, nu_range=(0.3, 0.9), eta_range=(0.15, 0.35))
        d0 = transformed_detector_state(pair)
        c0_weighted = qmat.herm_eig2(d0).eigvals[1]
        oracle = grid_search_povm(pair, grid_density=128, refine=3)
        assert abs(c0_weighted - oracle.c0) <= 2e-3
        # the misweighted variant scales the spectrum by eta1/eta0
        wrong = (pair.eta1 / pair.eta0) * c0_weighted
        assert abs(wrong - oracle.c0) > 5e-2


def test_interior_case_matches_grid_search():
    pair = build_state_pair(0.8, np.exp(-1j * np.pi / 4), 0.5)
    sol = solve_max_confidence(pair)
    oracle = grid_search_povm(pair, grid_density=256)
    assert sol.branch == "interior"
    assert abs(sol.c0_max - oracle.c0) <= 2e-3
    assert abs(sol.c1_max - oracle.c1) <= 2e-3
    assert sol.p_inc_opt <= oracle.p_inc + 2e-3
    povm_checks(sol.povm)


def test_branch_assignment_matches_search():
    # Boundary cases drop one detector; the kept detector and the
    # inconclusive rate must agree with the definition-only search.
    rng = np.random.default_rng(77)
    seen = set()
    for _ in range(400):
        pair = random_pair(rng)
        sol = solve_max_confidence(pair)
        if sol.branch not in ("boundary_a", "boundary_b") or sol.branch in seen:
            continue
        seen.add(sol.branch)
        oracle = grid_search_povm(pair, grid_density=256)
        assert abs(sol.c0_max - oracle.c0) <= 2e-3
        assert abs(sol.c1_max - oracle.c1) <= 2e-3
        assert sol.p_inc_opt <= oracle.p_inc + 2e-3
        if sol.branch == "boundary_a":
            assert sol.povm.a == 1.0 and sol.povm.b == 0.0
        else:
            assert sol.povm.a == 0.0 and sol.povm.b == 1.0
        if len(seen) == 2:
            break
    assert seen == {"boundary_a", "boundary_b"}


def test_completeness_positivity_10k_random():
    rng = np.random.default_rng(1)
    for _ in range(10_000):
        sol = solve_max_confidence(random_pair(rng))
        total = sol.povm.pi0 + sol.povm.pi1 + sol.povm.pi_inc
        assert np.max(np.abs(total - I2)) <= 1e-12
        for op in sol.povm.operators():
            eigvals, _ = qmat.herm_eig2(op)
            assert eigvals[0] >= -1e-12
        assert sol.c0_max >= sol.gamma.eigvals[1] - 1e-12  # top eigenvalue


def test_confidence_floor_is_prior():
    rng = np.random.default_rng(8)
    for _ in range(2000):
        pair = random_pair(rng)
        sol = solve_max_confidence(pair)
        assert sol.c0_max >= pair.eta0 - 1e-12
        assert sol.c1_max >= pair.eta1 - 1e-12


def test_achieved_confidence_identity():
    rng = np.random.default_rng(6)
    done = 0
    while done < 500:
        pair = random_pair(rng)
        sol = solve_max_confidence(pair)
        if sol.branch != "interior":
            continue
        c0, c1 = achieved_confidences(sol.povm, pair)
        assert abs(c0 - sol.c0_max) <= 1e-9
        assert abs(c1 - sol.c1_max) <= 1e-9
        done += 1


def test_complement_identity():
    rng = np.random.default_rng(16)
    for _ in range(500):
        pair = random_pair(rng)
        s_inv = qmat.psd_pow(pair.rho, -0.5)
        d1 = pair.eta1 * (s_inv @ pair.rho1 @ s_inv)
        d1 = 0.5 * (d1 + d1.conj().T)
        top_d1 = qmat.herm_eig2(d1).eigvals[1]
        d0 = transformed_detector_state(pair)
        bottom_d0 = qmat.herm_eig2(d0).eigvals[0]
        assert abs(top_d1 - (1.0 - bottom_d0)) <= 1e-12


def test_symmetric_equal_confidence():
    # Balanced prior plus an undamped phase factor makes the two
    # hypotheses play symmetric roles, so the confidences coincide.
    rng = np.random.default_rng(10)
    for _ in range(300):
        nu = rng.uniform(0.05, 1.0)
        theta = rng.uniform(0.05, 2 * np.pi - 0.05)
        pair = build_state_pair(nu, np.exp(1j * theta), 0.5)
        sol = solve_max_confidence(pair)
        assert abs(sol.c0_max - sol.c1_max) <= 1e-12
    # both real unit-phase points included
    sol = solve_max_confidence(build_state_pair(0.6, -1.0, 0.5))
    assert abs(sol.c0_max - sol.c1_max) <= 1e-12


def test_oracle_dominance_moderate_pairs():
    rng = np.random.default_rng(100)
    for _ in range(60):
        pair = random_pair(rng, nu_range=(0.05, 0.95))
        sol = solve_max_confidence(pair)
        oracle = grid_search_povm(pair, grid_density=256)
        assert sol.c0_max >= oracle.c0 - 2e-3
        assert sol.c1_max >= oracle.c1 - 2e-3
        assert sol.p_inc_opt <= oracle.p_inc + 2e-3


def test_oracle_convergence_with_density():
    pair = build_state_pair(0.75, 0.4 - 0.5j, 0.45)
    sol = solve_max_confidence(pair)
    err = [
        abs(grid_search_povm(pair, grid_density=g, refine=0).c0 - sol.c0_max)
        for g in (64, 128, 256)
    ]
    assert err[2] <= err[0] + 1e-12
    assert err[2] <= 2e-3


def test_grid_search_orthogonal_case():
    oracle = grid_search_povm(build_state_pair(1.0, -1.0, 0.5), grid_density=64)
    assert oracle.c0 == pytest.approx(1.0, abs=1e-6)
    # recovered within the weight-grid resolution
    assert oracle.p_inc == pytest.approx(0.0, abs=1e-3)
    with pytest.raises(DomainError):
        grid_search_povm(build_state_pair(0.5, 0.5, 0.5), grid_density=32)


def test_helstrom_cases():
    assert min_error_probability(build_state_pair(1.0, -1.0, 0.5)) <= 1e-12
    # indistinguishable states: error = smaller prior
    assert min_error_probability(build_state_pair(0.6, 1.0, 0.3)) == pytest.approx(
        0.3, abs=1e-12
    )
    # pure states with overlap cos(pi/4)
    want = 0.5 * (1.0 - math.sqrt(1.0 - 0.5))
    assert min_error_probability(build_state_pair(1.0, 1j, 0.5)) == pytest.approx(
        want, rel=1e-12
    )
    assert want == pytest.approx(0.146447, abs=1e-6)


def test_min_error_projectors_achieve_bound():
    rng = np.random.default_rng(14)
    for _ in range(300):
        pair = random_pair(rng)
        povm = min_error_projectors(pair)
        povm_checks(povm)
        err = pair.eta0 * np.trace(pair.rho0 @ povm.pi1).real + pair.eta1 * np.trace(
            pair.rho1 @ povm.pi0
        ).real
        assert err == pytest.approx(min_error_probability(pair), abs=1e-12)


def test_threshold_pass_through_and_endpoints():
    pair = build_state_pair(0.8, np.exp(-1j * np.pi / 4), 0.5)
    sol = solve_max_confidence(pair)
    # no-op above the optimum
    res = threshold_inconclusive(sol, pair, 0.9)
    assert res.mix == 0.0 and res.p_inc == sol.p_inc_opt
    assert res.c0 == sol.c0_max
    # mix = 1 reproduces the minimum-error measurement
    res = threshold_inconclusive(sol, pair, 0.0)
    me = min_error_projectors(pair)
    assert np.max(np.abs(res.povm.pi0 - me.pi0)) <= 1e-12
    assert res.p_inc == 0.0
    with pytest.raises(DomainError):
        threshold_inconclusive(sol, pair, 1.5)


def test_threshold_hits_cap_exactly():
    pair = build_state_pair(0.9, np.exp(-0.35j), 0.5)
    sol = solve_max_confidence(pair)
    assert sol.p_inc_opt > 0.6
    res = threshold_inconclusive(sol, pair, 0.6)
    assert abs(res.p_inc - 0.6) <= 1e-12
    povm_checks(res.povm)
    me_conf = achieved_confidences(min_error_projectors(pair), pair)
    assert me_conf[0] - 1e-12 <= res.c0 <= sol.c0_max + 1e-12
    assert me_conf[1] - 1e-12 <= res.c1 <= sol.c1_max + 1e-12


def test_threshold_interpolation_is_monotone():
    pair = build_state_pair(0.95, np.exp(-0.2j), 0.5)
    sol = solve_max_confidence(pair)
    caps = np.linspace(sol.p_inc_opt, 0.0, 30)
    c0s, c1s, mixes = [], [], []
    for cap in caps:
        res = threshold_inconclusive(sol, pair, float(cap))
        assert abs(res.p_inc - (1.0 - res.mix) * sol.p_inc_opt) <= 1e-12
        c0s.append(res.c0)
        c1s.append(res.c1)
        mixes.append(res.mix)
    assert all(b <= a + 1e-12 for a, b in zip(mixes[1:], mixes[:-1]) if True)
    for seq in (c0s, c1s):
        diffs = np.diff(seq)
        assert (diffs <= 1e-12).all() or (diffs >= -1e-12).all()


def test_conditional_error_cases():
    # orthogonal states with their optimal measurement: never wrong
    pair = build_state_pair(1.0, -1.0, 0.5)
    sol = solve_max_confidence(pair)
    assert conditional_error(sol.povm, pair) <= 1e-12
    # forced choice on identical states: smaller prior
    pair = build_state_pair(0.6, 1.0, 0.3)
    assert conditional_error(min_error_projectors(pair), pair) == pytest.approx(
        0.3, abs=1e-12
    )
    # all-inconclusive measurement has no conclusive calls
    all_inc = discrim.Povm(
        pi0=np.zeros((2, 2), dtype=complex),
        pi1=np.zeros((2, 2), dtype=complex),
        pi_inc=I2.copy(),
        a=0.0,
        b=0.0,
    )
    with pytest.raises(UndefinedConditionalError):
        conditional_error(all_inc, pair)


def test_conditional_error_of_pure_state_is_not_negative():
    # nu = 1: the optimum's wrong-call weight rounds to -7.2e-18 before the clamp.
    pair = build_state_pair(1.0, -0.9976005057690599 + 0.0692331632190524j, 0.49688464952256395)
    sol = solve_max_confidence(pair)
    assert conditional_error(sol.povm, pair) == 0.0
    pairs = channel.build_state_stack([1.0, 1.0], [pair.mu, 1.0], pair.eta0)
    povm = discrim.Povm(
        pi0=np.stack([sol.povm.pi0, np.zeros((2, 2))]),
        pi1=np.stack([sol.povm.pi1, np.zeros((2, 2))]),
        pi_inc=np.stack([sol.povm.pi_inc, I2]),
    )
    errors, defined = discrim.conditional_error_stack(povm, pairs)
    assert errors[0] == 0.0 and defined.tolist() == [True, False]
    assert np.isnan(errors[1])  # undefined rows stay NaN


def test_capped_measurement_beats_forced_choice():
    # In the balanced undamped-phase regime (the detection scenarios that
    # actually hit the cap), any capped measurement errs strictly less
    # often on its conclusive calls than the forced-choice baseline.
    rng = np.random.default_rng(23)
    checked = 0
    while checked < 200:
        nu = rng.uniform(0.3, 1.0)
        theta = rng.uniform(0.02, 2 * np.pi - 0.02)
        pair = build_state_pair(nu, np.exp(1j * theta), 0.5)
        sol = solve_max_confidence(pair)
        if sol.branch != "interior" or sol.p_inc_opt <= 0.6:
            continue
        res = threshold_inconclusive(sol, pair, 0.6)
        assert conditional_error(res.povm, pair) < min_error_probability(pair)
        checked += 1


def test_mc_confidence_never_below_me_per_detector():
    # Each detector of the optimal measurement is at least as confident
    # as the same detector of the forced-choice measurement; this holds
    # for arbitrary priors and damping.
    rng = np.random.default_rng(42)
    for _ in range(500):
        pair = random_pair(rng)
        sol = solve_max_confidence(pair)
        c0_me, c1_me = achieved_confidences(min_error_projectors(pair), pair)
        if c0_me is not None:
            assert sol.c0_max >= c0_me - 1e-9
        if c1_me is not None:
            assert sol.c1_max >= c1_me - 1e-9


def test_mc_conclusive_confidence_never_below_me_symmetric():
    # The aggregate version (confidence of a conclusive call) holds on
    # the balanced undamped-phase family, where both detectors share one
    # confidence and firing-rate weighting drops out.  It does not hold
    # for arbitrary priors, where the optimal measurement may fire its
    # weaker detector more often.
    rng = np.random.default_rng(41)
    for _ in range(500):
        nu = rng.uniform(0.01, 1.0)
        theta = rng.uniform(0.02, 2 * np.pi - 0.02)
        pair = build_state_pair(nu, np.exp(1j * theta), 0.5)
        sol = solve_max_confidence(pair)
        try:
            mc_err = conditional_error(sol.povm, pair)
        except UndefinedConditionalError:
            continue
        me_err = conditional_error(min_error_projectors(pair), pair)
        assert 1.0 - mc_err >= 1.0 - me_err - 1e-9


def test_solver_rejects_garbage():
    with pytest.raises(DomainError):
        solve_max_confidence("not a pair")

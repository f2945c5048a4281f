"""Every public entry point refuses an input outside its domain when called,
NaN included, and names what is wrong: README's "fails early" rule."""

import inspect
import math
import re

import numpy as np
import pytest

from mcmag import channel, dilation, discrim, noise_sim, plane, sweep
from mcmag.channel import StatePair, SwitchingFunction, build_state_pair, free_decay
from mcmag.errors import ConfigError, DomainError
from mcmag.noise_sim import ClickTally, OuParams

NAN = math.nan
OU = {"kappa": 1.0, "tau_c": 25.0, "dt": 0.1, "T": 1.0, "seed": 0, "n_traj": 10}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: channel.nu_ou(NAN, 25.0, free_decay(1.0)), "kappa must be >= 0"),
        (lambda: channel.nu_ou(1.0, NAN, free_decay(1.0)), "tau_c must be > 0"),
        (lambda: channel.nu_ou_cpmg(NAN, 25.0, [2], 0.5), "kappa must be >= 0"),
        (lambda: channel.nu_ou_cpmg(1.0, NAN, [2], 0.5), "tau_c must be > 0"),
        (lambda: channel.nu_ou_cpmg(1.0, 25.0, [2], NAN), "tau must be > 0"),
        (lambda: channel.cpmg_switching(2, NAN), "tau must be > 0"),
        (lambda: channel.dephasing_integral(NAN, free_decay(1.0)), "rate must be > 0"),
        (lambda: channel.dephasing_integrals(NAN, [], [(0, 1.0)]), "rate must be > 0"),
        (lambda: channel.nu_stretched(1.0, 2.0, NAN), "time must be >= 0"),
        (lambda: channel.mu_static(1.0, 0.0, 1, NAN), "time must be >= 0"),
        (lambda: free_decay(NAN), "total_time must be > 0"),
        (lambda: OuParams(**{**OU, "kappa": NAN}), "kappa must be >= 0"),
        (lambda: OuParams(**{**OU, "tau_c": NAN}), "tau_c must be > 0"),
        (lambda: OuParams(**{**OU, "T": NAN}), "T must be > 0"),
        (lambda: OuParams(**{**OU, "seed": NAN}), "seed must be an int"),
    ],
    ids=[
        "nu_ou-kappa", "nu_ou-tau_c", "nu_ou_cpmg-kappa", "nu_ou_cpmg-tau_c", "nu_ou_cpmg-tau",
        "cpmg_switching-tau", "dephasing_integral-rate", "dephasing_integrals-rate",
        "nu_stretched-t", "mu_static-t", "free_decay-T", "OuParams-kappa", "OuParams-tau_c",
        "OuParams-T", "OuParams-seed",
    ],
)
def test_nan_is_refused_with_the_domain_message(call, message):
    # Each comparison was written so that NaN passed it (``t < 0``): the
    # call returned nan, blamed another argument (mu_static named b0), or
    # failed later with a message that names no argument.
    with pytest.raises(DomainError, match=f"^{message}"):
        call()


#: name: (call with the argument v, a v out of the domain, the whole message
#: for it and for NaN, unless a fourth entry gives NaN's; ``{v:g}`` stands for v).
ARGUMENT_CHECKS = {
    "SwitchingFunction-flips": (lambda v: SwitchingFunction((0.5, v), 1.0), 0.3,
                                "flip times must be increasing inside (0, T)"),
    "SwitchingFunction-T": (lambda v: SwitchingFunction((), v), -1.0,
                            "total_time must be > 0"),
    "nu_stretched-T2_star": (lambda v: channel.nu_stretched(v, 2.0, 1.0), 0.0,
                             "T2_star must be > 0"),
    "nu_stretched-p": (lambda v: channel.nu_stretched(1.0, v, 1.0), 0.0,
                       "stretch exponent p must be > 0"),
    "nu_stretched-t": (lambda v: channel.nu_stretched(1.0, 2.0, v), -1.0,
                       "time must be >= 0"),
    "nu_ensemble_cpmg-T2": (lambda v: channel.nu_ensemble_cpmg(v, 0.5, 1.0, 2, 1.0), 0.0,
                            "T2 must be > 0"),
    "nu_ensemble_cpmg-s": (lambda v: channel.nu_ensemble_cpmg(1.0, v, 1.0, 2, 1.0), 1.0,
                           "s must be in [0, 1)"),
    "nu_ensemble_cpmg-p": (lambda v: channel.nu_ensemble_cpmg(1.0, 0.5, v, 2, 1.0), 0.0,
                           "stretch exponent p must be > 0"),
    "nu_ensemble_cpmg-n_pulses": (lambda v: channel.nu_ensemble_cpmg(1.0, 0.5, 1.0, v, 1.0), 3,
                                  "pulse count must be an even integer >= 2"),
    "nu_ensemble_cpmg-f": (lambda v: channel.nu_ensemble_cpmg(1.0, 0.5, 1.0, 2, v), 0.0,
                           "f must be > 0"),
    "mu_static-b0": (lambda v: channel.mu_static(v, 0.0, 1, 1e10), 1e300,
                     "b0 = {v:g} takes the phase past the float range at t = 1e+10",
                     "b0 must be a number, got nan"),
    "mu_static-sigma_b": (lambda v: channel.mu_static(1.0, v, 1, 1.0), -1.0,
                          "sigma_b must be >= 0"),
    "mu_static-delta_ms": (lambda v: channel.mu_static(1.0, 0.0, v, 1.0), 3,
                           "delta_ms must be 1 or 2"),
    "mu_static-t": (lambda v: channel.mu_static(1.0, 0.0, 1, v), -1.0,
                    "time must be >= 0"),
    "mu_cpmg-b0": (lambda v: channel.mu_cpmg(v, 0.0, 1e-10, 2), 1e300,
                   "b0 = {v:g} takes the phase past the float range at N = 2",
                   "b0 must be a number, got nan"),
    "mu_cpmg-sigma_b": (lambda v: channel.mu_cpmg(1.0, v, 1.0, 2), -1.0,
                        "sigma_b must be >= 0"),
    "mu_cpmg-f": (lambda v: channel.mu_cpmg(1.0, 0.0, v, 2), 0.0, "f must be > 0"),
    "mu_cpmg-n_pulses": (lambda v: channel.mu_cpmg(1.0, 0.0, 1.0, v), 3,
                         "pulse count must be an even integer >= 2"),
    # The grid kernels check each axis value in order: the fault is at the second.
    "nu_stretched_grid-t": (lambda v: channel.nu_stretched_grid(1.0, 2.0, [0.5, v]), -1.0,
                            "time must be >= 0"),
    "nu_ensemble_cpmg_grid-n_pulses": (
        lambda v: channel.nu_ensemble_cpmg_grid(1.0, 0.5, 1.0, [2, v], 1.0), 3,
        "pulse count must be an even integer >= 2"),
    "nu_ensemble_cpmg_grid-f": (lambda v: channel.nu_ensemble_cpmg_grid(1.0, 0.5, 1.0, [2, 4], v),
                                0.0, "f must be > 0"),
    "mu_static_grid-b0": (lambda v: channel.mu_static_grid(v, 0.0, 1, [1.0, 1e10]), 1e300,
                          "b0 = {v:g} takes the phase past the float range at t = 1e+10",
                          "b0 must be a number, got nan"),
    "mu_static_grid-t": (lambda v: channel.mu_static_grid(1.0, 0.0, 1, [0.5, v]), -1.0,
                         "time must be >= 0"),
    "mu_cpmg_grid-b0": (lambda v: channel.mu_cpmg_grid(v, 0.0, 1e-7, [2, 2000]), 1e300,
                        "b0 = {v:g} takes the phase past the float range at N = 2000",
                        "b0 must be a number, got nan"),
    "mu_cpmg_grid-n_pulses": (lambda v: channel.mu_cpmg_grid(1.0, 0.0, 1.0, [2, v]), 3,
                              "pulse count must be an even integer >= 2"),
    "decompose_two_level-shape": (lambda v: dilation.decompose_two_level(np.full((2, 2), v)),
                                  1.0, "expected a 3x3 matrix"),
    "decompose_two_level-unitary": (lambda v: dilation.decompose_two_level(v * np.eye(3)),
                                    2.0, "input is not unitary within tolerance"),
}


@pytest.mark.parametrize("name", sorted(ARGUMENT_CHECKS))
@pytest.mark.parametrize("kind", ["outside", "nan"])
def test_each_argument_is_refused_outside_its_domain_and_as_nan(name, kind):
    # No test reached these raises; a NaN must fail the bound it would pass
    # unchecked and get that bound's message.
    call, outside, message, *nan_message = ARGUMENT_CHECKS[name]
    value = outside if kind == "outside" else NAN
    if kind == "nan" and nan_message:
        message = nan_message[0]
    with pytest.raises(DomainError) as err:
        call(value)
    assert type(err.value) is DomainError
    assert str(err.value) == message.format(v=value)


VALID_CONFIG = """scenario = static_single
T2_star_us = 1
grid_start = 0.1
grid_stop = 1
grid_points = 3
"""


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: sweep.parse_config_text(VALID_CONFIG + "b0_uT 50\n"),
         "line 6: expected 'key = value'"),
        (lambda: sweep.parse_config_text(VALID_CONFIG.replace("grid_start = 0.1\n", "")),
         "missing required key 'grid_start'"),
        (lambda: sweep.parse_config_text("grid_start = 0.1\n"), "missing required key 'scenario'"),
        (lambda: sweep.neumark_report(sweep.parse_config_text(VALID_CONFIG)),
         "neumark requires key 'point' (time or pulse count)"),
    ],
    ids=["no_equals_sign", "missing_grid_start", "missing_scenario", "neumark_without_point"],
)
def test_config_faults_are_named(call, message):
    with pytest.raises(ConfigError) as err:
        call()
    assert type(err.value) is ConfigError
    assert str(err.value) == message


@pytest.mark.parametrize("n_traj", [2.5, 10.0, "10", True])
def test_a_trajectory_count_must_be_an_int(n_traj):
    # 2.5 was accepted and failed with a TypeError in the Monte Carlo.
    with pytest.raises(DomainError, match="n_traj"):
        OuParams(**{**OU, "n_traj": n_traj})


def test_a_numpy_int_is_a_trajectory_count():
    assert OuParams(**{**OU, "n_traj": np.int64(10)}).n_traj == 10


def clicks(shots=10, seed=0):
    pair = build_state_pair(0.8, 0.5j, 0.5)
    return noise_sim.simulate_clicks(discrim.solve_max_confidence(pair).povm, pair, shots, seed)


@pytest.mark.parametrize(
    "call, name",
    [(lambda v: OuParams(**{**OU, "seed": v}), "seed"), (lambda v: clicks(seed=v), "seed"),
     (lambda v: clicks(shots=v), "shots")],
    ids=["OuParams-seed", "simulate_clicks-seed", "simulate_clicks-shots"],
)
@pytest.mark.parametrize("value", [1.5, 10.0, "10", True, NAN])
def test_a_seed_and_a_shot_count_must_be_ints(call, name, value):
    # simulate_clicks raised numpy's TypeError for a float seed or shot
    # count, and OuParams accepted a NaN seed.
    with pytest.raises(DomainError, match=f"^{name} must be an int, got"):
        call(value)


def test_numpy_ints_are_a_seed_and_a_shot_count():
    assert OuParams(**{**OU, "seed": np.uint64(3)}).seed == 3
    assert clicks(shots=np.int64(10), seed=np.int32(1)).shots == 10


def one_record_calls(modules, records):
    """Every public function of ``modules`` that takes one of ``records``,
    with the names of its required arguments and of the records it takes:
    ``(function, names)``."""
    calls = {}
    for module in modules:
        for name, fn in vars(module).items():
            public = not name.startswith("_") and inspect.isfunction(fn)
            if not public or fn.__module__ != module.__name__:
                continue
            params = inspect.signature(fn).parameters
            if records & set(params):
                names = [p for p, spec in params.items()
                         if spec.default is spec.empty or p in records]
                calls[f"{module.__name__}.{name}"] = (fn, names)
    return calls


CALLS = one_record_calls((discrim, noise_sim), {"pair"})
NOT_PAIRS = [
    ((build_state_pair(0.8, 0.5j, 0.5).rho0, build_state_pair(0.8, 0.5j, 0.5).rho1),
     "expected a StatePair"),
    ((1, 2), "expected a StatePair"),
    (None, "expected a StatePair"),
    (channel.pair_factors([0.3, 0.8], [0.1, 0.9j]), "expected a StatePair"),
]


def test_the_one_pair_calls_are_found():
    assert {
        "mcmag.discrim.solve_max_confidence", "mcmag.discrim.threshold_inconclusive",
        "mcmag.discrim.achieved_confidences", "mcmag.noise_sim.simulate_clicks",
    } <= set(CALLS)


@pytest.mark.parametrize("name", sorted(CALLS))
@pytest.mark.parametrize("bad, message", NOT_PAIRS, ids=["matrices", "tuple", "None", "stack"])
def test_every_one_pair_call_checks_the_pair(name, bad, message):
    # achieved_confidences and simulate_clicks raised AttributeError.  A stack
    # of pairs is the factor arrays of pair_factors, which no one-pair call takes.
    pair = build_state_pair(0.8, np.exp(-0.3j), 0.5)
    sol = discrim.solve_max_confidence(pair)
    others = {"pair": bad, "sol": sol, "povm": sol.povm, "p_thresh": 0.5, "shots": 10, "seed": 0}
    fn, required = CALLS[name]
    args = [others[p] for p in required]
    with pytest.raises(DomainError, match=f"^{message}$"):
        fn(*args)


RECORD_CALLS = one_record_calls((discrim, noise_sim, dilation), {"povm", "sol"})


def test_the_one_record_calls_are_found():
    assert {
        "mcmag.discrim.achieved_confidences", "mcmag.discrim.conditional_error",
        "mcmag.discrim.threshold_inconclusive", "mcmag.noise_sim.simulate_clicks",
        "mcmag.dilation.dilate_povm", "mcmag.dilation.born_residual",
    } <= set(RECORD_CALLS)


@pytest.mark.parametrize("name", sorted(RECORD_CALLS))
@pytest.mark.parametrize("wrong", ["part", "None", "stack"])
def test_every_one_record_call_refuses_a_record_of_another_type(name, wrong):
    # A measurement's operator array or None for the measurement, and a
    # measurement or None for the solution, failed with an AttributeError.
    # The optimum of a stack is plane_optimum's (values, branch, ops), its
    # measurements the (n, 3, 3) plane operators: neither is one record.
    pair = build_state_pair(0.8, np.exp(-0.3j), 0.5)
    sol = discrim.solve_max_confidence(pair)
    fn, names = RECORD_CALLS[name]
    record, expected = ("sol", "an McSolution") if "sol" in names else ("povm", "a Povm")
    stacked = plane.plane_optimum(*channel.pair_factors([0.8, 0.6, 0.5], [0.5j, 0.1, 0.2]), 0.4)
    bad = {"part": {"sol": sol.povm, "povm": sol.povm.ops}[record], "None": None,
           "stack": {"sol": stacked, "povm": stacked[2]}[record]}[wrong]
    others = {"pair": pair, "sol": sol, "povm": sol.povm, "p_thresh": 0.5, "shots": 10,
              "seed": 0, "dilation": dilation.dilate_povm(sol.povm), "states": pair.states,
              record: bad}
    with pytest.raises(DomainError, match=f"^expected {expected}, got {type(bad).__name__}$"):
        fn(*[others[p] for p in names])


@pytest.mark.parametrize(
    "nu, mu, lengths",
    [([0.5, 0.6], [0.3j], (2, 1)), ([0.5, 0.6], [0.3j, 0.1, 0.2], (2, 3)),
     ([0.5], [0.3j, 0.1], (1, 2)), ([0.5, 0.6], 0.3j, (2, 1))],
)
def test_a_stack_has_one_length(nu, mu, lengths):
    # [0.5, 0.6] with [0.3j] made a record whose mu had one entry and its
    # matrices two rows; with three mu values numpy's broadcast failed.
    with pytest.raises(DomainError, match=f"one length, got {lengths[0]} and {lengths[1]}$"):
        channel.pair_factors(nu, mu)


@pytest.mark.parametrize(
    "nu, mu, shapes",
    [([0.5, 0.6], [0.3j, 0.1], "(2,) and (2,)"), ([0.5], 0.3j, "(1,) and ()"),
     (0.5, np.array([[0.3j]]), "() and (1, 1)")],
)
def test_a_state_pair_is_one_pair(nu, mu, shapes):
    # Arrays made a stack of pairs, which every one-pair call had to refuse
    # by the rank of its arrays; a stack is now pair_factors arrays.
    message = f"a StatePair is one pair: nu and mu must be numbers, got shapes {shapes}"
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        StatePair(nu, mu, 0.5)


@pytest.mark.parametrize("make", [StatePair, build_state_pair])
@pytest.mark.parametrize(
    "args, name",
    [((True, 0.1, 0.5), "nu"), (("0.5", 0.1, 0.5), "nu"), ((0.5, True, 0.5), "mu"),
     ((0.5, 0.1, "0.5"), "eta0"), (("abc", 0.1, 0.5), "nu"), ((0.5, "x", 0.5), "mu"),
     ((0.5, 0.1, "q"), "eta0"), ((np.True_, 0.1, 0.5), "nu"), ((0.5, b"0.1", 0.5), "mu")],
)
def test_a_state_pair_refuses_a_bool_or_a_string(make, args, name):
    # The factors follow the rule SweepConfig keeps for config keys: no bool
    # and no string, whatever numpy would convert it to.
    value = args[("nu", "mu", "eta0").index(name)]
    with pytest.raises(DomainError) as err:
        make(*args)
    assert type(err.value) is DomainError
    assert str(err.value) == f"{name} must be a number, got {value!r}"


@pytest.mark.parametrize(
    "counts",
    [
        np.array([[1, 2], [3, 4]]),
        np.array([[-1, 2, 0], [3, 4, 2]]),
        np.array([[0.5, 1.5, 0], [3, 4, 1]]),
        np.array([1, 2, 0, 3, 4, 0]),
        [[1, 2, 0], [3, 4, 0]],
    ],
    ids=["2x2", "negative", "fractional", "flat", "list"],
)
def test_a_tally_is_two_rows_of_three_counts(counts):
    # The 2x2 tally was accepted, and a negative count made
    # empirical_confidence fail with "ValueError: math domain error".
    with pytest.raises(DomainError, match="counts"):
        ClickTally(counts, int(np.sum(counts)))


@pytest.mark.parametrize("shape", [(2, 2), (3, 2), (2, 2, 2), (3, 3, 2, 2)],
                         ids=["2x2", "3x2", "2x2x2", "stack"])
def test_a_povm_is_three_2x2_operators(shape):
    message = rf"shape \(3, 2, 2\), got {re.escape(str(shape))}$"
    with pytest.raises(DomainError, match=message):
        discrim.Povm(np.zeros(shape))


@pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint8])
def test_a_tally_takes_any_integer_dtype(dtype):
    assert ClickTally(np.array([[1, 2, 0], [3, 4, 0]], dtype=dtype), 10).shots == 10

"""A pulse-count grid reads every train's coherence from one walk.

``cpmg_single`` computes ``nu`` for a whole grid with ``channel.nu_ou_cpmg``,
which walks the longest train once and ends each shorter train with its own
last segment.  These tests hold it to the one-train path bit for bit and
count the segment steps it takes.
"""

import dataclasses
import math
from pathlib import Path

import pytest

from mcmag import channel, sweep
from mcmag.errors import DomainError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"
CPMG = sweep.SCENARIOS["cpmg_single"]
BASE = sweep.SweepConfig(scenario="cpmg_single", kappa_per_us=3.6, tau_c_us=25.0, f_MHz=1.0,
                         grid_start=2.0, grid_stop=200.0, grid_points=100)


def one_train_nu(cfg, n):
    """The coherence of one train, walked on its own."""
    switching = channel.cpmg_switching(int(n), 1.0 / (2.0 * cfg.f_MHz))
    return channel.nu_ou(cfg.kappa_per_us, cfg.tau_c_us, switching)


def assert_grid_bits(cfg):
    values = sweep.grid_values(cfg)
    want = [one_train_nu(cfg, n).hex() for n in values]
    assert [nu.hex() for nu in CPMG.nu(cfg, values)] == want
    assert [row.nu.hex() for row in sweep.run_sweep(cfg)] == want


def test_grid_nu_has_the_one_train_bits_on_every_shipped_config():
    paths = [p for p in sorted(CONFIG_DIR.glob("*.cfg"))
             if sweep.load_config(str(p)).scenario == "cpmg_single"]
    assert len(paths) >= 4
    for path in paths:
        assert_grid_bits(sweep.load_config(str(path)))


@pytest.mark.parametrize(
    "changes",
    [
        {"kappa_per_us": 0.0},
        # kappa**2 overflows and the walk's W is subnormal: nu from e^-1 to e^-10
        {"kappa_per_us": 1e155, "tau_c_us": 1e-300, "f_MHz": 1e10, "grid_stop": 20.0,
         "grid_points": 10},
        {"kappa_per_us": 1e200},
        {"tau_c_us": 1e-300},  # rate**2 overflows
        {"grid_scale": "log", "grid_stop": 40.0},  # 100 points snap to 20 counts
        {"grid_start": 50.0, "grid_stop": 300.0, "grid_points": 7},
    ],
    ids=["kappa_0", "kappa_square_overflows", "kappa_huge", "rate_square_overflows",
         "log_grid_collapses", "start_above_2"],
)
def test_hand_built_grid_has_the_one_train_bits(changes):
    cfg = dataclasses.replace(BASE, **changes)
    if changes.get("grid_scale") == "log":
        assert len(sweep.grid_values(cfg)) < cfg.grid_points
    assert_grid_bits(cfg)


def test_kappa_square_overflow_grid_is_interior():
    # The hand-built case above reaches the fallback of exp(-kappa**2 * W)
    # with a result strictly inside (0, 1).
    cfg = dataclasses.replace(BASE, kappa_per_us=1e155, tau_c_us=1e-300, f_MHz=1e10,
                              grid_stop=20.0, grid_points=10)
    nus = CPMG.nu(cfg, sweep.grid_values(cfg))
    assert all(0.0 < nu < 1.0 for nu in nus)


def test_one_point_grid_through_factors_at():
    for n in (2.0, 38.0, 200.0):
        nu, mu = sweep.factors_at(BASE, n)
        assert nu.hex() == one_train_nu(BASE, n).hex()
        assert mu == channel.mu_cpmg(BASE.b0_uT, BASE.sigma_b_uT, BASE.f_MHz, int(n))


# Recorded from the segment loop that walked one SwitchingFunction at a time.
UNEVEN = channel.SwitchingFunction((0.3, 0.35, 1.9, 2.0, 4.75), 6.1)


@pytest.mark.parametrize(
    "rate, switching, bits",
    [
        (0.7, UNEVEN, "0x1.ddbe1bab36aa6p+1"),
        (1 / 25, UNEVEN, "0x1.36bd194171543p+2"),
        (0.7, channel.free_decay(3.3), "0x1.7022306d26d89p+1"),
        (1 / 25, channel.free_decay(200.0), "0x1.11735ac8c9aecp+12"),
        (1e300, channel.free_decay(1.0), "0x1.56e1fc2f8f359p-997"),
    ],
)
def test_dephasing_integral_keeps_its_bits(rate, switching, bits):
    assert channel.dephasing_integral(rate, switching).hex() == bits


def test_nu_ou_keeps_its_bits_on_an_uneven_train():
    assert channel.nu_ou(3.6, 25.0, UNEVEN).hex() == "0x1.29f82c51c47c8p-91"


class CountingMath:
    """``math`` for the channel module, counting ``expm1`` calls (one per
    segment step) and refusing to go past ``budget`` of them."""

    def __init__(self, budget):
        self.budget = budget
        self.steps = 0

    def expm1(self, x):
        self.steps += 1
        assert self.steps <= self.budget, "segment steps over budget"
        return math.expm1(x)

    def __getattr__(self, name):
        return getattr(math, name)


def test_a_grid_walks_n_max_plus_g_segments(monkeypatch):
    # One train at a time, this grid takes about 4e6 segment steps; the
    # stand-in stops the walk as soon as it passes N_max + G.
    cfg = dataclasses.replace(BASE, grid_stop=20_000.0, grid_points=400)
    values = sweep.grid_values(cfg)
    n_max, g = int(values[-1]), len(values)
    assert (n_max, g) == (20_000, 400)
    counting = CountingMath(budget=n_max + g)
    monkeypatch.setattr(channel, "math", counting)
    nus = CPMG.nu(cfg, values)
    assert counting.steps == n_max + g
    monkeypatch.undo()
    picks = (0, g // 2, g - 1)
    assert [nus[k].hex() for k in picks] == [one_train_nu(cfg, values[k]).hex() for k in picks]


@pytest.mark.parametrize(
    "n_pulses, tau, kappa, tau_c, message",
    [
        ([2, 5], 0.5, 3.6, 25.0, "pulse count must be an even integer >= 2"),
        ([0, 2], 0.5, 3.6, 25.0, "pulse count must be an even integer >= 2"),
        ([2, 4], 0.0, 3.6, 25.0, "tau must be > 0"),
        ([2, 4], 0.5, -1.0, 25.0, "kappa must be >= 0"),
        ([2, 4], 0.5, 3.6, 0.0, "tau_c must be > 0"),
    ],
)
def test_grid_keeps_the_one_train_checks(n_pulses, tau, kappa, tau_c, message):
    with pytest.raises(DomainError, match=message):
        channel.nu_ou_cpmg(kappa, tau_c, n_pulses, tau)
    with pytest.raises(DomainError, match=message):
        for n in n_pulses:
            channel.nu_ou(kappa, tau_c, channel.cpmg_switching(n, tau))


def test_kappa_0_grid_takes_no_walk(monkeypatch):
    monkeypatch.setattr(channel, "math", CountingMath(budget=0))
    assert channel.nu_ou_cpmg(0.0, 25.0, [2, 4, 6], 0.5) == [1.0, 1.0, 1.0]


@pytest.mark.parametrize(
    "flips, trains",
    [([0.0, 0.5], [(2, 1.0)]), ([0.5, 0.4], [(2, 1.0)]), ([0.5, 0.9], [(1, 0.5), (2, 0.9)]),
     ([0.5, math.nan], [(2, 1.0)])],
)
def test_the_walk_refuses_flips_out_of_order(flips, trains):
    with pytest.raises(DomainError, match=r"flip times must be increasing inside \(0, T\)"):
        channel.dephasing_integrals(1.0, flips, trains)


def test_the_walk_refuses_trains_out_of_order():
    with pytest.raises(DomainError, match="trains must come in order of flip count"):
        channel.nu_ou_cpmg(3.6, 25.0, [4, 2], 0.5)


def test_the_walk_refuses_a_non_positive_rate():
    with pytest.raises(DomainError, match="rate must be > 0"):
        channel.dephasing_integrals(0.0, [0.5], [(1, 1.0)])

"""The sweep's whole-grid layer against the per-point loops it replaced,
bit for bit, on every shipped config and on the benchmark's jittered
configs of seeds 1-3.

``reference_grid_values`` and ``reference_mu`` are the earlier loops, kept
as the oracle: a ``float`` of each numpy scalar of the grid, and one
channel call per point that reads the config's keys at each.  Floats
compare by ``float.hex``, so even a signed zero must agree.
"""

import importlib
import math
from pathlib import Path

import numpy as np
import pytest

from mcmag import channel, sweep

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def configs():
    """(label, config) of every shipped config and of the jittered ones of seeds 1-3."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        inputs = importlib.import_module("inputs")
        texts = {(seed, name): text for seed in (0, 1, 2, 3)
                 for name, text in inputs.jittered_configs(seed).items()}
    assert len(texts) == 4 * 27
    return [(f"seed {seed} {name}", sweep.parse_config_text(text))
            for (seed, name), text in texts.items()]


def reference_grid_values(cfg):
    space = np.geomspace if cfg.grid_scale == "log" else np.linspace
    values = space(cfg.grid_start, cfg.grid_stop, cfg.grid_points)
    scenario = sweep.SCENARIOS[cfg.scenario]
    if scenario.axis == "time":
        return [float(v) for v in values]
    evens = []
    for v in values:
        n = scenario.snap(v)
        if not evens or n > evens[-1]:
            evens.append(n)
    return evens


def reference_mu(cfg, values):
    if sweep.SCENARIOS[cfg.scenario].axis == "time":
        return [channel.mu_static(cfg.b0_uT, cfg.sigma_b_uT, cfg.delta_ms, float(t))
                for t in values]
    return [channel.mu_cpmg(cfg.b0_uT, cfg.sigma_b_uT, cfg.f_MHz, int(n)) for n in values]


def hexes(values):
    return [(type(v), v.hex()) for v in values]


def complex_hexes(values):
    return [(type(z), z.real.hex(), z.imag.hex()) for z in values]


def test_grid_values_equal_the_per_point_floats(configs):
    for label, cfg in configs:
        assert hexes(sweep.grid_values(cfg)) == hexes(reference_grid_values(cfg)), label


def test_mu_of_the_grid_equals_one_channel_call_per_point(configs):
    for label, cfg in configs:
        values = reference_grid_values(cfg)
        got = sweep.SCENARIOS[cfg.scenario].mu(cfg, values)
        assert complex_hexes(got) == complex_hexes(reference_mu(cfg, values)), label


def test_sweep_rows_take_the_phase_as_atan2(configs):
    for label, cfg in configs:
        rows = sweep.run_sweep(cfg)
        assert all(type(row) is sweep.SweepRow for row in rows), label
        mus = reference_mu(cfg, reference_grid_values(cfg))
        assert hexes(row.mu_arg for row in rows) == hexes(
            math.atan2(mu.imag, mu.real) for mu in mus
        ), label
        assert hexes(row.mu_abs for row in rows) == hexes(map(abs, mus)), label


@pytest.mark.parametrize("text", [
    "scenario = static_single\nT2_star_us = 0.4\ngrid_start = 0\ngrid_stop = 2\n",
    "scenario = cpmg_ensemble\nT2_us = 100\ns = 0.5\nf_MHz = 1\ngrid_start = 2\ngrid_stop = 40\n",
], ids=["time", "pulse_count"])
def test_a_subnormal_phase_keeps_its_atan2_bits(text):
    # b0_uT = 1e-310 leaves phases of 1e-313 to 1e-309, below the normal floats.
    cfg = sweep.parse_config_text(text + "grid_points = 7\nb0_uT = 1e-310\n")
    mus = reference_mu(cfg, reference_grid_values(cfg))
    assert any(0.0 < abs(mu.imag) < 2.2e-308 for mu in mus)
    rows = sweep.run_sweep(cfg)
    assert hexes(row.mu_arg for row in rows) == hexes(math.atan2(mu.imag, mu.real) for mu in mus)

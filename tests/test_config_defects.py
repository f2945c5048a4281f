"""Config defects: the mended ones as plain tests, the known ones as strict
xfails until they are mended.

Each test only parses a config; none runs a sweep or a report.
"""

import dataclasses
import re

import pytest

from mcmag import sweep
from mcmag.errors import ConfigError

STATIC_SINGLE = """
scenario    = static_single
b0_uT       = 1
T2_star_us  = 0.4
grid_start  = 0.01
grid_stop   = 2.0
grid_points = 200
"""
CPMG_SINGLE = """
scenario    = cpmg_single
b0_uT       = 1
sigma_b_uT  = 0.2
f_MHz       = 1
kappa_per_us = 3.6
tau_c_us    = 25
grid_start  = 2
grid_stop   = 200
grid_points = 100
"""
VALIDATE = STATIC_SINGLE + """
kappa_per_us = 3.6
tau_c_us    = 25
n_traj      = 2000
shots       = 10000
"""


def with_values(text, **values):
    for key, value in values.items():
        text, n = re.subn(rf"(?m)^{key}\s*=.*$", f"{key} = {value}", text)
        if not n:
            text += f"{key} = {value}\n"
    return text


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 4: replace keeps the defaults the old scenario "
                   "filled in as set keys (p = 2.0 where the file gives 1.0)")
def test_replace_takes_the_new_scenarios_defaults():
    cfg = sweep.parse_config_text(STATIC_SINGLE)
    from_file = sweep.parse_config_text(STATIC_SINGLE.replace("static_single", "static_ensemble"))
    assert from_file.p == 1.0
    assert dataclasses.replace(cfg, scenario="static_ensemble").p == from_file.p


UNBOUNDED_MONTE_CARLO = pytest.mark.xfail(
    strict=True, raises=pytest.fail.Exception,
    reason="ROADMAP item 6: validate configs of unbounded Monte Carlo work parse without error",
)


@pytest.mark.parametrize("text, key", [
    (with_values(CPMG_SINGLE, grid_stop="1e10"), "grid_stop"),
    pytest.param(with_values(VALIDATE, tau_c_us="1e-300"), "tau_c_us",
                 marks=UNBOUNDED_MONTE_CARLO),
    pytest.param(with_values(VALIDATE, n_traj=10**12, shots=10**15), "n_traj|shots",
                 marks=UNBOUNDED_MONTE_CARLO),
    (with_values(STATIC_SINGLE, grid_points=10**11), "grid_points"),
], ids=["cpmg_grid_stop", "tau_c", "n_traj_and_shots", "grid_points"])
def test_a_config_of_unbounded_work_is_refused_at_parse_naming_the_key(text, key):
    with pytest.raises(ConfigError, match=rf"'({key})'"):
        sweep.parse_config_text(text)


@pytest.mark.parametrize("key, over", [
    ("grid_points", "100001"),
    ("grid_stop", "1000002"),
    ("point", "1000002"),
])
def test_the_work_budgets_take_their_end_and_refuse_one_step_past_it(key, over):
    # At the budget a config parses; one grid point or one pulse pair past
    # it, the refusal names the key that sets the size.
    at = str(int(over) - (1 if key == "grid_points" else 2))
    assert getattr(sweep.parse_config_text(with_values(CPMG_SINGLE, **{key: at})), key) == int(at)
    with pytest.raises(ConfigError, match=rf"^key '{key}'"):
        sweep.parse_config_text(with_values(CPMG_SINGLE, **{key: over}))

import ast
import csv
import dataclasses
import io
import math
import os
import re
import subprocess
import sys
import xml.dom.minidom
from pathlib import Path

import numpy as np
import pytest

from mcmag import cli, sweep
from mcmag.errors import ConfigError

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def make_cfg(tmp_path, body, name="case.cfg"):
    p = tmp_path / name
    p.write_text(body, encoding="utf-8")
    return str(p)


BASE = """
scenario    = static_single
b0_uT       = 50
T2_star_us  = 0.4
p           = 2
grid_start  = 0.01
grid_stop   = 2.0
grid_points = 40
"""


def without(key):
    """BASE with the line that sets ``key`` taken out."""
    lines = BASE.splitlines(keepends=True)
    return "".join(line for line in lines if line.split("=")[0].strip() != key)


#: Config keys by the type their annotation in SweepConfig names.
KEYS_OF = {
    kind: [f.name for f in dataclasses.fields(sweep.SweepConfig) if f.type.split(" |")[0] == kind]
    for kind in ("int", "float")
}


def test_parse_round_trip(tmp_path):
    cfg = sweep.parse_config_text(BASE + "out = x.csv\n")
    assert cfg.scenario == "static_single"
    assert cfg.grid_points == 40
    assert cfg.eta0 == 0.5  # default


@pytest.mark.parametrize(
    "mutation, fragment",
    [
        ("bogus_key = 1\n", "unknown key"),
        ("grid_scale = cubic\n", "grid_scale"),
        ("eta0 = 1.5\n", "eta0"),
        ("p_inc_threshold = 2\n", "p_inc_threshold"),
        ("grid_points = one\n", "grid_points"),
        ("seed = -1\n", "seed"),
        ("n_traj = 1\n", "n_traj"),
        ("shots = 0\n", "shots"),
        ("shots = -5\n", "shots"),
    ]
    + [(f"{key} = 2.5\n", f"key {key!r}: cannot parse") for key in KEYS_OF["int"]]
    + [(f"{key} = abc\n", f"key {key!r}: cannot parse") for key in KEYS_OF["float"]],
)
def test_named_config_errors(mutation, fragment):
    key = mutation.split("=")[0].strip()
    with pytest.raises(ConfigError) as err:
        sweep.parse_config_text(without(key) + mutation)
    assert fragment in str(err.value)


@pytest.mark.parametrize("key", KEYS_OF["float"])
def test_float_key_parses_a_fraction(key):
    try:
        sweep.parse_config_text(without(key) + f"{key} = 2.5\n")
    except ConfigError as exc:  # a domain rule of the key may still refuse 2.5
        assert "cannot parse" not in str(exc)


#: A valid value for every key some scenario requires.
REQUIRED_VALUES = {
    "T2_star_us": "0.4",
    "kappa_per_us": "3.6",
    "tau_c_us": "25",
    "f_MHz": "1",
    "T2_us": "53",
    "s": "0.5",
}


def scenario_text(name, drop=None):
    """A valid config of scenario ``name``, without key ``drop``."""
    start = 2 if sweep.SCENARIOS[name].axis == "pulse count" else 0.01
    lines = [f"scenario = {name}", f"grid_start = {start}", "grid_stop = 40", "grid_points = 5"]
    for key in sweep.SCENARIOS[name].required:
        if key != drop:
            lines.append(f"{key} = {REQUIRED_VALUES[key]}")
    return "\n".join(lines) + "\nb0_uT = 1\n"


PULSED = [name for name, s in sweep.SCENARIOS.items() if s.axis == "pulse count"]


@pytest.mark.parametrize(
    "name, key", [(n, k) for n, s in sweep.SCENARIOS.items() for k in s.required]
)
def test_missing_scenario_field_named(name, key):
    assert sweep.parse_config_text(scenario_text(name)).scenario == name
    with pytest.raises(ConfigError) as err:
        sweep.parse_config_text(scenario_text(name, drop=key))
    assert key in str(err.value)


@pytest.mark.parametrize("name", list(sweep.SCENARIOS))
def test_point_below_axis_start_rejected_at_parse(name):
    # A time below 0 used to parse and fail in neumark without the key;
    # a pulse count below 2 used to snap silently up to 2.
    lowest = sweep.SCENARIOS[name].lowest
    sweep.parse_config_text(scenario_text(name) + f"point = {lowest}\n")
    with pytest.raises(ConfigError) as err:
        sweep.parse_config_text(scenario_text(name) + f"point = {lowest - 1}\n")
    assert "point" in str(err.value)


def test_readme_scenario_table_matches_the_code():
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("Scenarios and their grid axis:", 1)[1].split("\n\n")[1]
    documented = {}
    for row in table.splitlines()[2:]:
        name, axis, _, reads = (cell.strip() for cell in row.strip("|").split("|"))
        required, optional = (tuple(re.findall(r"`(\w+)`", part)) for part in reads.split(";"))
        documented[name.strip("`")] = (axis.removesuffix(" (us)"), required, optional)
    assert documented == {
        name: (s.axis, s.required, s.optional) for name, s in sweep.SCENARIOS.items()
    }


def test_readme_key_and_column_lists_match_the_code():
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    keys = readme.split("### Config keys", 1)[1].split("Keys:", 1)[1].split(".", 1)[0]
    keys = re.sub(r"\([^)]*\)", "", keys)
    fields = [f.name for f in dataclasses.fields(sweep.SweepConfig)]
    assert re.findall(r"`(\w+)`", keys) == fields
    columns = readme.split("### CSV columns", 1)[1].split("`", 2)[1]
    assert [c.strip() for c in columns.split(",")] == list(sweep.SweepRow._fields)


def test_readme_key_domains_match_the_code():
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Config keys", 1)[1].split("| key | domain |", 1)[1]
    documented = {}
    for row in table.split("\n\n", 1)[0].splitlines()[2:]:
        key, rule = (cell.strip() for cell in row.strip("|").split("|"))
        documented[key.strip("`")] = rule
    assert documented == {key: rule for key, (_, rule) in sweep.DOMAINS.items()}


def test_readme_python_examples_run():
    # Each statement of the README's python blocks runs in order; one whose
    # comment says "ConfigError: <message>..." must raise it.
    readme = (CONFIG_DIR.parent / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 3
    raised = []
    for block in blocks:
        scope = {}
        lines = block.splitlines()
        for node in ast.parse(block).body:
            code = compile(ast.Module([node], []), "README.md", "exec")
            comment = lines[node.end_lineno - 1].partition("#")[2].strip()
            if not comment.startswith("ConfigError: "):
                exec(code, scope)
                continue
            with pytest.raises(ConfigError) as err:
                exec(code, scope)
            raised.append(str(err.value))
            assert str(err.value).startswith(comment.removeprefix("ConfigError: ").rstrip(". "))
    assert raised == ["key 'sigma_b_uT': scenario 'static_single' takes only sigma_b_uT = 0"]


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError):
        sweep.parse_config_text(BASE + "b0_uT = 20\n")


def test_log_grid_and_custom_prior():
    cfg = sweep.parse_config_text(
        BASE + "grid_scale = log\neta0 = 0.3\n"
    )
    values = sweep.grid_values(cfg)
    assert values[0] == pytest.approx(0.01)
    assert values[-1] == pytest.approx(2.0)
    ratios = [b / a for a, b in zip(values[:-1], values[1:])]
    assert max(ratios) - min(ratios) < 1e-9  # geometric spacing
    row = sweep.evaluate_point(cfg, values[-1])
    assert row.c0_max == pytest.approx(0.3, abs=1e-6)
    assert row.c1_max == pytest.approx(0.7, abs=1e-6)
    with pytest.raises(ConfigError):
        sweep.parse_config_text(
            BASE.replace("grid_start  = 0.01", "grid_start  = 0") + "grid_scale = log\n"
        )


def test_pulse_grid_snaps_to_even():
    cfg = sweep.parse_config_text(
        """
scenario    = cpmg_single
b0_uT       = 1
f_MHz       = 1
kappa_per_us = 3.6
tau_c_us    = 25
grid_start  = 2
grid_stop   = 21
grid_points = 12
"""
    )
    values = sweep.grid_values(cfg)
    assert values[0] == 2.0
    assert all(v % 2 == 0 for v in values)
    assert all(b > a for a, b in zip(values[:-1], values[1:]))


def test_static_sweep_shape(tmp_path):
    cfg = sweep.parse_config_text(BASE + "p_inc_threshold = 0.6\n")
    rows = sweep.run_sweep(cfg)
    assert len(rows) == 40
    # The uncapped optimum starts high (nearly pure states are separable
    # with confidence near one at an inconclusive rate near one) and
    # decays toward the prior.
    c0 = [r.c0_max for r in rows]
    assert c0[0] > 0.85
    assert abs(c0[-1] - 0.5) <= 1e-3
    assert rows[0].p_inc_opt > 0.9
    # The capped curve is the practical one: it rises, peaks, and decays.
    c0t = [r.c0_thresh for r in rows]
    peak = max(c0t)
    assert peak > 0.8
    assert c0t.index(peak) not in (0, len(c0t) - 1)
    assert c0t[0] < 0.6
    for r in rows:
        for value in (r.c0_max, r.c1_max, r.p_inc_opt, r.helstrom_err):
            assert 0.0 <= value <= 1.0


def test_zero_field_gives_prior_confidence():
    cfg = sweep.parse_config_text(BASE.replace("b0_uT       = 50", "b0_uT       = 0"))
    rows = sweep.run_sweep(cfg)
    for r in rows:
        assert r.c0_max == pytest.approx(0.5, abs=1e-12)
        assert r.c1_max == pytest.approx(0.5, abs=1e-12)
        assert r.branch == "degenerate"


def test_pure_state_conditional_error_stays_in_range():
    # Without dephasing (nu = 1) the optimum is never wrong (exact value 0);
    # the cond_err and rel_err cells used to round to about -1e-12.
    text = BASE.replace("T2_star_us  = 0.4", "T2_star_us  = 1e12")
    cfg = sweep.parse_config_text(text.replace("b0_uT       = 50", "b0_uT       = 1"))
    for r in sweep.run_sweep(cfg):
        assert 0.0 <= r.cond_err <= 1e-9 and 0.0 <= r.rel_err <= 1.0


def test_limit_behavior_past_five_t2():
    # grid extends past 5*T2*; emitted confidences settle at max(eta0, eta1)
    for name in ("static_single_b50.cfg", "ens_static_b50.cfg"):
        cfg = sweep.load_config(str(CONFIG_DIR / name))
        t2 = cfg.T2_star_us
        assert cfg.grid_stop >= 5 * t2
        last = sweep.run_sweep(cfg)[-1]
        assert abs(last.c0_max - 0.5) <= 1e-3
        assert abs(last.c1_max - 0.5) <= 1e-3


def test_threshold_columns(tmp_path):
    plain = sweep.parse_config_text(BASE)
    capped = sweep.parse_config_text(BASE + "p_inc_threshold = 0.6\n")
    rows_plain = sweep.run_sweep(plain)
    rows_capped = sweep.run_sweep(capped)
    assert all(r.c0_thresh is None and r.p_inc_thresh is None for r in rows_plain)
    for r in rows_capped:
        assert r.p_inc_thresh is not None
        assert r.p_inc_thresh <= 0.6 + 1e-12
        if r.p_inc_opt > 0.6:
            assert r.p_inc_thresh == pytest.approx(0.6, abs=1e-12)
    text = sweep.rows_to_csv(rows_plain)
    assert ",NA,NA,NA," in text.splitlines()[1]


def test_pulsed_beats_static_at_matched_time():
    cfg = sweep.load_config(str(CONFIG_DIR / "cpmg_single_sigma0p2.cfg"))
    pulsed = sweep.run_sweep(cfg)
    static_cfg = sweep.load_config(str(CONFIG_DIR / "static_single_b1.cfg"))
    for row in pulsed[:40]:
        t_match = row.axis / (2.0 * cfg.f_MHz)
        static_row = sweep.evaluate_point(static_cfg, t_match)
        assert row.c0_max > static_row.c0_max


def test_csv_golden_determinism_and_threads(tmp_path, monkeypatch):
    cfg_path = make_cfg(tmp_path, BASE + "out = run.csv\n")
    outs = []
    for threads in ("1", "4"):
        for rep in range(2):
            monkeypatch.setenv("MCMAG_THREADS", threads)
            out = tmp_path / f"run_{threads}_{rep}.csv"
            rc = cli.main(["sweep", cfg_path, "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
    assert len({o for o in outs}) == 1


def test_cli_exit_codes(tmp_path, capsys):
    bad_cfg = make_cfg(tmp_path, BASE + "bogus = 1\n", name="bad.cfg")
    assert cli.main(["sweep", bad_cfg]) == 2
    assert cli.main(["sweep", make_cfg(tmp_path, BASE, name="no_out.cfg")]) == 2
    assert "error: no output path: set 'out' in the config" in capsys.readouterr().err
    missing = str(tmp_path / "absent.cfg")
    assert cli.main(["sweep", missing]) == 1
    ok_cfg = make_cfg(tmp_path, BASE + f"out = {tmp_path}/o.csv\n", name="ok.cfg")
    assert cli.main(["sweep", ok_cfg]) == 0
    capsys.readouterr()


@pytest.mark.parametrize("command", ["sweep", "neumark", "validate", "plot"])
def test_cli_input_that_is_not_utf8_is_a_config_error(tmp_path, capsys, command):
    # A byte that starts no UTF-8 sequence at byte offset 25: exit 2, one
    # message naming the file and the offset, and no output written.
    path = tmp_path / "bad.in"
    path.write_bytes(b"scenario = static_single\n\xff\xfe\n")
    out = tmp_path / "out.txt"
    assert cli.main([command, str(path), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {path}: not UTF-8 text at byte 25\n"
    assert captured.out == "" and not out.exists()
    with pytest.raises(ConfigError, match="not UTF-8 text at byte 25"):
        sweep.load_config(str(path))


def test_cli_neumark_dump(tmp_path, capsys):
    cfg = make_cfg(
        tmp_path,
        BASE + "point = 0.2\n",
        name="neu.cfg",
    )
    assert cli.main(["neumark", cfg]) == 0
    out = capsys.readouterr().out
    assert "born_residual" in out
    residual = float(out.split("born_residual=")[1].splitlines()[0])
    assert residual < 1e-12
    assert "unitarity_residual" in out
    assert "two-level factors" in out


def test_cli_neumark_negative_point_exit_code(tmp_path, capsys):
    # Used to exit 3 with "time must be >= 0", which does not name the key.
    cfg = make_cfg(tmp_path, BASE + "point = -1\n", name="neu_neg.cfg")
    assert cli.main(["neumark", cfg]) == 2
    assert "'point'" in capsys.readouterr().err


def test_cli_neumark_refuses_p_inc_threshold(tmp_path, capsys):
    # A capped measurement is a mixture, not rank one, so it has no projective
    # extension; the key is refused by name before anything is written.  The
    # caps: 0 (the minimum-error measurement), one that binds, and one above
    # this point's p_inc_opt = 0.4964 (which would leave the optimum as it is).
    shipped = (CONFIG_DIR / "neumark_static_single.cfg").read_text(encoding="utf-8")
    for cap in ("0", "0.2", "0.5"):
        cfg = make_cfg(tmp_path, shipped + f"p_inc_threshold = {cap}\n", name="neu_cap.cfg")
        out = tmp_path / f"dump_{cap}.txt"
        assert cli.main(["neumark", cfg, "--out", str(out)]) == 2, cap
        captured = capsys.readouterr()
        assert "'p_inc_threshold'" in captured.err, cap
        assert captured.out == "" and not out.exists(), cap


def test_cli_validate_zero_coupling_exact(tmp_path, capsys):
    cfg = make_cfg(
        tmp_path,
        """
scenario    = static_single
b0_uT       = 50
T2_star_us  = 0.4
p           = 2
kappa_per_us = 0
tau_c_us    = 25
grid_start  = 0.05
grid_stop   = 0.4
grid_points = 5
seed        = 1
n_traj      = 200
shots       = 2000
""",
        name="val0.cfg",
    )
    assert cli.main(["validate", cfg]) == 0
    out = capsys.readouterr().out
    assert "RESULT: PASS" in out
    for line in out.splitlines():
        if line.startswith("nu_free["):
            assert "z=+0.000" in line


def test_cli_validate_report(tmp_path, capsys):
    cfg = make_cfg(
        tmp_path,
        """
scenario    = static_single
b0_uT       = 50
T2_star_us  = 0.4
p           = 2
kappa_per_us = 3.6
tau_c_us    = 25
grid_start  = 0.05
grid_stop   = 0.2
grid_points = 3
seed        = 77
n_traj      = 4000
shots       = 200000
""",
        name="val.cfg",
    )
    rc = cli.main(["validate", cfg, "--out", str(tmp_path / "report.txt")])
    out = capsys.readouterr().out
    assert rc == 0
    assert "RESULT: PASS" in out
    assert (tmp_path / "report.txt").read_text().startswith("validation report")


def test_cli_validate_exits_3_on_a_failed_check(tmp_path, capsys):
    # The shipped free-decay check with two trajectories and one shot: the
    # Monte Carlo coherence at T = 0.1 lies 13 standard errors off.
    text = (CONFIG_DIR / "validate_static_single.cfg").read_text(encoding="utf-8")
    for key, value in (("seed", "0"), ("n_traj", "2"), ("shots", "1")):
        text = re.sub(rf"^{key}\s*=.*$", f"{key} = {value}", text, flags=re.M)
    cfg = make_cfg(tmp_path, text, name="val_fail.cfg")
    report = tmp_path / "report.txt"
    assert cli.main(["validate", cfg, "--out", str(report)]) == 3
    out = capsys.readouterr().out
    assert out == report.read_text(encoding="utf-8")
    assert "z=+13.450" in out and out.endswith("RESULT: FAIL\n")


@pytest.mark.parametrize(
    "mutation, key",
    [("seed = -1\n", "seed"), ("n_traj = 1\n", "n_traj"), ("shots = 0\n", "shots")],
)
def test_cli_validate_bad_monte_carlo_key_exit_code(tmp_path, capsys, mutation, key):
    cfg = make_cfg(tmp_path, BASE + "kappa_per_us = 3.6\ntau_c_us = 25\n" + mutation)
    assert cli.main(["validate", cfg]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("key", ["kappa_per_us", "tau_c_us"])
def test_cli_validate_rejects_a_bath_the_scenario_never_uses(tmp_path, capsys, key):
    # cpmg_ensemble has no Monte Carlo dephasing check.  With the OU bath
    # keys set, validate used to run six nu_free checks at the off-axis
    # times 0.25, 0.5 and 1 us and report PASS about a bath the sweep
    # never reads.
    text = (CONFIG_DIR / "cpmg_ens_sigma0p2.cfg").read_text(encoding="utf-8")
    bath = {"kappa_per_us": "3.6", "tau_c_us": "25"}
    for both in (False, True):
        added = bath if both else {key: bath[key]}
        cfg = make_cfg(tmp_path, text + "".join(f"{k} = {v}\n" for k, v in added.items()))
        assert cli.main(["validate", cfg, "--out", str(tmp_path / "report.txt")]) == 2
        err = capsys.readouterr().err
        assert ("kappa_per_us" if both else key) in err
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize(
    "given, missing", [("kappa_per_us", "tau_c_us"), ("tau_c_us", "kappa_per_us")]
)
def test_cli_validate_rejects_half_a_bath(tmp_path, capsys, given, missing):
    # With one of the two OU bath keys alone, validate used to skip the
    # bath check without a word, print RESULT: PASS and exit 0.
    value = {"kappa_per_us": "3.6", "tau_c_us": "25"}[given]
    cfg = make_cfg(tmp_path, BASE + f"{given} = {value}\n")
    assert cli.main(["validate", cfg, "--out", str(tmp_path / "report.txt")]) == 2
    assert repr(missing) in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


@pytest.mark.parametrize(
    "key, value", [("b0_uT", "nan"), ("grid_stop", "inf"), ("T2_star_us", "-inf")]
)
def test_cli_sweep_non_finite_key_exit_code(tmp_path, capsys, key, value):
    # A NaN field used to run through and write nan cells (exit 0); an
    # infinite grid end failed on a nan coherence without naming the key.
    cfg = make_cfg(tmp_path, without(key) + f"{key} = {value}\nout = {tmp_path}/o.csv\n")
    assert cli.main(["sweep", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("name", PULSED)
def test_pulsed_double_quantum_rejected_at_parse(name):
    sweep.parse_config_text(scenario_text(name) + "delta_ms = 1\n")
    with pytest.raises(ConfigError) as err:
        sweep.parse_config_text(scenario_text(name) + "delta_ms = 2\n")
    assert "delta_ms" in str(err.value)


BATH = {"kappa_per_us": "tau_c_us", "tau_c_us": "kappa_per_us"}


def with_key(name, key, value):
    """``scenario_text(name)`` with ``key = value``, and the other OU bath
    key at a valid value if ``key`` is one of the two and the scenario
    reads the bath."""
    text = scenario_text(name, drop=key) + f"{key} = {value}\n"
    other = BATH.get(key)
    if other in sweep.SCENARIOS[name].optional:
        text += f"{other} = {REQUIRED_VALUES[other]}\n"
    return text


@pytest.mark.parametrize(
    "name, key, value",
    [(n, k, v) for n in sweep.SCENARIOS for k, v in (("kappa_per_us", "-1"), ("tau_c_us", "0"))],
)
def test_cli_out_of_domain_bath_key_named_at_parse(tmp_path, capsys, name, key, value):
    # The time-axis scenarios used to accept these: sweep exited 0 and
    # validate failed later with "kappa must be >= 0" or "tau_c must be > 0",
    # which name the model parameter and not the key.
    cfg = make_cfg(tmp_path, with_key(name, key, value))
    assert cli.main(["validate", cfg, "--out", str(tmp_path / "report.txt")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "report.txt").exists()


#: The keys that some scenarios read and others do not.
READS = {name: set(s.required + s.optional) for name, s in sweep.SCENARIOS.items()}
DEPENDENT = set.union(*READS.values()) - set.intersection(*READS.values())
#: Values of the scenario-dependent keys; a perturbation takes the first
#: one that the scenario does not use already.
VALUES = {
    "sigma_b_uT": ("0.3",),
    "f_MHz": ("2",),
    "kappa_per_us": ("1.5",),
    "tau_c_us": ("10",),
    "T2_star_us": ("0.7",),
    "p": ("1.5",),
    "s": ("0.3",),
    "T2_us": ("40",),
    "delta_ms": ("2", "1"),
}


def used_value(name, key):
    """The value scenario ``name`` uses for ``key`` when the config leaves it out."""
    default = {f.name: f.default for f in dataclasses.fields(sweep.SweepConfig)}[key]
    return sweep.SCENARIOS[name].defaults.get(key, default)


def other_value(name, key):
    used = used_value(name, key)
    return next(v for v in VALUES[key] if used is None or float(v) != used)


def outputs(text):
    """The sweep CSV of a config, and its validate report at a small Monte Carlo size."""
    cfg = sweep.parse_config_text(text + "n_traj = 50\nshots = 200\n")
    return sweep.rows_to_csv(sweep.run_sweep(cfg)), sweep.validate_report(cfg)[0]


@pytest.mark.parametrize(
    "name, key", [(n, k) for n in sweep.SCENARIOS for k in sorted(DEPENDENT - READS[n])]
)
def test_key_the_scenario_does_not_read_is_refused(tmp_path, capsys, name, key):
    # These used to parse and change no output byte (cpmg_single with p,
    # T2_star_us, s or T2_us; a time-axis scenario with f_MHz, s or T2_us).
    text = scenario_text(name) + f"{key} = {other_value(name, key)}\n"
    message = refusal(scenario_text(name), {key: other_value(name, key)})
    assert repr(key) in message and repr(name) in message
    assert cli.main(["sweep", make_cfg(tmp_path, text + f"out = {tmp_path}/o.csv\n")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize(
    "name, key", [(n, k) for n, s in sweep.SCENARIOS.items() for k in s.optional]
)
def test_optional_key_the_scenario_reads_changes_its_output(name, key):
    # The OU bath keys reach only the validate report; the others the sweep CSV.
    base = with_key(name, key, REQUIRED_VALUES[key]) if key in BATH else scenario_text(name)
    which = int(key in BATH)
    changed = outputs(with_key(name, key, other_value(name, key)))[which]
    assert changed != outputs(base)[which]


@pytest.mark.parametrize(
    "name, key",
    [
        (n, k)
        for n, s in sweep.SCENARIOS.items()
        for k in sorted(DEPENDENT - set(s.required))
        if used_value(n, k) is not None
    ],
)
def test_restating_the_value_a_scenario_uses_changes_nothing(name, key):
    restated = scenario_text(name) + f"{key} = {used_value(name, key):g}\n"
    assert outputs(restated) == outputs(scenario_text(name))


def replaced(text, values):
    """``text`` with ``key = value`` for each item of ``values`` in place of
    any line that sets the key."""
    lines = [line for line in text.splitlines() if line.split("=")[0].strip() not in values]
    return "\n".join(lines + [f"{key} = {value}" for key, value in values.items()]) + "\n"


def typed(values):
    """``key = value`` text items, each value cast as its SweepConfig field parses."""
    return {key: sweep._KEYS[key](value) for key, value in values.items()}


def refusal(base, values):
    """The ConfigError message of valid config text ``base`` changed by
    ``values``, the same whether the config comes from a file, from
    ``SweepConfig`` directly or from ``dataclasses.replace`` of ``base``."""
    text = replaced(base, values)
    fields = typed(dict(map(str.strip, line.split("=", 1)) for line in text.splitlines()))
    builds = (
        lambda: sweep.parse_config_text(text),
        lambda: sweep.SweepConfig(**fields),
        lambda: dataclasses.replace(sweep.parse_config_text(base), **typed(values)),
    )
    messages = set()
    for build in builds:
        with pytest.raises(ConfigError) as err:
            build()
        messages.add(str(err.value))
    assert len(messages) == 1, messages
    return messages.pop()


#: Values outside the domain of each key of sweep.DOMAINS.
OUT_OF_DOMAIN = {
    "grid_points": ("1",),
    "grid_scale": ("cubic",),
    "sigma_b_uT": ("-1",),
    # 1e-310: 1/(2*f_MHz) overflowed and cpmg_switching failed with "flip
    # times must be increasing inside (0, T)", which names no key.  1.7e308:
    # 1/(2*f_MHz) underflowed to 0 and cpmg_single failed with "tau must be
    # > 0", which names no key.
    "f_MHz": ("0", "-1", "1e-310", "1.7e308"),
    "kappa_per_us": ("-1",),
    "tau_c_us": ("0",),
    "T2_star_us": ("0", "-1"),
    "p": ("0", "-1"),
    "s": ("-0.5", "1", "1.5"),
    "T2_us": ("0",),
    "delta_ms": ("0", "3"),
    "eta0": ("0", "1"),
    "p_inc_threshold": ("-0.1", "1.5"),
    "seed": ("-1",),
    "shots": ("0",),
    "n_traj": ("1",),
}


def test_out_of_domain_values_cover_the_domain_table():
    assert OUT_OF_DOMAIN.keys() == sweep.DOMAINS.keys()
    for key, values in OUT_OF_DOMAIN.items():
        test, _ = sweep.DOMAINS[key]
        assert not any(test(sweep._KEYS[key](v)) for v in values)


@pytest.mark.parametrize(
    "name, key, value",
    [
        (n, k, v)
        for n in sweep.SCENARIOS
        for k, values in OUT_OF_DOMAIN.items()
        if k in READS[n] or k not in DEPENDENT
        for v in values
    ],
)
def test_out_of_domain_key_named_at_parse(tmp_path, capsys, name, key, value):
    # The physics keys used to fail through the model checks, naming the
    # model parameter and the scenario but not the key ("scenario
    # 'cpmg_ensemble': ensemble_cpmg requires 0 <= s < 1").
    values = {key: value}
    if BATH.get(key) in READS[name]:
        values[BATH[key]] = REQUIRED_VALUES[BATH[key]]
    text = replaced(scenario_text(name), values)
    assert refusal(scenario_text(name), values).startswith(f"key {key!r} must be ")
    assert cli.main(["sweep", make_cfg(tmp_path, text + f"out = {tmp_path}/o.csv\n")]) == 2
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


#: The CSV columns whose cells are NA or in [0, 1].
PROBABILITIES = [
    c for c in sweep.SweepRow._fields if c not in ("axis", "mu_arg", "rel_err", "branch")
]

#: In-domain values for which a power in a factor formula leaves the float
#: range, or the field phase comes close to its end.
EXTREME = [
    ("static_single", {"T2_star_us": "1e-300"}),
    ("static_single", {"T2_star_us": "0.4", "p": "1000"}),
    ("static_gaussian_single", {"sigma_b_uT": "1e200"}),
    ("cpmg_single", {"kappa_per_us": "1e200"}),
    ("cpmg_single", {"tau_c_us": "1e-300"}),
    ("cpmg_ensemble", {"sigma_b_uT": "0.2", "f_MHz": "1e-200"}),
    ("cpmg_single", {"f_MHz": "8e307"}),  # the pulse spacing is subnormal
    ("static_single", {"b0_uT": "1e307"}),
    ("static_ensemble_dq", {"b0_uT": "1e307"}),
]


@pytest.mark.parametrize(
    "name, values",
    EXTREME,
    ids=[f"{n}-" + ",".join(f"{k}={v}" for k, v in values.items()) for n, values in EXTREME],
)
def test_cli_sweep_extreme_in_domain_values_exit_0(tmp_path, name, values):
    # A power in the factor formula overflowed (OverflowError), or f**2
    # underflowed to 0 (ZeroDivisionError): exit 1 with a traceback.  The
    # factor functions now return the formula's limit.
    out = tmp_path / "o.csv"
    cfg = make_cfg(tmp_path, replaced(scenario_text(name), values))
    assert cli.main(["sweep", cfg, "--out", str(out)]) == 0
    rows = read_rows(out)
    assert len(rows) == 5
    for row in rows:
        cells = {k: float(v) for k, v in row.items() if k != "branch" and v != "NA"}
        assert all(math.isfinite(v) for v in cells.values())
        assert all(0.0 <= cells[k] <= 1.0 for k in PROBABILITIES if k in cells)


#: In-domain keys whose field phase leaves the float range on the axis
#: (the grid ends at 40, one case at its neumark point).  The
#: double-quantum field is finite at the default delta_ms = 1 and overflows
#: only at the scenario's delta_ms = 2.
PHASE_OVERFLOW = [
    ("static_single", {"b0_uT": "1e308"}),
    ("static_ensemble_dq", {"b0_uT": "2e307"}),
    ("static_single", {"b0_uT": "1e306", "point": "1e4"}),
    ("cpmg_single", {"b0_uT": "1e308"}),
    ("cpmg_single", {"b0_uT": "1e10", "f_MHz": "1e-300"}),
    ("cpmg_ensemble", {"b0_uT": "-1e308"}),
]


@pytest.mark.parametrize(
    "name, values",
    PHASE_OVERFLOW,
    ids=[f"{n}-" + ",".join(f"{k}={v}" for k, v in values.items()) for n, values in PHASE_OVERFLOW],
)
def test_phase_overflow_names_b0_at_parse(tmp_path, capsys, name, values):
    # The phase -2*pi*gamma*b0*t*delta_ms (or -2*N*gamma*b0/f) overflowed
    # to inf and math.cos raised "ValueError: math domain error": exit 1
    # with a traceback.
    text = replaced(scenario_text(name), values)
    with pytest.raises(ConfigError) as err:
        sweep.parse_config_text(text)
    assert str(err.value).startswith("key 'b0_uT': ")
    out = tmp_path / "o.csv"
    assert cli.main(["sweep", make_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert "'b0_uT'" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name", PULSED)
def test_train_length_overflow_names_f_at_parse(tmp_path, capsys, name):
    # cpmg_single with f_MHz = 3e-309 has a finite 1/(2*f_MHz), but the train
    # N/(2*f_MHz) overflowed at N = 8: cpmg_switching put the second flip at
    # inf and run_sweep failed with "flip times must be increasing inside
    # (0, T)", which names no key.
    grid = {"grid_stop": "8", "b0_uT": "0"}
    text = replaced(scenario_text(name), {**grid, "f_MHz": "3e-309"})
    with pytest.raises(ConfigError) as err:
        sweep.parse_config_text(text)
    assert str(err.value).startswith("key 'f_MHz': ")
    out = tmp_path / "o.csv"
    assert cli.main(["sweep", make_cfg(tmp_path, text), "--out", str(out)]) == 2
    assert "'f_MHz'" in capsys.readouterr().err
    assert not out.exists()
    near = replaced(scenario_text(name), {**grid, "f_MHz": "1e-300"})
    assert cli.main(["sweep", make_cfg(tmp_path, near), "--out", str(out)]) == 0
    assert len(read_rows(out)) == 4


def test_zline_infinite_std_err_fails():
    # With std_err = inf, z reads 0 whatever was observed; such a check
    # tests nothing and must not pass.
    line, ok = sweep._zline("nu_free[T=0.1]", 0.937, 0.999, math.inf)
    assert not ok
    assert line.endswith("FAIL")


def test_validate_tiny_inconclusive_rate_passes(capsys):
    # A truly tiny analytic inconclusive rate can legitimately produce
    # zero observed counts; the consistency check must not read that as
    # an infinite-sigma failure.
    cfg = sweep.parse_config_text(
        """
scenario    = gaussian_ensemble
b0_uT       = 25
sigma_b_uT  = 25
T2_star_us  = 0.4
p           = 1
grid_start  = 0.01
grid_stop   = 2.0
grid_points = 9
seed        = 3
shots       = 50000
"""
    )
    report, ok = sweep.validate_report(cfg)
    assert ok, report
    assert "P_inc" in report


def test_cli_plot_svg(tmp_path, capsys):
    cfg_path = make_cfg(tmp_path, BASE + "p_inc_threshold = 0.6\nout = p.csv\n")
    csv_path = tmp_path / "p.csv"
    assert cli.main(["sweep", cfg_path, "--out", str(csv_path)]) == 0
    assert cli.main(["plot", str(csv_path)]) == 0
    svg = (tmp_path / "p.svg").read_bytes()
    assert svg.startswith(b"<svg")
    assert b"polyline" in svg
    assert cli.main(["plot", str(csv_path)]) == 0
    assert (tmp_path / "p.svg").read_bytes() == svg
    # An extension-less path in a dotted directory keeps its directory: the
    # SVG went to runs.svg beside runs.v2.
    dotted = tmp_path / "runs.v2"
    dotted.mkdir()
    (dotted / "sweep").write_bytes(csv_path.read_bytes())
    assert cli.main(["plot", str(dotted / "sweep")]) == 0
    assert (dotted / "sweep.svg").read_bytes().startswith(b"<svg")
    assert not (tmp_path / "runs.svg").exists()
    capsys.readouterr()


def test_cli_plot_escapes_the_title(tmp_path, capsys):
    # The CSV path is the title; written raw, its "&" and "<" made an SVG
    # that no XML parser reads.
    folder = tmp_path / "runs&co<1>"
    folder.mkdir()
    csv_path = folder / "sweep.csv"
    csv_path.write_text(sweep.rows_to_csv(sweep.run_sweep(sweep.parse_config_text(BASE))))
    assert cli.main(["plot", str(csv_path)]) == 0
    svg = xml.dom.minidom.parse(str(folder / "sweep.svg"))
    title = svg.getElementsByTagName("text")[0].firstChild.data
    assert title.startswith(f"{csv_path} [")
    capsys.readouterr()


def per_cell_csv(rows):
    """The writer that formatted one cell per call, kept as the reference."""
    lines = [sweep.CSV_HEADER]
    for *cells, branch in rows:
        lines.append(",".join(["NA" if x is None else format(x, ".17g") for x in cells] + [branch]))
    return "\n".join(lines) + "\n"


def test_csv_writer_matches_the_per_cell_reference():
    # None in each nullable column, then the values where ".17g" prints a
    # sign, a subnormal, the largest float and switches to an exponent.
    rows = sweep.run_sweep(sweep.parse_config_text(BASE + "p_inc_threshold = 0.6\n"))[:3]
    numeric = sweep.SweepRow._fields[:-1]
    nullable = [f for f, hint in sweep.SweepRow.__annotations__.items() if "None" in str(hint)]
    assert len(nullable) == 5
    rows += [rows[0]._replace(**{field: None}) for field in nullable]
    rows += [rows[1]._replace(**dict.fromkeys(nullable))]
    for x in (-0.0, 5e-324, 1.7976931348623157e308, 1e16, 1e17, 0.1):
        rows.append(rows[2]._replace(**dict.fromkeys(numeric, x)))
    for table in ([], rows[:1], rows):
        assert sweep.rows_to_csv(table) == per_cell_csv(table)
    assert sweep.rows_to_csv([]) == sweep.CSV_HEADER + "\n"


@pytest.mark.parametrize(
    "csv_text, fragment",
    [
        ("axis,c0_max\nabc,0.5\n", "line 2, column 'axis'"),
        ("axis,c0_max,c1_max\n0,0.5,0.5\n1,0.5\n", "line 3: 2 cells, the header has 3"),
        ("axis,c0_max\n0,0.5\n1,nan\n", "line 3, column 'c0_max'"),
        ("axis,c0_max\n0,abc\nxyz,0.5\n", "line 2, column 'c0_max'"),
        ("axis,c0_max,c1_max\n0,abc,0.5\n1,0.5\n", "line 2, column 'c0_max'"),
        ("axis,c0_max,c0_thresh\n0,0.5,NA\n1,abc,0.5\n",
         "line 3, column 'c0_max': not a finite number: 'abc'"),
        ("axis,c0_max,c0_thresh,c1_thresh\n0,0.5,0.5,0.5\n1,0.5,NA,abc\n",
         "line 3, column 'c1_thresh': not a finite number: 'abc'"),
        ("x,c0_max\n0,0.5\n", "not a sweep CSV (missing header)"),
        ("axis,c0_max\n", "CSV has no data rows"),
    ],
    ids=["unparsable", "short_row", "nan", "bad_cell_before_bad_axis", "bad_cell_before_short_row",
         "bad_row_after_NA", "NA_before_bad_cell", "no_header", "header_only"],
)
def test_cli_plot_malformed_csv_named(tmp_path, capsys, csv_text, fragment):
    # These used to exit 1 with a ValueError or IndexError traceback, or,
    # for the nan cell, write points="60.00,nan ..." into the SVG.
    path = tmp_path / "bad.csv"
    path.write_text(csv_text, encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        sweep.plot_csv(csv_text)
    assert fragment in str(err.value)
    assert cli.main(["plot", str(path)]) == 2
    assert fragment in capsys.readouterr().err
    assert not (tmp_path / "bad.svg").exists()


def test_validate_deterministic_bytes(tmp_path, monkeypatch, capsys):
    cfg = make_cfg(
        tmp_path,
        """
scenario    = static_single
b0_uT       = 50
T2_star_us  = 0.4
p           = 2
kappa_per_us = 3.6
tau_c_us    = 25
grid_start  = 0.05
grid_stop   = 0.2
grid_points = 3
seed        = 13
n_traj      = 1500
shots       = 50000
""",
        name="valdet.cfg",
    )
    blobs = []
    for threads in ("1", "3"):
        monkeypatch.setenv("MCMAG_THREADS", threads)
        out = tmp_path / f"rep_{threads}.txt"
        assert cli.main(["validate", cfg, "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    capsys.readouterr()


def test_every_shipped_config_parses():
    names = sorted(p.name for p in CONFIG_DIR.glob("*.cfg"))
    assert len(names) >= 20
    for name in names:
        cfg = sweep.load_config(str(CONFIG_DIR / name))
        assert cfg.scenario in sweep.SCENARIOS


def test_a_config_built_in_python_is_checked_like_a_file():
    # Checking again changes nothing.
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = sweep.load_config(str(path))
        assert sweep.SweepConfig(**dataclasses.asdict(cfg)) == cfg
    # A config built in Python used to skip every check: without the
    # scenario defaults it failed with "'>' not supported between instances
    # of 'NoneType' and 'int'", and these ran or failed without the key.
    values = dict(scenario="static_single", T2_star_us="1", grid_start="0", grid_stop="2")
    text = replaced("grid_points = 5", values)
    built = sweep.SweepConfig(**typed({**values, "grid_points": "5"}))
    assert built == sweep.parse_config_text(text) and (built.p, built.delta_ms) == (2.0, 1)
    assert sweep.run_sweep(built) == sweep.run_sweep(sweep.parse_config_text(text))
    only_zero = "key 'sigma_b_uT': scenario 'static_single' takes only sigma_b_uT = 0"
    assert refusal(text, {"p": "2", "delta_ms": "1", "sigma_b_uT": "3"}) == only_zero
    assert refusal(text, {"sigma_b_uT": "7"}) == only_zero
    assert refusal(text, {"T2_star_us": "-1"}) == "key 'T2_star_us' must be > 0"
    assert refusal(text, {"scenario": "nope"}) == "unknown scenario 'nope'"


PYTHON_BUILT = dict(scenario="static_single", T2_star_us=1.0, grid_start=0.0, grid_stop=2.0,
                    grid_points=5)


@pytest.mark.parametrize(
    "key, value",
    [("grid_points", 2.5), ("grid_points", "5"), ("T2_star_us", "1"), ("grid_start", None),
     ("scenario", ["static_single"]), ("grid_scale", 1), ("seed", 0.0), ("out", 3)],
)
def test_a_wrongly_typed_value_from_python_names_the_key(key, value):
    # These used to pass every check and fail in run_sweep with a bare
    # TypeError ("'float' object cannot be interpreted as an integer",
    # "'>=' not supported between instances of 'str' and 'int'", ...).
    want = f"key {key!r} must be "
    with pytest.raises(ConfigError, match=re.escape(want)):
        sweep.SweepConfig(**{**PYTHON_BUILT, key: value})
    with pytest.raises(ConfigError, match=re.escape(want)):
        dataclasses.replace(sweep.SweepConfig(**PYTHON_BUILT), **{key: value})


@pytest.mark.parametrize(
    "key, kind", [("seed", "int"), ("delta_ms", "int"), ("grid_points", "int"),
                  ("T2_star_us", "float"), ("b0_uT", "float")],
)
def test_a_bool_is_refused_for_a_numeric_key(key, kind):
    # bool is an int: SweepConfig(..., seed=True, delta_ms=True) used to run.
    want = f"key {key!r} must be {kind}, got True"
    with pytest.raises(ConfigError, match=re.escape(want)):
        sweep.SweepConfig(**{**PYTHON_BUILT, key: True})
    with pytest.raises(ConfigError, match=re.escape(want)):
        dataclasses.replace(sweep.SweepConfig(**PYTHON_BUILT), **{key: True})


def test_an_int_is_accepted_for_a_float_key():
    ints = {**PYTHON_BUILT, "T2_star_us": 1, "grid_start": 0, "grid_stop": 2, "b0_uT": 50}
    assert sweep.SweepConfig(**ints) == sweep.SweepConfig(**{**PYTHON_BUILT, "b0_uT": 50.0})


def test_all_shipped_configs_run_within_budget(tmp_path):
    # every figure family ships a config; the whole batch must complete
    # comfortably inside ten minutes
    import time

    t0 = time.time()
    for path in sorted(CONFIG_DIR.glob("*.cfg")):
        cfg = sweep.load_config(str(path))
        out = tmp_path / (path.stem + ".out")
        if path.stem.startswith("validate"):
            report, ok = sweep.validate_report(cfg)
            assert ok, f"{path.name}:\n{report}"
        elif path.stem.startswith("neumark"):
            text = sweep.neumark_report(cfg)
            assert "born_residual" in text
        else:
            rows = sweep.run_sweep(cfg)
            out.write_text(sweep.rows_to_csv(rows), encoding="utf-8")
            assert len(rows) >= 2
    elapsed = time.time() - t0
    assert elapsed < 600.0, f"shipped configs took {elapsed:.0f}s"


def test_installed_entry_point_runs(tmp_path):
    cfg_path = make_cfg(tmp_path, BASE + "out = entry.csv\n")
    proc = subprocess.run(
        [sys.executable, "-m", "mcmag.cli", "sweep", cfg_path, "--out", str(tmp_path / "e.csv")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "e.csv").exists()

import csv
import io
import math
import os
import subprocess
import sys
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
    ],
)
def test_named_config_errors(mutation, fragment):
    with pytest.raises(ConfigError) as err:
        sweep.parse_config_text(BASE + mutation)
    assert fragment in str(err.value)


def test_missing_scenario_field_named():
    text = BASE.replace("T2_star_us  = 0.4\n", "")
    with pytest.raises(ConfigError) as err:
        sweep.parse_config_text(text)
    assert "T2_star_us" in str(err.value)


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
    missing = str(tmp_path / "absent.cfg")
    assert cli.main(["sweep", missing]) == 1
    ok_cfg = make_cfg(tmp_path, BASE + f"out = {tmp_path}/o.csv\n", name="ok.cfg")
    assert cli.main(["sweep", ok_cfg]) == 0
    capsys.readouterr()


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


def test_cli_neumark_rank_error_exit_code(tmp_path, capsys):
    # capping the inconclusive rate makes the conclusive operators rank
    # two, which the projective extension must refuse by contract
    cfg = make_cfg(
        tmp_path,
        BASE + "point = 0.05\np_inc_threshold = 0.6\n",
        name="neu_rank2.cfg",
    )
    assert cli.main(["neumark", cfg]) == 3
    assert "rank" in capsys.readouterr().err


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


@pytest.mark.parametrize("mutation, key", [("seed = -1\n", "seed"), ("n_traj = 1\n", "n_traj")])
def test_cli_validate_bad_monte_carlo_key_exit_code(tmp_path, capsys, mutation, key):
    cfg = make_cfg(tmp_path, BASE + "kappa_per_us = 3.6\ntau_c_us = 25\n" + mutation)
    assert cli.main(["validate", cfg]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value", [("b0_uT", "nan"), ("grid_stop", "inf"), ("T2_star_us", "-inf")]
)
def test_cli_sweep_non_finite_key_exit_code(tmp_path, capsys, key, value):
    # A NaN field used to run through and write nan cells (exit 0); an
    # infinite grid end failed on a nan coherence without naming the key.
    body = "".join(f"{line}\n" for line in BASE.splitlines() if not line.startswith(key))
    cfg = make_cfg(tmp_path, body + f"{key} = {value}\nout = {tmp_path}/o.csv\n")
    assert cli.main(["sweep", cfg]) == 2
    assert key in capsys.readouterr().err
    assert not (tmp_path / "o.csv").exists()


@pytest.mark.parametrize("name", ["cpmg_single_sigma0p2", "cpmg_ens_sigma0p2"])
def test_pulsed_double_quantum_rejected_at_parse(name):
    text = (CONFIG_DIR / f"{name}.cfg").read_text(encoding="utf-8")
    with pytest.raises(ConfigError) as err:
        sweep.parse_config_text(text + "delta_ms = 2\n")
    assert "delta_ms" in str(err.value)


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
    capsys.readouterr()


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

"""Open crashes of in-domain ``cpmg_single`` configs (ROADMAP item 1, cases
B-D).  Each test asserts README's contract for a sweep: exit 0 with finite
cells in range, or exit 2 naming a key.  The markers pin today's failure;
item 1's fix of the segment recursion removes them."""

import math
import re

import pytest

from mcmag import cli

from test_sweep_cli import PROBABILITIES, read_rows


def meets_the_contract(tmp_path, capsys, kappa, tau_c, f):
    cfg = tmp_path / "case.cfg"
    cfg.write_text(
        "scenario = cpmg_single\nb0_uT = 1\n"
        f"kappa_per_us = {kappa}\ntau_c_us = {tau_c}\nf_MHz = {f}\n"
        "grid_start = 2\ngrid_stop = 50\ngrid_points = 5\n",
        encoding="utf-8",
    )
    out = tmp_path / "o.csv"
    code = cli.main(["sweep", str(cfg), "--out", str(out)])
    if code == 2:
        assert re.search(r"key '\w+'", capsys.readouterr().err), "exit 2 names no key"
        return
    assert code == 0
    for row in read_rows(out):
        cells = {k: float(v) for k, v in row.items() if k != "branch" and v != "NA"}
        assert all(math.isfinite(v) for v in cells.values())
        assert all(0.0 <= cells[k] <= 1.0 for k in PROBABILITIES if k in cells)


@pytest.mark.xfail(raises=ZeroDivisionError, strict=True,
                   reason="rate**2 underflows to 0 in the segment recursion "
                          "(ROADMAP item 1, case B)")
def test_case_b_rate_squared_underflows(tmp_path, capsys):
    meets_the_contract(tmp_path, capsys, "2.2e-308", "1.7e308", "1e150")


@pytest.mark.xfail(raises=AssertionError, strict=True,
                   reason="the echo train's cancellation makes W < 0 and nu = inf, "
                          "refused naming no key (ROADMAP item 1, case C)")
def test_case_c_echo_cancellation_gives_nu_inf(tmp_path, capsys):
    meets_the_contract(tmp_path, capsys, "1e150", "1e150", "1e-12")


@pytest.mark.xfail(raises=OverflowError, strict=True,
                   reason="a tiny negative W overflows the coherence fallback "
                          "(ROADMAP item 1, case D)")
def test_case_d_negative_w_overflows(tmp_path, capsys):
    meets_the_contract(tmp_path, capsys, "1e300", "1e-6", "1e300")

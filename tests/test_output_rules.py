"""Exact output of the layers that format text: the CLI's help and usage,
the SVG frame on rows out of axis order or on one axis value, the
free-decay coherence at t = 0, and the writers' number formats.  The
expected texts were recorded before each of these was written as one
rule, and must not move."""

import importlib
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from mcmag import channel, cli, sweep
from mcmag.plot import plot_csv

ROOT = Path(__file__).resolve().parent.parent

SUBCOMMAND_HELP = """\
usage: mcmag {name} [-h] [--out OUT] {arg}

positional arguments:
  {arg}

options:
  -h, --help  show this help message and exit
  --out OUT   {out_help}
"""

HELP = {
    (): """\
usage: mcmag [-h] {sweep,neumark,validate,plot} ...

Maximum-confidence magnetic-field detection toolkit

positional arguments:
  {sweep,neumark,validate,plot}
    sweep               run a sweep config, write CSV
    neumark             dump the projective extension
    validate            Monte Carlo consistency checks
    plot                render a sweep CSV to SVG

options:
  -h, --help            show this help message and exit
""",
    ("sweep",): SUBCOMMAND_HELP.format(
        name="sweep", arg="config", out_help="override the config's out path"),
    ("neumark",): SUBCOMMAND_HELP.format(
        name="neumark", arg="config", out_help="write the dump here instead of stdout"),
    ("validate",): SUBCOMMAND_HELP.format(
        name="validate", arg="config", out_help="also write the report here"),
    ("plot",): SUBCOMMAND_HELP.format(
        name="plot", arg="csv", out_help="SVG path (default: csv path with .svg)"),
}


@pytest.mark.parametrize("command", sorted(HELP), ids=lambda c: " ".join(c) or "mcmag")
def test_help_text_is_unchanged(command, monkeypatch, capsys):
    # argparse wraps to the terminal width, which it reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        cli.main([*command, "--help"])
    assert done.value.code == 0
    out, err = capsys.readouterr()
    assert (out, err) == (HELP[command], "")


def test_missing_subcommand_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as done:
        cli.main([])
    assert done.value.code == 2
    assert capsys.readouterr() == (
        "",
        "usage: mcmag [-h] {sweep,neumark,validate,plot} ...\n"
        "mcmag: error: the following arguments are required: command\n",
    )


SVG_HEAD = (
    '<svg xmlns="http://www.w3.org/2000/svg" width="800" height="520" viewBox="0 0 800 520">\n'
    '<rect width="800" height="520" fill="white"/>\n'
)


def legend(columns):
    colors = {"c0_max": "#c0392b", "c1_max": "#2980b9", "p_inc_opt": "#7f8c8d",
              "c0_thresh": "#e67e22", "c1_thresh": "#16a085"}
    return "".join(
        f'<text x="620" y="{36 + 14 * k}" fill="{colors[c]}" font-family="monospace" '
        f'font-size="12">{c}</text>\n' for k, c in enumerate(columns)
    )


def test_svg_of_rows_out_of_axis_order():
    # The frame's right edge is the pixel of the largest axis value, which
    # is not the last row; two axis values differ in their last bit.
    csv_text = (
        "axis,c0_max,p_inc_opt,c1_max\n"
        "0.7,0.9,0.1,0.8\n"
        "0.1,0.6,NA,0.55\n"
        "0.30000000000000004,0.65,0.3,0.6\n"
        "0.3,0.7,0.2,NA\n"
    )
    assert plot_csv(csv_text, title="a < b") == (
        SVG_HEAD
        + '<rect x="60.00" y="30.00" width="720.00" height="450.00" fill="none" '
        'stroke="#333" stroke-width="1"/>\n'
        '<polyline points="780.00,75.00 60.00,210.00 300.00,187.50 300.00,165.00" '
        'fill="none" stroke="#c0392b" stroke-width="1.5"/>\n'
        '<polyline points="780.00,120.00 60.00,232.50 300.00,210.00" '
        'fill="none" stroke="#2980b9" stroke-width="1.5"/>\n'
        '<polyline points="780.00,435.00 300.00,345.00 300.00,390.00" '
        'fill="none" stroke="#7f8c8d" stroke-width="1.5"/>\n'
        '<text x="60" y="20" font-family="monospace" font-size="13">'
        "a &lt; b [0.1 .. 0.7]</text>\n"
        + legend(["c0_max", "c1_max", "p_inc_opt"])
        + "</svg>\n"
    )


def test_svg_of_an_axis_with_one_value():
    # Pulse counts snap to even integers >= 2, so this grid is the one count 2:
    # a frame of width 0 and no curve (a curve needs two points).
    cfg = sweep.parse_config_text(
        "scenario = cpmg_ensemble\nT2_us = 100\ns = 0.5\nf_MHz = 1\nb0_uT = 5\n"
        "grid_start = 2\ngrid_stop = 2.5\ngrid_points = 3\np_inc_threshold = 0.5\n"
    )
    csv_text = sweep.rows_to_csv(sweep.run_sweep(cfg))
    assert [line.split(",")[0] for line in csv_text.splitlines()] == ["axis", "2"]
    assert plot_csv(csv_text, title="one count") == (
        SVG_HEAD
        + '<rect x="60.00" y="30.00" width="0.00" height="450.00" fill="none" '
        'stroke="#333" stroke-width="1"/>\n'
        '<text x="60" y="20" font-family="monospace" font-size="13">one count [2 .. 2]</text>\n'
        + legend(["c0_max", "c1_max", "p_inc_opt", "c0_thresh", "c1_thresh"])
        + "</svg>\n"
    )


@pytest.mark.parametrize(
    "T2_star, p",
    list(itertools.product((5e-324, 1e-300, 1.0, 1e300, float("inf")),
                           (5e-324, 1e-3, 1.0, 2.0, 1e300))),
)
@pytest.mark.parametrize("t", [0.0, -0.0])
def test_free_decay_is_exactly_one_at_time_zero(T2_star, p, t):
    nu = channel.nu_stretched(T2_star, p, t)
    assert type(nu) is float and nu == 1.0 and nu.hex() == "0x1.0000000000000p+0"


def adversarial_floats(seed):
    """Seeded floats where a number format could slip: every bit pattern, the
    subnormals, signed zeros, the neighbours of 1e-5 and 1e-4 (where ``.17g``
    turns to exponent form) and of 1e16 and 1e17, and ``.xx5`` decimal
    halfway points of ``.2f``."""
    rng = np.random.default_rng(seed)
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, math.inf, -math.inf,
             math.nan, 1.7976931348623157e308, 0.125, 0.375, 2.5, 1.005, 2.675, 0.285]
    for x in (1e-5, 1e-4, 1e16, 1e17, 2.2250738585072014e-308):
        edges += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf), -x]
    halves = (rng.integers(0, 100_000, 2000) / 100.0 + 0.005).tolist()
    return [
        *edges,
        *halves,
        *[math.nextafter(x, d) for x in halves[:500] for d in (0.0, math.inf)],
        *rng.integers(0, 2**64, 4000, dtype=np.uint64).view(np.float64).tolist(),
        *(rng.uniform(-1, 1, 2000) * 10.0 ** rng.integers(-320, 308, 2000)).tolist(),
        *rng.uniform(0.0, 800.0, 2000).tolist(),
    ]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_unbound_float_format_writes_the_earlier_text(seed):
    # rows_to_csv wrote format(x, ".17g") and plot_csv "%.2f" % x.
    xs = adversarial_floats(seed)
    assert sum(0.0 < abs(x) < 2.2250738585072014e-308 for x in xs) > 10
    assert [float.__format__(x, ".17g") for x in xs] == [format(x, ".17g") for x in xs]
    assert [float.__format__(x, ".2f") for x in xs] == ["%.2f" % x for x in xs]


@pytest.fixture(scope="module")
def sweep_rows():
    """Rows of every sweep config, shipped (seed 0) and jittered (seeds 1-9)."""
    with pytest.MonkeyPatch.context() as mp:
        mp.syspath_prepend(str(ROOT / "perfbench"))
        inputs = importlib.import_module("inputs")
        texts = {(seed, name): inputs.jittered_configs(seed)[name] for seed in range(10)
                 for name in inputs.sweep_names(inputs.shipped_configs())}
    assert len(texts) == 10 * 24
    return {key: sweep.run_sweep(sweep.parse_config_text(text)) for key, text in texts.items()}


def test_every_number_of_a_sweep_row_is_a_float(sweep_rows):
    # The writer formats each number with float.__format__, which takes
    # floats only: SweepRow annotates every number as float.
    for key, rows in sweep_rows.items():
        kinds = {type(x) for row in rows for x in row[:-1]}
        assert kinds <= {float, type(None)} and float in kinds, key
        assert {type(row.branch) for row in rows} == {str}, key


def test_a_row_with_an_int_cell_is_a_type_error():
    row = sweep.SweepRow(1, *[0.5] * 12, "interior")
    with pytest.raises(TypeError, match="float"):
        sweep.rows_to_csv([row])
    assert sweep.rows_to_csv([row._replace(axis=1.0)]).splitlines()[1].startswith("1,0.5,")

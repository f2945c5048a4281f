"""``import mcmag`` loads names on first use, and each CLI subcommand loads only
what it runs: ``mcmag plot`` no numpy, ``mcmag sweep`` no matrix solver,
dilation or Monte Carlo, ``mcmag neumark`` no Monte Carlo."""

import sys
from pathlib import Path

import pytest

import mcmag
from mcmag import sweep

from helpers import run_python

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "static_single_b50_thresh.cfg"
NEUMARK = ROOT / "configs" / "neumark_static_single.cfg"


@pytest.fixture(scope="module")
def sweep_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("plot") / "sweep.csv"
    path.write_text(sweep.rows_to_csv(sweep.run_sweep(sweep.load_config(str(CONFIG)))))
    return path


def test_cli_plot_leaves_numpy_unloaded(sweep_csv):
    svg = sweep_csv.with_name("lazy.svg")
    code = (
        "import sys\n"
        "import mcmag\n"
        "rc = mcmag.cli.main(['plot', sys.argv[1], '--out', sys.argv[2]])\n"
        "print(rc, 'numpy' in sys.modules)\n"
    )
    assert run_python(code, str(sweep_csv), str(svg)).splitlines()[-1] == "0 False"
    expected = sweep.plot_csv(sweep_csv.read_text(), title=str(sweep_csv))
    assert svg.read_bytes() == expected.encode("utf-8")


#: Prints the exit code and which of the matrix solver, qmat, the dilation and
#: the Monte Carlo a CLI call loaded.
LOADED = (
    "import sys\n"
    "import mcmag.cli\n"
    "rc = mcmag.cli.main(sys.argv[1:])\n"
    "names = ('discrim', 'qmat', 'dilation', 'noise_sim')\n"
    "print(rc, [name for name in names if f'mcmag.{name}' in sys.modules])\n"
)


def test_cli_sweep_loads_no_matrix_solver_dilation_or_monte_carlo(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_python(LOADED, "sweep", str(CONFIG), "--out", str(out)).splitlines()[-1] == "0 []"
    want = sweep.rows_to_csv(sweep.run_sweep(sweep.load_config(str(CONFIG))))
    assert out.read_bytes() == want.encode("utf-8")


def test_cli_neumark_loads_no_monte_carlo(tmp_path):
    out = tmp_path / "neumark.txt"
    got = run_python(LOADED, "neumark", str(NEUMARK), "--out", str(out)).splitlines()[-1]
    assert got == "0 ['discrim', 'qmat', 'dilation']"
    assert out.read_bytes() == sweep.neumark_report(sweep.load_config(str(NEUMARK))).encode("utf-8")


def test_every_public_name_is_the_object_its_module_defines():
    assert len(mcmag.__all__) == 34
    assert mcmag.__all__ == sorted(mcmag.__all__)
    for name in mcmag.__all__:
        obj = getattr(mcmag, name)
        assert obj.__module__ == f"mcmag.{mcmag._MODULES[name]}"
        assert getattr(sys.modules[obj.__module__], name) is obj


def test_submodules_star_import_and_unknown_names():
    assert mcmag.sweep is sys.modules["mcmag.sweep"]
    assert mcmag.sweep.plot_csv is sys.modules["mcmag.plot"].plot_csv
    namespace = {}
    exec("from mcmag import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(mcmag.__all__)
    assert set(mcmag.__all__) <= set(dir(mcmag))
    with pytest.raises(AttributeError):
        mcmag.nope
    assert not hasattr(mcmag, "nope")


def test_missing_dependency_raises_its_own_import_error():
    # With numpy blocked, a numpy module names numpy, not an absent
    # attribute; the renderer still loads.
    code = (
        "import sys\n"
        "sys.modules['numpy'] = None\n"
        "import mcmag\n"
        "for name in ('sweep', 'solve_max_confidence'):\n"
        "    try:\n"
        "        getattr(mcmag, name)\n"
        "    except ModuleNotFoundError as exc:\n"
        "        print(name, exc.name)\n"
        "print(mcmag.plot.plot_csv.__name__)\n"
    )
    assert run_python(code).splitlines() == [
        "sweep numpy", "solve_max_confidence numpy", "plot_csv"
    ]

"""Shipped sweep CSVs, the neumark dump, the reduced validate reports and the
benchmark's one-pair API rows against the recorded reference.

``perfbench/reference/seed0.json.gz`` holds the outputs of every shipped
config as recorded when the benchmark was defined.  The neumark dump and
the seeded Monte Carlo must reproduce them exactly, not just within a
tolerance.  The sweep CSVs, which the plane-coordinate kernel now solves
in another arithmetic order, and the ``api_pointwise`` rows must match
them cell by cell within ``checks.REF_TOL`` (1e-12), with identical
branches and NA cells, as the benchmark compares them; a SHA-256 digest
pins the CSVs' own bytes.  The reference holds no SVG: the shipped sweep
SVGs, and the CSVs and SVGs of the benchmark's seeds 1-3, are pinned by
recorded SHA-256 digests.
"""

import dataclasses
import gzip
import hashlib
import importlib
import json
from pathlib import Path

import pytest

import mcmag
from mcmag import sweep

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "perfbench" / "reference" / "seed0.json.gz"


@pytest.fixture(scope="module")
def reference():
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return json.load(fh)


#: The 24 shipped sweep CSVs, in name order, as the plane-coordinate kernel writes them.
SHIPPED_CSV_SHA256 = "3c6451a9215e855841504ba2f6988e9b201fd65305cb3c26b1488737ed51b5fe"


def test_shipped_sweeps_match_reference_within_tolerance(reference, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    checks = importlib.import_module("checks")
    names = sorted(reference["sweep"])
    assert len(names) == 24
    digest = hashlib.sha256()
    for name in names:
        cfg = sweep.load_config(str(ROOT / "configs" / f"{name}.cfg"))
        text = sweep.rows_to_csv(sweep.run_sweep(cfg))
        assert checks.compare_csv(text, reference["sweep"][name], checks.REF_TOL) == [], name
        digest.update(text.encode())
    assert digest.hexdigest() == SHIPPED_CSV_SHA256


def test_neumark_dump_matches_reference_bytes(reference):
    cfg = sweep.load_config(str(ROOT / "configs" / "neumark_static_single.cfg"))
    assert sweep.neumark_report(cfg) == reference["neumark"]


#: The benchmark's reduced Monte Carlo sizes of the two validate configs.
VALIDATE_SIZES = {
    "validate_static_single": {"n_traj": 2000, "shots": 100000},
    "validate_cpmg_single": {"n_traj": 1750, "shots": 100000},
}


@pytest.mark.parametrize("name", sorted(VALIDATE_SIZES))
def test_reduced_validate_reports_match_reference_bytes(reference, name):
    cfg = sweep.load_config(str(ROOT / "configs" / f"{name}.cfg"))
    cfg = dataclasses.replace(cfg, **VALIDATE_SIZES[name])
    assert sweep.validate_report(cfg)[0] == reference["validate"][name]


def test_api_pointwise_rows_match_reference_within_tolerance(reference, monkeypatch):
    # The benchmark's own draws, row format and comparison, so a kernel that
    # breaks the 1e-12 rule fails here before it fails the benchmark.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    checks, inputs, workloads = map(importlib.import_module, ("checks", "inputs", "workloads"))
    api = workloads.ApiPointwise(0, mcmag, None, None)
    api.draws = inputs.pair_draws(0)
    rows = [api.row(fn(False)[0]) for _label, fn in api.ops()]
    assert len(rows) == len(reference["pointwise"]) == 512
    got, want = ("\n".join([api.HEADER, *table]) + "\n" for table in (rows, reference["pointwise"]))
    assert checks.compare_csv(got, want, checks.REF_TOL) == []


#: Recorded before the CSV and SVG writers were rewritten column by column;
#: the rewrite, and the plane-coordinate sweep kernel, keep every byte.
SHIPPED_SVG_SHA256 = "2fd2f9b7d3c45c921693f0197050c269b705932ac26ae726b42a7b1b1ea696c9"
#: Recorded when the sweep moved to the plane-coordinate kernel, whose CSV
#: cells differ from the matrix solver's in the last bits.
JITTERED_FIGURES_SHA256 = "3bc39d4b2fd96a3be2482b8ca84af8babd8611b6abbee2c9862cfa548b98f365"


def figure_digest(configs: dict[str, str], names: list[str], with_csv: bool) -> str:
    """SHA-256 over the SVG (and, with ``with_csv``, first the CSV) of each
    named config in order, each plotted with its name as the title."""
    digest = hashlib.sha256()
    for name in names:
        csv_text = sweep.rows_to_csv(sweep.run_sweep(sweep.parse_config_text(configs[name])))
        if with_csv:
            digest.update(csv_text.encode())
        digest.update(sweep.plot_csv(csv_text, title=name).encode())
    return digest.hexdigest()


def test_shipped_sweep_svgs_match_recorded_digest(reference):
    configs = {name: (ROOT / "configs" / f"{name}.cfg").read_text(encoding="utf-8")
               for name in reference["sweep"]}
    assert figure_digest(configs, sorted(configs), with_csv=False) == SHIPPED_SVG_SHA256


def test_jittered_sweep_figures_match_recorded_digest(monkeypatch):
    # Seeds 1-3 of the benchmark's sweep inputs reach the cap, the NA
    # patterns and values that the shipped configs do not.
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    inputs = importlib.import_module("inputs")
    digest = hashlib.sha256()
    for seed in (1, 2, 3):
        configs = inputs.jittered_configs(seed)
        digest.update(figure_digest(configs, inputs.sweep_names(configs), with_csv=True).encode())
    assert digest.hexdigest() == JITTERED_FIGURES_SHA256

"""Shipped sweep CSVs, the neumark dump and the reduced validate reports,
byte for byte against the recorded reference, and the benchmark's
one-pair API rows within its tolerance.

``perfbench/reference/seed0.json.gz`` holds the outputs of every shipped
config as recorded when the benchmark was defined; the stacked solve and
the seeded Monte Carlo must reproduce them exactly, not just within a
tolerance.  It also holds one row per ``api_pointwise`` draw, which the
benchmark compares cell by cell within ``checks.REF_TOL`` (1e-12).
"""

import dataclasses
import gzip
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


def test_shipped_sweeps_match_reference_bytes(reference):
    names = sorted(reference["sweep"])
    assert len(names) == 24
    for name in names:
        cfg = sweep.load_config(str(ROOT / "configs" / f"{name}.cfg"))
        assert sweep.rows_to_csv(sweep.run_sweep(cfg)) == reference["sweep"][name], name


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

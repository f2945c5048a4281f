"""Shipped sweep CSVs, the neumark dump and the reduced validate reports,
byte for byte against the recorded reference.

``perfbench/reference/seed0.json.gz`` holds the outputs of every shipped
config as recorded when the benchmark was defined; the stacked solve and
the seeded Monte Carlo must reproduce them exactly, not just within a
tolerance.
"""

import dataclasses
import gzip
import json
from pathlib import Path

import pytest

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

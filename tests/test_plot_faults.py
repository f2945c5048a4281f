"""``plot_csv`` on seeded mutations of the shipped sweep CSVs.

The inputs are windows of the CSVs recorded in
``perfbench/reference/seed0.json.gz`` (read only, as ``test_golden`` reads
them), so they do not depend on the kernels that computed them.  Each
window gets one to three mutations: a cell swapped for a number, a
non-number, ``NA`` or an empty string, a cell dropped or added, a blank
line, a renamed or missing header column, or the header alone.  Every SVG
and every message is pinned by one digest, and the fault finder must agree
with the reader on every input.
"""

import gzip
import hashlib
import json
import random
from pathlib import Path

from mcmag import plot
from mcmag.errors import ConfigError

REFERENCE = Path(__file__).resolve().parent.parent / "perfbench" / "reference" / "seed0.json.gz"
N_MUTATIONS = 2000
TOKENS = ("NA", "na", "nan", "NaN", "inf", "-inf", "Infinity", "1e999", "-1e999", "",
          " ", "x", "0.5", " 0.25 ", "+0.75", "-0", "1_0", "0x1p-3", "1e-320", "2", "-3.5e2")
PLOTTED = ("axis", "c0_max", "c1_max", "p_inc_opt", "c0_thresh", "c1_thresh")
#: SHA-256 over every SVG and every message, in draw order.
DIGEST = "ef6a99d2774bceadde50d9fafe386efb7061d7a47273e445ebd0154e20422d8e"


def shipped_csvs():
    with gzip.open(REFERENCE, "rt", encoding="utf-8") as fh:
        return [text for _name, text in sorted(json.load(fh)["sweep"].items())]


def mutate(rng, lines):
    """One mutation of a window's lines, in place."""
    kind = rng.randrange(8)
    row = rng.randrange(1, len(lines)) if len(lines) > 1 else 0
    cells = lines[row].split(",")
    if kind <= 2:  # a cell swapped for a token, twice as often in a plotted column
        header = lines[0].split(",")
        named = [header.index(c) for c in PLOTTED if c in header and header.index(c) < len(cells)]
        i = rng.choice(named) if named and kind else rng.randrange(len(cells))
        cells[i] = rng.choice(TOKENS)
    elif kind == 3:  # a cell dropped
        del cells[rng.randrange(len(cells))]
    elif kind == 4:  # a cell added
        cells.insert(rng.randrange(len(cells) + 1), rng.choice(TOKENS))
    elif kind == 5:  # a blank or whitespace-only line
        lines.insert(rng.randrange(1, len(lines) + 1), rng.choice(("", "  ", "\t")))
        return
    elif kind == 6:  # a header column renamed, or the axis name lost
        header = lines[0].split(",")
        header[rng.randrange(len(header))] = rng.choice(("c0_max", "c0_maxx", "axis", "AXIS", ""))
        lines[0] = ",".join(header)
        return
    else:  # the header alone, or a plotted column all NA
        if rng.random() < 0.2:
            del lines[1:]
            return
        header = lines[0].split(",")
        column = rng.randrange(len(header))
        for k in range(1, len(lines)):
            parts = lines[k].split(",")
            if column < len(parts):
                parts[column] = "NA"
                lines[k] = ",".join(parts)
        return
    lines[row] = ",".join(cells)


def windows(seed=20261019):
    """``N_MUTATIONS`` mutated CSV texts: a window of one to six rows of a
    shipped CSV, in order or reversed, with one to three mutations (none in
    one draw of ten)."""
    rng = random.Random(seed)
    csvs = [text.splitlines() for text in shipped_csvs()]
    for _ in range(N_MUTATIONS):
        source = rng.choice(csvs)
        start = rng.randrange(1, len(source))
        body = source[start:start + rng.randint(1, 6)]
        if rng.random() < 0.2:
            body.reverse()
        lines = [source[0]] + body
        if rng.random() >= 0.1:
            for _ in range(rng.randint(1, 3)):
                mutate(rng, lines)
        yield "\n".join(lines) + rng.choice(("\n", "", "\r\n"))


def outcome(text):
    try:
        return "svg:" + plot.plot_csv(text, "mutated")
    except ConfigError as exc:
        return f"error:{exc}"


def test_plot_csv_outputs_on_mutated_shipped_csvs_are_pinned():
    digest = hashlib.sha256()
    n_svg = 0
    for text in windows():
        out = outcome(text)
        n_svg += out.startswith("svg:")
        digest.update(out.encode("utf-8") + b"\0")
    assert 0 < n_svg < N_MUTATIONS
    assert digest.hexdigest() == DIGEST


def test_fault_finder_faults_exactly_where_the_reader_refuses():
    for text in windows():
        lines = [(n, ln) for n, ln in enumerate(text.splitlines(), start=1) if ln.strip()]
        if len(lines) < 2 or not lines[0][1].startswith("axis,"):
            continue
        header = lines[0][1].split(",")
        cols = {c: header.index(c) for c in ["axis"] + [c for c in PLOTTED[1:] if c in header]}
        values = plot._plot_columns([ln.split(",") for _, ln in lines[1:]], len(header), cols)
        try:
            plot._first_fault(lines[1:], len(header), cols)
            fault = None
        except ConfigError as exc:
            fault = str(exc)
        assert (values is None) == (fault is not None), (text, fault)

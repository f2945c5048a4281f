"""Correctness checks on benchmark outputs.

Every check returns a list of problem strings; an empty list means the
output passed.  A problem that matches a defect already recorded in the
ROADMAP carries ``KNOWN``: it still fails the op, but it does not
make the run incorrect.

The checks use only the outputs, the numbers given to the program, and
the package's independent brute-force oracle ``grid_search_povm``; the
confidences and POVM properties are recomputed here from their
definitions rather than through the solver's own helpers.
"""

from __future__ import annotations

import gzip
import json
import math
from pathlib import Path

import numpy as np

KNOWN = "known defect (ROADMAP item 5, pure-state rounding): "
#: Largest deviation still attributed to rounding on pure-state pairs.
PURE_ROUNDING = 1e-8

CSV_HEADER = (
    "axis,nu,mu_abs,mu_arg,c0_max,c1_max,p_inc_opt,"
    "c0_thresh,c1_thresh,p_inc_thresh,helstrom_err,cond_err,rel_err,branch"
)
COLUMNS = CSV_HEADER.split(",")
PROB_COLUMNS = (
    "c0_max", "c1_max", "p_inc_opt", "c0_thresh", "c1_thresh",
    "p_inc_thresh", "helstrom_err", "cond_err",
)
NA_COLUMNS = ("c0_thresh", "c1_thresh", "p_inc_thresh", "cond_err", "rel_err")
THRESH_COLUMNS = ("c0_thresh", "c1_thresh", "p_inc_thresh")
PLOT_COLUMNS = ("c0_max", "c1_max", "p_inc_opt", "c0_thresh", "c1_thresh")
BRANCHES = ("interior", "boundary_a", "boundary_b", "degenerate")

#: ROADMAP "same behaviour": numeric cells within this of the reference.
REF_TOL = 1e-12
#: Acceptance criterion 1: closed form against the grid oracle.
ORACLE_TOL = 2e-3
#: Acceptance criterion 1: achieved confidence equals c*_max.
IDENTITY_TOL = 1e-9
#: POVM completeness, positivity and the inconclusive cap.
POVM_TOL = 1e-9
#: The sweep's substitute for an underflowed coherence factor.
NU_FLOOR = 1e-300

REFERENCE_PATH = Path(__file__).resolve().parent / "reference" / "seed0.json.gz"


def load_reference() -> dict:
    with gzip.open(REFERENCE_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def save_reference(data: dict) -> None:
    REFERENCE_PATH.parent.mkdir(parents=True, exist_ok=True)
    raw = json.dumps(data, sort_keys=True, indent=0).encode("utf-8")
    with open(REFERENCE_PATH, "wb") as fh:
        # mtime=0 keeps the file bytes a function of the content alone.
        fh.write(gzip.compress(raw, compresslevel=9, mtime=0))


def parse_csv(text: str) -> tuple[list[str], list[list[str]]]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    return lines[0].split(",") if lines else [], [ln.split(",") for ln in lines[1:]]


def is_pure(nu: float | None) -> bool:
    """The no-field state is pure (nu = 1 up to rounding), the ROADMAP item 5 case."""
    return nu is not None and nu >= 1.0 - 1e-12


def cond_err_problem(cond: float, pure: bool, where: str) -> list[str]:
    if 0.0 <= cond <= 1.0:
        return []
    if pure and -PURE_ROUNDING < cond < 0.0:
        return [f"{KNOWN}{where}: cond_err={cond!r}"]
    return [f"{where}: cond_err={cond!r} outside [0, 1]"]


def csv_problems(text: str, grid_points: int, threshold: float | None) -> list[str]:
    """Invariants of one sweep CSV that hold at every seed."""
    if not text.endswith("\n"):
        return ["CSV does not end with a newline"]
    header, rows = parse_csv(text)
    if ",".join(header) != CSV_HEADER:
        return [f"unexpected CSV header {','.join(header)!r}"]
    out: list[str] = []
    if not 2 <= len(rows) <= grid_points:
        out.append(f"{len(rows)} rows for a {grid_points}-point grid")
    prev_axis = -math.inf
    for n, row in enumerate(rows, start=1):
        where = f"row {n}"
        if len(row) != len(COLUMNS):
            out.append(f"{where}: {len(row)} cells")
            continue
        cell = dict(zip(COLUMNS, row))
        if cell["branch"] not in BRANCHES:
            out.append(f"{where}: unknown branch {cell['branch']!r}")
        vals: dict[str, float | None] = {}
        for col in COLUMNS[:-1]:
            if cell[col] == "NA":
                if col not in NA_COLUMNS or (col == "p_inc_thresh" and threshold is not None):
                    out.append(f"{where}: {col} is NA")
                vals[col] = None
                continue
            try:
                x = float(cell[col])
            except ValueError:
                out.append(f"{where}: {col}={cell[col]!r} is not a number")
                vals[col] = None
                continue
            if not math.isfinite(x):
                out.append(f"{where}: {col}={cell[col]} is not finite")
            vals[col] = x
        if threshold is None and any(vals[c] is not None for c in THRESH_COLUMNS):
            out.append(f"{where}: threshold cells without a threshold")
        if vals["axis"] is not None:
            if not vals["axis"] > prev_axis:
                out.append(f"{where}: axis not increasing")
            prev_axis = vals["axis"]
        if vals["nu"] is not None and not 0.0 <= vals["nu"] <= 1.0:
            out.append(f"{where}: nu={vals['nu']!r} outside [0, 1]")
        if vals["mu_abs"] is not None and not 0.0 <= vals["mu_abs"] <= 1.0:
            out.append(f"{where}: mu_abs={vals['mu_abs']!r} outside [0, 1]")
        if vals["mu_arg"] is not None and abs(vals["mu_arg"]) > math.pi:
            out.append(f"{where}: mu_arg={vals['mu_arg']!r} outside [-pi, pi]")
        for col in PROB_COLUMNS:
            x = vals[col]
            if x is None or col == "cond_err":
                continue
            if not 0.0 <= x <= 1.0:
                out.append(f"{where}: {col}={x!r} outside [0, 1]")
        if vals["cond_err"] is not None:
            out += cond_err_problem(vals["cond_err"], is_pure(vals["nu"]), where)
        if vals["helstrom_err"] is not None and vals["helstrom_err"] > 0.5:
            out.append(f"{where}: helstrom_err above 1/2")
        if threshold is not None and vals["p_inc_thresh"] is not None:
            if vals["p_inc_thresh"] > threshold + POVM_TOL:
                out.append(f"{where}: cap {threshold} not met (p_inc={vals['p_inc_thresh']!r})")
            opt = vals["p_inc_opt"]
            binds = opt is not None and opt > threshold
            if binds and abs(vals["p_inc_thresh"] - threshold) > POVM_TOL:
                out.append(f"{where}: capped p_inc {vals['p_inc_thresh']!r} != cap {threshold}")
    return out


def compare_csv(text: str, ref: str, tol: float = REF_TOL) -> list[str]:
    """ROADMAP "same behaviour": numeric cells within tol, labels and NA identical."""
    header, rows = parse_csv(text)
    ref_header, ref_rows = parse_csv(ref)
    if header != ref_header:
        return ["header differs from the reference"]
    if len(rows) != len(ref_rows):
        return [f"{len(rows)} rows, reference has {len(ref_rows)}"]
    out = []
    for n, (row, ref_row) in enumerate(zip(rows, ref_rows), start=1):
        for col, a, b in zip(header, row, ref_row):
            if a == b:
                continue
            if col == "branch" or "NA" in (a, b):
                out.append(f"row {n} {col}: {a} != reference {b}")
                continue
            try:
                dev = abs(float(a) - float(b))
            except ValueError:
                out.append(f"row {n} {col}: {a!r} vs reference {b!r}")
                continue
            if not dev <= tol:
                out.append(f"row {n} {col}: {a} differs from reference {b} by {dev:.3g}")
    return out


def svg_problems(svg: str, csv_text: str) -> list[str]:
    """Structure of a rendered sweep: one polyline per plottable column."""
    if not svg.startswith("<svg ") or not svg.endswith("</svg>\n"):
        return ["SVG is not a complete <svg> document"]
    header, rows = parse_csv(csv_text)
    expected = 0
    for col in PLOT_COLUMNS:
        if col in header:
            k = header.index(col)
            if sum(1 for r in rows if r[k] != "NA") >= 2:
                expected += 1
    got = svg.count("<polyline ")
    return [] if got == expected else [f"SVG has {got} polylines, expected {expected}"]


def _min_eig(m: np.ndarray) -> float:
    return float(np.linalg.eigvalsh(0.5 * (m + m.conj().T))[0])


def povm_problems(pi0, pi1, pi_inc, where: str) -> list[str]:
    out = []
    total = pi0 + pi1 + pi_inc
    dev = float(np.max(np.abs(total - np.eye(2))))
    if not dev <= POVM_TOL:
        out.append(f"{where}: operators miss completeness by {dev:.3g}")
    for name, op in (("pi0", pi0), ("pi1", pi1), ("pi_inc", pi_inc)):
        lam = _min_eig(op)
        if not lam >= -POVM_TOL:
            out.append(f"{where}: {name} has eigenvalue {lam:.3g}")
    return out


def achieved(pi0, pi1, rho0, rho1, eta0) -> tuple[float | None, float | None]:
    """Confidence each detector attains, from the definition; None if it never fires."""
    rho = eta0 * rho0 + (1.0 - eta0) * rho1
    out = []
    for op, rho_j, eta_j in ((pi0, rho0, eta0), (pi1, rho1, 1.0 - eta0)):
        fire = float(np.trace(rho @ op).real)
        out.append(None if fire <= 1e-15 else eta_j * float(np.trace(rho_j @ op).real) / fire)
    return out[0], out[1]


def solution_problems(pair, sol, where: str) -> list[str]:
    """Completeness, positivity, ranges and achieved confidence = c*_max."""
    out = povm_problems(sol.povm.pi0, sol.povm.pi1, sol.povm.pi_inc, where)
    for name in ("c0_max", "c1_max", "p_inc_opt"):
        x = getattr(sol, name)
        if not 0.0 <= x <= 1.0:
            out.append(f"{where}: {name}={x!r} outside [0, 1]")
    if sol.branch not in BRANCHES:
        out.append(f"{where}: unknown branch {sol.branch!r}")
    elif sol.branch != "degenerate":
        pure = is_pure(pair.nu)
        c0, c1 = achieved(sol.povm.pi0, sol.povm.pi1, pair.rho0, pair.rho1, pair.eta0)
        for c, want, name in ((c0, sol.c0_max, "C0"), (c1, sol.c1_max, "C1")):
            if c is not None and not abs(c - want) <= IDENTITY_TOL:
                known = KNOWN if pure and abs(c - want) <= PURE_ROUNDING else ""
                out.append(f"{known}{where}: achieved {name} {c!r} != c*_max {want!r}")
    p_inc = float(np.trace(pair.rho @ sol.povm.pi_inc).real)
    if not abs(p_inc - sol.p_inc_opt) <= POVM_TOL:
        out.append(f"{where}: Tr(rho Pi_inc)={p_inc!r} != p_inc_opt {sol.p_inc_opt!r}")
    return out


def oracle_problems(discrim, pair, c0: float, c1: float, where: str) -> list[str]:
    """Acceptance criterion 1 on one pair: closed form against the grid search."""
    oracle = discrim.grid_search_povm(pair, grid_density=256)
    dev = max(abs(c0 - oracle.c0), abs(c1 - oracle.c1))
    if dev <= ORACLE_TOL:
        return []
    return [f"{where}: confidences differ from the oracle by {dev:.3g}"]

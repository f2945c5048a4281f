"""Seeded benchmark inputs.

Seed 0 (``DEFAULT_SEED``) returns the shipped ``configs/`` text verbatim,
so the benchmark measures the traffic the repository serves.  Any other
seed jitters the physical parameters of each config within its family's
range (the family is the set of shipped configs with the same scenario),
keeping every grid, pulse spacing and sample size, so the amount of work
stays the same and only the values change.
"""

from __future__ import annotations

import math
import re
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

DEFAULT_SEED = 0
ROOT = Path(__file__).resolve().parent.parent
CONFIG_DIR = ROOT / "configs"

#: Positive physical parameters drawn log-uniformly over the family range.
LOG_KEYS = ("b0_uT", "sigma_b_uT", "T2_star_us", "T2_us", "kappa_per_us", "tau_c_us")
#: Factor by which each family range is widened on both sides.
WIDEN = 1.25
#: Uniform ranges for the prior and the inconclusive-rate cap.
UNIFORM_KEYS = {"eta0": (0.3, 0.7), "p_inc_threshold": (0.4, 0.8)}

#: Monte Carlo sizes of the two validate ops, chosen so one op takes about
#: 0.25 s: short ops keep the speed calibration around each op close.
VALIDATE_SIZES = {
    "validate_static_single": {"n_traj": 2000, "shots": 100000},
    "validate_cpmg_single": {"n_traj": 1750, "shots": 100000},
}
#: Shipped configs behind the three CLI calls of one cli_oneshot pass.
CLI_SWEEP = "static_single_b50_thresh"
CLI_NEUMARK = "neumark_static_single"

#: Pairs per api_pointwise pass.
N_PAIRS = 512

_LINE = re.compile(r"^(\s*)(\w+)(\s*=\s*)([^#]*?)(\s*(?:#.*)?)$")


def shipped_configs() -> dict[str, str]:
    """Config name (file stem) -> exact file text, sorted by name."""
    return {p.stem: p.read_text(encoding="utf-8") for p in sorted(CONFIG_DIR.glob("*.cfg"))}


def sweep_names(configs: dict[str, str]) -> list[str]:
    """The sweep families: every config that is neither a validate nor a neumark input."""
    return [n for n in configs if not n.startswith(("validate_", "neumark_"))]


def config_values(text: str) -> dict[str, str]:
    out = {}
    for line in text.splitlines():
        m = _LINE.match(line)
        if m and not line.lstrip().startswith("#"):
            out[m.group(2)] = m.group(4)
    return out


def set_values(text: str, values: dict[str, str]) -> str:
    """Replace the values of existing keys, keeping layout and comments."""
    lines = []
    for line in text.splitlines(keepends=True):
        body = line.rstrip("\n")
        m = _LINE.match(body)
        if m and m.group(2) in values and not body.lstrip().startswith("#"):
            body = m.group(1) + m.group(2) + m.group(3) + values[m.group(2)] + m.group(5)
            line = body + ("\n" if line.endswith("\n") else "")
        lines.append(line)
    return "".join(lines)


def _family_ranges(configs: dict[str, str]) -> dict[tuple[str, str], tuple[float, float]]:
    ranges: dict[tuple[str, str], tuple[float, float]] = {}
    for text in configs.values():
        vals = config_values(text)
        scenario = vals["scenario"]
        for key in LOG_KEYS:
            if key in vals and float(vals[key]) > 0:
                x = float(vals[key])
                lo, hi = ranges.get((scenario, key), (x, x))
                ranges[(scenario, key)] = (min(lo, x), max(hi, x))
    return ranges


def _rng(seed: int, tag: str) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(tag.encode())])


def jittered_configs(seed: int) -> dict[str, str]:
    """All shipped configs, verbatim at the default seed and jittered otherwise."""
    configs = shipped_configs()
    if seed == DEFAULT_SEED:
        return configs
    ranges = _family_ranges(configs)
    out = {}
    for name, text in configs.items():
        rng = _rng(seed, name)
        vals = config_values(text)
        new = {}
        for key in LOG_KEYS:
            if key in vals and float(vals[key]) > 0:
                lo, hi = ranges[(vals["scenario"], key)]
                x = math.exp(rng.uniform(math.log(lo / WIDEN), math.log(hi * WIDEN)))
                new[key] = f"{x:.6g}"
        for key, (lo, hi) in UNIFORM_KEYS.items():
            if key in vals:
                new[key] = f"{rng.uniform(lo, hi):.6g}"
        if "seed" in vals:
            new["seed"] = str(int(rng.integers(1, 2**31)))
        out[name] = set_values(text, new)
    return out


def validate_configs(seed: int) -> dict[str, str]:
    """The two mc_validate inputs with their reduced Monte Carlo sizes."""
    configs = jittered_configs(seed)
    return {
        name: set_values(configs[name], {k: str(v) for k, v in sizes.items()})
        for name, sizes in VALIDATE_SIZES.items()
    }


@dataclass(frozen=True)
class PairDraw:
    """One api_pointwise input: the state-pair parameters and the cap."""

    nu: float
    mu: complex
    eta0: float
    p_thresh: float
    kind: str  # which edge categories the draw came from


def _strata(rng: np.random.Generator, n: int, shares: tuple[float, ...]) -> np.ndarray:
    """Category index per draw, with each category's count fixed by its share."""
    counts = [int(n * s) for s in shares]
    counts[0] += n - sum(counts)
    return rng.permutation(np.repeat(np.arange(len(shares)), counts))


def pair_draws(seed: int, n: int = N_PAIRS) -> list[PairDraw]:
    """Seeded pair parameters that oversample the edges of the domain.

    nu: interior, near the sweep's 1e-300 floor, small, or exactly 1;
    |mu|: inside the disk, exactly 1, or tending to 0; eta0: interior or
    near either end; the cap: interior, exactly 0 or exactly 1.  Each
    category's share is fixed, so every seed carries the same mix of
    edges and only the values change.  No draw is filtered out.
    """
    rng = _rng(seed, "api_pointwise")
    nu_cat = _strata(rng, n, (0.45, 0.15, 0.15, 0.25))
    mu_cat = _strata(rng, n, (0.5, 0.25, 0.25))
    eta_cat = _strata(rng, n, (0.6, 0.2, 0.2))
    cap_cat = _strata(rng, n, (0.8, 0.1, 0.1))
    out = []
    for i in range(n):
        nu = (
            float(rng.uniform(1e-3, 1.0)),
            float(10.0 ** rng.uniform(-300.0, -250.0)),
            float(10.0 ** rng.uniform(-9.0, -3.0)),
            1.0,
        )[nu_cat[i]]
        r = (
            float(math.sqrt(rng.uniform(0.0, 1.0))),
            1.0,
            float(10.0 ** rng.uniform(-12.0, -2.0)),
        )[mu_cat[i]]
        mu = r * complex(np.exp(1j * rng.uniform(-math.pi, math.pi)))
        eta0 = (
            float(rng.uniform(0.1, 0.9)),
            float(10.0 ** rng.uniform(-6.0, -1.5)),
            float(1.0 - 10.0 ** rng.uniform(-6.0, -1.5)),
        )[eta_cat[i]]
        p_thresh = (float(rng.uniform(0.0, 1.0)), 0.0, 1.0)[cap_cat[i]]
        kind = ",".join(
            (
                ("nu_mid", "nu_floor", "nu_small", "nu_one")[nu_cat[i]],
                ("mu_mid", "mu_one", "mu_zero")[mu_cat[i]],
                ("eta_mid", "eta_low", "eta_high")[eta_cat[i]],
            )
        )
        out.append(PairDraw(nu, mu, eta0, p_thresh, kind))
    return out

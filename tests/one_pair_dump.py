"""Byte dump of the one-pair API, for comparing two versions of the package.

For each input pair it writes the ``tobytes()`` of every output of the
public one-pair calls (``build_state_pair``, ``solve_max_confidence``,
``min_error_probability``, ``min_error_projectors``,
``achieved_confidences``, ``threshold_inconclusive``, ``conditional_error``,
``measurement_vector``, ``dilate_povm``, ``decompose_two_level`` and
``born_residual``), and for a call that raises, the exception's type and
text.  The inputs are the benchmark's ``api_pointwise`` draws of seeds
0-3 (``perfbench/inputs.pair_draws``, 2,048 pairs) and a seeded near-pure
family: ``nu = exp(-10^U(-12, -5))``, ``mu = exp(±i 10^U(-6, -1.5))``,
``eta0`` 0.5 or U(0.3, 0.7).

    PYTHONPATH=src python tests/one_pair_dump.py OUT [--limit N]

writes the dump to OUT (``--limit`` keeps the first N pairs of each
family).  Two versions give the same bytes exactly when ``cmp`` of their
dumps, each made under the same kernel settings, is silent.
"""

from __future__ import annotations

import argparse
import math
import struct
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1, 2, 3)
NEAR_PURE_SEED = 20260808
NEAR_PURE_PAIRS = 512


def near_pure_draws(n: int = NEAR_PURE_PAIRS) -> list[tuple[float, complex, float, float]]:
    """``(nu, mu, eta0, p_thresh)`` of the near-pure family; the cap is U(0, 1)."""
    rng = np.random.default_rng(NEAR_PURE_SEED)
    out = []
    for _ in range(n):
        nu = math.exp(-(10.0 ** rng.uniform(-12.0, -5.0)))
        angle = float(rng.choice((-1.0, 1.0))) * 10.0 ** rng.uniform(-6.0, -1.5)
        mu = complex(math.cos(angle), math.sin(angle))
        eta0 = 0.5 if rng.uniform() < 0.5 else float(rng.uniform(0.3, 0.7))
        out.append((nu, mu, eta0, float(rng.uniform(0.0, 1.0))))
    return out


def all_draws(limit: int | None = None) -> list[tuple[float, complex, float, float]]:
    sys.path.insert(0, str(ROOT / "perfbench"))  # read only: the benchmark's draws
    try:
        import inputs
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    families = [[(d.nu, d.mu, d.eta0, d.p_thresh) for d in inputs.pair_draws(seed)]
                for seed in SEEDS]
    families.append(near_pure_draws())
    return [draw for family in families for draw in family[:limit]]


def encode(value) -> bytes:
    """Type-tagged bytes of one output: arrays with dtype and shape, floats as doubles."""
    if isinstance(value, np.ndarray):
        return f"{value.dtype.str}{value.shape}".encode() + value.tobytes()
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(encode(v) for v in value) + b"]"
    if isinstance(value, (bool, str, type(None))):
        return repr(value).encode()
    if isinstance(value, (complex, np.complexfloating)):
        return b"c" + struct.pack("<dd", value.real, value.imag)
    return f"{type(value).__name__}:".encode() + struct.pack("<d", value)


def dump_pair(nu, mu, eta0, p_thresh) -> list[tuple[str, bytes]]:
    """``(call, bytes)`` for every one-pair call on one draw."""
    from mcmag import channel, dilation, discrim

    records = []

    def record(name, call, show=lambda value: value):
        try:
            value = call()
        except Exception as exc:  # the type and the text are the output
            records.append((name, f"{type(exc).__name__}: {exc}".encode()))
            return None
        records.append((name, encode(show(value))))
        return value

    pair = record("build_state_pair", lambda: channel.build_state_pair(nu, mu, eta0),
                  lambda p: (p.nu, p.mu, p.eta0, p.states, p.rho))
    if pair is None:
        return records
    sol = record("solve_max_confidence", lambda: discrim.solve_max_confidence(pair),
                 lambda s: (s.c0_max, s.c1_max, s.p_inc_opt, s.povm.ops, s.branch))
    record("min_error_probability", lambda: discrim.min_error_probability(pair))
    minerr = record("min_error_projectors", lambda: discrim.min_error_projectors(pair),
                    lambda p: p.ops)
    if minerr is not None:
        record("conditional_error(minerr)", lambda: discrim.conditional_error(minerr, pair))
    if sol is None:
        return records
    record("achieved_confidences", lambda: discrim.achieved_confidences(sol.povm, pair))
    record("conditional_error(opt)", lambda: discrim.conditional_error(sol.povm, pair))
    capped = record("threshold_inconclusive",
                    lambda: discrim.threshold_inconclusive(sol, pair, p_thresh),
                    lambda c: (c.povm.ops, c.c0, c.c1, c.p_inc, c.mix))
    if capped is not None:
        record("conditional_error(capped)", lambda: discrim.conditional_error(capped.povm, pair))
    record("measurement_vector", lambda: dilation.measurement_vector(sol.povm.ops))
    dil = record("dilate_povm", lambda: dilation.dilate_povm(sol.povm), lambda d: d.e_vectors)
    if dil is not None:
        record("decompose_two_level", lambda: dilation.decompose_two_level(dil.u))
        record("born_residual", lambda: dilation.born_residual(dil, sol.povm, pair.states))
    return records


def dump_bytes(limit: int | None = None) -> bytes:
    out = []
    for i, draw in enumerate(all_draws(limit)):
        for name, data in dump_pair(*draw):
            out.append(f"{i} {name} {len(data)}\n".encode() + data + b"\n")
    return b"".join(out)


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--limit", type=int, default=None, help="pairs per family")
    args = parser.parse_args(argv)
    args.out.write_bytes(dump_bytes(args.limit))


if __name__ == "__main__":
    main()

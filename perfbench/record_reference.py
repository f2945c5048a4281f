"""Record the default-seed reference outputs the benchmark compares against.

    python3 perfbench/record_reference.py

Writes ``perfbench/reference/seed0.json.gz``: the CSV of every sweep
family, the two reduced Monte Carlo validate reports, the neumark dump of
the shipped neumark config, and one row per api_pointwise draw.  Run it
only on a commit whose outputs are the accepted behaviour; the benchmark
then holds later commits to the ROADMAP "same behaviour" rule against it.
"""

from __future__ import annotations

import sys

import checks
import inputs


def main() -> int:
    sys.path.insert(0, str(inputs.ROOT / "src"))
    import mcmag
    from mcmag import sweep
    from workloads import ApiPointwise

    seed = inputs.DEFAULT_SEED
    configs = inputs.jittered_configs(seed)
    data = {
        "sweep": {
            n: sweep.rows_to_csv(sweep.run_sweep(sweep.parse_config_text(configs[n])))
            for n in inputs.sweep_names(configs)
        },
        "validate": {
            n: sweep.validate_report(sweep.parse_config_text(t))[0]
            for n, t in inputs.validate_configs(seed).items()
        },
        "neumark": sweep.neumark_report(sweep.parse_config_text(configs[inputs.CLI_NEUMARK])),
    }
    api = ApiPointwise(seed, mcmag, None, None)
    api.setup()
    data["pointwise"] = [api.row(fn(False)[0]) for _label, fn in api.ops()]
    checks.save_reference(data)
    print(f"wrote {checks.REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

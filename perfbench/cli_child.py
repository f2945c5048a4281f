"""Run one ``mcmag`` CLI call under the span tracer and save its spans.

    python perfbench/cli_child.py SPANS.json <mcmag cli arguments...>

The traced passes of the cli_oneshot workload call this in place of
``python -m mcmag.cli``; it writes the exit code, the time ``import
mcmag`` took, the recorded spans and the work counters to SPANS.json,
then exits with the CLI's exit code.
"""

from __future__ import annotations

import json
import sys
import time

import layers
import spans


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    t0 = time.perf_counter_ns()
    import mcmag
    import mcmag.cli

    import_ns = time.perf_counter_ns() - t0
    tracer = spans.Tracer()
    layers.register(tracer, mcmag)
    tracer.install()
    try:
        with tracer.root("cli.main", None):
            rc = mcmag.cli.main(argv)
    finally:
        tracer.uninstall()
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"rc": rc, "import_ns": import_ns, "spans": tracer.spans,
                   "counts": dict(tracer.counts)}, fh)
    return rc


if __name__ == "__main__":
    raise SystemExit(main())

"""mcmag benchmark: one workload, one seed, end-to-end or per-layer metrics.

    python3 perfbench/run.py --workload sweep_figures --seed 0 --seconds 10 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  The run is a closed loop with one client in one process and
no extra threads: each op starts when the previous one has finished, and
ops repeat in whole passes over the workload's seeded inputs until
``--seconds`` have elapsed.

Times are reported at a reference machine speed.  A small fixed kernel
(``calibrate``: interpreter work and 2x2 numpy products, about 1 ms) runs
between ops, outside their timing, at least every ``CAL_EVERY`` seconds;
each op's wall time is scaled by ``CAL_REF`` over the mean kernel time
just before and after it.  On a shared machine whose speed drifts by
tens of percent over seconds this keeps runs comparable; the raw wall
numbers are printed next to the normalised ones (``*_wall``).

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
traced ones plus the tracing overhead (traced over untraced normalised
pass time).  Every op's output is checked; see checks.py.  Human-readable
lines come first, the last line of standard output is the JSON result.
A result file with the machine fingerprint (and, when traced, the spans)
goes to ``.bench_work/`` at the repository root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".bench_work"
WORKLOAD_NAMES = ("sweep_figures", "api_pointwise", "mc_validate", "cli_oneshot")
#: Set-up repetitions per run; setup_s is their median.
SETUP_REPS = 7
#: Longest stretch of ops between two calibration kernels, seconds.
CAL_EVERY = 0.02
#: Kernel time that defines the reference speed, seconds.
CAL_REF = 1e-3
_CAL_ITERS = 300
_CAL_M = np.array([[0.5, 0.2 + 0.1j], [0.2 - 0.1j, 0.5]])

END_TO_END_UNITS = {"work_per_s": "1/s", "op_ms_p50": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}
_IMPORT_PROBE = "import time; t = time.perf_counter(); import mcmag; print(time.perf_counter() - t)"


def calibrate() -> float:
    """Seconds one fixed kernel takes now; the speed reference for nearby ops."""
    m, acc = _CAL_M, 0.0
    t0 = time.perf_counter()
    for i in range(_CAL_ITERS):
        p = m @ m.conj().T
        acc += abs(p[0, 1]) + (i % 7) * 0.5
    return time.perf_counter() - t0


@dataclass(slots=True)
class Attempt:
    """One timed op: wall seconds, work done, and the calibration around it."""

    op: int
    seconds: float
    work: float
    traced: bool
    error: str | None
    same: bool  # output identical to the op's first output
    cal: float = CAL_REF

    @property
    def norm(self) -> float:
        """Seconds at the reference speed."""
        return self.seconds * CAL_REF / self.cal


def fingerprint(threads_env: str | None) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "MCMAG_THREADS": (
            "unset" if threads_env is None else f"was {threads_env!r}, unset for the run"
        ),
    }


def import_seconds(env: dict) -> float:
    """Time of ``import mcmag`` in a fresh interpreter, measured inside it."""
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(proc.stdout.strip())


def measure(wl, seconds: float, tracer):
    """Run whole passes until ``seconds`` elapse; return attempts, first outputs, pass count."""
    ops = wl.ops()
    first: list = [None] * len(ops)
    attempts: list[Attempt] = []
    pending: list[Attempt] = []
    cal_prev = calibrate()
    last_cal = time.perf_counter()

    def settle():
        nonlocal cal_prev, last_cal
        cal = calibrate()
        for a in pending:
            a.cal = 0.5 * (cal_prev + cal)
        pending.clear()
        cal_prev, last_cal = cal, time.perf_counter()

    start = time.perf_counter()
    passes = 0
    while True:
        traced = tracer is not None and passes % 2 == 1
        if traced:
            tracer.install()
        for i, (_label, fn) in enumerate(ops):
            err = None
            t0 = time.perf_counter()
            try:
                if traced:
                    with tracer.root("op", (passes, i)):
                        out, work = fn(True)
                else:
                    out, work = fn(False)
            except Exception as exc:  # noqa: BLE001 - a raising op is a failed op
                out, work, err = None, 0, f"{type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            same = True
            if err is None:
                if first[i] is None:
                    first[i] = out
                else:
                    same = wl.same(first[i], out)
            attempt = Attempt(i, dt, work, traced, err, same)
            attempts.append(attempt)
            pending.append(attempt)
            if time.perf_counter() - last_cal >= CAL_EVERY:
                settle()
        if traced:
            tracer.uninstall()
        passes += 1
        if time.perf_counter() - start >= seconds and (tracer is None or passes % 2 == 0):
            settle()
            return attempts, first, passes


def run_checks(wl, first) -> list[list[str]]:
    problems = []
    for i, out in enumerate(first):
        if out is None:
            problems.append([])
            continue
        try:
            found = wl.check(i, out) + wl.oracle(i, out)
        except Exception as exc:  # noqa: BLE001 - a check that cannot run fails the op
            found = [f"op {i}: check raised {type(exc).__name__}: {exc}"]
        problems.append(found)
    return problems


def count_failures(attempts, problems) -> tuple[int, int, list[int]]:
    """Failed ops, those failed only by a known defect, and the failing op indices.

    An op is one input of the workload, run once per pass.  It fails when
    any of its runs raised or gave an output that differs from its first
    output, or when that first output has any problem.  Counting inputs
    rather than runs makes ``failed`` and ``attempted`` a function of the
    seed alone, not of how many passes fit into ``--seconds``.
    """
    from checks import KNOWN

    bad_ops = {i for i, found in enumerate(problems) if found}
    bad_ops |= {a.op for a in attempts if a.error is not None or not a.same}
    known = sum(
        1 for i in bad_ops
        if all(KNOWN in p for p in problems[i])
        and all(a.error is None and a.same for a in attempts if a.op == i)
    )
    return len(bad_ops), known, sorted(bad_ops)


def pass_seconds(attempts: list[Attempt], n_ops: int, traced: bool) -> list[float]:
    """Normalised duration of each whole pass of the given kind."""
    out = []
    for k in range(0, len(attempts), n_ops):
        chunk = attempts[k:k + n_ops]
        if chunk[0].traced == traced:
            out.append(sum(a.norm for a in chunk))
    return out


def _seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return seed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "mcmag" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no mcmag checkout around {HERE} (need src/mcmag and configs/)",
              file=sys.stderr)
        return 2
    threads_env = os.environ.pop("MCMAG_THREADS", None)
    # One CPU for this process and the subprocesses it starts, so the
    # calibration kernel and the work it normalises share a processor.
    try:
        cpu = max(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        cpu = None
    sys.path.insert(0, str(ROOT / "src"))
    import mcmag

    import checks
    import inputs
    import layers
    import spans
    from workloads import WORKLOADS

    WORK_DIR.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    reference = checks.load_reference() if args.seed == inputs.DEFAULT_SEED else None
    wl = WORKLOADS[args.workload](args.seed, mcmag, reference, WORK_DIR)

    setup_norm, setup_wall, import_norm = [], [], []
    for _ in range(SETUP_REPS):
        cal0 = calibrate()
        t0 = time.perf_counter()
        imp = import_seconds(env)
        t1 = time.perf_counter()
        wl.setup()
        t2 = time.perf_counter()
        scale = CAL_REF / (0.5 * (cal0 + calibrate()))
        setup_wall.append(imp + t2 - t1)
        setup_norm.append(setup_wall[-1] * scale)
        import_norm.append(imp * scale)
    wl.prepare()

    tracer = None
    if args.trace:
        tracer = spans.Tracer()
        layers.register(tracer, mcmag)
        wl.tracer = tracer
    attempts, first, passes = measure(wl, args.seconds, tracer)
    counts = Counter(tracer.counts) if tracer else Counter()

    if tracer:
        tracer.install()
        with tracer.root("check", "check"):
            problems = run_checks(wl, first)
        tracer.uninstall()
    else:
        problems = run_checks(wl, first)
    failed, known, bad_ops = count_failures(attempts, problems)
    correct = failed == known

    untraced = [a for a in attempts if not a.traced]
    op_ms = [a.norm * 1e3 for a in untraced]
    op_ms_wall = [a.seconds * 1e3 for a in untraced]
    work = sum(a.work for a in untraced)
    who = resource.RUSAGE_CHILDREN if args.workload == "cli_oneshot" else resource.RUSAGE_SELF
    e2e = {
        "work_per_s": work / sum(a.norm for a in untraced),
        "op_ms_p50": spans.percentile(op_ms, 50.0),
        "setup_s": statistics.median(setup_norm),
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024.0,
    }
    extra = {f"{wl.work_unit}_per_s": e2e["work_per_s"]}
    tail = spans.tail_percentile(len(op_ms))
    if tail is not None and tail > 50.0:
        extra[f"op_ms_p{tail:g}"] = spans.percentile(op_ms, tail)
    extra["failed_frac"] = failed / len(first)
    extra[f"{wl.work_unit}_per_s_wall"] = work / sum(a.seconds for a in untraced)
    extra["op_ms_p50_wall"] = spans.percentile(op_ms_wall, 50.0)
    if tail is not None and tail > 50.0:
        extra[f"op_ms_p{tail:g}_wall"] = spans.percentile(op_ms_wall, tail)
    extra["setup_s_wall"] = statistics.median(setup_wall)
    extra["cal_ms_median"] = statistics.median(a.cal for a in untraced) * 1e3

    if tracer:
        op_stats = spans.aggregate(tracer.spans, keep=lambda op: op != "check")
        check_stats = spans.aggregate(tracer.spans, keep=lambda op: op == "check")
        n_ops = len(first)
        metrics = layers.layer_metrics(op_stats, check_stats, counts, passes // 2,
                                       wl.grid_points(first))
        metrics["cli.import_ms"] = statistics.median(import_norm) * 1e3
        for k, label in enumerate(("sweep", "neumark", "plot")):
            times = [a.norm * 1e3 for a in untraced if a.op == k]
            metrics[f"cli.{label}.ms"] = (
                statistics.median(times) if args.workload == "cli_oneshot" else 0.0
            )
        metrics["trace.overhead_frac"] = (
            statistics.median(pass_seconds(attempts, n_ops, True))
            / statistics.median(pass_seconds(attempts, n_ops, False)) - 1.0
        )
        units = layers.metric_units()
        spans_path = WORK_DIR / f"spans-{args.workload}-seed{args.seed}.tsv"
        spans.write_spans(tracer.spans, spans_path)
    else:
        metrics, units, spans_path = e2e, END_TO_END_UNITS, None

    fp = dict(fingerprint(threads_env), pinned_cpu=cpu)
    print(f"# mcmag benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"# fingerprint: {json.dumps(fp)}")
    print(f"# passes={passes} runs={len(attempts)} ops={len(first)} failed={failed} "
          f"(known defects {known}) correct={correct}")
    if not args.trace:
        for name, value in extra.items():
            unit = ("1/s" if "_per_s" in name else "ms" if "_ms" in name
                    else "s" if name.startswith("setup_s") else "ratio")
            print(f"{name} {value:.6g} {unit}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    for i in bad_ops[:20]:
        for p in problems[i][:3] or ["raised or changed between passes"]:
            print(f"# op {i} failed: {p}", file=sys.stderr)

    result = {
        "correct": correct,
        "attempted": len(first),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = dict(result, runs=len(attempts), args=vars(args), fingerprint=fp, extra=extra,
                  known_defects=known, failed_ops={str(i): problems[i][:5] for i in bad_ops},
                  spans=str(spans_path) if spans_path else None)
    out_path = WORK_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

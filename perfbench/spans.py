"""In-memory span tracing from outside the package, plus the summary statistics.

The tracer replaces public functions on the ``mcmag`` modules with thin
wrappers that record one span per call: (name, start, end, parent span,
op id).  Callers inside the package that reach a function through its
module (``qmat.psd_pow``) or through a module global (``herm_eig2`` inside
``qmat``) both see the wrapper, so nesting is recorded without touching
the package.  Spans stay in memory until the run ends; self time is a
span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import math
import time
from collections import Counter, defaultdict

# Span record fields, kept as plain lists so a call costs one append.
NAME, START, END, PARENT, OP = range(5)

#: Percentiles considered for a tail statistic, highest last.
TAIL_PERCENTILES = (50.0, 90.0, 99.0, 99.9)
#: Samples that must lie beyond a reported percentile.
MIN_BEYOND = 10


class Tracer:
    """Records spans for wrapped callables; ``install``/``uninstall`` swap them in."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id: object = None
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object, object]] = []

    def add(self, module, attr: str, name: str | None = None, count=None) -> None:
        """Register ``module.attr`` for tracing under ``name`` (default ``layer.attr``).

        ``count(counts, args, kwargs, result)`` runs after a successful call
        and may add work counters at the same boundary.
        """
        layer = module.__name__.rsplit(".", 1)[-1]
        orig = getattr(module, attr)
        label = name or f"{layer}.{attr}"
        tracer = self

        def traced(*args, **kwargs):
            stack = tracer._stack
            rec = [label, 0, 0, stack[-1] if stack else -1, tracer.op_id]
            stack.append(len(tracer.spans))
            tracer.spans.append(rec)
            rec[START] = time.perf_counter_ns()
            try:
                result = orig(*args, **kwargs)
            except Exception as exc:
                rec[END] = time.perf_counter_ns()
                stack.pop()
                tracer.counts[f"{label}.raised.{type(exc).__name__}"] += 1
                raise
            rec[END] = time.perf_counter_ns()
            stack.pop()
            if count is not None:
                count(tracer.counts, args, kwargs, result)
            return result

        traced.__wrapped__ = orig
        self._wrapped.append((module, attr, orig, traced))

    def install(self) -> None:
        for module, attr, _orig, traced in self._wrapped:
            setattr(module, attr, traced)

    def uninstall(self) -> None:
        for module, attr, orig, _traced in self._wrapped:
            setattr(module, attr, orig)

    def adopt(self, spans: list[list], counts: dict) -> None:
        """Append spans a child process recorded, under the current span."""
        base = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        for rec in spans:
            up = rec[PARENT] + base if rec[PARENT] >= 0 else parent
            self.spans.append([rec[NAME], rec[START], rec[END], up, self.op_id])
        self.counts.update(counts)

    def root(self, name: str, op_id: object):
        """Context manager for a benchmark-level span (one op or one check)."""
        return _Root(self, name, op_id)


class _Root:
    def __init__(self, tracer: Tracer, name: str, op_id: object) -> None:
        self.tracer = tracer
        self.rec = [name, 0, 0, -1, op_id]

    def __enter__(self):
        t = self.tracer
        t.op_id = self.rec[OP]
        t._stack.append(len(t.spans))
        t.spans.append(self.rec)
        self.rec[START] = time.perf_counter_ns()
        return self

    def __exit__(self, *exc):
        self.rec[END] = time.perf_counter_ns()
        self.tracer._stack.pop()
        self.tracer.op_id = None
        return False


def self_times(spans: list[list]) -> list[int]:
    """Self time (ns) of each span: its duration minus its direct children's."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        parent = rec[PARENT]
        if parent >= 0:
            out[parent] -= rec[END] - rec[START]
    return out


def aggregate(spans: list[list], keep=None) -> dict[str, dict[str, float]]:
    """Per-name call count and total self time (ns), optionally filtered by op id."""
    selfs = self_times(spans)
    agg: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "self_ns": 0})
    for rec, self_ns in zip(spans, selfs):
        if keep is not None and not keep(rec[OP]):
            continue
        entry = agg[rec[NAME]]
        entry["calls"] += 1
        entry["self_ns"] += self_ns
    return dict(agg)


def write_spans(spans: list[list], path) -> None:
    """Dump spans as tab-separated text: index, name, start_ns, end_ns, parent, op."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("index\tname\tstart_ns\tend_ns\tparent\top\n")
        for i, rec in enumerate(spans):
            fh.write(f"{i}\t{rec[NAME]}\t{rec[START]}\t{rec[END]}\t{rec[PARENT]}\t{rec[OP]}\n")


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default rule) of a non-empty list."""
    xs = sorted(values)
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> float | None:
    """Highest percentile in TAIL_PERCENTILES with at least MIN_BEYOND samples beyond it."""
    best = None
    for q in TAIL_PERCENTILES:
        if n * (100.0 - q) / 100.0 >= MIN_BEYOND - 1e-9:
            best = q
    return best

"""Spans around the package's layers, recorded from outside the package.

`Tracer.install` replaces module-level names that `run_sweep`, `run_batch`,
`simulate_profile_day`, `run_day` and `run_trading` look up at call time
with wrappers that record one span per call; `uninstall` puts the originals
back. Nothing under `src/` changes. The wrappers draw no randomness, so a
traced run computes exactly what an untraced run computes.

A span is a tuple ``(id, name, start, end, parent, value)``: `start` and
`end` are `time.perf_counter()` readings, `parent` is the id of the
enclosing span (or None), and `value` is what the hook notes about the call:
whether an agent rule produced a fill, or the depth of a snapshotted book.

Spans stay in memory. Pool workers forked inside a traced `run_batch`
inherit the wrappers; each worker appends its spans to a file in the output
directory after every task, and `collect_workers` merges those files, so a
worker's day spans have the parent's `run_batch` span as their parent.
`perf_counter` is the system-wide monotonic clock on Linux, so times from
different processes compare.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import os
import pickle
import time
from collections import defaultdict
from pathlib import Path


def _filled(args, result):
    return result is not None


def _book_depth(args, result):
    return len(result)


# (module, attribute looked up by the caller, span name, note on the call).
# Span names follow the module that defines the function, since the engine
# looks up the agent rules and the metrics in its own namespace.
HOOKS = (
    ("fracmarket.experiments", "run_sweep", "experiments.run_sweep", None),
    ("fracmarket.experiments", "run_batch", "experiments.run_batch", None),
    ("fracmarket.experiments", "load_population", "endowments.load_population", None),
    ("fracmarket.experiments", "simulate_profile_day", "endowments.simulate_profile_day", None),
    ("fracmarket.experiments", "run_day", "engine.run_day", None),
    ("fracmarket.experiments", "aggregate", "metrics.aggregate", None),
    ("fracmarket.endowments", "generate_population", "endowments.generate_population", None),
    ("fracmarket.endowments", "run_day", "engine.run_day", None),
    ("fracmarket.engine", "run_pretrading", "engine.run_pretrading", None),
    ("fracmarket.engine", "run_trading", "engine.run_trading", None),
    ("fracmarket.engine", "compute_day_metrics", "metrics.compute_day_metrics", None),
    ("fracmarket.engine", "ps_decide", "agents.ps_decide", _filled),
    ("fracmarket.engine", "bs_offer_decide", "agents.bs_offer_decide", _filled),
    ("fracmarket.engine", "pb_decide", "agents.pb_decide", _filled),
    ("fracmarket.engine", "bs_buy_decide", "agents.bs_buy_decide", _filled),
    ("fracmarket.engine", "settle_fill", "agents.settle_fill", None),
    ("fracmarket.core", "OfferBook.snapshot", "core.OfferBook.snapshot", _book_depth),
)

# the pool task function; wrapped without a span, to flush worker spans
_WORKER_TASK = ("fracmarket.experiments", "_worker_rep")


def _owner(module: str, attr: str):
    """The object holding `attr` (a dotted path below `module`) and its last part."""
    obj = importlib.import_module(module)
    *outer, last = attr.split(".")
    for part in outer:
        obj = getattr(obj, part)
    return obj, last


class Tracer:
    """Records spans while installed; see the module docstring."""

    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self.pid = self.main_pid
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.next_id = 0
        self.absent: set[str] = set()
        self._saved: list[tuple] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        for module, attr, name, note in HOOKS:
            owner, last = _owner(module, attr)
            fn = getattr(owner, last, None)
            if fn is None:
                # a later change removed the name; its metrics read as absent
                self.absent.add(name)
                continue
            self._replace(owner, last, fn, self._span_wrapper(fn, name, note))
        owner, last = _owner(*_WORKER_TASK)
        fn = getattr(owner, last, None)
        if fn is not None:
            self._replace(owner, last, fn, self._flush_wrapper(fn))

    def uninstall(self) -> None:
        while self._saved:
            owner, last, fn = self._saved.pop()
            setattr(owner, last, fn)

    def _replace(self, owner, last, fn, wrapper) -> None:
        self._saved.append((owner, last, fn))
        setattr(owner, last, wrapper)

    def _span_wrapper(self, fn, name, note):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.pid != os.getpid():
                self._forked()
            parent = self.stack[-1] if self.stack else None
            sid = self.next_id
            self.next_id += 1
            self.stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                self.stack.pop()
            self.spans.append(
                (sid, name, start, end, parent, note(args, result) if note else None)
            )
            return result

        return wrapper

    def _flush_wrapper(self, fn):
        # keeps the original's module and name, so the pool pickles the task
        # by reference and the worker looks up this same wrapper
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if os.getpid() != self.main_pid:
                if self.pid != os.getpid():
                    self._forked()
                if self.spans:
                    with open(self.out_dir / f"worker-{self.pid}.spans", "ab") as f:
                        pickle.dump(self.spans, f)
                    self.spans = []
            return result

        return wrapper

    def _forked(self) -> None:
        # first span in a forked worker: drop the parent's spans, keep its
        # stack (the enclosing run_batch span) and take ids no parent uses
        self.pid = os.getpid()
        self.spans = []
        self.next_id = self.pid << 32

    # -- collecting -----------------------------------------------------------

    def discard_worker_files(self) -> None:
        for path in self.out_dir.glob("worker-*.spans"):
            path.unlink()

    def collect_workers(self) -> None:
        """Merge and delete the span files written by pool workers."""
        for path in sorted(self.out_dir.glob("worker-*.spans")):
            with open(path, "rb") as f:
                while True:
                    try:
                        self.spans.extend(pickle.load(f))
                    except EOFError:
                        break
            path.unlink()

    def write(self, path: Path) -> None:
        """Write the spans as gzipped JSON lines: id, name, start, end, parent, value."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


def _union(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_time(span: tuple, children: list[tuple]) -> float:
    """Span duration minus the part of it that its child spans cover.

    Children may overlap (pool workers run days side by side), so the
    covered part is the length of the union of their clipped intervals.
    """
    _, _, start, end, _, _ = span
    clipped = [(max(c[2], start), min(c[3], end)) for c in children]
    return (end - start) - _union([iv for iv in clipped if iv[1] > iv[0]])


# units of the layer metrics that only some workloads reach; they are
# printed and kept in the run record, not declared in BENCHMARK.json, whose
# per-layer metrics every workload reports
PARTIAL_UNITS = {
    "endowments.generate_population.ms": "ms",
    "endowments.load_population.ms": "ms",
    "experiments.pool_overhead_s": "s",
}


def layer_metrics(spans: list[tuple], day_span: str, jobs: int) -> dict[str, float | None]:
    """Per-layer figures from the spans; None marks a layer the run never reached.

    Per-day figures divide by the number of `day_span` spans (one per
    simulated day). Counts per day and times per call are named `.calls`
    and `.us`; `fill_ratio` is fills over calls.
    """
    by_name: dict[str, list[tuple]] = defaultdict(list)
    children: dict[int, list[tuple]] = defaultdict(list)
    for s in spans:
        by_name[s[1]].append(s)
        if s[4] is not None:
            children[s[4]].append(s)

    def busy(name: str) -> float:
        return sum(s[3] - s[2] for s in by_name[name])

    days = len(by_name[day_span])
    out: dict[str, float | None] = {}

    def per_day(metric: str, value: float, scale: float) -> None:
        out[metric] = value * scale / days if days else None

    def per_call(metric: str, name: str, scale: float) -> None:
        calls = len(by_name[name])
        out[metric] = busy(name) * scale / calls if calls else None

    for name in (
        "engine.run_pretrading",
        "engine.run_trading",
        "core.OfferBook.snapshot",
        "metrics.compute_day_metrics",
        "endowments.generate_population",
    ):
        out[name + ".ms"] = None
        if by_name[name]:
            per_day(name + ".ms", busy(name), 1e3)
    out["engine.run_trading.self_ms"] = None
    if by_name["engine.run_trading"]:
        own = sum(self_time(s, children[s[0]]) for s in by_name["engine.run_trading"])
        per_day("engine.run_trading.self_ms", own, 1e3)

    for rule in ("ps_decide", "bs_offer_decide", "pb_decide", "bs_buy_decide", "settle_fill"):
        name = "agents." + rule
        per_call(name + ".us", name, 1e6)
        calls = by_name[name]
        if rule in ("pb_decide", "bs_buy_decide", "settle_fill"):
            per_day(name + ".calls", len(calls), 1.0)
        if rule in ("pb_decide", "bs_buy_decide"):
            out[name + ".fill_ratio"] = (
                sum(1 for s in calls if s[5]) / len(calls) if calls else None
            )

    snaps = by_name["core.OfferBook.snapshot"]
    out["core.book_depth"] = sum(s[5] for s in snaps) / len(snaps) if snaps else None
    per_call("metrics.aggregate.ms", "metrics.aggregate", 1e3)
    per_call("endowments.load_population.ms", "endowments.load_population", 1e3)

    batches = by_name["experiments.run_batch"]
    if batches and days:
        own = sum(self_time(s, children[s[0]]) for s in batches)
        per_day("experiments.run_batch.overhead_ms", own, 1e3)
        day_work = busy(day_span)
        tops = by_name["experiments.run_sweep"] or batches
        out["experiments.parallel_efficiency"] = day_work / (
            jobs * sum(s[3] - s[2] for s in tops)
        )
    else:
        out["experiments.run_batch.overhead_ms"] = None
        out["experiments.parallel_efficiency"] = None

    # wall time a pool adds beyond a perfect split of its days over `jobs`
    # workers: start, stop, task traffic and waiting for the slower worker
    pooled = [
        b for b in batches
        if any(c[0] >> 32 for c in children[b[0]] if c[1] == day_span)
    ]
    if pooled:
        extra = 0.0
        for b in pooled:
            work = sum(c[3] - c[2] for c in children[b[0]] if c[1] == day_span)
            agg = sum(c[3] - c[2] for c in children[b[0]] if c[1] == "metrics.aggregate")
            extra += (b[3] - b[2]) - work / jobs - agg
        out["experiments.pool_overhead_s"] = extra / len(pooled)
    else:
        out["experiments.pool_overhead_s"] = None
    return out

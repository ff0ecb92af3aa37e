"""Closed-loop job runner, in-memory span tracer and metric summaries.

One client, one process, no threads: each job starts only after the
previous one has finished.  A job's ``run`` is the timed part; its
``check`` runs after the clock has stopped, and so do the calibration
chunks spread through each pass.
"""

from __future__ import annotations

import math
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import calibrate

perf = time.perf_counter
CHUNK_GAP_S = 0.02  # wall time between calibration chunks in a pass

# every span name the workloads record; each becomes <name>_s, _self_s
# and _calls in the traced run, so all workloads report the same keys
SPAN_NAMES = (
    "job",
    "graphs.parse_graph",
    "graphs.Graph",
    "covers.parse_cover",
    "covers.write_cover_for",
    "verify.orientation",
    "verify.elbow",
    "verify.eyebrow",
    "verify.equivalence",
    "exact.decide_sigma",
    "exact.decide_elb",
    "exact.decide_eq",
    "exact.decide_eyebrow",
    "exact.exact_chromatic",
    "exact.greedy_coloring",
    "construct.cover_via_coloring",
    "construct.elbow_cover_via_coloring",
    "construct.elbow_cover_complete",
    "construct.eq_cover_from_orientation_cover",
    "construct.coloring_from_cover",
    "linegraph.line_graph",
    "bounds.bounds_report",
    "cli.verify",
    "cli.bounds",
)


class HardCap(BaseException):
    """Raised by the run's wall-clock alarm.  A BaseException, so that no
    handler inside the package under test can swallow it."""


@dataclass
class Job:
    id: str
    run: Callable  # run(tracer) -> output; timed
    check: Callable  # check(output, full) -> error text or None; untimed
    nodes: Optional[Callable] = None  # nodes(output) -> search-node count


@dataclass
class Workload:
    jobs: List[Job]
    warmup: List[Job]
    summary: Dict[str, object]


class _Open:
    __slots__ = ("tracer", "name", "counts", "sid", "parent", "start")

    def __init__(self, tracer: "Tracer", name: str, counts: dict):
        self.tracer = tracer
        self.name = name
        self.counts = counts

    def __enter__(self) -> dict:
        t = self.tracer
        self.sid = t._next
        t._next += 1
        self.parent = t._stack[-1].sid if t._stack else None
        t._stack.append(self)
        self.start = perf()
        return self.counts

    def __exit__(self, *exc) -> None:
        end = perf()
        t = self.tracer
        t._stack.pop()
        t.spans.append(
            (self.sid, self.name, self.start, end, self.parent, t.job, self.counts)
        )


class _Closed:
    __slots__ = ()

    def __enter__(self) -> dict:
        return {}

    def __exit__(self, *exc) -> None:
        return None


_CLOSED = _Closed()


class Tracer:
    """Spans (id, name, start, end, parent id, job id, counts) kept in
    memory.  Disabled, ``span`` returns a shared no-op context."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list = []
        self.job: Optional[str] = None
        self._stack: list = []
        self._next = 0

    def span(self, name: str, **counts):
        if not self.enabled:
            return _CLOSED
        return _Open(self, name, counts)


@dataclass
class PassResult:
    wall: float  # the whole pass, checks included
    times: List[float]  # per job, seconds; +inf for a failed job
    failed: int
    spans: list = field(default_factory=list)
    chunks: List[float] = field(default_factory=list)  # calibration, seconds
    before: List[int] = field(default_factory=list)  # per job, last chunk before it

    def scaled(self) -> List[float]:
        """Job times in reference seconds, each scaled by the two chunks
        before the job and the two after it."""
        return [
            t * calibrate.scale(self.chunks[max(0, c - 1):c + 3])
            for t, c in zip(self.times, self.before)
        ]

    @property
    def scale(self) -> float:
        """Wall seconds to reference seconds over the whole pass."""
        return calibrate.scale(self.chunks)


class PassAborted(Exception):
    def __init__(self, result: "PassResult"):
        super().__init__("pass aborted by the hard cap")
        self.result = result


def run_pass(
    jobs: List[Job],
    tracer: Tracer,
    full: bool,
    nodes_seen: Dict[str, int],
    errors: List[str],
) -> PassResult:
    """One closed-loop pass over the job list.

    A job fails if it raises, if its check rejects the output, or if its
    node count differs from an earlier pass.  HardCap fails the current
    job and every job after it, then ends the pass with PassAborted.
    Calibration chunks run at the start and end of the pass and after
    any job that ends CHUNK_GAP_S or more after the last chunk, outside
    the jobs' timing.
    """
    times: List[float] = []
    chunks = [calibrate.chunk()]
    before: List[int] = []
    last = perf()
    failed = 0
    start = perf()
    try:
        for job in jobs:
            before.append(len(chunks) - 1)
            tracer.job = job.id
            t0 = perf()
            try:
                with tracer.span("job"):
                    out = job.run(tracer)
                err = None
            except Exception as exc:  # any failure of the program under test
                out, err = None, f"raised {type(exc).__name__}: {exc}"
            dt = perf() - t0
            try:
                if err is None:
                    err = job.check(out, full)
                if err is None and job.nodes is not None:
                    n = job.nodes(out)
                    if nodes_seen.setdefault(job.id, n) != n:
                        err = f"node count {n} differs from {nodes_seen[job.id]} in an earlier pass"
            except Exception as exc:  # an output the checks cannot read
                err = f"check raised {type(exc).__name__}: {exc}"
            if err is None:
                times.append(dt)
            else:
                failed += 1
                times.append(math.inf)
                errors.append(f"{job.id}: {err}")
            if perf() - last >= CHUNK_GAP_S:
                chunks.append(calibrate.chunk())
                last = perf()
        chunks.append(calibrate.chunk())
    except HardCap:
        left = len(jobs) - len(times)
        errors.append(f"hard wall-clock cap reached; {left} jobs of the pass not finished")
        times.extend([math.inf] * left)
        before.extend([len(chunks) - 1] * (len(jobs) - len(before)))
        raise PassAborted(PassResult(perf() - start, times, failed + left, tracer.spans, chunks, before))
    finally:
        tracer.job = None
    return PassResult(perf() - start, times, failed, tracer.spans, chunks, before)


def percentile(values: List[float], q: float, grid: int = 64) -> float:
    """Harrell-Davis estimate of the q-quantile: a mean of the sorted
    values weighted by the Beta(q(n+1), (1-q)(n+1)) mass on each rank.

    It moves less than a single order statistic when the values near the
    quantile are far apart.  +inf entries sort last and make the result
    +inf once they carry weight, as failed jobs should.
    """
    ordered = sorted(values)
    n = len(ordered)
    a, b = q * (n + 1) - 1, (1 - q) * (n + 1) - 1
    steps = grid * n
    logs = [a * math.log((k + 0.5) / steps) + b * math.log1p(-(k + 0.5) / steps) for k in range(steps)]
    top = max(logs)
    weights = [sum(math.exp(x - top) for x in logs[i * grid:(i + 1) * grid]) for i in range(n)]
    total = sum(weights)
    return sum(w / total * x for w, x in zip(weights, ordered) if w / total > 1e-12)


def median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def job_times(results: List[PassResult]) -> List[float]:
    """Each job's median time over the passes in reference seconds (see
    calibrate.py), +inf for a job that failed in any pass.

    Each time is scaled by the calibration chunks run around it, so a
    spell of neighbour load slows the job and the chunks alike and
    cancels out.  The percentiles are then taken over the jobs.
    """
    columns = zip(*(r.scaled() for r in results))
    return [math.inf if math.inf in column else statistics.median(column) for column in columns]


def layer_metrics(spans: list) -> Dict[str, float]:
    """Busy time, self time and calls per span name, plus the derived
    counts and rates, for the spans of one traced pass."""
    busy = dict.fromkeys(SPAN_NAMES, 0.0)
    self_time = dict.fromkeys(SPAN_NAMES, 0.0)
    calls = dict.fromkeys(SPAN_NAMES, 0)
    child: Dict[int, float] = {}
    for sid, name, start, end, parent, _job, _counts in spans:
        busy[name] += end - start
        calls[name] += 1
        if parent is not None:
            child[parent] = child.get(parent, 0.0) + (end - start)
    for sid, name, start, end, *_ in spans:
        self_time[name] += (end - start) - child.get(sid, 0.0)

    def total(key: str, prefixes: tuple) -> float:
        return sum(c.get(key, 0) for _, name, _, _, _, _, c in spans if name.startswith(prefixes))

    def rate(key: str, prefixes: tuple, scale: float = 1.0) -> float:
        amount, secs = 0.0, 0.0
        for _, name, start, end, _, _, c in spans:
            if key in c and name.startswith(prefixes):
                amount += c[key]
                secs += end - start
        return amount / scale / secs if secs > 0 else 0.0

    out: Dict[str, float] = {}
    for name in SPAN_NAMES:
        out[f"{name}_s"] = busy[name]
        out[f"{name}_self_s"] = self_time[name]
        out[f"{name}_calls"] = calls[name]
    queries = total("queries", ("exact.",))
    out.update(
        {
            "graphs.parse_graph_MBps": rate("bytes", ("graphs.parse_graph",), 1e6),
            "covers.parse_cover_MBps": rate("bytes", ("covers.parse_cover",), 1e6),
            "covers.write_cover_for_MBps": rate("bytes", ("covers.write_cover_for",), 1e6),
            "verify.pairs_per_s": rate("pairs", ("verify.",)),
            "verify.violations": total("violations", ("verify.", "cli.verify")),
            "exact.nodes": total("nodes", ("exact.",)),
            "exact.nodes_per_s": rate("nodes", ("exact.",)),
            "exact.solved_ratio": total("answered", ("exact.",)) / queries if queries else 0.0,
            "linegraph.line_edges_per_s": rate("line_edges", ("linegraph.",)),
            "bounds.nodes": total("nodes", ("bounds.", "cli.bounds")),
        }
    )
    return out


def layer_units() -> Dict[str, str]:
    units = {}
    for name in SPAN_NAMES:
        units[f"{name}_s"] = "s"
        units[f"{name}_self_s"] = "s"
        units[f"{name}_calls"] = "count"
    units.update(
        {
            "graphs.parse_graph_MBps": "MB/s",
            "covers.parse_cover_MBps": "MB/s",
            "covers.write_cover_for_MBps": "MB/s",
            "verify.pairs_per_s": "1/s",
            "verify.violations": "count",
            "exact.nodes": "count",
            "exact.nodes_per_s": "1/s",
            "exact.solved_ratio": "ratio",
            "linegraph.line_edges_per_s": "1/s",
            "bounds.nodes": "count",
            "trace.untraced_pass_s": "s",
            "trace.traced_pass_s": "s",
            "trace.overhead_s": "s",
        }
    )
    return units

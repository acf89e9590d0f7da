"""Spans and work counts recorded around calls into each layer.

Nothing here changes the program: :func:`instrumented` wraps public
functions and methods of ``repro`` for the length of one traced
iteration and puts the originals back afterwards.

Two kinds of record are kept in memory:

* **spans** -- name, start, end, parent span and cell id -- around the
  coarse calls: the set-up stages (bracketed by the driver), each sweep
  cell (``FailoverExperiment.run_site``), target selection, baseline
  convergence, snapshot restore, BGP convergence and the probe window;
* **counts** -- calls and nanoseconds per cell for the hot calls
  (``BgpNetwork.next_hop``, ``ForwardingPlane.forward`` and
  ``snapshot_path``, ``Prober.probe_once``, ``CatchmentCache.resolve``,
  ``RequestStream`` iteration), plus the per-cell deltas of the
  telemetry counters and of the engine's ``EventProfiler``.

A span's self time is its duration minus the time its child spans
cover. The cell id (``technique/site``; empty during set-up) is the
identifier every span and count of one cell shares.
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time
from dataclasses import asdict, dataclass
from typing import Callable, Iterator

from repro.bgp.network import BgpNetwork
from repro.checkpoint import restore_network
from repro.core.experiment import FailoverExperiment
from repro.dataplane.forwarding import ForwardingPlane
from repro.dataplane.ping import Prober
from repro.workload.catchment import CatchmentCache
from repro.workload.stream import RequestStream

SETUP = ""

#: engine callback kinds, matched against the callback's qualname
CALLBACK_KINDS = (
    ("hop", ("ForwardingPlane.",)),
    ("probe", ("Prober.",)),
    ("workload", ("WorkloadEngine.",)),
    ("bgp", ("Session.", "BgpRouter.", "RouteDamping.")),
)


def callback_kind(qualname: str) -> str:
    for kind, markers in CALLBACK_KINDS:
        if any(marker in qualname for marker in markers):
            return kind
    return "other"


@dataclass(slots=True)
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    #: id of the enclosing span, -1 for a root span
    parent: int
    #: ``technique/site`` of the cell the span belongs to; empty in set-up
    cell: str

    @property
    def duration_s(self) -> float:
        return (self.end_ns - self.start_ns) / 1e9


class Tracer:
    """In-memory spans and per-cell counts of one traced iteration."""

    def __init__(self, telemetry) -> None:
        self.telemetry = telemetry
        self.spans: list[Span] = []
        self._open: list[Span] = []
        self.cell = SETUP
        #: cell id -> count key -> [calls, nanoseconds]
        self.scopes: dict[str, dict[str, list[int]]] = {SETUP: {}}
        self.stats = self.scopes[SETUP]
        #: networks and forwarding planes built while the current cell
        #: runs; their exact counters are tallied when the cell ends
        self.networks: list[BgpNetwork] = []
        self.planes: list[ForwardingPlane] = []
        #: converged baseline snapshots by baseline key
        self.snapshots: dict[str, object] = {}
        #: innermost active call among those that give context to counts
        self.context = ""

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        parent = self._open[-1].id if self._open else -1
        span = Span(len(self.spans), name, time.perf_counter_ns(), 0, parent, self.cell)
        self.spans.append(span)
        self._open.append(span)
        try:
            yield
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    @contextlib.contextmanager
    def cell_scope(self, cell: str) -> Iterator[None]:
        """Attribute everything recorded inside to ``cell``."""
        outer_cell, outer_stats = self.cell, self.stats
        self.cell = cell
        self.stats = self.scopes.setdefault(cell, {})
        counters_before = self._counters()
        callbacks_before = self._callbacks()
        try:
            with self.span("sweep.cell"):
                yield
        finally:
            self.count("events", 0, sum(net.engine.processed for net in self.networks))
            self.count("route_versions", 0, sum(net.route_version for net in self.networks))
            self.count("drops", 0, sum(plane.dropped_total for plane in self.planes))
            self.networks, self.planes = [], []
            for name, value in self._counters().items():
                delta = value - counters_before.get(name, 0)
                if delta:
                    self.count(f"counter.{name}", 0, delta)
            for name, (calls, wall_s) in self._callbacks().items():
                calls_before, wall_before = callbacks_before.get(name, (0, 0.0))
                if calls > calls_before:
                    self.count(f"callback.{name}", int((wall_s - wall_before) * 1e9),
                               calls - calls_before)
            self.cell, self.stats = outer_cell, outer_stats

    def count(self, key: str, elapsed_ns: int, calls: int = 1) -> None:
        """Add ``calls`` (or an exact quantity) and nanoseconds to ``key``."""
        entry = self.stats.get(key)
        if entry is None:
            entry = self.stats[key] = [0, 0]
        entry[0] += calls
        entry[1] += elapsed_ns

    def _counters(self) -> dict[str, int]:
        return {name: c.value for name, c in self.telemetry.counters.items()}

    def _callbacks(self) -> dict[str, tuple[int, float]]:
        profiler = self.telemetry.profiler
        if profiler is None:
            return {}
        return {name: (e[0], e[1]) for name, e in profiler.callbacks.items()}

    # ------------------------------------------------------------------

    def cell_ids(self) -> list[str]:
        return [cell for cell in self.scopes if cell != SETUP]

    def totals(self, cells: list[str]) -> dict[str, list[int]]:
        """Counts summed over ``cells``."""
        out: dict[str, list[int]] = {}
        for cell in cells:
            for key, (calls, ns) in self.scopes[cell].items():
                entry = out.setdefault(key, [0, 0])
                entry[0] += calls
                entry[1] += ns
        return out

    def self_times(self) -> dict[int, float]:
        """span id -> duration minus the time its child spans cover."""
        child_ns: dict[int, int] = {}
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] = (
                    child_ns.get(span.parent, 0) + span.end_ns - span.start_ns
                )
        return {
            span.id: (span.end_ns - span.start_ns - child_ns.get(span.id, 0)) / 1e9
            for span in self.spans
        }

    def span_problems(self) -> list[str]:
        """Spans left open, outside their parent, or with negative self time."""
        problems = []
        for span in self.spans:
            if span.end_ns < span.start_ns:
                problems.append(f"span {span.id} {span.name} never closed")
            if span.parent >= 0:
                parent = self.spans[span.parent]
                if not (parent.start_ns <= span.start_ns and span.end_ns <= parent.end_ns):
                    problems.append(f"span {span.id} {span.name} outside parent {parent.name}")
        for span_id, self_s in self.self_times().items():
            if self_s < 0:
                problems.append(f"span {span_id} {self.spans[span_id].name} self time {self_s}")
        return problems

    def write(self, path) -> None:
        """Write every span as one JSON object per line."""
        origin = self.spans[0].start_ns if self.spans else 0
        with open(path, "w") as handle:
            for span in self.spans:
                record = asdict(span)
                record["start_ns"] -= origin
                record["end_ns"] -= origin
                handle.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# Instrumentation


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args, **kwargs):
        with tracer.span(name):
            return fn(*args, **kwargs)
    return wrapper


def _counted(tracer: Tracer, name: str, fn: Callable, *, context: bool = False) -> Callable:
    """Count calls and nanoseconds of ``fn`` as ``name`` (or
    ``name@<context>`` inside a call that sets context). With
    ``context=True`` the call itself becomes the context of nested ones."""
    clock = time.perf_counter_ns

    def wrapper(*args, **kwargs):
        outer = tracer.context
        if context:
            tracer.context = name
        start = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.count(f"{name}@{outer}" if outer else name, clock() - start)
            tracer.context = outer
    return wrapper


class _TimedIterator:
    """Counts and times each request a ``RequestStream`` yields."""

    __slots__ = ("_it", "_tracer")

    def __init__(self, it, tracer: Tracer) -> None:
        self._it = it
        self._tracer = tracer

    def __iter__(self):
        return self

    def __next__(self):
        start = time.perf_counter_ns()
        try:
            request = next(self._it)
        except StopIteration:
            self._tracer.count("stream_next", time.perf_counter_ns() - start, 0)
            raise
        self._tracer.count("stream_next", time.perf_counter_ns() - start)
        return request


@contextlib.contextmanager
def instrumented(tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the layers' public calls for the duration of the block."""
    undo: list[tuple[object, str, object]] = []

    def patch(owner, attr: str, make: Callable[[Callable], Callable]) -> None:
        original = owner.__dict__[attr]
        undo.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def run_site(original):
        def wrapper(self, technique, site, **kwargs):
            with tracer.cell_scope(f"{technique.name}/{site}"):
                return original(self, technique, site, **kwargs)
        return wrapper

    def baseline_for(original):
        def wrapper(self, technique):
            with tracer.span("checkpoint.baseline"):
                snapshot = original(self, technique)
            tracer.snapshots.setdefault(technique.baseline_key, snapshot)
            return snapshot
        return wrapper

    def registering(registry: str):
        def make(original):
            def wrapper(self, *args, **kwargs):
                original(self, *args, **kwargs)
                if tracer.cell != SETUP:
                    getattr(tracer, registry).append(self)
            return wrapper
        return make

    def request_stream_iter(original):
        def wrapper(self):
            return _TimedIterator(original(self), tracer)
        return wrapper

    try:
        patch(FailoverExperiment, "run_site", run_site)
        patch(FailoverExperiment, "baseline_for", baseline_for)
        patch(FailoverExperiment, "selection_for",
              lambda fn: _spanned(tracer, "measurement.select", fn))
        patch(BgpNetwork, "__init__", registering("networks"))
        patch(BgpNetwork, "converge", lambda fn: _spanned(tracer, "bgp.converge", fn))
        patch(BgpNetwork, "run_for", lambda fn: _spanned(tracer, "engine.run_for", fn))
        patch(BgpNetwork, "next_hop", lambda fn: _counted(tracer, "next_hop", fn))
        patch(ForwardingPlane, "__init__", registering("planes"))
        patch(ForwardingPlane, "forward", lambda fn: _counted(tracer, "forward", fn))
        patch(ForwardingPlane, "snapshot_path",
              lambda fn: _counted(tracer, "snapshot_path", fn, context=True))
        patch(Prober, "probe_once", lambda fn: _counted(tracer, "probe_once", fn))
        patch(CatchmentCache, "resolve",
              lambda fn: _counted(tracer, "resolve", fn, context=True))
        patch(RequestStream, "__iter__", request_stream_iter)
        # restore_network is a module-level function: rebind every repro
        # module's reference to it.
        restore = _spanned(tracer, "checkpoint.restore", restore_network)
        for module in list(sys.modules.values()):
            if getattr(module, "__name__", "").startswith("repro"):
                for attr, value in list(vars(module).items()):
                    if value is restore_network:
                        undo.append((module, attr, value))
                        setattr(module, attr, restore)
        yield tracer
    finally:
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)


# ----------------------------------------------------------------------
# Per-layer metrics


def ratio(num: float, den: float) -> float:
    """``num / den``, or 0 when ``den`` is 0."""
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """The per-layer metrics of one traced iteration."""
    cells = tracer.cell_ids()
    n = len(cells)
    totals = tracer.totals(cells)

    def calls(key: str) -> int:
        return totals.get(key, [0, 0])[0]

    def nanos(key: str) -> int:
        return totals.get(key, [0, 0])[1]

    def span_s(name: str, in_cells: bool) -> list[float]:
        return [s.duration_s for s in tracer.spans
                if s.name == name and (s.cell != SETUP) == in_cells]

    def setup_s(name: str) -> float:
        return sum(span_s(name, in_cells=False))

    events = calls("events")
    cell_seconds = sum(span_s("sweep.cell", in_cells=True))
    lookups = calls("next_hop") + calls("next_hop@snapshot_path")
    lookup_ns = nanos("next_hop") + nanos("next_hop@snapshot_path")
    hop_lookups = calls("next_hop")
    forwards = calls("forward")
    resolves = calls("resolve")
    restores = span_s("checkpoint.restore", in_cells=True)
    snapshot_sizes = [len(s.dumps()) for s in tracer.snapshots.values()]
    propagations = tracer.telemetry.counters.get("verify.propagations")

    metrics = {
        "topology.build_s": setup_s("topology.build"),
        "analysis.preflight_s": setup_s("analysis.preflight"),
        "verify.gate_s": setup_s("verify.gate"),
        "verify.propagations": propagations.value if propagations else 0,
        "measurement.select_s": setup_s("measurement.select"),
        "parallel.shared_state_s": setup_s("parallel.shared_state"),
        "checkpoint.baseline_s": setup_s("checkpoint.baseline"),
        "checkpoint.snapshot_bytes": ratio(sum(snapshot_sizes), len(snapshot_sizes)),
        "checkpoint.restore_ms": ratio(sum(restores) * 1e3, len(restores)),
        "bgp.converge_s": ratio(sum(span_s("bgp.converge", in_cells=True)), n),
        "bgp.events_per_cell": ratio(events, n),
        "bgp.events_per_s": ratio(events, cell_seconds),
        "bgp.updates_per_cell": ratio(calls("counter.bgp.updates_received"), n),
        "bgp.route_versions_per_cell": ratio(calls("route_versions"), n),
        "dataplane.lookups_per_cell": ratio(lookups, n),
        "dataplane.lookup_ns": ratio(lookup_ns, lookups),
        "dataplane.forwards_per_cell": ratio(forwards, n),
        "dataplane.hops_per_forward": ratio(hop_lookups, forwards),
        "dataplane.probe_us": ratio(nanos("probe_once") / 1e3, calls("probe_once")),
        "dataplane.drop_frac": ratio(calls("drops"), forwards),
        "workload.resolves": ratio(resolves, n),
        "workload.cache_hit_ratio": (
            1.0 - ratio(calls("snapshot_path@resolve"), resolves) if resolves else 0.0
        ),
        "workload.stream_share": ratio(nanos("stream_next") / 1e9, cell_seconds),
        "workload.resolve_share": ratio(nanos("resolve") / 1e9, cell_seconds),
    }
    by_kind = {kind: 0.0 for kind, _ in CALLBACK_KINDS}
    by_kind["other"] = 0.0
    for key, (_, ns) in totals.items():
        if key.startswith("callback."):
            by_kind[callback_kind(key)] += ns / 1e9
    callback_s = sum(by_kind.values())
    metrics["engine.self_s"] = ratio(callback_s, n)
    for kind, seconds in by_kind.items():
        metrics[f"engine.share.{kind}"] = ratio(seconds, callback_s)
    return metrics


def workload_unit_costs(tracer: Tracer) -> dict[str, float]:
    """Nanoseconds per streamed request and per resolve, where the
    workload layer ran at all."""
    totals = tracer.totals(tracer.cell_ids())
    out = {}
    for key, label in (("stream_next", "per streamed request"), ("resolve", "per resolve")):
        calls, ns = totals.get(key, [0, 0])
        if calls:
            out[label] = ns / calls
    return out


def cell_counters(tracer: Tracer) -> dict[str, dict[str, int]]:
    """Exact work counts per cell: events, FIB writes and lookups, BGP
    updates, forwards, probes, resolves and requests streamed."""
    out = {}
    for cell in tracer.cell_ids():
        stats = tracer.scopes[cell]

        def calls(key: str) -> int:
            return stats.get(key, [0, 0])[0]

        out[cell] = {
            "events": calls("events"),
            "route_versions": calls("route_versions"),
            "bgp_updates": calls("counter.bgp.updates_received"),
            "fib_lookups": calls("next_hop") + calls("next_hop@snapshot_path"),
            "forwards": calls("forward"),
            "drops": calls("drops"),
            "probes": calls("probe_once"),
            "resolves": calls("resolve"),
            "requests": calls("stream_next"),
        }
    return out


def self_time_table(tracer: Tracer) -> dict[str, float]:
    """Span name -> summed self seconds, over the whole iteration."""
    table: dict[str, float] = {}
    self_times = tracer.self_times()
    for span in tracer.spans:
        table[span.name] = table.get(span.name, 0.0) + self_times[span.id]
    return dict(sorted(table.items(), key=lambda kv: -kv[1]))


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}

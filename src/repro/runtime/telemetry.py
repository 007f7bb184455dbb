"""Hierarchical telemetry for the SCF/HFX/MD hot paths.

The paper's headline numbers (near-perfect efficiency at 6.3M threads,
>10x time-to-solution) are *measurement* claims; this module is the
measurement layer the reproduction reports against.  Three pieces:

* :class:`Tracer` — a hierarchical span tracer: nested wall-clock spans
  with logical sequence numbers, per-span arguments, and thread/worker
  attribution (pool workers ship their batch timings back over the
  result pipes and the parent grafts them in as ``worker-N`` lanes).
  It records measured wall-clock only; the machine model's modelled
  BG/Q seconds stay in its own results.
* :class:`MetricsRegistry` — named counters/gauges that also absorb the
  :class:`~repro.integrals.eri.ERIEngine` quartet counters into one
  coherent namespace.
* Exporters — Chrome-trace JSON (``chrome://tracing`` / Perfetto), a
  flat metrics dict, and (via :func:`repro.analysis.report.profile_table`)
  a paper-style per-build profile table.

Disabled telemetry must cost (almost) nothing on the hot paths, so the
module ships :data:`NULL_TRACER`, a shared :class:`NullTracer` whose
``span()`` returns one reusable no-op context manager — instrumented
code calls the same API unconditionally and pays a few dozen
nanoseconds per span site when tracing is off.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

__all__ = [
    "Span", "Tracer", "NullTracer", "NULL_TRACER",
    "MetricsRegistry", "TelemetrySnapshot", "chrome_trace",
]

@dataclass
class Span:
    """One traced interval.

    ``start``/``end`` are ``time.perf_counter()`` seconds; ``seq`` is
    the logical timestamp (global creation order), ``tid`` the
    attributed execution lane (``main``, ``worker-3`` ...).
    """

    name: str
    cat: str
    start: float
    end: float
    tid: str = "main"
    seq: int = 0
    depth: int = 0
    parent: int | None = None     # index of the enclosing span
    args: dict | None = None

    @property
    def duration(self) -> float:
        """Span length in seconds."""
        return self.end - self.start

    def to_dict(self) -> dict:
        """JSON-serializable form."""
        return {
            "name": self.name, "cat": self.cat,
            "start": self.start, "end": self.end, "duration": self.duration,
            "tid": self.tid, "seq": self.seq,
            "depth": self.depth, "parent": self.parent,
            "args": dict(self.args) if self.args else {},
        }


class MetricsRegistry:
    """Named counters and gauges, with an absorber for the ERI engine's
    counters.

    ``count`` accumulates; ``set`` overwrites (gauge semantics) —
    :meth:`absorb_engine` uses gauge semantics so re-absorbing the same
    source (e.g. an engine counter read after every build) never double
    counts.
    """

    def __init__(self) -> None:
        self._values: dict[str, float] = {}

    def count(self, name: str, n: float = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self._values[name] = self._values.get(name, 0) + n

    def set(self, name: str, value: float) -> None:
        """Set gauge ``name`` to ``value``."""
        self._values[name] = value

    def get(self, name: str, default: float = 0) -> float:
        """Current value of ``name`` (``default`` when unset)."""
        return self._values.get(name, default)

    def absorb_engine(self, engine, prefix: str = "eri.") -> None:
        """Record an :class:`repro.integrals.eri.ERIEngine`'s counters."""
        self.set(f"{prefix}quartets_computed", engine.quartets_computed)
        self.set(f"{prefix}quartets_screening", engine.quartets_screening)

    def to_dict(self) -> dict:
        """Flat ``name -> value`` copy."""
        return dict(self._values)

    # --- Restartable protocol -------------------------------------------------

    def get_state(self) -> dict:
        """Picklable copy of every counter/gauge (checkpointing)."""
        return dict(self._values)

    def set_state(self, state: dict) -> None:
        """Replace the registry contents with a restored state.

        Restored *counters* keep accumulating from their saved values,
        so ``--profile`` totals span the whole logical run; restored
        *gauges* simply hold until their next ``set``.
        """
        self._values = {str(k): v for k, v in dict(state).items()}


@dataclass(frozen=True)
class TelemetrySnapshot:
    """Immutable view of a tracer's spans and metrics at one instant.

    ``summary()`` is the compact scalar surface (tables, CLI JSON);
    ``to_dict()`` is the full JSON-serializable dump — the same
    convention :class:`~repro.scf.rhf.SCFResult`,
    :class:`~repro.machine.simulator.BuildTiming` and
    :class:`~repro.machine.threads.ScheduleResult` follow.
    """

    name: str
    epoch: float
    spans: tuple = ()
    counters: dict = field(default_factory=dict)

    def by_name(self) -> dict[str, tuple[int, float]]:
        """``span name -> (calls, total seconds)``."""
        out: dict[str, tuple[int, float]] = {}
        for s in self.spans:
            calls, total = out.get(s.name, (0, 0.0))
            out[s.name] = (calls + 1, total + s.duration)
        return out

    def by_category(self) -> dict[str, float]:
        """``category -> total seconds``."""
        out: dict[str, float] = {}
        for s in self.spans:
            key = s.cat or "default"
            out[key] = out.get(key, 0.0) + s.duration
        return out

    def summary(self) -> dict:
        """Compact scalar surface: span totals + counters.

        ``wall_s`` is the traced root interval (sum of the top-level
        spans) — the denominator for per-span time shares.
        """
        from .schema import result_envelope

        wall_s = sum(s.duration for s in self.spans if s.depth == 0)
        return result_envelope(
            "telemetry", wall_s=wall_s,
            counters=dict(sorted(self.counters.items())),
            name=self.name,
            nspans=len(self.spans),
            span_totals={
                name: {"calls": calls, "total_s": total}
                for name, (calls, total) in sorted(self.by_name().items())
            },
        )

    def to_dict(self) -> dict:
        """Full JSON-serializable dump (every span, every counter)."""
        d = self.summary()
        d["epoch"] = self.epoch
        d["spans"] = [s.to_dict() for s in self.spans]
        return d


def chrome_trace(snapshot: TelemetrySnapshot) -> dict:
    """Chrome trace-event JSON (load in ``chrome://tracing``/Perfetto).

    Spans land on pid 1, one ``tid`` lane per attributed
    thread/worker.  Counters ride along as one final instant event so
    the exported file is self-contained.
    """
    tids: dict[str, int] = {}
    events: list[dict] = [
        {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
         "args": {"name": snapshot.name}},
    ]

    def tid_of(lane: str) -> int:
        if lane not in tids:
            tids[lane] = len(tids) + 1
            events.append({"ph": "M", "name": "thread_name", "pid": 1,
                           "tid": tids[lane], "args": {"name": lane}})
        return tids[lane]

    for s in snapshot.spans:
        args = dict(s.args) if s.args else {}
        args["seq"] = s.seq
        args["depth"] = s.depth
        events.append({
            "ph": "X", "name": s.name, "cat": s.cat or "default",
            "pid": 1, "tid": tid_of(s.tid),
            "ts": (s.start - snapshot.epoch) * 1e6,
            "dur": max(s.duration, 0.0) * 1e6,
            "args": args,
        })
    if snapshot.counters:
        events.append({
            "ph": "i", "s": "g", "name": "counters", "pid": 1,
            "tid": tid_of("main"), "ts": 0.0,
            "args": dict(sorted(snapshot.counters.items())),
        })
    return {"traceEvents": events, "displayTimeUnit": "ms"}


class _SpanCtx:
    """Context manager produced by :meth:`Tracer.span`."""

    __slots__ = ("_tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span):
        self._tracer = tracer
        self.span = span

    def add(self, **args) -> None:
        """Attach arguments discovered while the span is running."""
        if self.span.args is None:
            self.span.args = {}
        self.span.args.update(args)

    def __enter__(self) -> "_SpanCtx":
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._close(self.span)


class _NullCtx:
    """Reusable no-op span context (the disabled fast path)."""

    __slots__ = ()

    def add(self, **args) -> None:
        pass

    def __enter__(self) -> "_NullCtx":
        return self

    def __exit__(self, *exc) -> None:
        pass


_SHARED_NULL_CTX = _NullCtx()


class Tracer:
    """Hierarchical span tracer + metrics registry.

    One tracer instruments one run (an SCF, a trajectory, a benchmark).
    Spans opened while another span is open nest under it; spans added
    from external timings (:meth:`add_span`) nest under the currently
    open span, which is how pool-worker batches appear inside the
    parent's ``pool.wait``.
    """

    enabled = True

    def __init__(self, name: str = "repro"):
        self.name = name
        self.epoch = time.perf_counter()
        self.spans: list[Span] = []
        self.metrics = MetricsRegistry()
        self._stack: list[int] = []
        self._seq = 0

    # --- recording -----------------------------------------------------------

    def span(self, name: str, cat: str = "", tid: str = "main",
             **args) -> _SpanCtx:
        """Open a nested wall-clock span around a ``with`` block."""
        self._seq += 1
        s = Span(name=name, cat=cat, start=time.perf_counter(),
                 end=float("nan"), tid=tid, seq=self._seq,
                 depth=len(self._stack),
                 parent=self._stack[-1] if self._stack else None,
                 args=args or None)
        idx = len(self.spans)
        self.spans.append(s)
        self._stack.append(idx)
        return _SpanCtx(self, s)

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        # tolerate mis-nested exits: unwind to (and including) this span
        idx = self.spans.index(span)
        while self._stack and self._stack[-1] >= idx:
            self._stack.pop()

    def add_span(self, name: str, start: float, end: float, cat: str = "",
                 tid: str = "main", **args) -> Span:
        """Record an externally timed wall span (e.g. a worker batch
        shipped back over a result pipe).  Nests under the open span."""
        self._seq += 1
        s = Span(name=name, cat=cat, start=start, end=end, tid=tid,
                 seq=self._seq,
                 depth=len(self._stack),
                 parent=self._stack[-1] if self._stack else None,
                 args=args or None)
        self.spans.append(s)
        return s

    def count(self, name: str, n: float = 1) -> None:
        """Shorthand for ``tracer.metrics.count``."""
        self.metrics.count(name, n)

    # --- export --------------------------------------------------------------

    def snapshot(self) -> TelemetrySnapshot:
        """Immutable copy of the current spans and counters.

        Still-open spans are snapshotted as ending now."""
        now = time.perf_counter()
        spans = []
        for s in self.spans:
            if s.end != s.end:          # NaN: still open
                s = Span(s.name, s.cat, s.start, now, s.tid,
                         s.seq, s.depth, s.parent,
                         dict(s.args) if s.args else None)
            spans.append(s)
        return TelemetrySnapshot(name=self.name, epoch=self.epoch,
                                 spans=tuple(spans),
                                 counters=self.metrics.to_dict())

    def chrome_trace(self) -> dict:
        """Chrome trace-event JSON of the current state."""
        return chrome_trace(self.snapshot())

    def write_chrome_trace(self, path) -> int:
        """Write the Chrome-trace JSON; returns the span count."""
        snap = self.snapshot()
        with open(path, "w") as fh:
            json.dump(chrome_trace(snap), fh)
        return len(snap.spans)


class NullTracer:
    """API-compatible no-op tracer (the disabled fast path).

    Every method is a stub; ``span()`` hands out one shared context
    manager so disabled instrumentation allocates nothing."""

    enabled = False

    def __init__(self) -> None:
        self.name = "null"
        self.epoch = 0.0
        self.spans: list = []
        self.metrics = _NULL_METRICS

    def span(self, name, cat="", tid="main", **args) -> _NullCtx:
        """No-op span."""
        return _SHARED_NULL_CTX

    def add_span(self, name, start, end, cat="", tid="main", **args) -> None:
        """No-op."""

    def count(self, name, n=1) -> None:
        """No-op."""

    def snapshot(self) -> TelemetrySnapshot:
        """An empty snapshot."""
        return TelemetrySnapshot(name=self.name, epoch=0.0)

    def chrome_trace(self) -> dict:
        """An empty (but valid) Chrome trace."""
        return chrome_trace(self.snapshot())

    def write_chrome_trace(self, path) -> int:
        """Write an empty Chrome trace; returns 0."""
        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh)
        return 0


class _NullMetrics(MetricsRegistry):
    """Registry whose mutators are no-ops (shared by NullTracer)."""

    def count(self, name, n=1) -> None:  # noqa: D102 - see base
        pass

    def set(self, name, value) -> None:  # noqa: D102 - see base
        pass

    def set_state(self, state) -> None:  # noqa: D102 - see base
        pass  # the shared null registry must never absorb state


_NULL_METRICS = _NullMetrics()

#: Shared disabled tracer: instrument unconditionally against this.
NULL_TRACER = NullTracer()

"""Bench-owned spans around the program's public callables.

No file under ``src/`` changes for the benchmark, so the layers are timed
from outside: :class:`Patcher` swaps each target callable for a wrapper
that records one span (name, start, end, parent) per call into a
:class:`SpanTracer`, and swaps the originals back afterwards.  Spans stay
in memory; :func:`chrome_trace` serializes them when the run ends.

Single-threaded by design: every traced pass runs the program on the
calling thread (one local lane, or the process transport's single-threaded
parent loop), so the span stack needs no lock.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

ROOT_SPAN = "bench.timed"


class SpanTracer:
    """In-memory span store.  A span is ``[name, t0, t1, parent, tag]``
    with ``parent`` an index into :attr:`spans` (-1 for a root)."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.maxima: dict[str, float] = {}
        self.samples: dict[str, list[float]] = {}

    # --- counters the hooks feed ---------------------------------------------

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def maximum(self, name: str, value: float) -> None:
        if value > self.maxima.get(name, 0):
            self.maxima[name] = value

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    # --- spans ----------------------------------------------------------------

    def begin(self, name: str) -> list:
        rec = [name, 0.0, 0.0, self.stack[-1] if self.stack else -1, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = perf_counter()
        return rec

    def end(self, rec: list) -> None:
        rec[2] = perf_counter()
        self.stack.pop()

    def wrap(self, name: str, fn, hook=None):
        """``fn`` with one span per call; ``hook(tracer, rec, args,
        kwargs, result)`` runs after a successful call, outside the span."""
        begin, end = self.begin, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = begin(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                end(rec)
            if hook is not None:
                hook(self, rec, args, kwargs, out)
            return out

        wrapper.__bench_span__ = name
        return wrapper


def span_cost_s(calls: int = 20000) -> float:
    """Seconds one span adds to a call, measured on a no-op.  Times the
    span count this bounds what tracing cost a pass far more tightly
    than the difference of two noisy passes can."""
    def noop():
        return None

    wrapped = SpanTracer().wrap("noop", noop)
    timings = []
    for fn in (noop, wrapped):
        t0 = perf_counter()
        for _ in range(calls):
            fn()
        timings.append(perf_counter() - t0)
    return max(0.0, timings[1] - timings[0]) / calls


def self_times(spans) -> dict[str, dict]:
    """Per span name: calls, total and self seconds, and the durations.

    A span's self time is its duration minus the part its direct
    children cover, so the self times of a tree sum to the root's
    duration exactly.
    """
    child_s = [0.0] * len(spans)
    for _name, t0, t1, parent, _tag in spans:
        if parent >= 0:
            child_s[parent] += t1 - t0
    out: dict[str, dict] = {}
    for i, (name, t0, t1, _parent, _tag) in enumerate(spans):
        agg = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                    "self_s": 0.0, "durations": []})
        agg["calls"] += 1
        agg["total_s"] += t1 - t0
        agg["self_s"] += (t1 - t0) - child_s[i]
        agg["durations"].append(t1 - t0)
    return out


def durations(spans, name: str, tag=None) -> list[float]:
    return [t1 - t0 for n, t0, t1, _p, tg in spans
            if n == name and (tag is None or tg == tag)]


def count_with_ancestor(spans, name: str, ancestor: str) -> int:
    """Spans called ``name`` that have an ``ancestor`` span above them."""
    n = 0
    for rec in spans:
        if rec[0] != name:
            continue
        parent = rec[3]
        while parent >= 0:
            if spans[parent][0] == ancestor:
                n += 1
                break
            parent = spans[parent][3]
    return n


def chrome_trace(spans, *, label: str) -> dict:
    """The spans as Chrome-trace ("X" complete events, microseconds)."""
    origin = min((s[1] for s in spans), default=0.0)
    events = [{"name": name, "ph": "X", "pid": 1, "tid": 1,
               "ts": (t0 - origin) * 1e6, "dur": (t1 - t0) * 1e6,
               "args": {"id": i, "parent": parent, "tag": tag}}
              for i, (name, t0, t1, parent, tag) in enumerate(spans)]
    return {"traceEvents": events, "otherData": {"label": label}}


# --- installing and removing the wrappers -----------------------------------

def _resolve(path: str):
    """``"pkg.mod:attr"`` or ``"pkg.mod:Class.attr"`` -> (owner, attr)."""
    modname, _, qual = path.partition(":")
    owner = importlib.import_module(modname)
    *parents, attr = qual.split(".")
    for p in parents:
        owner = getattr(owner, p)
    return owner, attr


def _repro_namespaces() -> list[dict]:
    return [vars(m) for name, m in list(sys.modules.items())
            if m is not None and (name == "repro"
                                  or name.startswith("repro."))]


class Patcher:
    """Installs span wrappers and takes every one of them out again.

    A module-level function is replaced in *every* loaded ``repro``
    namespace that binds it (``from ..integrals import eri_tensor``
    copies the binding, so patching the defining module alone would
    miss the caller); a method is replaced on its class.  Import every
    module a workload can reach before :meth:`install`, so no module
    imports a wrapper after the fact and keeps it.
    """

    def __init__(self, tracer: SpanTracer):
        self.tracer = tracer
        self._undo: list[tuple] = []      # (namespace-or-class, attr, original)

    def install(self, targets) -> None:
        """``targets``: iterable of ``(span_name, path, hook)``."""
        for span_name, path, hook in targets:
            owner, attr = _resolve(path)
            if isinstance(owner, type):
                raw = vars(owner)[attr]
                if isinstance(raw, classmethod):
                    new = classmethod(
                        self.tracer.wrap(span_name, raw.__func__, hook))
                else:
                    new = self.tracer.wrap(span_name, raw, hook)
                setattr(owner, attr, new)
                self._undo.append((owner, attr, raw))
                continue
            fn = getattr(owner, attr)
            new = self.tracer.wrap(span_name, fn, hook)
            for ns in _repro_namespaces():
                for key, value in list(ns.items()):
                    if value is fn:
                        ns[key] = new
                        self._undo.append((ns, key, fn))

    def remove(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def __enter__(self) -> "Patcher":
        return self

    def __exit__(self, *exc) -> None:
        self.remove()


def leftover_wrappers() -> list[str]:
    """Names still bound to a span wrapper in any loaded ``repro``
    namespace or class — must be empty outside a traced pass."""
    found = []
    for ns in _repro_namespaces():
        modname = ns.get("__name__", "?")
        for key, value in list(ns.items()):
            if hasattr(value, "__bench_span__"):
                found.append(f"{modname}:{key}")
            elif isinstance(value, type) and \
                    getattr(value, "__module__", None) == modname:
                for attr, member in list(vars(value).items()):
                    fn = getattr(member, "__func__", member)
                    if hasattr(fn, "__bench_span__"):
                        found.append(f"{modname}:{key}.{attr}")
    return found

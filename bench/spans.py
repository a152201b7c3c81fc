"""Span tracing around the calls into each dgstab layer.

The tracer replaces module attributes that the package resolves at call
time (``certify.find_*``, ``classes.sample_batch``, ``np.linalg.eigvals``
and so on) with wrappers that pass arguments and results through
unchanged and, while a benchmark call is active, record one span per
call: id, name, start, end, parent, thread, call id, the calling
function's name (``site``), the work asked for and figures from the
result.  Spans stay in memory;
``summarize`` turns one pass's spans into the per-layer metrics.

Wrappers are thread-safe: falsification chunks run on pool threads,
whose spans take the calling thread's innermost open span as parent.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    call: int
    site: str
    count: float | None = None  # work asked for: matrices, members, points, n
    extra: tuple | None = None  # from the result: trials, bytes, (iterations, found)

    @property
    def dur(self) -> float:
        return self.end - self.start


def _matrices(args, kwargs):
    shape = np.shape(args[0])
    return int(np.prod(shape[:-2])) if len(shape) > 2 else 1


def _sample_members(args, kwargs):
    return int(args[2] if len(args) > 2 else kwargs["count"])


def _points(args, kwargs):
    return int(np.size(args[1] if len(args) > 1 else kwargs["lams"]))


def _order(args, kwargs):
    return int(np.shape(args[0])[0])


def _trials(result):
    return (int(result.trials_used),)


def _search(result):
    return (int(result.iterations), bool(result.found))


def _text_bytes(result):
    return (len(result.encode()),)


#: (module key, attribute, span name, work count from the arguments,
#: figures from the result) for every wrapped call.
TARGETS = [
    ("engine", "decide", "engine.decide", None, _trials),
    ("engine", "total_stability", "engine.total_stability", None, None),
    ("cli", "main", "cli.main", None, None),
    ("certify", "find_diagonal_lyapunov", "certify.search", None, _search),
    ("certify", "find_stein_diagonal", "certify.search", None, _search),
    ("certify", "find_structured_lyapunov", "certify.search", None, _search),
    ("certify", "verify_certificate", "certify.verify", None, None),
    ("classes", "sample_batch", "classes.sample_batch", _sample_members, None),
    ("classes", "enumerate_members", "classes.enumerate_members", None, None),
    ("algebra", "apply", "algebra.apply", None, None),
    ("regions", "exterior_margins", "regions.exterior_margins", _points, None),
    ("numpy.linalg", "eigvals", "linalg.eigvals", _matrices, None),
    ("numpy.linalg", "eigh", "linalg.eigh", None, None),
    ("linalg", "solve_lyapunov", "linalg.solve_lyapunov", _order, None),
    ("linalg", "solve_stein", "linalg.solve_stein", _order, None),
]

SERIALIZE_EXTRA = {"dumps": _text_bytes}

#: Name of the engine's per-chunk falsification function: spans called
#: from it are the falsification layer.
FALSIFY_SITE = "eval_chunk"


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.call_id: int | None = None
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._owner_stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        # a pool thread: the calling thread's innermost open span
        owner = self._owner_stack
        return owner[-1] if owner else None

    def _record(self, span: Span) -> None:
        with self._lock:
            self.spans.append(span)

    def wrap(self, name: str, fn, count=None, extra=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = tracer.call_id
            if call is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            site = sys._getframe(1).f_code.co_name
            work = count(args, kwargs) if count else None
            stack.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                stack.pop()
                tracer._record(Span(sid, name, start, end, parent,
                                    threading.get_ident(), call, site, work))
                raise
            end = time.perf_counter()
            stack.pop()
            tracer._record(Span(sid, name, start, end, parent, threading.get_ident(),
                                call, site, work, extra(result) if extra else None))
            return result

        return wrapper

    def wrap_generator(self, name: str, fn):
        """A generator's span covers only the time spent producing items,
        so the consumer's own work between items is not attributed to
        it; ``count`` is the number of items produced."""
        tracer = self

        def traced(gen, parent, site, call):
            sid = next(tracer._ids)
            first = last = time.perf_counter()
            busy = 0.0
            items = 0
            try:
                while True:
                    t0 = time.perf_counter()
                    try:
                        item = next(gen)
                    except StopIteration:
                        last = time.perf_counter()
                        busy += last - t0
                        return
                    last = time.perf_counter()
                    busy += last - t0
                    items += 1
                    yield item
            finally:
                tracer._record(Span(sid, name, first, last, parent,
                                    threading.get_ident(), call, site, items,
                                    (busy,)))

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            call = tracer.call_id
            gen = fn(*args, **kwargs)
            if call is None:
                return gen
            parent = tracer._parent(tracer._stack())
            return traced(gen, parent, sys._getframe(1).f_code.co_name, call)

        return wrapper

    # -- installation ----------------------------------------------------------

    def _patch(self, module, attr: str, new) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self, dg: dict) -> None:
        """Wrap the targets in the modules of ``dg`` (module key ->
        module object; ``numpy.linalg`` is added here)."""
        mods = dict(dg)
        mods["numpy.linalg"] = np.linalg
        for key, attr, name, count, extra in TARGETS:
            module = mods.get(key)
            if module is None or not hasattr(module, attr):
                continue
            fn = getattr(module, attr)
            if attr == "enumerate_members":
                new = self.wrap_generator(name, fn)
            else:
                new = self.wrap(name, fn, count, extra)
            self._patch(module, attr, new)
        ser = mods.get("serialize")
        if ser is not None:
            for attr in ser.__all__:
                self._patch(ser, attr, self.wrap(
                    f"serialize.{attr}", getattr(ser, attr), None,
                    SERIALIZE_EXTRA.get(attr)))

    def uninstall(self) -> None:
        while self._patched:
            module, attr, old = self._patched.pop()
            setattr(module, attr, old)

    # -- one benchmark call -------------------------------------------------------

    def run_call(self, call_id: int, fn):
        """Run ``fn`` as call ``call_id`` under a root span."""
        sid = next(self._ids)
        self.call_id = call_id
        stack = self._stack()
        stack.append(sid)
        self._owner_stack = stack
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            stack.pop()
            self.call_id = None
            self._record(Span(sid, "call", start, end, None,
                              threading.get_ident(), call_id, "benchmark"))


# ---------------------------------------------------------------------------
# analysis


def union_length(intervals) -> float:
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the part of it its children cover."""
    by_id = {s.sid: s for s in spans}
    children: dict[int, list] = {}
    for s in spans:
        if s.parent in by_id:
            p = by_id[s.parent]
            children.setdefault(s.parent, []).append(
                (max(s.start, p.start), min(s.end, p.end)))
    return {s.sid: s.dur - union_length(
        [iv for iv in children.get(s.sid, ()) if iv[1] > iv[0]]) for s in spans}


#: Every per-layer metric with its unit, in report order.
LAYER_UNITS = {
    "certify.search.calls": "count",
    "certify.search.iterations": "count",
    "certify.search.ms": "ms/pass",
    "certify.search.us_per_iter": "us/iter",
    "certify.search.found_frac": "frac",
    "linalg.eigh.calls": "count",
    "classes.sample_batch.members": "count",
    "classes.sample_batch.ms": "ms/pass",
    "algebra.apply.ms": "ms/pass",
    "linalg.eigvals.matrices": "count",
    "linalg.eigvals.ms": "ms/pass",
    "linalg.eigvals.us_per_matrix": "us/matrix",
    "regions.exterior_margins.points": "count",
    "regions.exterior_margins.ms": "ms/pass",
    "engine.falsify.trials": "count",
    "engine.falsify.concurrency": "ratio",
    "classes.enumerate_members.members": "count",
    "classes.enumerate_members.ms": "ms/pass",
    "engine.decide.calls": "count",
    "engine.decide.self_ms": "ms/pass",
    "engine.total_stability.self_ms": "ms/pass",
    "certify.verify.calls": "count",
    "certify.verify.ms": "ms/pass",
    "serialize.ms": "ms/pass",
    "serialize.bytes": "bytes",
    "cli.self_ms": "ms/pass",
    **{f"linalg.{f}.n{n}.ms": "ms/solve" for f in ("solve_lyapunov", "solve_stein")
       for n in (8, 16, 24, 32)},
    "linalg.solve.operator_bytes_computed": "bytes",
}


def summarize(spans, factor: dict[int, float]) -> dict[str, float]:
    """Per-layer metrics of one pass; a layer that did not run reads 0.
    Times of call ``c`` are multiplied by ``factor[c]``, the call's scale
    to the reference machine speed."""
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def ms(name, spans=None):
        group = by_name.get(name, ()) if spans is None else spans
        return 1e3 * sum(s.dur * factor[s.call] for s in group)

    def count(name):
        return sum(s.count or 0 for s in by_name.get(name, ()))

    def first(name):
        return sum(s.extra[0] for s in by_name.get(name, ()) if s.extra)

    selfs = self_times(spans)
    m: dict[str, float] = {}

    search = by_name.get("certify.search", [])
    iters = first("certify.search")
    m["certify.search.calls"] = len(search)
    m["certify.search.iterations"] = iters
    m["certify.search.ms"] = ms("certify.search")
    m["certify.search.us_per_iter"] = 1e3 * ms("certify.search") / iters if iters else 0.0
    m["certify.search.found_frac"] = (
        sum(1 for s in search if s.extra and s.extra[1]) / len(search) if search else 0.0)
    m["linalg.eigh.calls"] = len(by_name.get("linalg.eigh", ()))

    m["classes.sample_batch.members"] = count("classes.sample_batch")
    m["classes.sample_batch.ms"] = ms("classes.sample_batch")
    m["algebra.apply.ms"] = ms("algebra.apply")
    mats = count("linalg.eigvals")
    m["linalg.eigvals.matrices"] = mats
    m["linalg.eigvals.ms"] = ms("linalg.eigvals")
    m["linalg.eigvals.us_per_matrix"] = 1e3 * ms("linalg.eigvals") / mats if mats else 0.0
    m["regions.exterior_margins.points"] = count("regions.exterior_margins")
    m["regions.exterior_margins.ms"] = ms("regions.exterior_margins")
    m["engine.falsify.trials"] = first("engine.decide")
    chunk = [(s.start, s.end) for s in spans if s.site == FALSIFY_SITE]
    covered = union_length(chunk)
    m["engine.falsify.concurrency"] = (
        sum(hi - lo for lo, hi in chunk) / covered if covered > 0 else 0.0)

    enum = by_name.get("classes.enumerate_members", [])
    m["classes.enumerate_members.members"] = sum(s.count for s in enum)
    m["classes.enumerate_members.ms"] = 1e3 * sum(s.extra[0] * factor[s.call]
                                                  for s in enum)

    m["engine.decide.calls"] = len(by_name.get("engine.decide", ()))
    for name in ("engine.decide", "engine.total_stability", "cli"):
        key = "cli.main" if name == "cli" else name
        m[f"{name}.self_ms"] = 1e3 * sum(selfs[s.sid] * factor[s.call]
                                         for s in by_name.get(key, ()))
    m["certify.verify.calls"] = len(by_name.get("certify.verify", ()))
    m["certify.verify.ms"] = ms("certify.verify")
    by_id = {s.sid: s for s in spans}
    outer = [s for s in spans if s.name.startswith("serialize.")
             and not by_id.get(s.parent, s).name.startswith("serialize.")]
    m["serialize.ms"] = ms("", outer)
    m["serialize.bytes"] = first("serialize.dumps")

    op_bytes = 0
    for f in ("solve_lyapunov", "solve_stein"):
        solves = by_name.get(f"linalg.{f}", [])
        for n in (8, 16, 24, 32):
            at_n = [s for s in solves if s.count == n]
            m[f"linalg.{f}.n{n}.ms"] = ms("", at_n) / len(at_n) if at_n else 0.0
        # the dense operator is (n^2 x n^2) float64, computed from n
        op_bytes += sum(8 * s.count ** 4 for s in solves)
    m["linalg.solve.operator_bytes_computed"] = op_bytes
    return m

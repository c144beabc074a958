"""Outside-in span tracing of a live ServingEngine.

:func:`instrument` replaces public methods of the objects an engine
built -- admission controller, executor (and its thread pool's
``submit``), per-shard locks, shards, replica sets, backend structures
and every store in each replica chain -- with instance attributes that
record a span around the original call.  The engine's code reaches all
of them through late-bound ``self._store.read(...)``-style lookups, so
the wrappers see every call and no program code changes.
:meth:`Tracer.uninstall` deletes the instance attributes again.

A span is ``(span id, parent id, batch id, name, start ns, end ns, n)``.
The parent is the innermost open span on the calling thread; a task the
executor submits to a worker thread takes the submitting ``execute``
span as its parent.  The batch id is the id of the root span, the
client's ``engine.execute`` call.  ``n`` is a per-call count -- records
in a block read, points in an answer, 1 for a spanned q4 -- and -1 when
the call raised.  Spans stay in per-thread arrays until the run ends.

A layer's *self* time is its span's duration minus the union of its
child spans' intervals, so concurrent worker tasks under one
``execute`` are not subtracted twice.  Each traced child call also
costs the tracer some time outside the child's span but inside the
parent's; :func:`calibrate_child_cost` measures that cost once, and
:class:`SpanStats` subtracts it from the parent's self time once per
direct child span.
"""

from __future__ import annotations

import itertools
import statistics
import threading
from array import array
from collections import defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Optional, Tuple

_FIELDS = 7  # id, parent, batch, name, start, end, n


def _len_block(out, args, kwargs) -> int:
    return len(out.records)


def _len_result(out, args, kwargs) -> int:
    return len(out)


def _truth(out, args, kwargs) -> int:
    return int(bool(out))


def _spanned(out, args, kwargs) -> int:
    return int(bool(kwargs.get("spanned")))


class _ThreadState(threading.local):
    def __init__(self, tracer: "Tracer"):
        self.stack: List[Tuple[int, int]] = []
        self.buf = array("q")
        with tracer._lock:
            tracer._buffers.append(self.buf)


class Tracer:
    """Records spans from instance-level wrappers around engine objects."""

    def __init__(self):
        self._lock = threading.Lock()
        self._wrap_lock = threading.RLock()
        self._buffers: List[array] = []
        self._ids = itertools.count(1)
        self._local = _ThreadState(self)
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._installed: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # recording
    # ------------------------------------------------------------------
    def _name(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _call(self, name_id: int, fn: Callable, args, kwargs,
              count: Optional[Callable], ctx: Optional[Tuple[int, int]] = None):
        state = self._local
        stack = state.stack
        if ctx is None:
            ctx = stack[-1] if stack else (0, 0)
        parent, batch = ctx
        sid = next(self._ids)
        stack.append((sid, batch or sid))
        t0 = perf_counter_ns()
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            t1 = perf_counter_ns()
            stack.pop()
            state.buf.extend((sid, parent, batch or sid, name_id, t0, t1, -1))
            raise
        t1 = perf_counter_ns()
        stack.pop()
        n = count(out, args, kwargs) if count is not None else 0
        state.buf.extend((sid, parent, batch or sid, name_id, t0, t1, n))
        return out

    def wrap(self, obj, method: str, name: str,
             count: Optional[Callable] = None,
             before: Optional[Callable] = None) -> None:
        """Trace ``obj.method`` as span ``name`` (idempotent per object)."""
        with self._wrap_lock:
            if _is_traced(obj, method):
                return
            self._wrap(obj, method, name, count, before)

    def _wrap(self, obj, method, name, count, before) -> None:
        original = vars(obj).get(method, _MISSING)
        fn = getattr(obj, method)
        name_id = self._name(name)
        call = self._call

        if before is None:
            def traced(*args, **kwargs):
                return call(name_id, fn, args, kwargs, count)
        else:
            def traced(*args, **kwargs):
                before(obj)
                return call(name_id, fn, args, kwargs, count)

        traced._traced = True
        setattr(obj, method, traced)
        self._installed.append((obj, method, original))

    def wrap_submit(self, pool, name: str) -> None:
        """Trace tasks submitted to a thread pool; each task's parent is
        the span open on the submitting thread."""
        submit = pool.submit
        name_id = self._name(name)
        call = self._call

        def traced_submit(fn, *args, **kwargs):
            stack = self._local.stack
            ctx = stack[-1] if stack else (0, 0)

            def task(*a, **k):
                return call(name_id, fn, a, k, _task_size, ctx)

            return submit(task, *args, **kwargs)

        pool.submit = traced_submit
        self._installed.append((pool, "submit", _MISSING))

    def uninstall(self) -> None:
        """Restore every wrapped attribute (newest first)."""
        for obj, method, original in reversed(self._installed):
            if original is _MISSING:
                delattr(obj, method)
            else:
                setattr(obj, method, original)
        self._installed.clear()

    @property
    def span_count(self) -> int:
        with self._lock:
            return sum(len(b) for b in self._buffers) // _FIELDS

    def columns(self) -> List[array]:
        """Every recorded span as seven columns (id, parent, batch,
        name, start, end, n), grouped by recording thread."""
        with self._lock:
            flat = array("q")
            for buf in self._buffers:
                flat.extend(buf)
        return [flat[i::_FIELDS] for i in range(_FIELDS)]

    def write_tsv(self, path) -> int:
        """Write every span as a tab-separated line; returns the count."""
        cols = self.columns()
        names = self.names
        with open(path, "w") as fh:
            fh.write("span_id\tparent_id\tbatch_id\tname\tstart_ns\tend_ns\tn\n")
            for sid, parent, batch, name, t0, t1, n in zip(*cols):
                fh.write(f"{sid}\t{parent}\t{batch}\t{names[name]}\t{t0}\t{t1}\t{n}\n")
        return len(cols[0])


_MISSING = object()


def _is_traced(obj, method: str) -> bool:
    return getattr(vars(obj).get(method), "_traced", False)


def _task_size(out, args, kwargs) -> int:
    return len(args[1])


# ----------------------------------------------------------------------
# instrumenting an engine
# ----------------------------------------------------------------------
STORE_LAYERS = {
    "BlockStore": "io.blockstore",
    "ChecksummedStore": "io.checksum",
    "SnapshotStore": "serve.snapshots",
    "FaultyStore": "resilience.faulty_store",
    "RetryingStore": "resilience.retry",
    "BufferPool": "io.bufferpool",
}

#: every layer, top of the call path first
LAYERS = (
    "serve.engine", "serve.admission", "serve.executor", "serve.locks",
    "serve.shards", "serve.replication", "core", "core.static_index",
    "io.bufferpool", "resilience.retry", "resilience.faulty_store",
    "serve.snapshots", "io.checksum", "io.blockstore",
)


def _wrap_store(tracer: Tracer, store, layer: str) -> None:
    for method in ("read", "write", "alloc", "free"):
        tracer.wrap(store, method, f"{layer}.{method}",
                    _len_block if method == "read" else None)
    if layer == "io.bufferpool":
        tracer.wrap(store, "flush", f"{layer}.flush")
        tracer.wrap(store, "prefetch_hint", f"{layer}.prefetch_hint")
    elif layer == "io.checksum":
        tracer.wrap(store, "verify", f"{layer}.verify")
    elif layer == "serve.snapshots":
        tracer.wrap(store, "rollback_epoch", f"{layer}.rollback_epoch")


def _wrap_structure(tracer: Tracer, structure) -> None:
    before = None
    if hasattr(structure, "_levels"):
        # the log method builds new static levels as it carries; wrap
        # each one before the call that might read it
        def before(s):
            for lvl in s._levels:
                if lvl is not None and not _is_traced(lvl, "query"):
                    tracer.wrap(lvl, "query", "core.static_index.query", _len_result)
    tracer.wrap(structure, "query", "core.query", _len_result, before)
    tracer.wrap(structure, "insert", "core.insert", None, before)
    tracer.wrap(structure, "delete", "core.delete", _truth, before)


def instrument(engine) -> Tracer:
    """Install a :class:`Tracer` on every layer of ``engine``."""
    tr = Tracer()
    tr.wrap(engine, "execute", "serve.engine.execute")
    tr.wrap(engine.admission, "acquire", "serve.admission.acquire", _truth)
    tr.wrap(engine.admission, "release", "serve.admission.release")
    ex = engine.executor
    tr.wrap(ex, "execute", "serve.executor.execute")
    tr.wrap(ex, "route", "serve.executor.route")
    tr.wrap_submit(ex._pool, "serve.executor.task")
    for sh in engine.router.shards:
        for method in ("acquire_read", "acquire_write", "release_read", "release_write"):
            tr.wrap(sh.lock, method, f"serve.locks.{method}")
        tr.wrap(sh, "insert", "serve.shards.ins")
        tr.wrap(sh, "delete", "serve.shards.del", _truth)
        tr.wrap(sh, "query3", "serve.shards.q3", _len_result)
        tr.wrap(sh, "query4", "serve.shards.q4", _spanned)
        rs = sh.replica_set
        tr.wrap(rs, "apply_write", "serve.replication.apply_write")
        tr.wrap(rs, "read_any", "serve.replication.read_any")
        attach = rs._attach

        def traced_attach(store, meta, _attach=attach):
            # a rolled-back replica re-attaches a fresh structure
            structure = _attach(store, meta)
            _wrap_structure(tr, structure)
            return structure

        rs._attach = traced_attach
        tr._installed.append((rs, "_attach", attach))
        for r in rs.replicas:
            _wrap_structure(tr, r.structure)
            store = r.store
            while store is not None:
                _wrap_store(tr, store, STORE_LAYERS[type(store).__name__])
                store = getattr(store, "_store", None)
    return tr


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _union_ns(parent_t0: int, parent_t1: int, spans: List[Tuple[int, int]]) -> int:
    total = 0
    cur0 = cur1 = None
    for t0, t1 in sorted(spans):
        t0, t1 = max(t0, parent_t0), min(t1, parent_t1)
        if t1 <= t0:
            continue
        if cur1 is None or t0 > cur1:
            if cur1 is not None:
                total += cur1 - cur0
            cur0, cur1 = t0, t1
        else:
            cur1 = max(cur1, t1)
    if cur1 is not None:
        total += cur1 - cur0
    return total


class _Probe:
    def leaf(self):
        return ()

    def parent(self, n: int) -> None:
        for _ in range(n):
            self.leaf()


def calibrate_child_cost(calls: int = 500, rounds: int = 41) -> int:
    """The tracer's cost, in ns, that one traced child call adds to its
    parent's self time: a traced parent making ``calls`` calls to a
    traced no-op, against the same parent calling an untraced no-op,
    per call; the median of ``rounds`` alternating pairs."""
    diffs = []
    for _ in range(rounds):
        self_ns = []
        for trace_child in (True, False):
            tr = Tracer()
            probe = _Probe()
            tr.wrap(probe, "parent", "probe.parent")
            if trace_child:
                tr.wrap(probe, "leaf", "probe.leaf", _len_result)
            probe.parent(calls)
            self_ns.append(SpanStats(tr).self_ns["probe.parent"])
        diffs.append((self_ns[0] - self_ns[1]) / calls)
    return max(0, round(statistics.median(diffs)))


class SpanStats:
    """Per-name aggregates over a recorded trace.

    ``child_cost_ns`` (see :func:`calibrate_child_cost`) is taken off a
    span's self time for each of its direct child spans; the total taken
    off per name is kept in ``tracer_ns``.
    """

    def __init__(self, tracer: Tracer, child_cost_ns: int = 0):
        sids, parents, _batches, name_ids, t0s, t1s, ns = tracer.columns()
        names = [tracer.names[i] for i in name_ids]
        row_of = {sid: i for i, sid in enumerate(sids)}
        children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
        for i, parent in enumerate(parents):
            if parent:
                children[parent].append((t0s[i], t1s[i]))
        self.calls: Dict[str, int] = defaultdict(int)
        self.raised: Dict[str, int] = defaultdict(int)
        self.dur_ns: Dict[str, int] = defaultdict(int)
        self.self_ns: Dict[str, int] = defaultdict(int)
        self.tracer_ns: Dict[str, int] = defaultdict(int)
        self.n_sum: Dict[str, int] = defaultdict(int)
        #: (child name, parent name) -> [calls, sum n, raised]
        self.edges: Dict[Tuple[str, str], List[int]] = defaultdict(lambda: [0, 0, 0])
        for i, nm in enumerate(names):
            t0, t1, n = t0s[i], t1s[i], ns[i]
            self.calls[nm] += 1
            self.dur_ns[nm] += t1 - t0
            kids = children.get(sids[i])
            own = t1 - t0
            if kids:
                own -= _union_ns(t0, t1, kids)
                charge = min(own, len(kids) * child_cost_ns)
                own -= charge
                self.tracer_ns[nm] += charge
            self.self_ns[nm] += own
            parent_row = row_of.get(parents[i])
            edge = self.edges[(nm, "" if parent_row is None else names[parent_row])]
            edge[0] += 1
            if n < 0:
                self.raised[nm] += 1
                edge[2] += 1
            else:
                self.n_sum[nm] += n
                edge[1] += n
        self.spans = len(names)

    def layer_self_ns(self, layer: str) -> int:
        return sum(v for k, v in self.self_ns.items() if k.rsplit(".", 1)[0] == layer)

    def layer_tracer_ns(self, layer: str) -> int:
        return sum(v for k, v in self.tracer_ns.items() if k.rsplit(".", 1)[0] == layer)

    def layer_calls(self, layer: str) -> int:
        return sum(v for k, v in self.calls.items() if k.rsplit(".", 1)[0] == layer)

    def per_call_us(self, name: str, self_time: bool = True) -> float:
        calls = self.calls.get(name, 0)
        if not calls:
            return 0.0
        return (self.self_ns if self_time else self.dur_ns)[name] / calls / 1e3

    def edge(self, child: str, parent_prefix: str) -> Tuple[int, int, int]:
        """Summed (calls, n, raised) of ``child`` spans whose parent's
        name starts with ``parent_prefix``."""
        out = [0, 0, 0]
        for (c, p), v in self.edges.items():
            if c == child and p.startswith(parent_prefix):
                out = [a + b for a, b in zip(out, v)]
        return tuple(out)

"""Batch executor: route, fan out, merge deterministically.

A *batch* is a list of trace-format operations (``("ins", p)``,
``("del", p)``, ``("q3", (a, b, c))``, ``("q4", (a, b, c, d))`` -- the
same vocabulary :mod:`repro.workloads.traces` generates).  Execution:

1. **Route.**  Each op is appended to the queue of every shard it
   touches, tagged with its batch index.  Point ops hit exactly one
   shard; range queries hit every shard their x-range intersects, and
   4-sided ops are tagged *spanned* on interior shards so those answer
   from the y-directory.
2. **Fan out.**  One thread-pool task per non-empty shard queue.  A
   task takes its shard's writer lock iff its queue contains a
   mutation, else the reader lock -- so disjoint shards always run
   concurrently, and a read-only batch runs concurrently even against
   one shard.
3. **Merge.**  Per-shard partial results are recombined by batch
   index.  Query partials concatenate in shard order and are sorted;
   since slabs are disjoint, the merged answer is exactly what a
   single structure would return, independent of thread scheduling.

With a :class:`~repro.serve.deadline.Deadline` the same path bounds
every lock wait by the remaining budget; a read-only shard queue also
stops between ops once it expires.  A queue with a mutation runs to
the end once it holds the writer lock, so a slab is either served with
everything applied or missing with nothing applied.  Only finished
shards are merged: a missing slab contributes nothing to any result.

Determinism argument: within one shard the queue preserves batch
order, and across shards the ops in one batch touching different
shards commute (a point op lives in exactly one slab; a query's
per-slab answer depends only on that slab's points).  The executor
therefore equals the serial oracle *per batch*; callers who need
cross-batch ordering submit dependent ops in the same batch or in
separate batches.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.metrics import counter
from repro.serve.deadline import Deadline, DeadlineExpired
from repro.serve.shards import Shard, SlabRouter

Op = Tuple[str, object]

_WRITES = ("ins", "del")


class ShardTaskError(RuntimeError):
    """An operation failed inside a shard task (original attached)."""

    def __init__(self, shard_id: int, cause: BaseException):
        super().__init__(f"shard {shard_id}: {cause!r}")
        self.shard_id = shard_id
        self.cause = cause


@dataclass
class BatchResult:
    """Merged results of one batch, plus execution metadata.

    ``results[i]`` corresponds to ``ops[i]``: ``None`` for inserts, a
    bool for deletes (was the point present), a sorted point list for
    queries.
    """

    results: List[object]
    wall_s: float
    n_ops: int
    shards_touched: int
    counts: Dict[str, int] = field(default_factory=dict)

    @property
    def ops_per_s(self) -> float:
        """Throughput of this batch."""
        return self.n_ops / self.wall_s if self.wall_s > 0 else 0.0


@dataclass
class PartialResult(BatchResult):
    """A batch answer that may be degraded by an expired deadline.

    Returned whenever a batch runs with a deadline.  ``complete`` is
    True when every routed shard finished its queue in budget -- then
    the payload is identical to a plain :class:`BatchResult`.  When the
    deadline expired first, ``served_slabs`` / ``missing_slabs`` name
    the shard ids (x-slabs) that did / did not finish.  A missing slab
    contributes nothing to any result: query results contain only the
    contributions of served slabs, and mutations queued on a missing
    slab were **not** applied (their ``results`` entries are None, i.e.
    unacknowledged).  A slab with a queued mutation is all-or-nothing:
    once its shard task holds the writer lock it runs the whole queue.
    """

    complete: bool = True
    served_slabs: List[int] = field(default_factory=list)
    missing_slabs: List[int] = field(default_factory=list)
    deadline_expired: bool = False


class BatchExecutor:
    """Fan a batch of ops out across slab shards and merge the answers."""

    def __init__(self, router: SlabRouter, *, max_workers: Optional[int] = None):
        self._router = router
        self._n = max_workers if max_workers is not None else len(router)
        if self._n < 1:
            raise ValueError("need at least one worker")
        self._pool = ThreadPoolExecutor(
            max_workers=self._n, thread_name_prefix="serve"
        )

    @property
    def max_workers(self) -> int:
        """Size of the shard-task thread pool."""
        return self._n

    # ------------------------------------------------------------------
    def route(
        self, ops: Sequence[Op]
    ) -> Dict[int, List[Tuple[int, str, tuple, bool]]]:
        """Build per-shard op queues: ``shard_id -> [(batch index, kind,
        args, spanned)]``.  Exposed for tests and the serial oracle."""
        queues: Dict[int, List[Tuple[int, str, tuple, bool]]] = {}
        for idx, (kind, arg) in enumerate(ops):
            if kind in _WRITES:
                sh = self._router.shard_for_x(float(arg[0]))
                queues.setdefault(sh.shard_id, []).append(
                    (idx, kind, tuple(arg), False)
                )
            elif kind == "q3":
                a, b, _c = arg
                for sh in self._router.shards_for_range(a, b):
                    queues.setdefault(sh.shard_id, []).append(
                        (idx, kind, tuple(arg), False)
                    )
            elif kind == "q4":
                a, b, _c, _d = arg
                for sh in self._router.shards_for_range(a, b):
                    queues.setdefault(sh.shard_id, []).append(
                        (idx, kind, tuple(arg), sh.covered_by(a, b))
                    )
            else:
                raise ValueError(f"unknown op kind {kind!r}")
        return queues

    @staticmethod
    def _run_queue(
        shard: Shard,
        queue: List[Tuple[int, str, tuple, bool]],
        deadline: Optional[Deadline],
    ) -> Tuple[Dict[int, object], bool]:
        """Shard task: ``(partial, finished)``.

        The lock wait is bounded by the remaining budget (``deadline=None``
        waits without bound).  A queue that contains a mutation checks the
        deadline only there: once it holds the writer lock it runs to the
        end, so its slab is either missing with nothing applied or served
        with everything applied.  A read-only queue also checks between
        ops, and threads the deadline into the replica layer so a
        fallback-chain walk cannot overrun it; on expiry it stops where it
        is and reports unfinished instead of hanging.
        """
        timeout = None if deadline is None else deadline.remaining()
        if any(kind in _WRITES for _idx, kind, _a, _s in queue):
            acquired = shard.lock.acquire_write(timeout=timeout)
            release = shard.lock.release_write
            deadline = None
        else:
            acquired = shard.lock.acquire_read(timeout=timeout)
            release = shard.lock.release_read
        if not acquired:
            return {}, False
        partial: Dict[int, object] = {}
        try:
            for idx, kind, arg, spanned in queue:
                if deadline is not None and deadline.expired:
                    return partial, False
                if kind == "ins":
                    shard.insert(arg)
                    partial[idx] = None
                elif kind == "del":
                    partial[idx] = shard.delete(arg)
                elif kind == "q3":
                    partial[idx] = shard.query3(*arg, deadline=deadline)
                else:
                    partial[idx] = shard.query4(
                        *arg, spanned=spanned, deadline=deadline
                    )
        except DeadlineExpired:
            return partial, False
        finally:
            release()
        return partial, True

    # ------------------------------------------------------------------
    def execute(
        self, ops: Sequence[Op], *, deadline: Optional[Deadline] = None
    ) -> BatchResult:
        """Run one batch concurrently; results merge deterministically.

        Without a ``deadline`` every shard runs its queue to the end and
        the answer is a :class:`BatchResult`.  With one the batch never
        hangs: shards that cannot finish in budget are abandoned and the
        answer comes back as a :class:`PartialResult` naming the served
        and missing x-slabs.  A missing slab contributes nothing to any
        result, and a slab with a queued mutation is all-or-nothing.
        """
        t0 = time.perf_counter()
        queues = self.route(ops)
        counts = dict(Counter(kind for kind, _arg in ops))
        counter("batches", layer="serve").inc()
        for kind, n in counts.items():
            counter("batch_ops", layer="serve", kind=kind).inc(n)
        if deadline is not None and deadline.expired:
            counter("deadline_expired", layer="serve").inc()
            return self.unserved(
                ops, queues, expired=True, wall_s=time.perf_counter() - t0
            )

        shards_by_id = {sh.shard_id: sh for sh in self._router}
        futures = [
            (sid, self._pool.submit(self._run_queue, shards_by_id[sid], queue, deadline))
            for sid, queue in sorted(queues.items())
        ]
        partials: List[Dict[int, object]] = []
        served: List[int] = []
        missing: List[int] = []
        error: Optional[ShardTaskError] = None
        for shard_id, fut in futures:
            try:
                partial, finished = fut.result()
            except BaseException as exc:  # noqa: BLE001 - annotate and rethrow
                if error is None:
                    error = ShardTaskError(shard_id, exc)
                continue
            if finished:
                partials.append(partial)
                served.append(shard_id)
            else:
                missing.append(shard_id)
        if error is not None:
            raise error

        results: List[object] = [None] * len(ops)
        query_parts: Dict[int, List[tuple]] = {}
        for partial in partials:
            for idx, value in partial.items():
                if ops[idx][0] in _WRITES:
                    results[idx] = value
                else:
                    query_parts.setdefault(idx, []).extend(value)
        for idx, merged in query_parts.items():
            results[idx] = sorted(merged)

        done = dict(
            results=results,
            wall_s=time.perf_counter() - t0,
            n_ops=len(ops),
            shards_touched=len(queues),
            counts=counts,
        )
        if deadline is None:
            return BatchResult(**done)
        if missing:
            counter("deadline_expired", layer="serve").inc()
        return PartialResult(
            **done,
            complete=not missing,
            served_slabs=served,
            missing_slabs=missing,
            deadline_expired=bool(missing),
        )

    @staticmethod
    def unserved(
        ops: Sequence[Op],
        slabs: Iterable[int],
        *,
        expired: bool,
        wall_s: float = 0.0,
    ) -> PartialResult:
        """The answer for a batch that ran on no shard: every result None
        and every routed slab in ``slabs`` missing.  Covers a deadline
        that expired before fan-out and a batch shed while it waited for
        admission."""
        return PartialResult(
            results=[None] * len(ops),
            wall_s=wall_s,
            n_ops=len(ops),
            shards_touched=0,
            counts=dict(Counter(kind for kind, _arg in ops)),
            complete=False,
            served_slabs=[],
            missing_slabs=sorted(slabs),
            deadline_expired=expired,
        )

    def execute_serial(self, ops: Sequence[Op]) -> BatchResult:
        """One-op-at-a-time oracle loop over the same shards.

        Identical routing and locking semantics, zero concurrency --
        the baseline the batch executor's throughput is measured
        against, and the reference answer for correctness tests.
        """
        t0 = time.perf_counter()
        results: List[object] = [None] * len(ops)
        touched = set()
        for idx, (kind, arg) in enumerate(ops):
            if kind in _WRITES:
                sh = self._router.shard_for_x(float(arg[0]))
                touched.add(sh.shard_id)
                with sh.lock.write_locked():
                    if kind == "ins":
                        sh.insert(arg)
                        results[idx] = None
                    else:
                        results[idx] = sh.delete(arg)
            elif kind == "q3":
                a, b, _c = arg
                merged: List[tuple] = []
                for sh in self._router.shards_for_range(a, b):
                    touched.add(sh.shard_id)
                    with sh.lock.read_locked():
                        merged.extend(sh.query3(*arg))
                results[idx] = sorted(merged)
            elif kind == "q4":
                a, b, _c, _d = arg
                merged = []
                for sh in self._router.shards_for_range(a, b):
                    touched.add(sh.shard_id)
                    with sh.lock.read_locked():
                        merged.extend(
                            sh.query4(*arg, spanned=sh.covered_by(a, b))
                        )
                results[idx] = sorted(merged)
            else:
                raise ValueError(f"unknown op kind {kind!r}")
        return BatchResult(
            results=results,
            wall_s=time.perf_counter() - t0,
            n_ops=len(ops),
            shards_touched=len(touched),
            counts=dict(Counter(kind for kind, _arg in ops)),
        )

    def close(self) -> None:
        """Shut the thread pool down (idempotent)."""
        self._pool.shutdown(wait=True)

    def __repr__(self) -> str:
        return f"BatchExecutor(workers={self._n}, shards={len(self._router)})"

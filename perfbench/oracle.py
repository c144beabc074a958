"""Brute-force oracle: replay every executed batch and compare answers.

The oracle is an x-sorted point list: a range query bisects the x-range
and filters on y.  It replays the ops the engine ran, in the order the
engine could have run them, after the timed phase.

With one client the order is exact and every answer must match.  With
several clients the only order a client can observe is that a batch
takes effect somewhere inside its own ``[start, end]`` window.  So when
the oracle checks batch ``X`` it holds every batch that ended before
``X`` started, and it masks the points written by other clients'
batches whose windows overlap ``X``'s: those points may or may not be
visible to ``X``, and every other point must match.  Clients write
disjoint points (see :mod:`workloads`), so their writes commute and the
state after all batches is the same in any order.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set, Tuple

Point = Tuple[float, float]
_NEG = float("-inf")
_POS = float("inf")


@dataclass
class BatchRecord:
    """One batch as a client saw it: ``results`` is None if it raised."""

    client: int
    start: float
    end: float
    ops: Sequence[tuple]
    results: Optional[List[object]]


class Oracle:
    """x-sorted list with bisect, then a y filter."""

    def __init__(self, points: Iterable[Point]):
        self._pts: List[Point] = sorted(points)

    def insert(self, p: Point) -> bool:
        i = bisect.bisect_left(self._pts, p)
        if i < len(self._pts) and self._pts[i] == p:
            return False
        self._pts.insert(i, p)
        return True

    def delete(self, p: Point) -> bool:
        i = bisect.bisect_left(self._pts, p)
        if i < len(self._pts) and self._pts[i] == p:
            del self._pts[i]
            return True
        return False

    def _slab(self, a: float, b: float) -> List[Point]:
        lo = bisect.bisect_left(self._pts, (a, _NEG))
        hi = bisect.bisect_right(self._pts, (b, _POS))
        return self._pts[lo:hi]

    def q3(self, a: float, b: float, c: float) -> List[Point]:
        return [p for p in self._slab(a, b) if p[1] >= c]

    def q4(self, a: float, b: float, c: float, d: float) -> List[Point]:
        return [p for p in self._slab(a, b) if c <= p[1] <= d]

    def __len__(self) -> int:
        return len(self._pts)


def _written(ops: Sequence[tuple]) -> Set[Point]:
    return {tuple(arg) for kind, arg in ops if kind in ("ins", "del")}


class Mismatch(Exception):
    """An engine answer the oracle disagrees with."""


def check(base: Sequence[Point], records: Sequence[BatchRecord]) -> Tuple[int, int]:
    """Replay ``records`` against the oracle.

    Returns ``(answers_checked, live_points_at_end)``; raises
    :class:`Mismatch` on the first wrong answer.  Points written by a
    batch that raised are unknown from then on and are masked.
    """
    oracle = Oracle(base)
    unknown: Set[Point] = set()
    # closed-loop clients: each client's windows are disjoint and in order
    windows = {}
    for rec in records:
        windows.setdefault(rec.client, []).append(rec)
    ends = {c: [r.end for r in recs] for c, recs in windows.items()}
    # a start sorts before an end at the same instant: treat as overlap
    events = sorted(
        [(r.start, 0, i) for i, r in enumerate(records)]
        + [(r.end, 1, i) for i, r in enumerate(records)]
    )
    checked = 0
    for _t, is_end, i in events:
        rec = records[i]
        if is_end:
            if rec.results is None:
                unknown |= _written(rec.ops)
            _apply(oracle, rec.ops)
            continue
        masked = set(unknown)
        for client, recs in windows.items():
            if client == rec.client:
                continue
            j = bisect.bisect_left(ends[client], rec.start)
            while j < len(recs) and recs[j].start <= rec.end:
                masked |= _written(recs[j].ops)
                j += 1
        checked += _check_batch(oracle, rec, masked)
    return checked, len(oracle)


def _apply(oracle: Oracle, ops: Sequence[tuple]) -> None:
    for kind, arg in ops:
        if kind == "ins":
            oracle.insert(tuple(arg))
        elif kind == "del":
            oracle.delete(tuple(arg))


def _check_batch(oracle: Oracle, rec: BatchRecord, masked: Set[Point]) -> int:
    """Check one batch's answers in batch order, then undo its writes
    (they are applied for good when the batch ends)."""
    if rec.results is None:
        return 0
    undo = []
    checked = 0
    try:
        for idx, (kind, arg) in enumerate(rec.ops):
            got = rec.results[idx]
            if kind == "ins":
                p = tuple(arg)
                if oracle.insert(p):
                    undo.append(("del", p))
                continue
            if kind == "del":
                p = tuple(arg)
                want = oracle.delete(p)
                if want:
                    undo.append(("ins", p))
                if p not in masked and bool(got) != want:
                    raise Mismatch(f"{kind}{arg}: engine {got!r}, oracle {want!r}")
            else:
                want = oracle.q3(*arg) if kind == "q3" else oracle.q4(*arg)
                if masked:
                    got = [p for p in got if p not in masked]
                    want = [p for p in want if p not in masked]
                if got != want:
                    raise Mismatch(
                        f"{kind}{arg}: engine {len(got)} points, oracle "
                        f"{len(want)}; first difference "
                        f"{sorted(set(got) ^ set(want))[:3]}"
                    )
            checked += 1
    finally:
        for kind, p in reversed(undo):
            (oracle.insert if kind == "ins" else oracle.delete)(p)
    return checked

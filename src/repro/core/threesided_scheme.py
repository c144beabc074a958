"""Section 2.2.1: the sweep-line indexing scheme for 3-sided queries.

Construction (Theorem 4).  Points are first packed into ``n = ceil(N/B)``
disjoint blocks by x-order.  A horizontal sweep line rises from
``y = -inf``; a block is *active* while it still has a point above the
line.  The invariant: among any ``alpha`` consecutive active blocks, at
least one holds ``>= B/alpha`` points above the line.  When the invariant
breaks, the offending ``alpha`` blocks are *coalesced*: their above-line
points (fewer than ``B`` in total) move into one fresh block which
replaces them in the linear order.

Every block thus has an *activity interval* in sweep positions.  A
3-sided query ``(a, b, c)`` reads exactly the blocks that were active at
sweep position ``c`` and whose x-range meets ``[a, b]``; the invariant
guarantees at most ``alpha^2 t + alpha + 1`` such blocks for output size
``T = tB``, while total block count is at most ``n + n/(alpha-1)``
(redundancy ``1 + 1/(alpha-1)``).

The class below performs the construction in memory and exposes both the
indexability view (:meth:`as_indexing_scheme`) and the *catalog* view
used by the Lemma-1 structure: one O(1)-size entry per block
``(x_lo, x_hi, y_live_lo_exclusive, y_live_hi_inclusive, block_index)``,
from which queries can be answered without any other metadata.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.geometry import (
    INF,
    NEG_INF,
    Orientation,
    Point,
    ThreeSidedQuery,
)
from repro.indexability.scheme import IndexingScheme


def block_live_at(y_from: float, y_to: float, c: float) -> bool:
    """Liveness test for a scheme block at query level ``c``.

    ``y_from`` is exclusive and ``y_to`` inclusive, except that the
    initial blocks (``y_from = -inf``) are live for every ``c`` down to
    ``-inf`` itself (degenerate report-all queries).
    """
    if c <= y_from:
        return c == NEG_INF and y_from == NEG_INF
    return c <= y_to


@dataclass(frozen=True)
class CatalogEntry:
    """Liveness + extent summary of one scheme block.

    A block serves query level ``c`` iff ``y_from < c <= y_to`` (see
    :func:`block_live_at` for the ``-inf`` convention) and its x-range
    ``[x_lo, x_hi]`` meets the query's x-interval.
    """

    x_lo: float
    x_hi: float
    y_from: float
    y_to: float
    block: int

    def live_at(self, c: float) -> bool:
        """True iff the block serves query level ``c``."""
        return block_live_at(self.y_from, self.y_to, c)

    def x_overlaps(self, a: float, b: float) -> bool:
        """True iff the block's x-range meets ``[a, b]``."""
        return self.x_lo <= b and self.x_hi >= a


def _tiling(lo: int, hi: int):
    """The bottom-up segment-tree nodes whose leaves tile ``[lo, hi)``."""
    while lo < hi:
        if lo & 1:
            yield lo
            lo += 1
        if hi & 1:
            hi -= 1
            yield hi
        lo >>= 1
        hi >>= 1


class CatalogIndex:
    """In-memory search structure over a catalog (the RAM directory).

    A segment tree over the sweep-level breakpoints, the distinct
    ``y_from``/``y_to`` values ``v_0 < v_1 < ...``: leaf ``i`` stands
    for the query levels ``(v_{i-1}, v_i]``, and each entry is stored at
    the O(log n) nodes that cover the leaves of its live interval
    ``(y_from, y_to]``.  The entries live at ``c`` are then exactly those
    on the path from ``c``'s leaf to the root.  Every leaf is one moment
    of the sweep, and Theorem 4's linear order makes the blocks live at
    one moment x-disjoint (touching at most at a shared x); so a node's
    entries, sorted by ``(x_lo, x_hi)``, have both ends monotone, and two
    bisects find the run that meets ``[a, b]``.

    The level ``c = -inf`` is :func:`block_live_at`'s report-all
    convention, not a sweep moment; it filters the ``y_from = -inf``
    entries directly.

    :meth:`lookup` takes ``O(log^2 n + k log k)`` time for ``k`` hits and
    the tree ``O(n log n)`` words.  It answers in catalog order, the
    order of a linear scan, because ``prefetch_hint`` order drives
    readahead.
    """

    __slots__ = ("_levels", "_leaves", "_nodes", "_floor")

    def __init__(self, catalog: Sequence[CatalogEntry]):
        levels = sorted({v for e in catalog for v in (e.y_from, e.y_to)})
        rank = {v: i for i, v in enumerate(levels)}
        leaves = len(levels) + 1  # the last leaf, (v_max, inf], is empty
        nodes: Dict[int, Tuple[List[float], List[float], List[int]]] = {}
        order = sorted(
            range(len(catalog)), key=lambda i: (catalog[i].x_lo, catalog[i].x_hi)
        )
        for pos in order:
            e = catalog[pos]
            # live leaves rank(y_from)+1 .. rank(y_to), as tree nodes
            for node in _tiling(rank[e.y_from] + 1 + leaves, rank[e.y_to] + 1 + leaves):
                x_los, x_his, rows = nodes.setdefault(node, ([], [], []))
                x_los.append(e.x_lo)
                x_his.append(e.x_hi)
                rows.append(pos)
        self._levels = levels
        self._leaves = leaves
        self._nodes = nodes
        self._floor = [
            (pos, e.x_lo, e.x_hi) for pos, e in enumerate(catalog)
            if e.y_from == NEG_INF
        ]

    def lookup(self, a: float, b: float, c: float) -> List[int]:
        """Catalog positions of the entries live at ``c`` whose x-range
        meets ``[a, b]``, in catalog order."""
        if c != c or a != a or b != b:
            return []  # a NaN bound meets nothing, as in a scan
        if c == NEG_INF:
            return [p for p, x_lo, x_hi in self._floor if x_lo <= b and x_hi >= a]
        hits: List[int] = []
        nodes = self._nodes
        node = bisect_left(self._levels, c) + self._leaves
        while node:
            row = nodes.get(node)
            if row is not None:
                i = bisect_left(row[1], a)
                j = bisect_right(row[0], b)
                if i < j:
                    hits += row[2][i:j]
            node >>= 1
        hits.sort()
        return hits


class _Active:
    """A block while it is active in the sweep (linked-list node)."""

    __slots__ = ("index", "above", "x_lo", "x_hi", "prev", "next")

    def __init__(self, index: int, above: Set[int], x_lo: float, x_hi: float):
        self.index = index          # position in the final block list
        self.above = above          # indices (sweep order) of points above
        self.x_lo = x_lo
        self.x_hi = x_hi
        self.prev: Optional["_Active"] = None
        self.next: Optional["_Active"] = None


class ThreeSidedSweepIndex:
    """The Theorem 4 indexing scheme for 3-sided (up-open) queries.

    Parameters
    ----------
    points:
        Distinct planar points.
    block_size:
        The paper's ``B`` (>= 2).
    alpha:
        The coalescing arity ``alpha >= 2``.  Redundancy is bounded by
        ``1 + 1/(alpha-1)``; access overhead grows as ``alpha^2``.
    orientation:
        Which side of the 3-sided query is unbounded.  Defaults to "up"
        (the canonical form).  Other orientations transform coordinates
        internally and hand back points in the original frame.
    """

    def __init__(
        self,
        points: Sequence[Point],
        block_size: int,
        alpha: int = 2,
        orientation: str = Orientation.UP,
    ):
        if block_size < 2:
            raise ValueError("block_size must be >= 2")
        if alpha < 2:
            raise ValueError("alpha must be >= 2")
        self.block_size = block_size
        self.alpha = alpha
        self.orientation = Orientation(orientation)
        self._original = list(points)
        canonical = [self.orientation.to_canonical(p) for p in self._original]
        if len(set(canonical)) != len(canonical):
            raise ValueError("points must be distinct")
        # blocks[i] = list of sweep-order point indices stored in block i
        self.blocks: List[List[int]] = []
        self.catalog: List[CatalogEntry] = []
        self._sweep_points: List[Point] = []
        self._directory: Optional[CatalogIndex] = None
        self._build(canonical)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _build(self, pts: List[Point]) -> None:
        N = len(pts)
        if N == 0:
            return
        B = self.block_size
        alpha = self.alpha

        # Sweep processing order: by (y, x).  All block contents are
        # stored as indices into this order.
        order = sorted(range(N), key=lambda i: (pts[i][1], pts[i][0]))
        sweep_pts = [pts[i] for i in order]
        self._sweep_points = sweep_pts
        ys = [p[1] for p in sweep_pts]

        # Initial x-partition into ceil(N/B) blocks.
        by_x = sorted(range(N), key=lambda s: (sweep_pts[s][0], sweep_pts[s][1]))
        head: Optional[_Active] = None
        tail: Optional[_Active] = None
        owner: List[Optional[_Active]] = [None] * N
        starts: List[int] = []  # creation step per block index
        ends: List[int] = []    # deactivation step per block index (filled later)

        def new_block(members: Set[int], x_lo: float, x_hi: float, step: int) -> _Active:
            idx = len(self.blocks)
            self.blocks.append(sorted(members))
            starts.append(step)
            ends.append(-1)
            node = _Active(idx, set(members), x_lo, x_hi)
            for s in members:
                owner[s] = node
            return node

        def link_append(node: _Active) -> None:
            nonlocal head, tail
            node.prev = tail
            node.next = None
            if tail is not None:
                tail.next = node
            tail = node
            if head is None:
                head = node

        def unlink(node: _Active) -> Tuple[Optional[_Active], Optional[_Active]]:
            nonlocal head, tail
            p, q = node.prev, node.next
            if p is not None:
                p.next = q
            else:
                head = q
            if q is not None:
                q.prev = p
            else:
                tail = p
            node.prev = node.next = None
            return p, q

        for lo in range(0, N, B):
            members = set(by_x[lo:lo + B])
            x_lo = sweep_pts[by_x[lo]][0]
            x_hi = sweep_pts[by_x[min(lo + B, N) - 1]][0]
            link_append(new_block(members, x_lo, x_hi, 0))

        threshold = B  # a block is "rich" iff len(above) * alpha >= B

        def is_poor(node: _Active) -> bool:
            return len(node.above) * alpha < threshold

        def find_violation(center: _Active) -> Optional[List[_Active]]:
            """A window of ``alpha`` consecutive poor actives containing
            ``center``, or None."""
            if not is_poor(center):
                return None
            # gather up to alpha-1 poor neighbours on each side; a window
            # must consist solely of poor blocks, so stop at a rich one.
            left: List[_Active] = []
            node = center.prev
            while node is not None and len(left) < alpha - 1 and is_poor(node):
                left.append(node)
                node = node.prev
            right: List[_Active] = []
            node = center.next
            while node is not None and len(right) < alpha - 1 and is_poor(node):
                right.append(node)
                node = node.next
            run = list(reversed(left)) + [center] + right
            if len(run) >= alpha:
                pos = len(left)  # index of center in run
                start = max(0, min(pos, len(run) - alpha))
                return run[start:start + alpha]
            return None

        def coalesce(window: List[_Active], step: int) -> _Active:
            members: Set[int] = set()
            for node in window:
                members |= node.above
            x_lo = min(node.x_lo for node in window)
            x_hi = max(node.x_hi for node in window)
            fresh = new_block(members, x_lo, x_hi, step + 1)
            # splice: fresh replaces the window in the linear order
            first, last = window[0], window[-1]
            fresh.prev = first.prev
            fresh.next = last.next
            nonlocal head, tail
            if first.prev is not None:
                first.prev.next = fresh
            else:
                head = fresh
            if last.next is not None:
                last.next.prev = fresh
            else:
                tail = fresh
            for node in window:
                ends[node.index] = step + 1
                node.prev = node.next = None
            return fresh

        def restore_invariant(seed: Optional[_Active], step: int) -> None:
            """Coalesce repeatedly until no violation remains near seed."""
            node = seed
            while node is not None:
                window = find_violation(node)
                if window is None:
                    return
                node = coalesce(window, step)

        # the sweep
        for t in range(N):
            node = owner[t]
            assert node is not None
            node.above.discard(t)
            if not node.above:
                ends[node.index] = t + 1
                p, q = unlink(node)
                # the junction may expose a new all-poor window
                if p is not None:
                    restore_invariant(p, t)
                elif q is not None:
                    restore_invariant(q, t)
            else:
                restore_invariant(node, t)

        # any block still active after the last point would keep end = -1,
        # but every point is eventually swept so every block exhausts.
        assert all(e >= 0 for e in ends), "sweep left an active block"

        # Build catalog entries.  Liveness in sweep steps [start, end)
        # translates to query levels c with ys[start-1] < c <= ys[end-1].
        for idx, members in enumerate(self.blocks):
            if starts[idx] >= ends[idx]:
                continue  # never live (cannot happen, but keep safe)
            y_from = NEG_INF if starts[idx] == 0 else ys[starts[idx] - 1]
            y_to = ys[ends[idx] - 1]
            if not members:
                continue
            x_lo = min(sweep_pts[s][0] for s in members)
            x_hi = max(sweep_pts[s][0] for s in members)
            self.catalog.append(CatalogEntry(x_lo, x_hi, y_from, y_to, idx))

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    @property
    def num_points(self) -> int:
        """Number of points indexed."""
        return len(self._original)

    @property
    def num_blocks(self) -> int:
        """Number of blocks the structure owns."""
        return len(self.blocks)

    @property
    def redundancy(self) -> float:
        """Measured ``r = B * blocks / N``."""
        if not self._original:
            return 0.0
        return self.block_size * self.num_blocks / len(self._original)

    def redundancy_bound(self) -> float:
        """Theorem 4's guarantee ``1 + 1/(alpha-1)`` (plus rounding slack)."""
        return 1.0 + 1.0 / (self.alpha - 1)

    def block_points(self, index: int) -> List[Point]:
        """Points stored in block ``index``, in the original frame."""
        return [
            self.orientation.from_canonical(self._sweep_points[s])
            for s in self.blocks[index]
        ]

    def as_indexing_scheme(self) -> IndexingScheme:
        """The indexability-theory view (blocks of original-frame points)."""
        return IndexingScheme(
            self.block_size,
            [self.block_points(i) for i in range(self.num_blocks)],
        )

    # ------------------------------------------------------------------
    # Querying
    # ------------------------------------------------------------------
    def candidate_blocks(self, query: ThreeSidedQuery) -> List[int]:
        """Indices of blocks the scheme reads for ``query`` (canonical frame)."""
        if self._directory is None:  # built on first use
            self._directory = CatalogIndex(self.catalog)
        catalog = self.catalog
        return [
            catalog[i].block
            for i in self._directory.lookup(query.a, query.b, query.c)
        ]

    def query(self, query: ThreeSidedQuery) -> Tuple[List[Point], List[int]]:
        """Answer a canonical (up-open) 3-sided query.

        Returns ``(points, blocks_read)`` where points are in the original
        frame.  The blocks read are exactly the candidates; the access
        overhead experiments charge them all, found or not.
        """
        cands = self.candidate_blocks(query)
        out: List[Point] = []
        for bi in cands:
            for s in self.blocks[bi]:
                p = self._sweep_points[s]
                if query.contains(p):
                    out.append(self.orientation.from_canonical(p))
        return out, cands

    def query_oriented(
        self,
        *,
        x_lo: float = NEG_INF,
        x_hi: float = INF,
        y_lo: float = NEG_INF,
        y_hi: float = INF,
    ) -> Tuple[List[Point], List[int]]:
        """Answer a 3-sided query given in the ORIGINAL frame.

        The open side must match this index's orientation (e.g. for a
        RIGHT-open index pass ``x_hi=inf`` and finite ``x_lo, y_lo, y_hi``).
        """
        q = self.orientation.query_to_canonical(
            x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi
        )
        return self.query(q)

    # ------------------------------------------------------------------
    # Invariant checking (for tests)
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Validate structural guarantees; raises AssertionError on breach."""
        B, alpha = self.block_size, self.alpha
        N = len(self._original)
        if N == 0:
            assert not self.blocks
            return
        for members in self.blocks:
            assert 0 < len(members) <= B, "block size out of range"
        # redundancy bound with rounding slack: the last x-partition block
        # may be partial, and coalescing adds ceil(n-1)/(alpha-1) blocks.
        n = math.ceil(N / B)
        max_blocks = n + max(0, (n - 1)) // (alpha - 1) + 1
        assert self.num_blocks <= max_blocks, (
            f"{self.num_blocks} blocks exceeds bound {max_blocks}"
        )
        # every point lives in at least one block
        seen = set()
        for members in self.blocks:
            seen.update(members)
        assert seen == set(range(N)), "blocks do not cover the point set"
        # catalog consistency
        for e in self.catalog:
            assert e.y_from <= e.y_to
            assert e.x_lo <= e.x_hi

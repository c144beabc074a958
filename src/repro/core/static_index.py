"""The practical static variant the paper's conclusion recommends.

"In practice, the amortized data structures we develop or a modification
of the *static* data structures that they are based upon are likely to be
most practical."  (Section 5.)

This module is that modification: the Theorem 4 sweep scheme materialized
on disk with its catalog held in main memory.  For N points the catalog
is ~2N/B entries -- O(n) *memory words*, a few megabytes for
billion-point sets at realistic B, which is exactly the trade practical
systems make (cf. the directory of a grid file, the root levels of any
B-tree).  In exchange:

- queries cost exactly the candidate blocks: ``<= alpha^2 t + alpha + 1``
  reads and **no search I/O at all** -- beating the PST's constant by the
  tree-descent factor;
- the catalog is searched through a :class:`~repro.core.
  threesided_scheme.CatalogIndex`: ``O(log^2 n + k log k)`` CPU time for
  ``k`` candidates at any level above ``-inf``, and ``O(n log n)`` words
  of memory.  It finds the blocks a catalog scan would, in the same
  order, so the I/O cost is unchanged;
- construction writes ``O(n)`` blocks;
- the structure is read-only (rebuild to change it), which is what
  "static" means here.

A 4-sided companion applies the same trick to the Theorem 5 layering.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.geometry import (
    INF,
    NEG_INF,
    FourSidedQuery,
    Orientation,
    Point,
)
from repro.core.threesided_scheme import (
    CatalogEntry,
    CatalogIndex,
    ThreeSidedSweepIndex,
)
from repro.io.hooks import prefetch_hint


class StaticThreeSidedIndex:
    """Read-only 3-sided index: sweep scheme on disk, catalog in memory.

    Queries cost only the Theorem 4 candidate blocks (``O(t + 1)`` reads,
    zero search I/Os).  Any orientation of the open side is supported.
    """

    def __init__(
        self,
        store,
        points: Sequence[Point],
        *,
        alpha: int = 2,
        orientation: str = Orientation.UP,
    ):
        self._store = store
        self._sweep = ThreeSidedSweepIndex(
            points, store.block_size, alpha, orientation=orientation
        )
        self.alpha = alpha
        self.orientation = self._sweep.orientation
        self._count = self._sweep.num_points
        # materialize each scheme block; the catalog (with block ids
        # substituted) stays in memory
        self._catalog: List[Tuple[CatalogEntry, int]] = []
        for entry in self._sweep.catalog:
            bid = store.alloc()
            store.write(bid, self._sweep.block_points(entry.block))
            self._catalog.append((entry, bid))
        self._directory = CatalogIndex([entry for entry, _bid in self._catalog])

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of live records stored."""
        if self._sweep is not None:
            return self._sweep.num_points
        return self._count

    def blocks_in_use(self) -> int:
        """Number of blocks the structure owns."""
        return len(self._catalog)

    def memory_catalog_entries(self) -> int:
        """Size of the in-memory directory (the practicality trade)."""
        return len(self._catalog)

    # ------------------------------------------------------------------
    def query(
        self,
        *,
        x_lo: float = NEG_INF,
        x_hi: float = INF,
        y_lo: float = NEG_INF,
        y_hi: float = INF,
    ) -> List[Point]:
        """3-sided query in the original frame; the open side must match
        this index's orientation.  Costs exactly the candidate blocks."""
        # the catalog is in memory, so the full slab list is known up
        # front: announce it before reading so a readahead pool batches
        candidates = self._candidates(
            x_lo=x_lo, x_hi=x_hi, y_lo=y_lo, y_hi=y_hi
        )
        if len(candidates) > 1:
            prefetch_hint(self._store, candidates)
        # blocks hold original-frame points, and every orientation's
        # canonical test is this closed rectangle in the original frame
        out = set()
        for bid in candidates:
            for p in self._store.read(bid).records:
                if x_lo <= p[0] <= x_hi and y_lo <= p[1] <= y_hi:
                    out.add(p)
        return list(out)

    def candidate_blocks(self, **kwargs) -> int:
        """How many blocks the query would read (no I/O performed)."""
        return len(self._candidates(**kwargs))

    def _candidates(self, **kwargs) -> List[int]:
        """Block ids a query reads, in catalog order."""
        q = self.orientation.query_to_canonical(**kwargs)
        catalog = self._catalog
        return [catalog[i][1] for i in self._directory.lookup(q.a, q.b, q.c)]

    def points(self) -> List[Point]:
        """The indexed point set.

        Freshly built indexes answer from the in-memory sweep; an
        :meth:`attach`-ed handle reads every data block once (honest
        I/O -- a remounted structure's points genuinely live on disk)
        and dedupes the scheme's redundant copies.  Sorted in the
        attached case so callers get a deterministic order either way
        once they sort (every caller here rebuilds, which sorts).
        """
        if self._sweep is not None:
            return list(self._sweep._original)
        seen = set()
        for _entry, bid in self._catalog:
            seen.update(self._store.read(bid).records)
        return sorted(seen)

    def _ensure_sweep(self) -> None:
        """Rebuild the in-memory sweep after an attach (deterministic:
        the sweep is a pure function of the sorted point set)."""
        if self._sweep is None:
            self._sweep = ThreeSidedSweepIndex(
                self.points(), self._store.block_size, self.alpha,
                orientation=self.orientation.side,
            )

    # ------------------------------------------------------------------
    # persistence (crash recovery re-attachment; see repro.resilience)
    # ------------------------------------------------------------------
    def snapshot_meta(self) -> dict:
        """Everything needed to re-attach this index to its blocks.

        The data blocks are already on disk; what a crash destroys is
        the in-memory catalog.  The snapshot is a fresh copy each call
        -- it travels in a journal superblock and must never alias live
        mutable state.
        """
        return {
            "alpha": self.alpha,
            "orientation": self.orientation.side,
            "count": self.count,
            "catalog": [
                ((e.x_lo, e.x_hi, e.y_from, e.y_to, e.block), bid)
                for e, bid in self._catalog
            ],
        }

    @classmethod
    def attach(cls, store, meta: dict) -> "StaticThreeSidedIndex":
        """Rebuild the in-memory handle over existing blocks (no I/O).

        Inverse of :meth:`snapshot_meta`.  Queries work immediately off
        the restored catalog; operations that need the point set
        (:meth:`points`, :meth:`check_invariants`) reload it from the
        data blocks on first use.
        """
        obj = cls.__new__(cls)
        obj._store = store
        obj._sweep = None
        obj.alpha = meta["alpha"]
        obj.orientation = Orientation(meta["orientation"])
        obj._count = meta["count"]
        obj._catalog = [
            (CatalogEntry(*entry), bid) for entry, bid in meta["catalog"]
        ]
        obj._directory = CatalogIndex([entry for entry, _bid in obj._catalog])
        return obj

    def destroy(self) -> None:
        """Free every block owned by the structure."""
        for _entry, bid in self._catalog:
            self._store.free(bid)
        self._catalog = []
        self._directory = CatalogIndex([])

    def check_invariants(self) -> None:
        """Validate structural guarantees; raises AssertionError on breach."""
        self._ensure_sweep()
        self._sweep.check_invariants()
        assert len(self._catalog) == self._sweep.num_blocks


class StaticFourSidedIndex:
    """Read-only 4-sided index: the Theorem 5 layering materialized on
    disk with its directory in memory.

    The in-memory :class:`FourSidedLayeredIndex` plays the role of the
    directory: it decides *which* blocks a query must read; this class
    materializes every scheme block on the store and performs the actual
    reads, so queries cost ``O(rho + t)`` block I/Os with no search I/O.
    Space is ``O(n log n / log rho)`` blocks -- the static trade the
    paper's conclusion recommends over the fully dynamic Theorem 7
    machinery.
    """

    def __init__(self, store, points: Sequence[Point], *, rho: int = 4,
                 alpha: int = 2):
        from repro.core.foursided_scheme import FourSidedLayeredIndex

        self._store = store
        self._scheme = FourSidedLayeredIndex(
            points, store.block_size, rho=rho, alpha=alpha
        )
        self.rho = rho
        # materialize: one store block per scheme block, per set and side
        self._bids = {}
        for level_i, level in enumerate(self._scheme.levels):
            for s in level:
                for side, idx in (("left", s.left_index),
                                  ("right", s.right_index)):
                    for block_i in range(idx.num_blocks):
                        bid = store.alloc()
                        store.write(bid, idx.block_points(block_i))
                        self._bids[(level_i, s.index, side, block_i)] = bid

    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of live records stored."""
        return self._scheme.num_points

    def num_levels(self) -> int:
        """Number of levels in the hierarchy."""
        return self._scheme.num_levels

    def blocks_in_use(self) -> int:
        """Number of blocks the structure owns."""
        return len(self._bids)

    # ------------------------------------------------------------------
    def query(self, a: float, b: float, c: float, d: float) -> List[Point]:
        """4-sided query: the directory picks the blocks, we read them."""
        q = FourSidedQuery(a, b, c, d)
        _pts, block_ids = self._scheme.query(q)
        candidates = [self._bids[key] for key in block_ids]
        if len(candidates) > 1:
            prefetch_hint(self._store, candidates)
        out = set()
        for bid in candidates:
            for p in self._store.read(bid).records:
                if q.contains(p):
                    out.add(p)
        return list(out)

    def blocks_for_query(self, a: float, b: float, c: float, d: float) -> int:
        """How many blocks the query would read (no I/O performed)."""
        _pts, block_ids = self._scheme.query(FourSidedQuery(a, b, c, d))
        return len(block_ids)

    def destroy(self) -> None:
        """Free every block owned by the structure."""
        for bid in self._bids.values():
            self._store.free(bid)
        self._bids = {}

    def check_invariants(self) -> None:
        """Validate structural guarantees; raises AssertionError on breach."""
        self._scheme.check_invariants()
        assert len(self._bids) == self._scheme.num_blocks

"""Block-access tracing: what the I/O counters cannot see.

The paper's model charges every transfer equally, but practitioners also
care about *locality*: sequential block runs are far cheaper on spinning
disks and still matter for SSD prefetching.  :class:`AccessTrace`
observes any store, records the exact access sequence, and summarizes
it (sequential fraction, distinct blocks, re-reads), enabling
the locality ablation A6 without touching any structure code.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple


@dataclass
class TraceSummary:
    """Aggregate view of an access trace."""

    reads: int
    writes: int
    distinct_blocks: int
    sequential_reads: int      # reads whose bid == previous read bid + 1
    repeat_reads: int          # reads of a block already read before

    @property
    def sequential_fraction(self) -> float:
        """Share of reads that continued a consecutive-bid run."""
        return self.sequential_reads / self.reads if self.reads else 0.0

    @property
    def reread_fraction(self) -> float:
        """Share of reads that revisited an already-read block."""
        return self.repeat_reads / self.reads if self.reads else 0.0


class AccessTrace:
    """Store observer that logs every physical (op, block id) pair.

    Subscribe it to a :class:`~repro.io.BlockStore` (or to any layer
    that forwards observers down to one; a :class:`~repro.io.BufferPool`
    does not, it reports cache events instead)::

        trace = AccessTrace()
        store.add_observer(trace)

    :attr:`trace` lists ``(op, bid)`` tuples in order, with ``op`` one
    of ``"read" | "write" | "alloc" | "free"`` (the store observer
    events, see :data:`repro.io.blockstore.StoreObserver`).  Only
    operations that reached the store are logged.
    """

    def __init__(self):
        self.trace: List[Tuple[str, int]] = []

    def __call__(self, op: str, bid: int) -> None:
        self.trace.append((op, bid))

    # -- analysis ----------------------------------------------------------
    def clear(self) -> None:
        """Forget the trace so far (e.g. after a build phase)."""
        self.trace = []

    def summary(self) -> TraceSummary:
        """Aggregate the trace into a :class:`TraceSummary`."""
        reads = writes = seq = repeats = 0
        seen: set = set()
        prev_read: Optional[int] = None
        for op, bid in self.trace:
            if op == "read":
                reads += 1
                if prev_read is not None and bid == prev_read + 1:
                    seq += 1
                if bid in seen:
                    repeats += 1
                seen.add(bid)
                prev_read = bid
            elif op == "write":
                writes += 1
        return TraceSummary(
            reads=reads,
            writes=writes,
            distinct_blocks=len(seen),
            sequential_reads=seq,
            repeat_reads=repeats,
        )

    def read_run_lengths(self) -> List[int]:
        """Lengths of maximal consecutive-bid read runs (locality view)."""
        runs: List[int] = []
        prev: Optional[int] = None
        cur = 0
        for op, bid in self.trace:
            if op != "read":
                continue
            if prev is not None and bid == prev + 1:
                cur += 1
            else:
                if cur:
                    runs.append(cur)
                cur = 1
            prev = bid
        if cur:
            runs.append(cur)
        return runs

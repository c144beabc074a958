"""Simulated external memory: block store, I/O accounting, buffer pool.

The paper's cost model (the standard I/O model of Aggarwal and Vitter)
charges one unit per transfer of a *block* of ``B`` records between disk
and main memory.  Reproducing the paper in Python means reproducing that
accounting exactly, so this package provides:

- :class:`BlockStore` -- a simulated disk of fixed-capacity blocks.  Every
  read and write is counted in an :class:`IOStats`.
- :class:`BufferPool` -- a write-back cache in front of a store with
  pluggable replacement (LRU / scan-resistant 2Q / CLOCK, see
  :mod:`repro.io.policies`), optional CONT-chain readahead and write
  coalescing, and a pin API modelling the paper's "O(1) catalog blocks
  held in main memory".
- :class:`StoreLayer` -- the base every storage wrapper subclasses: it
  forwards the protocol to the inner store, so a wrapper overrides only
  the operations it changes.
- :class:`IOStats` -- exact counters, subtractable for scoped measurement.

All data structures in :mod:`repro` access their data exclusively through
this interface, so the quantities the paper's theorems bound (blocks of
space, I/Os per operation) are measured, not estimated.
"""

from repro.io.stats import IOStats
from repro.io.blockstore import (
    Block,
    BlockCapacityError,
    BlockStore,
    StorageError,
    StoreLayer,
)
from repro.io.bufferpool import BufferPool, CowRecords
from repro.io.checksum import ChecksummedStore, CorruptBlockError
from repro.io.hooks import crash_point, prefetch_hint
from repro.io.policies import (
    POLICIES,
    ClockPolicy,
    LRUPolicy,
    ReplacementPolicy,
    TwoQPolicy,
    make_policy,
)
from repro.io.trace import AccessTrace, TraceSummary

__all__ = [
    "IOStats",
    "Block",
    "BlockStore",
    "BufferPool",
    "CowRecords",
    "AccessTrace",
    "TraceSummary",
    "StorageError",
    "StoreLayer",
    "BlockCapacityError",
    "ChecksummedStore",
    "CorruptBlockError",
    "crash_point",
    "prefetch_hint",
    "ReplacementPolicy",
    "LRUPolicy",
    "TwoQPolicy",
    "ClockPolicy",
    "POLICIES",
    "make_policy",
]

"""Block checksumming: detect silent corruption before it is served.

The fault model so far made the disk *loud*: every injected failure
raised.  Real media also rot silently -- a block reads back fine at the
bus level but its payload is garbage.  :class:`ChecksummedStore` frames
every block with a CRC32 computed over a canonical serialization of its
records at write time and verifies it on every read; a mismatch raises
the typed :class:`CorruptBlockError` instead of handing rotten data to
a structure.  The serialization is :func:`record_crc`'s: ``marshal``
format 2, with pickle only for records marshal cannot encode.

The CRC side table is in-memory (one int per allocated block, the same
O(n/B) words a real system keeps in its block headers or a checksum
file).  The wrapper adds **zero physical I/O**: counters live in the
wrapped store and move only on operations that reach it, so composing
it into a chain leaves every gated I/O count unchanged.

Semantics worth knowing:

- **trust-on-first-read**: a block whose CRC is unknown (the wrapper
  was created over an already-populated disk, e.g. after a crash
  re-attachment) is adopted as-is on its first read.  Detection starts
  from the first write/read the wrapper itself witnesses.
- :meth:`ChecksummedStore.verify` checks a block *without charging
  I/O or raising* -- the background scrubber's primitive.
- :meth:`ChecksummedStore.place` is the replica-rebuild channel: it
  installs a block at a chosen id (see :meth:`repro.io.blockstore.
  BlockStore.place`) and records its CRC, so a rebuilt mirror starts
  life fully checksummed.

Mismatches are counted under ``crc_mismatches{layer=io}`` in the
metrics registry.
"""

from __future__ import annotations

import marshal
import pickle
import zlib
from typing import Any, Dict, Iterable, Optional

from repro.io.blockstore import Block, StorageError, StoreLayer


class CorruptBlockError(StorageError):
    """A block's payload no longer matches its recorded checksum.

    Deliberately *not* a :class:`~repro.resilience.errors.
    TransientIOError`: re-reading rotten data yields the same rot, so
    retry layers must not spin on it.  Callers with redundancy (a
    replica set, the scrubber) catch it and serve or repair from a
    healthy copy.
    """

    def __init__(self, bid: int, expected: int, actual: int):
        super().__init__(
            f"block {bid}: checksum mismatch "
            f"(expected {expected:#010x}, got {actual:#010x})"
        )
        self.bid = bid
        self.expected = expected
        self.actual = actual


def record_crc(records: Iterable[Any]) -> int:
    """CRC32 over a canonical serialization of a record list.

    The serialization is ``marshal`` format 2, which covers the tuples,
    floats, ints and strings the structures store.  Format 2 writes no
    back-references (those came in format 3), so the bytes, and hence
    the CRC, depend on the records' values alone, never on which
    objects are shared or interned: a replica rebuild or a copied
    pre-image hashes like the original.  Pickle memoizes shared objects
    and so would not.  A block may still hold any Python object, so
    records marshal rejects fall back to pickle.  Either encoding is
    deterministic within a process, which is all the simulated disk
    needs; a real implementation would hash the block's bytes.
    """
    data = list(records)
    try:
        blob = marshal.dumps(data, 2)
    except ValueError:
        blob = pickle.dumps(data, protocol=4)
    return zlib.crc32(blob)


_EMPTY_CRC = record_crc([])


class ChecksummedStore(StoreLayer):
    """Storage layer that CRC-frames every block (standard protocol)."""

    def __init__(self, store):
        super().__init__(store)
        self._crcs: Dict[int, int] = {}
        self.verified = 0     # reads that passed the checksum
        self.mismatches = 0   # reads that raised CorruptBlockError

    # ------------------------------------------------------------------
    # checksummed operations
    # ------------------------------------------------------------------
    def alloc(self) -> int:
        """Allocate; a fresh block is checksummed as empty."""
        bid = self._store.alloc()
        self._crcs[bid] = _EMPTY_CRC
        return bid

    def read(self, bid: int) -> Block:
        """Read and verify; raises :class:`CorruptBlockError` on rot."""
        block = self._store.read(bid)
        actual = record_crc(block.records)
        expected = self._crcs.get(bid)
        if expected is None:
            # trust-on-first-read: adopt pre-existing content
            self._crcs[bid] = actual
        elif actual != expected:
            self.mismatches += 1
            from repro.obs.metrics import counter

            counter("crc_mismatches", layer="io").inc()
            raise CorruptBlockError(bid, expected, actual)
        self.verified += 1
        return block

    def write(self, bid: int, records: Iterable[Any]) -> None:
        """Write through, recording the new payload's CRC.

        The CRC updates only after the inner write succeeded, so a
        failed or torn write (which the fault layer routes through here
        with whatever prefix actually landed) never leaves the table
        describing data that is not on the disk.
        """
        data = list(records)
        self._store.write(bid, data)
        self._crcs[bid] = record_crc(data)

    def free(self, bid: int) -> None:
        """Free through and forget the block's CRC."""
        self._store.free(bid)
        self._crcs.pop(bid, None)

    def place(self, bid: int, records: Iterable[Any], *, crc: Optional[int] = None) -> None:
        """Install a block at a chosen id (replica rebuild channel).

        ``crc`` overrides the recorded checksum: a rebuild cloning a
        donor's *rotten* block copies the payload verbatim but records
        the donor's original CRC, so the rot stays detectable on the
        new replica instead of being laundered into "clean" data.
        """
        data = list(records)
        self._store.place(bid, data)
        self._crcs[bid] = record_crc(data) if crc is None else crc

    # ------------------------------------------------------------------
    # scrub support
    # ------------------------------------------------------------------
    def verify(self, bid: int) -> bool:
        """Check a block against its recorded CRC without charging I/O.

        Returns True for blocks with no recorded CRC (nothing to
        compare) and for missing blocks (the allocator, not the
        scrubber, owns those).  Never raises.
        """
        expected = self._crcs.get(bid)
        if expected is None:
            return True
        try:
            actual = record_crc(self._store.peek(bid))
        except StorageError:
            return True
        return actual == expected

    def crc_of(self, bid: int) -> Optional[int]:
        """The recorded CRC for ``bid`` (None if never written here)."""
        return self._crcs.get(bid)

    def __repr__(self) -> str:
        return (
            f"ChecksummedStore(tracked={len(self._crcs)}, "
            f"verified={self.verified}, mismatches={self.mismatches})"
        )

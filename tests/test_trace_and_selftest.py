"""Tests for the access-trace recorder and the self-test harness."""

import pytest

from repro.io import AccessTrace, BlockStore, ChecksummedStore, StorageError
from repro.core.external_pst import ExternalPrioritySearchTree
from repro.selftest import run_selftest
from tests.conftest import make_points


def traced_store(block_size=8):
    store = BlockStore(block_size)
    rec = AccessTrace()
    store.add_observer(rec)
    return store, rec


class TestTraceRecorder:
    """The :class:`AccessTrace` store observer."""

    def test_protocol_passthrough(self):
        store, rec = traced_store()
        bid = store.alloc()
        store.write(bid, [1, 2])
        assert store.read(bid).records == [1, 2]
        assert store.blocks_in_use == 1
        store.free(bid)
        assert store.blocks_in_use == 0
        assert len(rec.trace) == 4

    def test_trace_order(self):
        store, rec = traced_store()
        a = store.alloc()
        store.write(a, [1])
        store.read(a)
        store.free(a)
        assert rec.trace == [("alloc", a), ("write", a), ("read", a), ("free", a)]

    def test_failed_operations_not_logged(self):
        store, rec = traced_store()
        with pytest.raises(StorageError):
            store.read(7)
        assert rec.trace == []

    def test_observes_through_layers(self):
        """Subscribed through a checksum layer, the trace still lands
        on the physical store and sees the layer's reads."""
        base = BlockStore(8)
        cs = ChecksummedStore(base)
        rec = AccessTrace()
        cs.add_observer(rec)
        bid = cs.alloc()
        cs.write(bid, [1, 2])
        assert cs.read(bid).records == [1, 2]
        assert rec.trace == [("alloc", bid), ("write", bid), ("read", bid)]

    def test_summary_counts(self):
        store, rec = traced_store()
        bids = [store.alloc() for _ in range(3)]
        for b in bids:
            store.write(b, [b])
        rec.clear()
        store.read(bids[0])
        store.read(bids[1])       # sequential (bid + 1)
        store.read(bids[0])       # repeat, non-sequential
        s = rec.summary()
        assert s.reads == 3
        assert s.distinct_blocks == 2
        assert s.sequential_reads == 1
        assert s.repeat_reads == 1
        assert 0 < s.sequential_fraction < 1
        assert s.reread_fraction == pytest.approx(1 / 3)

    def test_run_lengths(self):
        store, rec = traced_store()
        bids = [store.alloc() for _ in range(6)]
        for b in bids:
            store.write(b, [b])
        rec.clear()
        for b in bids[:4]:
            store.read(b)         # run of 4
        store.read(bids[0])       # run of 1
        store.read(bids[5])       # run of 1
        assert rec.read_run_lengths() == [4, 1, 1]

    def test_empty_summary(self):
        s = AccessTrace().summary()
        assert s.reads == 0 and s.sequential_fraction == 0.0

    def test_structures_run_over_recorder(self, rng):
        """A structure's queries are traced without touching its code."""
        store, rec = traced_store(16)
        pts = make_points(rng, 300)
        pst = ExternalPrioritySearchTree(store, pts)
        rec.clear()
        got = pst.query(100, 600, 500)
        want = sorted(p for p in pts if 100 <= p[0] <= 600 and p[1] >= 500)
        assert sorted(got) == want
        s = rec.summary()
        assert s.reads > 0
        assert s.distinct_blocks <= s.reads
        assert s.writes == 0   # queries never write


class TestSelftest:
    def test_selftest_passes(self):
        assert run_selftest(n=250, seed=1) == []

    def test_selftest_deterministic(self):
        assert run_selftest(n=150, seed=2) == run_selftest(n=150, seed=2)

"""Tests for the slab-based Arge-Vitter interval tree."""

import pytest

from repro.io import BlockStore
from repro.io.stats import Meter
from repro.analysis.bounds import log_b
from repro.substrates.av_interval_tree import SlabIntervalTree
from repro.substrates.interval_tree import ExternalIntervalTree


def _intervals(rng, n, span=1000.0, mean_len=40.0):
    out = set()
    while len(out) < n:
        l = rng.uniform(0, span)
        out.add((round(l, 4), round(l + rng.expovariate(1 / mean_len), 4)))
    return sorted(out)


class TestBuild:
    def test_empty(self, store):
        t = SlabIntervalTree(store)
        assert t.stab(5.0) == []
        assert t.count == 0

    def test_single(self, store):
        t = SlabIntervalTree(store, [(1.0, 4.0)])
        assert t.stab(2.0) == [(1.0, 4.0)]
        assert t.stab(5.0) == []

    def test_validation(self, store):
        with pytest.raises(ValueError):
            SlabIntervalTree(store, [(3.0, 1.0)])
        with pytest.raises(ValueError):
            SlabIntervalTree(store, [(0.0, 1.0), (0.0, 1.0)])
        with pytest.raises(ValueError):
            SlabIntervalTree(BlockStore(4), [(0.0, 1.0)])

    def test_invariants_after_build(self, store, rng):
        ivs = _intervals(rng, 800)
        t = SlabIntervalTree(store, ivs)
        t.check_invariants()

    def test_space_linear(self, rng):
        B = 16
        ratios = []
        for n in (400, 1600):
            store = BlockStore(B)
            t = SlabIntervalTree(store, _intervals(rng, n))
            ratios.append(t.blocks_in_use() / (n / B))
        assert ratios[1] <= ratios[0] * 1.5 + 1

    def test_dense_multislabs_created(self, rng):
        """Long intervals spanning the structure force dense lists."""
        store = BlockStore(16)
        long_ivs = [(float(i) / 100, 900.0 + i) for i in range(200)]
        short = _intervals(rng, 400, span=800.0, mean_len=5.0)
        ivs = sorted(set(long_ivs) | set(short))
        t = SlabIntervalTree(store, ivs)
        t.check_invariants()
        got = sorted(t.stab(450.0))
        want = sorted((l, r) for l, r in ivs if l <= 450.0 <= r)
        assert got == want


class TestStab:
    def test_differential(self, store, rng):
        ivs = _intervals(rng, 700)
        t = SlabIntervalTree(store, ivs)
        for _ in range(80):
            q = rng.uniform(-20, 1300)
            got = sorted(t.stab(q))
            assert got == sorted((l, r) for l, r in ivs if l <= q <= r)

    def test_endpoint_stabs(self, store):
        t = SlabIntervalTree(store, [(1.0, 5.0), (5.0, 9.0)])
        assert sorted(t.stab(5.0)) == [(1.0, 5.0), (5.0, 9.0)]

    def test_stab_io_bound(self, rng):
        B = 32
        store = BlockStore(B)
        ivs = _intervals(rng, 2500)
        t = SlabIntervalTree(store, ivs)
        for _ in range(25):
            q = rng.uniform(0, 1100)
            with Meter(store) as m:
                got = t.stab(q)
            bound = log_b(len(ivs), B) + len(got) / B
            assert m.delta.ios <= 40 * bound + 10, (m.delta.ios, bound)


class TestDynamic:
    def test_mixed_ops(self, store, rng):
        ivs = _intervals(rng, 400)
        t = SlabIntervalTree(store, ivs)
        live = set(ivs)
        for i in range(300):
            r = rng.random()
            if r < 0.45 and live:
                iv = rng.choice(sorted(live))
                assert t.delete(*iv)
                live.discard(iv)
            else:
                l = rng.uniform(-100, 1200)
                iv = (round(l, 4), round(l + rng.uniform(0, 400), 4))
                if iv not in live:
                    t.insert(*iv)
                    live.add(iv)
        t.check_invariants()
        for _ in range(30):
            q = rng.uniform(-150, 1700)
            assert sorted(t.stab(q)) == sorted(
                (l, r) for l, r in live if l <= q <= r
            )

    def test_delete_absent(self, store, rng):
        t = SlabIntervalTree(store, _intervals(rng, 100))
        assert not t.delete(-5.0, -1.0)

    def test_sparse_to_dense_promotion(self, rng):
        """Inserting > B spanning intervals into one multislab promotes
        it out of the corner structure."""
        B = 16
        store = BlockStore(B)
        base = _intervals(rng, 300, mean_len=3.0)
        t = SlabIntervalTree(store, base)
        live = set(base)
        for i in range(2 * B):
            iv = (0.5 + i * 1e-6, 999.0 + i * 1e-6)
            t.insert(*iv)
            live.add(iv)
        t.check_invariants()
        q = 500.0
        assert sorted(t.stab(q)) == sorted(
            (l, r) for l, r in live if l <= q <= r
        )

    def test_global_rebuild(self, rng):
        store = BlockStore(16)
        ivs = _intervals(rng, 200)
        t = SlabIntervalTree(store, ivs)
        for i in range(150):
            t.insert(2000.0 + i, 2010.0 + i)
        assert t.rebuilds >= 1
        t.check_invariants()

    def test_out_of_range_inserts(self, store, rng):
        """The root slab is (-inf, inf], so any interval routes."""
        t = SlabIntervalTree(store, _intervals(rng, 150))
        t.insert(-1e6, -9e5)
        t.insert(1e7, 2e7)
        assert t.stab(-9.5e5) == [(-1e6, -9e5)]
        assert t.stab(1.5e7) == [(1e7, 2e7)]


class TestAgainstReduction:
    def test_both_substrates_agree(self, rng):
        """The slab tree and the diagonal-corner reduction answer every
        stab identically."""
        ivs = _intervals(rng, 900)
        slab = SlabIntervalTree(BlockStore(16), ivs)
        redu = ExternalIntervalTree(BlockStore(16), ivs)
        for _ in range(40):
            q = rng.uniform(-10, 1300)
            assert sorted(slab.stab(q)) == sorted(redu.stab(q))

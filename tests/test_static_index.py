"""Tests for the static variants (Section 5's practical recommendation)."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry import NEG_INF, Orientation, ThreeSidedQuery
from repro.io import AccessTrace, BlockStore
from repro.io.stats import Meter
from repro.core.static_index import StaticFourSidedIndex, StaticThreeSidedIndex
from repro.core.external_pst import ExternalPrioritySearchTree
from repro.core.threesided_scheme import CatalogEntry, ThreeSidedSweepIndex
from tests.conftest import brute_3sided, brute_4sided, make_points


def scan_candidates(idx, a, b, c):
    """Reference: the linear catalog scan, block ids in catalog order."""
    out = []
    for entry, bid in idx.snapshot_meta()["catalog"]:
        e = CatalogEntry(*entry)
        if e.live_at(c) and e.x_overlaps(a, b):
            out.append(bid)
    return out


def traced_query(store, idx, **kwargs):
    """``idx.query(**kwargs)`` plus the block ids it read, in order."""
    trace = AccessTrace()
    store.add_observer(trace)
    try:
        got = idx.query(**kwargs)
    finally:
        store.remove_observer(trace)
    return got, [bid for op, bid in trace.trace if op == "read"]


def original_bounds(side, a, b, c):
    """Original-frame bounds of the canonical query ``(a, b, c)``."""
    return {
        "up": dict(x_lo=a, x_hi=b, y_lo=c),
        "down": dict(x_lo=a, x_hi=b, y_hi=-c),
        "right": dict(y_lo=a, y_hi=b, x_lo=c),
        "left": dict(y_lo=a, y_hi=b, x_hi=-c),
    }[side]


class TestStaticThreeSided:
    def test_query_differential(self, store, rng):
        pts = make_points(rng, 500)
        idx = StaticThreeSidedIndex(store, pts)
        idx.check_invariants()
        for _ in range(80):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 400)
            c = rng.uniform(0, 1000)
            got = idx.query(x_lo=a, x_hi=b, y_lo=c)
            assert sorted(got) == brute_3sided(pts, a, b, c)

    @pytest.mark.parametrize("side,kwargs,pred", [
        ("left", dict(x_hi=600.0, y_lo=200.0, y_hi=700.0),
         lambda p: p[0] <= 600 and 200 <= p[1] <= 700),
        ("right", dict(x_lo=300.0, y_lo=200.0, y_hi=700.0),
         lambda p: p[0] >= 300 and 200 <= p[1] <= 700),
        ("down", dict(x_lo=100.0, x_hi=800.0, y_hi=450.0),
         lambda p: 100 <= p[0] <= 800 and p[1] <= 450),
    ])
    def test_orientations(self, store, rng, side, kwargs, pred):
        pts = make_points(rng, 300)
        idx = StaticThreeSidedIndex(store, pts, orientation=side)
        got = idx.query(**kwargs)
        assert sorted(got) == sorted(p for p in pts if pred(p))

    def test_query_io_is_candidates_only(self, rng):
        """No search I/O: the reads are the scanned candidates, in order."""
        B = 16
        store = BlockStore(B)
        pts = make_points(rng, 600)
        idx = StaticThreeSidedIndex(store, pts)
        for _ in range(30):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 300)
            c = rng.uniform(0, 1000)
            expected = scan_candidates(idx, a, b, c)
            with Meter(store) as m:
                _got, reads = traced_query(store, idx, x_lo=a, x_hi=b, y_lo=c)
            assert reads == expected
            assert idx.candidate_blocks(x_lo=a, x_hi=b, y_lo=c) == len(expected)
            assert m.delta.writes == 0

    def test_query_io_beats_pst_constant(self, rng):
        """The static trade: fewer I/Os per query than the dynamic PST."""
        B = 32
        pts = make_points(rng, 2000)
        s1, s2 = BlockStore(B), BlockStore(B)
        static = StaticThreeSidedIndex(s1, pts)
        pst = ExternalPrioritySearchTree(s2, pts)
        static_io = pst_io = 0
        for _ in range(25):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 300)
            c = rng.uniform(0, 1000)
            with Meter(s1) as m1:
                g1 = static.query(x_lo=a, x_hi=b, y_lo=c)
            with Meter(s2) as m2:
                g2 = pst.query(a, b, c)
            assert sorted(g1) == sorted(g2)
            static_io += m1.delta.ios
            pst_io += m2.delta.ios
        assert static_io < pst_io

    def test_space_matches_scheme(self, store, rng):
        pts = make_points(rng, 400)
        idx = StaticThreeSidedIndex(store, pts, alpha=2)
        # ~2n blocks for alpha = 2
        assert idx.blocks_in_use() <= 2 * (len(pts) // store.block_size) + 3
        assert idx.memory_catalog_entries() == idx.blocks_in_use()

    def test_destroy(self, rng):
        store = BlockStore(16)
        idx = StaticThreeSidedIndex(store, make_points(rng, 100))
        idx.destroy()
        assert store.blocks_in_use == 0


# heavy duplicate x (1-5 distinct values, so simultaneously live blocks
# touch at a shared x) or a wider spread; an occasional y = -inf point
# makes the report-all level c = -inf meet coalesced blocks too
_x_spans = st.sampled_from([0, 1, 2, 3, 4, 40])
_ys = st.integers(0, 40).map(float) | st.just(NEG_INF)


@st.composite
def _point_sets(draw):
    x_span = draw(_x_spans)
    xs = st.integers(0, x_span).map(float)
    return sorted(draw(st.sets(st.tuples(xs, _ys), max_size=60)))


class TestCatalogDirectory:
    """The in-memory directory against the linear catalog scan."""

    def _check(self, store, idx, sweep, side, pts, a, b, c):
        expected = scan_candidates(idx, a, b, c)
        got, reads = traced_query(store, idx, **original_bounds(side, a, b, c))
        assert reads == expected  # same blocks, same order
        o = Orientation(side)
        canonical = [o.to_canonical(p) for p in pts]
        assert sorted(got) == sorted(
            o.from_canonical(p) for p in brute_3sided(canonical, a, b, c)
        )
        q = ThreeSidedQuery(a, b, c)
        assert sweep.candidate_blocks(q) == [
            e.block for e in sweep.catalog
            if e.live_at(c) and e.x_overlaps(a, b)
        ]

    @settings(max_examples=150, deadline=None)
    @given(pts=_point_sets(), side=st.sampled_from(["up", "down", "left", "right"]),
           alpha=st.integers(2, 4), B=st.sampled_from([2, 4, 8]),
           data=st.data())
    def test_candidates_match_scan(self, pts, side, alpha, B, data):
        store = BlockStore(B)
        idx = StaticThreeSidedIndex(store, pts, alpha=alpha, orientation=side)
        sweep = ThreeSidedSweepIndex(pts, B, alpha, orientation=side)
        attached = StaticThreeSidedIndex.attach(store, idx.snapshot_meta())
        levels = sorted(
            {v for entry, _bid in idx.snapshot_meta()["catalog"]
             for v in entry[2:4]} | {NEG_INF}
        )
        coord = st.integers(-1, 42).map(float)
        for _ in range(6):
            a = data.draw(coord)
            b = a + data.draw(st.integers(0, 8))  # 0 gives a == b
            c = data.draw(st.sampled_from(levels) | coord)
            for handle in (idx, attached):
                self._check(store, handle, sweep, side, pts, a, b, c)

    @pytest.mark.parametrize("pts", [[], [(3.0, 4.0)]])
    @pytest.mark.parametrize("side", ["up", "down", "left", "right"])
    def test_empty_and_one_point(self, pts, side):
        store = BlockStore(2)
        idx = StaticThreeSidedIndex(store, pts, orientation=side)
        sweep = ThreeSidedSweepIndex(pts, 2, orientation=side)
        for a, b, c in [(0.0, 9.0, NEG_INF), (3.0, 3.0, 3.0), (4.0, 4.0, 4.0),
                        (0.0, 9.0, -4.0), (5.0, 9.0, 0.0)]:
            self._check(store, idx, sweep, side, pts, a, b, c)

    def test_nan_bound_meets_nothing(self, rng):
        store = BlockStore(8)
        pts = make_points(rng, 50)
        idx = StaticThreeSidedIndex(store, pts)
        nan = float("nan")
        for a, b, c in [(nan, 1000.0, 0.0), (0.0, nan, 0.0), (0.0, 1000.0, nan)]:
            assert scan_candidates(idx, a, b, c) == []
            assert traced_query(store, idx, x_lo=a, x_hi=b, y_lo=c) == ([], [])

    def test_destroy_clears_directory(self, rng):
        store = BlockStore(8)
        idx = StaticThreeSidedIndex(store, make_points(rng, 50))
        idx.destroy()
        assert idx.candidate_blocks(x_lo=0.0, x_hi=1000.0, y_lo=0.0) == 0


class TestStaticFourSided:
    def test_query_differential(self, store, rng):
        pts = make_points(rng, 600)
        idx = StaticFourSidedIndex(store, pts, rho=4)
        idx.check_invariants()
        for _ in range(60):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 400)
            c = rng.uniform(0, 1000)
            d = c + rng.uniform(0, 400)
            got = idx.query(a, b, c, d)
            assert sorted(got) == brute_4sided(pts, a, b, c, d)

    def test_query_io_matches_directory(self, rng):
        B = 16
        store = BlockStore(B)
        pts = make_points(rng, 600)
        idx = StaticFourSidedIndex(store, pts, rho=4)
        for _ in range(20):
            a = rng.uniform(0, 1000)
            b = a + rng.uniform(0, 400)
            c = rng.uniform(0, 1000)
            d = c + rng.uniform(0, 400)
            expected = idx.blocks_for_query(a, b, c, d)
            with Meter(store) as m:
                idx.query(a, b, c, d)
            assert m.delta.reads == expected

    def test_space_tracks_levels(self, store, rng):
        pts = make_points(rng, 500)
        idx = StaticFourSidedIndex(store, pts, rho=2)
        per_level = 2 * 2.2 * (len(pts) / store.block_size)  # 2 sides x r<=2.2
        assert idx.blocks_in_use() <= per_level * idx.num_levels() + 10

    def test_destroy(self, rng):
        store = BlockStore(16)
        idx = StaticFourSidedIndex(store, make_points(rng, 200))
        idx.destroy()
        assert store.blocks_in_use == 0


class TestStaticPersistence:
    """snapshot_meta()/attach() for the static 3-sided index."""

    def test_round_trip(self, store, rng):
        pts = make_points(rng, 200)
        idx = StaticThreeSidedIndex(store, pts)
        again = StaticThreeSidedIndex.attach(store, idx.snapshot_meta())
        assert again.count == len(pts)
        for _ in range(15):
            a, b = sorted((rng.uniform(0, 1000), rng.uniform(0, 1000)))
            c = rng.uniform(0, 1000)
            got = again.query(x_lo=a, x_hi=b, y_lo=c)
            assert sorted(got) == brute_3sided(pts, a, b, c)
        again.check_invariants()

    def test_attach_is_lazy_then_reads_blocks(self, store, rng):
        pts = make_points(rng, 120)
        idx = StaticThreeSidedIndex(store, pts)
        meta = idx.snapshot_meta()
        with Meter(store) as m:
            again = StaticThreeSidedIndex.attach(store, meta)
        assert m.delta.ios == 0            # attach itself is free
        with Meter(store) as m:
            assert sorted(again.points()) == sorted(pts)
        assert m.delta.reads > 0           # point reload is honest I/O

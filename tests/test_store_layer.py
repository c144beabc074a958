"""Protocol conformance of every :class:`~repro.io.StoreLayer` subclass.

Each storage layer overrides only the members whose behaviour it
changes; everything else must reach the inner store.  This suite builds
every layer over a recording store and checks, member by member, that
inherited members forward, that named crash points reach a
:class:`~repro.resilience.FaultyStore` below through every layer, and
that only the buffer pool answers readahead hints.
"""

import pytest

from repro.io import BlockStore, BufferPool, ChecksummedStore, StoreLayer, crash_point
from repro.resilience import FaultSchedule, FaultyStore, JournaledStore, RetryingStore
from repro.resilience.errors import SimulatedCrash
from repro.resilience.verifier import _SiteCounter
from repro.serve.snapshots import SnapshotReader, SnapshotStore


def _reader(store):
    snap = SnapshotStore(store)
    return snap.reader(snap.open_epoch())


#: how to stack each layer on an inner store
LAYERS = {
    ChecksummedStore: ChecksummedStore,
    SnapshotStore: SnapshotStore,
    SnapshotReader: _reader,
    FaultyStore: lambda s: FaultyStore(s, FaultSchedule(seed=0)),
    RetryingStore: RetryingStore,
    JournaledStore: JournaledStore,
    BufferPool: lambda s: BufferPool(s, 4),
    _SiteCounter: _SiteCounter,
}

#: the protocol members a layer may override, and which ones each does
MEMBERS = (
    "block_size", "stats", "physical_store", "crash_hook", "add_observer",
    "remove_observer", "alloc", "read", "write", "free", "flush", "peek",
    "blocks_in_use", "block_ids",
)
OVERRIDES = {
    ChecksummedStore: {"alloc", "read", "write", "free"},
    SnapshotStore: {"alloc", "write", "free"},
    SnapshotReader: {"alloc", "read", "write", "free", "peek"},
    FaultyStore: {"alloc", "read", "write", "free", "crash_hook"},
    RetryingStore: {"alloc", "read", "write", "free"},
    JournaledStore: {"alloc", "read", "write", "free", "peek"},
    BufferPool: {"read", "write", "free", "flush", "peek", "add_observer",
                 "remove_observer"},
    _SiteCounter: {"alloc", "read", "write", "free", "crash_hook"},
}


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class Recorder(BlockStore):
    """A block store that logs which protocol members were used."""

    def __init__(self):
        super().__init__(8)
        self.used = []

    def __getattribute__(self, name):
        if name in MEMBERS:
            object.__getattribute__(self, "used").append(name)
        return object.__getattribute__(self, name)


def test_every_layer_is_covered():
    assert set(_all_subclasses(StoreLayer)) == set(LAYERS)


@pytest.mark.parametrize("cls", list(LAYERS), ids=lambda c: c.__name__)
def test_overrides_are_declared(cls):
    """A layer defines exactly the members it changes; the rest come
    from :class:`StoreLayer` unchanged."""
    own = {m for m in MEMBERS if getattr(cls, m) is not getattr(StoreLayer, m)}
    assert own == OVERRIDES[cls]


INHERITED = [
    pytest.param(cls, m, id=f"{cls.__name__}-{m}")
    for cls in LAYERS for m in MEMBERS if m not in OVERRIDES[cls]
]


@pytest.mark.parametrize("cls, member", INHERITED)
def test_inherited_member_reaches_inner_store(cls, member):
    inner = Recorder()
    bid = inner.alloc()
    inner.write(bid, [1, 2])
    layer = LAYERS[cls](inner)
    inner.used.clear()
    attr = getattr(layer, member)
    if member in ("add_observer", "remove_observer"):
        attr(lambda op, b: None)
    elif member in ("read", "peek"):
        attr(bid)
    elif member == "write":
        attr(bid, [3])
    elif member == "free":
        attr(bid)
    elif member in ("alloc", "flush", "block_ids"):
        attr()
    assert member in inner.used


def test_inherited_members_return_inner_values():
    inner = BlockStore(8)
    for bid in (inner.alloc(), inner.alloc()):
        inner.write(bid, [bid])
    for cls, make in LAYERS.items():
        layer = make(inner)
        assert layer.block_size == 8, cls
        assert layer.stats is inner.stats, cls
        assert layer.physical_store is inner, cls
        assert layer.block_ids() == inner.block_ids(), cls
        assert layer.blocks_in_use == inner.blocks_in_use, cls


@pytest.mark.parametrize("cls", list(LAYERS), ids=lambda c: c.__name__)
def test_crash_point_reaches_faulty_store_below(cls):
    faulty = FaultyStore(BlockStore(8), FaultSchedule(seed=0, crash_at_points=[0]))
    layer = faulty if cls is FaultyStore else LAYERS[cls](faulty)
    if cls is _SiteCounter:
        # the verifier's profiling pass counts points instead of dying
        crash_point(layer, "probe")
        assert layer.points == 1
        return
    with pytest.raises(SimulatedCrash):
        crash_point(layer, "probe")


@pytest.mark.parametrize("cls", list(LAYERS), ids=lambda c: c.__name__)
def test_only_the_pool_answers_prefetch_hints(cls):
    below = BufferPool(BlockStore(8), 4, readahead_window=2)
    layer = LAYERS[cls](below)
    assert (getattr(layer, "prefetch_hint", None) is not None) == (cls is BufferPool)

"""Workload definitions and the seeded op generator.

Every workload drives :class:`repro.serve.ServingEngine` with
``io_latency=0`` (the real CPU path), uniform points, ``B=32`` and 4
x-slab shards.  Queries are selective -- an x-span of at most 5% of the
extent and a y-threshold in the upper half -- so that search cost, not
result handling, dominates a query.

The generator is the benchmark's own: deletes pick a random live point
and swap-remove it from the client's live list in O(1), so a 100k-op
stream generates in well under a second.  Each client owns a disjoint
set of points: it deletes only base points dealt to it and points it
inserted itself, and every inserted point is globally fresh.  Writes of
different clients therefore commute, which is what lets the oracle
check concurrent clients (see :mod:`oracle`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Sequence, Set, Tuple

EXTENT = 1000.0
N_SHARDS = 4
BLOCK_SIZE = 32
MAX_SPAN = 0.05      # widest query x-span, as a share of the extent
MIN_SPAN = 0.005

Point = Tuple[float, float]
Op = Tuple[str, tuple]


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one engine configuration."""

    name: str
    n_points: int
    backend: str
    replication_factor: int
    clients: int
    batch_size: int
    #: timed batches per client in one segment: a few seconds of work
    segment_batches: int
    #: op weights, in the order ins, del, q3, q4
    mix: Tuple[float, float, float, float]
    pool_capacity: int = 0
    pool_policy: str = "lru"
    readahead_window: int = 0
    coalesce_writes: bool = False
    #: transient-only read and write fault rate per replica (0 = no
    #: FaultyStore/RetryingStore in the chain)
    fault_rate: float = 0.0

    def engine_kwargs(self, seed: int) -> dict:
        """Keyword arguments for ``ServingEngine(points, **kwargs)``."""
        kw = dict(
            n_shards=N_SHARDS,
            block_size=BLOCK_SIZE,
            backend=self.backend,
            replication_factor=self.replication_factor,
            pool_capacity=self.pool_capacity,
            pool_policy=self.pool_policy,
            readahead_window=self.readahead_window,
            coalesce_writes=self.coalesce_writes,
            io_latency=0.0,
            extent=EXTENT,
        )
        if self.fault_rate > 0:
            kw["fault_seed"] = seed
            kw["fault_rates"] = {
                "read_error_rate": self.fault_rate,
                "write_error_rate": self.fault_rate,
                "transient_fraction": 1.0,
            }
        return kw

    def describe(self) -> str:
        """One line of parameters for the printed report."""
        ins, dele, q3, q4 = self.mix
        pool = (
            f"pool={self.pool_capacity}x{self.pool_policy}"
            f" readahead={self.readahead_window}"
            f" coalesce={int(self.coalesce_writes)}"
            if self.pool_capacity else "pool=off"
        )
        return (
            f"backend={self.backend} points={self.n_points}"
            f" shards={N_SHARDS} B={BLOCK_SIZE} rf={self.replication_factor}"
            f" {pool} faults={self.fault_rate}"
            f" clients={self.clients} batch={self.batch_size}"
            f" segment={self.segment_batches}"
            f" mix=ins:{ins} del:{dele} q3:{q3} q4:{q4}"
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="query_log",
            n_points=20_000,
            backend="log",
            replication_factor=1,
            clients=1,
            batch_size=32,
            segment_batches=200,
            mix=(0.10, 0.10, 0.40, 0.40),
        ),
        Workload(
            name="ingest_rf2",
            # 10k points (~325 blocks a shard) and 16-op batches keep the
            # slowest workload above the 1000 batches a run that p99 needs
            n_points=10_000,
            backend="pst",
            replication_factor=2,
            clients=1,
            batch_size=16,
            segment_batches=250,
            mix=(0.35, 0.35, 0.15, 0.15),
            pool_capacity=32,
            pool_policy="2q",
            readahead_window=4,
            coalesce_writes=True,
            fault_rate=0.002,
        ),
        Workload(
            name="small_batch_cached",
            n_points=20_000,
            backend="pst",
            replication_factor=1,
            clients=2,
            batch_size=4,
            segment_batches=700,
            mix=(0.075, 0.075, 0.425, 0.425),
            pool_capacity=4096,
        ),
    )
}


def base_points(wl: Workload, seed: int) -> List[Point]:
    """``wl.n_points`` distinct uniform points, a pure function of the seed."""
    rng = random.Random(seed)
    seen: Set[Point] = set()
    out: List[Point] = []
    while len(out) < wl.n_points:
        p = (rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT))
        if p not in seen:
            seen.add(p)
            out.append(p)
    return out


class OpStream:
    """Seeded batch generator for one client.

    ``owned`` are the base points this client may delete; ``used`` is
    shared by every client of a run so inserted points are fresh.
    """

    def __init__(
        self,
        wl: Workload,
        seed: int,
        client: int,
        owned: Sequence[Point],
        used: Set[Point],
    ):
        self._wl = wl
        self._rng = random.Random(f"{seed}/{client}")
        self._live = list(owned)
        self._used = used
        ins, dele, q3, _q4 = wl.mix
        total = sum(wl.mix)
        self._cuts = (ins / total, (ins + dele) / total, (ins + dele + q3) / total)

    def _fresh_point(self) -> Point:
        rng = self._rng
        while True:
            p = (rng.uniform(0.0, EXTENT), rng.uniform(0.0, EXTENT))
            if p not in self._used:
                self._used.add(p)
                return p

    def _op(self) -> Op:
        rng = self._rng
        u = rng.random()
        if u < self._cuts[1]:
            if u < self._cuts[0] or not self._live:
                p = self._fresh_point()
                self._live.append(p)
                return ("ins", p)
            live = self._live
            i = rng.randrange(len(live))
            live[i], live[-1] = live[-1], live[i]
            return ("del", live.pop())
        span = rng.uniform(MIN_SPAN, MAX_SPAN) * EXTENT
        a = rng.uniform(0.0, EXTENT - span)
        c = rng.uniform(EXTENT / 2, EXTENT)
        if u < self._cuts[2]:
            return ("q3", (a, a + span, c))
        return ("q4", (a, a + span, c, rng.uniform(c, EXTENT)))

    def batches(self, n: int) -> List[List[Op]]:
        """The next ``n`` batches of this client's stream."""
        size = self._wl.batch_size
        return [[self._op() for _ in range(size)] for _ in range(n)]


def client_streams(wl: Workload, seed: int, base: Sequence[Point]) -> List[OpStream]:
    """One stream per client; base point ``i`` is dealt to client ``i % clients``."""
    used: Set[Point] = set(base)
    return [
        OpStream(wl, seed, c, base[c::wl.clients], used)
        for c in range(wl.clients)
    ]

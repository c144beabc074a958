#!/usr/bin/env python3
"""CPU-path serving benchmark for ``repro.serve.ServingEngine``.

Usage, from the repository root::

    python3 perfbench/run.py --workload query_log --seed 1 --seconds 40 --trace 0

A run is a sequence of identical *segments*.  Each segment builds a
fresh engine from the seeded base points (timing ``setup_s``), runs
a short warm-up on one thread, drives the same fixed list of
pre-generated batches closed-loop through the engine, and checks every
answer against a brute-force oracle.  Segments repeat until their timed
parts add up to ``--seconds``.  Every segment starts from the same state
and does the same work, so a segment's figures do not depend on how far
a run got, and a host stall moves one segment, not the result:
``--trace 0`` prints the median over the segments of each end-to-end
metric.  ``--trace 1`` runs one segment with span wrappers on every
layer (stopping early once it holds ``MAX_TRACED_SPANS`` spans), prints
the per-layer table and metrics, verifies that tracing changed no
answer and no block I/O count, and writes the spans to ``.perfbench/``.
The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the metrics and
units that ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import threading
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple

from oracle import BatchRecord, Mismatch, check
from tracer import LAYERS, STORE_LAYERS, SpanStats, calibrate_child_cost, instrument
from workloads import WORKLOADS, Workload, base_points, client_streams

ROOT = Path(__file__).resolve().parent.parent
BUILDS_PER_SEGMENT = 2     # setup_s samples per segment; the last build is used
WARMUP_OPS = 512           # per client, at the start of every segment
MAX_TRACED_SPANS = 200_000  # the traced segment stops early past this many spans
CLIENT_TIMEOUT_S = 150     # a segment whose client hangs this long fails the run


class Phase:
    """The batches one closed-loop phase ran, with its wall time."""

    def __init__(self, records: List[BatchRecord], wall_s: float):
        self.records = records
        self.wall_s = wall_s
        self.attempted = sum(len(r.ops) for r in records)
        self.failed = sum(len(r.ops) for r in records if r.results is None)
        self.latencies_ms = [(r.end - r.start) * 1e3 for r in records]

    @property
    def throughput(self) -> float:
        return (self.attempted - self.failed) / self.wall_s


def run_phase(engine, queues: List[List[list]], errors: tuple,
              stop_early=None) -> Phase:
    """Each client sends its next batch when the previous one returned,
    until its queue runs out or ``stop_early()`` holds."""
    per_client: List[List[BatchRecord]] = [[] for _ in queues]
    crashed: List[BaseException] = []

    def client(i: int) -> None:
        out = per_client[i]
        try:
            for ops in queues[i]:
                if stop_early is not None and stop_early():
                    break
                t0 = perf_counter()
                try:
                    results = engine.execute(ops).results
                except errors:
                    results = None
                out.append(BatchRecord(i, t0, perf_counter(), ops, results))
        except BaseException as exc:  # surfaced by the main thread
            crashed.append(exc)

    threads = [threading.Thread(target=client, args=(i,), daemon=True)
               for i in range(len(queues))]
    start = perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=CLIENT_TIMEOUT_S)
        if t.is_alive():
            raise RuntimeError("a client did not finish its batches in time")
    wall = perf_counter() - start
    if crashed:
        raise crashed[0]
    return Phase([r for recs in per_client for r in recs], wall)


def all_replicas(engine):
    return [r for sh in engine.router.shards for r in sh.replica_set.replicas]


def io_totals(engine) -> Tuple[int, int]:
    s = engine.stats()
    return s["total_replica_reads"], s["total_replica_writes"]


def checkpoint(engine) -> None:
    """Flush the write-back pools, so the writes a phase deferred are
    charged to that phase.  An engine snapshot flushes each shard's
    primary pool; replicated writes already flush every copy per op."""
    engine.snapshot().close()


def interleave(per_client: Sequence[Sequence[list]]) -> List[list]:
    """The clients' batches, one of each client in turn."""
    return [b for group in zip(*per_client) for b in group]


def build(engine_cls, wl: Workload, seed: int, base, times: List[float]):
    """A fresh engine; appends the build's seconds to ``times``."""
    gc.collect()  # earlier engines' garbage is not this build's cost
    t0 = perf_counter()
    engine = engine_cls(base, **wl.engine_kwargs(seed))
    times.append(perf_counter() - t0)
    return engine


@dataclass
class Segment:
    """What one segment measured.  ``traced`` holds, for a traced
    segment, the tracer, the pools' counters and the engine's block
    reads/writes, each before and after the timed phase."""

    phase: Phase
    records: List[BatchRecord]
    io_per_op: float
    space: float
    live: int
    traced: Optional[tuple] = None


def run_segment(engine_cls, wl: Workload, seed: int, base, warm: List[list],
                timed: List[List[list]], errors: tuple, setup_times: List[float],
                trace: bool = False) -> Segment:
    """Build a fresh engine, run ``warm`` on one thread, then each
    client's ``timed`` batches closed-loop.  ``io_per_op`` counts the
    timed phase's physical block reads+writes on every replica,
    including the write-back it deferred; space is read after it.
    The host's speed changes over seconds, so the ``setup_s`` samples
    are taken a few at a time, spread over the whole run."""
    for _ in range(BUILDS_PER_SEGMENT - 1):
        build(engine_cls, wl, seed, base, setup_times).close()
    engine = build(engine_cls, wl, seed, base, setup_times)
    traced = None
    try:
        warm_phase = run_phase(engine, [warm], errors)
        checkpoint(engine)
        io0 = io_totals(engine)
        if not trace:
            phase = run_phase(engine, timed, errors)
        else:
            tracer = instrument(engine)
            pool0, tio0 = pool_counters(engine), io_totals(engine)
            phase = run_phase(engine, timed, errors,
                              stop_early=lambda: tracer.span_count >= MAX_TRACED_SPANS)
            traced = (tracer, pool0, pool_counters(engine), tio0, io_totals(engine))
            tracer.uninstall()
        checkpoint(engine)
        io1 = io_totals(engine)
        space = (sum(r.base_store.blocks_in_use for r in all_replicas(engine))
                 / (engine.count / 1000))
        live = engine.count
    finally:
        engine.close()
    io_per_op = (io1[0] - io0[0] + io1[1] - io0[1]) / phase.attempted
    return Segment(phase, warm_phase.records + phase.records, io_per_op, space, live, traced)


def oracle_problems(base, seg: Segment) -> Tuple[int, List[str]]:
    """Answers the oracle checked in ``seg``, and what it found wrong."""
    try:
        checked, oracle_live = check(base, seg.records)
    except Mismatch as exc:
        return 0, [f"oracle mismatch: {exc}"]
    if oracle_live != seg.live:
        return checked, [f"engine holds {seg.live} points, oracle {oracle_live}"]
    return checked, []


# ----------------------------------------------------------------------
# tracing transparency
# ----------------------------------------------------------------------
def replay_untraced_and_traced(engine_cls, wl: Workload, seed: int, base,
                               order: List[list], errors) -> Tuple[Optional[str], float]:
    """Replay ``order`` on two fresh engines, one traced, on one thread.
    Answers and every replica's block reads/writes must be identical.
    Returns a description of the first difference (None if there is
    none) and the traced replay's wall time over the untraced one's:
    the tracing overhead on identical work."""
    outcomes = []
    for traced in (False, True):
        engine = engine_cls(base, **wl.engine_kwargs(seed))
        tracer = instrument(engine) if traced else None
        answers = []
        t0 = perf_counter()
        for ops in order:
            try:
                answers.append(engine.execute(ops).results)
            except errors as exc:
                answers.append(repr(exc))
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
        io = [(r.base_store.stats.reads, r.base_store.stats.writes)
              for r in all_replicas(engine)]
        engine.close()
        outcomes.append((answers, io, wall))
    (plain_answers, plain_io, plain_s), (traced_answers, traced_io, traced_s) = outcomes
    diff = None
    if plain_answers != traced_answers:
        diff = "answers differ with tracing on"
    elif plain_io != traced_io:
        diff = f"block I/O differs with tracing on: {plain_io} vs {traced_io}"
    return diff, traced_s / plain_s


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
def pool_counters(engine) -> Dict[str, int]:
    out = {"hits": 0, "misses": 0, "prefetch_issued": 0, "prefetch_hits": 0, "evictions": 0}
    for r in all_replicas(engine):
        if r.pool is not None:
            for k in out:
                out[k] += getattr(r.pool, k)
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer_metrics(st: SpanStats, ops: int, batches: int,
                      pool0: Dict[str, int], pool1: Dict[str, int]) -> Dict[str, float]:
    us = st.per_call_us
    m: Dict[str, float] = {}
    acq = "serve.admission.acquire"
    m["serve.admission.wait_us"] = _ratio(st.dur_ns[acq] / 1e3, batches)
    m["serve.admission.shed"] = st.calls[acq] - st.n_sum[acq]
    m["serve.executor.route_us"] = _ratio(st.dur_ns["serve.executor.route"] / 1e3, batches)
    m["serve.executor.self_us"] = _ratio(st.self_ns["serve.executor.execute"] / 1e3, batches)
    m["serve.executor.tasks_per_batch"] = _ratio(st.calls["serve.executor.task"], batches)
    m["serve.locks.read_wait_us"] = us("serve.locks.acquire_read", False)
    m["serve.locks.write_wait_us"] = us("serve.locks.acquire_write", False)
    for kind in ("q3", "q4", "ins", "del"):
        m[f"serve.shards.{kind}_us"] = us(f"serve.shards.{kind}", False)
    q4 = "serve.shards.q4"
    m["serve.shards.q4_spanned_share"] = _ratio(st.n_sum[q4], st.calls[q4])
    m["serve.replication.apply_write_self_us"] = us("serve.replication.apply_write")
    m["serve.replication.read_any_self_us"] = us("serve.replication.read_any")
    m["serve.replication.write_aborts"] = st.calls["serve.snapshots.rollback_epoch"]
    for op in ("query", "insert", "delete"):
        m[f"core.{op}_self_us"] = us(f"core.{op}")
    # block reads the structure itself issued while answering queries
    blocks = records = 0
    for parent in ("core.query", "core.static_index.query"):
        for layer in STORE_LAYERS.values():
            calls, n, _raised = st.edge(f"{layer}.read", parent)
            blocks += calls
            records += n
    m["core.blocks_per_query"] = _ratio(blocks, st.calls["core.query"])
    m["core.records_examined_per_result"] = _ratio(records, st.n_sum["core.query"])
    m["core.static_index.query_self_us"] = us("core.static_index.query")
    m["core.static_index.calls_per_op"] = _ratio(st.calls["core.static_index.query"], ops)
    m["serve.snapshots.write_self_us"] = us("serve.snapshots.write")
    preimages = sum(st.edge("io.checksum.read", f"serve.snapshots.{op}")[0] for op in ("write", "free"))
    m["serve.snapshots.preimages_per_op"] = _ratio(preimages, ops)
    m["io.checksum.read_self_us"] = us("io.checksum.read")
    m["io.checksum.write_self_us"] = us("io.checksum.write")
    m["io.checksum.verify_us"] = us("io.checksum.verify", False)
    m["io.checksum.reads_per_op"] = _ratio(st.calls["io.checksum.read"], ops)
    m["resilience.retry.read_self_us"] = us("resilience.retry.read")
    m["resilience.retry.write_self_us"] = us("resilience.retry.write")
    m["resilience.retry.retries"] = sum(
        st.edge(f"resilience.faulty_store.{op}", "resilience.retry.")[2]
        for op in ("read", "write", "alloc", "free"))
    m["resilience.faulty_store.injected"] = sum(
        v for k, v in st.raised.items() if k.startswith("resilience.faulty_store."))
    m["io.bufferpool.read_self_us"] = us("io.bufferpool.read")
    m["io.bufferpool.write_self_us"] = us("io.bufferpool.write")
    d = {k: pool1[k] - pool0[k] for k in pool0}
    m["io.bufferpool.hit_rate"] = _ratio(d["hits"], d["hits"] + d["misses"])
    m["io.bufferpool.prefetch_useful_ratio"] = _ratio(d["prefetch_hits"], d["prefetch_issued"])
    m["io.bufferpool.evictions_per_op"] = _ratio(d["evictions"], ops)
    m["io.blockstore.read_us"] = us("io.blockstore.read", False)
    m["io.blockstore.write_us"] = us("io.blockstore.write", False)
    m["io.blockstore.reads_per_op"] = _ratio(st.calls["io.blockstore.read"], ops)
    m["io.blockstore.writes_per_op"] = _ratio(st.calls["io.blockstore.write"], ops)
    total_self = sum(st.self_ns.values())
    for layer in LAYERS:
        m[f"{layer}.self_share"] = _ratio(st.layer_self_ns(layer), total_self)
    return m


def print_layer_table(wl: Workload, st: SpanStats) -> None:
    total_self = sum(st.self_ns.values())
    print(f"\nper-layer self time, workload {wl.name} (traced phase; tracer_ms is "
          f"the tracer's own cost taken off self_ms)")
    print(f"{'layer':<24}{'calls':>10}{'self_ms':>12}{'share':>9}{'self_us/call':>14}"
          f"{'tracer_ms':>12}")
    for layer in LAYERS:
        calls = st.layer_calls(layer)
        self_ns = st.layer_self_ns(layer)
        print(f"{layer:<24}{calls:>10}{self_ns / 1e6:>12.1f}"
              f"{_ratio(self_ns, total_self):>9.1%}{_ratio(self_ns / 1e3, calls):>14.2f}"
              f"{st.layer_tracer_ns(layer) / 1e6:>12.1f}")


def metric_units(section: str) -> Dict[str, str]:
    """Metric name -> unit, from ``BENCHMARK.json``'s ``section``."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def with_units(values: Dict[str, float], units: Dict[str, str]) -> Dict[str, dict]:
    """The result's ``metrics`` object; ``values`` must hold exactly the
    metrics ``BENCHMARK.json`` names."""
    if set(values) != set(units):
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing {sorted(set(units) - set(values))}, "
            f"unknown {sorted(set(values) - set(units))}")
    return {k: {"value": values[k], "unit": units[k]} for k in units}


# ----------------------------------------------------------------------
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "repro" / "serve").is_dir():
        print(f"perfbench: the engine's source is not at {src}", file=sys.stderr)
        return 2
    units = metric_units("per_layer" if args.trace else "end_to_end")
    sys.path.insert(0, str(src))
    from repro.serve import (
        EngineOverloaded, ReplicaSetExhausted, ServingEngine, ShardTaskError,
    )
    errors = (EngineOverloaded, ShardTaskError, ReplicaSetExhausted)
    wl = WORKLOADS[args.workload]
    print(f"perfbench workload={wl.name} seed={args.seed} seconds={args.seconds} "
          f"trace={args.trace} cores={os.cpu_count()} python={platform.python_version()}")
    print(f"  {wl.describe()}")

    t_start = perf_counter()
    base = base_points(wl, args.seed)
    streams = client_streams(wl, args.seed, base)
    warm = interleave([s.batches(max(1, WARMUP_OPS // wl.batch_size)) for s in streams])
    timed = [s.batches(wl.segment_batches) for s in streams]

    setup_times: List[float] = []
    segments: List[Segment] = []
    problems: List[str] = []
    checked = attempted = failed = 0
    timed_s = 0.0
    while not segments or (not args.trace and timed_s < args.seconds):
        seg = run_segment(ServingEngine, wl, args.seed, base, warm,
                          timed, errors, setup_times, args.trace)
        n, found = oracle_problems(base, seg)
        checked += n
        problems += [f"segment {len(segments) + 1}: {p}" for p in found]
        attempted += sum(len(r.ops) for r in seg.records)
        failed += sum(len(r.ops) for r in seg.records if r.results is None)
        timed_s += seg.phase.wall_s
        # checked: later builds' garbage collections should not walk them
        seg.records = seg.phase.records = []
        segments.append(seg)
    print(f"  oracle: {checked} answers checked over {len(segments)} segments, "
          f"{len(problems)} problems")

    if args.trace:
        metrics = trace_report(wl, args, segments[0], problems, ServingEngine,
                               base, interleave(timed), warm, errors, units)
    else:
        metrics = end_to_end_report(segments, setup_times, attempted, failed, units)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(f"  harness: {perf_counter() - t_start:.1f} s in all, peak RSS {peak_mb:.0f} MB")
    for p in problems:
        print(f"  FAILED: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if not problems else 1


def end_to_end_report(segments: List[Segment], setup_times: List[float],
                      attempted: int, failed: int, units: Dict[str, str]) -> dict:
    rows = []
    for seg in segments:
        lat = seg.phase.latencies_ms
        rows.append((seg.phase.throughput, statistics.median(lat),
                     statistics.quantiles(lat, n=10)[8]))
    print("  segment    ops/s   p50_ms   p90_ms")
    for i, (tput, p50, p90) in enumerate(rows, 1):
        print(f"  {i:>7}{tput:>9.1f}{p50:>9.2f}{p90:>9.2f}")
    metrics = with_units({
        "throughput_ops_s": statistics.median(r[0] for r in rows),
        "batch_p50_ms": statistics.median(r[1] for r in rows),
        "batch_p90_ms": statistics.median(r[2] for r in rows),
        "setup_s": statistics.median(setup_times),
        "io_per_op": statistics.median(seg.io_per_op for seg in segments),
        "space_blocks_per_kpoint": statistics.median(seg.space for seg in segments),
    }, units)
    print(f"\n{'metric':<26}{'value':>14}  unit")
    for k, v in metrics.items():
        print(f"{k:<26}{v['value']:>14.4f}  {v['unit']}")
    # reported, not gated: host stalls move it more than any bound
    lat = [x for seg in segments for x in seg.phase.latencies_ms]
    cuts = statistics.quantiles(lat, n=100)
    beyond = len(lat) / 100
    print(f"{'batch_p99_ms':<26}{cuts[98]:>14.4f}  ms  "
          f"({len(lat)} timed batches, {beyond:.0f} beyond p99)")
    print(f"{'error_rate':<26}{failed / attempted:>14.4f}  fraction")
    if beyond < 10:
        print(f"  warning: only {beyond:.1f} batches beyond p99")
    print("  batch latency ms, all segments: " + ", ".join(
        f"p{q} {cuts[q - 1]:.2f}" for q in (10, 25, 50, 75, 90, 95, 99))
        + f", max {max(lat):.2f}")
    print(f"  {sum(s.phase.attempted for s in segments)} timed ops in "
          f"{sum(s.phase.wall_s for s in segments):.2f} s; setup runs "
          f"{', '.join(f'{t:.3f}' for t in setup_times)} s")
    return metrics


def trace_report(wl, args, seg: Segment, problems, engine_cls, base,
                 timed: List[list], warm: List[list], errors, units) -> dict:
    tracer, pool0, pool1, io0, io1 = seg.traced
    child_cost = calibrate_child_cost()
    st = SpanStats(tracer, child_cost)
    ok_reads = st.calls["io.blockstore.read"] - st.raised["io.blockstore.read"]
    ok_writes = st.calls["io.blockstore.write"] - st.raised["io.blockstore.write"]
    if (ok_reads, ok_writes) != (io1[0] - io0[0], io1[1] - io0[1]):
        problems.append(
            f"traced io.blockstore reads/writes {ok_reads}/{ok_writes} != engine "
            f"stats {io1[0] - io0[0]}/{io1[1] - io0[1]}")
    diff, overhead = replay_untraced_and_traced(
        engine_cls, wl, args.seed, base, warm + timed, errors)
    if diff is not None:
        problems.append(f"tracing is not transparent: {diff}")

    phase = seg.phase
    values = per_layer_metrics(st, phase.attempted, len(phase.latencies_ms), pool0, pool1)
    values["trace.overhead_ratio"] = overhead
    values["trace.spans"] = st.spans
    metrics = with_units(values, units)
    print_layer_table(wl, st)
    print(f"\n{'per-layer metric':<44}{'value':>14}  unit")
    for k, v in metrics.items():
        print(f"{k:<44}{v['value']:>14.4f}  {v['unit']}")
    print(f"  tracer cost per traced child call: {child_cost} ns, taken off each "
          f"parent's self time")
    print(f"  tracing overhead {overhead:.2f}x on a one-thread replay of the segment; traced "
          f"{phase.throughput:.1f} ops/s; block I/O traced {ok_reads}+{ok_writes} = engine stats "
          f"{io1[0] - io0[0]}+{io1[1] - io0[1]}")
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{wl.name}-seed{args.seed}.tsv"
    print(f"  {tracer.write_tsv(path)} spans written to {path.relative_to(ROOT)}")
    return metrics


if __name__ == "__main__":
    sys.exit(main())

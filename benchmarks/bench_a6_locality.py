"""A6 -- ablation: access locality beyond the unit-cost I/O model.

The paper's model charges every block transfer one unit; real devices
reward sequential runs.  Using an access-trace observer, this ablation replays
the same query batch on the optimal structures and the scan-style
baselines and reports, alongside the I/O count, the *sequential
fraction* of reads and mean run length -- quantifying what the unit-cost
model abstracts away (the B-tree's scans are long sequential runs; the
PST's descents are scattered).
"""

from repro.baselines import BTreeXFilter, RTree
from repro.core.external_pst import ExternalPrioritySearchTree
from repro.io import BlockStore
from repro.io.trace import AccessTrace
from repro.workloads import three_sided_queries, uniform_points

from conftest import record_result

B = 32
N = 6000


def _run():
    pts = uniform_points(N, seed=171)
    qs = three_sided_queries(pts, 25, seed=172, target_frac=0.02)
    rows = []
    builders = [
        ("PST (Thm 6)", lambda st: ExternalPrioritySearchTree(st, pts),
         lambda idx, q: idx.query(q.a, q.b, q.c)),
        ("B-tree+filter", lambda st: BTreeXFilter(st, pts),
         lambda idx, q: idx.query_3sided(q.a, q.b, q.c)),
        ("R-tree", lambda st: RTree(st, pts),
         lambda idx, q: idx.query_3sided(q.a, q.b, q.c)),
    ]
    slugs = {"PST (Thm 6)": "pst", "B-tree+filter": "btree_filter",
             "R-tree": "rtree"}
    answers = None
    gate = {}
    for name, build, ask in builders:
        store = BlockStore(B)
        rec = AccessTrace()
        store.add_observer(rec)
        idx = build(store)
        rec.clear()
        got_all = []
        for q in qs:
            got_all.append(sorted(set(ask(idx, q))))
        if answers is None:
            answers = got_all
        else:
            assert got_all == answers, f"{name} disagrees"
        s = rec.summary()
        runs = rec.read_run_lengths()
        rows.append([
            name, s.reads, f"{s.sequential_fraction:.0%}",
            f"{sum(runs) / len(runs):.1f}" if runs else "-",
            f"{s.reread_fraction:.0%}",
        ])
        gate[f"reads_{slugs[name]}"] = s.reads
    return rows, gate


def test_a6_access_locality(benchmark):
    rows, gate = benchmark.pedantic(_run, rounds=1, iterations=1)
    record_result(
        "A6",
        title=f"[A6] Access locality over the query batch "
              f"(N = {N}, B = {B}; identical answers)",
        headers=["structure", "reads", "sequential", "mean run len",
                 "re-reads"],
        rows=rows,
        gate=gate,
    )
    by_name = {r[0]: r for r in rows}
    # the scan baseline must show markedly more sequential behaviour
    pst_seq = float(by_name["PST (Thm 6)"][2][:-1])
    bt_seq = float(by_name["B-tree+filter"][2][:-1])
    assert bt_seq > pst_seq

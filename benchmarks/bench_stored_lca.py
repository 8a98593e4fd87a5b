"""Stored-LCA engine benchmark: cold vs warm cache, single vs batch.

The tentpole claim of the stored-query engine: caching the immutable
block/inode/node rows collapses the ``O(f · log_f d)`` point queries of
every stored LCA into amortized O(1) warm-path dictionary hits, and the
batch API resolves whole workloads with a handful of ``IN (...)``
queries.  This bench measures both, counting actual SQL statements via
the database's counting cursor (``CrimsonDatabase.count_statements``),
and emits the figures as JSON (committed as ``BENCH_stored_lca.json``)::

    PYTHONPATH=src python benchmarks/bench_stored_lca.py [out.json] [--smoke]

``--smoke`` shrinks the tree and workload to a seconds-long CI guard
(the acceptance shape — zero warm statements, batch < single — holds at
any size).  Run as a pytest bench (``pytest benchmarks/bench_stored_lca.py``) it
additionally asserts the acceptance properties: a warm repeat executes
zero statements, and the batch path issues measurably fewer statements
than the same pairs queried one by one.
"""

from __future__ import annotations

import json
import sys
import time

from repro.obs import SlowQueryLog, TimeSeriesSampler
from repro.storage.api import QueryRequest
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar

from _latency import latency_summary

DEPTH = 800
N_PAIRS = 100
F = 8

SMOKE = {"depth": 150, "n_pairs": 25}


def _pairs(n_leaves: int, n_pairs: int) -> list[tuple[str, str]]:
    return [
        (f"t{i + 1}", f"t{n_leaves - i}") for i in range(n_pairs)
    ]


def run_experiment(
    depth: int = DEPTH,
    n_pairs: int = N_PAIRS,
    f: int = F,
    cache_size: int = 4096,
) -> dict:
    """Measure statements and wall time for the four access patterns."""
    store = CrimsonStore.open(cache_size=cache_size)
    db = store.db
    repo = store.trees
    repo.store_tree(caterpillar(depth), name="deep", f=f)
    pairs = _pairs(depth, n_pairs)

    def measured(handle, fn):
        with db.count_statements() as counter:
            start = time.perf_counter()
            fn(handle)
            elapsed_ms = (time.perf_counter() - start) * 1e3
        return counter.count, elapsed_ms

    def singles(latencies_s):
        def run(handle):
            for a, b in pairs:
                start = time.perf_counter()
                handle.lca(a, b)
                latencies_s.append(time.perf_counter() - start)

        return run

    # Cold singles: fresh handle, empty caches.
    cold_handle = repo.open("deep")
    cold_latencies: list[float] = []
    cold_statements, cold_ms = measured(cold_handle, singles(cold_latencies))

    # Warm singles: the same handle repeats the same workload.
    warm_latencies: list[float] = []
    warm_statements, warm_ms = measured(cold_handle, singles(warm_latencies))

    # Cold batch: fresh handle, one lca_batch call.
    batch_handle = repo.open("deep")
    batch_statements, batch_ms = measured(
        batch_handle, lambda handle: handle.lca_batch(pairs)
    )

    # Warm batch: repeat on the warmed handle.
    warm_batch_statements, warm_batch_ms = measured(
        batch_handle, lambda handle: handle.lca_batch(pairs)
    )

    # Warm index reads per pair — inode, inode_at and block row-cache
    # lookups — for the far pair (t1, deepest leaf) and averaged over
    # the workload: the layered walk makes O(layers) of them, not one
    # per block hopped.
    def index_lookups(handle) -> int:
        stats = handle.cache_stats()
        return sum(
            stats[name].lookups for name in ("inodes", "inode_at", "blocks")
        )

    before = index_lookups(batch_handle)
    batch_handle.lca(*pairs[0])
    far_pair_lookups = index_lookups(batch_handle) - before
    before = index_lookups(batch_handle)
    singles([])(batch_handle)
    mean_lookups = (index_lookups(batch_handle) - before) / n_pairs

    # Warm traced: the same warm workload through the store's query
    # facade, first with tracing quiet, then with every tracing and
    # history feature on at once — a threshold-0 slow log retaining a
    # span per query and the 1 Hz history sampler running.  The two
    # passes interleave (base, traced, base, traced, ...) so machine
    # drift lands on both sides; the tentpole claim is that the traced
    # p50 stays within a few percent of the untraced one, at zero SQL.
    def timed_queries(latencies_s):
        for a, b in pairs:
            request = QueryRequest.lca("deep", a, b)
            start = time.perf_counter()
            store.query(request)
            latencies_s.append(time.perf_counter() - start)

    quiet_log, traced_log = store.slow_log, SlowQueryLog(threshold_ms=0.0)
    sampler = TimeSeriesSampler(store.timeseries)
    sampler.start()
    base_latencies: list[float] = []
    traced_latencies: list[float] = []
    timed_queries([])  # warm the facade path
    traced_statements = 0
    for _ in range(3):
        store.slow_log = quiet_log
        timed_queries(base_latencies)
        store.slow_log = traced_log
        with db.count_statements() as counter:
            timed_queries(traced_latencies)
        traced_statements += counter.count
    sampler.stop()
    store.slow_log = quiet_log
    warm_query = latency_summary(base_latencies)
    warm_traced = latency_summary(traced_latencies)
    tracing_overhead_pct = round(
        100.0 * (warm_traced["p50_ms"] - warm_query["p50_ms"])
        / warm_query["p50_ms"],
        2,
    ) if warm_query["p50_ms"] else 0.0

    stats = {
        name: value.as_dict()
        for name, value in cold_handle.cache_stats().items()
    }
    n_layers = cold_handle.info.n_layers
    store.close()
    return {
        "experiment": "stored-lca-engine",
        "tree": {
            "shape": "caterpillar", "depth": depth, "f": f,
            "n_layers": n_layers,
        },
        "workload": {"n_pairs": n_pairs, "cache_size": cache_size},
        "sql_statements": {
            "cold_single": cold_statements,
            "warm_single": warm_statements,
            "cold_batch": batch_statements,
            "warm_batch": warm_batch_statements,
            "warm_traced": traced_statements,
        },
        "per_query_statements": {
            "cold_single": round(cold_statements / n_pairs, 3),
            "cold_batch": round(batch_statements / n_pairs, 3),
        },
        "warm_index_lookups_per_pair": {
            "far_pair": far_pair_lookups,
            "mean": round(mean_lookups, 2),
        },
        "wall_ms": {
            "cold_single": round(cold_ms, 3),
            "warm_single": round(warm_ms, 3),
            "cold_batch": round(batch_ms, 3),
            "warm_batch": round(warm_batch_ms, 3),
        },
        "latency_ms": {
            "cold_single": latency_summary(cold_latencies),
            "warm_single": latency_summary(warm_latencies),
            "warm_query": warm_query,
            "warm_traced": warm_traced,
        },
        "tracing_overhead_pct": tracing_overhead_pct,
        "cache_stats_single_handle": stats,
    }


def test_stored_lca_engine(benchmark, report):
    results = run_experiment()
    statements = results["sql_statements"]

    handle_store = CrimsonStore.open()
    handle = handle_store.trees.store_tree(caterpillar(DEPTH), name="deep", f=F)
    pairs = _pairs(DEPTH, N_PAIRS)
    handle.lca_batch(pairs)  # warm

    def warm_batch():
        handle.lca_batch(pairs)

    benchmark(warm_batch)
    handle_store.close()

    report("")
    report("E4+ — stored LCA through the query engine "
           f"(caterpillar depth {DEPTH}, {N_PAIRS} pairs, f={F})")
    report(f"  {'path':<14} {'SQL statements':>16} {'wall ms':>10}")
    for key in ("cold_single", "warm_single", "cold_batch", "warm_batch"):
        report(
            f"  {key:<14} {statements[key]:>16} "
            f"{results['wall_ms'][key]:>10.2f}"
        )
    report(
        "  shape: warm repeats run entirely from the row cache (0 "
        "statements); the batch path amortizes argument resolution "
        "into IN (...) queries"
    )
    latency = results["latency_ms"]
    report(
        f"  tracing: warm query p50 {latency['warm_query']['p50_ms']} ms "
        f"untraced vs {latency['warm_traced']['p50_ms']} ms with "
        f"threshold-0 slow log + history sampler "
        f"({results['tracing_overhead_pct']:+.1f}%)"
    )

    # Acceptance: warm repeats never touch SQL; batching measurably
    # beats per-pair singles on the cold path.
    assert statements["warm_single"] == 0
    assert statements["warm_batch"] == 0
    assert statements["cold_batch"] < statements["cold_single"]
    # The far pair's warm walk reads the index O(layers) times.
    lookups = results["warm_index_lookups_per_pair"]
    assert lookups["far_pair"] <= 12 * results["tree"]["n_layers"]
    # Tracing + history sampling ride the warm path for free: still
    # zero SQL, and the p50 stays within 5% of the untraced facade.
    assert statements["warm_traced"] == 0
    assert (
        latency["warm_traced"]["p50_ms"]
        <= latency["warm_query"]["p50_ms"] * 1.05
    )


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    positional = [arg for arg in argv[1:] if not arg.startswith("--")]
    out_path = positional[0] if positional else "BENCH_stored_lca.json"
    results = run_experiment(**SMOKE) if smoke else run_experiment()
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    statements = results["sql_statements"]
    print(f"wrote {out_path}")
    print(
        f"cold single: {statements['cold_single']} statements, "
        f"cold batch: {statements['cold_batch']}, "
        f"warm (either): {statements['warm_single']}"
    )
    lookups = results["warm_index_lookups_per_pair"]
    print(
        f"warm index lookups: far pair {lookups['far_pair']} over "
        f"{results['tree']['n_layers']} layers, mean {lookups['mean']}"
    )
    print(
        f"warm traced: {statements['warm_traced']} statements, "
        f"{results['tracing_overhead_pct']:+.1f}% p50 vs untraced"
    )
    # The acceptance shape guards CI's smoke run too.
    ok = (
        statements["warm_single"] == 0
        and statements["warm_batch"] == 0
        and statements["warm_traced"] == 0
        and statements["cold_batch"] < statements["cold_single"]
        and lookups["far_pair"] <= 12 * results["tree"]["n_layers"]
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

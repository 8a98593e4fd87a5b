"""Remote-session benchmark: multi-process clients vs in-process.

The RPC claim: ``crimson serve`` extends the store's one query
interface across process boundaries — N client *processes* speaking
the JSON-lines protocol through :class:`RemoteSession` drive warm
LCA/clade/project traffic against one server with **zero lock errors**
and answers **byte-identical** (same wire encoding) to a
:class:`LocalSession` over the same store.  Each connection gets its
own server thread and pooled read-only reader, so remote clients
contend exactly as local threads do: not at all.

This bench loads a caterpillar gold standard, starts a server on an
ephemeral port, measures a single in-process session's warm
throughput, then fans the same workload out to concurrent client
processes (spawned, so nothing is inherited but the address) and
compares answers.  Figures are emitted as JSON (committed as
``BENCH_remote_sessions.json``)::

    PYTHONPATH=src python benchmarks/bench_remote_sessions.py [out.json] [--smoke]

A second, single-client case times the row-heavy answer on its own:
the whole-tree clade of caterpillar(600) (1,199 rows), local p50 vs
remote p50 and their ratio, plus the exact byte size of its encoded
``nodes`` object.  That size is deterministic, so it is gated exactly
(:data:`WHOLE_CLADE_NODES_BYTES`); the ratio is recorded, not gated.

``--smoke`` shrinks the workload to a seconds-long CI guard (the
whole-tree clade keeps its 600-leaf tree, with fewer rounds).  Run as
a pytest bench it asserts the acceptance properties: >= 4 client
processes, zero errors of any kind, signatures identical to the local
session's, and the whole-tree clade's byte count.
"""

from __future__ import annotations

import json
import multiprocessing
import sys
import tempfile
import time
from pathlib import Path

from repro.server import CrimsonServer, RemoteSession
from repro.storage import wire
from repro.storage.api import QueryRequest
from repro.storage.store import CrimsonStore
from repro.trees.build import caterpillar

from _latency import latency_summary, merge_latencies

DEPTH = 600
POOL_SIZE = 4
CLIENTS = 4
ROUNDS = 30
BATCH_PAIRS = 25
F = 8

SMOKE = {"depth": 150, "rounds": 8}

TREE = "gold"

WHOLE_CLADE_DEPTH = 600
"""Leaves of the caterpillar whose whole-tree clade (2n−1 rows) is timed."""

WHOLE_CLADE_NODES_BYTES = 47_766
"""Exact bytes of that clade's encoded ``nodes`` object (protocol 2,
one list per row field; protocol 1's row objects took 179,530)."""


def workload_requests(depth: int) -> list[QueryRequest]:
    """The per-round request mix: batched LCA, single LCA, clade, project."""
    pairs = [
        (f"t{i + 1}", f"t{depth - i}") for i in range(BATCH_PAIRS)
    ]
    sample = [f"t{i}" for i in range(1, depth, max(1, depth // 8))]
    return [
        QueryRequest.lca_batch(TREE, pairs),
        QueryRequest.lca(TREE, "t1", f"t{depth}"),
        QueryRequest.lca(TREE, "t3", f"t{depth // 2}"),
        QueryRequest.clade(TREE, "t1", "t2", "t3", "t4"),
        QueryRequest.project(TREE, *sample),
    ]


def run_workload(
    session,
    requests: list[QueryRequest],
    latencies: dict[str, list[float]] | None = None,
) -> str:
    """Execute one round; return a byte-stable signature of the answers.

    With ``latencies``, per-request wall times (seconds) are appended
    under each request's operation name — the per-verb p50/p95/p99
    source for the emitted JSON.
    """
    signatures = []
    for request in requests:
        start = time.perf_counter()
        result = session.query(request)
        if latencies is not None:
            latencies.setdefault(request.operation, []).append(
                time.perf_counter() - start
            )
        encoded = wire.encode_result(result)
        encoded["duration_ms"] = 0.0
        signatures.append(json.dumps(encoded, sort_keys=True))
    return "\n".join(signatures)


def _client_process(address, depth, rounds, index, barrier, queue) -> None:
    """One client process: connect, warm, sync on the barrier, hammer."""
    outcome = {
        "client": index,
        "queries": 0,
        "elapsed_s": 0.0,
        "signature": None,
        "latencies_s": {},
        "errors": [],
    }
    host, port = address
    try:
        with RemoteSession(host, port) as session:
            requests = workload_requests(depth)
            signature = run_workload(session, requests)  # warm the caches
            outcome["signature"] = signature
            barrier.wait(timeout=120)
            start = time.perf_counter()
            for _ in range(rounds):
                timed = run_workload(
                    session, requests, outcome["latencies_s"]
                )
                if timed != signature:
                    outcome["errors"].append("answer drift between rounds")
                outcome["queries"] += len(requests)
            outcome["elapsed_s"] = time.perf_counter() - start
    except Exception as error:  # noqa: BLE001 - recorded for the report
        outcome["errors"].append(repr(error))
        try:
            barrier.abort()
        except Exception:  # noqa: BLE001 - barrier may be gone already
            pass
    queue.put(outcome)


def run_whole_clade(rounds: int) -> dict:
    """Single-client timing of the whole-tree clade, local vs remote."""
    request = QueryRequest.clade(TREE, "t1", f"t{WHOLE_CLADE_DEPTH}")

    def timed(session) -> tuple[tuple, list[float]]:
        rows = session.query(request).nodes  # warm the caches
        latencies = []
        for _ in range(rounds):
            start = time.perf_counter()
            session.query(request)
            latencies.append(time.perf_counter() - start)
        return rows, latencies

    with tempfile.TemporaryDirectory() as tmpdir:
        path = str(Path(tmpdir) / "clade.db")
        with CrimsonStore.open(path, readers=1) as store:
            store.load_tree(caterpillar(WHOLE_CLADE_DEPTH), name=TREE, f=F)
            rows, local_s = timed(store.session())
            with CrimsonServer(store, port=0) as server:
                with RemoteSession(*server.address) as remote:
                    remote_rows, remote_s = timed(remote)
    nodes_bytes = len(
        json.dumps(
            wire.encode_node_rows(rows),
            ensure_ascii=False,
            separators=(",", ":"),
        ).encode("utf-8")
    )
    local = latency_summary(local_s)
    remote = latency_summary(remote_s)
    return {
        "tree": {"shape": "caterpillar", "depth": WHOLE_CLADE_DEPTH, "f": F},
        "rows": len(rows),
        "nodes_bytes": nodes_bytes,
        "answers_match": remote_rows == rows,
        "rounds": rounds,
        "local_latency_ms": local,
        "remote_latency_ms": remote,
        "remote_over_local_p50": round(
            remote["p50_ms"] / local["p50_ms"], 2
        ),
    }


def run_experiment(depth: int = DEPTH, rounds: int = ROUNDS) -> dict:
    whole_clade = run_whole_clade(rounds)
    with tempfile.TemporaryDirectory() as tmpdir:
        path = str(Path(tmpdir) / "bench.db")
        with CrimsonStore.open(path, readers=POOL_SIZE) as store:
            store.load_tree(caterpillar(depth), name=TREE, f=F)
            requests = workload_requests(depth)

            # In-process baseline: one LocalSession, same warm workload.
            local = store.session()
            local_signature = run_workload(local, requests)  # warm
            local_latencies: dict[str, list[float]] = {}
            start = time.perf_counter()
            local_queries = 0
            for _ in range(rounds):
                timed = run_workload(local, requests, local_latencies)
                assert timed == local_signature
                local_queries += len(requests)
            local_elapsed = time.perf_counter() - start

            with CrimsonServer(store, port=0) as server:
                address = server.address
                ctx = multiprocessing.get_context("spawn")
                barrier = ctx.Barrier(CLIENTS + 1)
                queue = ctx.Queue()
                workers = [
                    ctx.Process(
                        target=_client_process,
                        args=(address, depth, rounds, index, barrier, queue),
                    )
                    for index in range(CLIENTS)
                ]
                for worker in workers:
                    worker.start()
                try:
                    barrier.wait(timeout=120)
                    broken = False
                except Exception:  # noqa: BLE001 - a worker aborted it
                    broken = True
                wall_start = time.perf_counter()
                outcomes = [queue.get(timeout=300) for _ in workers]
                wall_s = time.perf_counter() - wall_start
                for worker in workers:
                    worker.join(timeout=30)

            outcomes.sort(key=lambda o: o["client"])
            errors = [e for o in outcomes for e in o["errors"]]
            if broken:
                errors.append("start barrier broken")
            total_queries = sum(o["queries"] for o in outcomes)
            answers_match = all(
                o["signature"] == local_signature for o in outcomes
            )
            return {
                "experiment": "remote-sessions",
                "tree": {"shape": "caterpillar", "depth": depth, "f": F},
                "workload": {
                    "rounds": rounds,
                    "requests_per_round": len(requests),
                    "batch_pairs": BATCH_PAIRS,
                    "pool_size": POOL_SIZE,
                },
                "in_process": {
                    "queries": local_queries,
                    "elapsed_s": round(local_elapsed, 3),
                    "qps": round(local_queries / local_elapsed, 1),
                    "latency_ms_by_verb": merge_latencies([local_latencies]),
                },
                "remote": {
                    "clients": CLIENTS,
                    "transport": "tcp (json lines)",
                    "total_queries": total_queries,
                    "wall_s": round(wall_s, 3),
                    "aggregate_qps": round(total_queries / wall_s, 1),
                    "per_client_qps": [
                        round(o["queries"] / o["elapsed_s"], 1)
                        if o["elapsed_s"]
                        else 0.0
                        for o in outcomes
                    ],
                    # Aggregated over every client's timed rounds; the
                    # remote-vs-local gap per verb is the wire overhead.
                    "latency_ms_by_verb": merge_latencies(
                        [o["latencies_s"] for o in outcomes]
                    ),
                    "errors": errors,
                    "locked_errors": sum("locked" in e for e in errors),
                },
                "answers_match": answers_match,
                "whole_tree_clade": whole_clade,
            }


def test_remote_sessions(benchmark, report):
    results = run_experiment(**SMOKE)
    remote = results["remote"]
    local = results["in_process"]

    def kernel():
        run_experiment(depth=100, rounds=3)

    benchmark.pedantic(kernel, rounds=1, iterations=1)

    report("")
    report(
        "E7 — remote sessions (caterpillar depth "
        f"{SMOKE['depth']}, {remote['clients']} client processes, "
        f"{SMOKE['rounds']} rounds)"
    )
    report(f"  {'mode':<22} {'queries':>8} {'qps':>10}")
    report(
        f"  {'in-process session':<22} {local['queries']:>8} "
        f"{local['qps']:>10.0f}"
    )
    report(
        f"  {'remote x' + str(remote['clients']):<22} "
        f"{remote['total_queries']:>8} {remote['aggregate_qps']:>10.0f}"
    )
    report(
        "  shape: every client process gets its own server thread and "
        "pooled reader; answers are byte-identical to the local session"
    )

    # Acceptance: >= 4 concurrent client processes completing warm
    # traffic with zero lock errors and byte-identical answers.
    assert remote["clients"] >= 4
    assert remote["errors"] == []
    assert remote["locked_errors"] == 0
    assert results["answers_match"]
    assert remote["total_queries"] == remote["clients"] * local["queries"]
    # The row-heavy case: deterministic bytes gated exactly; the
    # remote/local ratio is only reported.
    whole = results["whole_tree_clade"]
    assert whole["rows"] == 2 * WHOLE_CLADE_DEPTH - 1
    assert whole["answers_match"]
    assert whole["nodes_bytes"] == WHOLE_CLADE_NODES_BYTES
    report(
        f"  whole-tree clade ({whole['rows']} rows, "
        f"{whole['nodes_bytes']} nodes bytes): local p50 "
        f"{whole['local_latency_ms']['p50_ms']:.2f} ms, remote p50 "
        f"{whole['remote_latency_ms']['p50_ms']:.2f} ms "
        f"({whole['remote_over_local_p50']}x)"
    )
    # Per-verb latency quantiles cover the whole request mix, both
    # transports, with consistent ordering.
    verbs = {"lca", "lca_batch", "clade", "project"}
    for side in (remote, local):
        assert set(side["latency_ms_by_verb"]) == verbs
        for figures in side["latency_ms_by_verb"].values():
            assert figures["count"] > 0
            assert figures["p50_ms"] <= figures["p95_ms"] <= figures["p99_ms"]


def main(argv: list[str]) -> int:
    smoke = "--smoke" in argv
    positional = [arg for arg in argv[1:] if not arg.startswith("--")]
    out_path = positional[0] if positional else "BENCH_remote_sessions.json"
    results = run_experiment(**SMOKE) if smoke else run_experiment()
    with open(out_path, "w") as handle:
        json.dump(results, handle, indent=2, sort_keys=True)
        handle.write("\n")
    local, remote = results["in_process"], results["remote"]
    print(f"wrote {out_path}")
    print(
        f"in-process: {local['queries']} queries at {local['qps']} qps; "
        f"remote ({remote['clients']} processes): "
        f"{remote['total_queries']} queries at "
        f"{remote['aggregate_qps']} aggregate qps"
    )
    print(
        f"locked errors: {remote['locked_errors']}, "
        f"errors: {len(remote['errors'])}, "
        f"answers match: {results['answers_match']}"
    )
    whole = results["whole_tree_clade"]
    print(
        f"whole-tree clade: {whole['rows']} rows, {whole['nodes_bytes']} "
        f"nodes bytes (expected {WHOLE_CLADE_NODES_BYTES}); p50 local "
        f"{whole['local_latency_ms']['p50_ms']} ms, remote "
        f"{whole['remote_latency_ms']['p50_ms']} ms "
        f"({whole['remote_over_local_p50']}x)"
    )
    ok = (
        remote["clients"] >= 4
        and not remote["errors"]
        and remote["locked_errors"] == 0
        and results["answers_match"]
        and whole["answers_match"]
        and whole["nodes_bytes"] == WHOLE_CLADE_NODES_BYTES
    )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))

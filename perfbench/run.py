"""Crimson's benchmark: four closed-loop workloads, one command.

    python3 perfbench/run.py --workload trials --seed 1 --seconds 10 --trace 0

Run from the repository root.  The program is imported from ``src/``;
the benchmark generates every input from ``--seed`` before timing, sets
the store up several times (``setup_s`` is the median), runs the
workload's closed loop until every client has spent ``--seconds`` in
ops at the reference machine speed (see ``calibration.py``; at most
1.25 x ``--seconds`` of raw op time), checks every answer against an
in-memory oracle outside the timed region, and prints

* one ``{"meta": ...}`` line: seed, machine, versions, the store's
  flush policy, sizes, connections, why the workload exists, the
  calibration probes and the unscaled end-to-end figures, then
* as the last line, ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``.
Their timings are scaled to a reference machine speed measured by a
probe between rounds (see ``calibration.py``); ``success_frac`` counts
failed and wrong ops against all attempted.
``--trace 1`` installs span wrappers (``tracing.py``) and reports the
per-layer metrics: the first ``ledger_rounds`` rounds are all traced
and give the count ledger, which repeats exactly for one seed on the
single-client workloads; after them, every other op of each kind is
traced and the rest give the untraced comparison behind
``trace.overhead_ratio``.  Every per-layer value is per traced op of the
workload's mix (counts: per op of the ledger window); a layer the
workload does not cross reports 0.  Spans are written to
``perfbench/.work/traces/`` at exit.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import shutil
import sqlite3
import statistics
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
if not os.path.isdir(os.path.join(SRC, "repro")):
    sys.exit(f"perfbench: no Crimson source under {SRC}")
sys.path[:0] = [SRC, ROOT]

from perfbench import tracing  # noqa: E402
from perfbench.calibration import (  # noqa: E402
    REFERENCE_PROBE_S,
    Calibrator,
    Pacer,
)
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Context,
    Workload,
    store_bytes_per_input_byte,
)
from repro.server.client import RemoteSession  # noqa: E402

WORK = os.path.join(HERE, ".work")
#: Answers are checked in batches of this many ops, off the clock.
CHECK_BATCH = 32
#: Interpreter switch interval while several client threads run.
CLIENT_SWITCH_INTERVAL_S = 0.0005


@dataclass
class Record:
    """One timed op."""

    kind: str
    ms: float
    traced: bool
    #: Ran inside the ledger rounds (always traced in a traced run).
    in_ledger: bool
    ok: bool = False
    #: ``ms`` at the reference machine speed (see ``calibration``).
    scaled_ms: float = 0.0


class Ledger:
    """Counts over the first rounds of a traced run."""

    def __init__(self, tracer: tracing.Tracer) -> None:
        self.tracer = tracer
        self.ops = 0
        self.counts: Counter = Counter()
        self.engines: Counter = Counter()
        self._open = True
        self._lock = threading.Lock()
        self._engines_before = tracer.engine_totals()

    def count_op(self) -> None:
        with self._lock:
            self.ops += self._open

    def close(self) -> None:
        with self._lock:
            if not self._open:
                return
            self._open = False
            self.counts = Counter(self.tracer.counts)
            self.engines = self.tracer.engine_totals()
            self.engines.subtract(self._engines_before)
            self.tracer.stop_registering()


@dataclass
class ThreadRun:
    records: list[Record]
    busy_s: float
    #: The probe (s) taken at each barrier, the first before any round.
    probes_s: list[float]


def drive(workload: Workload, context: Context, inputs, seed: int,
          thread: int, tracer: tracing.Tracer | None, ledger: Ledger | None,
          pacer: Pacer, op_ids) -> ThreadRun:
    """One client's closed loop of whole rounds, each ended at the
    pacer's barrier, until the pacer says every client is done.  A
    round's solo ops run after a first barrier, while the other clients
    wait."""
    records: list[Record] = []
    pending: list[tuple[Any, Any, Exception | None, Record]] = []
    alternation: Counter = Counter()
    busy = 0.0
    # Op time at the reference speed, by the latest probe: the run
    # length, so a slow stretch of the host does not shorten the work.
    reference_busy = 0.0
    probes = [pacer.probe_s]

    def timed(op, in_ledger: bool) -> None:
        nonlocal busy
        traced = tracer is not None and in_ledger
        if tracer is not None and not in_ledger:
            alternation[op.kind] += 1
            traced = alternation[op.kind] % 2 == 1
        error = None
        result = None
        started = time.perf_counter()
        try:
            if traced:
                with tracer.op(next(op_ids), op.kind):
                    result = op.run()
            else:
                result = op.run()
        except Exception as exc:  # counted as a failed op
            error = exc
        elapsed = time.perf_counter() - started
        busy += elapsed
        record = Record(op.kind, elapsed * 1000.0, traced, in_ledger)
        records.append(record)
        pending.append((op, result, error, record))
        if ledger is not None and in_ledger:
            ledger.count_op()

    rounds = workload.rounds(context, inputs, seed, thread)
    for number, ops in enumerate(rounds):
        in_ledger = number < workload.ledger_rounds
        if ledger is not None and thread == 0 and not in_ledger:
            ledger.close()
        round_started = busy
        first = len(records)
        for op in ops:
            if not op.solo:
                timed(op, in_ledger)
        pacer.pause()
        for op in ops:
            if op.solo:
                timed(op, in_ledger)
        reference_busy += (
            (busy - round_started) * REFERENCE_PROBE_S / probes[-1]
        )
        probes.append(
            pacer.end_round(thread, reference_busy, busy, number + 1)
        )
        # The host's speed during the round: the probes right before and
        # after it (a slow stretch can be shorter than a second).
        scale = REFERENCE_PROBE_S / ((probes[-2] + probes[-1]) / 2)
        for record in records[first:]:
            record.scaled_ms = record.ms * scale
        if len(pending) >= CHECK_BATCH:
            check(pending)
        if pacer.stop:
            break
    check(pending)
    return ThreadRun(records, busy, probes)


def check(pending: list) -> None:
    """Run the oracles over finished ops (off the clock)."""
    for op, result, error, record in pending:
        if error is None:
            try:
                record.ok = bool(op.check(result))
            except Exception as exc:  # a check that cannot run is a fail
                error = exc
        if not record.ok:
            print(f"failed {op.kind}: {error!r}", file=sys.stderr)
    pending.clear()


def run_threads(workload, context, inputs, seed, seconds, tracer, ledger,
                calibrator: Calibrator) -> list[ThreadRun]:
    pacer = Pacer(calibrator, workload.threads, seconds, workload.min_rounds)
    op_ids = itertools.count()
    results: list[Any] = [None] * workload.threads

    def client(thread: int) -> None:
        try:
            results[thread] = drive(workload, context, inputs, seed, thread,
                                    tracer, ledger, pacer, op_ids)
        except BaseException as exc:
            results[thread] = exc
            pacer.abort()

    if workload.threads == 1:
        client(0)
    else:
        # Client threads share one interpreter lock; a short switch
        # interval keeps one client's decode from holding back the
        # other's next request for the default 5 ms.
        interval = sys.getswitchinterval()
        sys.setswitchinterval(CLIENT_SWITCH_INTERVAL_S)
        threads = [threading.Thread(target=client, args=(i,))
                   for i in range(workload.threads)]
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        finally:
            sys.setswitchinterval(interval)
    failures = [r for r in results if isinstance(r, BaseException)]
    # A client released by another's abort fails with BrokenBarrierError;
    # the other client's error is the cause.
    failures.sort(key=lambda e: isinstance(e, threading.BrokenBarrierError))
    if failures:
        raise failures[0]
    return results


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------


def p50(values: list[float]) -> float:
    return statistics.median(values)


def p95(values: list[float]) -> float:
    """Harrell-Davis estimate of the 95th percentile: a Beta-weighted
    mean of the order statistics, steadier than one order statistic when
    a kind has a few hundred samples or fewer."""
    ordered = np.sort(values)
    n = len(ordered)
    a, b = (n + 1) * 0.95, (n + 1) * 0.05
    grid = np.linspace(0.0, 1.0, 20001)[1:-1]
    density = np.exp((a - 1) * np.log(grid) + (b - 1) * np.log1p(-grid))
    cdf = np.concatenate(([0.0], np.cumsum(density)))
    cdf /= cdf[-1]
    edges = np.interp(np.arange(n + 1) / n, np.linspace(0, 1, len(cdf)), cdf)
    return float(np.dot(np.diff(edges), ordered))


def end_to_end(runs: list[ThreadRun], setup_s, peak_rss_mb: float,
               store_ratio: float, scaled: bool) -> dict[str, float]:
    """The end-to-end metrics, from scaled (or, for the metadata, raw)
    op times."""
    by_kind: dict[str, list[float]] = defaultdict(list)
    throughput = 0.0
    for run in runs:
        times = [r.scaled_ms if scaled else r.ms for r in run.records]
        throughput += len(times) * 1000.0 / sum(times)
        for record, ms in zip(run.records, times):
            by_kind[record.kind].append(ms)
    attempted = sum(len(run.records) for run in runs)
    failed = sum(not r.ok for run in runs for r in run.records)
    return {
        "setup_s": p50(setup_s),
        "ops_per_s": throughput,
        "success_frac": (attempted - failed) / attempted,
        "peak_rss_mb": peak_rss_mb,
        "lca_p50_ms": p50(by_kind["lca"]),
        "lca_p95_ms": p95(by_kind["lca"]),
        "lca_batch_p50_ms": p50(by_kind["lca_batch"]),
        "clade_p50_ms": p50(by_kind["clade"]),
        "clade_p95_ms": p95(by_kind["clade"]),
        "project_p50_ms": p50(by_kind["project"]),
        "project_p95_ms": p95(by_kind["project"]),
        "trial_p50_ms": p50(by_kind["trial"]),
        "trial_p95_ms": p95(by_kind["trial"]),
        "load_p50_ms": p50(by_kind["load"]),
        "consensus_p50_ms": p50(by_kind["consensus"]),
        "store_bytes_per_input_byte": store_ratio,
    }


def remote_stats(context: Context) -> dict[str, Any] | None:
    """The figures the ``stats`` verb gives, from the first client."""
    session = context.sessions[0]
    if not isinstance(session, RemoteSession):
        return None
    snapshot = session.stats()
    total = snapshot.caches.get("total", {})
    return {
        "statements": snapshot.counters.get("store.statements", 0),
        "bytes_in": snapshot.counters.get("server.bytes_in", 0),
        "bytes_out": snapshot.counters.get("server.bytes_out", 0),
        "hits": total.get("hits", 0),
        "misses": total.get("misses", 0),
        "evictions": total.get("evictions", 0),
        "refused": sum(snapshot.admission.get("refused", {}).values()),
        "checkout_wait_p95_ms": snapshot.histograms.get(
            "pool.checkout_wait", {}
        ).get("p95_ms", 0.0),
    }


def overhead_ratio(runs: list[ThreadRun]) -> float:
    """Traced over untraced op time, per kind by medians, weighted by
    how often each kind ran (ops after the ledger window only)."""
    traced: dict[str, list[float]] = defaultdict(list)
    untraced: dict[str, list[float]] = defaultdict(list)
    for run in runs:
        for record in run.records:
            if not record.in_ledger:
                (traced if record.traced else untraced)[record.kind].append(
                    record.ms
                )
    numerator = denominator = 0.0
    for kind, values in untraced.items():
        if traced.get(kind):
            weight = len(values) + len(traced[kind])
            numerator += weight * p50(traced[kind])
            denominator += weight * p50(values)
    return numerator / denominator if denominator else 1.0


def per_layer(tracer: tracing.Tracer, ledger: Ledger, runs: list[ThreadRun],
              stats_before, stats_after,
              access_log: str | None) -> dict[str, float]:
    roots = [s for s in tracer.spans if s.layer == tracing.ROOT]
    n = max(len(roots), 1)
    self_ms = tracing.self_ms_by_layer(tracer.spans)
    per_op = {f"{layer}.self_ms": ms / n for layer, ms in self_ms.items()}

    hindex_s: Counter = Counter()
    for span in tracer.spans:
        if span.layer == "core.hindex" and span.parent is not None:
            hindex_s[span.parent.span_id] += span.duration_s
    insert_s = sum(s.duration_s - hindex_s[s.span_id]
                   for s in tracer.spans if s.func == "store_tree")
    attach_s = sum(s.duration_s for s in tracer.spans
                   if s.func == "attach_sequences")

    ops = max(ledger.ops, 1)
    counts = ledger.counts
    engines = Counter(ledger.engines)
    statements = counts[tracing.DATABASE, "statements"] / ops

    remote: dict[str, float] = Counter()
    if stats_before is not None:
        attempted = sum(len(run.records) for run in runs)
        delta = {key: stats_after[key] - stats_before[key]
                 for key in ("statements", "bytes_in", "bytes_out", "hits",
                             "misses", "evictions", "refused")}
        statements += delta["statements"] / attempted
        for key in ("hits", "misses", "evictions"):
            engines[key] += delta[key]
        remote.update({
            "bytes_in": delta["bytes_in"] / attempted,
            "bytes_out": delta["bytes_out"] / attempted,
            "refused": delta["refused"],
            "checkout_wait": stats_after["checkout_wait_p95_ms"],
        })
        for trace in tracer.remote_traces:
            remote["round_trip"] += trace["round_trip_ms"] or 0.0
            remote["wire_overhead"] += trace["wire_overhead_ms"] or 0.0
            remote["server"] += trace["server_ms"] or 0.0
        wanted = {trace["trace_id"] for trace in tracer.remote_traces}
        with open(access_log, encoding="utf-8") as log:
            for line in log:
                entry = json.loads(line)
                if entry.get("trace_id") in wanted:
                    for phase, ms in entry["phases"].items():
                        remote[phase] += ms
    lookups = engines["hits"] + engines["misses"]
    rows_scanned = counts["benchmark.sampling", "rows"]
    return {
        "storage.database.statements": statements,
        "storage.database.self_ms": per_op.get("storage.database.self_ms", 0.0),
        "storage.engine.lookups": lookups / ops,
        "storage.engine.misses": engines["misses"] / ops,
        "storage.engine.evictions": engines["evictions"] / ops,
        "storage.engine.hit_rate": engines["hits"] / lookups if lookups else 0.0,
        "storage.store.self_ms": per_op.get("storage.store.self_ms", 0.0),
        "storage.tree_repository.self_ms":
            per_op.get("storage.tree_repository.self_ms", 0.0),
        "storage.tree_repository.rows":
            counts["storage.tree_repository", "rows"] / ops,
        "storage.projection.self_ms":
            per_op.get("storage.projection.self_ms", 0.0),
        "server.client.round_trip_ms": remote["round_trip"] / n,
        "server.client.wire_overhead_ms": remote["wire_overhead"] / n,
        "server.server.server_ms": remote["server"] / n,
        "storage.wire.decode_ms": per_op.get("storage.wire.self_ms", 0.0),
        "admission.self_ms":
            per_op.get("admission.self_ms", 0.0) + remote["admission"] / n,
        "storage.store.engine_ms": remote["engine"] / n,
        "storage.wire.encode_ms": remote["encode"] / n,
        "server.server.write_ms": remote["write"] / n,
        "server.server.bytes_out": remote["bytes_out"],
        "server.server.bytes_in": remote["bytes_in"],
        "storage.pool.checkout_wait_ms": remote["checkout_wait"],
        "admission.refused": remote["refused"],
        "benchmark.manager.self_ms":
            per_op.get("benchmark.manager.self_ms", 0.0),
        "benchmark.sampling.self_ms":
            per_op.get("benchmark.sampling.self_ms", 0.0),
        "benchmark.sampling.rows_scanned": rows_scanned / ops,
        "benchmark.sampling.useful_ratio": (
            counts["benchmark.sampling", "sampled"] / rows_scanned
            if rows_scanned else 0.0
        ),
        "storage.species_repository.self_ms":
            per_op.get("storage.species_repository.self_ms", 0.0),
        "storage.species_repository.statements":
            counts["storage.species_repository", "statements"] / ops,
        "reconstruction.self_ms": per_op.get("reconstruction.self_ms", 0.0),
        "benchmark.metrics.self_ms":
            per_op.get("benchmark.metrics.self_ms", 0.0),
        "storage.query_repository.self_ms":
            per_op.get("storage.query_repository.self_ms", 0.0),
        "trees.nexus.self_ms": per_op.get("trees.nexus.self_ms", 0.0),
        "storage.loader.self_ms": per_op.get("storage.loader.self_ms", 0.0),
        "core.hindex.self_ms": per_op.get("core.hindex.self_ms", 0.0),
        "storage.tree_repository.insert_ms": insert_s * 1000.0 / n,
        "storage.species_repository.attach_ms": attach_s * 1000.0 / n,
        "analytics.self_ms": per_op.get("analytics.self_ms", 0.0),
        "bench.self_ms": per_op.get("bench.self_ms", 0.0),
        "bench.op_ms": sum(s.duration_s for s in roots) * 1000.0 / n,
        "trace.overhead_ratio": overhead_ratio(runs),
    }


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------


def run(workload: Workload, seed: int, seconds: float,
        tracer: tracing.Tracer | None, work: str,
        ) -> tuple[dict[str, Any], dict[str, Any]]:
    """Generate, set up, drive and check one workload; with a tracer,
    report per-layer metrics instead of end-to-end ones.

    Returns the result object (metric values without units) and the
    run's metadata.
    """
    trace = tracer is not None
    wall = {"start": time.perf_counter()}
    inputs = workload.generate(seed)
    for corpus in [inputs.gold, inputs.evaluation, *inputs.pool]:
        if corpus is not None:
            corpus.oracle  # built now, so the freeze below covers it
    if inputs.profile:
        inputs.consensus
    # The harness's inputs and oracles leave the cyclic collector, so
    # they do not lengthen the program's collections; everything the
    # program allocates from set-up on is collected as usual.
    gc.collect()
    gc.freeze()
    wall["generate"] = time.perf_counter()
    calibrator = Calibrator()
    if tracer is not None:
        tracer.install()
    context = None
    try:
        setup_s: list[float] = []
        load_ms: list[float] = []
        scales: list[float] = []
        store_ratio = None
        # A traced run reports no set-up time, so it sets up once.
        for attempt in range(1 if trace else workload.setups):
            if context is not None:
                context.close()
                if store_ratio is None and workload.ratio_after_setup:
                    store_ratio = store_bytes_per_input_byte(context)
            directory = os.path.join(work, f"setup{attempt}")
            os.makedirs(directory)
            context, elapsed, scale = calibrator.timed(
                lambda: workload.setup(inputs, directory, SRC, trace)
            )
            setup_s.append(elapsed)
            scales.append(scale)
            load_ms.extend(context.load_ms)

        wall["setup"] = time.perf_counter()
        ledger = Ledger(tracer) if tracer is not None else None
        stats_before = remote_stats(context) if trace else None
        runs = run_threads(workload, context, inputs, seed, seconds, tracer,
                           ledger, calibrator)
        wall["loop"] = time.perf_counter()
        if ledger is not None:
            ledger.close()
        stats_after = remote_stats(context) if trace else None
        server_rss = context.server_peak_rss_mb()
        access_log = context.access_log
        flush = {
            "journal_mode": context.store.db.query_one(
                "PRAGMA journal_mode")[0],
            "synchronous": context.store.db.query_one(
                "PRAGMA synchronous")[0],
        }
        cache_rows = context.store.cache_size
        context.close()
        if store_ratio is None:
            store_ratio = store_bytes_per_input_byte(context)
        context = None
    finally:
        if context is not None:
            context.close()
        if tracer is not None:
            tracer.uninstall()
        calibrator.close()
        gc.unfreeze()

    wall["end"] = time.perf_counter()
    attempted = sum(len(r.records) for r in runs)
    failed = sum(not rec.ok for r in runs for rec in r.records)
    rss = server_rss if server_rss is not None else (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    unscaled = end_to_end(runs, setup_s, rss, store_ratio, False)
    if trace:
        metrics = per_layer(tracer, ledger, runs, stats_before, stats_after,
                            access_log)
    else:
        metrics = end_to_end(
            runs, [s * scale for s, scale in zip(setup_s, scales)], rss,
            store_ratio, True,
        )
    kinds = Counter(rec.kind for r in runs for rec in r.records)
    corpus = inputs.gold or inputs.pool[0]
    meta = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "sqlite": sqlite3.sqlite_version,
        "flush_policy": flush,
        "cache_rows_per_cache": cache_rows,
        "tree": {
            "nodes": corpus.tree.size(),
            "leaves": len(corpus.leaves),
            "max_depth": max(corpus.tree.depths().values()),
            "sites": workload.sites,
            "label_bound_f": workload.f,
        },
        "working_set_nodes_vs_cache_rows": [corpus.tree.size(), cache_rows],
        "client_threads": workload.threads,
        "connections": (
            {"tcp_clients": workload.threads,
             "server_readers": getattr(workload, "readers", 0)}
            if server_rss is not None else {"in_process": 1}
        ),
        "setup_scale": scales,
        "setup_load_ms": load_ms,
        "probe_ms_quartiles": [
            round(q * 1000.0, 4)
            for q in statistics.quantiles(runs[0].probes_s, n=4)
        ],
        "unscaled": unscaled,
        "ops_by_kind": dict(kinds),
        "busy_s": [r.busy_s for r in runs],
        "wall_s": {
            phase: round(wall[phase] - wall[previous], 3)
            for previous, phase in zip(
                ["start", "generate", "setup", "loop"],
                ["generate", "setup", "loop", "end"],
            )
        },
    }
    if trace:
        meta["ledger_ops"] = ledger.ops
        meta["spans"] = len(tracer.spans)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return result, meta


def with_units(values: dict[str, float], declared: list[dict]) -> dict:
    """Every metric ``BENCHMARK.json`` declares, with its unit."""
    return {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as spec:
        declared = json.load(spec)
    workload = WORKLOADS[args.workload]
    tracer = tracing.Tracer() if args.trace else None
    work = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        result, meta = run(workload, args.seed, args.seconds, tracer, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if tracer is not None:
        traces = os.path.join(WORK, "traces")
        os.makedirs(traces, exist_ok=True)
        tracer.write(os.path.join(traces, f"{workload.name}-{args.seed}.jsonl"))
    section = "per_layer" if args.trace else "end_to_end"
    result["metrics"] = with_units(result["metrics"], declared[section])
    meta["why"] = next(entry["why"] for entry in declared["workloads"]
                       if entry["name"] == workload.name)
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

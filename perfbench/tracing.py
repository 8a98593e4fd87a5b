"""Span recording around Crimson's public entry points, for traced runs.

A traced run (``--trace 1``) installs wrappers from this file around the
calls into each layer; the program's own code is not changed.  A wrapper
records a span only while the calling thread is inside a traced op, so
setup, warm-up and output checks stay out of the ledger, and an
untraced op pays one thread-local read per wrapped call.

Each span keeps its layer name, the wrapped function, start, end, its
parent span and the op id.  Self time is a span's duration minus the
time its child spans cover; children never overlap on one thread, so
the per-layer self times of one op add up to that op's wall time.  The
op's own root span belongs to the ``bench`` layer: the harness plus the
program code between wrapped calls.

Besides time, wrappers count work where it happens: SQL statements and
rows fetched (attributed to the nearest enclosing non-database layer),
taxa sampled, and every row-cache engine created, whose ``cache_stats()``
the ledger reads.
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import Counter
from contextlib import contextmanager
from typing import Any, Callable, Iterator

import repro.analytics
import repro.benchmark.manager as manager_module
import repro.storage.loader as loader_module
import repro.storage.projection as projection_module
from repro.admission.controller import AdmissionController
from repro.benchmark.manager import BenchmarkManager
from repro.core.hindex import HierarchicalIndex
from repro.server.client import RemoteSession
from repro.storage import wire
from repro.storage.api import LocalSession
from repro.storage.database import CrimsonDatabase
from repro.storage.engine import StoredQueryEngine
from repro.storage.loader import DataLoader
from repro.storage.query_repository import QueryRepository
from repro.storage.species_repository import SpeciesRepository
from repro.storage.tree_repository import StoredTree, TreeRepository

DATABASE = "storage.database"
ROOT = "bench"

# (owner, attribute, layer): every call site a traced run times.  Module
# attributes are patched in the module that *calls* them, because the
# callers bind the names at import time.
WRAPPED: tuple[tuple[Any, str, str], ...] = (
    (CrimsonDatabase, "execute", DATABASE),
    (CrimsonDatabase, "query_one", DATABASE),
    (CrimsonDatabase, "query_all", DATABASE),
    (LocalSession, "query", "storage.store"),
    (LocalSession, "analyze", "storage.store"),
    (AdmissionController, "admit", "admission"),
    (StoredTree, "lca_many", "storage.tree_repository"),
    (StoredTree, "lca_batch", "storage.tree_repository"),
    (StoredTree, "clade", "storage.tree_repository"),
    (TreeRepository, "store_tree", "storage.tree_repository"),
    (projection_module, "project_stored", "storage.projection"),
    (manager_module, "project_stored", "storage.projection"),
    (SpeciesRepository, "sequences_for", "storage.species_repository"),
    (SpeciesRepository, "attach_sequences", "storage.species_repository"),
    (QueryRepository, "record", "storage.query_repository"),
    (BenchmarkManager, "run_trial", "benchmark.manager"),
    (manager_module, "random_sample_stored", "benchmark.sampling"),
    (manager_module, "distance_matrix", "reconstruction"),
    (manager_module, "neighbor_joining", "reconstruction"),
    (manager_module, "compare_splits", "benchmark.metrics"),
    (loader_module, "parse_nexus", "trees.nexus"),
    (DataLoader, "load_nexus_text", "storage.loader"),
    (HierarchicalIndex, "__init__", "core.hindex"),
    (repro.analytics, "stored_consensus", "analytics"),
    (RemoteSession, "query", "server.client"),
    (RemoteSession, "analyze", "server.client"),
    (wire, "decode_result", "storage.wire"),
    (wire, "decode_analytics_result", "storage.wire"),
)


class Span:
    """One timed call: layer, function, interval, parent, op id."""

    __slots__ = ("span_id", "layer", "func", "op_id", "parent", "start",
                 "end", "child_s")

    def __init__(self, layer: str, func: str, op_id: int,
                 parent: "Span | None") -> None:
        self.span_id = next(_span_ids)
        self.layer = layer
        self.func = func
        self.op_id = op_id
        self.parent = parent
        self.child_s = 0.0
        self.end = 0.0
        self.start = time.perf_counter()

    @property
    def duration_s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration_s - self.child_s

    def as_dict(self) -> dict[str, Any]:
        return {
            "id": self.span_id,
            "layer": self.layer,
            "func": self.func,
            "op": self.op_id,
            "parent": self.parent.span_id if self.parent else None,
            "start": self.start,
            "end": self.end,
        }


_span_ids = itertools.count()


class Tracer:
    """Installs the wrappers and collects spans, counts and engines."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: (layer, counter) -> count, over traced ops only.
        self.counts: Counter[tuple[str, str]] = Counter()
        #: Client-side trace dicts of traced remote calls.
        self.remote_traces: list[dict[str, Any]] = []
        self._engines: list[StoredQueryEngine] = []
        self._registering = True
        self._local = threading.local()
        self._patches: list[tuple[Any, str, Any]] = []

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------

    def install(self) -> None:
        for owner, attribute, layer in WRAPPED:
            original = getattr(owner, attribute)
            self._patches.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, attribute, original))
        original_init = StoredQueryEngine.__init__
        self._patches.append((StoredQueryEngine, "__init__", original_init))
        tracer = self

        @functools.wraps(original_init)
        def register(engine, *args, **kwargs):
            original_init(engine, *args, **kwargs)
            if tracer._registering:
                tracer._engines.append(engine)

        StoredQueryEngine.__init__ = register

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _stack(self) -> list[Span] | None:
        return getattr(self._local, "stack", None)

    def _wrap(self, layer: str, func: str, original: Callable) -> Callable:
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if not stack:
                return original(*args, **kwargs)
            parent = stack[-1]
            span = Span(layer, func, parent.op_id, parent)
            stack.append(span)
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
                parent.child_s += span.duration_s
                tracer.spans.append(span)
            tracer._count(layer, func, args, result, stack)
            return result

        return wrapper

    def _count(self, layer: str, func: str, args: tuple, result: Any,
               stack: list[Span]) -> None:
        counts = self.counts
        if layer == DATABASE:
            owner = next(
                (s.layer for s in reversed(stack) if s.layer != DATABASE),
                ROOT,
            )
            if func == "execute":
                counts[DATABASE, "statements"] += 1
                counts[owner, "statements"] += 1
            elif func == "query_all":
                counts[owner, "rows"] += len(result)
            elif func == "query_one":
                counts[owner, "rows"] += result is not None
        elif func == "random_sample_stored":
            counts[layer, "sampled"] += len(result)
        elif layer == "server.client":
            trace = args[0].last_trace
            if trace is not None:
                self.remote_traces.append(dict(trace))

    # ------------------------------------------------------------------
    # Ops and the count ledger
    # ------------------------------------------------------------------

    @contextmanager
    def op(self, op_id: int, kind: str) -> Iterator[Span]:
        """Make one op the thread's traced root span."""
        root = Span(ROOT, kind, op_id, None)
        self._local.stack = [root]
        try:
            yield root
        finally:
            root.end = time.perf_counter()
            self._local.stack = None
            self.spans.append(root)

    def engine_totals(self) -> Counter[str]:
        """hits / misses / evictions summed over every engine seen."""
        totals: Counter[str] = Counter()
        for engine in self._engines:
            stats = engine.cache_stats()["total"]
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
            totals["evictions"] += stats.evictions
        return totals

    def stop_registering(self) -> None:
        """Forget engines: the ledger window is closed, so later handles
        need not be kept alive."""
        self._registering = False
        self._engines.clear()

    def write(self, path: str) -> None:
        """Write every recorded span as one JSON line."""
        with open(path, "w", encoding="utf-8") as out:
            for span in self.spans:
                out.write(json.dumps(span.as_dict()) + "\n")


def self_ms_by_layer(spans: list[Span]) -> dict[str, float]:
    """Total self time per layer, in milliseconds."""
    totals: Counter[str] = Counter()
    for span in spans:
        totals[span.layer] += span.self_s * 1000.0
    return dict(totals)

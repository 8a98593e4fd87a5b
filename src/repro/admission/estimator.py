"""Pre-flight cost estimation for Crimson requests.

A public service cannot dispatch a request before asking what it will
cost: one ``rf_matrix`` over a large catalogue or a ``project`` of a
million taxa would starve every warm point query behind it.  This
module predicts a request's cost *before* execution, from catalogue
stats the store already has — tree sizes from :class:`TreeInfo` rows,
index shape (``n_layers`` / ``n_blocks``), and the live residency of
the per-handle row caches (:meth:`StoredQueryEngine.resident_fraction`
and the pinned-segment counters).  Warm repeat queries estimate
near-zero statements, cold full-catalogue analytics estimate high —
the cold/warm split that changes disk-based query cost by orders of
magnitude.

The estimate is deliberately a **worst-case bound**, not an
expectation: a ``clade`` request is costed as if the spanning clade
were the whole tree, a ``match`` as a full materialization, because
admission control must refuse what *could* starve the service, not
what probably won't.  Warmth only ever lowers the bound through
observed cache residency, never through optimism about data the
estimator has not seen.

The scalar :attr:`CostEstimate.cost` folds the three raw predictions
(SQL statements, rows touched, result bytes) into one unit so budgets
and token buckets have a single currency:

``cost = statements + rows * ROW_WEIGHT + result_bytes * BYTE_WEIGHT``

One cost unit is roughly one SQL statement of work; :data:`ROW_WEIGHT`
prices 500 fetched rows and :data:`BYTE_WEIGHT` prices 64 KiB of
result at one statement each.

Residency probes use cache *membership only* — never lookups — so
estimating a request cannot perturb the hit/miss counters or the LRU
recency order that later estimates (and the benchmarks) read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.errors import ProtocolError, QueryError

if TYPE_CHECKING:  # type-only: keeps repro.admission importable alone
    from repro.storage.api import AnalyticsRequest, QueryRequest

ROW_WEIGHT = 1.0 / 500.0
"""Cost units per row touched (500 rows ≈ one statement of work)."""

BYTE_WEIGHT = 1.0 / 65536.0
"""Cost units per result byte (64 KiB ≈ one statement of work)."""

BATCH_CHUNK = 400
"""Keys per batched ``IN (...)`` statement — mirrors
:data:`repro.storage.engine._IN_CHUNK`, asserted in the test suite so
the two cannot drift."""

NODE_ROW_JSON_BYTES = 170
"""Upper bound on one :class:`NodeRow`'s share of a result's columnar
``nodes`` object (:func:`repro.storage.wire.encode_node_rows`).

A one-row result pays the nine column names (about 130 bytes) whole;
a large one amortises them and costs 40–70 bytes per row with short
taxon names.  ``tests/test_admission.py`` checks the bound on
caterpillar(600) and Yule(2000) results."""

NEWICK_NODE_BYTES = 24
"""Approximate Newick bytes per node of an encoded projection."""


@dataclass(frozen=True)
class CostEstimate:
    """The predicted cost of one request, before execution.

    ``statements`` / ``rows`` / ``result_bytes`` are the raw worst-case
    predictions; :attr:`cost` is their weighted scalar (the admission
    currency), and ``warm_fraction`` reports how much observed cache
    residency discounted the cold bound (``0.0`` = fully cold).
    """

    operation: str
    trees: tuple[str, ...]
    statements: int
    rows: int
    result_bytes: int
    warm_fraction: float
    cost: float

    def as_dict(self) -> dict[str, Any]:
        """JSON-friendly form (wire payloads, ResourceError context)."""
        return {
            "operation": self.operation,
            "trees": list(self.trees),
            "statements": self.statements,
            "rows": self.rows,
            "result_bytes": self.result_bytes,
            "warm_fraction": self.warm_fraction,
            "cost": self.cost,
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, Any]) -> "CostEstimate":
        """Rebuild an estimate from :meth:`as_dict` output.

        Raises
        ------
        ProtocolError
            On a missing or mistyped field.
        """
        try:
            trees = payload["trees"]
            if isinstance(trees, (str, bytes)) or not isinstance(
                trees, (list, tuple)
            ):
                raise ProtocolError(
                    f"malformed cost estimate: 'trees' must be a list, "
                    f"got {trees!r}"
                )
            return cls(
                operation=str(payload["operation"]),
                trees=tuple(str(name) for name in trees),
                statements=int(payload["statements"]),
                rows=int(payload["rows"]),
                result_bytes=int(payload["result_bytes"]),
                warm_fraction=float(payload["warm_fraction"]),
                cost=float(payload["cost"]),
            )
        except (KeyError, TypeError, ValueError) as error:
            raise ProtocolError(f"malformed cost estimate: {error}") from None

    def summary(self) -> str:
        """One-line human form (the CLI's ``crimson estimate`` output)."""
        return (
            f"{self.operation} over {', '.join(self.trees)}: "
            f"cost {self.cost:.2f} "
            f"({self.statements} statements, {self.rows} rows, "
            f"{self.result_bytes} result bytes, "
            f"{self.warm_fraction * 100:.0f}% warm)"
        )


def _scalar_cost(statements: float, rows: float, result_bytes: float) -> float:
    return statements + rows * ROW_WEIGHT + result_bytes * BYTE_WEIGHT


def _batches(keys: float) -> int:
    """Batched ``IN (...)`` statements needed for ``keys`` cold keys."""
    return math.ceil(keys / BATCH_CHUNK) if keys > 0 else 0


def _skeleton_residency(handle) -> float:
    """Observed residency of the pinned index skeleton of one handle.

    The layered-LCA walk climbs inode and block rows that the engine
    pins (roughly two skeleton rows per block); the pinned-segment
    sizes over that bound say how much of a cold walk is already paid.
    """
    stats = handle.cache_stats()
    pinned = stats["inodes"].pinned + stats["blocks"].pinned
    bound = max(1, 2 * handle.info.n_blocks)
    return min(1.0, pinned / bound)


def _scan_residency(handle) -> float:
    """Fraction of the tree's node rows already cached on this handle."""
    stats = handle.cache_stats()
    return min(1.0, stats["nodes"].size / max(1, handle.info.n_nodes))


def _walk_statements(handle) -> int:
    """Worst-case statements of one cold layered-LCA fold step.

    Cold, every distinct index row the walk reads is one point
    statement (the row caches hold a whole walk unless sized below a
    few dozen rows), so the bound counts rows.  Let
    ``K = n_layers - 1``, the most layers a pair can climb before both
    sides share a block (:func:`repro.core.hindex.layered_lca`).

    * **Up**, per layer climbed: each side reads its block row and the
      representative inode one layer up — 4 rows.
    * **Down**, per layer below the meeting layer: each side reads the
      upper path's first step (one ``inode_at``), the block it
      represents and that block's source inode — 3 rows — and the
      layer's LCA is one more ``inode_at``: 7 rows.  A side reads
      further only when the layer's LCA is the boundary node its path
      leaves the block through.  That happens only when the *other*
      argument's representative is the LCA itself, so the other side
      reads nothing at the layer below; for ``f >= 2`` the extra
      (a second ancestor and the step above it, 3 rows) is at most
      what the other side saves.
    * The meeting layer's LCA read, and the LCA's node row: 2.

    That is ``11·K + 2``.  With ``f = 1`` a block is one level deep: no
    label step costs a read (every step is an ancestor already held),
    but a side may need one more ancestor per layer it descends, two
    rows each, so ``K`` layers of ``4 + 1`` plus ``Σ 4·(k+1)`` rows
    give ``2·K² + 7·K + 2``.
    """
    climbed = max(0, handle.info.n_layers - 1)
    if handle.info.f >= 2:
        return 11 * climbed + 2
    return 2 * climbed * climbed + 7 * climbed + 2


def _estimate(
    request_operation: str,
    trees: Sequence[str],
    statements: float,
    rows: float,
    result_bytes: float,
    warm_fraction: float,
) -> CostEstimate:
    statements_i = int(math.ceil(max(0.0, statements)))
    rows_i = int(math.ceil(max(0.0, rows)))
    bytes_i = int(math.ceil(max(0.0, result_bytes)))
    return CostEstimate(
        operation=request_operation,
        trees=tuple(trees),
        statements=statements_i,
        rows=rows_i,
        result_bytes=bytes_i,
        warm_fraction=max(0.0, min(1.0, warm_fraction)),
        cost=_scalar_cost(statements_i, rows_i, bytes_i),
    )


def estimate_query(request: QueryRequest, handle) -> CostEstimate:
    """Predict the cost of one :class:`QueryRequest` on ``handle``.

    ``handle`` is the :class:`~repro.storage.tree_repository.StoredTree`
    the request would run on — the estimate reads its catalogue row and
    its live cache state, and executes **zero** SQL.
    """
    info = handle.info
    n = info.n_nodes
    skeleton = _skeleton_residency(handle)

    if request.operation in ("lca", "lca_batch", "clade"):
        if request.operation == "lca_batch":
            args = [item for pair in request.pairs for item in pair]
            folds = len(request.pairs)
        else:
            args = list(request.taxa)
            folds = max(1, len(request.taxa) - 1)
        arg_res = handle.engine.resident_fraction(args)
        cold_args = len(args) * (1.0 - arg_res)
        # Argument rows and their canonical inodes arrive in batched
        # IN (...) fills; each cold fold then walks the index, one row
        # per point statement.  A walk pins only O(layers) rows, so the
        # skeleton's overall residency stays low however warm a
        # workload's own pairs are: resident arguments (a warm repeat
        # finds both) discount the walk as well.
        walk_rows = folds * _walk_statements(handle) * (
            1.0 - max(skeleton, arg_res)
        )
        statements = 2.0 * _batches(cold_args) + walk_rows
        rows = cold_args * 2.0 + walk_rows
        warm = (arg_res + skeleton) / 2.0
        if request.operation == "lca":
            result_bytes = NODE_ROW_JSON_BYTES
        elif request.operation == "lca_batch":
            result_bytes = len(request.pairs) * NODE_ROW_JSON_BYTES
        else:
            # Worst case: the spanning clade is the whole tree, fetched
            # with one range scan and shipped row by row.
            statements += 1
            rows += n
            result_bytes = n * NODE_ROW_JSON_BYTES
            warm = (arg_res + skeleton) / 2.0
        return _estimate(
            request.operation,
            (request.tree,),
            statements,
            rows,
            result_bytes,
            warm,
        )

    if request.operation == "project":
        k = len(request.taxa)
        arg_res = handle.engine.resident_fraction(list(request.taxa))
        cold = k * (1.0 - arg_res)
        # project_stored: leaf rows + canonical inodes + interior rows
        # in batched fills, then one skeleton climb to anchor the walk.
        statements = 3.0 * _batches(cold) + info.n_layers * (1.0 - skeleton)
        rows = 3.0 * cold
        result_bytes = max(1, 2 * k) * NEWICK_NODE_BYTES
        return _estimate(
            request.operation,
            (request.tree,),
            statements,
            rows,
            result_bytes,
            (arg_res + skeleton) / 2.0,
        )

    if request.operation == "match":
        # fetch_tree() reads every node row with one direct statement,
        # bypassing the row cache entirely — warmth never discounts it.
        statements = 1.0
        rows = float(n)
        result_bytes = n * NEWICK_NODE_BYTES
        return _estimate(
            request.operation, (request.tree,), statements, rows,
            result_bytes, 0.0,
        )

    raise QueryError(
        f"no cost model for operation {request.operation!r}"
    )


def estimate_analytics(
    request: AnalyticsRequest, handles: Sequence
) -> CostEstimate:
    """Predict the cost of one :class:`AnalyticsRequest`.

    ``handles`` are the :class:`StoredTree` handles of
    ``request.trees`` in order.  Every analytics operation reads each
    tree's full row set through the engine's batched scan, so the per
    -tree cost is a cold full scan discounted by that handle's observed
    node-row residency.
    """
    statements = 0.0
    rows = 0.0
    warm_total = 0.0
    for handle in handles:
        n = handle.info.n_nodes
        scan = _scan_residency(handle)
        cold = n * (1.0 - scan)
        statements += _batches(cold)
        rows += cold
        warm_total += scan
    warm = warm_total / len(handles) if handles else 1.0

    if request.operation == "compare":
        result_bytes = 512.0
    elif request.operation == "distance_matrix":
        result_bytes = 16.0 * len(handles) * len(handles) + 256.0
    else:  # consensus
        max_leaves = max(
            (handle.info.n_leaves for handle in handles), default=0
        )
        # The consensus tree plus its per-cluster support table, both
        # bounded by the leaf count of the widest input tree.
        result_bytes = 2.0 * max_leaves * NEWICK_NODE_BYTES
        result_bytes += max_leaves * max_leaves * 2.0
    return _estimate(
        request.operation,
        tuple(request.trees),
        statements,
        rows,
        result_bytes,
        warm,
    )

"""Versioned wire codec for the Crimson query surface.

Everything a :class:`~repro.storage.api.CrimsonSession` exchanges with
a remote store round-trips through this module as plain JSON-friendly
dicts: :class:`~repro.storage.api.QueryRequest`,
:class:`~repro.storage.api.AnalyticsRequest` /
:class:`~repro.storage.api.AnalyticsResult` (consensus trees as quoted
Newick, support clusters as sorted name lists),
:class:`~repro.storage.api.QueryResult` (its
:class:`~repro.storage.tree_repository.NodeRow` rows as one columnar
``nodes`` object — one list per row field — and
:class:`~repro.trees.tree.PhyloTree` projections, carried as Newick),
catalogue rows, integrity reports, and typed
:class:`~repro.errors.CrimsonError` payloads.  The codec is the *only*
place the wire shape is defined — the RPC server and client
(:mod:`repro.server`) frame these dicts as JSON lines and never reach
into their fields.

Every encoded message carries ``"protocol": PROTOCOL_VERSION``.
Decoders reject messages stamped with a different version (or none)
with :class:`~repro.errors.ProtocolError`, so an incompatible codec
bumps the constant and old peers fail loudly instead of misreading
fields.  Version 2 did exactly that when result rows went columnar:
there is one row encoding and no negotiation flag.  Malformed
payloads — missing keys, wrong types — also raise
:class:`~repro.errors.ProtocolError`; *semantic* errors
inside a well-formed message (an unknown operation, an empty taxon
list) surface as the usual :class:`~repro.errors.QueryError` because
decoding a request re-runs :class:`QueryRequest` validation.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence

import repro.errors as _errors
from repro.admission.estimator import CostEstimate
from repro.errors import CrimsonError, ParseError, ProtocolError
from repro.storage.api import (
    AnalyticsRequest,
    AnalyticsResult,
    HealthReport,
    QueryRequest,
    QueryResult,
    StatsRequest,
    StatsSnapshot,
)
from repro.storage.maintenance import IntegrityReport
from repro.storage.tree_repository import NodeRow, TreeInfo
from repro.trees.newick import parse_newick, write_newick
from repro.trees.tree import PhyloTree

PROTOCOL_VERSION = 2
"""The wire protocol this build speaks (bump on incompatible change).

Version 2 carries a result's node rows column-wise
(:func:`encode_node_rows`); version 1 sent one object per row."""

#: Error kinds the codec round-trips by name; anything unlisted decodes
#: as the base CrimsonError so callers can still catch it.
ERROR_KINDS: dict[str, type[CrimsonError]] = {
    cls.__name__: cls
    for cls in vars(_errors).values()
    if isinstance(cls, type) and issubclass(cls, CrimsonError)
}


def stamp(payload: dict[str, Any]) -> dict[str, Any]:
    """Return ``payload`` with the protocol version stamped in."""
    payload["protocol"] = PROTOCOL_VERSION
    return payload


def check_protocol(payload: Mapping[str, Any], what: str) -> None:
    """Reject a payload this codec does not speak.

    Raises
    ------
    ProtocolError
        If ``payload`` is not a mapping, carries no ``protocol`` stamp,
        or is stamped with a version other than :data:`PROTOCOL_VERSION`.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(f"{what} must be a JSON object, got {payload!r}")
    version = payload.get("protocol")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"{what} speaks protocol {version!r}; this build speaks "
            f"{PROTOCOL_VERSION}"
        )


def _field(payload: Mapping[str, Any], key: str, what: str) -> Any:
    try:
        return payload[key]
    except (KeyError, TypeError):
        raise ProtocolError(f"{what} is missing the {key!r} field") from None


# ----------------------------------------------------------------------
# QueryRequest
# ----------------------------------------------------------------------

def encode_request(request: QueryRequest) -> dict[str, Any]:
    """Encode a request as a JSON-friendly dict (tuples become lists)."""
    return stamp(
        {
            "operation": request.operation,
            "tree": request.tree,
            "taxa": list(request.taxa),
            "pairs": [list(pair) for pair in request.pairs],
            "pattern": request.pattern,
            "ordered": request.ordered,
        }
    )


def decode_request(payload: Mapping[str, Any]) -> QueryRequest:
    """Decode and *re-validate* a request.

    Shape problems raise :class:`ProtocolError`; a well-formed payload
    describing an invalid request (unknown operation, empty taxa, a
    malformed pair) raises :class:`~repro.errors.QueryError` from the
    :class:`QueryRequest` constructor — the same error an in-process
    caller would see.
    """
    check_protocol(payload, "a query request")
    operation = _field(payload, "operation", "a query request")
    tree = _field(payload, "tree", "a query request")
    if not isinstance(operation, str) or not isinstance(tree, str):
        raise ProtocolError(
            "a query request's 'operation' and 'tree' must be strings"
        )
    pattern = payload.get("pattern")
    if pattern is not None and not isinstance(pattern, str):
        raise ProtocolError("a query request's 'pattern' must be a string")
    return QueryRequest(
        operation=operation,
        tree=tree,
        taxa=payload.get("taxa", ()),
        pairs=payload.get("pairs", ()),
        pattern=pattern,
        ordered=bool(payload.get("ordered", True)),
    )


# ----------------------------------------------------------------------
# NodeRow and PhyloTree
# ----------------------------------------------------------------------

def encode_node_rows(rows: Sequence[NodeRow]) -> dict[str, list[Any]]:
    """Encode rows column-wise: one list per :class:`NodeRow` field.

    ``{"node_id": [...], "parent_id": [...], ..., "is_leaf": [...]}``
    with every list in row order.  Each field name crosses once per
    result rather than once per row, which is what makes a large clade
    cheap to build, dump, and load.  The columns are
    :attr:`NodeRow._fields`, so the encoding cannot drift from the row
    type.
    """
    if not rows:
        return {field: [] for field in NodeRow._fields}
    return dict(zip(NodeRow._fields, map(list, zip(*rows))))


def decode_node_rows(payload: Mapping[str, Any]) -> tuple[NodeRow, ...]:
    """Rebuild rows from their columns (see :func:`encode_node_rows`).

    Columns the row type does not declare are ignored, like any unknown
    key.  ``is_leaf`` is normalised to ``bool``; other cells are taken
    as sent.

    Raises
    ------
    ProtocolError
        If ``payload`` is not a mapping, a column is missing or is not
        a list, or the columns differ in length.
    """
    if not isinstance(payload, Mapping):
        raise ProtocolError(
            "a query result's 'nodes' must be a JSON object of columns, "
            f"got {type(payload).__name__}"
        )
    columns = []
    for field in NodeRow._fields:
        column = _field(payload, field, "a query result's 'nodes'")
        if not isinstance(column, list):
            raise ProtocolError(
                f"node column {field!r} must be a list, "
                f"got {type(column).__name__}"
            )
        columns.append(column)
    lengths = {len(column) for column in columns}
    if len(lengths) > 1:
        raise ProtocolError(
            f"node columns differ in length: {sorted(lengths)}"
        )
    columns[-1] = [bool(flag) for flag in columns[-1]]
    return tuple(map(NodeRow._make, zip(*columns)))


def encode_tree(tree: PhyloTree) -> dict[str, Any]:
    """A projection on the wire: its Newick text plus the tree name.

    ``write_newick`` emits shortest-round-trip floats, so branch
    lengths survive bit-for-bit; quoted labels cover names with spaces,
    quotes, or Newick structure characters.
    """
    return {"newick": write_newick(tree), "name": tree.name}


def decode_tree(payload: Mapping[str, Any]) -> PhyloTree:
    newick = _field(payload, "newick", "an encoded tree")
    if not isinstance(newick, str):
        raise ProtocolError("an encoded tree's 'newick' must be a string")
    name = payload.get("name")
    if name is not None and not isinstance(name, str):
        raise ProtocolError(
            f"an encoded tree's 'name' must be a string, got {name!r}"
        )
    try:
        tree = parse_newick(newick)
    except ParseError as error:
        raise ProtocolError(
            f"an encoded tree's 'newick' does not parse: {error}"
        ) from None
    tree.name = name
    return tree


# ----------------------------------------------------------------------
# QueryResult
# ----------------------------------------------------------------------

def encode_result(result: QueryResult) -> dict[str, Any]:
    """Encode a result with its request embedded (for replay/audit)."""
    return stamp(
        {
            "request": encode_request(result.request),
            "duration_ms": result.duration_ms,
            "nodes": encode_node_rows(result.nodes),
            "projection": (
                encode_tree(result.projection)
                if result.projection is not None
                else None
            ),
            "matched": result.matched,
            "similarity": result.similarity,
        }
    )


def decode_result(payload: Mapping[str, Any]) -> QueryResult:
    check_protocol(payload, "a query result")
    request = decode_request(_field(payload, "request", "a query result"))
    nodes = decode_node_rows(_field(payload, "nodes", "a query result"))
    projection = payload.get("projection")
    duration = _field(payload, "duration_ms", "a query result")
    if isinstance(duration, bool) or not isinstance(duration, (int, float)):
        raise ProtocolError(
            f"a query result's 'duration_ms' must be a number, "
            f"got {duration!r}"
        )
    return QueryResult(
        request=request,
        duration_ms=float(duration),
        nodes=nodes,
        projection=(
            decode_tree(projection) if projection is not None else None
        ),
        matched=payload.get("matched"),
        similarity=payload.get("similarity"),
    )


# ----------------------------------------------------------------------
# AnalyticsRequest / AnalyticsResult
# ----------------------------------------------------------------------

def encode_analytics_request(request: AnalyticsRequest) -> dict[str, Any]:
    """Encode a cross-tree analytics request as a JSON-friendly dict."""
    return stamp(
        {
            "operation": request.operation,
            "trees": list(request.trees),
            "threshold": request.threshold,
            "strict": request.strict,
        }
    )


def decode_analytics_request(payload: Mapping[str, Any]) -> AnalyticsRequest:
    """Decode and *re-validate* an analytics request.

    Shape problems raise :class:`ProtocolError`; a well-formed payload
    describing an invalid request (unknown operation, wrong tree
    count, a threshold out of range) raises
    :class:`~repro.errors.QueryError` from the
    :class:`AnalyticsRequest` constructor — the same error an
    in-process caller would see.
    """
    check_protocol(payload, "an analytics request")
    operation = _field(payload, "operation", "an analytics request")
    if not isinstance(operation, str):
        raise ProtocolError(
            "an analytics request's 'operation' must be a string"
        )
    threshold = payload.get("threshold", 0.5)
    if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
        raise ProtocolError(
            f"an analytics request's 'threshold' must be a number, "
            f"got {threshold!r}"
        )
    return AnalyticsRequest(
        operation=operation,
        trees=payload.get("trees", ()),
        threshold=threshold,
        strict=bool(payload.get("strict", False)),
    )


def _encode_comparison(comparison) -> dict[str, Any]:
    return {
        "rf_distance": comparison.rf_distance,
        "normalized_rf": comparison.normalized_rf,
        "false_positives": comparison.false_positives,
        "false_negatives": comparison.false_negatives,
        "n_splits_reference": comparison.n_splits_reference,
        "n_splits_estimate": comparison.n_splits_estimate,
    }


def _decode_comparison(payload: Mapping[str, Any]):
    from repro.benchmark.metrics import SplitComparison

    try:
        return SplitComparison(
            rf_distance=payload["rf_distance"],
            normalized_rf=payload["normalized_rf"],
            false_positives=payload["false_positives"],
            false_negatives=payload["false_negatives"],
            n_splits_reference=payload["n_splits_reference"],
            n_splits_estimate=payload["n_splits_estimate"],
        )
    except (KeyError, TypeError) as error:
        raise ProtocolError(f"malformed split comparison: {error}") from None


def encode_analytics_result(result: AnalyticsResult) -> dict[str, Any]:
    """Encode a result with its request embedded (for replay/audit).

    A consensus tree crosses as quoted Newick (:func:`encode_tree`, so
    topology and branch lengths survive byte-for-byte); support
    clusters cross as deterministically sorted name lists
    (:meth:`AnalyticsResult.support_table`).
    """
    return stamp(
        {
            "request": encode_analytics_request(result.request),
            "duration_ms": result.duration_ms,
            "comparison": (
                _encode_comparison(result.comparison)
                if result.comparison is not None
                else None
            ),
            "shared_clusters": result.shared_clusters,
            "matrix": (
                [list(row) for row in result.matrix]
                if result.matrix is not None
                else None
            ),
            "consensus": (
                encode_tree(result.consensus)
                if result.consensus is not None
                else None
            ),
            "support": (
                [
                    [list(cluster), fraction]
                    for cluster, fraction in result.support_table()
                ]
                if result.support is not None
                else None
            ),
        }
    )


def _decode_support(rows: Any) -> dict[frozenset[str], float]:
    if not isinstance(rows, list):
        raise ProtocolError("an analytics result's 'support' must be a list")
    support: dict[frozenset[str], float] = {}
    for row in rows:
        if (
            not isinstance(row, (list, tuple))
            or len(row) != 2
            or not isinstance(row[0], list)
            or isinstance(row[1], bool)
            or not isinstance(row[1], (int, float))
            or not all(isinstance(name, str) for name in row[0])
        ):
            raise ProtocolError(
                f"malformed support row {row!r}; expected "
                "[[name, ...], fraction]"
            )
        support[frozenset(row[0])] = float(row[1])
    return support


def _decode_matrix(rows: Any) -> tuple[tuple[int, ...], ...]:
    if not isinstance(rows, list):
        raise ProtocolError("an analytics result's 'matrix' must be a list")
    matrix: list[tuple[int, ...]] = []
    for row in rows:
        if not isinstance(row, list) or not all(
            isinstance(cell, int) and not isinstance(cell, bool)
            for cell in row
        ):
            raise ProtocolError(
                f"malformed matrix row {row!r}; expected a list of ints"
            )
        matrix.append(tuple(row))
    return tuple(matrix)


def decode_analytics_result(payload: Mapping[str, Any]) -> AnalyticsResult:
    check_protocol(payload, "an analytics result")
    request = decode_analytics_request(
        _field(payload, "request", "an analytics result")
    )
    duration = _field(payload, "duration_ms", "an analytics result")
    if isinstance(duration, bool) or not isinstance(duration, (int, float)):
        raise ProtocolError(
            f"an analytics result's 'duration_ms' must be a number, "
            f"got {duration!r}"
        )
    comparison = payload.get("comparison")
    shared = payload.get("shared_clusters")
    if shared is not None and (
        isinstance(shared, bool) or not isinstance(shared, int)
    ):
        raise ProtocolError(
            f"an analytics result's 'shared_clusters' must be an int, "
            f"got {shared!r}"
        )
    matrix = payload.get("matrix")
    consensus = payload.get("consensus")
    support = payload.get("support")
    return AnalyticsResult(
        request=request,
        duration_ms=float(duration),
        comparison=(
            _decode_comparison(comparison) if comparison is not None else None
        ),
        shared_clusters=shared,
        matrix=_decode_matrix(matrix) if matrix is not None else None,
        consensus=decode_tree(consensus) if consensus is not None else None,
        support=_decode_support(support) if support is not None else None,
    )


# ----------------------------------------------------------------------
# Catalogue rows and integrity reports
# ----------------------------------------------------------------------

def encode_tree_info(info: TreeInfo) -> dict[str, Any]:
    return {
        "tree_id": info.tree_id,
        "name": info.name,
        "n_nodes": info.n_nodes,
        "n_leaves": info.n_leaves,
        "max_depth": info.max_depth,
        "f": info.f,
        "n_layers": info.n_layers,
        "n_blocks": info.n_blocks,
        "created_at": info.created_at,
        "description": info.description,
        "shard": info.shard,
    }


def decode_tree_info(payload: Mapping[str, Any]) -> TreeInfo:
    try:
        return TreeInfo(
            tree_id=payload["tree_id"],
            name=payload["name"],
            n_nodes=payload["n_nodes"],
            n_leaves=payload["n_leaves"],
            max_depth=payload["max_depth"],
            f=payload["f"],
            n_layers=payload["n_layers"],
            n_blocks=payload["n_blocks"],
            created_at=payload["created_at"],
            description=payload["description"],
            shard=payload.get("shard", 0),
        )
    except (KeyError, TypeError) as error:
        raise ProtocolError(f"malformed catalogue row: {error}") from None


def encode_report(report: IntegrityReport) -> dict[str, Any]:
    return {"tree_name": report.tree_name, "problems": list(report.problems)}


def decode_report(payload: Mapping[str, Any]) -> IntegrityReport:
    problems = _field(payload, "problems", "an integrity report")
    if not isinstance(problems, list):
        raise ProtocolError("an integrity report's 'problems' must be a list")
    return IntegrityReport(
        tree_name=_field(payload, "tree_name", "an integrity report"),
        problems=list(problems),
    )


# ----------------------------------------------------------------------
# Cost estimates (the `estimate` verb)
# ----------------------------------------------------------------------

def encode_estimate_request(
    request: QueryRequest | AnalyticsRequest,
) -> dict[str, Any]:
    """Encode an estimate verb's payload: the request plus its kind.

    The kind discriminator lets the decoder rebuild the right request
    type — an estimate can pre-flight either a single-tree query or a
    cross-tree analytics request.
    """
    if isinstance(request, AnalyticsRequest):
        return stamp(
            {"kind": "analytics", "request": encode_analytics_request(request)}
        )
    if isinstance(request, QueryRequest):
        return stamp({"kind": "query", "request": encode_request(request)})
    raise ProtocolError(
        f"an estimate request wraps a QueryRequest or AnalyticsRequest, "
        f"got {type(request).__name__}"
    )


def decode_estimate_request(
    payload: Mapping[str, Any],
) -> QueryRequest | AnalyticsRequest:
    """Decode and re-validate an estimate verb's payload."""
    check_protocol(payload, "an estimate request")
    kind = _field(payload, "kind", "an estimate request")
    body = _field(payload, "request", "an estimate request")
    if kind == "query":
        return decode_request(body)
    if kind == "analytics":
        return decode_analytics_request(body)
    raise ProtocolError(
        f"an estimate request's 'kind' must be 'query' or 'analytics', "
        f"got {kind!r}"
    )


def encode_estimate(estimate: CostEstimate) -> dict[str, Any]:
    """Encode one pre-flight cost estimate."""
    return stamp(estimate.as_dict())


def decode_estimate(payload: Mapping[str, Any]) -> CostEstimate:
    """Rebuild a :class:`CostEstimate` from its wire form."""
    check_protocol(payload, "a cost estimate")
    return CostEstimate.from_dict(payload)


# ----------------------------------------------------------------------
# Stats snapshots (the `stats` verb)
# ----------------------------------------------------------------------

def encode_stats_request(request: StatsRequest) -> dict[str, Any]:
    """Encode a stats verb's payload (the selected sections)."""
    return stamp({"sections": list(request.sections)})


def decode_stats_request(payload: Mapping[str, Any]) -> StatsRequest:
    """Decode and re-validate a stats verb's payload.

    Shape problems raise :class:`ProtocolError`; a well-formed payload
    naming an unknown section raises
    :class:`~repro.errors.QueryError` from the :class:`StatsRequest`
    constructor, exactly as an in-process caller would see.
    """
    check_protocol(payload, "a stats request")
    sections = payload.get("sections", ())
    if isinstance(sections, str) or not isinstance(sections, (list, tuple)):
        raise ProtocolError(
            f"a stats request's 'sections' must be a list, got {sections!r}"
        )
    return StatsRequest(sections=tuple(sections))


def encode_stats(snapshot: StatsSnapshot) -> dict[str, Any]:
    """Encode one observability snapshot."""
    return stamp(snapshot.as_dict())


def decode_stats(payload: Mapping[str, Any]) -> StatsSnapshot:
    """Rebuild a :class:`StatsSnapshot` from its wire form."""
    check_protocol(payload, "a stats snapshot")
    return StatsSnapshot.from_dict(payload)


# ----------------------------------------------------------------------
# Health reports (the `health` verb)
# ----------------------------------------------------------------------

def encode_health(report: HealthReport) -> dict[str, Any]:
    """Encode one threshold-evaluated health report."""
    return stamp(report.as_dict())


def decode_health(payload: Mapping[str, Any]) -> HealthReport:
    """Rebuild a :class:`HealthReport` from its wire form."""
    check_protocol(payload, "a health report")
    return HealthReport.from_dict(payload)


# ----------------------------------------------------------------------
# Typed errors
# ----------------------------------------------------------------------

def encode_error(error: BaseException) -> dict[str, Any]:
    """Encode an exception as ``{"kind": ..., "message": ...}``.

    Crimson errors keep their class name so the far side re-raises the
    same type; anything else is reported as the base ``CrimsonError``
    (the message still names the original class).
    """
    if isinstance(error, CrimsonError):
        payload = {"kind": type(error).__name__, "message": str(error)}
        # Errors that carry structured context (ResourceError's
        # estimate/limit/resource) expose it via wire_details(); the
        # hook keeps the codec ignorant of each class's fields.
        details_of = getattr(error, "wire_details", None)
        if callable(details_of):
            details = details_of()
            if details:
                payload["details"] = details
        return stamp(payload)
    return stamp(
        {
            "kind": "CrimsonError",
            "message": f"{type(error).__name__}: {error}",
        }
    )


def decode_error(payload: Mapping[str, Any]) -> CrimsonError:
    """Rebuild the typed exception an error payload describes."""
    check_protocol(payload, "an error payload")
    kind = _field(payload, "kind", "an error payload")
    message = _field(payload, "message", "an error payload")
    if not isinstance(kind, str):
        raise ProtocolError(
            f"an error payload's 'kind' must be a string, got {kind!r}"
        )
    error = ERROR_KINDS.get(kind, CrimsonError)(message)
    details = payload.get("details")
    apply = getattr(error, "apply_wire_details", None)
    if isinstance(details, Mapping) and callable(apply):
        # Lenient restore: optional context never fails a decode.
        apply(dict(details))
    return error

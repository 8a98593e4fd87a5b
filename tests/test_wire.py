"""The wire codec: JSON round-trips of requests, results, and errors.

Every payload crosses a real ``json.dumps``/``json.loads`` boundary in
these tests, so nothing non-serializable or lossy (tuples, floats,
unicode, quoted Newick labels) can hide in the encoded dicts.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.errors as errors_module
from repro.errors import (
    CrimsonError,
    ProtocolError,
    QueryError,
    StorageError,
)
from repro.storage import wire
from repro.storage.api import AnalyticsRequest, QueryRequest, QueryResult
from repro.storage.maintenance import IntegrityReport
from repro.storage.store import CrimsonStore
from repro.storage.tree_repository import NodeRow
from repro.trees.build import sample_tree
from repro.trees.newick import write_newick


def over_json(payload):
    """Force a payload through an actual JSON byte boundary."""
    return json.loads(json.dumps(payload, ensure_ascii=False))


# Taxon names exercising unicode, Newick metacharacters, quotes, and
# the underscore-for-space convention.
TRICKY_NAMES = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\x00", exclude_categories=("Cs",)
    ),
    min_size=1,
    max_size=12,
).filter(lambda s: s.strip() == s and s != "")

taxon_refs = st.one_of(st.integers(min_value=0, max_value=10**6), TRICKY_NAMES)


def requests_for(operation: str):
    """A hypothesis strategy of valid requests for one operation."""
    tree = TRICKY_NAMES
    if operation == "lca_batch":
        return st.builds(
            QueryRequest.lca_batch,
            tree,
            st.lists(st.tuples(taxon_refs, taxon_refs), min_size=1, max_size=5),
        )
    if operation == "match":
        return st.builds(
            QueryRequest.match,
            tree,
            st.just("((a,b),c);"),
            ordered=st.booleans(),
        )
    taxa = (
        st.lists(TRICKY_NAMES, min_size=1, max_size=5)
        if operation == "project"
        else st.lists(taxon_refs, min_size=1, max_size=5)
    )
    constructor = getattr(QueryRequest, operation)
    return st.builds(lambda t, xs: constructor(t, *xs), tree, taxa)


SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestRequestRoundTrip:
    @pytest.mark.parametrize(
        "operation", ["lca", "lca_batch", "clade", "project", "match"]
    )
    def test_every_operation_round_trips(self, operation):
        @SETTINGS
        @given(request=requests_for(operation))
        def check(request):
            decoded = wire.decode_request(
                over_json(wire.encode_request(request))
            )
            assert decoded == request

        check()

    def test_unicode_taxa_survive(self):
        request = QueryRequest.lca("gold", "Δrosophila", "果蝇", "Δ'quoted'")
        assert (
            wire.decode_request(over_json(wire.encode_request(request)))
            == request
        )

    def test_decoded_request_is_revalidated(self):
        payload = over_json(
            wire.encode_request(QueryRequest.lca("gold", "a", "b"))
        )
        payload["taxa"] = []
        with pytest.raises(QueryError):
            wire.decode_request(payload)
        payload["taxa"] = [["not", "a"], "taxon"]
        with pytest.raises(QueryError):
            wire.decode_request(payload)

    def test_bad_duration_is_protocol_error(self):
        result = QueryResult(
            request=QueryRequest.lca("t", "a", "b"), duration_ms=1.5
        )
        payload = over_json(wire.encode_result(result))
        for bad in (None, "fast", True):
            payload["duration_ms"] = bad
            with pytest.raises(ProtocolError, match="duration_ms"):
                wire.decode_result(payload)

    def test_malformed_shape_is_protocol_error(self):
        with pytest.raises(ProtocolError):
            wire.decode_request(
                wire.stamp({"operation": "lca"})  # no tree field
            )
        with pytest.raises(ProtocolError):
            wire.decode_request(wire.stamp({"operation": 3, "tree": "t"}))
        with pytest.raises(ProtocolError):
            wire.decode_request("not a mapping")


@pytest.fixture
def stored_store():
    with CrimsonStore.open() as store:
        store.trees.store_tree(sample_tree(), f=2)
        yield store


class TestResultRoundTrip:
    REQUESTS = {
        "lca": lambda t: QueryRequest.lca(t, "Lla", "Syn"),
        "lca_batch": lambda t: QueryRequest.lca_batch(
            t, [("Lla", "Spy"), ("Bha", "Syn")]
        ),
        "clade": lambda t: QueryRequest.clade(t, "Lla", "Spy"),
        "project": lambda t: QueryRequest.project(t, "Lla", "Syn", "Bha"),
        "match": lambda t: QueryRequest.match(t, "(Lla,Spy);"),
    }

    @pytest.mark.parametrize("operation", sorted(REQUESTS))
    def test_every_operation_result_round_trips(
        self, stored_store, operation
    ):
        request = self.REQUESTS[operation]("fig1-sample")
        result = stored_store.query(request)
        decoded = wire.decode_result(over_json(wire.encode_result(result)))
        assert decoded.request == request
        assert decoded.duration_ms == result.duration_ms
        assert decoded.nodes == result.nodes
        assert decoded.matched == result.matched
        assert decoded.similarity == result.similarity
        if result.projection is None:
            assert decoded.projection is None
        else:
            assert write_newick(decoded.projection) == write_newick(
                result.projection
            )
            assert decoded.projection.name == result.projection.name

    def test_quoted_newick_names_survive(self):
        from repro.trees.newick import parse_newick

        tree = parse_newick("('it''s a leaf':1.5,'with space':2.25)root;")
        tree.name = "quoted"
        result = QueryResult(
            request=QueryRequest.project("t", "x"),
            duration_ms=1.0,
            projection=tree,
        )
        decoded = wire.decode_result(over_json(wire.encode_result(result)))
        assert decoded.projection.leaf_names() == ["it's a leaf", "with space"]
        assert decoded.projection.name == "quoted"
        assert write_newick(decoded.projection) == write_newick(tree)

    def test_node_rows_survive_bit_for_bit(self, stored_store):
        result = stored_store.query(
            QueryRequest.clade("fig1-sample", "Lla", "Syn")
        )
        decoded = wire.decode_result(over_json(wire.encode_result(result)))
        assert decoded.nodes == result.nodes
        assert all(
            type(row.dist_from_root) is float for row in decoded.nodes
        )


@pytest.fixture
def analytics_store():
    from repro.trees.build import caterpillar
    from repro.trees.newick import parse_newick

    with CrimsonStore.open() as store:
        store.trees.store_tree(caterpillar(8), name="ladder", f=4)
        store.trees.store_tree(
            parse_newick("(((t1,t2),(t3,t4)),((t5,t6),(t7,t8)))r;"),
            name="bush",
            f=4,
        )
        store.trees.store_tree(
            parse_newick("(((t1,t3),(t2,t4)),((t5,t7),(t6,t8)))r;"),
            name="shuffled",
            f=4,
        )
        yield store


class TestAnalyticsRoundTrip:
    def test_request_round_trips(self):
        for request in (
            AnalyticsRequest.compare("a", "b"),
            AnalyticsRequest.distance_matrix("a", "b", "c"),
            AnalyticsRequest.consensus("α", "b", threshold=0.75),
            AnalyticsRequest.consensus("a", strict=True, threshold=0.0),
        ):
            decoded = wire.decode_analytics_request(
                over_json(wire.encode_analytics_request(request))
            )
            assert decoded == request

    def test_decoded_request_is_revalidated(self):
        payload = over_json(
            wire.encode_analytics_request(AnalyticsRequest.compare("a", "b"))
        )
        payload["trees"] = ["only"]
        with pytest.raises(QueryError):
            wire.decode_analytics_request(payload)
        payload["operation"] = "blend"
        with pytest.raises(QueryError):
            wire.decode_analytics_request(payload)

    def test_request_shape_errors_are_protocol_errors(self):
        good = over_json(
            wire.encode_analytics_request(AnalyticsRequest.compare("a", "b"))
        )
        for key, bad in (("operation", 3), ("threshold", "half"),
                         ("threshold", True)):
            payload = dict(good)
            payload[key] = bad
            with pytest.raises(ProtocolError):
                wire.decode_analytics_request(payload)
        with pytest.raises(ProtocolError):
            wire.decode_analytics_request("not a mapping")

    def test_compare_result_round_trips(self, analytics_store):
        result = analytics_store.analyze(
            AnalyticsRequest.compare("bush", "shuffled")
        )
        decoded = wire.decode_analytics_result(
            over_json(wire.encode_analytics_result(result))
        )
        assert decoded.request == result.request
        assert decoded.comparison == result.comparison
        assert decoded.shared_clusters == result.shared_clusters
        assert decoded.matrix is None and decoded.consensus is None

    def test_matrix_result_round_trips(self, analytics_store):
        result = analytics_store.analyze(
            AnalyticsRequest.distance_matrix("ladder", "bush", "shuffled")
        )
        decoded = wire.decode_analytics_result(
            over_json(wire.encode_analytics_result(result))
        )
        assert decoded.matrix == result.matrix
        assert all(
            type(cell) is int for row in decoded.matrix for cell in row
        )

    def test_consensus_result_round_trips(self, analytics_store):
        result = analytics_store.analyze(
            AnalyticsRequest.consensus("ladder", "bush", "shuffled")
        )
        decoded = wire.decode_analytics_result(
            over_json(wire.encode_analytics_result(result))
        )
        assert write_newick(decoded.consensus) == write_newick(
            result.consensus
        )
        assert decoded.support == dict(result.support)

    def test_malformed_result_fields_are_protocol_errors(
        self, analytics_store
    ):
        result = analytics_store.analyze(
            AnalyticsRequest.consensus("ladder", "bush")
        )
        good = over_json(wire.encode_analytics_result(result))
        for key, bad in (
            ("duration_ms", "fast"),
            ("support", [["cluster", "not-a-list"], 0.5]),
            ("support", [[["a"], "half"]]),
            ("matrix", [["1"]]),
            ("matrix", [[True]]),
            ("shared_clusters", True),
        ):
            payload = over_json(good)
            payload[key] = bad
            with pytest.raises(ProtocolError):
                wire.decode_analytics_result(payload)

    def test_future_analytics_payloads_rejected(self):
        request = AnalyticsRequest.compare("a", "b")
        payload = over_json(wire.encode_analytics_request(request))
        payload["protocol"] = wire.PROTOCOL_VERSION + 1
        with pytest.raises(ProtocolError):
            wire.decode_analytics_request(payload)


class TestCatalogueAndReports:
    def test_tree_info_round_trips(self, stored_store):
        info = stored_store.describe("fig1-sample")
        assert wire.decode_tree_info(
            over_json(wire.encode_tree_info(info))
        ) == info

    def test_report_round_trips(self):
        report = IntegrityReport("gold", problems=["block 3 broke", "läuft"])
        decoded = wire.decode_report(over_json(wire.encode_report(report)))
        assert decoded.tree_name == report.tree_name
        assert decoded.problems == report.problems
        assert not decoded.ok


class TestErrorRoundTrip:
    ALL_ERRORS = sorted(wire.ERROR_KINDS)

    def test_registry_covers_the_hierarchy(self):
        assert set(self.ALL_ERRORS) == {
            name
            for name, cls in vars(errors_module).items()
            if isinstance(cls, type) and issubclass(cls, CrimsonError)
        }

    @pytest.mark.parametrize("kind", ALL_ERRORS)
    def test_every_kind_round_trips(self, kind):
        error = wire.ERROR_KINDS[kind]("something Δroke")
        decoded = wire.decode_error(over_json(wire.encode_error(error)))
        assert type(decoded) is wire.ERROR_KINDS[kind]
        assert str(decoded) == "something Δroke"

    def test_unhashable_kind_is_protocol_error(self):
        payload = wire.stamp({"kind": ["QueryError"], "message": "x"})
        with pytest.raises(ProtocolError, match="'kind' must be a string"):
            wire.decode_error(payload)

    def test_unknown_kind_decodes_as_base_error(self):
        payload = wire.stamp({"kind": "FutureError", "message": "hm"})
        decoded = wire.decode_error(payload)
        assert type(decoded) is CrimsonError

    def test_foreign_exception_encodes_as_base_error(self):
        payload = wire.encode_error(ValueError("out of range"))
        assert payload["kind"] == "CrimsonError"
        assert "ValueError" in payload["message"]
        assert "out of range" in payload["message"]


class TestProtocolVersionGate:
    def future(self, payload):
        payload = dict(payload)
        payload["protocol"] = wire.PROTOCOL_VERSION + 1
        return payload

    def test_future_request_rejected(self):
        payload = self.future(
            wire.encode_request(QueryRequest.lca("t", "a", "b"))
        )
        with pytest.raises(ProtocolError, match="speaks protocol"):
            wire.decode_request(payload)

    def test_future_result_rejected(self, ):
        result = QueryResult(
            request=QueryRequest.lca("t", "a", "b"), duration_ms=0.0
        )
        with pytest.raises(ProtocolError, match="speaks protocol"):
            wire.decode_result(self.future(wire.encode_result(result)))

    def test_future_error_rejected(self):
        payload = self.future(wire.encode_error(StorageError("x")))
        with pytest.raises(ProtocolError):
            wire.decode_error(payload)

    def test_missing_stamp_rejected(self):
        with pytest.raises(ProtocolError):
            wire.decode_request(
                {"operation": "lca", "tree": "t", "taxa": ["a", "b"]}
            )

    def test_protocol_error_is_a_crimson_error(self):
        # The CLI and clients catch CrimsonError; version skew must land
        # in the same net.
        assert issubclass(ProtocolError, CrimsonError)


# ----------------------------------------------------------------------
# Columnar node rows and decoder fuzzing
# ----------------------------------------------------------------------

ROW_FIELDS = NodeRow._fields

JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.text(max_size=6),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=8,
)


def _v1_rows(result):
    """A result's rows the way protocol 1 sent them: one object each."""
    return [dict(zip(ROW_FIELDS, row)) for row in result.nodes]


@pytest.fixture(scope="module")
def encoded_results() -> list[dict]:
    """Valid encoded results of every operation on the Figure-1 tree,
    each with its rows in protocol 1's shape under ``"v1_rows"``."""
    encoded = []
    with CrimsonStore.open() as store:
        store.trees.store_tree(sample_tree(), f=2)
        for make in TestResultRoundTrip.REQUESTS.values():
            result = store.query(make("fig1-sample"))
            payload = over_json(wire.encode_result(result))
            payload["v1_rows"] = _v1_rows(result)
            encoded.append(payload)
    return encoded


@st.composite
def mutated_results(draw, bases: list[dict]):
    """One of ``bases`` with one structural mutation applied."""
    payload = dict(draw(st.sampled_from(bases)))
    v1_rows = payload.pop("v1_rows")
    nodes = dict(payload["nodes"])
    mutation = draw(
        st.sampled_from(
            [
                "nodes_any",
                "nodes_v1",
                "drop_column",
                "extra_column",
                "column_not_list",
                "column_length",
                "top_drop",
                "top_any",
                "request_any",
                "projection_any",
            ]
        )
    )
    if mutation == "nodes_any":
        payload["nodes"] = draw(JSON_VALUES)
    elif mutation == "nodes_v1":
        payload["nodes"] = v1_rows
    elif mutation == "drop_column":
        del nodes[draw(st.sampled_from(ROW_FIELDS))]
        payload["nodes"] = nodes
    elif mutation == "extra_column":
        nodes[draw(st.text(max_size=8))] = draw(JSON_VALUES)
        payload["nodes"] = nodes
    elif mutation == "column_not_list":
        nodes[draw(st.sampled_from(ROW_FIELDS))] = draw(
            JSON_VALUES.filter(lambda value: not isinstance(value, list))
        )
        payload["nodes"] = nodes
    elif mutation == "column_length":
        field = draw(st.sampled_from(ROW_FIELDS))
        nodes[field] = nodes[field] + draw(
            st.lists(JSON_VALUES, min_size=1, max_size=3)
        )
        payload["nodes"] = nodes
    elif mutation == "top_drop":
        del payload[draw(st.sampled_from(sorted(payload)))]
    elif mutation == "top_any":
        payload[draw(st.sampled_from(sorted(payload)))] = draw(JSON_VALUES)
    elif mutation == "projection_any":
        payload["projection"] = {
            "newick": draw(st.text(alphabet="(),;:ab1.' ", max_size=12)),
            "name": draw(JSON_VALUES),
        }
    else:
        request = dict(payload["request"])
        request[draw(st.sampled_from(sorted(request)))] = draw(JSON_VALUES)
        payload["request"] = request
    return mutation, payload


class TestColumnarNodeRows:
    def test_is_leaf_decodes_as_bool(self, stored_store):
        result = stored_store.query(QueryRequest.clade("fig1-sample", "Lla"))
        nodes = over_json(wire.encode_node_rows(result.nodes))
        nodes["is_leaf"] = [1 if flag else 0 for flag in nodes["is_leaf"]]
        decoded = wire.decode_node_rows(nodes)
        assert decoded == result.nodes
        assert all(type(row.is_leaf) is bool for row in decoded)

    @pytest.mark.parametrize(
        "nodes, message",
        [
            ([], "JSON object of columns"),
            ("rows", "JSON object of columns"),
            ({}, "missing the 'node_id' field"),
            (
                {field: [] for field in ROW_FIELDS} | {"depth": 0},
                "'depth' must be a list",
            ),
            (
                {field: [] for field in ROW_FIELDS} | {"name": ["a"]},
                "differ in length",
            ),
        ],
    )
    def test_malformed_columns_are_protocol_errors(self, nodes, message):
        with pytest.raises(ProtocolError, match=message):
            wire.decode_node_rows(nodes)

    def test_protocol_1_row_objects_are_protocol_errors(self, stored_store):
        """A v1 peer's list of row objects fails typed, never misread."""
        result = stored_store.query(
            QueryRequest.clade("fig1-sample", "Lla", "Spy")
        )
        payload = over_json(wire.encode_result(result))
        payload["nodes"] = _v1_rows(result)
        with pytest.raises(ProtocolError):
            wire.decode_result(payload)
        payload["protocol"] = 1
        payload["request"]["protocol"] = 1
        with pytest.raises(ProtocolError, match="speaks protocol 1"):
            wire.decode_result(payload)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(data=st.data())
    def test_decode_result_raises_only_typed_errors(
        self, encoded_results, data
    ):
        mutation, payload = data.draw(mutated_results(encoded_results))
        try:
            decoded = wire.decode_result(over_json(payload))
        except (ProtocolError, QueryError):
            return
        # Only mutations that leave a well-formed result may decode.
        assert mutation in (
            "extra_column",
            "top_any",
            "top_drop",
            "request_any",
            "projection_any",
        )
        assert isinstance(decoded, QueryResult)

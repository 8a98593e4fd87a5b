"""Golden wire frames: the exact bytes of every ``QueryResult`` shape.

Each case runs one operation against the Figure-1 tree, pins
``duration_ms`` (the only non-deterministic field), and compares the
encoded result — serialized the way :func:`repro.server.protocol.write_frame`
serializes it — byte for byte with a committed frame.  Any change to
the codec, the row layout, or the protocol stamp therefore shows up
here as a reviewed diff, not as a silent change on the wire.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.storage import wire
from repro.storage.api import OPERATIONS, QueryRequest
from repro.storage.store import CrimsonStore
from repro.trees.build import sample_tree

TREE = "fig1-sample"

REQUESTS = {
    "lca": QueryRequest.lca(TREE, "Lla", "Syn"),
    "lca_batch": QueryRequest.lca_batch(TREE, [("Lla", "Spy"), ("Bha", "Syn")]),
    "clade": QueryRequest.clade(TREE, "Lla", "Spy"),
    "project": QueryRequest.project(TREE, "Lla", "Syn", "Bha"),
    "match": QueryRequest.match(TREE, "(Lla,Spy);"),
}

_NO_ROWS = (
    '"nodes":{"node_id":[],"parent_id":[],"child_order":[],"name":[],'
    '"edge_length":[],"depth":[],"dist_from_root":[],"pre_order_end":[],'
    '"is_leaf":[]}'
)

GOLDEN = {
    "lca": (
        '{"request":{"operation":"lca","tree":"fig1-sample",'
        '"taxa":["Lla","Syn"],"pairs":[],"pattern":null,"ordered":true,'
        '"protocol":2},"duration_ms":1.25,'
        '"nodes":{"node_id":[0],"parent_id":[null],"child_order":[0],'
        '"name":["R"],"edge_length":[0.0],"depth":[0],'
        '"dist_from_root":[0.0],"pre_order_end":[7],"is_leaf":[false]},'
        '"projection":null,"matched":null,"similarity":null,"protocol":2}'
    ),
    "lca_batch": (
        '{"request":{"operation":"lca_batch","tree":"fig1-sample",'
        '"taxa":[],"pairs":[["Lla","Spy"],["Bha","Syn"]],"pattern":null,'
        '"ordered":true,"protocol":2},"duration_ms":1.25,'
        '"nodes":{"node_id":[3,0],"parent_id":[2,null],'
        '"child_order":[1,0],"name":["x","R"],"edge_length":[0.5,0.0],'
        '"depth":[2,0],"dist_from_root":[1.25,0.0],"pre_order_end":[5,7],'
        '"is_leaf":[false,false]},'
        '"projection":null,"matched":null,"similarity":null,"protocol":2}'
    ),
    "clade": (
        '{"request":{"operation":"clade","tree":"fig1-sample",'
        '"taxa":["Lla","Spy"],"pairs":[],"pattern":null,"ordered":true,'
        '"protocol":2},"duration_ms":1.25,'
        '"nodes":{"node_id":[3,4,5],"parent_id":[2,3,3],'
        '"child_order":[1,1,2],"name":["x","Lla","Spy"],'
        '"edge_length":[0.5,1.0,1.0],"depth":[2,3,3],'
        '"dist_from_root":[1.25,2.25,2.25],"pre_order_end":[5,4,5],'
        '"is_leaf":[false,true,true]},'
        '"projection":null,"matched":null,"similarity":null,"protocol":2}'
    ),
    "project": (
        '{"request":{"operation":"project","tree":"fig1-sample",'
        '"taxa":["Lla","Syn","Bha"],"pairs":[],"pattern":null,'
        '"ordered":true,"protocol":2},"duration_ms":1.25,'
        + _NO_ROWS
        + ',"projection":{"newick":"(Syn:2.5,(Lla:1.5,Bha:1.5)A:0.75)R;",'
        '"name":null},"matched":null,"similarity":null,"protocol":2}'
    ),
    "match": (
        '{"request":{"operation":"match","tree":"fig1-sample","taxa":[],'
        '"pairs":[],"pattern":"(Lla,Spy);","ordered":true,"protocol":2},'
        '"duration_ms":1.25,'
        + _NO_ROWS
        + ',"projection":{"newick":"(Lla:1.0,Spy:1.0)x;","name":null},'
        '"matched":true,"similarity":1.0,"protocol":2}'
    ),
}


def frame_text(payload) -> str:
    """Serialize a payload exactly as the line framing does."""
    return json.dumps(payload, ensure_ascii=False, separators=(",", ":"))


@pytest.fixture(scope="module")
def store():
    with CrimsonStore.open() as store:
        store.trees.store_tree(sample_tree(), f=2)
        yield store


def test_goldens_cover_every_operation():
    assert set(GOLDEN) == set(REQUESTS) == set(OPERATIONS)


@pytest.mark.parametrize("operation", sorted(REQUESTS))
def test_result_frame_is_byte_identical(store, operation):
    result = dataclasses.replace(
        store.query(REQUESTS[operation]), duration_ms=1.25
    )
    assert frame_text(wire.encode_result(result)) == GOLDEN[operation]

"""The layered LCA walk: lookups bounded by layers, answers on every path.

:func:`repro.core.hindex.layered_lca` is the one walk behind both
:class:`~repro.core.hindex.HierarchicalIndex` and
:class:`~repro.storage.tree_repository.StoredTree`.  These tests pin its
cost — a warm far pair reads the index a bounded number of times per
*layer*, not once per block (``O(depth / f)``) and not ``2^layers`` —
and extend the differential oracle (naive == in-memory layered ==
stored == remote) to random shapes whose LCA paths cross block
boundaries at every layer.
"""

from __future__ import annotations

import inspect
import itertools
import random
import sys
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.hindex import HierarchicalIndex, LayerOps, layered_lca
from repro.server import CrimsonServer, RemoteSession
from repro.storage.api import QueryRequest
from repro.storage.store import CrimsonStore
from repro.trees.build import balanced, caterpillar
from repro.trees.node import Node
from repro.trees.traversal import naive_lca
from repro.trees.tree import PhyloTree

LOOKUPS_PER_LAYER = 12
"""``c`` in "a warm far pair makes at most ``c · n_layers`` index reads".

Per layer climbed, each side reads its block and the representative one
layer up (4 reads); per layer come down, each side reads one label step,
the block that step represents and its source (6), and the layer's LCA
is one more read: 11.  The last unit covers the meeting layer's LCA and
the two canonical inodes the stored walk starts from."""

# ``f = 1`` cuts one level per layer, so a caterpillar has as many layers
# as leaves and Θ(n²) index rows: 150 leaves (149 layers) keeps the
# index small while any per-layer doubling would still be astronomic.
SHAPES = [
    pytest.param(caterpillar(1000), 8, id="caterpillar1000-f8"),
    pytest.param(caterpillar(1000), 2, id="caterpillar1000-f2"),
    pytest.param(caterpillar(150), 1, id="caterpillar150-f1"),
    pytest.param(balanced(10), 8, id="balanced10-f8"),
    pytest.param(balanced(10), 2, id="balanced10-f2"),
    pytest.param(balanced(10), 1, id="balanced10-f1"),
]


def _far_pairs(tree: PhyloTree, f: int) -> list[tuple[str, str]]:
    """The first and last leaf (LCA at the root); for ``f >= 2`` also
    pairs whose LCA sits lower (mid-spine on a caterpillar), whose
    walks cross block boundaries on the way down."""
    leaves = tree.leaf_names()
    n = len(leaves)
    pairs = [(leaves[0], leaves[-1])]
    if f >= 2:
        pairs += [(leaves[1], leaves[-1]), (leaves[n // 2], leaves[-1])]
    return pairs


def _index_lookups(handle) -> int:
    stats = handle.cache_stats()
    return sum(
        stats[name].lookups
        for name in ("canonical", "inodes", "inode_at", "blocks")
    )


class _CountingOps:
    """Wraps a :class:`LayerOps` so every table read is counted."""

    def __init__(self, ops: LayerOps) -> None:
        self.reads = 0

        def counted(read):
            def wrapper(*args):
                self.reads += 1
                return read(*args)

            return wrapper

        self.ops = replace(
            ops,
            rep=counted(ops.rep),
            source=counted(ops.source),
            represents=counted(ops.represents),
            at=counted(ops.at),
        )


class TestLookupsBoundedByLayers:
    @pytest.mark.parametrize("tree, f", SHAPES)
    def test_stored_warm_far_pair(self, tree, f):
        with CrimsonStore.open() as store:
            handle = store.trees.store_tree(tree, name="deep", f=f)
            layers = handle.info.n_layers
            for a, b in _far_pairs(tree, f):
                expected = naive_lca(tree.find(a), tree.find(b))
                handle.lca(a, b)  # warm
                before = _index_lookups(handle)
                with store.db.count_statements() as counter:
                    row = handle.lca(a, b)
                assert counter.count == 0
                assert row.name == expected.name
                lookups = _index_lookups(handle) - before
                assert lookups <= LOOKUPS_PER_LAYER * layers, (a, b, lookups)

    @pytest.mark.parametrize("tree, f", SHAPES)
    def test_in_memory_far_pair(self, tree, f):
        index = HierarchicalIndex(tree, f)
        for a, b in _far_pairs(tree, f):
            node_a, node_b = tree.find(a), tree.find(b)
            counting = _CountingOps(index.walk_ops)
            result = layered_lca(
                counting.ops, index.inode_of(node_a), index.inode_of(node_b)
            )
            assert index.inode_orig[result] is naive_lca(node_a, node_b)
            assert counting.reads <= LOOKUPS_PER_LAYER * index.n_layers, (
                a, b, counting.reads,
            )

    def test_walk_depth_is_not_bounded_by_the_recursion_limit(self):
        """``f = 1`` has one layer per level, and a mid-spine pair's
        demands climb many layers; the walk and those demands run on
        explicit stacks, so a few dozen frames of headroom suffice for
        149 layers."""
        tree = caterpillar(150)
        index = HierarchicalIndex(tree, 1)
        a, b = tree.find("t20"), tree.find("t150")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack()) + 50)
        try:
            result = index.lca(a, b)
        finally:
            sys.setrecursionlimit(limit)
        assert result is naive_lca(a, b)


# ----------------------------------------------------------------------
# Differential: naive == in-memory layered == stored == remote
# ----------------------------------------------------------------------


@st.composite
def spined_trees(draw, max_nodes: int = 90):
    """Named trees from bushy to path-like: each new node hangs off the
    newest node with probability ``spine``, else off a random one."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    spine = draw(st.sampled_from([0.0, 0.5, 0.85, 0.97]))
    seed = draw(st.integers(min_value=0, max_value=2**31))
    rng = random.Random(seed)
    root = Node("n0")
    nodes = [root]
    for index in range(1, n):
        parent = nodes[-1] if rng.random() < spine else rng.choice(nodes)
        child = Node(f"n{index}", 1.0)
        parent.add_child(child)
        nodes.append(child)
    return PhyloTree(root, name="walk")


def _deepest(node: Node) -> Node:
    while node.children:
        node = node.children[-1]
    return node


def _boundary_pairs(index: HierarchicalIndex) -> list[tuple[Node, Node]]:
    """Pairs whose path enters the LCA block exactly at a boundary node.

    For every split layer-0 block, take the boundary node ``u`` (its
    source) and a deep descendant ``a`` below it; pair ``a`` with ``u``
    itself, with ``u``'s parent and siblings (LCA one above the
    boundary) and with ``u``'s other children (LCA at the boundary).
    """
    pairs = []
    for block, source in enumerate(index.block_source_inode):
        if source is None or index.block_layer[block] != 0:
            continue
        u = index.inode_orig[source]
        a = _deepest(u)
        pairs.append((a, u))
        if u.parent is not None:
            pairs += [(a, _deepest(s)) for s in u.parent.children if s is not u]
            pairs.append((a, u.parent))
        pairs += [(a, _deepest(c)) for c in u.children[:-1]]
    return pairs


@pytest.fixture(scope="module")
def served(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("walk") / "walk.db")
    with CrimsonStore.open(path, readers=2) as store:
        with CrimsonServer(store, port=0) as server:
            host, port = server.address
            with RemoteSession(host, port) as remote:
                yield store, remote


_names = itertools.count()


@settings(
    max_examples=30,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    tree=spined_trees(),
    f=st.sampled_from([1, 2, 3, 8]),
    seed=st.integers(0, 2**31),
)
def test_walk_agrees_on_boundary_paths(served, tree, f, seed):
    store, remote = served
    name = f"walk{next(_names)}"
    handle = store.trees.store_tree(tree, name=name, f=f)
    index = HierarchicalIndex(tree, f)
    nodes = list(tree.preorder())
    rng = random.Random(seed)
    pairs = _boundary_pairs(index)
    pairs += [(rng.choice(nodes), rng.choice(nodes)) for _ in range(20)]

    expected = [naive_lca(a, b) for a, b in pairs]
    assert [index.lca(a, b) for a, b in pairs] == expected
    named = [(a.name, b.name) for a, b in pairs]
    stored = [handle.lca(a, b) for a, b in named]
    assert [row.name for row in stored] == [node.name for node in expected]
    assert handle.lca_batch(named) == stored
    through_wire = remote.query(QueryRequest.lca_batch(name, named)).nodes
    assert list(through_wire) == stored

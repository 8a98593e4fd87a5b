"""Unit tests for the Tree Repository and SQL-backed queries."""

from __future__ import annotations

import random

import pytest

from repro.errors import QueryError, StorageError
from repro.storage.schema import TABLE_COLUMNS
from repro.storage.tree_repository import NodeRow, TreeRepository
from repro.trees.build import balanced, caterpillar, sample_tree
from repro.trees.traversal import naive_lca


@pytest.fixture
def repo(db):
    return TreeRepository(db)


@pytest.fixture
def stored(repo, fig1):
    return repo.store_tree(fig1, f=2)


class TestStoreAndCatalogue:
    def test_store_returns_handle(self, stored):
        assert stored.info.name == "fig1-sample"
        assert stored.info.n_nodes == 8
        assert stored.info.n_leaves == 5
        assert stored.info.max_depth == 3
        assert stored.info.f == 2

    def test_store_requires_name(self, repo, fig1):
        fig1.name = None
        with pytest.raises(StorageError):
            repo.store_tree(fig1)

    def test_duplicate_name_rejected(self, repo, fig1, stored):
        with pytest.raises(StorageError):
            repo.store_tree(fig1)

    def test_info_unknown_raises(self, repo):
        with pytest.raises(StorageError):
            repo.info("ghost")

    def test_list_trees(self, repo, fig1, stored):
        repo.store_tree(balanced(3), name="balanced")
        names = [info.name for info in repo.list_trees()]
        assert names == ["balanced", "fig1-sample"]

    def test_delete_tree(self, repo, db, stored):
        repo.delete_tree("fig1-sample")
        assert repo.list_trees() == []
        for table in ("nodes", "blocks", "inodes"):
            row = db.query_one(f"SELECT COUNT(*) AS n FROM {table}")
            assert row["n"] == 0

    def test_delete_unknown_raises(self, repo):
        with pytest.raises(StorageError):
            repo.delete_tree("ghost")

    def test_open(self, repo, stored):
        handle = repo.open("fig1-sample")
        assert handle.info.tree_id == stored.info.tree_id

    def test_index_metadata_recorded(self, stored):
        assert stored.info.n_layers == 2
        assert stored.info.n_blocks == 3  # two layer-0 + one layer-1


class TestNodeAccess:
    def test_node_row_fields_are_the_nodes_columns_in_order(self):
        # StoredTree._node_row builds rows by position from SELECT *.
        assert TABLE_COLUMNS["nodes"] == ("tree_id", *NodeRow._fields)

    def test_node_row_is_an_immutable_hashable_tuple(self, stored):
        row = stored.node_by_name("Lla")
        assert isinstance(row, tuple)
        assert type(row.is_leaf) is bool and row.is_leaf
        assert row == stored.node_by_name("Lla")
        assert hash(row) == hash(stored.node_by_name("Lla"))
        with pytest.raises(AttributeError):
            row.name = "renamed"  # type: ignore[misc]
        assert row.subtree_interval == (row.node_id, row.pre_order_end)
        assert row.contains(row.node_id)

    def test_root(self, stored):
        root = stored.root()
        assert root.name == "R"
        assert root.parent_id is None
        assert root.depth == 0

    def test_node_by_name(self, stored):
        row = stored.node_by_name("Lla")
        assert row.is_leaf
        assert row.dist_from_root == pytest.approx(2.25)
        assert row.depth == 3

    def test_unknown_name_raises(self, stored):
        with pytest.raises(QueryError):
            stored.node_by_name("ghost")

    def test_unknown_id_raises(self, stored):
        with pytest.raises(QueryError):
            stored.node(999)

    def test_leaves_in_preorder(self, stored):
        assert [row.name for row in stored.leaves()] == [
            "Syn",
            "Lla",
            "Spy",
            "Bha",
            "Bsu",
        ]

    def test_leaf_names(self, stored):
        assert stored.leaf_names() == ["Syn", "Lla", "Spy", "Bha", "Bsu"]

    def test_children_in_order(self, stored):
        root = stored.root()
        children = stored.children(root.node_id)
        assert [row.name for row in children] == ["Syn", "A", "Bsu"]
        assert [row.child_order for row in children] == [1, 2, 3]

    def test_subtree_interval(self, stored):
        x = stored.node_by_name("x")
        low, high = x.subtree_interval
        assert high - low + 1 == 3  # x, Lla, Spy


class TestSqlLca:
    def test_paper_walkthrough(self, stored):
        assert stored.lca("Lla", "Syn").name == "R"
        assert stored.lca("Lla", "Spy").name == "x"

    def test_by_id(self, stored):
        lla = stored.node_by_name("Lla")
        spy = stored.node_by_name("Spy")
        assert stored.lca(lla.node_id, spy.node_id).name == "x"

    def test_matches_in_memory_on_random_trees(self, repo, random_tree_factory):
        for seed in range(4):
            tree = random_tree_factory(50, seed, name_prefix=f"s{seed}n")
            handle = repo.store_tree(tree, name=f"random-{seed}", f=2 + seed)
            nodes = list(tree.preorder())
            rng = random.Random(seed)
            for _ in range(30):
                a, b = rng.choice(nodes), rng.choice(nodes)
                expected = naive_lca(a, b)
                assert handle.lca(a.name, b.name).name == expected.name

    def test_lca_many(self, stored):
        assert stored.lca_many(["Lla", "Spy", "Bha"]).name == "A"
        assert stored.lca_many(["Lla"]).name == "Lla"

    def test_lca_many_empty_raises(self, stored):
        with pytest.raises(QueryError):
            stored.lca_many([])

    def test_is_ancestor_or_self(self, stored):
        assert stored.is_ancestor_or_self("A", "Spy")
        assert stored.is_ancestor_or_self("Spy", "Spy")
        assert not stored.is_ancestor_or_self("Spy", "A")

    def test_deep_tree_lca(self, repo):
        tree = caterpillar(300)
        handle = repo.store_tree(tree, name="deep", f=4)
        assert handle.lca("t1", "t300").depth == 0
        # t299 and t300 hang off the deepest interior node.
        assert handle.lca("t299", "t300").depth == 298


class TestCladeAndFrontier:
    def test_clade(self, stored):
        names = [row.name for row in stored.clade(["Lla", "Bha"])]
        assert names == ["A", "x", "Lla", "Spy", "Bha"]

    def test_leaves_in_subtree(self, stored):
        x = stored.node_by_name("x")
        assert [row.name for row in stored.leaves_in_subtree(x.node_id)] == [
            "Lla",
            "Spy",
        ]

    def test_count_leaves(self, stored):
        a = stored.node_by_name("A")
        assert stored.count_leaves_in_subtree(a.node_id) == 3

    def test_time_frontier_matches_paper(self, stored):
        names = {row.name for row in stored.time_frontier(1.0)}
        assert names == {"Bha", "x", "Syn", "Bsu"}

    def test_frontier_beyond_tree_is_empty(self, stored):
        assert stored.time_frontier(100.0) == []

    def test_frontier_at_zero_is_root_children(self, stored):
        names = {row.name for row in stored.time_frontier(0.0)}
        assert names == {"Syn", "A", "Bsu"}


class TestMaterialization:
    def test_fetch_tree_roundtrip(self, stored, fig1):
        assert stored.fetch_tree().to_newick() == fig1.to_newick()

    def test_fetch_subtree(self, stored):
        x = stored.node_by_name("x")
        subtree = stored.fetch_subtree(x.node_id)
        assert subtree.root.name == "x"
        assert sorted(subtree.leaf_names()) == ["Lla", "Spy"]

    def test_fetch_preserves_child_order(self, repo):
        tree = balanced(3)
        handle = repo.store_tree(tree, name="b3")
        assert handle.fetch_tree().to_newick() == tree.to_newick()

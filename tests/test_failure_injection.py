"""Failure injection: corrupted stores, closed handles, bad files.

A data management system must fail loudly and specifically, not return
wrong answers.  These tests damage the relational store in targeted
ways and assert every corruption surfaces as :class:`StorageError`
(never a silent wrong result), and that OS-level problems propagate
sanely.
"""

from __future__ import annotations

import pytest

from repro.errors import CrimsonError, ParseError, QueryError, StorageError
from repro.storage.database import CrimsonDatabase
from repro.storage.loader import DataLoader
from repro.storage.projection import project_stored
from repro.storage.query_repository import QueryRepository
from repro.storage.species_repository import SpeciesRepository
from repro.storage.tree_repository import TreeRepository


@pytest.fixture
def stored(db, fig1):
    return TreeRepository(db).store_tree(fig1, f=2)


class TestIndexCorruption:
    def test_missing_canonical_inode(self, db, stored):
        lla = stored.node_by_name("Lla")
        db.execute(
            "DELETE FROM inodes WHERE orig_node_id = ? AND is_canonical = 1",
            (lla.node_id,),
        )
        with pytest.raises(StorageError, match="canonical"):
            stored.lca("Lla", "Syn")

    def test_missing_block_row(self, db, stored):
        db.execute("DELETE FROM blocks WHERE block_id = 1")
        with pytest.raises(StorageError):
            stored.lca("Lla", "Syn")

    def test_missing_rep_inode(self, db, stored):
        db.execute("UPDATE blocks SET rep_inode_id = NULL WHERE layer = 0")
        with pytest.raises(StorageError, match="rep"):
            stored.lca("Lla", "Syn")

    def test_broken_source_chain(self, db, stored):
        db.execute(
            "UPDATE blocks SET source_inode_id = NULL WHERE source_inode_id "
            "IS NOT NULL AND layer = 0"
        )
        with pytest.raises(StorageError):
            stored.lca("Lla", "Syn")

    def test_cyclic_rep_chain(self, db, stored):
        # Each layer-0 block "represented" by a layer-0 inode of the
        # other: a climb that trusted rep pointers would never end.
        db.execute(
            "UPDATE blocks SET rep_inode_id = CASE block_id "
            "WHEN 0 THEN 6 ELSE 0 END WHERE layer = 0"
        )
        with pytest.raises(StorageError, match="not one layer up"):
            stored.lca("Lla", "Syn")

    def test_source_pointing_into_its_own_block(self, db, stored):
        # Block 1 hangs off one of its own inodes, so Lla's ancestor
        # never reaches the LCA block.
        db.execute("UPDATE blocks SET source_inode_id = 7 WHERE block_id = 1")
        with pytest.raises(StorageError, match="different blocks"):
            stored.lca("Lla", "Syn")

    def test_missing_prefix_inode(self, db, stored):
        # Remove the inode the common-prefix lookup lands on (the root ε).
        db.execute(
            "DELETE FROM inodes WHERE local_label = '' AND layer = 0 "
            "AND block_id = 0"
        )
        with pytest.raises(StorageError):
            stored.lca("Syn", "Bsu")

    def test_same_block_queries_unaffected_by_other_block_damage(
        self, db, stored
    ):
        """Corruption in block 2's rows must not disturb block-1-local
        queries — locality is the point of the decomposition."""
        db.execute("DELETE FROM blocks WHERE block_id = 1")
        assert stored.lca("Syn", "Bsu").name == "R"


class TestClosedDatabase:
    def test_stored_tree_after_close(self, fig1):
        db = CrimsonDatabase()
        handle = TreeRepository(db).store_tree(fig1, f=2)
        db.close()
        with pytest.raises(StorageError, match="closed"):
            handle.node_by_name("Lla")

    def test_repositories_after_close(self, fig1):
        db = CrimsonDatabase()
        repo = TreeRepository(db)
        handle = repo.store_tree(fig1, f=2)
        species = SpeciesRepository(db)
        history = QueryRepository(db)
        db.close()
        with pytest.raises(StorageError):
            repo.list_trees()
        with pytest.raises(StorageError):
            species.count(handle)
        with pytest.raises(StorageError):
            history.recent()

    def test_projection_after_close(self, fig1):
        db = CrimsonDatabase()
        handle = TreeRepository(db).store_tree(fig1, f=2)
        db.close()
        with pytest.raises(StorageError):
            project_stored(handle, ["Lla", "Syn"])


class TestTransactionalAtomicity:
    def test_failed_store_leaves_no_partial_rows(self, db, fig1):
        """A storage failure mid-transaction must roll back everything:
        no orphan node/inode rows without a catalogue entry."""
        repo = TreeRepository(db)
        repo.store_tree(fig1, f=2)
        clone = fig1.copy()
        with pytest.raises(StorageError):
            repo.store_tree(clone)  # duplicate name → fails before writes
        trees = db.query_one("SELECT COUNT(*) AS n FROM trees")["n"]
        nodes = db.query_one(
            "SELECT COUNT(DISTINCT tree_id) AS n FROM nodes"
        )["n"]
        assert trees == nodes == 1

    def test_species_attach_is_atomic(self, db, stored):
        species = SpeciesRepository(db)
        with pytest.raises(QueryError):
            # Second row is bad → nothing may be written.
            species.attach_sequences(stored, {"Lla": "AC", "ghost": "AC"})
        assert species.count(stored) == 0


class TestBadInputFiles:
    def test_loader_on_missing_file(self, db, tmp_path):
        loader = DataLoader(db)
        # I/O failures are part of the CrimsonError hierarchy now.
        with pytest.raises(StorageError):
            loader.load_nexus_file(tmp_path / "missing.nex")

    def test_loader_on_binary_garbage(self, db, tmp_path):
        path = tmp_path / "garbage.nex"
        path.write_bytes(bytes(range(256)))
        loader = DataLoader(db)
        with pytest.raises((ParseError, UnicodeDecodeError)):
            loader.load_nexus_file(path)

    def test_loader_reports_nothing_stored_after_parse_error(self, db):
        loader = DataLoader(db)
        with pytest.raises(ParseError):
            loader.load_nexus_text("#NEXUS\nBEGIN TREES;\nTREE t = ((a,b);\nEND;\n")
        assert TreeRepository(db).list_trees() == []

    def test_all_library_errors_share_base(self):
        """Callers can catch everything with one except clause."""
        for exc in (ParseError, StorageError, QueryError):
            assert issubclass(exc, CrimsonError)

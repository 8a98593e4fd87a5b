"""The Tree Repository: relational storage and index-backed queries.

Storing a tree materializes three things in one transaction: the node
table (pre-order ids, parent pointers, depths, weighted root distances,
clade intervals), the layered-label index (``blocks``/``inodes`` rows,
one-for-one with :class:`~repro.core.hindex.HierarchicalIndex`), and the
tree's catalogue row.

Queries against a stored tree run through :class:`StoredTree`, which
answers LCA with the paper's layered algorithm *directly over SQL row
fetches* — no in-memory index is rebuilt — demonstrating the paper's
point that single queries touch only a small portion of a huge tree.
Row access is mediated by a per-handle
:class:`~repro.storage.engine.StoredQueryEngine`, which LRU-caches the
immutable block/inode/node rows and batches multi-key fetches, so the
warm path executes zero SQL statements and ``lca_batch`` resolves whole
workloads with a handful of ``IN (...)`` queries.
"""

from __future__ import annotations

import datetime as _datetime
from dataclasses import dataclass
from functools import lru_cache
from operator import itemgetter
from typing import NamedTuple, Sequence

from repro.core.dewey import DeweyLabel, label_from_string, label_to_string
from repro.core.hindex import HierarchicalIndex, LayerOps, layered_lca
from repro.core.lca import DEFAULT_LABEL_BOUND
from repro.errors import QueryError, StorageError
from repro.storage.cache import CacheStats
from repro.storage.database import CrimsonDatabase, unwrap_database
from repro.storage.engine import DEFAULT_CACHE_SIZE, StoredQueryEngine
from repro.trees.node import Node
from repro.trees.traversal import preorder_intervals
from repro.trees.tree import PhyloTree

_parse_label = lru_cache(maxsize=8192)(label_from_string)
"""Stored ``local_label`` text → label tuple; a walk re-reads the same few
hundred labels of the index skeleton, so parses are memoised."""


class NodeRow(NamedTuple):
    """One row of the ``nodes`` table (a node's structural facts).

    A named tuple whose fields are the table's columns after
    ``tree_id``, in DDL order, so :meth:`StoredTree._node_row` builds it
    by position from a ``SELECT *`` row and the wire codec ships it as
    one array per field.
    """

    node_id: int
    parent_id: int | None
    child_order: int
    name: str | None
    edge_length: float
    depth: int
    dist_from_root: float
    pre_order_end: int
    is_leaf: bool

    @property
    def subtree_interval(self) -> tuple[int, int]:
        """Pre-order interval ``[node_id, pre_order_end]`` of the clade."""
        return (self.node_id, self.pre_order_end)

    def contains(self, node_id: int) -> bool:
        """Ancestor-or-self test: is ``node_id`` inside this clade?"""
        return self.node_id <= node_id <= self.pre_order_end


@dataclass(frozen=True)
class TreeInfo:
    """Catalogue row of a stored tree.

    ``shard`` names the database file holding the tree's
    ``nodes``/``inodes``/``blocks`` rows; ``0`` is the primary file
    (the only value single-file and pre-sharding stores ever record).
    """

    tree_id: int
    name: str
    n_nodes: int
    n_leaves: int
    max_depth: int
    f: int
    n_layers: int
    n_blocks: int
    created_at: str
    description: str
    shard: int = 0

    @property
    def node_count(self) -> int:
        """Total stored nodes (spelled-out alias of ``n_nodes``)."""
        return self.n_nodes

    @property
    def leaf_count(self) -> int:
        """Stored leaves, i.e. species (alias of ``n_leaves``)."""
        return self.n_leaves


class TreeRepository:
    """Stores and serves phylogenetic trees of one Crimson store.

    Parameters
    ----------
    owner:
        The owning :class:`~repro.storage.store.CrimsonStore` (reach it
        as ``store.trees`` rather than constructing one).  Passing a raw
        :class:`CrimsonDatabase` is deprecated but still works.
    cache_size:
        Per-cache row bound applied to every :class:`StoredTree` handle
        this repository creates (see :mod:`repro.storage.engine` for
        sizing guidance).  ``None`` uses the engine default.
    """

    def __init__(self, owner, cache_size: int | None = None) -> None:
        self.db = unwrap_database(owner, "TreeRepository")
        self.cache_size = (
            cache_size if cache_size is not None else DEFAULT_CACHE_SIZE
        )
        # A store owner gets told when the catalogue mutates, so its
        # per-thread cached handles revalidate (see CrimsonStore.open_tree).
        self._notify_catalogue_change = getattr(
            owner, "_bump_catalogue_epoch", None
        )
        # A store owner also routes tree data to shard databases; raw
        # databases (and the facade) keep the single-file layout.
        self._router = (
            owner
            if hasattr(owner, "shard_database") and hasattr(owner, "place_tree")
            else None
        )

    # ------------------------------------------------------------------
    # Shard routing
    # ------------------------------------------------------------------

    def _data_database(self, shard: int) -> CrimsonDatabase:
        """Writer connection holding a tree's data rows."""
        if self._router is None:
            return self.db
        return self._router.shard_database(shard)

    def _has_allocator(self) -> bool:
        """Has this file ever allocated ids through the ``meta`` counter?

        Sharded stores always have; on such a file even the deprecated
        raw-database path must keep using the counter, because
        AUTOINCREMENT cannot know about ids a failed cross-file load
        burned without a catalogue row (re-issuing one would let a new
        tree collide with orphaned shard rows).
        """
        return (
            self.db.query_one(
                "SELECT 1 FROM meta WHERE key = 'next_tree_id'"
            )
            is not None
        )

    def _allocate_tree_id(self) -> int:
        """Reserve a catalogue id without inserting the catalogue row.

        Cross-file placement writes a tree's data rows *before* its
        catalogue row (so readers never see a catalogued tree whose rows
        are still in flight), which means the id must exist before the
        ``trees`` insert.  The counter in ``meta`` is monotonic and never
        re-issues an id — even after the highest-numbered tree is
        deleted — so orphaned data rows from a failed load can never
        collide with a later tree.
        """
        with self.db.transaction() as connection:
            row = connection.execute(
                "SELECT value FROM meta WHERE key = 'next_tree_id'"
            ).fetchone()
            highest = connection.execute(
                "SELECT COALESCE(MAX(tree_id), 0) FROM trees"
            ).fetchone()[0]
            tree_id = max(int(row[0]) if row is not None else 1, highest + 1)
            connection.execute(
                "INSERT OR REPLACE INTO meta(key, value) "
                "VALUES ('next_tree_id', ?)",
                (str(tree_id + 1),),
            )
        return tree_id

    # ------------------------------------------------------------------
    # Loading
    # ------------------------------------------------------------------

    def store_tree(
        self,
        tree: PhyloTree,
        name: str | None = None,
        f: int = DEFAULT_LABEL_BOUND,
        description: str = "",
    ) -> "StoredTree":
        """Persist ``tree`` with its layered index and return a handle.

        Parameters
        ----------
        tree:
            The tree to store (not modified).
        name:
            Repository key; defaults to ``tree.name``.
        f:
            Label bound for the hierarchical index.
        description:
            Free-text note recorded in the catalogue.

        Raises
        ------
        StorageError
            If no name is available or the name is already taken.
        """
        key = name or tree.name
        if not key:
            raise StorageError("a stored tree needs a name")
        if self.db.query_one("SELECT 1 FROM trees WHERE name = ?", (key,)):
            raise StorageError(f"a tree named {key!r} is already stored")

        index = HierarchicalIndex(tree, f)
        intervals = preorder_intervals(tree)
        depths = tree.depths()
        distances = tree.distances_from_root()

        order: list[Node] = list(tree.preorder())
        rank = {id(node): position for position, node in enumerate(order)}

        shard = self._router.place_tree() if self._router is not None else 0
        data_db = self._data_database(shard)
        catalogue = (
            key,
            len(order),
            sum(1 for node in order if not node.children),
            max(depths.values()),
            f,
            index.n_layers,
            index.n_blocks(),
            _datetime.datetime.now(_datetime.timezone.utc).isoformat(),
            description,
            shard,
        )

        def insert_rows(connection, tree_id: int) -> None:
            self._insert_tree_rows(
                connection, tree_id, order, rank, index, intervals,
                depths, distances,
            )

        if self._router is None and not self._has_allocator():
            # Legacy raw-database repositories on never-sharded files:
            # the catalogue row and the data rows commit in one
            # transaction, with sqlite's AUTOINCREMENT assigning the
            # id — the pre-sharding behaviour, byte for byte.
            with self.db.transaction() as connection:
                cursor = connection.execute(
                    """
                    INSERT INTO trees
                        (name, n_nodes, n_leaves, max_depth, f, n_layers,
                         n_blocks, created_at, description, shard)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    catalogue,
                )
                tree_id = cursor.lastrowid
                assert tree_id is not None
                insert_rows(connection, tree_id)
        elif data_db is self.db:
            # Primary placement (single-file stores, shard 0, and the
            # raw-database path on a file carrying an allocator): still
            # one atomic transaction, but under an allocator id so this
            # row can never collide with an id reserved by a concurrent
            # (or crashed) load on another shard — AUTOINCREMENT only
            # knows about ids that reached the ``trees`` table.
            tree_id = self._allocate_tree_id()
            with self.db.transaction() as connection:
                connection.execute(
                    """
                    INSERT INTO trees
                        (tree_id, name, n_nodes, n_leaves, max_depth, f,
                         n_layers, n_blocks, created_at, description, shard)
                    VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                    """,
                    (tree_id, *catalogue),
                )
                insert_rows(connection, tree_id)
        else:
            # Cross-file placement: data rows commit into the shard
            # first (under a pre-allocated id), the catalogue row last —
            # a reader can never resolve a catalogue row whose shard
            # rows are missing.  If the catalogue insert fails, the
            # shard rows are purged (and, being uncatalogued under a
            # never-reused id, are invisible garbage even if the purge
            # itself fails mid-crash).
            tree_id = self._allocate_tree_id()
            with data_db.transaction() as connection:
                insert_rows(connection, tree_id)
            try:
                with self.db.transaction() as connection:
                    connection.execute(
                        """
                        INSERT INTO trees
                            (tree_id, name, n_nodes, n_leaves, max_depth, f,
                             n_layers, n_blocks, created_at, description,
                             shard)
                        VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
                        """,
                        (tree_id, *catalogue),
                    )
            except BaseException:
                self._purge_data_rows(data_db, tree_id)
                raise

        return StoredTree(data_db, self.info(key), cache_size=self.cache_size)

    @staticmethod
    def _insert_tree_rows(
        connection, tree_id, order, rank, index, intervals, depths, distances
    ) -> None:
        """Bulk-insert one tree's ``nodes``/``inodes``/``blocks`` rows."""
        node_rows = (
            (
                tree_id,
                rank[id(node)],
                rank[id(node.parent)] if node.parent is not None else None,
                node.child_order,
                node.name,
                node.length,
                depths[id(node)],
                distances[id(node)],
                intervals[id(node)][1],
                int(not node.children),
            )
            for node in order
        )
        connection.executemany(
            """
            INSERT INTO nodes
                (tree_id, node_id, parent_id, child_order, name,
                 edge_length, depth, dist_from_root, pre_order_end, is_leaf)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            node_rows,
        )

        canonical = {
            inode for inode in getattr(index, "_inode_of_node").values()
        }
        inode_rows = (
            (
                tree_id,
                inode_id,
                index.inode_layer[inode_id],
                index.inode_block[inode_id],
                label_to_string(index.inode_label[inode_id]),
                len(index.inode_label[inode_id]),
                (
                    rank[id(index.inode_orig[inode_id])]
                    if index.inode_orig[inode_id] is not None
                    else None
                ),
                index.inode_represents[inode_id],
                int(inode_id in canonical),
            )
            for inode_id in range(index.n_inodes())
        )
        connection.executemany(
            """
            INSERT INTO inodes
                (tree_id, inode_id, layer, block_id, local_label,
                 label_depth, orig_node_id, represents_block_id,
                 is_canonical)
            VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?)
            """,
            inode_rows,
        )

        block_rows = (
            (
                tree_id,
                block_id,
                index.block_layer[block_id],
                index.block_root_inode[block_id],
                index.block_source_inode[block_id],
                index.block_rep_inode[block_id],
            )
            for block_id in range(index.n_blocks())
        )
        connection.executemany(
            """
            INSERT INTO blocks
                (tree_id, block_id, layer, root_inode_id,
                 source_inode_id, rep_inode_id)
            VALUES (?, ?, ?, ?, ?, ?)
            """,
            block_rows,
        )

    @staticmethod
    def _purge_data_rows(data_db: CrimsonDatabase, tree_id: int) -> None:
        """Best-effort removal of a tree's data rows from its shard."""
        try:
            with data_db.transaction() as connection:
                for table in ("inodes", "blocks", "nodes"):
                    connection.execute(
                        f"DELETE FROM {table} WHERE tree_id = ?", (tree_id,)
                    )
        except StorageError:
            # The id is never re-issued, so leftover rows are inert.
            pass

    # ------------------------------------------------------------------
    # Catalogue
    # ------------------------------------------------------------------

    def info(self, name: str) -> TreeInfo:
        """Catalogue entry for a stored tree.

        Raises
        ------
        StorageError
            If no tree of that name is stored.
        """
        row = self.db.query_one("SELECT * FROM trees WHERE name = ?", (name,))
        if row is None:
            raise StorageError(f"no tree named {name!r} in the repository")
        return TreeInfo(
            tree_id=row["tree_id"],
            name=row["name"],
            n_nodes=row["n_nodes"],
            n_leaves=row["n_leaves"],
            max_depth=row["max_depth"],
            f=row["f"],
            n_layers=row["n_layers"],
            n_blocks=row["n_blocks"],
            created_at=row["created_at"],
            description=row["description"],
            # Read-only snapshots of pre-migration files lack the column.
            shard=row["shard"] if "shard" in row.keys() else 0,
        )

    def open(self, name: str, cache_size: int | None = None) -> "StoredTree":
        """Open a query handle on a stored tree.

        The handle binds to the database actually holding the tree's
        data rows — the shard its catalogue row names when the
        repository belongs to a sharded store, the repository's own
        connection otherwise.  ``cache_size`` overrides the repository
        default for this handle.
        """
        size = cache_size if cache_size is not None else self.cache_size
        info = self.info(name)
        return StoredTree(self._data_database(info.shard), info, cache_size=size)

    def list_trees(self) -> list[TreeInfo]:
        """All catalogue entries, ordered by name."""
        rows = self.db.query_all("SELECT name FROM trees ORDER BY name")
        return [self.info(row["name"]) for row in rows]

    def delete_tree(self, name: str) -> None:
        """Remove a stored tree and all dependent rows.

        Raises
        ------
        StorageError
            If no tree of that name is stored.
        """
        info = self.info(name)
        data_db = self._data_database(info.shard)
        if data_db is self.db:
            with self.db.transaction() as connection:
                # Explicit deletes keep the behaviour identical whether or
                # not the connection enforces foreign keys.
                for table in ("species", "inodes", "blocks", "nodes"):
                    connection.execute(
                        f"DELETE FROM {table} WHERE tree_id = ?", (info.tree_id,)
                    )
                connection.execute(
                    "DELETE FROM trees WHERE tree_id = ?", (info.tree_id,)
                )
        else:
            # Catalogue first: once the row is gone the tree is
            # unreachable, so a failure before the shard purge leaves
            # only invisible garbage (flagged by verify's orphan check),
            # never a catalogued tree with missing rows.
            with self.db.transaction() as connection:
                connection.execute(
                    "DELETE FROM species WHERE tree_id = ?", (info.tree_id,)
                )
                connection.execute(
                    "DELETE FROM trees WHERE tree_id = ?", (info.tree_id,)
                )
            with data_db.transaction() as connection:
                for table in ("inodes", "blocks", "nodes"):
                    connection.execute(
                        f"DELETE FROM {table} WHERE tree_id = ?", (info.tree_id,)
                    )
        if self._notify_catalogue_change is not None:
            self._notify_catalogue_change()

    def __repr__(self) -> str:
        return f"TreeRepository({self.db!r})"


class _IndexRows:
    """Checked reads of one stored tree's ``blocks``/``inodes`` rows.

    Every absent row or dangling reference raises
    ``StorageError("index corrupt: …")``.  The reader holds the engine,
    not the :class:`StoredTree`, so the walk ops a handle keeps (bound
    methods of this reader) form no reference cycle with the handle.
    """

    __slots__ = ("engine",)

    def __init__(self, engine: StoredQueryEngine) -> None:
        self.engine = engine

    def layer_ops(self) -> LayerOps:
        """The reads :func:`~repro.core.hindex.layered_lca` makes, rows as positions."""
        return LayerOps(
            block=itemgetter("block_id"),
            label=lambda row: _parse_label(row["local_label"]),
            rep=self.rep,
            source=self.source,
            represents=self.represents,
            at=self.inode_at,
        )

    def canonical_inode(self, node_id: int):
        row = self.engine.canonical_inode(node_id)
        if row is None:
            raise StorageError(
                f"index corrupt: no canonical inode for node {node_id}"
            )
        return row

    def inode(self, inode_id: int):
        # Only ever called to resolve block source/rep references, which
        # are index skeleton: pin them against layer-0 scans.
        row = self.engine.inode(inode_id, pin=True)
        if row is None:
            raise StorageError(f"index corrupt: missing inode {inode_id}")
        return row

    def inode_at(self, block_id: int, label: DeweyLabel):
        row = self.engine.inode_at(block_id, label_to_string(label))
        if row is None:
            raise StorageError(
                f"index corrupt: no inode at block {block_id} "
                f"label {label_to_string(label)!r}"
            )
        return row

    def block(self, block_id: int):
        row = self.engine.block(block_id)
        if row is None:
            raise StorageError(f"index corrupt: missing block {block_id}")
        return row

    def rep(self, block_id: int):
        block = self.block(block_id)
        rep = block["rep_inode_id"]
        if rep is None:
            raise StorageError("index corrupt: multi-block layer lacks reps")
        row = self.inode(rep)
        if row["layer"] != block["layer"] + 1:
            # Layers strictly increase along rep chains, so a climb
            # always ends at the single top block.
            raise StorageError(
                f"index corrupt: rep of block {block_id} is not one layer up"
            )
        return row

    def source(self, block_id: int):
        source = self.block(block_id)["source_inode_id"]
        if source is None:
            raise StorageError("index corrupt: source chain left the tree")
        return self.inode(source)

    @staticmethod
    def represents(row) -> int:
        block_id = row["represents_block_id"]
        if block_id is None:
            raise StorageError("index corrupt: upper inode without block ref")
        return block_id


class StoredTree:
    """Query handle over one stored tree; all reads go through SQL.

    Point lookups are served by a per-handle
    :class:`~repro.storage.engine.StoredQueryEngine`: stored rows are
    immutable, so the engine's LRU caches make repeated block/inode hops
    free, and its ``IN (...)`` batch fills back :meth:`lca_batch` and
    :meth:`nodes_by_name`.  ``cache_size`` bounds each row cache;
    :meth:`cache_stats` exposes the counters.
    """

    def __init__(
        self,
        db: CrimsonDatabase,
        info: TreeInfo,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.db = db
        self.info = info
        self._tree_id = info.tree_id
        self.engine = StoredQueryEngine(db, info.tree_id, cache_size)
        self._index = _IndexRows(self.engine)
        self._walk_ops = self._index.layer_ops()

    def _raise_missing(self, message: str) -> None:
        """Raise for a row lookup that found nothing.

        Distinguishes the two reasons a row can be absent: the taxon
        genuinely isn't in the tree (:class:`QueryError`), or the whole
        tree was deleted out from under this handle and its row set is
        gone (:class:`StorageError` — the delete-then-query race a
        long-lived handle can lose).  Without the probe, a stale handle
        would misreport every lookup as an unknown-taxon error.
        """
        probe = self.db.query_one(
            "SELECT 1 FROM nodes WHERE tree_id = ? LIMIT 1", (self._tree_id,)
        )
        if probe is None:
            raise StorageError(
                f"tree {self.info.name!r} (id {self._tree_id}) is no longer "
                "stored; this handle is stale — reopen it via "
                "CrimsonStore.open_tree"
            )
        raise QueryError(message)

    # ------------------------------------------------------------------
    # Row access
    # ------------------------------------------------------------------

    @staticmethod
    def _node_row(row) -> NodeRow:
        """A ``SELECT *`` row of ``nodes`` as a :class:`NodeRow`.

        Columns 1–8 are the first eight fields in order (column 0 is
        ``tree_id``); only ``is_leaf`` is converted, from 0/1 to bool.
        ``tuple.__new__`` skips the generated keyword ``__new__``, the
        larger part of the per-row cost of a range scan.
        """
        return tuple.__new__(NodeRow, row[1:9] + (bool(row[9]),))

    def node(self, node_id: int) -> NodeRow:
        """Fetch a node by pre-order id.

        Raises
        ------
        QueryError
            If the id does not exist in this tree.
        """
        row = self.engine.node_row(node_id)
        if row is None:
            self._raise_missing(
                f"no node {node_id} in tree {self.info.name!r}"
            )
        return self._node_row(row)

    def node_by_name(self, name: str) -> NodeRow:
        """Fetch a node by taxon name (index-backed point lookup).

        Raises
        ------
        QueryError
            If the name is absent.
        """
        row = self.engine.node_row_by_name(name)
        if row is None:
            self._raise_missing(
                f"no node named {name!r} in tree {self.info.name!r}"
            )
        return self._node_row(row)

    def nodes_by_name(self, names: Sequence[str]) -> list[NodeRow]:
        """Fetch many nodes by name in one batched ``IN (...)`` query.

        Returns rows in input order (duplicates allowed).

        Raises
        ------
        QueryError
            If any name is absent.
        """
        return self._resolve_rows(list(names))

    def root(self) -> NodeRow:
        """The root row (pre-order id 0)."""
        return self.node(0)

    def preorder_rows(self) -> list[NodeRow]:
        """Every node row in pre-order, through the engine's batch fetch.

        This is the scan the analytics subsystem's bipartition
        extraction rides on: cold it costs ``ceil(n / chunk)``
        ``IN (...)`` statements, and a warm repeat (``cache_size >= n``)
        costs **zero** — while the engine's segmented admission keeps
        the scan from evicting the pinned upper-layer index rows the
        point-query warm path depends on.

        Raises
        ------
        StorageError
            If the tree was deleted out from under this handle.
        """
        found = self.engine.node_rows_many(range(self.info.n_nodes))
        if len(found) != self.info.n_nodes:
            self._raise_missing(
                f"tree {self.info.name!r} is missing node rows "
                f"({len(found)} of {self.info.n_nodes})"
            )
        return [
            self._node_row(found[node_id])
            for node_id in range(self.info.n_nodes)
        ]

    def leaves(self) -> list[NodeRow]:
        """All leaf rows in pre-order."""
        rows = self.db.query_all(
            "SELECT * FROM nodes WHERE tree_id = ? AND is_leaf = 1 "
            "ORDER BY node_id",
            (self._tree_id,),
        )
        return [self._node_row(row) for row in rows]

    def leaf_names(self) -> list[str]:
        """Names of all leaves in pre-order."""
        rows = self.db.query_all(
            "SELECT name FROM nodes WHERE tree_id = ? AND is_leaf = 1 "
            "ORDER BY node_id",
            (self._tree_id,),
        )
        return [row["name"] for row in rows]

    def children(self, node_id: int) -> list[NodeRow]:
        """Child rows of a node, in child order."""
        rows = self.db.query_all(
            "SELECT * FROM nodes WHERE tree_id = ? AND parent_id = ? "
            "ORDER BY child_order",
            (self._tree_id, node_id),
        )
        return [self._node_row(row) for row in rows]

    # ------------------------------------------------------------------
    # Layered LCA over SQL
    # ------------------------------------------------------------------

    def lca(self, a: int | str, b: int | str) -> NodeRow:
        """LCA of two nodes given by id or name, via the layered index.

        Every step is an indexed point query (served from the row cache
        when warm).  The walk (:func:`~repro.core.hindex.layered_lca`)
        makes a bounded number of steps per layer — for ``f >= 2`` at
        most 11 row reads per layer climbed, the bound the admission
        estimator prices — never one per block or per level of depth.
        """
        row_a = self.node_by_name(a) if isinstance(a, str) else self.node(a)
        row_b = self.node_by_name(b) if isinstance(b, str) else self.node(b)
        return self._lca_rows(row_a, row_b)

    def _lca_rows(self, row_a: NodeRow, row_b: NodeRow) -> NodeRow:
        """LCA given both node rows (no argument re-fetching).

        When one argument is an ancestor-or-self of the other, the
        stored clade interval answers immediately; otherwise the
        layered algorithm runs over (cached) index rows.
        """
        if row_a.contains(row_b.node_id):
            return row_a
        if row_b.contains(row_a.node_id):
            return row_b
        result = layered_lca(
            self._walk_ops,
            self._index.canonical_inode(row_a.node_id),
            self._index.canonical_inode(row_b.node_id),
        )
        orig = result["orig_node_id"]
        if orig is None:
            raise StorageError("index corrupt: layer-0 LCA without original node")
        return self.node(orig)

    def _resolve_rows(self, items: Sequence[int | str]) -> list[NodeRow]:
        """Resolve a mixed id/name sequence to rows with batched fetches."""
        names = [item for item in items if isinstance(item, str)]
        ids = [item for item in items if not isinstance(item, str)]
        by_name = self.engine.node_rows_by_names(names) if names else {}
        by_id = self.engine.node_rows_many(ids) if ids else {}
        rows: list[NodeRow] = []
        for item in items:
            row = by_name.get(item) if isinstance(item, str) else by_id.get(item)
            if row is None:
                kind = "node named" if isinstance(item, str) else "node"
                self._raise_missing(
                    f"no {kind} {item!r} in tree {self.info.name!r}"
                )
            rows.append(self._node_row(row))
        return rows

    def lca_many(self, names_or_ids: Sequence[int | str]) -> NodeRow:
        """LCA of a non-empty collection of nodes.

        Argument rows arrive in one batched fetch and are folded with
        :meth:`_lca_rows` — no per-iteration re-fetch of the running
        result.  Like the in-memory ``lca_many`` implementations, the
        fold exits as soon as it reaches the root: items after that
        point are never inspected (an unknown name there does not
        raise).

        Raises
        ------
        QueryError
            If the collection is empty, or an unknown item is reached
            before the fold hits the root.
        """
        if not names_or_ids:
            raise QueryError("cannot take the LCA of zero nodes")
        items = list(names_or_ids)
        names = [item for item in items if isinstance(item, str)]
        ids = [item for item in items if not isinstance(item, str)]
        by_name = self.engine.node_rows_by_names(names) if names else {}
        by_id = self.engine.node_rows_many(ids) if ids else {}

        def row_of(item: int | str) -> NodeRow:
            raw = by_name.get(item) if isinstance(item, str) else by_id.get(item)
            if raw is None:
                kind = "node named" if isinstance(item, str) else "node"
                self._raise_missing(
                    f"no {kind} {item!r} in tree {self.info.name!r}"
                )
            return self._node_row(raw)

        # Warm the canonical inodes the fold can actually need.  If a
        # consecutive pair is ancestor-related, the running result (an
        # ancestor of the left element) is ancestor-related to the right
        # element too, so that step short-circuits on the interval and
        # needs no index rows.  Unresolved items are skipped here — they
        # only matter (and raise) if the fold reaches them.
        resolved = [
            self._node_row(raw)
            for raw in (
                by_name.get(item) if isinstance(item, str) else by_id.get(item)
                for item in items
            )
            if raw is not None
        ]
        need_index = {
            row.node_id
            for left, right in zip(resolved, resolved[1:])
            if not left.contains(right.node_id)
            and not right.contains(left.node_id)
            for row in (left, right)
        }
        if need_index:
            self.engine.canonical_inodes_many(sorted(need_index))

        result = row_of(items[0])
        for item in items[1:]:
            result = self._lca_rows(result, row_of(item))
            if result.node_id == 0:
                break
        return result

    def lca_batch(
        self, pairs: Sequence[tuple[int | str, int | str]]
    ) -> list[NodeRow]:
        """LCA of many pairs at once (one result row per input pair).

        The batch path is what makes stored queries serve traffic: all
        argument node rows are resolved with chunked ``IN (...)``
        queries, all per-argument canonical inodes with one more, and
        the per-pair layered walks then run almost entirely against the
        warm row cache — measurably fewer SQL statements than issuing
        :meth:`lca` once per pair (see ``benchmarks/bench_stored_lca.py``).
        """
        pair_list = list(pairs)
        flat: list[int | str] = [item for pair in pair_list for item in pair]
        rows = self._resolve_rows(flat)
        resolved = [
            (rows[2 * i], rows[2 * i + 1]) for i in range(len(pair_list))
        ]
        # One IN (...) query warms every canonical inode the layered
        # walks will start from; ancestor pairs short-circuit anyway.
        need_index = {
            row.node_id
            for row_a, row_b in resolved
            for row in (row_a, row_b)
            if not row_a.contains(row_b.node_id)
            and not row_b.contains(row_a.node_id)
        }
        if need_index:
            self.engine.canonical_inodes_many(sorted(need_index))
        return [self._lca_rows(row_a, row_b) for row_a, row_b in resolved]

    def is_ancestor_or_self(self, ancestor: int | str, descendant: int | str) -> bool:
        """Ancestor test via the clade interval (O(1) after two lookups)."""
        row_a = (
            self.node_by_name(ancestor)
            if isinstance(ancestor, str)
            else self.node(ancestor)
        )
        row_d = (
            self.node_by_name(descendant)
            if isinstance(descendant, str)
            else self.node(descendant)
        )
        return row_a.contains(row_d.node_id)

    # ------------------------------------------------------------------
    # Cache introspection
    # ------------------------------------------------------------------

    def cache_stats(self) -> dict[str, CacheStats]:
        """Row-cache counters (per cache plus ``"total"``)."""
        return self.engine.cache_stats()

    def clear_cache(self) -> None:
        """Drop all cached rows — subsequent queries start cold."""
        self.engine.clear_cache()

    def reset_cache_stats(self) -> None:
        """Zero the hit/miss/eviction counters (entries are kept)."""
        self.engine.reset_cache_stats()

    # ------------------------------------------------------------------
    # Clades and frontiers
    # ------------------------------------------------------------------

    def clade(self, names_or_ids: Sequence[int | str]) -> list[NodeRow]:
        """Minimal spanning clade: all rows under the LCA (pre-order)."""
        anchor = self.lca_many(names_or_ids)
        rows = self.db.query_all(
            "SELECT * FROM nodes WHERE tree_id = ? AND node_id BETWEEN ? AND ? "
            "ORDER BY node_id",
            (self._tree_id, anchor.node_id, anchor.pre_order_end),
        )
        return [self._node_row(row) for row in rows]

    def leaves_in_subtree(self, node_id: int) -> list[NodeRow]:
        """Leaf rows inside a node's clade interval."""
        anchor = self.node(node_id)
        rows = self.db.query_all(
            "SELECT * FROM nodes WHERE tree_id = ? AND node_id BETWEEN ? AND ? "
            "AND is_leaf = 1 ORDER BY node_id",
            (self._tree_id, anchor.node_id, anchor.pre_order_end),
        )
        return [self._node_row(row) for row in rows]

    def count_leaves_in_subtree(self, node_id: int) -> int:
        """Number of leaves in a node's subtree (single aggregate query)."""
        anchor = self.node(node_id)
        row = self.db.query_one(
            "SELECT COUNT(*) AS n FROM nodes WHERE tree_id = ? "
            "AND node_id BETWEEN ? AND ? AND is_leaf = 1",
            (self._tree_id, anchor.node_id, anchor.pre_order_end),
        )
        assert row is not None
        return row["n"]

    def time_frontier(self, time: float) -> list[NodeRow]:
        """Nodes whose root distance exceeds ``time`` but whose parent's
        does not — the paper's sampling frontier (§2.2).

        One indexed join; on the Figure-1 tree with ``time = 1`` this
        returns exactly ``{Bha, x, Syn, Bsu}``.
        """
        rows = self.db.query_all(
            """
            SELECT child.* FROM nodes AS child
            JOIN nodes AS parent
              ON parent.tree_id = child.tree_id
             AND parent.node_id = child.parent_id
            WHERE child.tree_id = ?
              AND child.dist_from_root > ?
              AND parent.dist_from_root <= ?
            ORDER BY child.node_id
            """,
            (self._tree_id, time, time),
        )
        frontier = [self._node_row(row) for row in rows]
        root = self.root()
        if root.dist_from_root > time:
            frontier.insert(0, root)
        return frontier

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------

    def fetch_tree(self) -> PhyloTree:
        """Reconstruct the full in-memory :class:`PhyloTree`."""
        rows = self.db.query_all(
            "SELECT node_id, parent_id, name, edge_length FROM nodes "
            "WHERE tree_id = ? ORDER BY node_id",
            (self._tree_id,),
        )
        if not rows:
            raise StorageError(f"tree {self.info.name!r} has no nodes")
        nodes: dict[int, Node] = {}
        root: Node | None = None
        for row in rows:
            node = Node(row["name"], row["edge_length"])
            nodes[row["node_id"]] = node
            if row["parent_id"] is None:
                root = node
            else:
                nodes[row["parent_id"]].add_child(node)
        assert root is not None
        return PhyloTree(root, name=self.info.name)

    def fetch_subtree(self, node_id: int) -> PhyloTree:
        """Reconstruct the subtree rooted at ``node_id`` (one range scan)."""
        anchor = self.node(node_id)
        rows = self.db.query_all(
            "SELECT node_id, parent_id, name, edge_length FROM nodes "
            "WHERE tree_id = ? AND node_id BETWEEN ? AND ? ORDER BY node_id",
            (self._tree_id, anchor.node_id, anchor.pre_order_end),
        )
        nodes: dict[int, Node] = {}
        root: Node | None = None
        for row in rows:
            node = Node(row["name"], row["edge_length"])
            nodes[row["node_id"]] = node
            parent_id = row["parent_id"]
            if parent_id is not None and parent_id in nodes:
                nodes[parent_id].add_child(node)
            else:
                root = node
        assert root is not None
        return PhyloTree(root.detach(), name=None)

    def __repr__(self) -> str:
        return f"StoredTree({self.info.name!r}, nodes={self.info.n_nodes})"

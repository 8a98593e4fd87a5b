"""The stored-query engine: cached, batched row access for one tree.

:class:`~repro.storage.tree_repository.StoredTree` answers the paper's
queries (LCA, clades, projection) purely through SQL point lookups.
Correct — but naively each block/inode hop of each layered-LCA call is a
fresh ``SELECT``, so a query costs ``O(f · log_f d)`` statements every
time.  :class:`StoredQueryEngine` sits between the query layer and
:class:`~repro.storage.database.CrimsonDatabase` and makes the hot path
cheap in two ways:

1. **Bounded LRU row caches.**  Stored trees are immutable, and the
   index's upper layers are tiny (``O(n/f)`` rows), so block, inode,
   node, and canonical-inode rows are cached per handle.  A warm repeat
   query executes **zero** SQL statements.  Every fetched row is
   cross-populated under all its lookup keys (an inode is cached by id
   *and* by ``(block, label)``; a canonical inode also by its original
   node id), so one access path warms the others.
2. **Batch fetches.**  ``*_many`` methods resolve whole key sets with
   chunked ``IN (...)`` queries, filling the caches in one round trip —
   the backbone of ``StoredTree.lca_batch`` and the batched
   ``project_stored``.
3. **Segmented admission.**  Upper-layer inode rows (``layer > 0``) and
   block rows — the ``O(n/f)`` skeleton every layered-LCA walk climbs —
   are inserted *pinned* (:meth:`repro.storage.cache.LRUCache.put`
   with ``pinned=True``): a layer-0 scan (a whole-tree batch fetch,
   like the analytics subsystem's bipartition extraction) churns only
   the probationary segment and can never evict them, so the warm-path
   statement bound survives adversarial scan loads.

Cache knobs
-----------
``cache_size`` (per-handle, default :data:`DEFAULT_CACHE_SIZE` = 4096)
bounds **each segment** of each of the six row caches; memory is
therefore at most ``6 · cache_size`` probationary rows plus the pinned
index rows (at most ``cache_size`` each for the inode/block caches,
and in practice only the ``O(n/f)`` upper-layer rows) per open handle.  Pass it through
``TreeRepository(db, cache_size=...)``, ``TreeRepository.open(name,
cache_size=...)``, or the CLI's global ``--cache-size`` flag.  Sizing
guidance: blocks and inodes above layer 0 number about ``n/f`` and
``n/(f-1)`` rows, so a cache of ``n/f`` entries makes every upper-layer
hop a hit; layer-0 node rows are only worth caching for skewed (hot-key)
workloads.  ``cache_stats()`` exposes per-cache ``hits`` / ``misses`` /
``evictions`` so the benchmarks (``benchmarks/bench_stored_lca.py``) can
verify the warm path, and ``clear_cache()`` restores cold-start
behaviour for measurements.

Concurrency
-----------
An engine (like the handle that owns it) is **not** shared between
threads: ``CrimsonStore.open_tree`` hands every thread its own handle
bound to that thread's pooled read-only connection, so the caches need
no locking and hit/miss counters stay exact per thread.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.storage.cache import CacheStats, LRUCache
from repro.storage.database import CrimsonDatabase, Row

DEFAULT_CACHE_SIZE = 4096
"""Default per-cache entry bound (see module docstring for sizing)."""

_IN_CHUNK = 400
"""Keys per ``IN (...)`` clause — safely under sqlite's parameter limit."""


def _chunks(values: Sequence, size: int = _IN_CHUNK) -> Iterable[Sequence]:
    for start in range(0, len(values), size):
        yield values[start : start + size]


class StoredQueryEngine:
    """Cached, batched reads over one stored tree's rows.

    Parameters
    ----------
    db:
        The open database the tree lives in.
    tree_id:
        Catalogue id of the tree this engine serves.
    cache_size:
        Entry bound applied to each individual row cache.

    Notes
    -----
    The engine returns raw :class:`Row` objects (or ``None`` for
    absent keys) and never raises domain errors itself — the query layer
    owns the ``QueryError`` / ``StorageError`` vocabulary.  Rows of a
    stored tree never change, so cached rows cannot go stale; deleting
    and re-storing a tree allocates a fresh ``tree_id`` and therefore a
    fresh handle.
    """

    def __init__(
        self,
        db: CrimsonDatabase,
        tree_id: int,
        cache_size: int = DEFAULT_CACHE_SIZE,
    ) -> None:
        self.db = db
        self.tree_id = tree_id
        self.cache_size = cache_size
        self._nodes = LRUCache(cache_size)  # node_id -> nodes row
        self._node_ids = LRUCache(cache_size)  # name -> node_id
        self._canonical = LRUCache(cache_size)  # node_id -> inode row
        self._inodes = LRUCache(cache_size)  # inode_id -> inode row
        self._inode_at = LRUCache(cache_size)  # (block, label) -> inode row
        self._blocks = LRUCache(cache_size)  # block_id -> blocks row

    # ------------------------------------------------------------------
    # Cache plumbing
    # ------------------------------------------------------------------

    def _remember_node(self, row: Row) -> Row:
        self._nodes.put(row["node_id"], row)
        if row["name"] is not None:
            self._node_ids.put(row["name"], row["node_id"])
        return row

    def _remember_inode(
        self, row: Row, pin: bool = False
    ) -> Row:
        # Upper-layer inodes are part of the O(n/f) skeleton of every
        # layered walk: pin them so layer-0 scans cannot evict them.
        # Callers set ``pin`` for layer-0 rows reached through the
        # skeleton too (block root/source/rep chains — also O(n/f)).
        # The canonical cache is keyed per node (O(n)) and stays
        # probationary.
        pinned = pin or row["layer"] > 0
        self._inodes.put(row["inode_id"], row, pinned=pinned)
        self._inode_at.put(
            (row["block_id"], row["local_label"]), row, pinned=pinned
        )
        if row["is_canonical"] and row["orig_node_id"] is not None:
            self._canonical.put(row["orig_node_id"], row)
        return row

    # ------------------------------------------------------------------
    # Node rows
    # ------------------------------------------------------------------

    def node_row(self, node_id: int) -> Row | None:
        row = self._nodes.get(node_id)
        if row is not None:
            return row
        row = self.db.query_one(
            "SELECT * FROM nodes WHERE tree_id = ? AND node_id = ?",
            (self.tree_id, node_id),
        )
        return self._remember_node(row) if row is not None else None

    def node_row_by_name(self, name: str) -> Row | None:
        node_id = self._node_ids.get(name)
        if node_id is not None:
            cached = self._nodes.get(node_id)
            if cached is not None:
                return cached
        row = self.db.query_one(
            "SELECT * FROM nodes WHERE tree_id = ? AND name = ?",
            (self.tree_id, name),
        )
        return self._remember_node(row) if row is not None else None

    def node_rows_many(self, node_ids: Iterable[int]) -> dict[int, Row]:
        """Resolve many node ids at once, via cache + ``IN (...)`` fills."""
        wanted = list(dict.fromkeys(node_ids))
        found: dict[int, Row] = {}
        missing: list[int] = []
        for node_id in wanted:
            row = self._nodes.get(node_id)
            if row is not None:
                found[node_id] = row
            else:
                missing.append(node_id)
        for chunk in _chunks(missing):
            placeholders = ",".join("?" for _ in chunk)
            for row in self.db.query_all(
                f"SELECT * FROM nodes WHERE tree_id = ? "
                f"AND node_id IN ({placeholders})",
                (self.tree_id, *chunk),
            ):
                found[row["node_id"]] = self._remember_node(row)
        return found

    def node_rows_by_names(self, names: Iterable[str]) -> dict[str, Row]:
        """Resolve many taxon names at once (absent names are omitted)."""
        wanted = list(dict.fromkeys(names))
        found: dict[str, Row] = {}
        missing: list[str] = []
        for name in wanted:
            node_id = self._node_ids.get(name)
            row = self._nodes.get(node_id) if node_id is not None else None
            if row is not None:
                found[name] = row
            else:
                missing.append(name)
        for chunk in _chunks(missing):
            placeholders = ",".join("?" for _ in chunk)
            for row in self.db.query_all(
                f"SELECT * FROM nodes WHERE tree_id = ? "
                f"AND name IN ({placeholders})",
                (self.tree_id, *chunk),
            ):
                self._remember_node(row)
                found[row["name"]] = row
        return found

    # ------------------------------------------------------------------
    # Index rows (inodes / blocks)
    # ------------------------------------------------------------------

    def canonical_inode(self, node_id: int) -> Row | None:
        row = self._canonical.get(node_id)
        if row is not None:
            return row
        row = self.db.query_one(
            "SELECT * FROM inodes WHERE tree_id = ? AND orig_node_id = ? "
            "AND is_canonical = 1",
            (self.tree_id, node_id),
        )
        return self._remember_inode(row) if row is not None else None

    def canonical_inodes_many(
        self, node_ids: Iterable[int]
    ) -> dict[int, Row]:
        """Resolve all canonical inodes of ``node_ids`` in one pass.

        This is the single ``IN (...)`` query the batched LCA and
        projection paths lean on: every per-leaf canonical inode arrives
        in one round trip instead of one point query per leaf.
        """
        wanted = list(dict.fromkeys(node_ids))
        found: dict[int, Row] = {}
        missing: list[int] = []
        for node_id in wanted:
            row = self._canonical.get(node_id)
            if row is not None:
                found[node_id] = row
            else:
                missing.append(node_id)
        for chunk in _chunks(missing):
            placeholders = ",".join("?" for _ in chunk)
            for row in self.db.query_all(
                f"SELECT * FROM inodes WHERE tree_id = ? AND is_canonical = 1 "
                f"AND orig_node_id IN ({placeholders})",
                (self.tree_id, *chunk),
            ):
                self._remember_inode(row)
                found[row["orig_node_id"]] = row
        return found

    def inode(self, inode_id: int, pin: bool = False) -> Row | None:
        """Fetch an inode by id; ``pin`` marks it as index skeleton.

        The LCA walk sets ``pin`` when resolving block root/source/rep
        references: those inodes — layer 0 included — are part of the
        ``O(n/f)`` structure every walk climbs, so they join the pinned
        segment and survive layer-0 scans.
        """
        row = self._inodes.get(inode_id)
        if row is not None:
            if pin and not self._inodes.is_pinned(inode_id):
                # Promote a probationary hit: once an inode is known to
                # be skeleton, scans must not evict it.  A hit that is
                # already pinned is left alone — re-putting it would
                # cost two or three cache writes per warm hop.
                self._remember_inode(row, pin=True)
            return row
        row = self.db.query_one(
            "SELECT * FROM inodes WHERE tree_id = ? AND inode_id = ?",
            (self.tree_id, inode_id),
        )
        return self._remember_inode(row, pin=pin) if row is not None else None

    def inode_at(self, block_id: int, label: str) -> Row | None:
        row = self._inode_at.get((block_id, label))
        if row is not None:
            return row
        row = self.db.query_one(
            "SELECT * FROM inodes WHERE tree_id = ? AND block_id = ? "
            "AND local_label = ?",
            (self.tree_id, block_id, label),
        )
        return self._remember_inode(row) if row is not None else None

    def block(self, block_id: int) -> Row | None:
        row = self._blocks.get(block_id)
        if row is not None:
            return row
        row = self.db.query_one(
            "SELECT * FROM blocks WHERE tree_id = ? AND block_id = ?",
            (self.tree_id, block_id),
        )
        if row is not None:
            # All block rows are index skeleton (O(n/f) of them): pinned.
            self._blocks.put(block_id, row, pinned=True)
        return row

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    _CACHE_NAMES: tuple[str, ...] = (
        "nodes",
        "node_ids",
        "canonical",
        "inodes",
        "inode_at",
        "blocks",
    )

    def _caches(self) -> dict[str, LRUCache]:
        return {name: getattr(self, f"_{name}") for name in self._CACHE_NAMES}

    def cache_stats(self) -> dict[str, CacheStats]:
        """Per-cache counters plus a ``"total"`` aggregate."""
        stats = {name: cache.stats for name, cache in self._caches().items()}
        total = CacheStats()
        for value in stats.values():
            total = total + value
        stats["total"] = total
        return stats

    def resident_fraction(self, items: Iterable[int | str]) -> float:
        """Fraction of ``items`` already resident in the row caches.

        Names probe the name→id cache, ids the node-row cache, via
        membership tests only — residency probes must not perturb the
        hit/miss counters or the LRU recency order they report on
        (:meth:`repro.storage.cache.LRUCache.__contains__` guarantees
        both).  The admission estimator uses this to scale a request's
        predicted statement count: resolving a warm taxon costs zero
        SQL, a cold one is a real fetch.  Returns ``1.0`` for an empty
        probe (nothing to fetch is fully resident).
        """
        probed = list(dict.fromkeys(items))
        if not probed:
            return 1.0
        resident = sum(
            1
            for item in probed
            if (item in self._node_ids if isinstance(item, str) else item in self._nodes)
        )
        return resident / len(probed)

    def clear_cache(self) -> None:
        """Drop all cached rows (cold-start; counters are kept)."""
        for cache in self._caches().values():
            cache.clear()

    def reset_cache_stats(self) -> None:
        for cache in self._caches().values():
            cache.reset_stats()

    def __repr__(self) -> str:
        total = self.cache_stats()["total"]
        return (
            f"StoredQueryEngine(tree_id={self.tree_id}, "
            f"cache_size={self.cache_size}, hits={total.hits}, "
            f"misses={total.misses})"
        )

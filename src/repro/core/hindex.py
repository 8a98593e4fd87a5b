"""The hierarchical (layered) Dewey index — the paper's core contribution.

Plain Dewey labels grow linearly with depth, which is fatal on simulation
trees more than a million levels deep.  Crimson bounds label size by a
constant ``f``:

1. decompose the tree into blocks of local depth ≤ ``f`` (layer 0);
2. if layer 0 has more than one block, build a *layer-1 tree* with one
   node per layer-0 block, connected as the blocks are, and decompose it
   with the same bound; repeat until a layer fits in a single block;
3. label every node with a Dewey label *local to its block* (≤ ``f``
   components);
4. record, for every split block, its **source node** — the boundary copy
   of the block root in the parent block.

LCA is answered with the paper's recursive procedure: same block → node
at the longest common label prefix; different blocks → climb both
arguments' representative chains one layer per step until they share a
block, take the prefix there, and come back down one layer per step (see
:func:`layered_lca`).  Coming down, the ancestor of an argument inside
the LCA block of the layer below is the source node of one block — the
block represented by the child of the upper LCA on the argument's path —
and that child is a single label-prefix step in the upper layer.  So for
``f >= 2`` the walk costs ``O(1)`` index lookups per layer,
``O(f · log_f(depth))`` in all, instead of one source-chain hop per
block (``O(depth / f)``).

Everything is stored in flat integer-indexed tables that mirror the
relational schema in :mod:`repro.storage.schema` one-for-one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable

from repro.core.decompose import decompose
from repro.core.dewey import DeweyLabel, common_prefix, label_to_string
from repro.errors import QueryError, StorageError
from repro.trees.node import Node
from repro.trees.tree import PhyloTree


class HierarchicalIndex:
    """Layered bounded-label index over a :class:`PhyloTree`.

    Parameters
    ----------
    tree:
        The tree to index.  Not modified.
    f:
        Label bound — the maximum number of components in any local
        Dewey label.  Must be at least 1; the paper's Figure-4 example
        uses ``f = 2``.

    Notes
    -----
    *inode* (index node) ids are dense integers covering every position in
    every layer: original nodes, boundary copies, and representative nodes
    of upper layers.  *Block* ids are dense integers across all layers.
    """

    def __init__(self, tree: PhyloTree, f: int) -> None:
        if f < 1:
            raise QueryError(f"label bound f must be >= 1, got {f}")
        self.tree = tree
        self.f = f

        # Flat inode tables, indexed by inode id.
        self.inode_layer: list[int] = []
        self.inode_block: list[int] = []
        self.inode_label: list[DeweyLabel] = []
        self.inode_orig: list[Node | None] = []
        self.inode_represents: list[int | None] = []

        # Flat block tables, indexed by global block id.
        self.block_layer: list[int] = []
        self.block_root_inode: list[int] = []
        self.block_source_inode: list[int | None] = []
        self.block_rep_inode: list[int | None] = []

        self._inode_of_node: dict[int, int] = {}
        self._inode_at: dict[tuple[int, DeweyLabel], int] = {}

        self._build()
        inode_at = self._inode_at
        #: The table reads :func:`layered_lca` walks (inode ids as positions).
        self.walk_ops = LayerOps(
            block=self.inode_block.__getitem__,
            label=self.inode_label.__getitem__,
            rep=self.block_rep_inode.__getitem__,
            source=self.block_source_inode.__getitem__,
            represents=self.inode_represents.__getitem__,
            at=lambda block, label: inode_at[(block, label)],
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    def _new_inode(
        self,
        layer: int,
        block: int,
        label: DeweyLabel,
        orig: Node | None,
        represents: int | None,
    ) -> int:
        inode_id = len(self.inode_layer)
        self.inode_layer.append(layer)
        self.inode_block.append(block)
        self.inode_label.append(label)
        self.inode_orig.append(orig)
        self.inode_represents.append(represents)
        self._inode_at[(block, label)] = inode_id
        return inode_id

    def _build(self) -> None:
        layer = 0
        current_tree = self.tree
        # For layer >= 1, synthetic nodes stand for blocks one layer down.
        represents_of: dict[int, int] = {}

        while True:
            decomposition = decompose(current_tree, self.f)
            block_offset = len(self.block_layer)
            local_to_global = {
                block.block_id: block_offset + block.block_id
                for block in decomposition.blocks
            }

            # Register blocks (source inodes are wired after members exist).
            for block in decomposition.blocks:
                self.block_layer.append(layer)
                self.block_root_inode.append(-1)  # patched below
                self.block_source_inode.append(None)
                self.block_rep_inode.append(None)

            # Canonical member inodes.  The top block's member list starts
            # with the layer root at label ε, which doubles as its root
            # inode; split blocks get an explicit ε root copy.
            for block in decomposition.blocks:
                global_id = local_to_global[block.block_id]
                if not block.is_top:
                    root_inode = self._new_inode(
                        layer,
                        global_id,
                        (),
                        block.root if layer == 0 else None,
                        represents_of.get(id(block.root)),
                    )
                    self.block_root_inode[global_id] = root_inode
                for node, label in block.members:
                    inode = self._new_inode(
                        layer,
                        global_id,
                        label,
                        node if layer == 0 else None,
                        represents_of.get(id(node)),
                    )
                    if layer == 0:
                        self._inode_of_node[id(node)] = inode
                    if not label:  # the layer root in the top block
                        self.block_root_inode[global_id] = inode

            # Wire source inodes: the boundary copy lives in the parent
            # block at the label decompose() recorded.
            for block in decomposition.blocks:
                if block.is_top:
                    continue
                global_id = local_to_global[block.block_id]
                source_global = local_to_global[block.source_block]
                assert block.source_label is not None
                self.block_source_inode[global_id] = self._inode_at[
                    (source_global, block.source_label)
                ]

            if len(decomposition.blocks) == 1:
                break

            # Build the next layer's tree: one synthetic node per block,
            # children attached in block-creation order under the block
            # holding their source node.
            synthetic: dict[int, Node] = {}
            next_represents: dict[int, int] = {}
            for block in decomposition.blocks:
                node = Node()
                synthetic[block.block_id] = node
                next_represents[id(node)] = local_to_global[block.block_id]
            layer_root: Node | None = None
            for block in decomposition.blocks:
                if block.is_top:
                    layer_root = synthetic[block.block_id]
                else:
                    synthetic[block.source_block].add_child(
                        synthetic[block.block_id]
                    )
            assert layer_root is not None
            current_tree = PhyloTree(layer_root)
            represents_of = next_represents
            layer += 1

        self.n_layers = layer + 1

        # Patch rep inodes: block B at layer k is represented by the
        # canonical inode of its synthetic node at layer k+1.
        for inode_id, block_id in enumerate(self.inode_represents):
            if block_id is None:
                continue
            # Prefer the canonical (non-root, deeper-label) position; the
            # ε copy of a boundary synthetic node must not shadow it.
            current = self.block_rep_inode[block_id]
            if current is None or len(self.inode_label[inode_id]) > len(
                self.inode_label[current]
            ):
                self.block_rep_inode[block_id] = inode_id

    # ------------------------------------------------------------------
    # Label accessors
    # ------------------------------------------------------------------

    def inode_of(self, node: Node) -> int:
        """Canonical layer-0 inode id of an original tree node.

        Raises
        ------
        QueryError
            If ``node`` is not part of the indexed tree.
        """
        try:
            return self._inode_of_node[id(node)]
        except KeyError:
            raise QueryError("node does not belong to the indexed tree") from None

    def label_of(self, node: Node) -> tuple[int, DeweyLabel]:
        """``(block id, local label)`` of a node's canonical position."""
        inode = self.inode_of(node)
        return self.inode_block[inode], self.inode_label[inode]

    def describe_label(self, node: Node) -> str:
        """Human-readable ``block:label`` rendering (for the CLI)."""
        block, label = self.label_of(node)
        return f"{block}:{label_to_string(label) or 'ε'}"

    # ------------------------------------------------------------------
    # Core queries
    # ------------------------------------------------------------------

    def lca(self, a: Node, b: Node) -> Node:
        """Least common ancestor of two original tree nodes."""
        result = layered_lca(self.walk_ops, self.inode_of(a), self.inode_of(b))
        orig = self.inode_orig[result]
        assert orig is not None, "layer-0 LCA inode must map to an original node"
        return orig

    def lca_many(self, nodes: Iterable[Node]) -> Node:
        """LCA of any non-empty collection of nodes.

        Raises
        ------
        QueryError
            If the collection is empty.
        """
        iterator = iter(nodes)
        try:
            first = next(iterator)
        except StopIteration:
            raise QueryError("cannot take the LCA of zero nodes") from None
        result = first
        for node in iterator:
            result = self.lca(result, node)
            if result is self.tree.root:
                break
        return result

    def is_ancestor_or_self(self, ancestor: Node, descendant: Node) -> bool:
        """Ancestor-or-self test via the paper's identity LCA(m,n) = m."""
        return self.lca(ancestor, descendant) is ancestor

    # ------------------------------------------------------------------
    # Statistics (experiments E2/E3)
    # ------------------------------------------------------------------

    def max_label_length(self) -> int:
        """Largest local label length across all layers (≤ ``f``)."""
        if not self.inode_label:
            return 0
        return max(len(label) for label in self.inode_label)

    def total_label_bytes(self) -> int:
        """Byte cost of all local labels in dotted-string form.

        Comparable with :meth:`repro.core.dewey.DeweyIndex.total_label_bytes`
        for experiment E3; includes the upper-layer bookkeeping labels so
        the comparison is fair.
        """
        return sum(len(label_to_string(label)) for label in self.inode_label)

    def n_blocks(self, layer: int | None = None) -> int:
        """Number of blocks, optionally restricted to one layer."""
        if layer is None:
            return len(self.block_layer)
        return sum(1 for value in self.block_layer if value == layer)

    def n_inodes(self) -> int:
        """Total number of index positions across all layers."""
        return len(self.inode_layer)

    def layer_summary(self) -> list[dict[str, int]]:
        """Per-layer block and inode counts (drives the Fig-4 bench)."""
        summary = []
        for layer in range(self.n_layers):
            summary.append(
                {
                    "layer": layer,
                    "blocks": self.n_blocks(layer),
                    "inodes": sum(
                        1 for value in self.inode_layer if value == layer
                    ),
                }
            )
        return summary

    def __repr__(self) -> str:
        return (
            f"HierarchicalIndex(f={self.f}, layers={self.n_layers}, "
            f"blocks={self.n_blocks()}, inodes={self.n_inodes()})"
        )


# ----------------------------------------------------------------------
# The layered LCA walk, shared by the in-memory and the stored index
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class LayerOps:
    """The six index reads :func:`layered_lca` is written against.

    A *position* is one inode: an ``int`` for :class:`HierarchicalIndex`,
    a fetched ``inodes`` row for
    :class:`~repro.storage.tree_repository.StoredTree`.  Every read is one
    table (or row-cache) lookup; the walk never scans.
    """

    block: Callable[[Any], int]
    """Block id holding a position."""
    label: Callable[[Any], DeweyLabel]
    """Local label of a position inside its block."""
    rep: Callable[[int], Any]
    """Canonical position, one layer up, of the node standing for a block."""
    source: Callable[[int], Any]
    """Boundary position, in the parent block, that a split block hangs off."""
    represents: Callable[[Any], int]
    """Block (one layer down) an upper-layer position stands for."""
    at: Callable[[int, DeweyLabel], Any]
    """Position at ``(block, label)``."""


class _Path:
    """One argument's path at one layer: from the layer's LCA down to it.

    The path leaves the LCA block ``C0`` through a chain of blocks
    ``C1, C2, …`` down to the argument's own block.  ``anc(i)`` is the
    argument's ancestor-or-self inside ``Ci``; ``desc(j)`` is the
    ``j``-th position below the LCA on the path.  Both are computed on
    demand and memoised: the layer below asks for ``desc(1)`` (and, when
    its own LCA sits at a block boundary, ``desc(2)``), so shallow trees
    never pay for a second step.
    """

    __slots__ = ("ops", "x", "up", "start", "tail", "_anc", "_desc")

    def __init__(self, ops: LayerOps, x: Any, up: "_Path | None") -> None:
        self.ops = ops
        self.x = x  # the argument's position at this layer
        self.up = up  # the same argument's path one layer up (None at the top)
        self.start = 0  # label length of this layer's LCA (set by _meet)
        self.tail: int | None = None  # i with anc(i) == x, once reached
        self._anc: list[Any] = []
        self._desc: list[Any] = []

    def anc(self, i: int) -> Any:
        """Ancestor-or-self of ``x`` in ``Ci`` (asked in order, never past ``tail``)."""
        if i == len(self._anc):
            self._add_anc(self.up.desc(i + 1) if self.up is not None else None)
        return self._anc[i]

    def _add_anc(self, upper_step: Any) -> None:
        """Append ``anc(i)`` given the upper path's ``desc(i+1)``.

        One layer up, the path from the upper LCA to ``x``'s
        representative visits the nodes standing for ``C1, C2, …`` in
        order, so ``C(i+1)`` is what ``desc(i+1)`` represents and the
        ancestor in ``Ci`` is that block's source.  When the upper path
        ends before ``i+1`` steps, ``Ci`` is ``x``'s own block.
        """
        if upper_step is None:
            self.tail = len(self._anc)
            self._anc.append(self.x)
        else:
            ops = self.ops
            self._anc.append(ops.source(ops.represents(upper_step)))

    def desc(self, j: int) -> Any:
        """The ``j``-th position below the LCA toward ``x`` (``None`` past ``x``).

        A demand may climb several layers (each needing ``desc`` one
        layer up); it runs on an explicit stack, so no tree shape —
        ``f = 1`` has as many layers as levels — can exhaust the
        interpreter's recursion limit.
        """
        if j <= len(self._desc):
            return self._desc[j - 1]
        pending: list[tuple[_Path, int]] = [(self, j)]
        while pending:
            path, steps = pending[-1]
            blocker = path._extend(steps)
            if blocker is None:
                pending.pop()
            else:
                pending.append(blocker)
        return self._desc[j - 1]

    def _extend(self, j: int) -> "tuple[_Path, int] | None":
        """Fill ``desc`` up to ``j``, or return the upper ``desc`` it waits on.

        Steps down block by block: ``label[:depth]`` of the ancestor in
        the current block, or — past that ancestor, a boundary node whose
        split-block copy has label ε — on into the next block of the
        chain.
        """
        ops = self.ops
        memo = self._desc
        while len(memo) < j:
            steps = len(memo) + 1
            start = self.start  # label length the path enters block i at
            i = 0
            while True:
                if i == len(self._anc):
                    up = self.up
                    if up is not None and len(up._desc) <= i:
                        return up, i + 1
                    self._add_anc(up._desc[i] if up is not None else None)
                anc = self._anc[i]
                label = ops.label(anc)
                depth = start + steps
                if depth == len(label):
                    # One label step per level: the ancestor itself (how
                    # a shallow tree skips the label lookup).
                    memo.append(anc)
                    break
                if depth < len(label):
                    memo.append(ops.at(ops.block(anc), label[:depth]))
                    break
                if i == self.tail:
                    memo.append(None)
                    break
                steps = depth - len(label)
                start = 0
                i += 1
        return None


def _meet(ops: LayerOps, path_a: _Path, path_b: _Path) -> Any:
    """The LCA at one layer, from both arguments' ancestors in its block."""
    anc_a = path_a.anc(0)
    anc_b = path_b.anc(0)
    block = ops.block(anc_a)
    if ops.block(anc_b) != block:
        raise StorageError(
            "index corrupt: LCA ancestors landed in different blocks "
            f"({block} and {ops.block(anc_b)})"
        )
    label_a = ops.label(anc_a)
    label_b = ops.label(anc_b)
    prefix = common_prefix(label_a, label_b)
    path_a.start = path_b.start = len(prefix)
    if len(prefix) == len(label_a):
        return anc_a
    if len(prefix) == len(label_b):
        return anc_b
    return ops.at(block, prefix)


def layered_lca(ops: LayerOps, a: Any, b: Any) -> Any:
    """LCA of two positions of the same layer, one walk step per layer.

    **Up.**  While ``a`` and ``b`` sit in different blocks, replace each
    by its block's representative one layer up.  The top layer is a
    single block, so the chains meet.

    **Down.**  At the meeting layer the LCA is the common label prefix.
    One layer down, the LCA block ``T`` is the block the upper LCA
    represents, and ``a``'s ancestor in ``T`` is the source node of the
    block represented by the upper LCA's child on the path to ``a`` —
    one label-prefix step from the ancestor the upper layer already
    found (:class:`_Path`).  Two cases need no general machinery:

    * the upper LCA is itself a boundary node on ``a``'s path (its
      children live in its split block), so the child is the first
      label step inside that block — ``desc`` continues into the next
      block of the chain instead of stopping at the boundary;
    * ``a``'s representative is exactly one label step below the upper
      LCA (shallow trees), so the child is the representative itself and
      the ancestor is its block's source — one hop, no label lookup.

    **Cost.**  Each layer climbed reads one ``rep`` per side.  Each
    layer come down reads, per side, the upper path's first step (at
    most one ``at``) and the ``source`` of the block it represents, plus
    at most one ``at`` for the LCA.  A side needs a second step only
    when the LCA is the boundary node its path leaves the block through
    — and then the other argument is the LCA and needs none — and for
    ``f >= 2`` that second step stays within the first two blocks of
    the path.  So a walk makes ``O(1)`` reads per layer, ``O(layers)``
    in all, and never walks a layer twice.  With ``f = 1`` every block
    is one level deep, so each further step lies in a further block and
    such a demand can grow by one step per layer it climbs (``f = 1``
    has as many layers as levels anyway).
    """
    chain_a = [a]
    chain_b = [b]
    while ops.block(a) != ops.block(b):
        a = ops.rep(ops.block(a))
        b = ops.rep(ops.block(b))
        chain_a.append(a)
        chain_b.append(b)
    path_a = path_b = None
    lca = a
    for x, y in zip(reversed(chain_a), reversed(chain_b)):
        path_a = _Path(ops, x, path_a)
        path_b = _Path(ops, y, path_b)
        lca = _meet(ops, path_a, path_b)
    return lca

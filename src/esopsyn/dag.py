"""N-ary and-xor DAG: the intermediate representation the whole flow runs on.

Five node kinds: t_root (collects the per-output top nodes), t_xor, t_and,
t_identifier (a variable, or a circuit line once mapping starts) and
t_constant.  A node's children are a list; its parents are a multiset
(parent id -> edge count, in insertion order), so removing an edge is
O(1) even from a variable with thousands of parents.  There is one node
per variable and per constant, and the builder hash-conses, so identical
subterms reuse one node: every and node is keyed by its atoms, by the
mask of its variables when it has no other atom, so a cube or chain tail
already built costs one int lookup, and xor nodes by their child sets
(`build_dag_from_trees`).  Later passes create nodes with `add`.
Depth labels are the longest path from the root: the graph passes
recompute them when they finish, and collapsing a mapped node into an
identifier updates only the depths below it, its internal nodes through a
heap by old depth and its leaves after the heap drains: a leaf's parents
are internal nodes (or the root), so by then each has its final depth.
`recompute_depths` relabels the nodes whose parents changed since the log
was last cleared and the nodes below them, deletes those the root no
longer reaches, and returns the old depth of each internal node it moved.

Every edit goes through one of five helpers (`add`, `set_children`,
`to_identifier`, `_delete`, `recompute_depths`), and each notes what it
changed in the graph's edit log of two id sets: `touched` holds the
nodes whose parents changed, the internal nodes whose depth changed and
created and deleted nodes; `reshaped` holds the nodes whose children or
kind changed.  The ready index (`ReadyIndex`, read by
`mapper.find_target` and `optimize.parent_reduction_pass`) clears the
log as it reads it, in one walk whose class changes cascade through the
index's tallies; until the graph has one, `recompute_depths` clears it.
Either clears it only while every depth is right and the root reaches
every node, so an empty `touched` means every depth is right, a node
outside its downward cone needs no relabel, and a build's relabel, with
every node in the log, covers the whole graph.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .funcs import EsopExpression, bit_support, cube_order, mobius_bits

T_CONST = "t_constant"
T_ID = "t_identifier"
T_ROOT = "t_root"
T_AND = "t_and"
T_XOR = "t_xor"

LEAF_KINDS = (T_CONST, T_ID)


# Factored forms accepted by the builder: a cube mask plus subtrees under
# an AND, and an XOR of parts.  The leaf is an ANF coefficient word (an
# `int`, as in EsopExpression.coeffs): the xor of its cubes, each built as
# an and-chain once per cube mask.

@dataclass(frozen=True)
class FAnd:
    cube_mask: int
    subs: tuple


@dataclass(frozen=True)
class FXor:
    parts: tuple


class DagNode:
    __slots__ = ("id", "kind", "children", "parents", "depth", "label", "line")

    def __init__(self, nid: int, kind: str, children=(), label=None, line=None):
        self.id = nid
        self.kind = kind
        self.children: list[int] = list(children)
        # parent id -> number of edges from it, in first-insertion order
        self.parents: dict[int, int] = {}
        self.depth = 0
        self.label = label
        self.line = line

    def is_leaf(self) -> bool:
        return self.kind in LEAF_KINDS

    def __repr__(self):
        return f"<{self.kind} #{self.id} {self.label if self.label is not None else ''}>"


class EsopDag:
    def __init__(self, n_vars: int):
        self.n_vars = n_vars
        self.nodes: dict[int, DagNode] = {}
        self._next = 0
        self._leaves: dict[tuple, int] = {}   # (kind, label) -> var/const node
        self.touched: set[int] = set()     # the edit log (module docstring)
        self.reshaped: set[int] = set()
        self.index: ReadyIndex | None = None   # see refreshed_index
        self.root = self.add(T_ROOT)
        self.output_order: list[tuple[str, int]] = []

    # -- construction ------------------------------------------------------

    def add(self, kind, children=(), label=None, line=None) -> int:
        """Create a node; ids are never reused."""
        nid = self._next
        self._next += 1
        node = DagNode(nid, kind, children, label, line)
        self.nodes[nid] = node
        self._link(nid, children)
        self.touched.add(nid)
        self.touched.update(children)
        return nid

    def _leaf(self, kind, label, line=None) -> int:
        """The one node of a variable or constant; a pruned one is re-made."""
        nid = self._leaves.get((kind, label))
        if nid is None or nid not in self.nodes:
            nid = self._leaves[kind, label] = self.add(kind, (), label, line)
        return nid

    def var_node(self, index: int) -> int:
        return self._leaf(T_ID, f"x{index + 1}", index)

    def const_node(self, value: int) -> int:
        return self._leaf(T_CONST, value)

    # -- mutation (all child-list edits go through here) --------------------

    def _link(self, nid: int, children):
        for c in children:
            parents = self.nodes[c].parents
            parents[nid] = parents.get(nid, 0) + 1

    def _unlink(self, nid: int, children):
        for c in children:
            parents = self.nodes[c].parents
            parents[nid] -= 1
            if not parents[nid]:
                del parents[nid]

    def set_children(self, nid: int, new_children: list[int]):
        node = self.nodes[nid]
        self._unlink(nid, node.children)
        self.touched.update(node.children)
        self.touched.update(new_children)
        self.reshaped.add(nid)
        node.children = list(new_children)
        self._link(nid, node.children)

    def xor_splice(self, nid: int, remove: int | None, add: list[int]):
        """Edit an xor node's child set with GF(2) cancellation."""
        node = self.nodes[nid]
        assert node.kind == T_XOR
        cur = list(node.children)
        if remove is not None:
            cur.remove(remove)
        for a in add:
            if a in cur:
                cur.remove(a)
            else:
                cur.append(a)
        self.set_children(nid, cur)

    def to_identifier(self, nid: int, line_id: int, label: str):
        """Collapse a mapped node into an identifier for a circuit line.

        Only the node's former descendants can lose depth or become
        unreachable, so only they are re-derived, parents before children
        (by old depth): a node left without parents is deleted, any other
        takes one more than its deepest parent.  On a pruned graph with
        fresh depths this equals a full `recompute_depths`.  Only internal
        nodes go through the heap; the leaves reached are settled after
        it drains, with the same parent scan.  That is exact: every parent
        of a leaf is internal (or the root), so each of its parents in
        the cone is shallower and the heap has settled it by then.
        """
        nodes, touched = self.nodes, self.touched
        node = nodes[nid]
        queued = set(node.children)
        heap, leaves = [], []
        for c in queued:
            child = nodes[c]
            if child.children:
                heap.append((child.depth, c))
            else:
                leaves.append(c)
        if len(heap) > 1:
            heap.sort()     # a sorted list is already a heap
        self.set_children(nid, [])
        node.kind, node.label, node.line = T_ID, label, line_id
        while heap or leaves:
            u = heapq.heappop(heap)[1] if heap else leaves.pop()
            un = nodes[u]
            if not un.parents:
                self._delete(u)
            else:
                depth = 0
                for p in un.parents:
                    d = nodes[p].depth + 1
                    if d > depth:
                        depth = d
                        if depth == un.depth:
                            break   # depths only fall: this parent keeps u's
                if depth == un.depth:
                    continue
                un.depth = depth
                if un.children:
                    touched.add(u)   # the index reads no leaf's depth
            for c in un.children:
                if c not in queued:
                    queued.add(c)
                    if nodes[c].children:
                        heapq.heappush(heap, (nodes[c].depth, c))
                    else:
                        leaves.append(c)

    def merge_nodes(self, keep: int, drop: int):
        """Redirect every reference to `drop` onto `keep` and delete it."""
        assert keep != drop
        drop_node = self.nodes[drop]
        for p in list(drop_node.parents):
            parent = self.nodes[p]
            if parent.kind == T_XOR and keep in parent.children:
                # duplicate children of an xor cancel
                self.xor_splice(p, drop, [keep])
            else:
                kids = [keep if c == drop else c for c in parent.children]
                if parent.kind in (T_AND, T_ROOT):
                    kids = list(dict.fromkeys(kids))
                self.set_children(p, kids)
        self.output_order = [
            (name, keep if nid == drop else nid) for name, nid in self.output_order
        ]
        self._delete(drop)

    def _delete(self, nid: int):
        node = self.nodes[nid]
        assert not node.parents, f"deleting referenced node {nid}"
        self._unlink(nid, node.children)
        del self.nodes[nid]
        self.touched.add(nid)
        self.touched.update(node.children)

    def normalize_node(self, nid: int) -> int:
        """Resolve degenerate arity after a rewrite; returns the surviving id."""
        node = self.nodes.get(nid)
        if node is None or node.kind not in (T_AND, T_XOR):
            return nid
        if len(node.children) == 1:
            child = node.children[0]
            self.merge_nodes(child, nid)
            return child
        if not node.children:
            const = self.const_node(0)
            self.merge_nodes(const, nid)
            return const
        return nid

    # -- depth / pruning -----------------------------------------------------

    def recompute_depths(self) -> dict[int, int]:
        """Relabel each depth as the longest path from the root and delete
        the nodes the root no longer reaches; returns the old depth of
        each internal node whose depth changed.

        A node can lose its root or change depth only below a node whose
        parents changed, and `touched` records each of those, so only the
        downward cone of `touched` is relabelled, parents before children;
        an empty log returns at once.  A cone node's parents outside the
        cone keep their depths, and one left with no parent is deleted.
        The moved nodes join the log for the ready index; with no index,
        the relabel clears the log instead.
        """
        nodes, touched = self.nodes, self.touched
        if not touched:
            return {}
        cone = {i for i in touched if i in nodes}
        stack = list(cone)
        while stack:
            for c in nodes[stack.pop()].children:
                if c not in cone:
                    cone.add(c)
                    stack.append(c)
        # per cone node: its edges from the cone still to come, and the
        # depth its parents outside the cone give it
        indeg, depth = {}, {}
        for nid in cone:
            k = d = 0
            for p, m in nodes[nid].parents.items():
                if p in cone:
                    k += m
                elif nodes[p].depth >= d:
                    d = nodes[p].depth + 1
            indeg[nid], depth[nid] = k, d
        queue = [nid for nid, k in indeg.items() if not k]
        moved = {}
        while queue:
            u = queue.pop()
            un = nodes[u]
            if u != self.root and not un.parents:
                self._delete(u)
            else:
                d = depth[u]
                if d != un.depth:
                    if un.children:     # the index reads no leaf's depth
                        moved[u] = un.depth
                    un.depth = d
                d += 1
                for c in un.children:
                    if d > depth[c]:
                        depth[c] = d
            for c in un.children:
                indeg[c] -= 1
                if not indeg[c]:
                    queue.append(c)
        if self.index is None:
            touched.clear()
            self.reshaped.clear()
        else:
            touched.update(moved)
        return moved

    def internal_ids(self) -> list[int]:
        return sorted(
            nid for nid, n in self.nodes.items()
            if n.kind in (T_AND, T_XOR)
        )

    # -- semantics ----------------------------------------------------------

    def expand(self, nid: int, _memo=None) -> int:
        """ANF coefficient word computed by structural GF(2) expansion.

        A product is the transform of the AND of its factors' truth-table
        columns.  Only input variables expand: an identifier that mapping
        made for a circuit line (`@<line>`) raises ValueError.
        """
        if _memo is None:
            _memo = {}
        hit = _memo.get(nid)
        if hit is not None:
            return hit
        node = self.nodes[nid]
        if node.kind == T_CONST:
            out = 1 if node.label else 0
        elif node.kind == T_ID:
            if node.line is not None and node.label == f"x{node.line + 1}":
                out = 1 << (1 << node.line)
            else:
                raise ValueError(f"cannot expand line identifier {node.label}")
        elif node.kind == T_XOR:
            out = 0
            for c in node.children:
                out ^= self.expand(c, _memo)
        elif node.kind == T_AND:
            n = self.n_vars
            column = (1 << (1 << n)) - 1
            for c in node.children:
                column &= mobius_bits(self.expand(c, _memo), n)
            out = mobius_bits(column, n)
        else:
            raise ValueError(f"cannot expand {node.kind}")
        _memo[nid] = out
        return out

    def __len__(self) -> int:
        return len(self.nodes)

    def refreshed_index(self, parent_candidates: bool = False) -> ReadyIndex:
        """The graph's ready index, brought up to date with the edit log,
        which it then clears; the first call builds it from every node,
        and the first with `parent_candidates` derives them from every
        identifier and has the index keep them from then on."""
        if self.index is None:
            self.index = ReadyIndex()
            changed = reshaped = set(self.nodes)
        else:
            changed, reshaped = self.touched, self.reshaped
            changed |= reshaped
        self.touched, self.reshaped = set(), set()
        index = self.index
        index.refresh(self, changed, reshaped)
        if parent_candidates and index.parent_candidates is None:
            index.parent_candidates = {
                nid for nid, node in self.nodes.items() if node.kind == T_ID
                and _reducible(self.nodes, nid, node.parents, self.root)}
        return index


# A child's class, as its and/xor parents count it: an and is ready when
# all its children are identifiers, an xor when none is of class OTHER.
C_ID, C_CONST, C_FLAT, C_OTHER = range(4)


def _class(nodes: dict, node: DagNode) -> int:
    if node.kind == T_ID:
        return C_ID
    if node.kind == T_CONST:
        return C_CONST
    if node.kind == T_AND and all(nodes[g].kind == T_ID for g in node.children):
        return C_FLAT
    return C_OTHER


def _ready(node: DagNode, tally: list[int]) -> bool:
    if node.kind == T_AND:
        return tally[C_ID] == len(node.children)
    return not tally[C_OTHER]


class ReadyIndex:
    """What the mapping loop reads of the graph, kept up to date from its
    edit log (see the `mapper` module docstring).

    `cls` holds each node's class and `counts` tallies each and/xor node's
    children by class.  A refresh walks the log once: it works out the
    class of the reshaped and new nodes only (`_class`) and collects the
    nodes `_update` must see.  A class change then cascades through the
    tallies: each parent's tally moves by the delta, and an and node
    whose tally comes to count only identifiers becomes flat, which moves
    its own parents' tallies in turn.  The tallies of reshaped and new
    nodes are dropped before the cascade, which skips them, and rebuilt
    after it.  `depth` and `buckets` hold the internal nodes by depth,
    `keys` the branch-3 key of each ready node and `heap` those keys,
    lazily invalidated: an entry is live only while it equals its node's
    key.

    `parent_candidates` is None until parent reduction first asks for it
    (`EsopDag.refreshed_index`); from then on it holds the identifiers
    with two non-root parents that a rewrite fits (`parent_rewrites`): an
    edit to the kind or children of a leaf's parent touches the leaf.
    Until then a refresh skips the changed nodes with no `depth` entry,
    so no leaf is tested for a rewrite.
    """

    def __init__(self):
        self.cls: dict[int, int] = {}
        self.counts: dict[int, list[int]] = {}
        self.depth: dict[int, int] = {}
        self.buckets: dict[int, set[int]] = {}
        self.keys: dict[int, tuple] = {}
        self.heap: list[tuple] = []
        self.parent_candidates: set[int] | None = None

    def refresh(self, dag: EsopDag, changed: set[int], reshaped: set[int]):
        """Bring the index up to date with edits to the `changed` nodes,
        of which `reshaped` got new children or a new kind."""
        nodes, cls, counts = dag.nodes, self.cls, self.counts
        depth, keys = self.depth, self.keys
        every = self.parent_candidates is not None   # leaves need _update too
        update = []     # the nodes _update must see
        moved = []      # (node, class before, class after)
        recount = []
        for nid in changed:
            node = nodes.get(nid)
            if node is None:
                cls.pop(nid, None)
                counts.pop(nid, None)
            elif nid in reshaped or nid not in cls:
                old = cls.get(nid)
                new = cls[nid] = _class(nodes, node)
                if old is not None and old != new:
                    moved.append((nid, old, new))
                # no stale tally until the recount: the cascade skips it
                counts.pop(nid, None)
                if node.kind in (T_AND, T_XOR):
                    recount.append(nid)
                    update.append(nid)
                    continue
            # every internal node holds a depth entry, and so does one
            # deleted or collapsed since the last refresh
            if every or nid in depth:
                update.append(nid)
        for nid, old, new in moved:     # grows as ands become flat
            for p in nodes[nid].parents:
                tally = counts.get(p)
                if tally is None:
                    continue
                tally[old] -= 1
                tally[new] += 1
                pn = nodes[p]
                if new == C_ID and pn.kind == T_AND and cls[p] != C_FLAT \
                        and tally[C_ID] == len(pn.children):
                    cls[p] = C_FLAT
                    moved.append((p, C_OTHER, C_FLAT))
                # a node neither ready before nor after keeps no key
                if p in keys or _ready(pn, tally):
                    update.append(p)
        for nid in recount:
            tally = counts[nid] = [0, 0, 0, 0]
            for c in nodes[nid].children:
                tally[cls[c]] += 1
        for nid in update:
            self._update(dag, nid)

    def _update(self, dag: EsopDag, nid: int):
        node = dag.nodes.get(nid)
        tally = self.counts.get(nid) if node is not None else None
        old = self.depth.get(nid)
        if old is not None and not (tally is not None and old == node.depth):
            del self.depth[nid]
            bucket = self.buckets[old]
            bucket.discard(nid)
            if not bucket:
                del self.buckets[old]
            old = None
        candidates = self.parent_candidates
        if candidates is not None:
            if node is not None and node.kind == T_ID \
                    and _reducible(dag.nodes, nid, node.parents, dag.root):
                candidates.add(nid)
            else:
                candidates.discard(nid)
        if tally is None:
            self.keys.pop(nid, None)
            return
        if old is None:
            self.depth[nid] = node.depth
            self.buckets.setdefault(node.depth, set()).add(nid)
        if not _ready(node, tally):
            self.keys.pop(nid, None)
            return
        key = (-tally[C_ID] - tally[C_CONST], len(node.parents), nid)
        if self.keys.get(nid) != key:
            self.keys[nid] = key
            heapq.heappush(self.heap, key)

    def best(self):
        """The smallest live branch-3 key, or None."""
        heap, keys = self.heap, self.keys
        if len(heap) > 2 * len(keys) + 64:
            heap[:] = keys.values()
            heapq.heapify(heap)
        while heap and keys.get(heap[0][2]) != heap[0]:
            heapq.heappop(heap)
        return heap[0] if heap else None


def _partner(nodes: dict, leaf: int, e: int, q: int) -> int | None:
    """b when the leaf's parents e and q fit a rewrite (`parent_rewrites`)."""
    en, qn = nodes[e], nodes[q]
    if en.kind != T_XOR or len(en.children) != 2 or e == q:
        return None
    b = en.children[1] if en.children[0] == leaf else en.children[0]
    if b != leaf and (qn.kind == T_XOR or qn.kind == T_AND
                      and len(qn.children) == 2 and b in qn.children):
        return b
    return None


def _reducible(nodes: dict, leaf: int, parents: dict, root: int) -> bool:
    """Whether a rewrite fits a leaf with exactly two non-root parents,
    without the sort, list or generator of `parent_rewrites`."""
    if len(parents) != 2 + (root in parents):
        return False
    e, q = parents.keys() - {root}
    return _partner(nodes, leaf, e, q) is not None \
        or _partner(nodes, leaf, q, e) is not None


def parent_rewrites(dag: EsopDag, leaf: int):
    """The parent-reduction rewrites that fit at an identifier, as
    (e, b, q) in (e, q) id order: its parent e is the xor leaf ^ b
    (b != leaf), and its parent q another xor (leaf = e ^ b) or the and
    of exactly leaf and b (leaf . b = (e . b) ^ b).  Routing q through e
    takes a parent from the leaf unless it closes a cycle."""
    parents = sorted(dag.nodes[leaf].parents)
    for e in parents:
        for q in parents:
            b = _partner(dag.nodes, leaf, e, q)
            if b is not None:
                yield e, b, q


# -- building ----------------------------------------------------------------


def build_dag_from_trees(trees, n_vars: int, max_and_arity: int,
                         output_names=None) -> EsopDag:
    """Turn per-output factored trees (`factor_expression`) into the
    shared and-xor graph.

    max_and_arity is the Toffoli-size knob T: any product wider than T-1
    literals is decomposed into a chain of T-1-ary and nodes, so every
    eventual Toffoli spans at most T lines.

    Identical subterms share one node through one table, the graph's
    only hash-consing: the builder keys every and level by its atoms, the
    non-and nodes it reaches through and nodes (`_and_chain`; a product's
    factors are xor nodes or the nodes of products, never of cubes), and
    every xor node by its child set, so no two and nodes reach one atom
    set.  A build deletes no node, so no entry goes stale: the parts of a
    factored xor are words and products, never xors, and a product's node
    is an and node, for it has two or more distinct children (a kernel,
    and a quotient that holds the nonempty co-kernel cube).  The graph
    holds no twins, two nodes of one kind with one child set
    (`optimize.common_cube_sharing`).
    """
    if max_and_arity < 2:
        raise ValueError(f"Toffoli size bound must be >= 2, got {max_and_arity}")
    if not trees:
        raise ValueError("no output expressions")
    if output_names is None:
        output_names = [f"y{i + 1}" for i in range(len(trees))]
    # A 2-line library cannot compute a product, so the effective and-arity
    # floor is 2 even when T = 2.
    arity = max(2, max_and_arity - 1)
    dag = EsopDag(n_vars)
    made: dict[int | tuple, int | tuple] = {}
    tops = []
    for tree in trees:
        top = _node_of_tree(dag, made, tree, arity)
        tops.append(top)
        if top not in dag.nodes[dag.root].children:
            dag.set_children(dag.root, dag.nodes[dag.root].children + [top])
    dag.output_order = list(zip(output_names, tops))
    dag.recompute_depths()
    return dag


def _node_of_tree(dag: EsopDag, made: dict, tree, arity: int) -> int:
    if isinstance(tree, FAnd):
        return _and_chain(dag, made, tree.cube_mask, tree.subs, arity)
    if isinstance(tree, int):
        parts = (tree,)
    elif isinstance(tree, FXor):
        parts = tree.parts
    else:
        raise TypeError(f"unexpected tree part {tree!r}")
    # No child repeats, so none cancels: a node computes one word, and
    # these words differ.  The parts are products, each of two or more
    # cubes that no other product nor the remainder holds (weak division),
    # and the cubes of the last remainder, which are distinct masks.
    kids: list[int] = []
    for part in parts:
        if isinstance(part, int):
            # a word's cubes join this xor directly: no xor node of its own
            for m in cube_order(bit_support(part)):
                kids.append(_and_chain(dag, made, m, (), arity))
        else:
            kids.append(_node_of_tree(dag, made, part, arity))
    if not kids:
        return dag.const_node(0)
    if len(kids) == 1:
        return kids[0]
    key = T_XOR, frozenset(kids)
    nid = made.get(key)
    if nid is None:
        nid = made[key] = dag.add(T_XOR, kids)
    return nid


def _and_chain(dag: EsopDag, made: dict, mask: int, subs: tuple,
               arity: int) -> int:
    """The node of the product of the variables of `mask` and the trees
    `subs`.  A bare cube of at most one variable is the constant 1 or that
    variable; any other product is the and-chain over its kids, the
    variables in ascending order and then the nodes of the subs, built
    after them: the and of its first arity - 1 kids and the chain of the
    rest, or of all of them once they fit the arity bound.

    Each level is keyed by its atoms (`build_dag_from_trees`): by the
    mask of its variables when it has no other atom, else by that mask
    and the frozenset of the others, which `~id` also records so that a
    level over it reaches through it.  The levels are looked up outermost
    first, so a built cube, or one whose chain ends in a built chain,
    costs one int lookup, and only the missing levels are made, innermost
    first."""
    if not subs:
        nid = made.get(mask)
        if nid is not None:
            return nid
        if not mask & (mask - 1):
            nid = made[mask] = dag.var_node(mask.bit_length() - 1) if mask \
                else dag.const_node(1)
            return nid
    bits = bit_support(mask)
    # plain loops: a comprehension's closure would cost every call, hits too
    kids = []
    for i in bits:
        # a variable is the bare cube of its bit: one int lookup
        nid = made.get(1 << i)
        if nid is None:
            nid = made[1 << i] = dag.var_node(i)
        kids.append(nid)
    if subs:
        for tree in subs:
            kids.append(_node_of_tree(dag, made, tree, arity))
        kids = list(dict.fromkeys(kids))
        if len(kids) == 1:
            return kids[0]
    n_bits, step = len(bits), arity - 1
    inner = (len(kids) - 2) // step * step   # the innermost level's start
    missing = []    # the keys of the levels to make, outermost first
    for start in range(0, inner + 1, step):
        key = mask >> bits[start] << bits[start] if start < n_bits else 0
        if subs:
            others = set()
            for k in kids[max(start, n_bits):]:
                reach = made.get(~k)
                if reach is None:
                    others.add(k)
                else:
                    key |= reach[0]
                    others |= reach[1]
            if others:
                key = key, frozenset(others)
        nid = made.get(key)
        if nid is not None:
            break
        missing.append(key)
    while missing:
        key = missing.pop()
        start = len(missing) * step
        nid = made[key] = dag.add(T_AND, kids[start:] if nid is None
                                  else kids[start:start + step] + [nid])
        if isinstance(key, tuple):
            made[~nid] = key    # cube masks, the other int keys, are >= 0
    return nid


# -- read-back / validation ----------------------------------------------------


def dag_to_expressions(dag: EsopDag) -> list[EsopExpression]:
    """Flatten each output subgraph over GF(2); the verification read-back."""
    problems = validate_dag(dag)
    if problems:
        raise ValueError("malformed graph: " + "; ".join(problems))
    memo: dict[int, int] = {}
    return [EsopExpression(dag.n_vars, dag.expand(nid, memo))
            for _name, nid in dag.output_order]


def validate_dag(dag: EsopDag) -> list[str]:
    issues = []
    roots = [nid for nid, n in dag.nodes.items() if n.kind == T_ROOT]
    if roots != [dag.root]:
        issues.append(f"expected exactly one root ({dag.root}), found {roots}")
    seen_labels: dict = {}
    edges: dict[int, dict[int, int]] = {nid: {} for nid in dag.nodes}
    for nid in sorted(dag.nodes):
        for c in dag.nodes[nid].children:
            if c not in dag.nodes:
                issues.append(f"node {nid} has dangling child {c}")
            else:
                edges[c][nid] = edges[c].get(nid, 0) + 1
    for nid in sorted(dag.nodes):
        node = dag.nodes[nid]
        for p in sorted(node.parents.keys() | edges[nid].keys()):
            have, want = node.parents.get(p, 0), edges[nid].get(p, 0)
            if p not in dag.nodes:
                issues.append(f"node {nid} has dangling parent {p}")
            elif have != want:
                issues.append(f"node {nid} counts {have} edge(s) from {p}, "
                              f"which has {want}")
        if node.is_leaf() and node.children:
            issues.append(f"leaf node {nid} has children")
        if node.kind in (T_AND, T_XOR) and len(node.children) < 2:
            issues.append(f"{node.kind} node {nid} has arity {len(node.children)}")
        if node.kind == T_ID:
            if node.label in seen_labels:
                issues.append(f"duplicate identifier {node.label!r}")
            seen_labels[node.label] = nid
    # depths cannot rise along every edge of a cycle, so this reports each
    for nid, n in dag.nodes.items():
        for c in n.children:
            if c in dag.nodes and dag.nodes[c].depth <= n.depth:
                issues.append(f"depth of {c} not below its parent {nid}")
                break
    return issues


# -- debug dumps ----------------------------------------------------------------


def _node_tag(node: DagNode) -> str:
    if node.kind == T_CONST:
        return f"const{node.label}_{node.depth}"
    if node.kind == T_ID:
        return f"{node.label}_{node.depth}"
    base = {T_ROOT: "root", T_AND: "and", T_XOR: "xor"}[node.kind]
    return f"{base}{node.id}_{node.depth}"


def dump_text(dag: EsopDag) -> str:
    lines = [f"dag n_vars={dag.n_vars} nodes={len(dag.nodes)}"]
    for name, nid in dag.output_order:
        lines.append(f"output {name} -> #{nid}")
    for nid in sorted(dag.nodes):
        node = dag.nodes[nid]
        kids = " ".join(_node_tag(dag.nodes[c]) for c in node.children)
        lines.append(f"#{nid} {_node_tag(node)}" + (f" [{kids}]" if kids else ""))
    return "\n".join(lines) + "\n"

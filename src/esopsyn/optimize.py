"""Optimization engines: kernel factoring, common cube sharing, parent reduction.

All three are independently switchable through OptimizeParams (the T/C/K/P
knobs).  Kernel extraction restructures each output expression before the
graph is built; cube sharing and parent reduction rewrite the graph, and
every rewrite here preserves the function computed by each output.

All three work on plain data: factoring on coefficient words (bit m set
means cube m is a term, as in EsopExpression.coeffs) and cube masks (bit i
for variable x_{i+1}), cube sharing and parent reduction on the graph's
integer node ids and sets of them.  The only EsopExpression taken is
factor_expression's argument.  Its steps (kernel_pairs, best_divisor,
divide) take words: dividing by a cube keeps the cubes holding each of its
variables and shifts them down, one shift per variable
(funcs.variable_patterns).  best_divisor ranks by kernel size, then
co-kernel mask, and a pair below the first recursion level of
kernel_pairs never outranks the level-one pair it lies under: its kernel
is no larger and its co-kernel a strict superset.  So factoring ranks
only the kernels by a single variable unless KERNEL_CAP can cut the
enumeration short: 2^s > KERNEL_CAP for a word whose cubes use s
variables, 11 or more.

Cube sharing sweeps the graph until no share applies, testing again only
the nodes a share or a depth change could have given a new partner (see
common_cube_sharing); the search and the re-testing ask one question of
an index of the graph's shapes kept for the pass (_ShapeIndex.partners).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from itertools import combinations, zip_longest

from .dag import (
    EsopDag, FAnd, FXor, T_AND, T_ID, T_XOR, parent_rewrites,
)
from .funcs import EsopExpression, bit_support, variable_patterns


SHARING_SWEEP_CAP = 32   # cube-sharing sweeps per pass
KERNEL_CAP = 2000        # kernels enumerated per expression (see kernel_pairs)
FEW_CO_PARENTS = 8       # xor co-parents ruled pair by pair below this many


@dataclass(frozen=True)
class OptimizeParams:
    """The four synthesis knobs.

    kernel_threshold of 0 disables kernel extraction; otherwise only
    kernels with more than kernel_threshold cubes may become divisors.
    """

    max_and_arity: int = 3          # T
    cube_sharing: bool = True       # C
    kernel_threshold: int = 0       # K
    parent_reduction: bool = False  # P

    def __post_init__(self):
        if self.max_and_arity < 2:
            raise ValueError("max_and_arity must be >= 2")
        if self.kernel_threshold < 0:
            raise ValueError("kernel_threshold must be >= 0")

    def tckp(self) -> str:
        return (f"{self.max_and_arity}{int(self.cube_sharing)}"
                f"{self.kernel_threshold}{int(self.parent_reduction)}")


def _cube_quotient(word: int, cube: int, patterns) -> int:
    """The cubes of `word` containing `cube`, with `cube` divided out:
    each variable of the cube keeps the cubes holding it and shifts them
    down onto the cubes without it."""
    for j in bit_support(cube):
        word = (word & patterns[j]) >> (1 << j)
    return word


def _variable_kernels(g: int, min_var: int, n_vars: int, patterns):
    """(i, co-kernel mask, kernel word): the kernel of `g` by each variable
    x_{i+1}, i >= min_var, held by at least two cubes.  The co-kernel is
    the largest common cube of those cubes, the kernel their quotient by
    it."""
    for i in range(min_var, n_vars):
        with_i = g & patterns[i]
        if with_i.bit_count() < 2:
            continue
        for j in range(i):
            if with_i & patterns[j] == with_i:
                break   # a smaller variable index reaches the same kernel
        else:
            # the common cube: every variable no cube of with_i lacks,
            # divided out as it is found (a shift keeps the other bits)
            cc, q = 0, with_i
            for j in range(i, n_vars):
                if q & patterns[j] == q:
                    cc |= 1 << j
                    q >>= 1 << j
            yield i, cc, q


def kernel_pairs(word: int, n_vars: int) -> list[tuple[int, int]]:
    """(kernel word, co-kernel mask) pairs with non-trivial co-kernels.

    Recursive enumeration: divide by the largest common cube of the cubes
    containing each variable that occurs at least twice; co-kernels compose
    along the recursion.  Very dense expressions are cut off after
    KERNEL_CAP pairs, loosely: each recursion frame still on the stack
    may add one more pair after the cap, so at most KERNEL_CAP + n_vars
    pairs come back.  A co-kernel mask fixes its kernel (the quotient of
    the word by that cube) and is a nonempty set of the variables the
    word's cubes use, so a word of s variables has at most 2^s - 1 pairs,
    and the cap can cut the enumeration short only when 2^s > KERNEL_CAP:
    on words of 11 or more variables.  No co-kernel comes twice: each step
    divides by the smallest variable of its common cube (_variable_kernels
    skips the others), so the steps to a co-kernel are fixed by it.
    """
    patterns = variable_patterns(n_vars)
    out: list[tuple[int, int]] = []

    def recurse(g: int, min_var: int, co: int):
        if len(out) >= KERNEL_CAP:
            return
        for i, cc, q in _variable_kernels(g, min_var, n_vars, patterns):
            out.append((q, co | cc))
            if len(out) >= KERNEL_CAP:
                return
            recurse(q, i + 1, co | cc)

    recurse(word, 0, 0)
    return out


def best_divisor(pairs, threshold: int) -> int | None:
    """Index of the divisor among (kernel word, co-kernel mask) pairs.

    Only kernels with more than `threshold` cubes qualify.  The largest
    kernel wins, then the lowest co-kernel mask.  For the pairs of one
    expression the largest kernel also leaves the smallest remainder: each
    product co | k is a distinct cube of the expression, so the remainder
    has len(expr) - len(kernel) cubes.  No two pairs of one word tie: a
    co-kernel fixes its kernel, and neither kernel_pairs nor the level-one
    list holds a co-kernel twice.
    """
    best = best_key = None
    for idx, (ker, co) in enumerate(pairs):
        size = ker.bit_count()
        if size > threshold and (best is None or (-size, co) < best_key):
            best, best_key = idx, (-size, co)
    return best


def divide(word: int, divisor: int, n_vars: int) -> tuple[int, int]:
    """Weak division of a coefficient word by a multi-cube divisor over GF(2).

    Returns (quotient, remainder) words with divisor*quotient ^ remainder
    == word and all divisor-quotient products distinct (colliding quotient
    cubes are dropped, lowest first kept, so the identity stays exact).
    """
    patterns = variable_patterns(n_vars)
    cubes = bit_support(divisor)
    q = -1 if cubes else 0
    for dj in cubes:
        q &= _cube_quotient(word, dj, patterns)
    quotient = used = 0
    for qi in bit_support(q):
        products = 0
        for dj in cubes:
            products |= 1 << (dj | qi)
        if products.bit_count() == len(cubes) and not products & used:
            quotient |= 1 << qi
            used |= products
    return quotient, word & ~used


def factor_expression(expr: EsopExpression, params: OptimizeParams):
    """Recursively factored and/xor tree for one output expression.

    Splits off the selected divisor, then factors divisor, quotient and
    remainder the same way; when no kernel beats the threshold (or K is 0)
    the flat two-level form is kept: the coefficient word itself, an `int`
    leaf that the graph builder reads as the xor of its cubes.
    """
    return _factor(expr.coeffs, expr.n_vars, params)


def _factor(word: int, n_vars: int, params: OptimizeParams):
    """factor_expression on a coefficient word.

    When the cap cannot bind on the word (2^s <= KERNEL_CAP, where s is
    the number of variables its cubes use: words of up to 10 variables)
    only the kernels by a single variable (the level-one pairs) are
    ranked: a deeper pair lies in a level-one pair's quotient, with no
    more cubes and a larger co-kernel mask, so best_divisor never picks
    it.  Otherwise the full, capped kernel_pairs list is ranked.
    """
    if word.bit_count() < 2 or params.kernel_threshold == 0:
        return word
    patterns = variable_patterns(n_vars)
    if 1 << sum(bool(word & p) for p in patterns) <= KERNEL_CAP:
        pairs = [(q, cc) for _i, cc, q in _variable_kernels(
            word, 0, n_vars, patterns)]
    else:
        pairs = kernel_pairs(word, n_vars)
    idx = best_divisor(pairs, params.kernel_threshold)
    if idx is None:
        return word
    d = pairs[idx][0]
    # the co-kernel cube is always a quotient cube, so quotient is not 0
    quotient, remainder = divide(word, d, n_vars)
    tree_d = _factor(d, n_vars, params)
    if quotient.bit_count() == 1:
        product = FAnd(quotient.bit_length() - 1, (tree_d,))
    else:
        tree_q = _factor(quotient, n_vars, params)
        product = FAnd(0, (tree_d, tree_q))
    tree_r = _factor(remainder, n_vars, params)
    if isinstance(tree_r, FXor):
        return FXor((product,) + tree_r.parts)
    return FXor((product, tree_r))


@dataclass
class MutationReport:
    events: list[str] = field(default_factory=list)
    nodes_before: int = 0
    nodes_after: int = 0

    def __bool__(self) -> bool:
        return bool(self.events)


# -- common cube sharing -------------------------------------------------------


def _share(dag: EsopDag, i: int, j: int, rule: str,
           index: _ShapeIndex) -> tuple[str, list[int]] | None:
    """Apply a share; returns its event and the nodes whose children changed.

    Both child sets are read from `index.shape`, and `index.hoist(kind,
    child_set)` names the lowest-id node of `kind` whose children are
    exactly `child_set`, or None.  An overlap never asks for i's or j's
    own child set: neither is a subset of the other.
    """
    (kind, ci), cj = index.shape[i], index.shape[j][1]
    if rule == "subset":
        if len(cj) < len(ci):
            i, j, ci = j, i, cj
        rest = [c for c in dag.nodes[j].children if c not in ci]
        dag.set_children(j, [i] + rest)
        return f"subset: #{j} now references #{i}", [j]
    # overlap: hoist only onto an already existing node so the total node
    # count can never grow; fresh hoists are the kernel engine's job
    common = ci & cj
    s = index.hoist(kind, common)
    if s is None:
        return None
    for nid in (i, j):
        rest = [c for c in dag.nodes[nid].children if c not in common]
        dag.set_children(nid, [s] + rest)
    return f"overlap: #{i} and #{j} share #{s}", [i, j]


def _child_pairs(children: frozenset[int]):
    """Each unordered pair of distinct children, as a frozenset; a node of
    two children is its own one pair."""
    if len(children) == 2:
        return (children,)
    return map(frozenset, combinations(children, 2))


def _rule(c: int, wi: int, wj: int) -> str | None:
    """The share two nodes of wi and wj distinct children, c of them in
    common, allow (see `_share_candidates`); equal child sets allow none."""
    if c == wi or c == wj:
        return "subset" if wi != wj else None
    if 2 * c > wi and 2 * c > wj:
        return "overlap"
    return None


def _slice_sum(masks) -> list[int]:
    """The bit-sliced sum of bitmasks: bit s of slice k is bit k of the
    number of masks holding bit s.  Each mask ripples its carries up the
    slices, every slot's counter at once."""
    out: list[int] = []
    for carry in masks:
        k = 0
        while carry:
            if k == len(out):
                out.append(carry)
                break
            s = out[k]
            out[k] = s ^ carry
            carry &= s
            k += 1
    return out


def _toggle(slices: list[int], bit: int, value: int):
    """Flip `bit` in the slices where `value` has a one."""
    slices.extend([0] * (value.bit_length() - len(slices)))
    k = 0
    while value:
        if value & 1:
            slices[k] ^= bit
        value >>= 1
        k += 1


def _constant(v: int) -> list[int]:
    """The slices of v in every slot: all ones (-1) where v has a bit."""
    return [-(v >> k & 1) for k in range(v.bit_length())]


def _equal(a: list[int], b: list[int], among: int) -> int:
    """The slots of `among` where bit-sliced values a and b are equal."""
    for x, y in zip_longest(a, b, fillvalue=0):
        among &= ~(x ^ y)
    return among


def _above(a: list[int], b: list[int], among: int) -> int:
    """The slots of `among` where bit-sliced value a exceeds b, decided at
    the highest slice where they differ."""
    above = 0
    for x, y in reversed(list(zip_longest(a, b, fillvalue=0))):
        above |= among & x & ~y
        among &= ~(x ^ y)
    return above


def _rule_masks(counts: list[int], wi: int, widths: list[int],
                among: int) -> tuple[tuple[str, int], ...]:
    """(rule, mask) for each rule of `_rule`: the slots of `among` whose
    common-child count c with a node of wi children (`counts`, bit-sliced)
    allows it, given their own child counts (`widths`, bit-sliced).  c
    equal to wi puts that node's children within the slot's, c equal to
    the slot's width the slot's within the node's (both: equal sets, no
    rule), and the overlap test compares c with both half widths: wi // 2
    a constant, the slots' the width slices shifted down by one."""
    in_slot = _equal(counts, _constant(wi), among)
    in_node = _equal(counts, widths, among)
    over = _above(counts, widths[1:], _above(
        counts, _constant(wi >> 1), among & ~(in_slot | in_node)))
    return ("subset", in_slot ^ in_node), ("overlap", over)


class _ShapeIndex:
    """The partner search of cube sharing: each internal node's (kind,
    child set), the nodes of each such shape, a bitmask of each child's
    xor parents and each child pair's and parents.  common_cube_sharing
    keeps one for the length of a call and moves it along with each share:
    `update(nids)` re-reads the given nodes from the graph, so a node
    whose children changed takes its new shape and a deleted one leaves.

    A node's co-parents are the other nodes of its kind holding at least
    two of its children, and the number of children a node has in common
    with a co-parent decides the pair's rule (`_rule`: subset, overlap or
    none).  The rule reads only that count and the two child counts, so
    it is symmetric: j is i's partner (`partners`) exactly when i is j's,
    and the search and the re-test bookkeeping ask that one question.
    An and node has few children (at most max(2, T - 1) as built, and a
    share never adds one), so `and_pairs` maps each pair of distinct
    children of an and node (`_child_pairs`) to the and nodes holding
    both, and an and node's co-parents are the holders of its child pairs
    (the double-cube index of Rajski and Vasudevamurthy's fast extraction,
    used here only to find partners).  An output xor node can have
    thousands of children, too many for pair entries, so xor nodes are
    counted on masks instead.  Each xor node owns one bit, its slot
    (`xor_slot`, read back through `xor_ids`); `xor_masks` maps a node to
    the mask of the xor nodes holding it.  Summed bit-sliced over an xor
    node's children (`_slice_sum`), the masks give its common-child count
    with every xor node at once, so a variable with thousands of xor
    parents costs one mask per count; the slots whose count is 2 or more
    are its co-parents.  With FEW_CO_PARENTS or more of them, `_rule_masks`
    rules them all at once, comparing those slices with every xor node's
    child count (`width_slices`, also bit-sliced); fewer, and the
    co-parents of an and node, are ruled one by one on the intersection of
    the two child sets.  An overlap finds its hoist node with one lookup
    (`hoist`).
    """

    def __init__(self, dag: EsopDag):
        self.nodes = dag.nodes
        self.shape: dict[int, tuple[str, frozenset[int]]] = {}
        self.ids: dict[tuple[str, frozenset[int]], set[int]] = {}
        self.xor_slot: dict[int, int] = {}
        self.xor_ids: list[int] = []
        self.xor_masks: dict[int, int] = {}
        self.widths: list[int] | None = None    # see width_slices
        self.and_pairs: dict[frozenset[int], set[int]] = {}
        self.update(dag.nodes)

    def update(self, nids):
        nodes, shape, ids = self.nodes, self.shape, self.ids
        slot, masks, widths = self.xor_slot, self.xor_masks, self.widths
        pairs = self.and_pairs
        for nid in nids:
            old = shape.pop(nid, None)
            if old is not None:
                same = ids[old]
                same.discard(nid)
                if not same:
                    del ids[old]
                if old[0] == T_AND:
                    for pair in _child_pairs(old[1]):
                        holders = pairs[pair]
                        holders.discard(nid)
                        if not holders:
                            del pairs[pair]
            node = nodes.get(nid)
            new = None
            if node is not None and node.kind in (T_AND, T_XOR):
                new = shape[nid] = (node.kind, frozenset(node.children))
                ids.setdefault(new, set()).add(nid)
                if node.kind == T_AND:
                    for pair in _child_pairs(new[1]):
                        pairs.setdefault(pair, set()).add(nid)
            if (new or old or (None,))[0] != T_XOR:    # now or before
                continue
            # toggle the node's bit on the children it gained or lost, and
            # on the width slices where its old and new counts differ
            if nid not in slot:
                slot[nid] = len(self.xor_ids)
                self.xor_ids.append(nid)
            bit = 1 << slot[nid]
            was = old[1] if old else frozenset()
            now = new[1] if new else frozenset()
            for c in was ^ now:
                masks[c] = masks.get(c, 0) ^ bit
            if widths is not None:
                _toggle(widths, bit, len(was) ^ len(now))

    def width_slices(self) -> list[int]:
        """Every xor node's child count, bit-sliced over the slots.  Only
        the comparisons of `partners` read them, so they are built on
        their first use and `update` keeps them from then on."""
        if self.widths is None:
            self.widths = []
            for nid, (kind, kids) in self.shape.items():
                if kind == T_XOR:
                    _toggle(self.widths, 1 << self.xor_slot[nid], len(kids))
        return self.widths

    def _xor_co_parents(self, i: int) -> tuple[list[int], int]:
        """Xor node i's common-child counts, bit-sliced over the slots (the
        `_slice_sum` of its children's masks), and the mask of the other
        xor nodes holding at least two of its children."""
        counts = _slice_sum(map(self.xor_masks.__getitem__, self.shape[i][1]))
        many = 0
        for s in counts[1:]:
            many |= s
        return counts, many & ~(1 << self.xor_slot[i])

    def partners(self, i: int) -> list[tuple[int, str]]:
        """(co-parent, rule) for each co-parent of i whose common-child
        count allows a share (`_rule`), in no set order."""
        shape = self.shape
        ci = shape[i][1]
        if shape[i][0] == T_XOR:
            counts, many = self._xor_co_parents(i)
            if not many:
                return []
            ids = self.xor_ids
            if many.bit_count() >= FEW_CO_PARENTS:
                return [(ids[s], rule) for rule, mask in _rule_masks(
                    counts, len(ci), self.width_slices(), many)
                    for s in bit_support(mask)]
            co = [ids[s] for s in bit_support(many)]
        else:
            co = set().union(*map(self.and_pairs.__getitem__,
                                  _child_pairs(ci)))
            co.discard(i)
        out = []
        for j in co:
            cj = shape[j][1]
            rule = _rule(len(ci & cj), len(ci), len(cj))
            if rule:
                out.append((j, rule))
        return out

    def hoist(self, kind: str, child_set) -> int | None:
        """Lowest id of the `kind` nodes whose children are exactly
        child_set, or None (the hoist that `_share` asks for)."""
        same = self.ids.get((kind, frozenset(child_set)))
        return min(same) if same else None


def _share_candidates(dag: EsopDag, i: int,
                      index: _ShapeIndex) -> list[tuple[int, str]]:
    """(partner, rule) pairs for node i, in (partner depth desc, id) order.

    A partner is a co-parent of i's kind, no deeper than i, that is
    neither i's child nor its parent, and whose c common children with i
    allow one of the rules `_share` applies:
    - subset: c is one side's child count and not the other's, so that
      side's children all appear in the other;
    - overlap: 2c is above both counts, so the common children outnumber
      half of each node's children (a majority of the combined count can
      never happen unless one side is a subset, so the test is per node).
    Both need c >= 2 (an internal node has at least two children), which
    a co-parent has; equal child sets allow neither (common_cube_sharing).
    """
    nodes, shape = dag.nodes, index.shape
    depth = nodes[i].depth
    ci = shape[i][1]
    out = [(j, rule) for j, rule in index.partners(i)
           if 0 < nodes[j].depth <= depth
           and i not in shape[j][1] and j not in ci]
    out.sort(key=lambda jr: (-nodes[jr[0]].depth, jr[0]))
    return out


def common_cube_sharing(dag: EsopDag) -> MutationReport:
    """Hoist shared child subsets so common subterms are computed once.

    Scans nodes from one level above the deepest leaves toward the root,
    pairing each node with its co-parents (nodes sharing at least two of
    its children) at its own and every shallower level; at most one share
    is applied per node per sweep, and sweeps repeat to a fixpoint, or
    until SHARING_SWEEP_CAP (read at each call) have run, each on the
    depths it began with.

    Sharing has two rules (`_share_candidates`), and twins, two nodes of one
    kind with one child set, get neither: a graph the builder makes holds
    none, before the pass or after any share.  (a) Its xor nodes compute
    distinct functions: each is the node of `_factor(w)` for the word w it
    computes, `_factor` depends only on w, and equal trees build equal kids.
    (b) Its and nodes hold distinct atom sets, an and node's atoms being the
    non-and nodes it reaches through and nodes only: the builder keys
    every and level by its atoms (`dag.build_dag_from_trees`).  (c) A
    share creates and deletes no node, changes no node's function and
    keeps every and node's atoms: the node it hoists, i or s, has exactly
    the children it replaces, and each path it removes, j->c or i->c, gets
    a longer one, j->i->c or i->s->c.  Twins after a share would
    contradict (a) or (b).

    A node is tried only while it is dirty.  The nodes with a co-parent
    start dirty: every xor node, and each and node holding a child pair
    that another and node holds (`_ShapeIndex.and_pairs`).  A node with no
    co-parent has no partner, and a share that gives it one dirties it, by
    the first of the ways below.  A failed node gets a new candidate only
    in one of three ways, each found through the symmetric partner question
    the search asks (`_ShapeIndex.partners`).  A share reshapes r: r can
    become k's partner only if k becomes r's, so a share dirties the
    reshaped nodes and their partners, and the node that made it stays
    dirty.  A hoist node appears: an overlap hoists exactly the pair's
    common children c, so a reshaped r with children c is a subset partner
    of each side.  A node gets deeper, past a partner's depth filter: by
    (c) a relabel after a share moves nodes only deeper, so the relabel
    after each sweep dirties the nodes it moved.  A sweep takes the dirty
    nodes from a (depth desc, id) heap, and a node a share dirties after
    the current one joins it.  The relabel before the first sweep settles
    the edits before the pass (the index never sees a node it deletes); the
    edit log limits each relabel to the nodes below the last sweep's
    shares.
    """
    report = MutationReport(nodes_before=len(dag))
    nodes = dag.nodes
    dag.recompute_depths()
    index = _ShapeIndex(dag)
    dirty = set(index.xor_ids).union(
        *(holders for holders in index.and_pairs.values() if len(holders) > 1))
    for _ in range(SHARING_SWEEP_CAP):
        changed = False
        heap = [(-nodes[nid].depth, nid) for nid in dirty]
        heapq.heapify(heap)
        queued = set(dirty)
        while heap:
            at = heapq.heappop(heap)
            i = at[1]
            for j, rule in _share_candidates(dag, i, index):
                shared = _share(dag, i, j, rule, index)
                if shared:
                    event, reshaped = shared
                    index.update(reshaped)
                    report.events.append(event)
                    changed = True
                    fresh = set(reshaped)
                    for nid in reshaped:
                        fresh.update(k for k, _rule in index.partners(nid))
                    dirty |= fresh      # i stays in it
                    # a node dirtied after this one in the order is
                    # tried in this sweep
                    for nid in fresh - queued:
                        if (-nodes[nid].depth, nid) > at:
                            queued.add(nid)
                            heapq.heappush(heap, (-nodes[nid].depth, nid))
                    break
            else:
                dirty.discard(i)
        if not changed:
            break
        dirty.update(dag.recompute_depths())
    report.nodes_after = len(dag)
    return report


# -- parent reduction ------------------------------------------------------------


def _reaches(dag: EsopDag, src: int, dst: int) -> bool:
    """True when dst is reachable from src through child edges."""
    if src == dst:
        return True
    stack = [src]
    seen = {src}
    while stack:
        for c in dag.nodes[stack.pop()].children:
            if c == dst:
                return True
            if c not in seen:
                seen.add(c)
                stack.append(c)
    return False


def reduce_parents(dag: EsopDag, leaf: int) -> MutationReport:
    """Cut the leaf's parent count by routing parents through an existing
    a^b node:  a = (a^b)^b  for xor parents,  a.b = ((a^b)b)^b  for the
    two-child and node over the same pair (`dag.parent_rewrites`).

    Applies the first rewrite that closes no cycle until none is left; a
    no-op when none fits.
    """
    report = MutationReport(nodes_before=len(dag))
    node = dag.nodes.get(leaf)
    if node is None or node.kind != T_ID:
        report.nodes_after = len(dag)
        return report
    while True:
        for e, b, q in parent_rewrites(dag, leaf):
            if dag.nodes[q].kind == T_XOR:
                if _reaches(dag, e, q):
                    continue  # routing through e would close a cycle
                dag.xor_splice(q, leaf, [e, b])
                surv = dag.normalize_node(q)
                report.events.append(
                    f"xor expansion at #{q}" + ("" if surv == q else f" -> #{surv}"))
            else:
                if any(_reaches(dag, e, p) for p in dag.nodes[q].parents):
                    continue
                _apply_product_expansion(dag, q, e, b)
                report.events.append(f"and expansion at #{q}")
            break
        else:
            break
    if report:
        dag.recompute_depths()
    report.nodes_after = len(dag)
    return report


def _apply_product_expansion(dag: EsopDag, q: int, e: int, b: int):
    """Replace and(a, b) by ((a^b) . b) ^ b everywhere q is referenced."""
    a2 = dag.add(T_AND, [e, b])
    v = None
    for p in sorted(dag.nodes[q].parents):
        pn = dag.nodes[p]
        if pn.kind == T_XOR:
            dag.xor_splice(p, q, [a2, b])
            dag.normalize_node(p)
        else:
            if v is None:
                v = dag.add(T_XOR, [a2, b])
            dag.set_children(p, [v if c == q else c for c in pn.children])
    if v is not None:
        dag.output_order = [
            (name, v if nid == q else nid) for name, nid in dag.output_order
        ]
    if not dag.nodes[q].parents:
        dag._delete(q)


def parent_reduction_pass(dag: EsopDag) -> MutationReport:
    """One mapping-iteration's worth of parent reduction.

    Candidates are the leaves with exactly two non-root parents that a
    rewrite fits (`dag.parent_rewrites`), so one rewrite leaves them a
    single parent.  They are tried in line order; the first with a
    rewrite that closes no cycle is reduced and the pass stops until the
    next mapping iteration.  The graph's ready index keeps the candidate
    set up to date from the first pass on (see `dag.ReadyIndex`).
    """
    index = dag.refreshed_index(parent_candidates=True)
    candidates = sorted((dag.nodes[nid].line, nid)
                        for nid in index.parent_candidates)
    for _line, nid in candidates:
        report = reduce_parents(dag, nid)
        if report:
            return report
    return MutationReport(nodes_before=len(dag), nodes_after=len(dag))

"""Optimization engines: kernel factoring, common cube sharing, parent reduction.

All three are independently switchable through OptimizeParams (the T/C/K/P
knobs).  Kernel extraction restructures each output expression before the
graph is built; cube sharing and parent reduction rewrite the graph, and
every rewrite here preserves the function computed by each output.

All three work on plain data: factoring on cube masks (an int per product
term, bit i for variable x_{i+1}) and frozensets of them, cube sharing and
parent reduction on the graph's integer node ids and sets of them.  Cube
and EsopExpression objects appear only at the public entry points:
factor_expression's argument, extract_kernels and select_divisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .dag import (
    EsopDag, FAnd, FCube, FXor, T_AND, T_ID, T_ROOT, T_XOR,
)
from .funcs import Cube, EsopExpression, cube_order


@dataclass(frozen=True)
class OptimizeParams:
    """The four synthesis knobs plus implementation limits.

    kernel_threshold of 0 disables kernel extraction; otherwise only
    kernels with more than kernel_threshold cubes may become divisors.
    """

    max_and_arity: int = 3          # T
    cube_sharing: bool = True       # C
    kernel_threshold: int = 0       # K
    parent_reduction: bool = False  # P
    sharing_sweep_cap: int = 32
    kernel_cap: int = 2000

    def __post_init__(self):
        if self.max_and_arity < 2:
            raise ValueError("max_and_arity must be >= 2")
        if self.kernel_threshold < 0:
            raise ValueError("kernel_threshold must be >= 0")

    def tckp(self) -> str:
        return (f"{self.max_and_arity}{int(self.cube_sharing)}"
                f"{self.kernel_threshold}{int(self.parent_reduction)}")


@dataclass(frozen=True)
class KernelEntry:
    kernel: EsopExpression
    co_kernel: Cube
    remainder: EsopExpression


@dataclass(frozen=True)
class KernelSet:
    entries: tuple[KernelEntry, ...]

    def __len__(self) -> int:
        return len(self.entries)


def _kernel_pairs(masks: frozenset[int], n_vars: int, cap: int) -> list[tuple[frozenset[int], int]]:
    """(kernel cube set, co-kernel mask) pairs with non-trivial co-kernels.

    Recursive enumeration: divide by the largest common cube of the cubes
    containing each variable that occurs at least twice; co-kernels compose
    along the recursion.  Capped for very dense expressions.
    """
    out: list[tuple[frozenset[int], int]] = []
    seen: set[tuple[int, frozenset[int]]] = set()

    def recurse(g: frozenset[int], min_var: int, co: int):
        if len(out) >= cap:
            return
        for i in range(min_var, n_vars):
            bit = 1 << i
            with_i = [m for m in g if m & bit]
            if len(with_i) < 2:
                continue
            cc = with_i[0]
            for m in with_i[1:]:
                cc &= m
            if cc & (bit - 1):
                continue  # a smaller variable index reaches the same kernel
            q = frozenset(m & ~cc for m in with_i)
            key = (co | cc, q)
            if key not in seen:
                seen.add(key)
                out.append((q, co | cc))
                if len(out) >= cap:
                    return
            recurse(q, i + 1, co | cc)

    recurse(masks, 0, 0)
    return out


def extract_kernels(expr: EsopExpression, cap: int = 2000) -> KernelSet:
    """All kernel/co-kernel/remainder triples of an expression.

    Each entry satisfies co_kernel * kernel ^ remainder == expr over GF(2).
    Expressions with fewer than two cubes have no kernels.
    """
    masks = expr.masks
    if len(masks) < 2:
        return KernelSet(())
    entries = []
    for ker, co in _kernel_pairs(masks, expr.n_vars, cap):
        products = frozenset(co | k for k in ker)
        rem = masks - products
        entries.append(KernelEntry(
            EsopExpression.from_masks(expr.n_vars, ker),
            Cube(co),
            EsopExpression.from_masks(expr.n_vars, rem),
        ))
    return KernelSet(tuple(entries))


def _best_divisor(pairs, threshold: int) -> int | None:
    """Index of the divisor among (kernel cube set, co-kernel mask) pairs.

    Only kernels with more than `threshold` cubes qualify.  The largest
    kernel wins, then the lowest co-kernel mask, then the kernel's cubes in
    cube_order.  For the pairs of one expression the largest kernel also
    leaves the smallest remainder: each product co | k is a distinct cube
    of the expression, so the remainder has len(expr) - len(kernel) cubes.
    The cube order is built only for pairs tied on size and co-kernel.
    """
    best = best_key = None
    for idx, (ker, co) in enumerate(pairs):
        if len(ker) <= threshold:
            continue
        key = (-len(ker), co)
        if best is None or key < best_key or (
                key == best_key
                and cube_order(ker) < cube_order(pairs[best][0])):
            best, best_key = idx, key
    return best


def select_divisor(kernels: KernelSet, threshold: int) -> KernelEntry | None:
    """Largest kernel among those bigger than the threshold, which for the
    kernels of one expression is the one leaving the smallest remainder.

    Ties break toward the lowest co-kernel mask, then the kernel's sorted
    cube list, keeping runs reproducible (see _best_divisor).
    """
    idx = _best_divisor([(e.kernel.masks, e.co_kernel.mask)
                         for e in kernels.entries], threshold)
    return None if idx is None else kernels.entries[idx]


def divide(masks: frozenset[int], divisor: frozenset[int]) -> tuple[frozenset[int], frozenset[int]]:
    """Weak division of a cube set by a multi-cube divisor over GF(2).

    Returns (quotient, remainder) with divisor*quotient ^ remainder == masks
    and all divisor-quotient products distinct (colliding quotient cubes are
    dropped so the identity stays exact).
    """
    d = sorted(divisor)
    q: set[int] | None = None
    for dj in d:
        qj = {m & ~dj for m in masks if m & dj == dj}
        q = qj if q is None else q & qj
    q = q or set()
    kept: list[int] = []
    used: set[int] = set()
    for qi in sorted(q):
        products = {dj | qi for dj in d}
        if len(products) == len(d) and not (products & used):
            kept.append(qi)
            used |= products
    quotient = frozenset(kept)
    remainder = masks - used
    return quotient, remainder


def factor_expression(expr: EsopExpression, params: OptimizeParams):
    """Recursively factored and/xor tree for one output expression.

    Splits off the selected divisor, then factors divisor, quotient and
    remainder the same way; when no kernel beats the threshold the flat
    two-level form is kept.
    """
    return _factor(expr.masks, expr.n_vars, params)


def _flat_tree(masks: frozenset[int]):
    parts = tuple(FCube(m) for m in cube_order(masks))
    if len(parts) == 1:
        return parts[0]
    return FXor(parts)


def _factor(masks: frozenset[int], n_vars: int, params: OptimizeParams):
    if len(masks) < 2 or params.kernel_threshold == 0:
        return _flat_tree(masks)
    pairs = _kernel_pairs(masks, n_vars, params.kernel_cap)
    idx = _best_divisor(pairs, params.kernel_threshold)
    if idx is None:
        return _flat_tree(masks)
    d = pairs[idx][0]
    quotient, remainder = divide(masks, d)
    if not quotient:
        return _flat_tree(masks)
    tree_d = _factor(d, n_vars, params)
    if len(quotient) == 1:
        (q0,) = quotient
        product = FAnd(q0, (tree_d,))
    else:
        tree_q = _factor(quotient, n_vars, params)
        product = FAnd(0, (tree_d, tree_q))
    tree_r = _factor(remainder, n_vars, params)
    if isinstance(tree_r, FXor):
        return FXor((product,) + tree_r.parts)
    return FXor((product, tree_r))


@dataclass
class MutationReport:
    pass_name: str
    events: list[str] = field(default_factory=list)
    nodes_before: int = 0
    nodes_after: int = 0

    def __bool__(self) -> bool:
        return bool(self.events)


# -- common cube sharing -------------------------------------------------------


def _shareable(dag: EsopDag, i: int, j: int) -> str | None:
    """Which sharing rule a node pair satisfies: merge, subset or overlap.

    Subset: one node's children all appear in the other.  Overlap: the
    common children outnumber half of each node's children (a majority of
    the combined count can never happen unless one side is a subset, so
    the test is per node).
    """
    ni, nj = dag.nodes[i], dag.nodes[j]
    if ni.kind != nj.kind or ni.kind not in (T_AND, T_XOR):
        return None
    ci, cj = set(ni.children), set(nj.children)
    if i in cj or j in ci:
        return None
    if ci == cj:
        return "merge"
    if ci < cj or cj < ci:
        return "subset"
    common = ci & cj
    if len(common) >= 2 and 2 * len(common) > len(ci) and 2 * len(common) > len(cj):
        return "overlap"
    return None


def _share(dag: EsopDag, i: int, j: int, rule: str) -> str | None:
    ni, nj = dag.nodes[i], dag.nodes[j]
    ci, cj = set(ni.children), set(nj.children)
    if rule == "merge":
        keep, drop = (i, j) if i < j else (j, i)
        dag.merge_nodes(keep, drop)
        return f"merge #{drop} into #{keep}"
    if rule == "subset":
        if cj < ci:
            i, j = j, i
            ni, nj = nj, ni
            ci, cj = cj, ci
        rest = [c for c in nj.children if c not in ci]
        dag.set_children(j, [i] + rest)
        return f"subset: #{j} now references #{i}"
    # overlap: hoist only onto an already existing node so the total node
    # count can never grow; fresh hoists are the kernel engine's job
    common = ci & cj
    s = _find_with_children(dag, ni.kind, common, exclude=(i, j))
    if s is None:
        return None
    for nid in (i, j):
        rest = [c for c in dag.nodes[nid].children if c not in common]
        dag.set_children(nid, [s] + rest)
    return f"overlap: #{i} and #{j} share #{s}"


def _find_with_children(dag: EsopDag, kind: str, child_set: set[int],
                        exclude=()) -> int | None:
    """Lowest-id node of `kind` whose children are exactly `child_set`.

    Such a node is a parent of every member, so the parents of the member
    with the fewest parents are the only candidates.
    """
    pivot = min(child_set, key=lambda c: len(dag.nodes[c].parents))
    for nid in sorted(set(dag.nodes[pivot].parents)):
        if nid in exclude:
            continue
        node = dag.nodes[nid]
        if node.kind == kind and set(node.children) == child_set:
            return nid
    return None


def _share_candidates(dag: EsopDag, i: int) -> list[int]:
    """Partners for node i, in (depth desc, id) order: the co-parents
    sharing at least two distinct children with it, no deeper than i.

    A merge or a subset shares every child of the smaller node and an
    internal node has at least two, and an overlap needs two common
    children, so no other node can be shareable with i.  A running union
    of the children's parent lists finds them with set operations, so an
    input leaf with thousands of parents costs one pass in C.
    """
    nodes = dag.nodes
    seen: set[int] = set()
    shared: set[int] = set()
    for c in set(nodes[i].children):
        parents = nodes[c].parents
        shared |= seen.intersection(parents)
        seen.update(parents)
    depth = nodes[i].depth
    return sorted(
        (j for j in shared if j != i and 0 < nodes[j].depth <= depth),
        key=lambda j: (-nodes[j].depth, j))


def common_cube_sharing(dag: EsopDag, sweep_cap: int = 32) -> MutationReport:
    """Hoist shared child subsets so common subterms are computed once.

    Scans nodes from one level above the deepest leaves toward the root,
    pairing each node with its co-parents (nodes sharing at least two of
    its children) at its own and every shallower level; at most one share
    is applied per node per sweep, and sweeps repeat to a fixpoint.
    Sharing creates no node, so depths stay as the sweep began.
    """
    report = MutationReport("cube_sharing", nodes_before=len(dag))
    changed = True
    for _ in range(sweep_cap):
        changed = False
        dag.recompute_depths()
        levels: dict[int, list[int]] = {}
        for nid in dag.internal_ids():
            levels.setdefault(dag.nodes[nid].depth, []).append(nid)
        for depth in sorted(levels, reverse=True):
            for i in levels[depth]:
                if i not in dag.nodes:
                    continue
                for j in _share_candidates(dag, i):
                    rule = _shareable(dag, i, j)
                    if rule is None:
                        continue
                    event = _share(dag, i, j, rule)
                    if event:
                        report.events.append(event)
                        changed = True
                        break
        if not changed:
            break
    if changed:     # a sweep that changed nothing left its depths fresh
        dag.recompute_depths()
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


def _binary_xor_parents(dag: EsopDag, a: int) -> list[tuple[int, int]]:
    """(xor node, partner child) pairs where the node is exactly a ^ b."""
    out = []
    for p in sorted(set(dag.nodes[a].parents)):
        node = dag.nodes[p]
        if node.kind == T_XOR and len(node.children) == 2:
            b = node.children[1] if node.children[0] == a else node.children[0]
            if b != a:
                out.append((p, b))
    return out


def reduce_parents(dag: EsopDag, leaf: int) -> MutationReport:
    """Cut the leaf's parent count by routing parents through an existing
    a^b node:  a = (a^b)^b  for xor parents,  a.b = ((a^b)b)^b  for the
    two-child and node over the same pair.

    Applies until the leaf's parent count stops shrinking; a no-op when no
    a^b node exists.
    """
    report = MutationReport("parent_reduction", nodes_before=len(dag))
    node = dag.nodes.get(leaf)
    if node is None or node.kind != T_ID:
        report.nodes_after = len(dag)
        return report
    while True:
        rewrote = False
        for e, b in _binary_xor_parents(dag, leaf):
            for q in sorted(set(dag.nodes[leaf].parents)):
                if q == e:
                    continue
                qn = dag.nodes[q]
                if qn.kind == T_XOR:
                    if _reaches(dag, e, q):
                        continue  # routing through e would close a cycle
                    dag.xor_splice(q, leaf, [e, b])
                    surv = dag.normalize_node(q)
                    report.events.append(
                        f"xor expansion at #{q}" + ("" if surv == q else f" -> #{surv}"))
                    rewrote = True
                    break
                if qn.kind == T_AND and len(qn.children) == 2 \
                        and set(qn.children) == {leaf, b}:
                    if any(_reaches(dag, e, p)
                           for p in set(dag.nodes[q].parents)):
                        continue
                    _apply_product_expansion(dag, q, e, b)
                    report.events.append(f"and expansion at #{q}")
                    rewrote = True
                    break
            if rewrote:
                break
        if not rewrote:
            break
    if report:
        dag.recompute_depths()
    report.nodes_after = len(dag)
    return report


def _apply_product_expansion(dag: EsopDag, q: int, e: int, b: int):
    """Replace and(a, b) by ((a^b) . b) ^ b everywhere q is referenced."""
    a2 = dag.get_or_create(T_AND, [e, b])
    v = None
    for p in sorted(set(dag.nodes[q].parents)):
        if p not in dag.nodes:
            continue
        pn = dag.nodes[p]
        if pn.kind == T_XOR:
            dag.xor_splice(p, q, [a2, b])
            dag.normalize_node(p)
        else:
            if v is None:
                v = dag.get_or_create(T_XOR, [a2, b])
            dag.set_children(p, [v if c == q else c for c in pn.children])
    if v is not None:
        dag.output_order = [
            (name, v if nid == q else nid) for name, nid in dag.output_order
        ]
    if q in dag.nodes and not dag.nodes[q].parents:
        dag._delete(q)


def parent_reduction_pass(dag: EsopDag) -> MutationReport:
    """One mapping-iteration's worth of parent reduction.

    Candidates are the minimum-parent leaves that a single rewrite turns
    into single-parent leaves (exactly two non-root parents), tried in
    line order; the first that admits a reduction is reduced and the pass
    stops until the next mapping iteration.
    """
    candidates = []
    for nid, node in sorted(dag.nodes.items()):
        if node.kind != T_ID:
            continue
        count = sum(1 for p in node.parents if dag.nodes[p].kind != T_ROOT)
        if count == 2:
            candidates.append((node.line if node.line is not None else nid, nid))
    candidates.sort()
    for _line, nid in candidates:
        report = reduce_parents(dag, nid)
        if report:
            return report
    return MutationReport("parent_reduction",
                          nodes_before=len(dag), nodes_after=len(dag))

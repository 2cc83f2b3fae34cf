import copy
import functools
import random
from collections import Counter
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from esopsyn import benchmarks
from esopsyn.dag import (
    EsopDag, FAnd, FXor, T_AND, T_CONST, T_ID, T_XOR, build_dag_from_trees,
    dag_to_expressions, dump_text, validate_dag,
)
from esopsyn.funcs import (
    EsopExpression, Permutation, anf_from_truth_table, bit_support, cube_order,
    truth_table_from_permutation,
)
from esopsyn.mapper import synthesize
from esopsyn.optimize import OptimizeParams, factor_expression


def expr(n, masks):
    return EsopExpression.from_masks(n, masks)


def flat_dag(exprs, max_and_arity, output_names=None):
    """The flat graph `synthesize` builds at K = 0."""
    trees = [factor_expression(e, OptimizeParams()) for e in exprs]
    n_vars = exprs[0].n_vars if exprs else 0
    return build_dag_from_trees(trees, n_vars, max_and_arity, output_names)


def test_single_variable_output_is_a_bare_identifier():
    dag = flat_dag([expr(2, [0b01])], 3)
    (child,) = dag.nodes[dag.root].children
    assert dag.nodes[child].kind == T_ID
    assert dag.nodes[child].label == "x1"


def test_mod5_shape_under_wide_gates():
    cubes = {0b0000, 0b0001, 0b0010, 0b0011, 0b0100, 0b0110, 0b1000, 0b1001,
             0b1100}
    dag = flat_dag([expr(4, cubes)], 3)
    (top,) = dag.nodes[dag.root].children
    node = dag.nodes[top]
    assert node.kind == T_XOR
    kinds = [dag.nodes[c].kind for c in node.children]
    assert len(kinds) == 9
    assert kinds.count(T_CONST) == 1
    assert kinds.count(T_ID) == 4
    assert kinds.count(T_AND) == 4
    for c in node.children:
        if dag.nodes[c].kind == T_AND:
            assert len(dag.nodes[c].children) == 2


def test_wide_cube_is_chained_to_the_arity_bound():
    dag = flat_dag([expr(3, [0b111])], 3)     # largest gate: 3 lines
    (top,) = dag.nodes[dag.root].children
    outer = dag.nodes[top]
    assert outer.kind == T_AND and len(outer.children) == 2
    inner = dag.nodes[outer.children[1]]
    assert inner.kind == T_AND and len(inner.children) == 2
    back = dag_to_expressions(dag)[0]
    assert back == expr(3, [0b111])


def test_arity_bound_validation():
    with pytest.raises(ValueError):
        flat_dag([expr(2, [0b11])], 1)
    with pytest.raises(ValueError):
        flat_dag([], 3)


def test_identical_cubes_share_one_node():
    dag = flat_dag([expr(3, [0b011, 0b100]), expr(3, [0b011])], 4)
    ands = [n for n in dag.nodes.values() if n.kind == T_AND]
    assert len(ands) == 1
    assert len(ands[0].parents) == 2
    ids = [n for n in dag.nodes.values() if n.kind == T_ID]
    assert len(ids) == len({n.label for n in ids})


def test_readback_round_trip_random():
    rng = random.Random(31)
    for _ in range(30):
        n = rng.randint(1, 6)
        exprs = []
        for _ in range(rng.randint(1, 3)):
            masks = {rng.randrange(1 << n) for _ in range(rng.randint(0, 10))}
            exprs.append(expr(n, masks))
        for t in (2, 3, n + 1):
            dag = flat_dag(exprs, max(t, 2))
            back = dag_to_expressions(dag)
            assert back == exprs
            assert validate_dag(dag) == []


def test_flat_children_count_matches_cube_count():
    # with sharing off and wide gates every non-constant cube keeps its
    # own child under the output's xor node
    rng = random.Random(8)
    for _ in range(20):
        n = rng.randint(2, 6)
        masks = {rng.randrange(1, 1 << n) for _ in range(rng.randint(2, 12))}
        dag = flat_dag([expr(n, masks)], n + 1)
        (top,) = dag.nodes[dag.root].children
        node = dag.nodes[top]
        countable = [c for c in node.children
                     if dag.nodes[c].kind in (T_AND, T_ID)]
        assert len(countable) == len(masks)


def test_oracle_chain_for_the_prime_counter():
    tt = truth_table_from_permutation(Permutation((0, 2, 3, 5, 7, 1, 4, 6)))
    exprs = anf_from_truth_table(tt)
    dag = flat_dag(exprs, 3, output_names=list(tt.output_names))
    back = dag_to_expressions(dag)
    assert back == exprs


def test_validate_reports_broken_mirrors():
    dag = flat_dag([expr(2, [0b01, 0b10])], 3)
    assert validate_dag(dag) == []
    (top,) = dag.nodes[dag.root].children
    dag.nodes[top].parents[12345] = 1
    problems = validate_dag(dag)
    assert any("dangling parent" in p for p in problems)
    # a parent count off by one is caught as well as a missing parent
    del dag.nodes[top].parents[12345]
    child = dag.nodes[top].children[0]
    dag.nodes[child].parents[top] += 1
    assert validate_dag(dag) == [
        f"node {child} counts 2 edge(s) from {top}, which has 1"]
    del dag.nodes[child].parents[top]
    assert validate_dag(dag) == [
        f"node {child} counts 0 edge(s) from {top}, which has 1"]


def test_validate_reports_a_cycle_of_two_xor_nodes():
    dag = flat_dag([expr(2, [0b01, 0b10]), expr(2, [0b00, 0b11])], 3)
    a, b = dag.nodes[dag.root].children
    assert dag.nodes[a].kind == dag.nodes[b].kind == T_XOR
    dag.set_children(a, dag.nodes[a].children + [b])
    dag.set_children(b, dag.nodes[b].children + [a])
    for nid, node in dag.nodes.items():
        if nid not in (dag.root, a, b):
            node.depth += 10   # below a and b whatever their depths
    # whatever the depths say, one edge of the cycle does not go down
    for da, db in ((1, 1), (1, 2), (2, 1), (5, 3)):
        dag.nodes[a].depth, dag.nodes[b].depth = da, db
        problems = validate_dag(dag)
        assert f"depth of {b} not below its parent {a}" in problems or \
            f"depth of {a} not below its parent {b}" in problems, (da, db)


def test_validate_reports_bad_arity():
    dag = flat_dag([expr(2, [0b01, 0b10])], 3)
    (top,) = dag.nodes[dag.root].children
    child = dag.nodes[top].children[1]
    dag.set_children(top, [dag.nodes[top].children[0]])
    del child
    assert any("arity" in p for p in validate_dag(dag))


def test_dumps_carry_depth_suffixes():
    dag = flat_dag([expr(2, [0b01, 0b10, 0b11])], 3)
    text = dump_text(dag)
    assert "root0_0" in text
    assert "x1_" in text


def test_long_random_rewrite_sequences_keep_the_graph_valid(monkeypatch):
    # >1000 rewrite steps across one-sweep sharing, parent reduction and
    # mapping, revalidating as we go; node set and depths must equal what a
    # full recompute derives (validate_dag alone accepts depths that are
    # too high)
    from esopsyn import optimize
    from esopsyn.circuit import Circuit
    from esopsyn.mapper import find_target, map_target
    from esopsyn.optimize import common_cube_sharing, parent_reduction_pass

    monkeypatch.setattr(optimize, "SHARING_SWEEP_CAP", 1)

    rng = random.Random(2718)
    steps = 0
    while steps < 1000:
        n = rng.randint(2, 5)
        exprs = [expr(n, {rng.randrange(1 << n)
                          for _ in range(rng.randint(1, 10))})
                 for _ in range(rng.randint(1, 3))]
        dag = flat_dag(exprs, rng.choice([3, 4]))
        circuit = Circuit(n)
        while True:
            op = rng.randrange(3)
            if op == 0:
                rep = common_cube_sharing(dag)
                steps += max(1, len(rep.events))
            elif op == 1:
                parent_reduction_pass(dag)
                steps += 1
            else:
                choice = find_target(dag)
                if choice is None:
                    break
                map_target(dag, choice, circuit)
                steps += 1
            assert validate_dag(dag) == []
            fresh = copy.deepcopy(dag.nodes)
            assert _whole_graph_relabel(fresh, dag.root) == []
            assert {nid: n.depth for nid, n in fresh.items()} == \
                {nid: n.depth for nid, n in dag.nodes.items()}


def test_a_collapse_settles_leaves_after_the_internal_nodes_above_them():
    # root -> top -> z -> y -> x1, top -> x1, root -> w -> y: collapsing
    # top deletes z and lowers y from 3 to 2, so x1, a leaf child of top,
    # must take its depth from y's new depth (4 -> 3).  Then collapsing
    # the output xor `out` orphans its three line identifiers at once
    from esopsyn.mapper import find_target

    dag = EsopDag(4)
    x = [dag.var_node(i) for i in range(4)]
    y = dag.add(T_AND, [x[0], x[1]])
    z = dag.add(T_AND, [y, x[2]])
    top = dag.add(T_XOR, [z, x[0]])
    w = dag.add(T_XOR, [y, x[3]])
    lines = [dag.add(T_ID, label=f"@{k}", line=k) for k in (4, 5, 6)]
    out = dag.add(T_XOR, lines)
    dag.set_children(dag.root, [top, w, out])
    dag.recompute_depths()
    assert [dag.nodes[i].depth for i in (y, x[0])] == [3, 4]
    find_target(dag)     # the ready index now holds every node

    def depths_match_a_whole_graph_relabel():
        assert validate_dag(dag) == []
        fresh = copy.deepcopy(dag.nodes)
        assert _whole_graph_relabel(fresh, dag.root) == []
        assert {nid: n.depth for nid, n in fresh.items()} == \
            {nid: n.depth for nid, n in dag.nodes.items()}

    dag.to_identifier(top, 7, "@7")
    assert z not in dag.nodes and x[2] not in dag.nodes
    assert [dag.nodes[i].depth for i in (y, x[0], x[1])] == [2, 3, 3]
    depths_match_a_whole_graph_relabel()
    assert find_target(dag) is not None

    dag.to_identifier(out, 8, "@8")
    for leaf in lines:
        assert leaf not in dag.nodes and leaf in dag.touched
    depths_match_a_whole_graph_relabel()
    find_target(dag)
    index = dag.index
    for leaf in lines:
        assert all(leaf not in table for table in
                   (index.cls, index.counts, index.depth, index.keys))


def test_depths_increase_along_edges():
    rng = random.Random(77)
    for _ in range(10):
        n = rng.randint(2, 5)
        masks = {rng.randrange(1 << n) for _ in range(6)}
        dag = flat_dag([expr(n, masks)], 3)
        for nid, node in dag.nodes.items():
            for c in node.children:
                assert dag.nodes[c].depth > node.depth


def test_recompute_on_fresh_depths_returns_at_once():
    dag = flat_dag([expr(3, [0b011, 0b101, 0b110])], 3)
    # with no ready index, the builder's relabel cleared the log
    assert dag.index is None and not dag.touched and not dag.reshaped
    top = dag.nodes[dag.root].children[0]
    dag.nodes[top].depth = 7        # a direct write the log cannot see
    ids = set(dag.nodes)
    assert dag.recompute_depths() == {}
    assert dag.nodes[top].depth == 7
    x1 = dag.var_node(0)
    dag.set_children(dag.root, [top, x1])
    assert dag.touched
    assert dag.recompute_depths() == {top: 7}
    assert not dag.touched and dag.nodes[top].depth == 1
    assert set(dag.nodes) == ids      # neither relabel deleted a node


def _reference_depths(dag):
    """(depth of each node the root reaches, ids it does not reach): a
    depth is the longest path from the root, by memoized recursion over
    the parents the root reaches."""
    reach = {dag.root}
    stack = [dag.root]
    while stack:
        for c in dag.nodes[stack.pop()].children:
            if c not in reach:
                reach.add(c)
                stack.append(c)

    @functools.cache
    def depth(nid):
        if nid == dag.root:
            return 0
        return 1 + max(depth(p) for p in dag.nodes[nid].parents if p in reach)

    return {nid: depth(nid) for nid in reach}, set(dag.nodes) - reach


def _moved(dag, was):
    """Each internal node whose depth differs from `was` (the depths taken
    before a relabel), mapped to its depth there."""
    return {nid: d for nid, d in was.items()
            if nid in dag.nodes and dag.nodes[nid].depth != d}


def _check_recompute(dag, recompute):
    """Run `recompute` (the graph's own recompute_depths) and check it
    against the reference: the nodes left are those the root reaches, at
    their depths; returns what it returned."""
    want, dead = _reference_depths(dag)
    was = {nid: n.depth for nid, n in dag.nodes.items() if n.children}
    moved = recompute()
    assert dead.isdisjoint(dag.nodes)
    assert {nid: node.depth for nid, node in dag.nodes.items()} == want
    assert moved == _moved(dag, was)
    return moved


def test_recompute_depths_matches_the_longest_path_reference():
    # random adds and rewires; a child always has a lower id than its
    # parent (the root aside), so the graph stays acyclic
    rng = random.Random(4242)
    pruned = 0
    for _ in range(60):
        dag = EsopDag(6)
        live = [dag.var_node(v) for v in range(6)]
        for _step in range(40):
            op = rng.randrange(5)
            if op <= 1 or len(live) < 8:
                kids = rng.sample(live, rng.randint(2, min(4, len(live))))
                live.append(dag.add(rng.choice([T_AND, T_XOR]), kids))
            elif op == 2:
                nid = rng.choice([k for k in live if dag.nodes[k].children])
                lower = [k for k in live if k < nid]
                if len(lower) >= 2:
                    dag.set_children(
                        nid, rng.sample(lower, rng.randint(2, min(4, len(lower)))))
            elif op == 3:
                dag.set_children(dag.root,
                                 rng.sample(live, rng.randint(1, min(3, len(live)))))
            else:
                before = len(dag.nodes)
                _check_recompute(dag, dag.recompute_depths)
                pruned += before - len(dag.nodes)
                live = [k for k in live if k in dag.nodes]
                live += [dag.var_node(v) for v in range(6)
                         if dag.var_node(v) not in live]
        _check_recompute(dag, dag.recompute_depths)
    assert pruned >= 100


def test_recompute_depths_matches_the_reference_at_every_sharing_sweep(monkeypatch):
    from esopsyn.optimize import common_cube_sharing

    tt = benchmarks.get("aes_sbox")
    params = OptimizeParams(3, True, 3, False)
    dag = build_dag_from_trees(
        [factor_expression(e, params) for e in anf_from_truth_table(tt)],
        tt.n_inputs, params.max_and_arity)
    real = dag.recompute_depths
    runs = []

    def checked():
        runs.append(_check_recompute(dag, real))
        return runs[-1]

    monkeypatch.setattr(dag, "recompute_depths", checked)
    assert len(common_cube_sharing(dag).events) == 86
    # one run per sweep, the first on the builder's fresh depths
    assert len(runs) == 22


def _whole_graph_relabel(nodes, root):
    """Relabel every depth of a node table from the root and delete what
    the root does not reach, in place; returns the deleted ids, sorted.
    The reference for `recompute_depths`, which relabels only a cone."""
    reach = {root}
    stack = [root]
    while stack:
        for c in nodes[stack.pop()].children:
            if c not in reach:
                reach.add(c)
                stack.append(c)
    dead = sorted(set(nodes) - reach)
    for nid in dead:
        for c in nodes[nid].children:
            parents = nodes[c].parents
            parents[nid] -= 1
            if not parents[nid]:
                del parents[nid]
    for nid in dead:
        del nodes[nid]
    indeg = {}
    for nid, node in nodes.items():
        node.depth = 0
        indeg[nid] = sum(node.parents.values())
    queue = [root]
    while queue:
        un = nodes[queue.pop()]
        for c in un.children:
            nodes[c].depth = max(nodes[c].depth, un.depth + 1)
            indeg[c] -= 1
            if not indeg[c]:
                queue.append(c)
    return dead


@pytest.mark.parametrize("tckp, runs", [("3130", 23), ("3150", 3),
                                        ("3111", 63)])
def test_relabel_matches_a_whole_graph_relabel(monkeypatch, tckp, runs):
    # AES S-box: every relabel, the builder's, each cube-sharing sweep's
    # and (at 3111) the one after each of the 53 parent-reduction hits
    # during mapping, leaves the depths and deletes the nodes that the
    # whole-graph relabel does on a copy
    real = EsopDag.recompute_depths
    seen = []
    relabels = Counter()

    def checked(dag):
        fresh = copy.deepcopy(dag.nodes)
        dead = _whole_graph_relabel(fresh, dag.root)
        was = {nid: n.depth for nid, n in dag.nodes.items() if n.children}
        got = real(dag)
        assert dag.nodes.keys().isdisjoint(dead)
        assert {nid: n.depth for nid, n in dag.nodes.items()} == \
            {nid: n.depth for nid, n in fresh.items()}
        # it returns the old depth of every internal node whose depth moved
        assert got == _moved(dag, was)
        if seen:    # the builder's relabel moves every depth
            relabels[bool(got)] += 1
        seen.append(dag.index is not None)
        return got

    monkeypatch.setattr(EsopDag, "recompute_depths", checked)
    t, c, k, p = (int(ch) for ch in tckp)
    synthesize(benchmarks.get("aes_sbox"), OptimizeParams(t, bool(c), k, bool(p)))
    assert len(seen) == runs
    assert sum(seen) == (53 if p else 0)
    assert relabels[True]


def test_var_node_recreates_a_pruned_variable():
    dag = flat_dag([expr(3, [0b011, 0b100])], 3)
    x3 = dag.var_node(2)
    top = dag.nodes[dag.root].children[0]
    dag.set_children(top, [c for c in dag.nodes[top].children if c != x3])
    dag.recompute_depths()
    assert x3 not in dag.nodes
    again = dag.var_node(2)
    assert again != x3 and dag.nodes[again].label == "x3"
    assert dag.var_node(2) == again


# -- the per-occurrence builder: the reference for the per-mask chain cache --


@dataclass(frozen=True)
class _FCube:
    mask: int


def _reference_tree(tree):
    """A factored tree in the builder's former form: cube leaves, a flat
    word as a bare cube or an xor of cubes, and the cubes of a flat
    remainder spliced into the xor that holds it."""
    if isinstance(tree, int):
        parts = tuple(_FCube(m) for m in cube_order(bit_support(tree)))
        return parts[0] if len(parts) == 1 else FXor(parts)
    if isinstance(tree, FAnd):
        return FAnd(tree.cube_mask, tuple(_reference_tree(s) for s in tree.subs))
    parts = ()
    for part in tree.parts:
        old = _reference_tree(part)
        spliced = isinstance(part, int) and isinstance(old, FXor)
        parts += old.parts if spliced else (old,)
    return FXor(parts)


def _reference_flatten(dag, nid):
    """An xor directly under an xor is flattened (GF(2) associativity):
    the inner one is deleted, so its entry in `made` goes stale."""
    node = dag.nodes[nid]
    if node.kind == T_XOR and not node.parents:
        kids = list(node.children)
        dag._delete(nid)
        return kids
    return [nid]


def _reference_consed(dag, made, kind, kids):
    key = (kind, tuple(kids))
    nid = made.get(key)
    if nid is None or nid not in dag.nodes:
        nid = made[key] = dag.add(kind, kids)
    return nid


def _atom_consed(dag, made, kids):
    """The and node over `kids`, keyed by its atoms as one frozenset: the
    non-and nodes it reaches through the and nodes this made, whose atoms
    `~id` records."""
    key = frozenset(kids)
    for k in kids:
        if ~k in made:
            key = key - {k} | made[~k]
    nid = made.get((T_AND, key))
    if nid is None:
        nid = made[T_AND, key] = dag.add(T_AND, kids)
        made[~nid] = key
    return nid


def _atom_chain(dag, made, kids, arity):
    """The builder's and-chain over `kids`, each level made or found by
    `_atom_consed`, innermost first."""
    kids = list(dict.fromkeys(kids))
    if len(kids) == 1:
        return kids[0]
    step = arity - 1
    start = (len(kids) - 2) // step * step
    node = _atom_consed(dag, made, kids[start:])
    for start in range(start - step, -1, -step):
        node = _atom_consed(dag, made, kids[start:start + step] + [node])
    return node


def _reference_node(dag, made, tree, arity):
    """Every cube occurrence builds its whole and-chain again and leaves
    the hash-consing to find the nodes."""
    if isinstance(tree, _FCube):
        if tree.mask == 0:
            return dag.const_node(1)
        kids = [dag.var_node(i) for i in bit_support(tree.mask)]
        return _atom_chain(dag, made, kids, arity)
    if isinstance(tree, FAnd):
        kids = [dag.var_node(i) for i in bit_support(tree.cube_mask)]
        kids += [_reference_node(dag, made, s, arity) for s in tree.subs]
        return _atom_chain(dag, made, kids, arity)
    parity: dict[int, int] = {}
    order: list[int] = []
    for part in tree.parts:
        for k in _reference_flatten(dag, _reference_node(dag, made, part, arity)):
            if k not in parity:
                parity[k] = 0
                order.append(k)
            parity[k] ^= 1
    kids = [k for k in order if parity[k]]
    if not kids:
        return dag.const_node(0)
    if len(kids) == 1:
        return kids[0]
    return _reference_consed(dag, made, T_XOR, kids)


def _build_with(node_of, trees, n_vars, max_and_arity):
    """`build_dag_from_trees` with `node_of` making each tree's node."""
    arity = max(2, max_and_arity - 1)
    dag = EsopDag(n_vars)
    made: dict = {}
    tops = []
    for tree in trees:
        top = node_of(dag, made, tree, arity)
        tops.append(top)
        if top not in dag.nodes[dag.root].children:
            dag.set_children(dag.root, dag.nodes[dag.root].children + [top])
    dag.output_order = [(f"y{i + 1}", top) for i, top in enumerate(tops)]
    dag.recompute_depths()
    return dag


def _reference_build(trees, n_vars, max_and_arity):
    return _build_with(_reference_node, list(map(_reference_tree, trees)),
                       n_vars, max_and_arity)


@functools.lru_cache(maxsize=None)
def _benchmark_trees(name, k):
    spec = benchmarks.get(name)
    if isinstance(spec, Permutation):
        spec = truth_table_from_permutation(spec)
    exprs = anf_from_truth_table(spec)
    params = OptimizeParams(kernel_threshold=k)
    return tuple(exprs), tuple(factor_expression(e, params) for e in exprs)


def _tree_kinds(tree):
    if isinstance(tree, FAnd):
        return {FAnd}.union(*map(_tree_kinds, tree.subs))
    if isinstance(tree, FXor):
        return {FXor}.union(*map(_tree_kinds, tree.parts))
    return {type(tree)}


@pytest.mark.parametrize("name", benchmarks.names())
def test_cached_chains_build_the_per_occurrence_graph(name):
    for k in (0, 1, 3):
        exprs, trees = _benchmark_trees(name, k)
        for t in (3, 4, 5):
            got = build_dag_from_trees(list(trees), exprs[0].n_vars, t)
            want = _reference_build(trees, exprs[0].n_vars, t)
            assert dump_text(got) == dump_text(want), (k, t)


@pytest.mark.parametrize("name", benchmarks.names())
def test_factored_trees_hold_only_and_xor_and_words(name):
    for k in (0, 1, 3):
        exprs, trees = _benchmark_trees(name, k)
        for tree in trees:
            assert _tree_kinds(tree) <= {FAnd, FXor, int}
        dag = build_dag_from_trees(list(trees), exprs[0].n_vars, 3)
        assert dag_to_expressions(dag) == list(exprs)


@st.composite
def _words(draw):
    n = draw(st.integers(1, 8))
    words = draw(st.lists(st.integers(0, (1 << (1 << n)) - 1),
                          min_size=1, max_size=3))
    return n, words


@settings(max_examples=40, deadline=None)
@given(_words(), st.sampled_from([0, 1, 2, 3]), st.integers(2, 5))
def test_cached_chains_match_the_reference_on_random_words(case, k, t):
    n, words = case
    params = OptimizeParams(kernel_threshold=k)
    trees = [factor_expression(EsopExpression(n, w), params) for w in words]
    got = build_dag_from_trees(trees, n, t)
    assert dump_text(got) == dump_text(_reference_build(trees, n, t))
    assert dag_to_expressions(got) == [EsopExpression(n, w) for w in words]


# -- the atom-keyed cube path: the reference for the mask-keyed chains --


def _atom_keyed_node_of_cube(dag, made, mask, arity):
    """The cube path before each chain level was keyed by its sub-mask:
    one entry per whole cube mask, and on a miss `_atom_chain`."""
    nid = made.get(mask)
    if nid is None:
        if mask:
            kids = [dag.var_node(i) for i in bit_support(mask)]
            nid = _atom_chain(dag, made, kids, arity)
        else:
            nid = dag.const_node(1)
        made[mask] = nid
    return nid


def _atom_keyed_node(dag, made, tree, arity):
    """The builder's node of a tree with every and level keyed by its
    atoms as one frozenset (`_atom_chain`) and each cube cached under its
    whole mask."""
    if isinstance(tree, FAnd):
        kids = [dag.var_node(i) for i in bit_support(tree.cube_mask)]
        kids += [_atom_keyed_node(dag, made, s, arity) for s in tree.subs]
        return _atom_chain(dag, made, kids, arity)
    kids = []
    for part in (tree,) if isinstance(tree, int) else tree.parts:
        if isinstance(part, int):
            kids += [_atom_keyed_node_of_cube(dag, made, m, arity)
                     for m in cube_order(bit_support(part))]
        else:
            kids.append(_atom_keyed_node(dag, made, part, arity))
    if not kids:
        return dag.const_node(0)
    if len(kids) == 1:
        return kids[0]
    key = (T_XOR, frozenset(kids))
    if key not in made:
        made[key] = dag.add(T_XOR, kids)
    return made[key]


def test_mask_keyed_cube_chains_build_the_atom_keyed_graph():
    # 2,000 random specs, half of their outputs products, and every
    # digest spec: the same nodes, ids and edges as the atom-keyed build
    from test_optimize import _builder_specs
    for trees, n, params in _builder_specs(random.Random(47)):
        got = build_dag_from_trees(trees, n, params.max_and_arity)
        want = _build_with(_atom_keyed_node, trees, n, params.max_and_arity)
        assert dump_text(got) == dump_text(want)

import copy
import random
import sys
from collections import Counter
from itertools import chain, combinations
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from esopsyn import benchmarks, mapper, optimize
from esopsyn.dag import T_AND, T_ID, T_XOR, DagNode, EsopDag, FAnd, FXor, \
    build_dag_from_trees, dag_to_expressions, dump_text, validate_dag
from esopsyn.funcs import EsopExpression, Permutation, anf_from_truth_table, \
    bit_support, cube_order, truth_table_from_permutation, variable_patterns
from esopsyn.optimize import (
    MutationReport, OptimizeParams, best_divisor, common_cube_sharing,
    divide, factor_expression, kernel_pairs, parent_reduction_pass,
    reduce_parents,
)


def expr(n, masks):
    return EsopExpression.from_masks(n, masks)


def word(masks) -> int:
    """The coefficient word of a set of distinct cube masks."""
    return sum(1 << m for m in set(masks))


def flat_dag(exprs, max_and_arity):
    """The flat graph `synthesize` builds at K = 0."""
    trees = [factor_expression(e, OptimizeParams()) for e in exprs]
    return build_dag_from_trees(trees, exprs[0].n_vars, max_and_arity)


def product(a, b) -> int:
    """Product of two coefficient words with duplicate cancellation."""
    acc = 0
    for ma in bit_support(a):
        for mb in bit_support(b):
            acc ^= 1 << (ma | mb)
    return acc


def remainder(f, kernel, co) -> int:
    """What is left of word `f` after the co * kernel products."""
    return f & ~word(co | k for k in bit_support(kernel))


def pair_identity_holds(f, kernel, co):
    assert product(1 << co, kernel) ^ remainder(f, kernel, co) == f
    # kernels are cube-free: no single variable divides every cube
    inter = ~0
    for m in bit_support(kernel):
        inter &= m
    assert inter == 0


def test_kernel_of_a_shared_literal():
    f = word({0b011, 0b101})               # x1x2 ^ x1x3
    pairs = kernel_pairs(f, 3)
    assert len(pairs) == 1
    kernel, co = pairs[0]
    assert kernel == word({0b010, 0b100})
    assert co == 0b001
    assert remainder(f, kernel, co) == 0
    pair_identity_holds(f, kernel, co)


def test_no_variable_occurs_twice_no_kernels():
    assert kernel_pairs(word({0b01, 0b10}), 2) == []
    assert kernel_pairs(word({0b01}), 2) == []


def test_kernel_with_remainder():
    f = word({0b0011, 0b0101, 0b1000})     # x1x2 ^ x1x3 ^ x4
    by_co = {co: kernel for kernel, co in kernel_pairs(f, 4)}
    kernel = by_co[0b0001]
    assert kernel == word({0b0010, 0b0100})
    assert remainder(f, kernel, 0b0001) == word({0b1000})
    pair_identity_holds(f, kernel, 0b0001)


def test_kernel_identity_on_random_expressions():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 6)
        f = word(rng.randrange(1 << n) for _ in range(rng.randint(2, 12)))
        for kernel, co in kernel_pairs(f, n):
            pair_identity_holds(f, kernel, co)


def _set_kernel_pairs(masks, n_vars):
    """Kernel enumeration on frozensets of cube masks, the form factoring
    ran on before coefficient words; the reference for kernel_pairs."""
    out = []
    seen = set()

    def recurse(g, min_var, co):
        if len(out) >= optimize.KERNEL_CAP:
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
                continue
            q = frozenset(m & ~cc for m in with_i)
            key = (co | cc, q)
            if key not in seen:
                seen.add(key)
                out.append((q, co | cc))
                if len(out) >= optimize.KERNEL_CAP:
                    return
            recurse(q, i + 1, co | cc)

    recurse(masks, 0, 0)
    return out


def _set_divide(masks, divisor):
    """Weak division on frozensets of cube masks; the reference for divide."""
    d = sorted(divisor)
    q = None
    for dj in d:
        qj = {m & ~dj for m in masks if m & dj == dj}
        q = qj if q is None else q & qj
    q = q or set()
    kept = []
    used = set()
    for qi in sorted(q):
        products = {dj | qi for dj in d}
        if len(products) == len(d) and not (products & used):
            kept.append(qi)
            used |= products
    return frozenset(kept), masks - used


_CUBE_SETS = st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.frozensets(st.integers(0, (1 << n) - 1), max_size=40),
    st.lists(st.frozensets(st.integers(0, (1 << n) - 1), max_size=5),
             max_size=3)))


@given(_CUBE_SETS)
@settings(max_examples=300, deadline=None)
def test_word_factoring_matches_the_cube_set_reference(case):
    n, masks, divisors = case
    f = word(masks)
    want = _set_kernel_pairs(masks, n)
    pairs = kernel_pairs(f, n)
    assert pairs == [(word(k), co) for k, co in want]      # same order
    for k in range(4):
        assert best_divisor(pairs, k) == best_divisor(
            [(word(ker), co) for ker, co in want], k)
    for d in [k for k, _co in want[:4]] + divisors:
        q, r = _set_divide(masks, d)
        assert divide(f, word(d), n) == (word(q), word(r))


def test_kernel_cap_is_loose_by_at_most_one_pair_per_variable(monkeypatch):
    # each recursion frame still on the stack may add one pair after the
    # cap; an exact cap would change the factored trees, so the bound is
    # what the docstring states, and factoring still round-trips
    rng = random.Random(12)
    overshoots = 0
    for cap in (1, 3, 7):
        monkeypatch.setattr(optimize, "KERNEL_CAP", cap)
        for _ in range(60):
            n = rng.randint(3, 7)
            f = word(rng.randrange(1 << n) for _ in range(rng.randint(4, 30)))
            pairs = kernel_pairs(f, n)
            assert len(pairs) <= cap + n
            overshoots += len(pairs) > cap
            params = OptimizeParams(kernel_threshold=rng.randint(1, 3))
            tree = optimize._factor(f, n, params)
            dag = build_dag_from_trees([tree], n, 3)
            assert dag_to_expressions(dag)[0].coeffs == f
    assert overshoots


def test_divisor_selection():
    assert best_divisor(kernel_pairs(word({0b01, 0b10}), 2), 0) is None
    f = word({0b0011, 0b0101, 0b1010, 0b1100})
    pairs = kernel_pairs(f, 4)
    pick = best_divisor(pairs, 1)
    assert pick is not None
    # minimum remainder wins
    assert remainder(f, *pairs[pick]).bit_count() == min(
        remainder(f, kernel, co).bit_count() for kernel, co in pairs
        if kernel.bit_count() > 1)
    # a threshold above every kernel size declines to factor
    assert best_divisor(pairs, 10) is None


def _reference_select_divisor(f, pairs, threshold):
    """The ranking factoring used before it worked on masks alone: minimum
    remainder, then larger kernel, lowest co-kernel mask and the kernel's
    sorted cube list."""
    best = best_key = None
    for kernel, co in pairs:
        size = kernel.bit_count()
        if size <= threshold:
            continue
        key = (remainder(f, kernel, co).bit_count(), -size, co,
               tuple(cube_order(bit_support(kernel))))
        if best_key is None or key < best_key:
            best, best_key = (kernel, co), key
    return best


def _picked(pairs, threshold):
    idx = best_divisor(pairs, threshold)
    return None if idx is None else pairs[idx]


def _tied_cube_sets(rng):
    """Expressions whose kernels tie on size: one kernel under several
    co-kernels, plus a little noise."""
    n = rng.randint(4, 7)
    split = rng.randint(2, n - 2)
    low, high = range(1, 1 << split), range(1, 1 << (n - split))
    kernel = rng.sample(low, rng.randint(2, min(6, len(low))))
    cos = rng.sample(high, rng.randint(2, min(4, len(high))))
    masks = {(co << split) | k for co in cos for k in kernel}
    masks ^= {rng.randrange(1 << n) for _ in range(rng.randint(0, 3))}
    return n, word(masks)


def _top_divisor(monkeypatch, f, n, params):
    """The divisor _factor splits off first, or None."""
    seen = []
    real = optimize.divide

    def spy(w, d, n_vars):
        seen.append(d)
        return real(w, d, n_vars)

    with monkeypatch.context() as mp:
        mp.setattr(optimize, "divide", spy)
        optimize._factor(f, n, params)
    return seen[0] if seen else None


def test_factoring_picks_the_divisor_the_kernel_objects_picked(monkeypatch):
    rng = random.Random(1729)
    picked = 0
    for case in range(600):
        if case % 3 == 0:
            n, f = _tied_cube_sets(rng)
        else:
            n = rng.randint(2, 7)
            f = word(rng.randrange(1 << n) for _ in range(rng.randint(2, 40)))
        if f.bit_count() < 2:
            continue
        k = rng.randint(1, 5)
        want = _reference_select_divisor(f, kernel_pairs(f, n), k)
        got = _top_divisor(monkeypatch, f, n,
                           OptimizeParams(kernel_threshold=k))
        assert got == (None if want is None else want[0])
        picked += want is not None
    assert picked > 200


def _reference_factor(word, n_vars, params):
    """_factor as it was when it ranked every pair kernel_pairs enumerates;
    the reference for ranking only the level-one pairs."""
    if word.bit_count() < 2 or params.kernel_threshold == 0:
        return word
    pairs = kernel_pairs(word, n_vars)
    idx = best_divisor(pairs, params.kernel_threshold)
    if idx is None:
        return word
    d = pairs[idx][0]
    quotient, rest = divide(word, d, n_vars)
    if not quotient:
        return word
    tree_d = _reference_factor(d, n_vars, params)
    if quotient.bit_count() == 1:
        prod = FAnd(quotient.bit_length() - 1, (tree_d,))
    else:
        prod = FAnd(0, (tree_d, _reference_factor(quotient, n_vars, params)))
    tree_r = _reference_factor(rest, n_vars, params)
    if isinstance(tree_r, FXor):
        return FXor((prod,) + tree_r.parts)
    return FXor((prod, tree_r))


def test_factoring_matches_the_full_enumeration_reference(monkeypatch):
    # at the default cap every word here ranks only the level-one pairs;
    # at caps 1, 3 and 7 the cap can bind from n = 1, 2 and 3 on, and the
    # full, capped enumeration is ranked, so a factoring that always took
    # the level-one pairs fails here
    rng = random.Random(2024)
    cases = [_tied_cube_sets(rng) for _ in range(40)]
    for _ in range(120):
        n = rng.randint(2, 10)
        cases.append((n, word(rng.randrange(1 << n)
                              for _ in range(rng.randint(2, 60)))))
    # dense words: about half of all cubes
    cases += [(n, rng.getrandbits(1 << n)) for n in (9, 9, 10, 10)]
    factored = 0
    for cap in (optimize.KERNEL_CAP, 1, 3, 7):
        monkeypatch.setattr(optimize, "KERNEL_CAP", cap)
        for n, f in cases:
            for k in range(1, 7):
                params = OptimizeParams(kernel_threshold=k)
                want = _reference_factor(f, n, params)
                assert optimize._factor(f, n, params) == want, (cap, n, f, k)
                factored += want != f
    assert factored > 1000


def _support(f) -> int:
    """The mask of the variables the cubes of word f use."""
    used = 0
    for m in bit_support(f):
        used |= m
    return used


def test_factoring_reads_the_support_of_each_word(monkeypatch):
    # words over 12 declared variables whose cubes use at most 10 of
    # them: the cap cannot bind at its default, so only the level-one
    # pairs are ranked although 2^12 is above it.  At caps 2, 4, 8 and 16
    # a word whose cubes use 2, 3, 4 or 5 variables can have more pairs
    # than the cap, so the full, capped enumeration is ranked: a test
    # that undercounts the support by one takes the level-one pairs there
    rng = random.Random(4096)
    cases = []
    for k in range(152):
        used = sum(1 << v for v in rng.sample(range(12), rng.randint(1, 10)))
        if k < 150:
            cubes = [rng.randrange(1 << 12) & used
                     for _ in range(rng.randint(2, 60))]
        else:   # dense: about half of the cubes over 10 variables
            used = (1 << 12) - 1 - sum(
                1 << v for v in rng.sample(range(12), 2))
            cubes = [m for m in range(1 << 12)
                     if m & used == m and rng.random() < 0.5]
        cases.append(word(cubes))
    assert max(_support(f).bit_count() for f in cases) == 10
    factored = 0
    for cap in (optimize.KERNEL_CAP, 2, 4, 8, 16):
        monkeypatch.setattr(optimize, "KERNEL_CAP", cap)
        for f in cases:
            for k in (1, 3):
                params = OptimizeParams(kernel_threshold=k)
                want = _reference_factor(f, 12, params)
                assert optimize._factor(f, 12, params) == want, (cap, f, k)
                factored += want != f
    assert factored > 500


def test_wide_specs_enumerate_only_words_the_cap_can_cut(monkeypatch):
    # an 11-input permutation at K = 1: its outputs use all 11 variables,
    # so the full enumeration runs on them, but never on a divisor,
    # quotient or remainder whose cubes use 10 or fewer
    real = optimize.kernel_pairs
    wide = []

    def only_wide(f, n_vars):
        assert 1 << _support(f).bit_count() > optimize.KERNEL_CAP
        wide.append(f)
        return real(f, n_vars)

    monkeypatch.setattr(optimize, "kernel_pairs", only_wide)
    images = list(range(1 << 11))
    random.Random(1).shuffle(images)
    tt = truth_table_from_permutation(Permutation(tuple(images)))
    trees = [factor_expression(e, OptimizeParams(kernel_threshold=1))
             for e in anf_from_truth_table(tt)]
    assert len(wide) >= 11
    assert all(isinstance(tree, FXor) for tree in trees)


def _quotient_by_cube(f, cube):
    """The cubes of word f that hold `cube`, with `cube` taken out."""
    return word(m ^ cube for m in bit_support(f) if m & cube == cube)


def test_divisor_candidates_never_share_a_co_kernel():
    # a co-kernel fixes its kernel, and neither candidate list holds one
    # twice, so best_divisor's key (size, co-kernel) never ties
    rng = random.Random(314)
    for _ in range(300):
        n, f = _tied_cube_sets(rng)
        level_one = [(q, cc) for _i, cc, q in optimize._variable_kernels(
            f, 0, n, variable_patterns(n))]
        for pairs in (kernel_pairs(f, n), level_one):
            cos = [co for _kernel, co in pairs]
            assert len(set(cos)) == len(cos)
            for kernel, co in pairs:
                assert kernel == _quotient_by_cube(f, co)
            for k in range(1, 6):
                assert _picked(pairs, k) == \
                    _reference_select_divisor(f, pairs, k)


def test_weak_division_is_exact():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 6)
        f = word(rng.randrange(1 << n) for _ in range(rng.randint(2, 12)))
        for kernel, co in kernel_pairs(f, n)[:3]:
            q, r = divide(f, kernel, n)
            assert product(q, kernel) ^ r == f
            assert q >> co & 1   # the co-kernel cube is a quotient cube


def tree_semantics_match(masks, n, params):
    tree = factor_expression(expr(n, masks), params)
    dag = build_dag_from_trees([tree], n, params.max_and_arity)
    back = dag_to_expressions(dag)[0]
    assert back == expr(n, masks)

def test_factoring_preserves_semantics():
    params = OptimizeParams(kernel_threshold=1)
    tree_semantics_match({0b011, 0b101}, 3, params)
    rng = random.Random(41)
    for _ in range(30):
        n = rng.randint(2, 6)
        masks = {rng.randrange(1 << n) for _ in range(rng.randint(1, 14))}
        tree_semantics_match(masks, n, params)


def test_factoring_without_a_divisor_keeps_the_flat_form():
    params = OptimizeParams(kernel_threshold=5)
    f = expr(3, [0b011, 0b101])            # only one kernel of size 2
    tree = factor_expression(f, params)
    dag = build_dag_from_trees([tree], 3, 3)
    (top,) = dag.nodes[dag.root].children
    assert dag.nodes[top].kind == T_XOR
    assert all(dag.nodes[c].kind == T_AND
               for c in dag.nodes[top].children)


def test_threshold_changes_the_shape_but_not_the_function():
    # symmetric expression: all degree-2 products of five variables
    masks = {(1 << i) | (1 << j) for i in range(5) for j in range(i + 1, 5)}
    shapes = set()
    for k in (1, 3, 6):
        params = OptimizeParams(kernel_threshold=k)
        tree = factor_expression(expr(5, masks), params)
        dag = build_dag_from_trees([tree], 5, 3)
        assert dag_to_expressions(dag)[0] == expr(5, masks)
        shapes.add(len(dag))
    assert len(shapes) > 1


# -- cube sharing ---------------------------------------------------------


def test_subset_children_get_hoisted():
    dag = flat_dag([expr(3, [0b011]), expr(3, [0b111])], 4)
    small = next(nid for nid, n in dag.nodes.items()
                 if n.kind == T_AND and len(n.children) == 2)
    report = common_cube_sharing(dag)
    assert report.events
    big = next(nid for nid, n in dag.nodes.items()
               if n.kind == T_AND and nid != small)
    assert small in dag.nodes[big].children
    assert dag_to_expressions(dag) == [expr(3, [0b011]), expr(3, [0b111])]


def test_small_overlap_is_not_shared():
    dag = flat_dag([expr(5, [0b00111]), expr(5, [0b11001])], 6)
    before = {nid: list(n.children) for nid, n in dag.nodes.items()}
    common_cube_sharing(dag)
    after = {nid: list(n.children) for nid, n in dag.nodes.items()}
    assert before == after


def test_sharing_leaves_hand_made_twins_alone():
    # no rule takes two nodes of one kind with one child set: the and
    # node's twin, added by hand, stays, and x1.x2.x3 takes the lower id
    dag = flat_dag([expr(3, [0b011, 0b100])], 4)
    orig = next(nid for nid, n in dag.nodes.items() if n.kind == T_AND)
    x1, x2, x3 = (dag.var_node(v) for v in range(3))
    twin = dag.add(T_AND, [x2, x1])
    big = dag.add(T_AND, [x1, x2, x3])
    extra = dag.add(T_XOR, [twin, big])
    dag.set_children(dag.root, dag.nodes[dag.root].children + [extra])
    dag.output_order.append(("y2", extra))
    dag.recompute_depths()
    want = dag_to_expressions(dag)
    assert optimize._rule(2, 2, 2) is None
    report = common_cube_sharing(dag)
    assert report.events == [f"subset: #{big} now references #{orig}"]
    assert dag.nodes[twin].children == [x2, x1]
    assert validate_dag(dag) == []
    assert all(len(n.children) != 1 for n in dag.nodes.values())
    assert dag_to_expressions(dag) == want


def test_sharing_never_grows_the_graph_and_keeps_semantics():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 6)
        exprs = [expr(n, {rng.randrange(1 << n)
                          for _ in range(rng.randint(1, 10))})
                 for _ in range(rng.randint(1, 3))]
        dag = flat_dag(exprs, rng.choice([3, 4, n + 1]))
        want = dag_to_expressions(dag)
        before = len(dag)
        common_cube_sharing(dag)
        assert len(dag) <= before
        assert validate_dag(dag) == []
        assert dag_to_expressions(dag) == want


def test_sharing_ends_with_fresh_depths_at_every_sweep_cap(monkeypatch):
    # the last recompute is skipped only after a sweep that changed nothing
    rng = random.Random(29)
    for cap in (0, 1, 2, 32):
        for _ in range(15):
            n = rng.randint(2, 6)
            exprs = [expr(n, {rng.randrange(1 << n)
                              for _ in range(rng.randint(2, 10))})
                     for _ in range(rng.randint(1, 3))]
            dag = flat_dag(exprs, rng.choice([3, 4]))
            for node in dag.nodes.values():
                node.depth = 0
            dag.touched.update(dag.nodes)   # the depths were written directly
            with monkeypatch.context() as m:
                m.setattr(optimize, "SHARING_SWEEP_CAP", cap)
                common_cube_sharing(dag)
            assert validate_dag(dag) == []
            depths = {nid: node.depth for nid, node in dag.nodes.items()}
            dag.touched.update(dag.nodes)   # recompute for the comparison
            dag.recompute_depths()
            assert depths == {nid: node.depth for nid, node in dag.nodes.items()}


def test_cube_sharing_leaves_the_log_only_to_a_ready_index():
    # with no index, each relabel clears the graph's edit log; with one,
    # the log keeps every edit for the index, which then answers as one
    # built afresh does
    rng = random.Random(43)
    shared = 0
    for _ in range(80):
        n = rng.randint(3, 6)
        exprs = [expr(n, {rng.randrange(1 << n)
                          for _ in range(rng.randint(2, 12))})
                 for _ in range(rng.randint(1, 4))]
        lone, indexed = flat_dag(exprs, 3), flat_dag(exprs, 3)
        indexed.refreshed_index()
        before = {nid: list(node.children)
                  for nid, node in indexed.nodes.items()}
        report = common_cube_sharing(lone)
        assert common_cube_sharing(indexed).events == report.events
        assert dump_text(indexed) == dump_text(lone)
        assert not lone.touched and not lone.reshaped
        gone = before.keys() - indexed.nodes.keys()
        reshaped = {nid for nid, kids in before.items()
                    if nid in indexed.nodes
                    and indexed.nodes[nid].children != kids}
        assert bool(gone | reshaped) == bool(report)
        assert gone <= indexed.touched and reshaped <= indexed.reshaped
        assert mapper.find_target(indexed) == mapper.find_target(lone)
        shared += bool(report)
    assert shared >= 10


def _reference_find_with_children(dag, kind, child_set, exclude=()):
    for nid in dag.internal_ids():
        if nid in exclude:
            continue
        node = dag.nodes[nid]
        if node.kind == kind and set(node.children) == child_set:
            return nid
    return None


def _reference_common_children(dag, i):
    """{node: common-child count} over the nodes other than i with at
    least two children in common with it, counted child by child with a
    Counter."""
    shared = Counter()
    for c in set(dag.nodes[i].children):
        shared.update(dag.nodes[c].parents.keys())
    return {j: k for j, k in shared.items() if k >= 2 and j != i}


def _reference_co_parents(dag, i):
    """(co-parent, common-child count) of node i: the nodes of
    `_reference_common_children` no deeper than i, in (depth desc, id)
    order."""
    depth = dag.nodes[i].depth
    return sorted(
        ((j, k) for j, k in _reference_common_children(dag, i).items()
         if 0 < dag.nodes[j].depth <= depth),
        key=lambda jk: (-dag.nodes[jk[0]].depth, jk[0]))


def _reference_share_candidates(dag, i):
    """The co-parents of i's kind, neither i's child nor its parent, whose
    c common children allow a subset (c is one side's child count, not
    both) or an overlap (2c above both counts)."""
    ni = dag.nodes[i]
    size_i = len(set(ni.children))
    out = []
    for j, c in _reference_co_parents(dag, i):
        nj = dag.nodes[j]
        size_j = len(set(nj.children))
        if nj.kind == ni.kind and i not in nj.children \
                and j not in ni.children \
                and ((c == size_i) != (c == size_j)
                     or c < min(size_i, size_j) and 2 * c > max(size_i, size_j)):
            out.append(j)
    return out


def _reference_shareable(dag, i, j):
    """Which sharing rule a node pair satisfies: subset, overlap or none.

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
    return _reference_rule(ci, cj)


def _reference_rule(ci, cj):
    """The rule of `_reference_shareable` for two child sets, whichever
    node holds the other; equal sets allow none."""
    if ci == cj:
        return None
    if ci < cj or cj < ci:
        return "subset"
    common = ci & cj
    if len(common) >= 2 and 2 * len(common) > len(ci) and 2 * len(common) > len(cj):
        return "overlap"
    return None


def _sliced_value(slices, slot):
    """The number a bit-sliced value holds in one slot."""
    return sum((s >> slot & 1) << k for k, s in enumerate(slices))


def _check_xor_masks(dag, index):
    """The index holds each child's xor parents, as the graph has them, as
    a slot mask."""
    nodes, slot = dag.nodes, index.xor_slot
    held = {c for nid in dag.internal_ids() if nodes[nid].kind == T_XOR
            for c in nodes[nid].children}
    assert {c: m for c, m in index.xor_masks.items() if m} == {
        c: sum(1 << slot[p] for p in nodes[c].parents
               if nodes[p].kind == T_XOR) for c in held}


def _check_xor_slots(dag, index):
    """The index holds each child's xor parents as a slot mask
    (`_check_xor_masks`), and each xor node's child count in the width
    slices (0 in a dead node's slot; the slices are built here if the
    pass has not built them yet)."""
    _check_xor_masks(dag, index)
    for s, nid in enumerate(index.xor_ids):
        assert index.xor_slot[nid] == s
        node = dag.nodes.get(nid)
        assert node is None or node.kind == T_XOR
        assert _sliced_value(index.width_slices(), s) == \
            (len(set(node.children)) if node else 0), nid


def _check_shape_index(dag, index):
    """The index holds each internal node's kind and child set and its
    xor slots (`_check_xor_slots`), and its hoist answers equal the
    whole-graph search for every node's child set and two of its subsets
    (the search of `_reference_find_with_children`, run once into a table
    of the lowest id per kind and child set)."""
    shapes = {nid: (dag.nodes[nid].kind, frozenset(dag.nodes[nid].children))
              for nid in dag.internal_ids()}
    assert index.shape == shapes
    _check_xor_slots(dag, index)
    lowest = {}
    for nid, shape in shapes.items():     # ascending ids
        lowest.setdefault(shape, nid)
    for kind, kids in shapes.values():
        kids = sorted(kids)
        for child_set in (kids, kids[:2], kids[1:]):
            assert index.hoist(kind, set(child_set)) == \
                lowest.get((kind, frozenset(child_set)))


def _graph_shapes(dag, i, j):
    """What `_share` reads of its index for nodes i and j, taken from the
    graph: their kinds and child sets, and a hoist that searches the whole
    graph."""
    return SimpleNamespace(
        shape={nid: (dag.nodes[nid].kind, frozenset(dag.nodes[nid].children))
               for nid in (i, j)},
        hoist=lambda kind, child_set: _reference_find_with_children(
            dag, kind, child_set, exclude=(i, j)))


def _reference_cube_sharing(dag, sweep_cap=32):
    """The all-pairs scan cube sharing replaced: every internal node at each
    level from the deepest up, tried against every internal node at its own
    and each shallower level, hoist nodes looked up over the whole graph."""
    report = MutationReport(nodes_before=len(dag))
    for _ in range(sweep_cap):
        changed = False
        dag.recompute_depths()
        depth_max = max(n.depth for n in dag.nodes.values())
        for depth in range(depth_max - 1, 0, -1):
            level = [nid for nid in dag.internal_ids()
                     if nid in dag.nodes and dag.nodes[nid].depth == depth]
            for i in level:
                if i not in dag.nodes:
                    continue
                done = False
                for depth_j in range(depth, 0, -1):
                    for j in dag.internal_ids():
                        if j == i or j not in dag.nodes or i not in dag.nodes:
                            continue
                        if dag.nodes[j].depth != depth_j:
                            continue
                        rule = _reference_shareable(dag, i, j)
                        if rule is None:
                            continue
                        shared = optimize._share(
                            dag, i, j, rule, _graph_shapes(dag, i, j))
                        if shared:
                            report.events.append(shared[0])
                            changed = True
                            done = True
                            break
                    if done:
                        break
        if not changed:
            break
    dag.recompute_depths()
    report.nodes_after = len(dag)
    return report


def _sharing_cases(rng):
    """Factored random graphs: 240 with n <= 6, then 60 wider ones (n <= 8,
    5-6 outputs of 8-30 cubes) that take several sweeps, each under a
    sweep cap of 1, 2 or 32."""
    for k in range(300):
        wide = k >= 240
        n = rng.randint(5, 8) if wide else rng.randint(3, 6)
        cubes = (8, 30) if wide else (2, 14)
        exprs = [expr(n, {rng.randrange(1 << n)
                          for _ in range(rng.randint(*cubes))})
                 for _ in range(rng.randint(5, 6) if wide else rng.randint(1, 4))]
        params = OptimizeParams(
            max_and_arity=rng.choice([2, 3, 4, 5] if wide else [3, 4]),
            kernel_threshold=rng.choice([0, 1, 2, 3]))
        trees = [factor_expression(e, params) for e in exprs]
        pair = [build_dag_from_trees(trees, n, params.max_and_arity)
                for _ in range(2)]
        yield pair, rng.choice([1, 2, 32])


def counted(fn):
    def wrapper(*args):
        wrapper.calls += 1
        return fn(*args)
    wrapper.calls = 0
    return wrapper


def _checked_sharing(monkeypatch, dag, cap):
    """Run cube sharing with its steps checked against the references.

    Each partner list equals the reference's, each partner's rule is the
    one `_reference_shareable` names, and each co-parent the partner
    filter drops is one it refuses.  After every share,
    at the next partner list (one share under a sweep cap may end the
    run first), the shape index equals the graph (`_check_shape_index`),
    and each hoist a share asks for equals the whole-graph search.  Returns
    the report, the nodes whose partners were compared and the
    `recompute_depths` runs.
    """
    real_candidates, real_share = optimize._share_candidates, optimize._share
    compared = []
    pending = [True]    # also check the index as it was built

    def checked_candidates(dag, i, index):
        if pending[0]:
            _check_shape_index(dag, index)
            pending[0] = False
        got = real_candidates(dag, i, index)
        partners = [j for j, _rule in got]
        assert partners == _reference_share_candidates(dag, i)
        for j, rule in got:
            assert rule == _reference_shareable(dag, i, j)
        for j, _c in _reference_co_parents(dag, i):
            if j not in partners:
                assert _reference_shareable(dag, i, j) is None
        compared.append(i)
        return got

    def checked_share(dag, i, j, rule, index):
        hoist = index.hoist

        def checked_hoist(kind, child_set):
            got = hoist(kind, child_set)
            assert got == _reference_find_with_children(dag, kind, child_set)
            return got
        pending[0] = True
        with monkeypatch.context() as m:
            m.setattr(index, "hoist", checked_hoist)
            return real_share(dag, i, j, rule, index)

    recomputes = counted(dag.recompute_depths)
    with monkeypatch.context() as m:
        m.setattr(optimize, "_share_candidates", checked_candidates)
        m.setattr(optimize, "_share", checked_share)
        m.setattr(dag, "recompute_depths", recomputes)
        m.setattr(optimize, "SHARING_SWEEP_CAP", cap)
        report = common_cube_sharing(dag)
    return report, compared, recomputes.calls


def test_cube_sharing_matches_the_all_pairs_reference(monkeypatch):
    rng = random.Random(31)
    rules = Counter()
    sweeps = Counter()
    for (ours, ref), cap in _sharing_cases(rng):
        want = _reference_cube_sharing(ref, cap)
        got, compared, recomputes = _checked_sharing(monkeypatch, ours, cap)
        # the pass tries only nodes with a co-parent
        assert compared or not got.events and not any(
            ours.nodes[j].kind == ours.nodes[i].kind
            for i in ours.internal_ids()
            for j in _reference_common_children(ours, i))
        assert got.events == want.events
        assert dump_text(ours) == dump_text(ref)
        rules.update(event.split()[0] for event in got.events)
        sweeps[cap] = max(sweeps[cap], recomputes)
    # subset hoists and overlap hoists both fired, and some run took four
    # sweeps
    assert rules["subset:"] and rules["overlap:"]
    assert sweeps[32] >= 4


# Hand-built graphs for the re-test rule.  Each returns the graph and the
# shares cube sharing must make on it.  Each fails when one part of the
# rule is left out, which the random graphs above do not detect: the
# dirtying after a depth rise, the relabel before the index is built,
# and refusing a partner that is the node's own parent.


def _and_xor_dag(n_vars):
    dag = EsopDag(n_vars)
    return dag, [None] + [dag.var_node(v) for v in range(n_vars)]


def _finish(dag, *tops):
    dag.set_children(dag.root, list(tops))
    dag.output_order = [(f"y{k}", top) for k, top in enumerate(tops)]
    dag.recompute_depths()


def _parent_child_scene():
    """A node's parent shares two children with it and must not share.

    I = x1.x2 and J = and(I, x1, x2, x3): J is I's parent, shallower than
    I, and holds both of I's children.  Taken as a subset, J would
    reference I twice; no share applies.
    """
    dag, x = _and_xor_dag(4)
    i = dag.add(T_AND, [x[1], x[2]])
    j = dag.add(T_AND, [i, x[1], x[2], x[3]])
    _finish(dag, dag.add(T_XOR, [j, x[4]]))
    assert dag.nodes[j].depth < dag.nodes[i].depth
    return dag, []


def _depth_rise_scene():
    """Two hoists in one sweep raise a clean node above a partner.

    J = x1.x2 sits at depth 3; K = x1.x2.x9 and R, Q and I, each the next
    one's superset, sit at depth 2.  Sweep 1: J hoists into K, its first
    partner; R takes Q and Q takes I as a child; I, shallower than J,
    fails.  Sweep 2: I is at depth 4 under Q, and J, at depth 3, no
    longer looks at it: only I, dirtied by its move, finds J.
    """
    dag, x = _and_xor_dag(9)
    k = dag.add(T_AND, [x[1], x[2], x[9]])
    r = dag.add(T_AND, [x[1], x[2], x[3], x[4], x[5]])
    q = dag.add(T_AND, [x[1], x[2], x[3], x[4]])
    i = dag.add(T_AND, [x[1], x[2], x[3]])
    j = dag.add(T_AND, [x[1], x[2]])
    _finish(dag,
            dag.add(T_XOR, [k, r, q, i, x[6]]),
            dag.add(T_XOR, [dag.add(T_XOR, [j, x[7]]), x[8]]))
    assert (dag.nodes[i].depth, dag.nodes[j].depth) == (2, 3)
    return dag, [f"subset: #{k} now references #{j}",
                 f"subset: #{r} now references #{q}",
                 f"subset: #{q} now references #{i}",
                 f"subset: #{i} now references #{j}"]


def _pruned_hoist_scene():
    """A hoist node that the relabel before the pass prunes.

    K = x1.x2 sat under X = xor(K, x5, x6), its only parent, until an
    edit the log still holds took it out of X, so the relabel that starts
    the pass deletes K.  I = x1.x2.x3 hoists into M = x1.x2.x3.x4, and
    the P/Q overlap looks up x7.x8 and finds none; I's overlap with
    J = x1.x2.x11 looks up x1.x2: no node has those children any more.
    """
    dag, x = _and_xor_dag(16)
    k = dag.add(T_AND, [x[1], x[2]])
    i = dag.add(T_AND, [x[1], x[2], x[3]])
    m = dag.add(T_AND, [x[1], x[2], x[3], x[4]])
    j = dag.add(T_AND, [x[1], x[2], x[11]])
    p = dag.add(T_AND, [x[7], x[8], x[9]])
    q = dag.add(T_AND, [x[7], x[8], x[10]])
    xx = dag.add(T_XOR, [k, x[5], x[6]])
    _finish(dag,
            dag.add(T_AND, [
                dag.add(T_XOR, [xx, i, m, p, q, x[12]]), x[13]]),
            dag.add(T_XOR, [j, x[14]]))
    dag.set_children(xx, [x[5], x[6]])
    assert k in dag.nodes and not dag.nodes[k].parents
    return dag, [f"subset: #{m} now references #{i}"]


@pytest.mark.parametrize("scene", [_parent_child_scene, _depth_rise_scene,
                                   _pruned_hoist_scene])
def test_hand_built_scenes_match_the_all_pairs_reference(scene):
    dag, events = scene()
    want = dag_to_expressions(dag)
    assert common_cube_sharing(dag).events == events
    ref, _ = scene()
    assert _reference_cube_sharing(ref).events == events
    assert dump_text(dag) == dump_text(ref)
    assert dag_to_expressions(dag) == want


def _twin_of(dag, nid):
    """Another node of nid's kind with nid's child set, or None: a twin
    holds each of nid's children, so it is a parent of the one with the
    fewest parents."""
    node = dag.nodes[nid]
    kids = set(node.children)
    scarce = min(kids, key=lambda c: len(dag.nodes[c].parents))
    return next((p for p in dag.nodes[scarce].parents
                 if p != nid and dag.nodes[p].kind == node.kind
                 and set(dag.nodes[p].children) == kids), None)


def _gf2_product(a, b):
    """The product of two coefficient words, cube by cube over GF(2)."""
    out = 0
    for x in bit_support(a):
        for y in bit_support(b):
            out ^= 1 << (x | y)
    return out


def _structured_word(rng, n):
    """The xor of one to three products of one to three random words of
    one to three cubes each, so that factoring meets kernels whose own
    factors are products."""
    word = 0
    for _ in range(rng.randint(1, 3)):
        term = 1 << rng.randrange(1 << n)
        for _ in range(rng.randint(1, 3)):
            term = _gf2_product(term, sum(
                {1 << rng.randrange(1 << n) for _ in range(rng.randint(1, 3))}))
        word ^= term
    return word


def _builder_specs(rng):
    """2,000 random specs (n = 3-9, T = 2-8, K = 0-8; one to five outputs
    of 2-24 random cubes or of products), then each digest spec, as
    (factored trees, n, params)."""
    from test_digests import CASES, _tckp
    for _ in range(2000):
        n = rng.randint(3, 9)
        params = OptimizeParams(rng.randint(2, 8), True, rng.randint(0, 8))
        words = [_structured_word(rng, n) if rng.random() < 0.5 else
                 word(rng.randrange(1 << n) for _ in range(rng.randint(2, 24)))
                 for _ in range(rng.randint(1, 5))]
        trees = [factor_expression(expr(n, bit_support(w)), params)
                 for w in words if w]
        if trees:
            yield trees, n, params
    for build, code, _digest in CASES.values():
        params = _tckp(code)
        spec = build()
        if isinstance(spec, Permutation):
            spec = truth_table_from_permutation(spec)
        yield ([factor_expression(e, params) for e in anf_from_truth_table(spec)],
               spec.n_inputs, params)


def _builder_graphs(rng):
    """The graph the builder makes of each `_builder_specs` spec with
    sharing on."""
    for trees, n, params in _builder_specs(rng):
        if params.cube_sharing:
            yield build_dag_from_trees(trees, n, params.max_and_arity)


def _atom_sets(dag):
    """Each and node's atoms, the non-and nodes it reaches through and
    nodes only, on a graph the builder made: it makes each child before
    its parents, so in id order a child's atoms come first."""
    atoms = {}
    for nid in sorted(dag.nodes):
        node = dag.nodes[nid]
        if node.kind == T_AND:
            atoms[nid] = frozenset().union(
                *(atoms.get(c, (c,)) for c in node.children))
    return atoms


def test_builder_graphs_hold_no_twins_before_or_after_any_share(monkeypatch):
    # no two nodes of one kind share a child set in a graph the builder
    # makes, nor after any share of cube sharing on it (a share reshapes
    # only the nodes it returns); no two and nodes it makes reach one atom
    # set, for it keys each by its atoms
    real = optimize._share
    shares = Counter()

    def checked(dag, i, j, rule, index):
        shared = real(dag, i, j, rule, index)
        if shared:
            for nid in shared[1]:
                assert _twin_of(dag, nid) is None, shared[0]
            shares[dag.nodes[i].kind, rule] += 1
        return shared

    monkeypatch.setattr(optimize, "_share", checked)
    for dag in _builder_graphs(random.Random(47)):
        for nid in dag.internal_ids():
            assert _twin_of(dag, nid) is None, nid
        atoms = _atom_sets(dag)
        assert len(set(atoms.values())) == len(atoms)
        common_cube_sharing(dag)
    assert all(shares[kind, rule] >= 100 for kind in (T_AND, T_XOR)
               for rule in ("subset", "overlap")), shares


def test_and_nodes_over_one_atom_set_are_one_node():
    # x1.(C.A) and x1.C.A, C = x2 + x3 and A = x4 + x5, reach the same
    # atoms; keyed by child set they would be two nodes, and sharing
    # would hoist C.A into the second and make them twins
    c, a = word([0b00010, 0b00100]), word([0b01000, 0b10000])
    dag = build_dag_from_trees(
        [FAnd(1, (FXor((FAnd(0, (c, a)), 0)),)), FAnd(1, (c, a))], 5, 4)
    (_, first), (_, second) = dag.output_order
    assert first == second
    assert [dag.nodes[k].kind for k in dag.nodes[first].children] == \
        ["t_identifier", T_AND]


def _aes_sharing_dag(k=3, t=3):
    """The AES S-box graph cube sharing gets at TCKP t1k0."""
    tt = benchmarks.get("aes_sbox")
    params = OptimizeParams(t, True, k, False)
    exprs = anf_from_truth_table(tt)
    return build_dag_from_trees([factor_expression(e, params) for e in exprs],
                                tt.n_inputs, params.max_and_arity)


def test_cube_sharing_retests_only_what_shares_changed(monkeypatch):
    # AES S-box at TCKP 3130: 86 shares over 22 sweeps; building the
    # partner list of every node in each sweep took 11,726 lists,
    # dirtying the co-parents (two or more common children) of what
    # changed took 959, dirtying only its partners took 692, and a first
    # sweep over only the nodes with a co-parent takes 398
    candidates = counted(optimize._share_candidates)
    monkeypatch.setattr(optimize, "_share_candidates", candidates)
    report = common_cube_sharing(_aes_sharing_dag())
    assert len(report.events) == 86
    assert candidates.calls == 398


def test_cube_sharing_steps_match_the_references_on_the_aes_sbox(monkeypatch):
    dag = _aes_sharing_dag()
    want = dag_to_expressions(dag)
    report, compared, recomputes = _checked_sharing(
        monkeypatch, dag, optimize.SHARING_SWEEP_CAP)
    assert len(report.events) == 86
    assert sum(e.startswith("overlap:") for e in report.events)
    assert len(compared) == 398 and recomputes == 22    # was 692
    assert dag_to_expressions(dag) == want


def _probed_co_parents(dag, i):
    """The nodes other than i, of any kind, sharing at least two distinct
    children with i, found on the graph's parent sets: a running union
    of the children's parent sets but the largest, smallest first, probed
    in the largest (the search before the index kept child pairs)."""
    nodes = dag.nodes
    sets = sorted((nodes[c].parents for c in set(nodes[i].children)), key=len)
    seen, shared = set(), set()
    for parents in sets[:-1]:
        shared |= seen.intersection(parents)
        seen.update(parents)
    if sets:
        shared |= seen & sets[-1].keys()
    shared.discard(i)
    return shared


def _partners(dag, i, common, index):
    """`_share_candidates`' filter and order over (co-parent, count)
    pairs of any kind."""
    nodes, shape = dag.nodes, index.shape
    depth = nodes[i].depth
    kind, ci = shape[i]
    out = []
    for j, c in common:
        sj = shape.get(j)
        if sj is None or sj[0] != kind or not 0 < nodes[j].depth <= depth:
            continue
        cj = sj[1]
        if i in cj or j in ci:
            continue
        if (c == len(ci)) != (c == len(cj)):
            out.append((j, "subset"))
        elif c < len(ci) and 2 * c > len(ci) and 2 * c > len(cj):
            out.append((j, "overlap"))
    out.sort(key=lambda jr: (-nodes[jr[0]].depth, jr[0]))
    return out


def _union_intersect_candidates(dag, i, index):
    """The partner search before the index kept xor parents: every node
    `_probed_co_parents` names, its common-child count from one
    intersection of the two child sets."""
    ci = index.shape[i][1]
    return _partners(dag, i, [
        (j, len(ci & index.shape[j][1])) for j in _probed_co_parents(dag, i)
        if j in index.shape], index)


def _xor_walk_candidates(dag, i, index):
    """The partner search before the index kept child pairs and slot
    masks: an xor node's counts from one walk of its children's xor
    parents, read off the graph, an and node's co-parents from
    `_probed_co_parents` and one intersection each."""
    kind, ci = index.shape[i]
    if kind == T_XOR:
        nodes = dag.nodes
        counts = Counter(chain.from_iterable(
            [p for p in nodes[c].parents if nodes[p].kind == T_XOR]
            for c in ci))
        common = [(j, c) for j, c in counts.items() if c > 1 and j != i]
    else:
        common = [(j, len(ci & index.shape[j][1]))
                  for j in _probed_co_parents(dag, i) if j in index.shape]
    return _partners(dag, i, common, index)


def _check_dirtying(monkeypatch, dag):
    """Check every partner list the index builds against `_reference_rule`
    (the rule of `_reference_shareable`) over the co-parents of the
    child-by-child count; returns the kinds and co-parent counts of the
    lists `common_cube_sharing` builds itself, to dirty from."""
    real = optimize._ShapeIndex.partners
    seen = Counter()

    def checked(index, i):
        got = real(index, i)
        partners = dict(got)
        assert len(partners) == len(got), i
        kind, ci = dag.nodes[i].kind, set(dag.nodes[i].children)
        co = [j for j in _reference_common_children(dag, i)
              if dag.nodes[j].kind == kind]
        assert partners.keys() <= set(co), i
        for j in co:
            assert partners.get(j) == _reference_rule(
                ci, set(dag.nodes[j].children)), (i, j)
        if sys._getframe(1).f_code.co_name == "common_cube_sharing":
            seen[kind, len(co) >= optimize.FEW_CO_PARENTS] += 1
        return got

    monkeypatch.setattr(optimize._ShapeIndex, "partners", checked)
    return seen


def _try_every_node(dag, candidates):
    """Ask `candidates` for the partners of every internal node of the
    graph as built, beside the pass, which tries only the nodes with a
    co-parent."""
    index = optimize._ShapeIndex(dag)
    for i in dag.internal_ids():
        candidates(dag, i, index)


@pytest.mark.parametrize("k, shares", [(3, 86), (5, 4)])
def test_partners_match_the_union_and_intersect_search(monkeypatch, k, shares):
    # AES S-box at TCKP 3130 and 3150: every (partner, rule) list the pass
    # builds, xor and and nodes alike, equals both searches the index
    # replaced, and every partner list a share or a depth change dirties
    # from names the rule of each co-parent of the child-by-child count
    real = optimize._share_candidates
    tried = Counter()

    def checked(dag, i, index):
        got = real(dag, i, index)
        assert got == _union_intersect_candidates(dag, i, index), i
        assert got == _xor_walk_candidates(dag, i, index), i
        kind = index.shape[i][0]
        many = index._xor_co_parents(i)[1] if kind == T_XOR else 0
        tried[kind, many.bit_count() >= optimize.FEW_CO_PARENTS] += 1
        return got

    dag = _aes_sharing_dag(k)
    dirtied = _check_dirtying(monkeypatch, dag)
    _try_every_node(dag, checked)
    monkeypatch.setattr(optimize, "_share_candidates", checked)
    assert len(common_cube_sharing(dag).events) == shares
    # xor nodes with many co-parents were ruled by the bit-sliced
    # comparisons, those with few pair by pair
    assert tried[T_XOR, True] >= 100 and tried[T_XOR, False]
    assert tried[T_AND, False] >= 50
    assert sum(dirtied.values()) >= shares


def _permutation_sharing_dag(n, k, t):
    """The graph cube sharing gets for the `random.Random(1)` permutation
    on n inputs at TCKP t1k0."""
    images = list(range(1 << n))
    random.Random(1).shuffle(images)
    tt = truth_table_from_permutation(Permutation(tuple(images)))
    params = OptimizeParams(t, True, k, False)
    return build_dag_from_trees(
        [factor_expression(e, params) for e in anf_from_truth_table(tt)],
        n, t)


@pytest.mark.parametrize("build, shares, wide", [
    (lambda: _aes_sharing_dag(3), 86, False),
    (lambda: _aes_sharing_dag(3, t=4), 117, True),
    (lambda: _permutation_sharing_dag(10, 1, 3), 675, False),
    (lambda: _permutation_sharing_dag(10, 0, 4), 833, True),
], ids=["aes_sbox-3130", "aes_sbox-4130", "perm10-3110", "perm10-4100"])
def test_pair_indexed_partners_match_the_co_parent_search(
        monkeypatch, build, shares, wide):
    # every (partner, rule) list the pass builds equals the search over
    # the graph's parent sets, every partner list it dirties from names
    # the rule of each co-parent of the child-by-child count, and after
    # every share the pair entries and xor slots equal the graph's; at
    # T = 4 some and nodes tried have three children
    real_candidates, real_share = optimize._share_candidates, optimize._share
    tried = Counter()
    pending = [False]

    def checked_candidates(dag, i, index):
        if pending[0]:
            assert index.and_pairs == _reference_and_pairs(dag)
            _check_xor_masks(dag, index)
            pending[0] = False
        got = real_candidates(dag, i, index)
        assert got == _xor_walk_candidates(dag, i, index), i
        kind, ci = index.shape[i]
        tried[kind, len(ci)] += 1
        return got

    def checked_share(*args):
        shared = real_share(*args)
        pending[0] = bool(shared)
        return shared

    dag = build()
    dirtied = _check_dirtying(monkeypatch, dag)
    _try_every_node(dag, checked_candidates)
    monkeypatch.setattr(optimize, "_share_candidates", checked_candidates)
    monkeypatch.setattr(optimize, "_share", checked_share)
    assert len(common_cube_sharing(dag).events) == shares
    assert tried[T_XOR, 2] + tried[T_AND, 2] >= 100
    assert bool(tried[T_AND, 3]) == wide
    assert sum(dirtied.values()) >= shares


def _reference_and_pairs(dag):
    """Each pair of distinct children of an and node mapped to the and
    nodes holding both."""
    pairs = {}
    for nid in dag.internal_ids():
        node = dag.nodes[nid]
        if node.kind == T_AND:
            for a, b in combinations(set(node.children), 2):
                pairs.setdefault(frozenset((a, b)), set()).add(nid)
    return pairs


def _and_co_parents(index, i):
    """The and nodes other than i holding one of and node i's child pairs,
    read from the index's pair entries."""
    kids = index.shape[i][1]
    holders = set().union(*(index.and_pairs[frozenset(pair)]
                            for pair in combinations(kids, 2)))
    holders.discard(i)
    return holders


def _assert_co_parents_match_the_reference(dag, index=None):
    """The index's co-parents of every internal node are the nodes of its
    kind that the child-by-child count names, with their counts: an xor
    node's read from its bit-sliced counts and co-parent mask, an and
    node's from its child pairs' holders and the two child sets."""
    if index is None:
        index = optimize._ShapeIndex(dag)
    assert index.and_pairs == _reference_and_pairs(dag)
    for i in dag.internal_ids():
        kind, ci = index.shape[i]
        if kind == T_XOR:
            counts, many = index._xor_co_parents(i)
            got = {index.xor_ids[s]: _sliced_value(counts, s)
                   for s in bit_support(many)}
        else:
            got = {j: len(ci & index.shape[j][1])
                   for j in _and_co_parents(index, i)}
        assert got == {
            j: k for j, k in _reference_common_children(dag, i).items()
            if dag.nodes[j].kind == kind}, i


@pytest.mark.parametrize("n", [10, 11])
def test_co_parents_match_the_reference_on_random_permutations(n):
    # random.Random(1) permutations at TCKP 3100, as built before sharing:
    # each variable leaf has hundreds of parents, the and nodes one or two
    images = list(range(1 << n))
    random.Random(1).shuffle(images)
    tt = truth_table_from_permutation(Permutation(tuple(images)))
    dag = flat_dag(anf_from_truth_table(tt), 3)
    assert max(len(node.parents) for node in dag.nodes.values()) > 300
    _assert_co_parents_match_the_reference(dag)


def test_co_parents_match_the_reference_after_every_aes_share(monkeypatch):
    # the index moves with each share and each sweep's pruning, and after
    # each move its co-parents equal the graph's, and j is i's partner
    # exactly when i is j's, by the same rule: the symmetry that lets a
    # share dirty the reshaped nodes' partners
    real_update = optimize._ShapeIndex.update
    updates = []

    def checked_update(index, nids):
        real_update(index, nids)
        updates.append(nids)
        _assert_co_parents_match_the_reference(dag, index)
        partners = {i: dict(index.partners(i)) for i in index.shape}
        assert {kind for kind, _kids in index.shape.values()} == {T_AND, T_XOR}
        for i, rules in partners.items():
            for j, rule in rules.items():
                assert partners[j].get(i) == rule, (i, j)

    dag = _aes_sharing_dag()
    monkeypatch.setattr(optimize._ShapeIndex, "update", checked_update)
    assert len(common_cube_sharing(dag).events) == 86
    assert len(updates) >= 86


def test_co_parents_probe_a_leaf_with_many_parents():
    # N = x1.A with A = x2.x3: A's one parent is N itself, so N has no
    # co-parent, while x1 feeds N and a dozen other ands: N's one child
    # pair holds N alone.  M = x1.A.x4 is one once A has a second parent,
    # and M's three pairs find N and x1.x4
    dag, x = _and_xor_dag(16)
    a = dag.add(T_AND, [x[2], x[3]])
    n = dag.add(T_AND, [x[1], a])
    others = [dag.add(T_AND, [x[1], x[k]]) for k in range(4, 17)]
    _finish(dag, dag.add(T_XOR, [n, *others]))
    assert len(dag.nodes[x[1]].parents) == 14 and len(dag.nodes[a].parents) == 1
    index = optimize._ShapeIndex(dag)
    assert index.and_pairs[frozenset((x[1], a))] == {n}
    assert not _and_co_parents(index, n)
    _assert_co_parents_match_the_reference(dag)
    m = dag.add(T_AND, [x[1], a, x[4]])
    _finish(dag, dag.add(T_XOR, [n, m, *others]))
    index = optimize._ShapeIndex(dag)
    assert _and_co_parents(index, n) == {m}
    assert _and_co_parents(index, m) == {n, others[0]}
    _assert_co_parents_match_the_reference(dag)


# -- parent reduction -------------------------------------------------------


def build_reduction_scene():
    """xor(a, b) exists alongside another xor parent and an and(a, b)."""
    exprs = [expr(3, [0b001, 0b010]),          # a ^ b
             expr(3, [0b001, 0b100]),          # a ^ c
             expr(3, [0b011])]                 # a.b
    return flat_dag(exprs, 4)


def test_xor_parent_rerouted_through_existing_pair():
    dag = build_reduction_scene()
    want = dag_to_expressions(dag)
    a = dag.var_node(0)
    before = len(dag.nodes[a].parents)
    report = reduce_parents(dag, a)
    assert report.events
    assert len(dag.nodes[a].parents) < before
    assert dag_to_expressions(dag) == want
    assert validate_dag(dag) == []


def test_product_rewrites_through_the_pair_node():
    dag = build_reduction_scene()
    a = dag.var_node(0)
    reduce_parents(dag, a)
    reduce_parents(dag, a)
    # a's only surviving non-root parent is the a^b node itself
    parents = [p for p in dag.nodes[a].parents
               if dag.nodes[p].kind in (T_AND, T_XOR)]
    assert len(parents) == 1
    assert dag.nodes[parents[0]].kind == T_XOR
    assert dag_to_expressions(dag) == \
        [expr(3, [0b001, 0b010]), expr(3, [0b001, 0b100]), expr(3, [0b011])]


def test_no_pair_node_means_no_op():
    dag = flat_dag([expr(3, [0b011]), expr(3, [0b101])], 4)
    a = dag.var_node(0)
    report = reduce_parents(dag, a)
    assert not report.events
    assert report.nodes_after == report.nodes_before


def test_reduction_pass_strictly_shrinks_or_reports_nothing():
    rng = random.Random(3)
    for _ in range(30):
        n = rng.randint(2, 5)
        exprs = [expr(n, {rng.randrange(1 << n)
                          for _ in range(rng.randint(1, 8))})
                 for _ in range(rng.randint(1, 3))]
        dag = flat_dag(exprs, 3)
        common_cube_sharing(dag)
        want = dag_to_expressions(dag)
        counts = {nid: len(dag.nodes[nid].parents)
                  for nid, node in dag.nodes.items() if node.kind == "t_identifier"}
        report = parent_reduction_pass(dag)
        if report:
            assert any(len(dag.nodes[nid].parents) < c
                       for nid, c in counts.items() if nid in dag.nodes)
        assert validate_dag(dag) == []
        assert dag_to_expressions(dag) == want


def _old_rewrites(dag, leaf):
    """The rewrites the pass made before its candidates were narrowed to
    the rewrite's shape, in its order, cycle checks included: e is a
    two-child xor leaf ^ b over the leaf, q any other parent that is an
    xor or the and of exactly leaf and b."""
    for e in sorted(dag.nodes[leaf].parents):
        en = dag.nodes[e]
        if en.kind != T_XOR or len(en.children) != 2:
            continue
        b = en.children[1] if en.children[0] == leaf else en.children[0]
        if b == leaf:
            continue
        for q in sorted(dag.nodes[leaf].parents):
            if q == e:
                continue
            qn = dag.nodes[q]
            if qn.kind == T_XOR:
                if not optimize._reaches(dag, e, q):
                    yield e, b, q
            elif qn.kind == T_AND and len(qn.children) == 2 \
                    and set(qn.children) == {leaf, b} \
                    and not any(optimize._reaches(dag, e, p) for p in qn.parents):
                yield e, b, q


def _old_reduce_parents(dag, leaf):
    """`reduce_parents` over `_old_rewrites`; returns the events."""
    events = []
    while (hit := next(_old_rewrites(dag, leaf), None)) is not None:
        e, b, q = hit
        if dag.nodes[q].kind == T_XOR:
            dag.xor_splice(q, leaf, [e, b])
            surv = dag.normalize_node(q)
            events.append(f"xor expansion at #{q}"
                          + ("" if surv == q else f" -> #{surv}"))
        else:
            optimize._apply_product_expansion(dag, q, e, b)
            events.append(f"and expansion at #{q}")
    if events:
        dag.recompute_depths()
    return events


def _clone(dag):
    twin = copy.copy(dag)
    twin.nodes = {}
    for nid, n in dag.nodes.items():
        c = twin.nodes[nid] = DagNode(nid, n.kind, n.children, n.label, n.line)
        c.parents, c.depth = dict(n.parents), n.depth
    twin.output_order = list(dag.output_order)
    twin._leaves = dict(dag._leaves)
    # with no index, the twin's relabel clears its own log
    twin.touched, twin.reshaped, twin.index = set(dag.touched), set(dag.reshaped), None
    return twin


def _graph(dag):
    return ({nid: (n.kind, n.children, list(n.parents.items()), n.depth,
                   n.label, n.line) for nid, n in dag.nodes.items()},
            dag.output_order, dag._next)


def test_parent_reduction_pass_matches_the_pass_over_every_two_parent_leaf(
        monkeypatch):
    # after every mapping iteration, the pass over the index's candidates
    # makes the same rewrite as the pass that tries every identifier with
    # two non-root parents; the reference runs on a copy of the graph,
    # made only when it finds a rewrite
    hits = Counter()

    def checked(dag):
        dag.refreshed_index()
        order = sorted((n.line, nid) for nid, n in dag.nodes.items()
                       if n.kind == T_ID
                       and sum(p != dag.root for p in n.parents) == 2)
        leaf = next((nid for _, nid in order
                     if next(_old_rewrites(dag, nid), None)), None)
        twin = None if leaf is None else _clone(dag)
        want = [] if leaf is None else _old_reduce_parents(twin, leaf)
        report = parent_reduction_pass(dag)
        assert report.events == want
        if twin is not None:
            assert _graph(dag) == _graph(twin)
        hits.update(event.split()[0] for event in want)
        return report

    monkeypatch.setattr(mapper, "parent_reduction_pass", checked)
    rng = random.Random(5)
    specs = [(benchmarks.get("aes_sbox"), OptimizeParams(3, True, 1, True)),
             (benchmarks.get("hwb8"), OptimizeParams(3, True, 1, True)),
             (benchmarks.get("aes_sbox"), OptimizeParams(3, True, 3, True))]
    for n in (3, 4):
        for k in (0, 1):
            for _ in range(10):
                images = list(range(1 << n))
                rng.shuffle(images)
                specs.append((Permutation(tuple(images)),
                              OptimizeParams(3, True, k, True)))
    for spec, params in specs:
        mapper.synthesize(spec, params)
    assert hits["xor"] and hits["and"]

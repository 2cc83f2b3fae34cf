import random
from collections import Counter

from esopsyn import optimize
from esopsyn.dag import T_AND, T_XOR, build_dag, build_dag_from_trees, \
    dag_to_expressions, dump_text, validate_dag
from esopsyn.funcs import EsopExpression
from esopsyn.optimize import (
    KernelEntry, KernelSet, MutationReport, OptimizeParams,
    common_cube_sharing, extract_kernels, divide, factor_expression,
    parent_reduction_pass, reduce_parents, select_divisor,
)


def expr(n, masks):
    return EsopExpression.from_masks(n, masks)


def and_masks(a, b) -> frozenset[int]:
    """Product of two cube sets with duplicate cancellation."""
    acc: set[int] = set()
    for ma in a:
        for mb in b:
            acc ^= {ma | mb}
    return frozenset(acc)


def entry_identity_holds(e, original):
    product = and_masks({e.co_kernel.mask}, e.kernel.masks)
    assert product ^ e.remainder.masks == original.masks
    # kernels are cube-free: no single variable divides every cube
    inter = ~0
    for m in e.kernel.masks:
        inter &= m
    assert inter == 0


def test_kernel_of_a_shared_literal():
    f = expr(3, [0b011, 0b101])            # x1x2 ^ x1x3
    ks = extract_kernels(f)
    assert len(ks) == 1
    e = ks.entries[0]
    assert e.kernel.masks == frozenset({0b010, 0b100})
    assert e.co_kernel.mask == 0b001
    assert e.remainder.masks == frozenset()
    entry_identity_holds(e, f)


def test_no_variable_occurs_twice_no_kernels():
    assert len(extract_kernels(expr(2, [0b01, 0b10]))) == 0
    assert len(extract_kernels(expr(2, [0b01]))) == 0


def test_kernel_with_remainder():
    f = expr(4, [0b0011, 0b0101, 0b1000])  # x1x2 ^ x1x3 ^ x4
    ks = extract_kernels(f)
    by_co = {e.co_kernel.mask: e for e in ks.entries}
    e = by_co[0b0001]
    assert e.kernel.masks == frozenset({0b0010, 0b0100})
    assert e.remainder.masks == frozenset({0b1000})
    entry_identity_holds(e, f)


def test_kernel_identity_on_random_expressions():
    rng = random.Random(17)
    for _ in range(40):
        n = rng.randint(2, 6)
        f = expr(n, {rng.randrange(1 << n) for _ in range(rng.randint(2, 12))})
        for e in extract_kernels(f).entries:
            entry_identity_holds(e, f)


def test_divisor_selection():
    assert select_divisor(extract_kernels(expr(2, [0b01, 0b10])), 0) is None
    f = expr(4, [0b0011, 0b0101, 0b1010, 0b1100])
    ks = extract_kernels(f)
    pick = select_divisor(ks, 1)
    assert pick is not None
    # minimum remainder wins
    assert len(pick.remainder.cubes) == min(len(e.remainder.cubes)
                                            for e in ks.entries
                                            if len(e.kernel.cubes) > 1)
    # a threshold above every kernel size declines to factor
    assert select_divisor(ks, 10) is None


def _reference_select_divisor(kernels, threshold):
    """The ranking factoring used before it worked on masks: minimum
    remainder, then larger kernel, lowest co-kernel mask and the kernel's
    sorted cube list."""
    best = best_key = None
    for e in kernels.entries:
        if len(e.kernel.cubes) <= threshold:
            continue
        key = (len(e.remainder.cubes), -len(e.kernel.cubes),
               e.co_kernel.mask, tuple(e.kernel.sorted_masks()))
        if best_key is None or key < best_key:
            best, best_key = e, key
    return best


def _tied_cube_sets(rng):
    """Cube sets whose kernels tie on size: one kernel under several
    co-kernels, plus a little noise."""
    n = rng.randint(4, 7)
    split = rng.randint(2, n - 2)
    low, high = range(1, 1 << split), range(1, 1 << (n - split))
    kernel = rng.sample(low, rng.randint(2, min(6, len(low))))
    cos = rng.sample(high, rng.randint(2, min(4, len(high))))
    masks = {(co << split) | k for co in cos for k in kernel}
    masks ^= {rng.randrange(1 << n) for _ in range(rng.randint(0, 3))}
    return n, frozenset(masks)


def _top_divisor(monkeypatch, masks, n, params):
    """The divisor _factor splits off first, or None."""
    seen = []
    real = optimize.divide

    def spy(m, d):
        seen.append(d)
        return real(m, d)

    with monkeypatch.context() as mp:
        mp.setattr(optimize, "divide", spy)
        optimize._factor(masks, n, params)
    return seen[0] if seen else None


def test_factoring_picks_the_divisor_the_kernel_objects_picked(monkeypatch):
    rng = random.Random(1729)
    picked = 0
    for case in range(600):
        if case % 3 == 0:
            n, masks = _tied_cube_sets(rng)
        else:
            n = rng.randint(2, 7)
            masks = frozenset(rng.randrange(1 << n)
                              for _ in range(rng.randint(2, 40)))
        if len(masks) < 2:
            continue
        k = rng.randint(1, 5)
        want = _reference_select_divisor(extract_kernels(expr(n, masks)), k)
        got = _top_divisor(monkeypatch, masks, n,
                           OptimizeParams(kernel_threshold=k))
        assert got == (None if want is None else want.kernel.masks)
        picked += want is not None
    assert picked > 200


def test_divisor_ties_break_on_co_kernel_then_cube_order():
    # hand-made entries: equal-size sub-kernels under one co-kernel (a tie
    # _kernel_pairs itself never yields, since a co-kernel fixes its kernel)
    rng = random.Random(314)
    for _ in range(300):
        n, masks = _tied_cube_sets(rng)
        f = expr(n, masks)
        entries = []
        for e in extract_kernels(f).entries:
            size = len(e.kernel.cubes)
            if size < 3 or rng.random() < 0.3:
                entries.append(e)
                continue
            cubes = sorted(e.kernel.masks)
            for _ in range(3):
                sub = frozenset(rng.sample(cubes, size - 1))
                products = frozenset(e.co_kernel.mask | c for c in sub)
                entries.append(KernelEntry(expr(n, sub), e.co_kernel,
                                           expr(n, masks - products)))
        rng.shuffle(entries)
        ks = KernelSet(tuple(entries))
        for k in range(1, 6):
            assert select_divisor(ks, k) == _reference_select_divisor(ks, k)


def test_weak_division_is_exact():
    rng = random.Random(23)
    for _ in range(40):
        n = rng.randint(2, 6)
        masks = frozenset(rng.randrange(1 << n)
                          for _ in range(rng.randint(2, 12)))
        ks = extract_kernels(expr(n, masks))
        for e in ks.entries[:3]:
            q, r = divide(masks, e.kernel.masks)
            assert and_masks(q, e.kernel.masks) ^ r == masks


def tree_semantics_match(masks, n, params):
    tree = factor_expression(expr(n, masks), params)
    dag = build_dag_from_trees([tree], n, params.max_and_arity)
    back = dag_to_expressions(dag)[0]
    assert back.masks == frozenset(masks)


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
        assert dag_to_expressions(dag)[0].masks == frozenset(masks)
        shapes.add(len(dag))
    assert len(shapes) > 1


# -- cube sharing ---------------------------------------------------------


def test_subset_children_get_hoisted():
    dag = build_dag([expr(3, [0b011]), expr(3, [0b111])], 4)
    small = next(nid for nid, n in dag.nodes.items()
                 if n.kind == T_AND and len(n.children) == 2)
    report = common_cube_sharing(dag)
    assert report.events
    big = next(nid for nid, n in dag.nodes.items()
               if n.kind == T_AND and nid != small)
    assert small in dag.nodes[big].children
    assert [e.masks for e in dag_to_expressions(dag)] == \
        [frozenset({0b011}), frozenset({0b111})]


def test_small_overlap_is_not_shared():
    dag = build_dag([expr(5, [0b00111]), expr(5, [0b11001])], 6)
    before = {nid: list(n.children) for nid, n in dag.nodes.items()}
    common_cube_sharing(dag)
    after = {nid: list(n.children) for nid, n in dag.nodes.items()}
    assert before == after


def test_identical_nodes_merge():
    dag = build_dag([expr(3, [0b011, 0b100])], 4)
    # append a structural twin of the and node by hand
    twin = dag._fresh(T_AND, [])
    orig = next(nid for nid, n in dag.nodes.items() if n.kind == T_AND)
    x1 = dag.var_node(0)
    x2 = dag.var_node(1)
    dag.set_children(twin, [x1, x2])
    extra = dag._fresh(T_XOR, [])
    dag.set_children(extra, [twin, dag.var_node(2)])
    dag.set_children(dag.root, dag.nodes[dag.root].children + [extra])
    dag.output_order.append(("y2", extra))
    dag.recompute_depths()
    n_before = len(dag)
    common_cube_sharing(dag)
    assert len(dag) < n_before
    assert orig in dag.nodes and twin not in dag.nodes
    assert validate_dag(dag) == []


def test_sharing_never_grows_the_graph_and_keeps_semantics():
    rng = random.Random(13)
    for _ in range(40):
        n = rng.randint(2, 6)
        exprs = [expr(n, {rng.randrange(1 << n)
                          for _ in range(rng.randint(1, 10))})
                 for _ in range(rng.randint(1, 3))]
        dag = build_dag(exprs, rng.choice([3, 4, n + 1]))
        want = [e.masks for e in dag_to_expressions(dag)]
        before = len(dag)
        common_cube_sharing(dag)
        assert len(dag) <= before
        assert validate_dag(dag) == []
        assert [e.masks for e in dag_to_expressions(dag)] == want


def test_sharing_ends_with_fresh_depths_at_every_sweep_cap():
    # the last recompute is skipped only after a sweep that changed nothing
    rng = random.Random(29)
    for cap in (0, 1, 2, 32):
        for _ in range(15):
            n = rng.randint(2, 6)
            exprs = [expr(n, {rng.randrange(1 << n)
                              for _ in range(rng.randint(2, 10))})
                     for _ in range(rng.randint(1, 3))]
            dag = build_dag(exprs, rng.choice([3, 4]))
            for node in dag.nodes.values():
                node.depth = 0
            common_cube_sharing(dag, cap)
            assert validate_dag(dag) == []
            depths = {nid: node.depth for nid, node in dag.nodes.items()}
            dag.recompute_depths()
            assert depths == {nid: node.depth for nid, node in dag.nodes.items()}


def _reference_find_with_children(dag, kind, child_set, exclude=()):
    for nid in dag.internal_ids():
        if nid in exclude:
            continue
        node = dag.nodes[nid]
        if node.kind == kind and set(node.children) == child_set:
            return nid
    return None


def _reference_share_candidates(dag, i):
    """Co-parents counted child by child with a Counter."""
    shared = Counter(p for c in set(dag.nodes[i].children)
                     for p in set(dag.nodes[c].parents))
    depth = dag.nodes[i].depth
    return sorted(
        (j for j, k in shared.items()
         if k >= 2 and j != i and 0 < dag.nodes[j].depth <= depth),
        key=lambda j: (-dag.nodes[j].depth, j))


def _reference_cube_sharing(dag, sweep_cap=32):
    """The all-pairs scan cube sharing replaced: every internal node at each
    level from the deepest up, tried against every internal node at its own
    and each shallower level, hoist nodes looked up over the whole graph."""
    report = MutationReport("cube_sharing", nodes_before=len(dag))
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
                        rule = optimize._shareable(dag, i, j)
                        if rule is None:
                            continue
                        event = optimize._share(dag, i, j, rule)
                        if event:
                            report.events.append(event)
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


def test_cube_sharing_matches_the_all_pairs_reference(monkeypatch):
    rng = random.Random(31)
    rules = Counter()
    for _ in range(240):
        n = rng.randint(3, 6)
        exprs = [expr(n, {rng.randrange(1 << n)
                          for _ in range(rng.randint(2, 14))})
                 for _ in range(rng.randint(1, 4))]
        params = OptimizeParams(max_and_arity=rng.choice([3, 4]),
                                kernel_threshold=rng.choice([0, 1, 2, 3]))
        trees = [factor_expression(e, params) for e in exprs]
        ours = build_dag_from_trees(trees, n, params.max_and_arity)
        ref = build_dag_from_trees(trees, n, params.max_and_arity)
        if rng.random() < 0.3:
            # a structural twin under a new output, so merges fire too
            twin_of = rng.choice(ours.internal_ids())
            for dag in (ours, ref):
                node = dag.nodes[twin_of]
                twin = dag._fresh(node.kind, node.children[::-1])
                dag.set_children(dag.root, dag.nodes[dag.root].children + [twin])
                dag.output_order.append(("twin", twin))
                dag.recompute_depths()
        for nid in ours.internal_ids():
            node = ours.nodes[nid]
            key = (ours, node.kind, set(node.children))
            assert optimize._find_with_children(*key) == \
                _reference_find_with_children(*key)
            assert optimize._share_candidates(ours, nid) == \
                _reference_share_candidates(ours, nid)
        with monkeypatch.context() as m:
            m.setattr(optimize, "_find_with_children",
                      _reference_find_with_children)
            want = _reference_cube_sharing(ref)
        # co-parents equal the counted reference at every node the sweeps visit
        real_candidates = optimize._share_candidates

        def checked_candidates(dag, i):
            got = real_candidates(dag, i)
            assert got == _reference_share_candidates(dag, i)
            compared.append(i)
            return got

        compared = []
        with monkeypatch.context() as m:
            m.setattr(optimize, "_share_candidates", checked_candidates)
            got = common_cube_sharing(ours)
        assert compared
        assert got.events == want.events
        assert dump_text(ours) == dump_text(ref)
        rules.update(event.split()[0] for event in got.events)
    # merges, subset hoists and overlap hoists all fired
    assert rules["merge"] and rules["subset:"] and rules["overlap:"]


# -- parent reduction -------------------------------------------------------


def build_reduction_scene():
    """xor(a, b) exists alongside another xor parent and an and(a, b)."""
    exprs = [expr(3, [0b001, 0b010]),          # a ^ b
             expr(3, [0b001, 0b100]),          # a ^ c
             expr(3, [0b011])]                 # a.b
    return build_dag(exprs, 4)


def test_xor_parent_rerouted_through_existing_pair():
    dag = build_reduction_scene()
    want = [e.masks for e in dag_to_expressions(dag)]
    a = dag.var_node(0)
    before = len(dag.nodes[a].parents)
    report = reduce_parents(dag, a)
    assert report.events
    assert len(dag.nodes[a].parents) < before
    assert [e.masks for e in dag_to_expressions(dag)] == want
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
    assert [e.masks for e in dag_to_expressions(dag)] == \
        [frozenset({0b001, 0b010}), frozenset({0b001, 0b100}),
         frozenset({0b011})]


def test_no_pair_node_means_no_op():
    dag = build_dag([expr(3, [0b011]), expr(3, [0b101])], 4)
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
        dag = build_dag(exprs, 3)
        common_cube_sharing(dag)
        want = [e.masks for e in dag_to_expressions(dag)]
        counts = {nid: len(dag.nodes[nid].parents)
                  for nid, node in dag.nodes.items() if node.kind == "t_identifier"}
        report = parent_reduction_pass(dag)
        if report:
            assert any(len(dag.nodes[nid].parents) < c
                       for nid, c in counts.items() if nid in dag.nodes)
        assert validate_dag(dag) == []
        assert [e.masks for e in dag_to_expressions(dag)] == want

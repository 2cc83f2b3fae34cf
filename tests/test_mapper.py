import random

import pytest
from hypothesis import given, settings, strategies as st

from esopsyn import dag as dag_module, mapper, optimize
from esopsyn.circuit import (
    CONSTANT, INPUT, ROLE_ANCILLA, ROLE_GARBAGE, ROLE_OUTPUT, Circuit,
    LineState, VerificationError, assign_spare_roles, cnot, line_functions,
    quantum_cost, simulate, toffoli, verify_equivalence,
)
from esopsyn.dag import (
    EsopDag, ReadyIndex, T_AND, T_CONST, T_ID, T_ROOT, T_XOR,
    build_dag_from_trees, parent_rewrites, validate_dag,
)
from esopsyn.funcs import (
    EsopExpression, Permutation, TruthTable, anf_from_truth_table,
    mobius_bits, truth_table_from_permutation,
)
from esopsyn.mapper import (
    RULE_AND_XOR_PARENT, RULE_MAX_CHILD, RULE_XOR_SINGLE, SynthesisError,
    TargetChoice, _fresh_line, _single_parent_leaf, find_target,
    map_target, order_outputs, synthesize,
)
from esopsyn.optimize import (
    OptimizeParams, common_cube_sharing, factor_expression,
    parent_reduction_pass,
)

NTH_PRIME3 = Permutation((0, 2, 3, 5, 7, 1, 4, 6))


def expr(n, masks):
    return EsopExpression.from_masks(n, masks)


def flat_dag(exprs, max_and_arity):
    """The flat graph `synthesize` builds at K = 0."""
    trees = [factor_expression(e, OptimizeParams()) for e in exprs]
    return build_dag_from_trees(trees, exprs[0].n_vars, max_and_arity)


def test_rule_one_fires_on_an_exclusively_owned_leaf():
    dag = flat_dag([expr(2, [0b01, 0b10])], 3)
    choice = find_target(dag)
    assert choice.rule == RULE_XOR_SINGLE
    assert dag.nodes[choice.node].kind == T_XOR


def test_rule_two_returns_the_xor_parent_of_a_deep_product():
    # y = x1.x2 ^ x3: the product sits one level above the leaves and its
    # xor parent exclusively owns x3
    dag = flat_dag([expr(3, [0b011, 0b100])], 3)
    choice = find_target(dag)
    assert choice.rule == RULE_AND_XOR_PARENT
    assert dag.nodes[choice.node].kind == T_XOR


def test_rule_three_accepts_a_garbage_line():
    # every leaf is shared between two parents, so neither greedy branch
    # applies and a fresh line is the only way forward
    dag = flat_dag([expr(2, [0b01, 0b10]), expr(2, [0b01, 0b11])], 3)
    choice = find_target(dag)
    assert choice.rule == RULE_MAX_CHILD


def test_completion_signal():
    dag = flat_dag([expr(2, [0b01])], 3)
    assert find_target(dag) is None


def test_simplest_inverter():
    circ, rep = synthesize(Permutation((1, 0)))
    assert [str(g) for g in circ.gates] == ["t1 0"]
    assert (rep.quantum_cost, rep.gate_count, rep.garbage_count) == (1, 1, 0)


def test_cnot_emission_onto_a_consumed_input():
    circ, rep = synthesize(TruthTable(2, 1, (0, 1, 1, 0)))   # x1 ^ x2
    assert rep.gate_count == 1 and rep.quantum_cost == 1
    assert rep.line_count == 2 and rep.garbage_count == 1


def test_product_needs_a_fresh_line():
    circ, rep = synthesize(TruthTable(2, 1, (0, 0, 0, 1)))   # x1.x2
    assert [str(g) for g in circ.gates] == ["t3 0,1,2"]
    assert circ.lines[2].origin == CONSTANT
    assert rep.garbage_count == 2


def test_constant_one_child_inverts_last():
    circ, rep = synthesize(TruthTable(2, 1, (1, 0, 1, 0)))   # 1 ^ x1
    kinds = [str(g) for g in circ.gates]
    assert kinds[-1].startswith("t1")


def test_prime_counter_best_point():
    hits = set()
    results = {}
    for t in (3, 4):
        for c in (0, 1):
            for k in range(4):
                for p in (0, 1):
                    params = OptimizeParams(t, bool(c), k, bool(p))
                    _, rep = synthesize(NTH_PRIME3, params)
                    key = (rep.quantum_cost, rep.gate_count, rep.garbage_count)
                    results[params.tckp()] = key
                    hits.add(key)
    assert (6, 4, 0) in hits
    assert results["3111"] == (6, 4, 0)


def test_prime_counter_gate_list_at_the_best_point():
    circ, rep = synthesize(NTH_PRIME3, OptimizeParams(3, True, 1, True))
    assert [str(g) for g in circ.gates] == \
        ["t2 2,1", "t2 1,0", "t3 0,1,2", "t2 1,2"]
    assert rep.peres_pairs == 1
    assert rep.line_count == 3


def test_mod5_detector_with_kernels_enabled():
    col = 0
    for i in (0, 5, 10, 15):
        col |= 1 << i
    tt = TruthTable.from_columns(4, [col])
    _, rep = synthesize(tt, OptimizeParams(3, True, 1, False))
    assert (rep.quantum_cost, rep.gate_count, rep.garbage_count) == (9, 5, 4)


def test_every_output_lands_on_a_line():
    rng = random.Random(2)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = rng.randint(1, 3)
        tt = TruthTable(n, m, tuple(rng.randrange(1 << m)
                                    for _ in range(1 << n)))
        circ, rep = synthesize(tt, OptimizeParams(3, True, rng.randint(0, 3),
                                                  rng.random() < 0.5))
        assert set(circ.output_map()) == set(tt.output_names)
        assert rep.garbage_count + rep.ancilla_count + m == rep.line_count


def test_duplicate_outputs_cost_one_copy():
    tt = TruthTable(2, 2, (0, 3, 3, 0))     # both outputs are x1 ^ x2
    circ, rep = synthesize(tt)
    outs = circ.output_map()
    assert len(set(outs.values())) == 2
    assert rep.quantum_cost == 2            # one cnot plus one copy


def test_identity_outputs_reuse_input_lines():
    tt = TruthTable(2, 2, (0, 2, 1, 3))     # swapped wires, pure relabeling
    circ, rep = synthesize(tt)
    assert rep.gate_count == 0
    assert rep.garbage_count == 0


def test_constant_outputs():
    tt = TruthTable(1, 2, (2, 3))           # y1 = x1, y2 = 1
    circ, rep = synthesize(tt)
    assert rep.gate_count == 1              # one inverter on a fresh line
    assert circ.gates[0].family == "t" and not circ.gates[0].controls


def test_fresh_wire_names_avoid_user_input_names():
    tt = TruthTable(2, 1, (0, 0, 0, 1), input_names=("w1", "w2"))
    circ, _ = synthesize(tt)
    names = [l.name for l in circ.lines]
    assert len(names) == len(set(names))


def test_fresh_wire_names_skip_lines_appended_between_calls():
    # fresh lines stay unnamed until order_outputs names them, in line
    # order, by the lowest w<k> no line uses
    circ = Circuit(2)
    circ.lines[1].name = "w2"
    fresh = [_fresh_line(circ)]
    circ.lines.append(LineState(3, "w3", CONSTANT, 0))
    circ.n_lines += 1
    fresh += [_fresh_line(circ) for _ in range(2)]
    assert [circ.lines[l].name for l in fresh] == [None] * 3
    order_outputs(circ, TruthTable(2, 1, (0, 1, 0, 1)), line_functions(circ))
    assert [l.name for l in circ.lines] == ["x1", "w2", "w1", "w3", "w4", "w5"]


def test_all_constant_outputs():
    tt = TruthTable(2, 3, (5, 5, 5, 5))     # y1 = 1, y2 = 0, y3 = 1
    circ, rep = synthesize(tt)
    assert sorted(circ.output_map()) == ["y1", "y2", "y3"]
    zero = synthesize(TruthTable(3, 1, (0,) * 8))[1]
    assert zero.gate_count == 0 and zero.garbage_count == 3


def test_a_copy_from_the_wrong_line_fails_verification(monkeypatch):
    # y2 = y1 = x1 x2: y1 claims the Toffoli's line and y2 is a copy of it
    # onto a fresh line; a claimer that copies x1 instead must be caught,
    # though the claim gates are simulated apart from the mapped circuit
    tt = TruthTable(2, 2, (0, 0, 0, 3))
    circ, _ = synthesize(tt)
    assert str(circ.gates[-1]) == "t2 2,3"
    real_order_outputs = mapper.order_outputs

    def copies_x1(circuit, spec, words):
        with monkeypatch.context() as patch:
            patch.setattr(mapper, "cnot", lambda src, dst: cnot(0, dst))
            return real_order_outputs(circuit, spec, words)

    monkeypatch.setattr(mapper, "order_outputs", copies_x1)
    with pytest.raises(VerificationError, match=r"at input \(1, 0, 2\)"):
        synthesize(tt)


def test_a_second_constant_zero_output_costs_nothing():
    # a fresh line already carries 0: no copy of the first zero line
    circ, rep = synthesize(TruthTable(2, 2, (0, 0, 0, 0)))
    assert circ.gates == []
    assert (rep.quantum_cost, rep.gate_count) == (0, 0)
    assert sorted(circ.output_map()) == ["y1", "y2"]


def test_input_limit_guard(monkeypatch):
    monkeypatch.setattr(mapper, "DEFAULT_INPUT_LIMIT", 4)
    with pytest.raises(SynthesisError, match="^5 inputs exceeds"):
        synthesize(TruthTable(5, 1, (0,) * 32))


def test_relabeling_beats_copying():
    # two outputs living on each other's natural lines: claiming must not
    # emit any copy gates
    tt = TruthTable(2, 2, (0, 2, 1, 3))
    circ, _ = synthesize(tt)
    circ2 = order_outputs(circ, tt, line_functions(circ))
    assert circ2.gates == circ.gates
    assert set(circ2.output_map()) == {"y1", "y2"}


def test_order_outputs_recovers_dropped_labels():
    tt = TruthTable(2, 1, (0, 1, 1, 0))
    circ, rep = synthesize(tt)
    for line in circ.lines:
        if line.role == ROLE_OUTPUT:
            line.role = ROLE_GARBAGE
            line.output_name = None
    fixed = order_outputs(circ, tt, line_functions(circ))
    assert set(fixed.output_map()) == {"y1"}
    funcs = line_functions(fixed)
    assert funcs[fixed.output_map()["y1"]] == tt.columns[0]


def test_spare_roles_after_a_standalone_order_outputs():
    # order_outputs marks every spare line garbage, since it does not
    # simulate its own claim gates; assign_spare_roles on the final words
    # then tells the constant line the Toffoli pair restores
    circ = Circuit(2)
    work = _fresh_line(circ)
    circ.append(toffoli([0, 1], work))
    circ.append(toffoli([0, 1], work))
    tt = TruthTable(2, 1, (0, 1, 0, 1))     # y1 = x1
    order_outputs(circ, tt, line_functions(circ))
    assert [l.role for l in circ.lines] == \
        [ROLE_OUTPUT, ROLE_GARBAGE, ROLE_GARBAGE]
    assign_spare_roles(circ, line_functions(circ))
    assert [l.role for l in circ.lines] == \
        [ROLE_OUTPUT, ROLE_GARBAGE, ROLE_ANCILLA]
    rep = quantum_cost(circ)
    assert (rep.garbage_count, rep.ancilla_count) == (1, 1)
    assert verify_equivalence(circ, tt)


def _pending_outputs(dag, circuit):
    """ANF coefficient word of each output, as `EsopDag.expand` gives it,
    except that an identifier mapping made (`@<line>`) stands for the
    function its circuit line carries now."""
    n = dag.n_vars
    funcs = line_functions(circuit)
    memo = {}

    def expand(nid):
        if nid in memo:
            return memo[nid]
        node = dag.nodes[nid]
        if node.kind == T_CONST:
            out = 1 if node.label else 0
        elif node.kind == T_ID:
            out = 1 << (1 << node.line) if node.label == f"x{node.line + 1}" \
                else mobius_bits(funcs[node.line], n)
        elif node.kind == T_XOR:
            out = 0
            for c in node.children:
                out ^= expand(c)
        else:
            column = (1 << (1 << n)) - 1
            for c in node.children:
                column &= mobius_bits(expand(c), n)
            out = mobius_bits(column, n)
        memo[nid] = out
        return out

    return [(name, expand(nid)) for name, nid in dag.output_order]


def test_parameter_sweep_stays_sound(monkeypatch):
    # after every rewrite of the real mapping loop the graph is well formed
    # and every output, the mapped part read off the circuit, is its spec
    want = {}
    rewrites = 0
    real = mapper.map_target

    def checked(dag, choice, circuit):
        nonlocal rewrites
        gates = real(dag, choice, circuit)
        rewrites += 1
        problems = validate_dag(dag)
        assert not problems, f"graph invariant broken: {problems}"
        for name, got in _pending_outputs(dag, circuit):
            assert got == want[name], \
                f"output {name} drifted: {EsopExpression(dag.n_vars, got)}"
        return gates

    monkeypatch.setattr(mapper, "map_target", checked)
    rng = random.Random(10)
    for _ in range(25):
        n = rng.randint(2, 4)
        images = list(range(1 << n))
        rng.shuffle(images)
        spec = Permutation(tuple(images))
        tt = truth_table_from_permutation(spec)
        want = {name: e.coeffs for name, e
                in zip(tt.output_names, anf_from_truth_table(tt))}
        params = OptimizeParams(rng.choice([2, 3, 4, 5]), rng.random() < 0.5,
                                rng.randint(0, 5), rng.random() < 0.5)
        synthesize(spec, params)
    assert rewrites > 100


def _ready(dag, nid):
    """True when every child can be emitted directly as gates."""
    node = dag.nodes[nid]
    if node.kind == T_AND:
        return all(dag.nodes[c].kind == T_ID for c in node.children)
    if node.kind != T_XOR:
        return False
    for c in node.children:
        child = dag.nodes[c]
        if child.kind in (T_ID, T_CONST):
            continue
        if child.kind == T_AND and all(
                dag.nodes[g].kind == T_ID for g in child.children):
            continue
        return False
    return True


def _reference_parent_candidates(dag):
    """The all-nodes scan that the index's candidate set replaces: the
    identifiers with exactly two non-root parents that a parent-reduction
    rewrite fits, in (line, id) order."""
    candidates = []
    for nid, node in sorted(dag.nodes.items()):
        if node.kind != T_ID:
            continue
        count = sum(1 for p in node.parents if dag.nodes[p].kind != T_ROOT)
        if count == 2 and next(parent_rewrites(dag, nid), None) is not None:
            candidates.append((node.line if node.line is not None else nid, nid))
    return sorted(candidates)


def _reference_find_target(dag):
    """The all-nodes scan that `find_target`'s ready index replaces."""
    internal = sorted(nid for nid, n in dag.nodes.items()
                      if n.kind in (T_AND, T_XOR))
    if not internal:
        return None
    depth_max = max(n.depth for n in dag.nodes.values())
    level = [nid for nid in internal if dag.nodes[nid].depth == depth_max - 1]
    for nid in level:
        if dag.nodes[nid].kind == T_XOR and _ready(dag, nid) \
                and _single_parent_leaf(dag, nid) is not None:
            return TargetChoice(nid, RULE_XOR_SINGLE)
    if depth_max >= 3:
        for nid in level:
            if dag.nodes[nid].kind != T_AND:
                continue
            for p in sorted(set(dag.nodes[nid].parents)):
                pn = dag.nodes[p]
                if pn.kind == T_XOR and pn.depth == depth_max - 2 \
                        and _ready(dag, p) \
                        and _single_parent_leaf(dag, p) is not None:
                    return TargetChoice(p, RULE_AND_XOR_PARENT)
    best = best_key = None
    for nid in internal:
        if not _ready(dag, nid):
            continue
        node = dag.nodes[nid]
        leafy = sum(1 for c in node.children if dag.nodes[c].is_leaf())
        key = (-leafy, len(node.parents), nid)
        if best_key is None or key < best_key:
            best, best_key = nid, key
    return TargetChoice(best, RULE_MAX_CHILD)


def _index_state(index):
    """What a refresh must leave right: classes, tallies, depth buckets
    and the live branch-3 keys."""
    return index.cls, index.counts, index.depth, index.buckets, index.keys


def _rebuilt_index_state(dag):
    """The state of a ready index built from every node, as the graph's
    first refresh builds it."""
    index = ReadyIndex()
    index.refresh(dag, set(dag.nodes), set(dag.nodes))
    return _index_state(index)


def test_indexed_find_target_matches_the_all_nodes_scan(monkeypatch):
    # random interleavings of one-sweep cube sharing, parent reduction,
    # mapping and collapsing an arbitrary internal node (which moves the
    # depths of internal descendants); the indexed choice must equal the
    # full scan's after every step, and so must the parent-reduction
    # candidates once the first pass has asked the index for them.  The
    # refreshed index itself must equal one rebuilt from every node
    monkeypatch.setattr(optimize, "SHARING_SWEEP_CAP", 1)
    rng = random.Random(1618)
    steps = checked = 0
    while steps < 4000:
        n = rng.randint(3, 6)
        exprs = [expr(n, {rng.randrange(1 << n)
                          for _ in range(rng.randint(2, 14))})
                 for _ in range(rng.randint(1, 4))]
        dag = flat_dag(exprs, rng.choice([3, 4]))
        circuit = Circuit(n)
        reducing = False
        while True:
            op = rng.randrange(6)
            if op == 0:
                common_cube_sharing(dag)
            elif op == 1:
                parent_reduction_pass(dag)
                reducing = True
            elif op == 2:
                internal = sorted(nid for nid, node in dag.nodes.items()
                                  if node.kind in (T_AND, T_XOR))
                if internal:
                    line = _fresh_line(circuit)
                    dag.to_identifier(rng.choice(internal), line, f"@{line}")
            choice = find_target(dag)
            assert choice == _reference_find_target(dag)
            assert _index_state(dag.index) == _rebuilt_index_state(dag)
            if reducing:
                assert sorted((dag.nodes[nid].line, nid)
                              for nid in dag.index.parent_candidates) \
                    == _reference_parent_candidates(dag)
                checked += 1
            else:
                assert dag.index.parent_candidates is None
            steps += 1
            if choice is None:
                break
            if op >= 3:
                map_target(dag, choice, circuit)
    assert checked >= 1000


def test_mapping_without_parent_reduction_never_tests_a_leaf(monkeypatch):
    # P off: the ready index keeps no parent-reduction candidates, so no
    # leaf is ever tested for a rewrite
    def refuse(*args):
        raise AssertionError("a leaf was tested for a parent rewrite")

    monkeypatch.setattr(dag_module, "_reducible", refuse)
    images = list(range(1 << 8))
    random.Random(1).shuffle(images)
    for spec in (Permutation(tuple(images)), NTH_PRIME3):
        for params in (OptimizeParams(3, True, 0, False),
                       OptimizeParams(4, False, 1, False)):
            synthesize(spec, params)


def test_first_parent_reduction_pass_derives_its_candidates(monkeypatch):
    # mapping steps with P off move and delete nodes while the index
    # keeps no candidates; the first pass then tries exactly the leaves
    # the all-nodes scan names, in line order, and the index stays right
    # for the mapping steps after it.  Random permutations at TCKP 3111,
    # each first mapped until the scan names a candidate (most do at
    # K = 1) and at least a random number of steps has run
    tried = []
    monkeypatch.setattr(optimize, "reduce_parents", lambda dag, leaf: (
        tried.append(leaf) or optimize.MutationReport()))
    rng = random.Random(99)
    params = OptimizeParams(3, True, 1, True)
    passes = deleted = 0
    for _ in range(60):
        n = rng.randint(3, 5)
        images = list(range(1 << n))
        rng.shuffle(images)
        tt = truth_table_from_permutation(Permutation(tuple(images)))
        dag = build_dag_from_trees(
            [factor_expression(e, params) for e in anf_from_truth_table(tt)],
            n, 3)
        common_cube_sharing(dag)
        circuit = Circuit(n)
        before = set(dag.nodes)
        steps = rng.randint(1, 6)
        while (choice := find_target(dag)) is not None and (
                steps > 0 or not _reference_parent_candidates(dag)):
            map_target(dag, choice, circuit)
            steps -= 1
        deleted += bool(before - set(dag.nodes))
        assert dag.index.parent_candidates is None
        want = _reference_parent_candidates(dag)
        tried.clear()
        parent_reduction_pass(dag)
        assert tried == [nid for _line, nid in want]
        passes += bool(want)
        while (choice := find_target(dag)) is not None:
            assert choice == _reference_find_target(dag)
            assert sorted((dag.nodes[nid].line, nid)
                          for nid in dag.index.parent_candidates) \
                == _reference_parent_candidates(dag)
            map_target(dag, choice, circuit)
    assert passes >= 40 and deleted >= 40


def test_find_target_follows_depths_that_a_collapse_lowers():
    # root -> top -> c -> g and root -> c: collapsing top lowers g from
    # the deepest internal level to the one above it, below h, although g
    # is neither top's child nor reshaped
    dag = EsopDag(8)
    x = [dag.var_node(i) for i in range(8)]
    g = dag.add(T_XOR, [x[0], x[1]])
    h = dag.add(T_XOR, [x[4], x[5]])
    c = dag.add(T_AND, [g, x[2]])
    top = dag.add(T_XOR, [c, x[3]])
    z = dag.add(T_AND, [h, x[7]])
    y = dag.add(T_XOR, [z, x[6]])
    dag.set_children(dag.root, [top, c, y])
    dag.recompute_depths()
    assert find_target(dag) == TargetChoice(g, RULE_XOR_SINGLE)
    dag.to_identifier(top, 8, "@8")
    assert validate_dag(dag) == []
    assert dag.nodes[g].depth < dag.nodes[h].depth
    assert find_target(dag) == _reference_find_target(dag) \
        == TargetChoice(h, RULE_XOR_SINGLE)


def test_mapping_loop_work_is_bounded_by_the_graph_size(monkeypatch):
    # over a whole mapping loop, the index refresh, the target choice and
    # the parent-reduction candidate set look up a small multiple of the
    # built graph's edge count in nodes; the rewrite attempts themselves
    # (reduce_parents) are not counted, and on this permutation no
    # candidate has a rewrite's shape, so none is made.  All-nodes rescans
    # after every rewrite look up ~500 nodes per edge on this permutation.
    counting = [False]
    lookups = [0]
    edges = []
    attempts = []

    class CountingNodes(dict):
        def __getitem__(self, nid):
            lookups[0] += counting[-1]
            return dict.__getitem__(self, nid)

        def get(self, nid, default=None):
            lookups[0] += counting[-1]
            return dict.get(self, nid, default)

    def build(*args, **kwargs):
        dag = mapper_build(*args, **kwargs)
        edges.append(sum(len(node.children) for node in dag.nodes.values()))
        dag.nodes = CountingNodes(dag.nodes)
        return dag

    def counted(f, on):
        def wrapper(*args):
            counting.append(on)
            try:
                return f(*args)
            finally:
                counting.pop()
        return wrapper

    mapper_build = mapper.build_dag_from_trees
    monkeypatch.setattr(mapper, "build_dag_from_trees", build)
    monkeypatch.setattr(mapper, "find_target", counted(find_target, True))
    monkeypatch.setattr(mapper, "parent_reduction_pass",
                        counted(parent_reduction_pass, True))
    reduce_parents = counted(optimize.reduce_parents, False)

    def attempt(*args):
        attempts.append(args)
        return reduce_parents(*args)

    monkeypatch.setattr(optimize, "reduce_parents", attempt)
    images = list(range(1 << 10))
    random.Random(1).shuffle(images)
    synthesize(Permutation(tuple(images)), OptimizeParams(3, True, 0, True))
    assert edges and lookups[0] <= 24 * edges[0]
    assert attempts == []


_TABLES = st.integers(1, 5).flatmap(lambda n: st.integers(1, 4).flatmap(
    lambda m: st.tuples(st.just(n), st.just(m), st.lists(
        st.integers(0, (1 << m) - 1), min_size=1 << n, max_size=1 << n))))


@given(_TABLES, st.integers(2, 5), st.booleans(), st.integers(0, 3),
       st.booleans())
@settings(max_examples=40, deadline=None)
def test_synthesize_agrees_with_pointwise_simulation(table, t, c, k, p):
    n, m, rows = table
    tt = TruthTable(n, m, tuple(rows))
    circ, report = synthesize(tt, OptimizeParams(t, c, k, p))
    inputs = [l.line_id for l in circ.lines if l.origin == INPUT]
    outputs = circ.output_map()
    for x in range(1 << n):
        bits = 0
        for pos, lid in enumerate(inputs):
            bits |= (x >> pos & 1) << lid
        for line in circ.lines:
            if line.origin == CONSTANT and line.init:
                bits |= 1 << line.line_id
        end = simulate(circ, bits)
        for j, name in enumerate(tt.output_names):
            assert end >> outputs[name] & 1 == rows[x] >> j & 1
        for line in circ.lines:
            if line.role == ROLE_ANCILLA:
                assert end >> line.line_id & 1 == line.init

"""Mapping the and-xor graph onto a generalized-Toffoli network.

The loop repeatedly picks a target with a three-branch greedy heuristic
and rewrites it into gates:

  1. an xor node one level above the deepest leaves owning a leaf nobody
     else references -- the leaf's line absorbs the xor in place;
  2. an and node at that level whose xor parent two levels up owns such a
     leaf -- the parent is mapped the same way (the first such and node
     in id order, and of its fitting parents the one of smallest id);
  3. otherwise the node with the most leaf children (ties: fewest parents)
     is computed onto a fresh constant line, which costs a garbage line
     but frees single-parent leaves for later iterations.

Branch 3 always succeeds, so mapping always terminates.

`find_target` reads a ready index kept on the graph (`dag.ReadyIndex`)
and refreshed from the graph's edit log (see `dag`) at each call, so a
call costs what the last rewrites changed rather than the graph's size.
A node is ready when every child can be emitted directly as gates: an
and whose children are all identifiers, or an xor whose children are
identifiers, constants and such flat ands.  The index counts each and/xor
node's children by those classes, so readiness and the leaf-child count
are O(1) reads.  A tally is rebuilt only when the node's own children
change; when a child changes class (a mapped node becomes an identifier,
and an and above it may become flat) its parents' tallies move by the
delta.  The index also holds depth buckets of the internal nodes
(branches 1 and 2 read the level one above the deepest leaves from them:
with fresh depths the deepest node is a leaf one below the deepest
internal node), and a lazily invalidated heap of the branch-3 keys of the
ready nodes, both updated for the changed nodes only.  Once
`parent_reduction_pass` first asks for them (P on), it also keeps the
identifiers that the pass tries (two non-root parents that a rewrite
fits, `dag.parent_rewrites`); a graph mapped with P off never tests a
leaf for a rewrite.
"""

from __future__ import annotations

import time
from itertools import count
from typing import NamedTuple

from .circuit import (
    CONSTANT, Circuit, CostReport, INPUT, LineState, ROLE_GARBAGE,
    ROLE_OUTPUT, VerificationError, assign_spare_roles, cnot, line_functions,
    not_gate, quantum_cost, toffoli, verify_equivalence,
)
from .dag import EsopDag, T_AND, T_CONST, T_ID, T_XOR, build_dag_from_trees
from .funcs import (
    Permutation, TruthTable, anf_from_truth_table, truth_table_from_permutation,
)
from .optimize import (
    OptimizeParams, common_cube_sharing, factor_expression,
    parent_reduction_pass,
)

RULE_XOR_SINGLE = "XorWithSingleParentLeaf"
RULE_AND_XOR_PARENT = "AndWithXorParentSingleLeaf"
RULE_MAX_CHILD = "MaxChildMinParent"

DEFAULT_INPUT_LIMIT = 16


class SynthesisError(Exception):
    pass


class TargetChoice(NamedTuple):
    """The node to map and the branch (`RULE_*`) that chose it."""

    node: int
    rule: str


def _single_parent_leaf(dag: EsopDag, nid: int) -> int | None:
    """First identifier child referenced only by this node."""
    for c in dag.nodes[nid].children:
        child = dag.nodes[c]
        if child.kind == T_ID and len(child.parents) == 1:
            return c
    return None


def find_target(dag: EsopDag) -> TargetChoice | None:
    """Pick the next node to map, or None when the graph is exhausted."""
    index = dag.refreshed_index()
    if not index.buckets:
        return None
    depth_max = 1 + max(index.buckets)
    level = sorted(index.buckets[depth_max - 1])
    ready = index.keys
    for nid in level:
        if dag.nodes[nid].kind == T_XOR and nid in ready \
                and _single_parent_leaf(dag, nid) is not None:
            return TargetChoice(nid, RULE_XOR_SINGLE)
    if depth_max >= 3:
        for nid in level:
            if dag.nodes[nid].kind != T_AND:
                continue
            fits = [p for p in dag.nodes[nid].parents
                    if p in ready and dag.nodes[p].kind == T_XOR
                    and dag.nodes[p].depth == depth_max - 2
                    and _single_parent_leaf(dag, p) is not None]
            if fits:
                return TargetChoice(min(fits), RULE_AND_XOR_PARENT)
    best = index.best()
    if best is None:
        raise SynthesisError("no mappable node in a non-empty graph")
    return TargetChoice(best[2], RULE_MAX_CHILD)


def _fresh_line(circuit: Circuit) -> int:
    """Append a constant-0 line, unnamed until `order_outputs` names it."""
    lid = circuit.n_lines
    circuit.lines.append(LineState(lid, None, CONSTANT, 0))
    circuit.n_lines += 1
    return lid


def _xor_children(dag: EsopDag, children, leaf, target: int, circuit: Circuit):
    """Xor every child except `leaf` onto the target line; inverters for a
    constant-1 child come last."""
    invert = False
    for c in children:
        if c == leaf:
            continue
        node = dag.nodes[c]
        if node.kind == T_CONST:
            invert |= bool(node.label)
        elif node.kind == T_ID:
            circuit.append(cnot(node.line, target))
        else:  # flat and node: one Toffoli over its children's lines
            controls = [dag.nodes[g].line for g in node.children]
            circuit.append(toffoli(controls, target))
    if invert:
        circuit.append(not_gate(target))


def map_target(dag: EsopDag, choice: TargetChoice, circuit: Circuit) -> list:
    """Rewrite one chosen node into gates appended to the circuit; the node
    becomes an identifier for the line now carrying it.  Returns the
    appended gates."""
    node = dag.nodes[choice.node]
    emitted_from = len(circuit.gates)
    if choice.rule in (RULE_XOR_SINGLE, RULE_AND_XOR_PARENT):
        leaf = _single_parent_leaf(dag, choice.node)
        target = dag.nodes[leaf].line
        _xor_children(dag, node.children, leaf, target, circuit)
    else:
        target = _fresh_line(circuit)
        if node.kind == T_AND:
            controls = [dag.nodes[c].line for c in node.children]
            circuit.append(toffoli(controls, target))
        else:
            _xor_children(dag, node.children, None, target, circuit)
    dag.to_identifier(choice.node, target, f"@{target}")
    return circuit.gates[emitted_from:]


def synthesize(
    spec: TruthTable | Permutation,
    params: OptimizeParams = OptimizeParams(),
    trace=None,
) -> tuple[Circuit, CostReport]:
    """Full pipeline: ANF, graph build, optimization passes, mapping loop,
    output ordering, equivalence check and costing.

    Every returned circuit has passed an exhaustive check against the
    spec; a failure is an internal-consistency bug and raises
    VerificationError.  The report's runtime includes the check.  A
    `trace` callable gets one line per cube-sharing pass, parent-reduction
    pass that changed the graph, and mapping iteration (`iter k:`).
    """
    t0 = time.perf_counter()
    tt = truth_table_from_permutation(spec) if isinstance(spec, Permutation) else spec
    n = tt.n_inputs
    if n < 1:
        raise SynthesisError("need at least one input")
    if n > DEFAULT_INPUT_LIMIT:
        raise SynthesisError(
            f"{n} inputs exceeds the limit {DEFAULT_INPUT_LIMIT}")

    exprs = anf_from_truth_table(tt)
    trees = [factor_expression(e, params) for e in exprs]
    dag = build_dag_from_trees(trees, n, params.max_and_arity,
                               output_names=list(tt.output_names))
    if params.cube_sharing:
        rep = common_cube_sharing(dag)
        if trace is not None and rep:
            trace(f"cube_sharing: {len(rep.events)} shares, "
                  f"nodes {rep.nodes_before}->{rep.nodes_after}")

    circuit = Circuit(n, [], [LineState(i, name, INPUT)
                              for i, name in enumerate(tt.input_names)])
    guard = 4 * len(dag) + 64
    iterations = 0
    while True:
        if params.parent_reduction:
            rep = parent_reduction_pass(dag)
            if trace is not None and rep:
                trace(f"parent_reduction: {rep.events}")
        choice = find_target(dag)
        if choice is None:
            break
        gates = map_target(dag, choice, circuit)
        iterations += 1
        if trace is not None:
            trace(f"iter {iterations}: {choice.rule} #{choice.node} -> "
                  + "; ".join(str(g) for g in gates))
        if iterations > guard:
            raise SynthesisError("mapping loop exceeded its iteration bound")

    order_outputs(circuit, tt)
    verdict = verify_equivalence(circuit, tt)
    if not verdict:
        raise VerificationError(
            f"emitted circuit disagrees with the spec at input "
            f"{verdict.counterexample}")
    return circuit, quantum_cost(circuit, time.perf_counter() - t0)


def order_outputs(circuit: Circuit, spec: TruthTable) -> Circuit:
    """Label the lines carrying the spec's outputs, name the fresh lines
    and re-derive every role.

    Relabeling is free; only an output whose function no unclaimed line
    carries costs a fresh line (a copy, or an inverter for constant 1).
    Candidate lines are grouped by the function they carry, so claiming in
    output order already claims as many lines as possible.  Every other
    line gets its role from `assign_spare_roles`.  The fresh lines, in
    line order, take the lowest names w<k> that no other line uses.
    """
    funcs = line_functions(circuit)
    full = (1 << (1 << spec.n_inputs)) - 1
    carriers: dict[int, list[int]] = {}
    for lid, f in enumerate(funcs):
        carriers.setdefault(f, []).append(lid)
    claims = [carriers[w].pop(0) if carriers.get(w) else None
              for w in spec.columns]
    for l in circuit.lines:
        l.role = ROLE_GARBAGE
        l.output_name = None
    for name, want, line_id in zip(spec.output_names, spec.columns, claims):
        if line_id is None:
            # a constant or a duplicate output: a fresh line, which already
            # carries 0, or a copy / an inverter onto one
            line_id = _fresh_line(circuit)
            if want != 0:
                src = next((i for i, f in enumerate(funcs) if f == want), None)
                if src is not None:
                    circuit.append(cnot(src, line_id))
                elif want == full:
                    circuit.append(not_gate(line_id))
                else:
                    raise SynthesisError(f"no line carries output {name}")
            funcs.append(want)
        circuit.lines[line_id].role = ROLE_OUTPUT
        circuit.lines[line_id].output_name = name
    used = {l.name for l in circuit.lines}
    free = (f"w{k}" for k in count(1) if f"w{k}" not in used)
    for l in circuit.lines:
        if l.name is None:
            l.name = next(free)
    assign_spare_roles(circuit, funcs)
    return circuit


__all__ = [
    "RULE_XOR_SINGLE", "RULE_AND_XOR_PARENT", "RULE_MAX_CHILD",
    "SynthesisError", "TargetChoice", "find_target", "map_target",
    "synthesize", "order_outputs",
]

"""Properties over random specs, with a small example budget."""

import contextlib
import io
import os
import random
import re
import tempfile
from collections import Counter
from types import SimpleNamespace

from hypothesis import example, given, settings, strategies as st

from esopsyn import Circuit, OptimizeParams, Permutation, TruthTable, \
    ancilla_free_synthesize, cnot, not_gate, simulate, synthesize, \
    truth_table_from_permutation, verify_equivalence
from esopsyn.circuit import CONSTANT, INPUT, ROLE_ANCILLA, ROLE_OUTPUT, \
    line_functions
from esopsyn.cli import run_cli
from esopsyn.dag import T_XOR
from esopsyn.funcs import bit_support
from esopsyn.io import format_circuit, parse_circuit_text, write_circuit
from esopsyn.optimize import _rule_masks, _ShapeIndex


@st.composite
def permutations(draw, max_vars=3):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    return Permutation(tuple(draw(st.permutations(range(1 << n)))))


@st.composite
def truth_tables(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << m) - 1),
                         min_size=1 << n, max_size=1 << n))
    return TruthTable(n, m, tuple(rows))


params = st.builds(OptimizeParams, st.integers(min_value=2, max_value=5),
                   st.booleans(), st.integers(min_value=0, max_value=3),
                   st.booleans())


@given(permutations())
@settings(max_examples=40, deadline=None)
def test_ancilla_free_uses_exactly_the_functions_own_lines(spec):
    n = spec.n_vars
    circuit, report = ancilla_free_synthesize(spec)
    assert circuit.n_lines == n and report.line_count == n
    assert report.garbage_count == 0 and report.ancilla_count == 0


def _cost_line(circuit) -> dict[str, int]:
    """What `esopsyn cost` prints for the circuit, as name -> value."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.tfc")
        write_circuit(circuit, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_cli(["cost", "--in", path]) == 0
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", out.getvalue())}


@given(st.one_of(truth_tables(), permutations()), params)
@settings(max_examples=40, deadline=None)
def test_reported_garbage_is_what_simulation_derives(spec, knobs):
    circuit, report = synthesize(spec, knobs)
    derived = _cost_line(circuit)
    assert derived["garbage"] == report.garbage_count
    assert derived["ancilla"] == report.ancilla_count
    assert derived["lines"] == report.line_count
    assert derived["qc"] == report.quantum_cost


@st.composite
def emitted(draw):
    """(circuit, truth table) from either engine: the ancilla-free engine
    on a permutation, or `synthesize` on a table or permutation at random
    TCKP."""
    if draw(st.booleans()):
        spec = draw(permutations())
        return ancilla_free_synthesize(spec)[0], \
            truth_table_from_permutation(spec)
    spec = draw(st.one_of(truth_tables(), permutations()))
    if isinstance(spec, Permutation):
        spec = truth_table_from_permutation(spec)
    return synthesize(spec, draw(params))[0], spec


def _inputs(circuit):
    return [l.line_id for l in circuit.lines if l.origin == INPUT]


@given(emitted())
@settings(max_examples=40, deadline=None)
def test_circuit_text_round_trip_keeps_line_functions_and_roles(case):
    circuit, table = case
    back = parse_circuit_text(format_circuit(circuit))
    assert line_functions(back) == line_functions(circuit)
    assert [(l.name, l.origin, l.init, l.role, l.output_name)
            for l in back.lines] == \
        [(l.name, l.origin, l.init, l.role, l.output_name)
         for l in circuit.lines]


def _pointwise_ends(circuit):
    """(x, the lines' values after the gates) for every input x, by the
    `simulate` oracle."""
    constants = sum(1 << l.line_id for l in circuit.lines
                    if l.origin == CONSTANT and l.init)
    for x in range(1 << len(_inputs(circuit))):
        start = constants
        for pos, lid in enumerate(_inputs(circuit)):
            start |= (x >> pos & 1) << lid
        yield x, simulate(circuit, start)


def _pointwise_ok(circuit, table) -> bool:
    """The `simulate` oracle, input by input: every output line carries its
    column and every ancilla ends at its initial value."""
    outputs = circuit.output_map()
    for x, end in _pointwise_ends(circuit):
        if any(end >> outputs[name] & 1 != table.rows[x] >> j & 1
               for j, name in enumerate(table.output_names)):
            return False
        if any(end >> l.line_id & 1 != l.init for l in circuit.lines
               if l.role == ROLE_ANCILLA):
            return False
    return True


@given(emitted())
@settings(max_examples=40, deadline=None)
def test_every_single_flipped_gate_fails_verification(case):
    # a flip can keep every checked line: its effect may stay on garbage
    # lines (NOT x1 -> CNOT x2,x1 before Toffoli x1,x2 -> y1 keeps
    # y1 = x1'x2), or a constant line may hide it (CNOT w1,w2 -> NOT w2
    # while w1 is 1).  So the verdict must be the oracle's, and where every
    # line is an input carrying an output, as the ancilla-free engine
    # emits, the circuit is one bijection and every flip must fail.
    circuit, table = case
    assert verify_equivalence(circuit, table)
    bijective = all(l.origin == INPUT and l.role == ROLE_OUTPUT
                    for l in circuit.lines)
    for i, gate in enumerate(circuit.gates):
        # a NOT on the gate's target replaces the gate; a NOT becomes a CNOT
        # from another line, or is dropped on a one-line circuit
        target = gate.targets[0]
        others = [l.line_id for l in circuit.lines if l.line_id != target]
        if gate.controls:
            flipped = [not_gate(target)]
        else:
            flipped = [cnot(others[0], target)] if others else []
        broken = Circuit(circuit.n_lines,
                         circuit.gates[:i] + flipped + circuit.gates[i + 1:],
                         circuit.lines)
        verdict = bool(verify_equivalence(broken, table))
        assert verdict == _pointwise_ok(broken, table), f"gate {i}"
        assert not (bijective and verdict), f"gate {i} flip passed"


@given(emitted(), st.data())
@settings(max_examples=40, deadline=None)
def test_resumed_simulation_equals_the_whole_and_the_pointwise_oracle(
        case, data):
    # the circuit's first k gates on the lines that existed by then (the
    # inputs and every line those gates touch), then the rest resumed with
    # the later lines appended at their initial values
    circuit, _ = case
    k = data.draw(st.integers(0, len(circuit.gates)), label="k")
    touched = [lid for g in circuit.gates[:k] for lid in g.controls + g.targets]
    first = 1 + max(_inputs(circuit) + touched)
    n_head = data.draw(st.integers(first, circuit.n_lines), label="lines")
    head = Circuit(n_head, circuit.gates[:k], circuit.lines[:n_head])
    words = line_functions(head)
    kept = list(words)
    resumed = line_functions(circuit, resume=(words, k))
    assert words == kept
    assert resumed == line_functions(circuit)
    for x, end in _pointwise_ends(circuit):
        assert [w >> x & 1 for w in resumed] == \
            [end >> lid & 1 for lid in range(circuit.n_lines)]


def _column_by_rows(table, j: int) -> int:
    """Output j gathered one row at a time: the reference for `columns`."""
    col = 0
    for i, r in enumerate(table.rows):
        col |= (r >> j & 1) << i
    return col


@st.composite
def any_tables(draw):
    """Tables of 0 to 8 inputs and 0 to 9 outputs, both empty sides included."""
    n = draw(st.integers(min_value=0, max_value=8))
    m = draw(st.integers(min_value=0, max_value=9))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << m) - 1),
                         min_size=1 << n, max_size=1 << n))
    return TruthTable(n, m, tuple(rows))


@given(any_tables())
@settings(max_examples=100, deadline=None)
def test_columns_round_trip_through_from_columns(table):
    assert table.columns == tuple(_column_by_rows(table, j)
                                  for j in range(table.n_outputs))
    back = TruthTable.from_columns(table.n_inputs, list(table.columns),
                                   table.input_names, table.output_names)
    assert back == table and back.columns == table.columns


def _support_by_clearing(bits: int) -> list[int]:
    """Set bits cleared one at a time from the whole word: the reference
    for `bit_support`, quadratic in the word's length."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


@st.composite
def words(draw):
    """Random words of up to 2^16 bits, their widths spread over every scale."""
    k = draw(st.integers(min_value=0, max_value=16))
    width = draw(st.integers(min_value=0, max_value=1 << k))
    return draw(st.randoms(use_true_random=False)).getrandbits(width)


@st.composite
def sparse_long_words(draw):
    """Words of 2^14 to 2^16 bits with a few set bits: long words whose
    limbs are mostly zero, as the slot masks of cube sharing are."""
    width = draw(st.integers(min_value=1 << 14, max_value=1 << 16))
    bits = draw(st.sets(st.integers(0, width - 2), min_size=1, max_size=8))
    return sum(1 << b for b in bits) | 1 << (width - 1)


@given(st.one_of(words(), sparse_long_words()))
@example(0)
@example(1 << 63)
@example(1 << 64)
@example(1 << 127)
@example(1 << 128)
@example(1 << 1024)
@example(1 << 1087 | 1 << 1088 | 1 << 64 | 1)
@example(1 << 23158 | 1 << 9000 | 1 << 8191 | 1 << 4096 | 1 << 130)
@example(random.Random(1).getrandbits(1 << 16))
@settings(max_examples=100, deadline=None)
def test_bit_support_matches_clearing_one_bit_at_a_time(word):
    assert bit_support(word) == _support_by_clearing(word)


LEAVES = range(1000, 1048)


@st.composite
def xor_families(draw):
    """Up to 40 xor nodes' child sets of 2 to 40 leaves (so a count needs
    six slices), each fresh or an earlier one with leaves dropped and
    added, so that equal, nested and overlapping sets all occur; then up
    to 12 changes, each a node reshaped to a new set or deleted (None),
    and whether the width slices are built before the changes."""
    fresh = st.sets(st.sampled_from(LEAVES), min_size=2, max_size=40)
    family = []
    for _ in range(draw(st.integers(min_value=1, max_value=40))):
        if family and draw(st.booleans()):
            base = draw(st.sampled_from(family))
            drop = draw(st.sets(st.sampled_from(sorted(base)),
                                max_size=len(base) - 2))
            add = draw(st.sets(st.sampled_from(LEAVES), max_size=4))
            family.append(frozenset(sorted((base - drop) | add)[:40]))
        else:
            family.append(frozenset(draw(fresh)))
    changes = draw(st.lists(st.tuples(
        st.integers(min_value=0, max_value=len(family) - 1),
        st.none() | fresh | st.sampled_from(family)), max_size=12))
    return family, changes, draw(st.booleans())


def _pair_rule(ci, cj):
    """The share two child sets with at least two common children allow;
    equal sets allow none."""
    c = len(ci & cj)
    if c < 2 or ci == cj:
        return None
    if ci < cj or cj < ci:
        return "subset"
    return "overlap" if 2 * c > len(ci) and 2 * c > len(cj) else None


def _at(slices, slot):
    return sum((s >> slot & 1) << k for k, s in enumerate(slices))


@given(xor_families())
@settings(max_examples=80, deadline=None)
def test_bit_sliced_counts_and_rule_masks_match_the_pairwise_search(case):
    # every slot's bit-sliced common-child count equals a Counter over the
    # live nodes' child sets (0 for a deleted node), and the rule masks
    # name each pair's rule, after reshapes and deletions
    family, changes, built_first = case
    nodes = {nid: SimpleNamespace(kind=T_XOR, children=sorted(kids))
             for nid, kids in enumerate(family)}
    index = _ShapeIndex(SimpleNamespace(nodes=nodes))
    if built_first:
        index.width_slices()
    for nid, kids in changes:
        if nid in nodes:
            if kids is None:
                del nodes[nid]
            else:
                nodes[nid].children = sorted(kids)
            index.update([nid])
    live = {nid: frozenset(node.children) for nid, node in nodes.items()}
    widths = index.width_slices()
    for nid, s in index.xor_slot.items():
        assert _at(widths, s) == len(live.get(nid, ()))
    for i, ci in live.items():
        want = Counter(j for c in ci for j, cj in live.items() if c in cj)
        counts, many = index._xor_co_parents(i)
        for nid, s in index.xor_slot.items():
            assert _at(counts, s) == want[nid]
        assert {index.xor_ids[s] for s in bit_support(many)} == \
            {j for j, c in want.items() if c >= 2 and j != i}
        rules = {j: _pair_rule(ci, live[j]) for j in live if j != i}
        rules = {j: rule for j, rule in rules.items() if rule}
        masks = _rule_masks(counts, len(ci), widths, many)
        assert sum(mask.bit_count() for _rule, mask in masks) == len(rules)
        assert {index.xor_ids[s]: rule for rule, mask in masks
                for s in bit_support(mask)} == rules
        assert dict(index.partners(i)) == rules
    # j is i's partner exactly when i is j's, by the same rule, whether the
    # masks or the pair-by-pair comparisons ruled them
    partners = {i: dict(index.partners(i)) for i in live}
    for i in live:
        for j in live:
            assert partners[i].get(j) == partners[j].get(i)

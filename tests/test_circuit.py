import pickle
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from esopsyn.circuit import (
    CONSTANT, FREDKIN, Circuit, Gate, LineState, ROLE_OUTPUT, cnot,
    detect_peres, fredkin, gate_cost, line_functions, not_gate, quantum_cost,
    restored_constants, simulate, toffoli, verify_equivalence,
)
from esopsyn.funcs import TruthTable


def test_gate_costs():
    assert gate_cost(not_gate(0)) == 1
    assert gate_cost(cnot(0, 1)) == 1
    assert gate_cost(toffoli([0, 1], 2)) == 5
    assert gate_cost(toffoli([0, 1, 2], 3)) == 13
    assert gate_cost(toffoli([0, 1, 2, 3], 4)) == 25
    assert gate_cost(toffoli(range(5), 5)) == 41
    assert gate_cost(fredkin([0], 1, 2)) == 7


def test_gate_validation():
    with pytest.raises(ValueError):
        Gate("t", (0,), (0,))           # target in controls
    with pytest.raises(ValueError):
        Gate("f", (0,), (1,))           # fredkin needs two targets
    with pytest.raises(ValueError):
        Gate("q", (), (0,))


def _reference_gate_problem(family, controls, targets):
    """The five checks the gate made one by one, in their order: the
    message of the first that fails (or None) and the sorted controls."""
    if family not in ("t", "f"):
        return f"unknown gate family {family!r}", None
    controls, targets = tuple(sorted(controls)), tuple(targets)
    want = 1 if family == "t" else 2
    if len(targets) != want:
        return f"{family}-family gate needs {want} target(s)", controls
    if len(set(controls)) != len(controls):
        return "duplicate control lines", controls
    if len(set(targets)) != len(targets):
        return "duplicate target lines", controls
    if set(controls) & set(targets):
        return "target appears in control set", controls
    return None, controls


@st.composite
def _gate_args(draw):
    """A valid gate's family, controls and targets, then up to three edits:
    a new family, a line added to either side (a repeat or an overlap
    when it is already there), the last target dropped or replaced."""
    family = draw(st.sampled_from(["t", "f"]))
    lines = draw(st.permutations(range(6)))
    k = draw(st.integers(0, 3))
    controls = list(lines[:k])
    targets = list(lines[k:k + (1 if family == "t" else 2)])
    for _ in range(draw(st.integers(0, 3))):
        edit, line = draw(st.integers(0, 4)), draw(st.sampled_from(lines))
        if edit == 0:
            family = draw(st.sampled_from(["t", "f", "q", ""]))
        elif edit == 1:
            controls.append(line)
        elif edit == 2:
            targets.append(line)
        elif edit == 3:
            del targets[-1:]
        else:
            targets[-1:] = [line]
    return family, tuple(controls), tuple(targets)


@settings(max_examples=300, deadline=None)
@given(_gate_args())
@example(("t", (3, 1), (0,)))
@example(("f", (1, 1), (2, 2)))
def test_gate_checks_match_the_one_by_one_reference(args):
    family, controls, targets = args
    problem, sorted_controls = _reference_gate_problem(family, controls,
                                                       targets)
    if problem is None:
        g = Gate(family, controls, targets)
        assert (g.family, g.controls, g.targets) == (
            family, sorted_controls, targets)
    else:
        with pytest.raises(ValueError) as err:
            Gate(family, controls, targets)
        assert str(err.value) == problem


def test_gates_are_immutable_hashable_values():
    g = toffoli([5, 1, 3], 0)
    assert g.controls == (1, 3, 5) and type(g.controls) is tuple
    assert g.targets == (0,) and type(g.targets) is tuple
    for field, value in (("family", "f"), ("controls", (2,)),
                         ("targets", (4,))):
        with pytest.raises(AttributeError):
            setattr(g, field, value)
    assert (g.family, g.controls, g.targets) == ("t", (1, 3, 5), (0,))
    same = Gate("t", (3, 5, 1), [0])
    assert same == g and hash(same) == hash(g) and len({g, same}) == 1
    assert g != toffoli([1, 3], 0) and g != fredkin([1, 3], 0, 5)
    # a process pool (sweep --jobs) moves gates between processes
    for gate in (g, not_gate(2), cnot(4, 1), fredkin([0], 2, 1)):
        back = pickle.loads(pickle.dumps(gate))
        assert back == gate and hash(back) == hash(gate)
        assert (back.family, back.controls, back.targets) == \
            (gate.family, gate.controls, gate.targets)


def test_peres_pairs():
    c = Circuit(3, [toffoli([0, 1], 2), cnot(0, 1)])
    assert detect_peres(c) == [(0, 1)]
    assert quantum_cost(c).quantum_cost == 4
    assert quantum_cost(c).gate_count == 2
    assert quantum_cost(c).peres_pairs == 1

    # control/target outside the toffoli's control pair: no pairing
    c = Circuit(3, [toffoli([0, 1], 2), cnot(0, 2)])
    assert detect_peres(c) == []
    assert quantum_cost(c).quantum_cost == 6

    assert detect_peres(Circuit(3)) == []


def test_peres_inverse_order_and_greedy_scan():
    c = Circuit(3, [cnot(1, 0), toffoli([0, 1], 2)])
    assert detect_peres(c) == [(0, 1)]
    # the middle gate can only pair once
    c = Circuit(3, [toffoli([0, 1], 2), cnot(0, 1), toffoli([0, 1], 2)])
    assert detect_peres(c) == [(0, 1)]
    assert quantum_cost(c).quantum_cost == 4 + 5


def _reference_peres_pairs(gates):
    """The greedy pairwise scan without the control-count test: both
    orders of every adjacent pair go through the full match."""
    def match(tof, cn):
        return (tof.family == "t" and len(tof.controls) == 2
                and cn.family == "t" and len(cn.controls) == 1
                and {cn.controls[0], cn.targets[0]} == set(tof.controls))

    pairs, i = [], 0
    while i < len(gates) - 1:
        if match(gates[i], gates[i + 1]) or match(gates[i + 1], gates[i]):
            pairs.append((i, i + 1))
            i += 2
        else:
            i += 1
    return pairs


@st.composite
def _gate_lists(draw):
    """Gates on four lines, so Toffoli_3 / CNOT pairs on one control set
    are common: NOT, CNOT, Toffoli with two or three controls, Fredkin."""
    gates = []
    for _ in range(draw(st.integers(0, 12))):
        lines = draw(st.permutations(range(4)))
        k = draw(st.integers(0, 4))
        if k == 4:
            gates.append(fredkin(lines[:1], lines[1], lines[2]))
        else:
            gates.append(toffoli(lines[:k], lines[k]))
    return gates


@settings(max_examples=300, deadline=None)
@given(_gate_lists())
@example([toffoli([0, 1], 2), cnot(1, 0), cnot(0, 1)])
@example([fredkin([0], 1, 2), cnot(1, 2), toffoli([1, 2], 3)])
def test_peres_scan_matches_the_pairwise_reference(gates):
    assert detect_peres(Circuit(4, gates)) == _reference_peres_pairs(gates)


def test_cost_report_counts():
    c = Circuit(4, [cnot(0, 1), cnot(1, 2), cnot(2, 3), cnot(3, 1)])
    rep = quantum_cost(c)
    assert rep.quantum_cost == 4
    assert rep.gate_count == 4
    assert rep.line_count == 4


def test_simulate_basics():
    assert simulate(Circuit(3), 0b101) == 0b101
    c = Circuit(2, [cnot(0, 1)])
    assert simulate(c, 0b01) == 0b11
    assert simulate(c, 0b10) == 0b10
    c = Circuit(3, [fredkin([0], 1, 2)])
    assert simulate(c, 0b101) == 0b011   # control set: targets swap
    assert simulate(c, 0b100) == 0b100   # control clear: no swap
    assert simulate(c, 0b011) == 0b101
    with pytest.raises(ValueError):
        simulate(Circuit(2), 0b100)


def _random_circuit(rng, n_lines, n_gates):
    gates = []
    for _ in range(n_gates):
        kind = rng.random()
        lines = rng.sample(range(n_lines), k=min(n_lines, 3))
        if kind < 0.2 or n_lines < 2:
            gates.append(not_gate(lines[0]))
        elif kind < 0.6 or n_lines < 3:
            gates.append(cnot(lines[0], lines[1]))
        elif kind < 0.85:
            gates.append(toffoli(lines[:2], lines[2]))
        else:
            gates.append(fredkin(lines[:1], lines[1], lines[2]))
    return Circuit(n_lines, gates)


def test_simulation_is_a_bijection():
    rng = random.Random(99)
    for n_lines, reps in ((2, 10), (3, 10), (5, 10), (12, 2)):
        for _ in range(reps):
            c = _random_circuit(rng, n_lines, 12)
            image = {simulate(c, x) for x in range(1 << n_lines)}
            assert len(image) == 1 << n_lines


def test_reversed_gate_list_undoes_the_circuit():
    rng = random.Random(4)
    for _ in range(20):
        c = _random_circuit(rng, 4, 10)
        # every gate in the library is self-inverse
        inv = Circuit(c.n_lines, c.gates[::-1], c.lines)
        for x in range(16):
            assert simulate(inv, simulate(c, x)) == x


def test_line_functions_match_pointwise_simulation():
    rng = random.Random(21)
    fredkins = 0
    for n_lines in (3, 3, 4, 4, 5, 5, 6, 6):
        c = _random_circuit(rng, n_lines, 15)
        fredkins += sum(g.family == FREDKIN for g in c.gates)
        funcs = line_functions(c)
        for x in range(1 << n_lines):
            end = simulate(c, x)
            for lid in range(n_lines):
                assert (funcs[lid] >> x) & 1 == (end >> lid) & 1
    assert fredkins >= 8   # the controlled swaps are checked too


def identity_circuit(n):
    lines = [LineState(i, f"x{i+1}", role=ROLE_OUTPUT, output_name=f"y{i+1}")
             for i in range(n)]
    return Circuit(n, [], lines)


def test_verify_equivalence_identity():
    spec = TruthTable(2, 2, (0, 1, 2, 3))
    assert verify_equivalence(identity_circuit(2), spec)


def test_verify_equivalence_counterexample():
    spec = TruthTable(2, 2, (1, 0, 3, 2))   # NOT on the first output
    c = identity_circuit(2)
    c.append(not_gate(1))                   # applied to the wrong line
    verdict = verify_equivalence(c, spec)
    assert not verdict
    x, want, got = verdict.counterexample
    assert x == 0 and want == 1 and got == 2


def test_verify_reports_restored_constants():
    spec = TruthTable(1, 1, (0, 1))
    lines = [LineState(0, "x1", role=ROLE_OUTPUT, output_name="y1"),
             LineState(1, "w1", CONSTANT, 0)]
    # compute onto the helper and uncompute it again
    c = Circuit(2, [cnot(0, 1), cnot(0, 1)], lines)
    assert verify_equivalence(c, spec)
    assert restored_constants(c, line_functions(c)) == (1,)
    rep = quantum_cost(c)
    assert rep.ancilla_count == 0  # roles come from the line metadata

import random

import pytest

from esopsyn.circuit import (
    CONSTANT, Circuit, Gate, LineState, ROLE_OUTPUT, cnot, detect_peres,
    fredkin, gate_cost, line_functions, not_gate, quantum_cost, simulate,
    toffoli, verify_equivalence,
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
    c = _random_circuit(rng, 4, 15)
    funcs = line_functions(c, 4)
    for x in range(16):
        end = simulate(c, x)
        for lid in range(4):
            assert (funcs[lid] >> x) & 1 == (end >> lid) & 1


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
    verdict = verify_equivalence(c, spec)
    assert verdict
    assert verdict.restored_constants == (1,)
    rep = quantum_cost(c)
    assert rep.ancilla_count == 0  # roles come from the line metadata

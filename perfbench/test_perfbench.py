"""Tests of the benchmark's own checker, tracer and compare mode.

Run with:  python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import sys
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import esopsyn  # noqa: E402
from esopsyn.circuit import (  # noqa: E402
    CONSTANT, Circuit, LineState, ROLE_ANCILLA, ROLE_OUTPUT, cnot, not_gate,
    quantum_cost, toffoli,
)

import check  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402


def _and_circuit():
    """y1 = x1 & x2 on a constant line w, plus a restored ancilla a."""
    lines = [LineState(0, "x1"), LineState(1, "x2"),
             LineState(2, "w", CONSTANT, 0, ROLE_OUTPUT, "y1"),
             LineState(3, "a", CONSTANT, 0, ROLE_ANCILLA)]
    circuit = Circuit(4, [toffoli([0, 1], 2), cnot(0, 3), cnot(0, 3)], lines)
    table = esopsyn.TruthTable(2, 1, (0, 0, 0, 1))
    return circuit, table


def test_synthesized_circuits_pass():
    spec = esopsyn.Permutation((3, 0, 6, 5, 1, 7, 2, 4))
    table = esopsyn.truth_table_from_permutation(spec)
    circuit, report = esopsyn.synthesize(spec)
    assert check.check_circuit(circuit, report, table) == []
    circuit, report = esopsyn.ancilla_free_synthesize(spec)
    assert check.check_circuit(circuit, report, table, ancilla_free=True) == []


def test_every_single_flipped_gate_fails():
    spec = esopsyn.Permutation((3, 0, 6, 5, 1, 7, 2, 4))
    table = esopsyn.truth_table_from_permutation(spec)
    circuit, report = esopsyn.synthesize(spec)
    for i, gate in enumerate(circuit.gates):
        # flip: a NOT on the gate's target replaces the gate (a NOT becomes
        # a CNOT from another line), so exactly one gate differs
        other = next(l.line_id for l in circuit.lines if l.line_id != gate.targets[0])
        flipped = cnot(other, gate.targets[0]) if not gate.controls \
            else not_gate(gate.targets[0])
        gates = circuit.gates[:i] + [flipped] + circuit.gates[i + 1:]
        broken = Circuit(circuit.n_lines, gates, circuit.lines)
        assert check.check_circuit(broken, report, table), f"gate {i} flip not caught"


def test_report_disagreeing_with_simulation_fails():
    circuit, table = _and_circuit()
    report = quantum_cost(circuit)
    assert check.check_circuit(circuit, report, table) == []
    assert check.check_circuit(circuit, replace(report, garbage_count=1), table)


def test_dirtied_ancilla_is_counted_as_garbage():
    circuit, table = _and_circuit()
    circuit.gates.pop()              # the ancilla now ends holding x1
    report = quantum_cost(circuit)   # still counts it from its stale role
    problems = check.check_circuit(circuit, report, table)
    assert any("garbage" in p for p in problems)


def test_missing_hook_is_named_not_zeroed():
    hooks = tracer.HOOKS + (tracer.Hook("optimize.factor",
                                        ("esopsyn.mapper:no_such_function",)),)
    tr = tracer.Tracer(hooks)
    tr.install()
    try:
        esopsyn.synthesize(esopsyn.Permutation((1, 0, 3, 2)))
    finally:
        tr.uninstall()
    values, absent = tr.layer_metrics()
    assert "optimize.factor.self_s" in absent
    assert "optimize.factor.self_s" not in values
    assert values["mapper.find_target.calls"] > 0
    assert esopsyn.mapper.find_target.__name__ == "find_target"
    assert not hasattr(esopsyn.mapper.find_target, "__wrapped__")


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.spans = [("outer", 0.0, 10.0, -1, 0), ("inner", 2.0, 5.0, 0, 0),
                ("inner", 6.0, 7.0, 0, 0)]
    agg = tr.aggregate()
    assert agg.self_s["outer"] == 6.0
    assert agg.self_s["inner"] == 4.0
    assert agg.counts["inner"] == 2


def _result(totals, digest, op_digests):
    rec = {"seed": 1, "metrics": {}, "totals": totals, "nonconverged": 0,
           "digest": digest, "sweep_csv_sha256": None, "op_digests": op_digests}
    return {"workloads": {"sbox": rec}}


def test_compare_flags_quality_and_digest_changes(tmp_path, capsys):
    old = tmp_path / "old.json"
    new = tmp_path / "new.json"
    base = {"qc": 10, "gates": 5, "garbage": 1}
    old.write_text(json.dumps(_result(base, "d1", {"a": "1", "b": "2"})))
    new.write_text(json.dumps(_result(base, "d1", {"a": "1", "b": "2"})))
    assert run.compare(str(old), str(new)) == 0
    new.write_text(json.dumps(_result(dict(base, qc=11), "d2", {"a": "1", "b": "3"})))
    assert run.compare(str(old), str(new)) == 1
    out = capsys.readouterr().out
    assert "qc_total 10 -> 11" in out
    assert "1 operations differ: b" in out

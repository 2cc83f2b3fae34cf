"""Independent output check for the circuits the benchmark receives.

The benchmark does not trust the program's own simulator
(`line_functions`, `verify_equivalence`): it simulates every returned
gate list itself, bit-parallel over all 2^n input rows, compares each
declared output line with the spec column, and re-derives the garbage and
ancilla counts from the simulated line functions.
"""

from __future__ import annotations

from functools import lru_cache

from esopsyn.circuit import CONSTANT, FREDKIN, INPUT, ROLE_OUTPUT, TOFFOLI


@lru_cache(maxsize=None)
def _variable(k: int, n: int) -> int:
    """Bit x set iff variable k (bit k of row index x) is 1."""
    return sum(1 << x for x in range(1 << n) if x >> k & 1)


def _column(rows, j: int) -> int:
    return sum(1 << x for x, row in enumerate(rows) if row >> j & 1)


def simulate_lines(circuit, n: int) -> list[int]:
    """Final function of every line as a 2^n-bit integer.

    The k-th primary-input line (in line order) carries variable k;
    constant lines start at their init value.
    """
    full = (1 << (1 << n)) - 1
    values = [0] * circuit.n_lines
    inputs = [l.line_id for l in circuit.lines if l.origin == INPUT]
    if len(inputs) != n:
        raise ValueError(f"{len(inputs)} input lines for a {n}-input spec")
    for k, lid in enumerate(inputs):
        values[lid] = _variable(k, n)
    for l in circuit.lines:
        if l.origin == CONSTANT and l.init:
            values[l.line_id] = full
    for g in circuit.gates:
        ctl = full
        for c in g.controls:
            ctl &= values[c]
        if g.family == TOFFOLI:
            values[g.targets[0]] ^= ctl
        elif g.family == FREDKIN:
            a, b = g.targets
            swap = (values[a] ^ values[b]) & ctl
            values[a] ^= swap
            values[b] ^= swap
        else:
            raise ValueError(f"unknown gate family {g.family!r}")
    return values


def check_circuit(circuit, report, table, ancilla_free: bool = False) -> list[str]:
    """Every way the circuit or its cost report disagrees with the spec.

    An empty list means the circuit computes `table` on its declared
    output lines and the report's garbage, ancilla, gate and line counts
    match what simulation shows.
    """
    n = table.n_inputs
    try:
        values = simulate_lines(circuit, n)
    except (ValueError, IndexError) as e:
        return [f"simulation failed: {e}"]
    problems = []
    declared: dict[str, list[int]] = {}
    for l in circuit.lines:
        if l.role == ROLE_OUTPUT:
            declared.setdefault(l.output_name, []).append(l.line_id)
    for j, name in enumerate(table.output_names):
        lines = declared.pop(name, [])
        if len(lines) != 1:
            problems.append(f"output {name} declared on {len(lines)} lines")
        elif values[lines[0]] != _column(table.rows, j):
            problems.append(f"output {name} on line {lines[0]} differs from the spec")
    if declared:
        problems.append(f"outputs not in the spec: {sorted(map(str, declared))}")

    full = (1 << (1 << n)) - 1
    garbage = ancilla = 0
    for l in circuit.lines:
        if l.role == ROLE_OUTPUT:
            continue
        restored = l.origin == CONSTANT and values[l.line_id] == (full if l.init else 0)
        ancilla += restored
        garbage += not restored
    derived = {"garbage": garbage, "ancilla": ancilla,
               "gates": len(circuit.gates), "lines": circuit.n_lines}
    reported = {"garbage": report.garbage_count, "ancilla": report.ancilla_count,
                "gates": report.gate_count, "lines": report.line_count}
    for key, value in derived.items():
        if reported[key] != value:
            problems.append(f"report says {key}={reported[key]}, simulation {value}")
    if ancilla_free and (circuit.n_lines != n or garbage):
        problems.append(f"ancilla-free circuit has {circuit.n_lines} lines "
                        f"and {garbage} garbage for {n} inputs")
    return problems

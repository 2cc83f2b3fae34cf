"""Reversible circuit model: gates, simulation, equivalence, quantum cost.

Quantum cost follows the usual library prices: every 1- or 2-qubit gate
costs 1, a Toffoli with n controls costs 2n^2 - 2n + 1, a Fredkin with
n-1 controls costs 2n^2 - 2n + 3, and an adjacent Toffoli_3/CNOT pair on
matching lines is priced as one Peres unit of cost 4.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .funcs import TruthTable, variable_patterns

TOFFOLI = "t"
FREDKIN = "f"


class VerificationError(Exception):
    """An emitted circuit disagreed with its specification."""

INPUT = "primary_input"
CONSTANT = "constant_init"

ROLE_OUTPUT = "output"
ROLE_GARBAGE = "garbage"
ROLE_ANCILLA = "ancilla_restored"


@dataclass(frozen=True, slots=True, init=False)
class Gate:
    """A Toffoli-family or Fredkin-family gate.

    controls is a sorted tuple of line ids; targets has one entry for the
    Toffoli family (NOT/CNOT/Toffoli_k) and two for Fredkin (the swapped
    pair).  A valid Toffoli-family gate passes one membership test (its
    target is not a control), after a set over its controls when it has
    two or more; any other gate is checked by one set over all its lines,
    and the message is worked out only for an invalid one.  The fields
    are written through the slot descriptors, which skips the frozen
    class's setattr.
    """

    family: str
    controls: tuple[int, ...]
    targets: tuple[int, ...]

    def __init__(self, family: str, controls, targets):
        controls, targets = tuple(controls), tuple(targets)
        if len(controls) > 1:
            controls = tuple(sorted(controls))
        if family != TOFFOLI or len(targets) != 1 or targets[0] in controls \
                or len(controls) > 1 and len(set(controls)) < len(controls):
            want = 1 if family == TOFFOLI else 2 if family == FREDKIN else None
            if len(targets) != want or len(set(controls + targets)) \
                    != len(controls) + len(targets):
                raise ValueError(
                    f"unknown gate family {family!r}" if want is None
                    else f"{family}-family gate needs {want} target(s)"
                    if len(targets) != want
                    else "duplicate control lines"
                    if len(set(controls)) != len(controls)
                    else "duplicate target lines"
                    if len(set(targets)) != len(targets)
                    else "target appears in control set")
        _set_family(self, family)
        _set_controls(self, controls)
        _set_targets(self, targets)

    @property
    def width(self) -> int:
        """Number of lines the gate touches (the k in Tof_k / Fred_k)."""
        return len(self.controls) + len(self.targets)

    def __str__(self) -> str:
        lines = ",".join(str(c) for c in self.controls + self.targets)
        return f"{self.family}{self.width} {lines}"


_set_family, _set_controls, _set_targets = (
    Gate.family.__set__, Gate.controls.__set__, Gate.targets.__set__)


def not_gate(target: int) -> Gate:
    return Gate(TOFFOLI, (), (target,))


def cnot(control: int, target: int) -> Gate:
    return Gate(TOFFOLI, (control,), (target,))


def toffoli(controls, target: int) -> Gate:
    return Gate(TOFFOLI, tuple(controls), (target,))


def fredkin(controls, target_a: int, target_b: int) -> Gate:
    return Gate(FREDKIN, tuple(controls), (target_a, target_b))


def gate_cost(g: Gate) -> int:
    """Quantum cost of a single gate, ignoring Peres pairing."""
    if g.family == TOFFOLI:
        n = len(g.controls)
        if n <= 1:
            return 1
        return 2 * n * n - 2 * n + 1
    n = len(g.controls) + 1
    return 2 * n * n - 2 * n + 3


PERES_COST = 4


@dataclass
class LineState:
    """Metadata for one circuit line."""

    line_id: int
    name: str | None           # None on a fresh line until it is named
    origin: str = INPUT
    init: int = 0              # initial value for constant lines
    role: str = ROLE_GARBAGE
    output_name: str | None = None


@dataclass
class Circuit:
    n_lines: int
    gates: list[Gate] = field(default_factory=list)
    lines: list[LineState] = field(default_factory=list)

    def __post_init__(self):
        if not self.lines:
            self.lines = [LineState(i, f"x{i + 1}") for i in range(self.n_lines)]
        if len(self.lines) != self.n_lines:
            raise ValueError("line metadata length mismatch")
        for g in self.gates:
            self._check_gate(g)

    def _check_gate(self, g: Gate):
        for lid in g.controls + g.targets:
            if not 0 <= lid < self.n_lines:
                raise ValueError(f"gate {g} references unknown line {lid}")

    def append(self, g: Gate):
        self._check_gate(g)
        self.gates.append(g)

    def input_lines(self) -> list[LineState]:
        return [l for l in self.lines if l.origin == INPUT]

    def output_map(self) -> dict[str, int]:
        return {l.output_name: l.line_id for l in self.lines
                if l.role == ROLE_OUTPUT and l.output_name is not None}


def simulate(c: Circuit, bits: int) -> int:
    """Apply the gate list to an n_lines-wide bit vector (line i = bit i).

    Constant lines are expected to be pre-filled by the caller.
    """
    if bits < 0 or bits >> c.n_lines:
        raise ValueError(f"input wider than {c.n_lines} lines")
    for g in c.gates:
        ctrl = 0
        for lid in g.controls:
            ctrl |= 1 << lid
        if bits & ctrl == ctrl:
            if g.family == TOFFOLI:
                bits ^= 1 << g.targets[0]
            else:
                a, b = g.targets
                va = bits >> a & 1
                vb = bits >> b & 1
                if va != vb:
                    bits ^= (1 << a) | (1 << b)
    return bits


def line_functions(c: Circuit, resume: tuple[list[int], int] | None = None
                   ) -> list[int]:
    """Function carried by every line, as 2^n-bit integers over the n
    variables of the circuit's `INPUT` lines (the first of them is x1).

    Symbolic bit-parallel simulation: one big-int op per gate line instead
    of a loop over assignments.  `resume=(words, k)` picks a simulation up
    where it stopped: `words` are the words of the first lines, the input
    lines among them, after the gates before k; every line appended since
    starts at its constant value, and only the gates from k on are
    simulated.  `words` is left as it was.
    """
    inputs = c.input_lines()
    full = (1 << (1 << len(inputs))) - 1
    words, start = resume if resume is not None else ((), 0)
    funcs = list(words)
    for line in c.lines[len(funcs):]:
        funcs.append(full if line.origin == CONSTANT and line.init else 0)
    if resume is None:
        for line, pattern in zip(inputs, variable_patterns(len(inputs))):
            funcs[line.line_id] = pattern
    for g in c.gates[start:]:
        controls = g.controls
        ctl = funcs[controls[0]] if controls else full
        for cid in controls[1:]:
            ctl &= funcs[cid]
        if g.family == TOFFOLI:
            funcs[g.targets[0]] ^= ctl
        else:
            a, b = g.targets
            diff = (funcs[a] ^ funcs[b]) & ctl
            funcs[a] ^= diff
            funcs[b] ^= diff
    return funcs


def restored_constants(c: Circuit, funcs: list[int]) -> tuple[int, ...]:
    """Constant lines whose final function (as from `line_functions`) is
    their init value."""
    full = (1 << (1 << len(c.input_lines()))) - 1
    return tuple(l.line_id for l in c.lines if l.origin == CONSTANT
                 and funcs[l.line_id] == (full if l.init else 0))


def assign_spare_roles(c: Circuit, funcs: list[int]):
    """Role of every line that carries no output, from the final functions
    (as from `line_functions`): a constant line back at its init value is
    an ancilla, and any other line is garbage."""
    restored = set(restored_constants(c, funcs))
    for l in c.lines:
        if l.role != ROLE_OUTPUT:
            l.role = ROLE_ANCILLA if l.line_id in restored else ROLE_GARBAGE


def detect_peres(c: Circuit) -> list[tuple[int, int]]:
    """Greedy left-to-right scan for adjacent Toffoli_3 / CNOT pairs whose
    CNOT acts entirely inside the Toffoli's control set (either order).
    Each gate joins at most one pair."""
    pairs = []
    i = 0
    while i < len(c.gates) - 1:
        a, b = c.gates[i], c.gates[i + 1]
        # a pair has one two-control and one one-control gate
        if len(a.controls) + len(b.controls) == 3 \
                and (_peres_match(a, b) or _peres_match(b, a)):
            pairs.append((i, i + 1))
            i += 2
        else:
            i += 1
    return pairs


def _peres_match(tof: Gate, cn: Gate) -> bool:
    return (
        tof.family == TOFFOLI and len(tof.controls) == 2
        and cn.family == TOFFOLI and len(cn.controls) == 1
        and {cn.controls[0], cn.targets[0]} == set(tof.controls)
    )


@dataclass(frozen=True)
class CostReport:
    quantum_cost: int
    gate_count: int
    line_count: int
    garbage_count: int
    ancilla_count: int
    peres_pairs: int
    runtime: float = 0.0


def quantum_cost(c: Circuit, runtime: float = 0.0) -> CostReport:
    """Cost report for a circuit.

    gate_count is the raw gate-list length; Peres pairs are reported
    separately and only collapse the quantum cost (an n-line benchmark
    reported as QC 6 / 4 gates contains a paired Toffoli/CNOT plus two
    more unit gates).  Every gate is priced by `gate_cost`; each pair then
    trades its two gates' prices for `PERES_COST`.
    """
    gates = c.gates
    pairs = detect_peres(c)
    qc = sum(map(gate_cost, gates))
    for i, j in pairs:
        qc += PERES_COST - gate_cost(gates[i]) - gate_cost(gates[j])
    garbage = sum(1 for l in c.lines if l.role == ROLE_GARBAGE)
    ancilla = sum(1 for l in c.lines if l.role == ROLE_ANCILLA)
    return CostReport(qc, len(c.gates), c.n_lines, garbage, ancilla,
                      len(pairs), runtime)


@dataclass(frozen=True)
class Verdict:
    equivalent: bool
    counterexample: tuple[int, int, int] | None = None  # (input, expected, got)
    dirty_ancillae: tuple[int, ...] = ()  # declared ancillae left unrestored

    def __bool__(self) -> bool:
        return self.equivalent


def verify_equivalence(c: Circuit, spec: TruthTable,
                       words: list[int] | None = None) -> Verdict:
    """Check the circuit against a truth table on its declared output lines,
    and check that every declared ancilla line ends at its init value.

    Always exhaustive: one bit-parallel simulation (`line_functions`) gives
    every line's function over all 2^n inputs.  A caller that has just
    simulated the whole circuit passes that result as `words` instead, and
    it is read as the simulation's.  A counterexample is the lowest
    mismatching input, with the outputs the circuit gives there.
    """
    n = spec.n_inputs
    k = len(c.input_lines())
    if k != n:
        raise ValueError(f"circuit has {k} input lines, spec has {n}")
    out_lines: dict[str, int] = c.output_map()
    missing = [name for name in spec.output_names if name not in out_lines]
    if missing:
        raise ValueError(f"circuit lacks output lines for {missing}")
    funcs = line_functions(c) if words is None else words
    outs = [funcs[out_lines[name]] for name in spec.output_names]
    mismatch = 0
    for f, col in zip(outs, spec.columns):
        mismatch |= f ^ col
    restored = restored_constants(c, funcs)
    dirty = tuple(l.line_id for l in c.lines
                  if l.role == ROLE_ANCILLA and l.line_id not in restored)
    if mismatch == 0:
        return Verdict(not dirty, None, dirty)
    x = (mismatch & -mismatch).bit_length() - 1
    got = sum((f >> x & 1) << j for j, f in enumerate(outs))
    return Verdict(False, (x, spec.rows[x], got), dirty)

"""File formats: function specs in, circuits and CSV reports out.

Three spec formats are accepted:

  * PLA-style truth tables: ``.i N`` / ``.o M`` headers (N, M >= 1,
    2^N * M at most ``MAX_TABLE_BITS``; optional ``.ilb`` / ``.ob`` name
    lists of exactly N and M names, none holding ``,`` or ``:``), then
    ``<inbits> <outbits>`` rows.  ``-`` in the inputs expands to both
    values; ``-`` in an output resolves to 0 (logged).  Rows never listed
    default to all-zero outputs.  Under ``.type esop`` the rows are the
    cubes of an exclusive sum of products and the outputs of all rows
    covering an input xor; under ``f``, ``fd`` or ``fr`` (or no ``.type``)
    rows covering one input must agree.
  * permutations: a single line ``perm v0 v1 ...``.
  * cube lists: one output per line, products joined by ``^``
    (e.g. ``1 ^ x1 ^ x1x2``), 2^N * M at most ``MAX_TABLE_BITS`` for N
    the highest variable index and M the line count.

Circuits use a Toffoli-cascade text format: ``t<k> c1,...,target`` with
``t1``/``t2`` as NOT/CNOT and ``f<k>`` for controlled swaps, preceded by
``.v/.i/.o/.c/.g`` line declarations.  The constant-init and garbage
annotations are an extension other cascade readers can ignore.
"""

from __future__ import annotations

import csv
import logging
import re
from io import StringIO

from .circuit import (
    CONSTANT, Circuit, CostReport, Gate, INPUT, LineState, ROLE_ANCILLA,
    ROLE_GARBAGE, ROLE_OUTPUT,
)
from .funcs import EsopExpression, Permutation, TruthTable, mobius_bits
from .mapper import DEFAULT_INPUT_LIMIT

log = logging.getLogger("esopsyn")

# 2^n rows times m outputs: 16 outputs over the 16-input limit
MAX_TABLE_BITS = 1 << 20


class SpecFormatError(ValueError):
    pass


def _check_inputs(n: int, origin: str) -> int:
    """Reject a spec wider than the synthesizer accepts before anything of
    size 2^n is built."""
    if n > DEFAULT_INPUT_LIMIT:
        raise SpecFormatError(
            f"{origin}: {n} inputs exceeds the limit {DEFAULT_INPUT_LIMIT}")
    return n


def _check_table(n: int, m: int, origin: str):
    """Reject a table of 2^n rows by m outputs over ``MAX_TABLE_BITS``
    before anything of its size is built."""
    if m << n > MAX_TABLE_BITS:
        raise SpecFormatError(
            f"{origin}: a table of 2^{n} rows by {m} outputs ({m << n} bits) "
            f"exceeds the limit of {MAX_TABLE_BITS} bits")


def _read_text(path: str) -> str:
    """A file's text; bytes the locale cannot decode are a format error."""
    with open(path) as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise SpecFormatError(f"{path}: {e}") from None


def parse_spec(path: str) -> TruthTable | Permutation:
    return parse_spec_text(_read_text(path), origin=path)


def parse_spec_text(text: str, *,
                    origin: str = "<string>") -> TruthTable | Permutation:
    """A spec whose format is read from its first line, blank lines and
    `#` comments skipped: a permutation when it starts with `perm`, a PLA
    when with a `.` directive, else a cube list."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise SpecFormatError(f"{origin}: empty specification")
    head = lines[0].split()[0]
    if head == "perm":
        return _parse_perm(lines, origin)
    if head.startswith("."):
        return _parse_pla(lines, origin)
    return _parse_cubes(lines, origin)


def _parse_perm(lines, origin) -> Permutation:
    if len(lines) > 1:
        raise SpecFormatError(
            f"{origin}: a permutation is one 'perm' line, got {len(lines)}")
    tokens = lines[0].split()[1:]
    _check_inputs((len(tokens) - 1).bit_length(), origin)
    try:
        images = tuple(int(t) for t in tokens)
    except ValueError as e:
        raise SpecFormatError(f"{origin}: bad permutation entry: {e}") from None
    try:
        return Permutation(images)
    except ValueError as e:
        raise SpecFormatError(f"{origin}: {e}") from None


PLA_TYPES = ("f", "fd", "fr", "esop")


def _parse_pla(lines, origin) -> TruthTable:
    n = m = None
    input_names: tuple = ()
    output_names: tuple = ()
    pla_type = None
    rows: list[tuple[str, int]] = []   # (input pattern, output bits)
    for ln in lines:
        parts = ln.split()
        key = parts[0]
        if key == ".i":
            n = _check_inputs(_header_count(parts, origin), origin)
        elif key == ".o":
            m = _header_count(parts, origin)
        elif key == ".ilb":
            input_names = tuple(parts[1:])
        elif key == ".ob":
            output_names = tuple(parts[1:])
        elif key == ".type":
            if len(parts) != 2 or parts[1] not in PLA_TYPES:
                raise SpecFormatError(
                    f"{origin}: unsupported .type {' '.join(parts[1:])!r}; "
                    f"expected one of {', '.join(PLA_TYPES)}")
            pla_type = parts[1]
        elif key == ".p":
            continue
        elif key == ".e":
            break
        elif key.startswith("."):
            raise SpecFormatError(f"{origin}: unsupported directive {key}")
        else:
            if n is None or m is None:
                raise SpecFormatError(f"{origin}: row before .i/.o headers")
            if len(parts) != 2:
                raise SpecFormatError(f"{origin}: malformed row {ln!r}")
            inbits, outbits = parts
            if len(inbits) != n:
                raise SpecFormatError(
                    f"{origin}: input {inbits!r} is not {n} characters")
            if len(outbits) != m:
                raise SpecFormatError(
                    f"{origin}: output {outbits!r} is not {m} characters")
            value = 0
            for j, ch in enumerate(outbits):
                if ch == "1":
                    value |= 1 << j
                elif ch == "-":
                    log.info("%s: output don't-care in row %r resolved to 0",
                             origin, ln)
                elif ch != "0":
                    raise SpecFormatError(f"{origin}: bad output bit {ch!r}")
            rows.append((inbits, value))
    if n is None or m is None:
        raise SpecFormatError(f"{origin}: missing .i/.o header")
    _check_table(n, m, origin)
    # an ESOP's rows are cubes whose outputs xor; under f and fd a 0 output
    # bit only leaves the input out of that output's ON-set, so the outputs
    # of the rows covering one input are ORed; under fr or no .type those
    # rows must agree
    assigned: dict[int, int] = {}
    for inbits, value in rows:
        for idx in _expand_input(inbits, origin):
            if pla_type == "esop":
                assigned[idx] = assigned.get(idx, 0) ^ value
            elif pla_type in ("f", "fd"):
                assigned[idx] = assigned.get(idx, 0) | value
            elif assigned.setdefault(idx, value) != value:
                raise SpecFormatError(
                    f"{origin}: conflicting rows for input {idx}")
    try:    # TruthTable holds the name rules: count, repeats, characters
        return TruthTable(n, m, tuple(assigned.get(i, 0) for i in range(1 << n)),
                          input_names, output_names)
    except ValueError as e:
        raise SpecFormatError(f"{origin}: {e}") from None


def _refuse_repeats(names, origin: str, message: str):
    """Fail on the first name that occurs twice; `message` is formatted
    with it."""
    seen = set()
    for name in names:
        if name in seen:
            raise SpecFormatError(f"{origin}: {message.format(name)}")
        seen.add(name)


def _header_count(parts: list[str], origin: str) -> int:
    """The count a ``.i``/``.o`` header carries as its first value."""
    if len(parts) < 2 or not parts[1].isdecimal():
        raise SpecFormatError(
            f"{origin}: {parts[0]} needs a non-negative integer, "
            f"got {' '.join(parts[1:])!r}")
    count = int(parts[1])
    if count == 0:
        raise SpecFormatError(f"{origin}: {parts[0]} must be at least 1")
    return count


def _expand_input(bits: str, origin: str):
    """Leftmost character is x1 (the low index bit)."""
    free = [i for i, ch in enumerate(bits) if ch == "-"]
    base = 0
    for i, ch in enumerate(bits):
        if ch == "1":
            base |= 1 << i
        elif ch not in "0-":
            raise SpecFormatError(f"{origin}: bad input bit {ch!r}")
    for pick in range(1 << len(free)):
        idx = base
        for k, pos in enumerate(free):
            if pick >> k & 1:
                idx |= 1 << pos
        yield idx


_CUBE_TOKEN = re.compile(r"x(\d+)")


def _parse_cubes(lines, origin) -> TruthTable:
    per_output: list[list[int]] = []
    n_vars = 1
    for ln in lines:
        masks = []
        for term in ln.split("^"):
            term = term.strip()
            if not term:
                raise SpecFormatError(f"{origin}: empty product in {ln!r}")
            if term == "0":
                continue
            if term == "1":
                masks.append(0)
                continue
            idxs = _CUBE_TOKEN.findall(term)
            if "".join(f"x{i}" for i in idxs) != term:
                raise SpecFormatError(f"{origin}: bad product {term!r}")
            mask = 0
            for i in idxs:
                v = int(i)
                if v < 1:
                    raise SpecFormatError(f"{origin}: variables start at x1")
                _check_inputs(v, origin)
                mask |= 1 << (v - 1)
                n_vars = max(n_vars, v)
            masks.append(mask)
        per_output.append(masks)
    _check_table(n_vars, len(per_output), origin)
    return TruthTable.from_columns(n_vars, [
        mobius_bits(EsopExpression.from_masks(n_vars, masks).coeffs, n_vars)
        for masks in per_output])


# -- circuit format -----------------------------------------------------------


def format_circuit(c: Circuit, report: CostReport | None = None) -> str:
    out = StringIO()
    if report is not None:
        out.write(f"# qc={report.quantum_cost} gates={report.gate_count} "
                  f"lines={report.line_count} garbage={report.garbage_count} "
                  f"ancilla={report.ancilla_count} "
                  f"peres_pairs={report.peres_pairs}\n")
    name_of = {l.line_id: l.name for l in c.lines}
    out.write(".v " + ",".join(l.name for l in c.lines) + "\n")
    inputs = [l.name for l in c.lines if l.origin == INPUT]
    if inputs:
        out.write(".i " + ",".join(inputs) + "\n")
    outputs = [f"{l.output_name}:{l.name}" for l in c.lines
               if l.role == ROLE_OUTPUT and l.output_name]
    if outputs:
        out.write(".o " + ",".join(outputs) + "\n")
    consts = [f"{l.name}={l.init}" for l in c.lines if l.origin == CONSTANT]
    if consts:
        out.write(".c " + ",".join(consts) + "\n")
    garbage = [l.name for l in c.lines if l.role == ROLE_GARBAGE]
    if garbage:
        out.write(".g " + ",".join(garbage) + "\n")
    for g in c.gates:
        names = [name_of[i] for i in g.controls + g.targets]
        out.write(f"{g.family}{g.width} " + ",".join(names) + "\n")
    return out.getvalue()


def write_circuit(c: Circuit, path: str, report: CostReport | None = None):
    with open(path, "w") as fh:
        fh.write(format_circuit(c, report))


def read_circuit(path: str) -> Circuit:
    return parse_circuit_text(_read_text(path), origin=path)


def parse_circuit_text(text: str, origin: str = "<string>") -> Circuit:
    """Parse `format_circuit` text.  A repeated directive adds to the
    earlier ones, so a long list may span lines.  Every `.i/.o/.c/.g`
    entry must name a `.v` line; a `.i` list must be exactly the lines not
    declared constant.  Each directive names a line at most once, and `.o`
    gives each output name once."""
    names: list[str] = []
    inputs: list[str] | None = None
    outputs: dict[str, str] = {}
    consts: dict[str, int] = {}
    garbage: list[str] = []
    gate_rows: list[tuple[str, str, list[str]]] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln or ln.startswith("#"):
            continue
        parts = ln.split(None, 1)
        key = parts[0]
        rest = parts[1] if len(parts) > 1 else ""
        if key == ".v":
            names += [t.strip() for t in rest.split(",") if t.strip()]
        elif key == ".i":
            inputs = (inputs or []) + [t.strip() for t in rest.split(",")
                                       if t.strip()]
        elif key == ".o":
            for tok in filter(None, map(str.strip, rest.split(","))):
                oname, _, lname = tok.partition(":")
                if (lname or oname) in outputs:
                    raise SpecFormatError(
                        f"{origin}: .o names line {lname or oname!r} twice")
                outputs[lname or oname] = oname
        elif key == ".c":
            for tok in filter(None, map(str.strip, rest.split(","))):
                lname, _, init = tok.partition("=")
                if lname in consts:
                    raise SpecFormatError(
                        f"{origin}: .c names line {lname!r} twice")
                if init not in ("", "0", "1"):
                    raise SpecFormatError(
                        f"{origin}: constant {lname} starts at {init!r}, "
                        f"not 0 or 1")
                consts[lname] = int(init or 0)
        elif key == ".g":
            garbage += [t.strip() for t in rest.split(",") if t.strip()]
        elif key[0] in "tf" and key[1:].isdigit():
            width = int(key[1:])
            operands = [t.strip() for t in rest.split(",") if t.strip()]
            if len(operands) != width:
                raise SpecFormatError(
                    f"{origin}: gate {ln!r} names {len(operands)} lines, "
                    f"width says {width}")
            gate_rows.append((ln, key[0], operands))
        else:
            raise SpecFormatError(f"{origin}: unrecognized line {ln!r}")
    _refuse_repeats(names, origin, ".v declares line {!r} twice")
    _refuse_repeats(outputs.values(), origin, ".o gives output {!r} to two lines")
    _refuse_repeats(garbage, origin, ".g names line {!r} twice")
    if not names:
        raise SpecFormatError(f"{origin}: missing .v line declaration")
    declared = set(names)
    for kind, entries in ((".i", inputs or ()), (".o", outputs),
                          (".c", consts), (".g", garbage)):
        undeclared = sorted(set(entries) - declared)
        if undeclared:
            raise SpecFormatError(
                f"{origin}: {kind} names undeclared line {undeclared[0]!r}")
    if inputs is not None:
        if set(inputs) != declared - consts.keys():
            raise SpecFormatError(
                f"{origin}: .i lists {sorted(set(inputs))}, but the lines not "
                f"declared constant are {sorted(declared - consts.keys())}")
        _refuse_repeats(inputs, origin, ".i lists line {!r} twice")
    _check_inputs(sum(nm not in consts for nm in names), origin)
    index = {nm: i for i, nm in enumerate(names)}
    ancillae = consts.keys() - garbage   # a constant named in .g is garbage
    lines = []
    for i, nm in enumerate(names):
        origin_kind = CONSTANT if nm in consts else INPUT
        role = ROLE_GARBAGE
        output_name = None
        if nm in outputs:
            role, output_name = ROLE_OUTPUT, outputs[nm]
        elif nm in ancillae:
            role = ROLE_ANCILLA
        lines.append(LineState(i, nm, origin_kind, consts.get(nm, 0),
                               role, output_name))
    circuit = Circuit(len(names), [], lines)
    for ln, family, operands in gate_rows:
        try:
            ids = [index[nm] for nm in operands]
        except KeyError as e:
            raise SpecFormatError(f"{origin}: gate uses undeclared line {e}")
        n_targets = 1 if family == "t" else 2
        try:
            gate = Gate(family, ids[:-n_targets], ids[-n_targets:])
        except ValueError as e:
            raise SpecFormatError(f"{origin}: gate {ln!r}: {e}") from None
        circuit.append(gate)
    return circuit


# -- CSV reports ---------------------------------------------------------------

REPORT_COLUMNS = [
    "function", "mode", "n_inputs", "n_outputs",
    "T", "C", "K", "P", "seed",
    "qc", "gates", "lines", "garbage", "ancilla", "peres_pairs", "runtime_s",
]


def report_row(function: str, mode: str, n_inputs: int, n_outputs: int,
               params, report: CostReport,
               with_runtime: bool = True) -> dict:
    row = {
        "function": function,
        "mode": mode,
        "n_inputs": n_inputs,
        "n_outputs": n_outputs,
        "T": params.max_and_arity,
        "C": int(params.cube_sharing),
        "K": params.kernel_threshold,
        "P": int(params.parent_reduction),
        "seed": 0,  # kept so report files keep their columns
        "qc": report.quantum_cost,
        "gates": report.gate_count,
        "lines": report.line_count,
        "garbage": report.garbage_count,
        "ancilla": report.ancilla_count,
        "peres_pairs": report.peres_pairs,
        # sweeps drop the runtime column so reruns are byte-identical
        "runtime_s": round(report.runtime, 3) if with_runtime else "",
    }
    return row


def write_report(path: str, rows: list[dict]):
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=REPORT_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow(row)

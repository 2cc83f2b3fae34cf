import logging
import random
import re
import time

import pytest

from esopsyn.circuit import (
    CONSTANT, Circuit, INPUT, LineState, ROLE_GARBAGE, ROLE_OUTPUT, cnot,
    fredkin, not_gate, quantum_cost, toffoli,
)
from esopsyn.cli import run_cli
from esopsyn.funcs import Permutation, TruthTable
from esopsyn.io import (
    SpecFormatError, format_circuit, parse_circuit_text, parse_spec_text,
    report_row, write_report, REPORT_COLUMNS,
)
from esopsyn.mapper import synthesize
from esopsyn.optimize import OptimizeParams


def test_parse_inverter_table():
    tt = parse_spec_text(".i 1\n.o 1\n0 1\n1 0\n")
    assert isinstance(tt, TruthTable)
    assert tt.rows == (1, 0)


def test_parse_permutation_line():
    p = parse_spec_text("perm 0 2 3 5 7 1 4 6\n")
    assert isinstance(p, Permutation)
    assert p.images == (0, 2, 3, 5, 7, 1, 4, 6)


def test_parse_cube_list():
    tt = parse_spec_text("1 ^ x1 ^ x2 ^ x1x2 ^ x3 ^ x2x3 ^ x4 ^ x1x4 ^ x3x4\n")
    ones = {i for i in range(16) if tt.rows[i]}
    assert ones == {0, 5, 10, 15}


def test_input_dont_cares_expand():
    tt = parse_spec_text(".i 3\n.o 1\n0-- 1\n")
    assert [tt.rows[i] for i in range(8)] == [1, 0, 1, 0, 1, 0, 1, 0]


def test_output_dont_cares_resolve_to_zero(caplog):
    with caplog.at_level(logging.INFO, logger="esopsyn"):
        tt = parse_spec_text(".i 1\n.o 2\n0 1-\n1 01\n")
    assert tt.rows == (1, 2)
    assert any("resolved to 0" in r.message for r in caplog.records)


def test_unlisted_rows_default_to_zero():
    tt = parse_spec_text(".i 2\n.o 1\n11 1\n")
    assert tt.rows == (0, 0, 0, 1)


def test_conflicting_rows_are_rejected():
    with pytest.raises(SpecFormatError):
        parse_spec_text(".i 1\n.o 1\n0 1\n0 0\n")
    # agreeing duplicates are fine
    tt = parse_spec_text(".i 1\n.o 1\n0 1\n0 1\n")
    assert tt.rows == (1, 0)


ESOP_PLA = ".i 2\n.o 1\n.type esop\n1- 1\n-1 1\n"


def test_esop_pla_rows_xor():
    tt = parse_spec_text(ESOP_PLA)
    assert tt.rows == (0, 1, 1, 0)
    assert tt.rows == parse_spec_text("x1 ^ x2\n").rows
    # under esop, rows that disagree are terms, not a conflict
    assert parse_spec_text(".i 1\n.o 2\n.type esop\n- 11\n1 01\n").rows == (3, 1)


@pytest.mark.parametrize("kind", ["", ".type f\n", ".type fd\n", ".type fr\n"])
def test_sum_of_products_pla_types_keep_rows_that_agree(kind):
    tt = parse_spec_text(ESOP_PLA.replace(".type esop\n", kind))
    assert tt.rows == (0, 1, 1, 1)
    disagree = f".i 1\n.o 1\n{kind}0 1\n- 0\n"
    if kind in ("", ".type fr\n"):
        # a 0 output bit is in the OFF-set: the rows must agree
        with pytest.raises(SpecFormatError, match="conflicting rows"):
            parse_spec_text(disagree)
    else:
        # a 0 output bit only leaves the input out of the ON-set: rows or
        assert parse_spec_text(disagree).rows == (1, 0)
        # y1 = x1, y2 = x2 as two rows
        two = parse_spec_text(f".i 2\n.o 2\n{kind}1- 10\n-1 01\n")
        assert two.rows == (0, 1, 2, 3)


@pytest.mark.parametrize("line", [".type exor", ".type", ".type esop fd"])
def test_unknown_pla_type_is_a_format_error(line):
    with pytest.raises(SpecFormatError, match="^spec.pla: unsupported .type"):
        parse_spec_text(f".i 1\n.o 1\n{line}\n0 1\n", origin="spec.pla")


def test_malformed_specs():
    for text in (".i 2\n.o 1\n00 1 extra\n",
                 ".i 2\n.o 1\n000 1\n",
                 ".i 2\n.o 1\n00 11\n",
                 "00 1\n.i 2\n",
                 ".i 1\n.o 1\n0 2\n",
                 ".weird 3\n",
                 # a permutation is one line, not two read as one
                 "perm 1 0\nperm 3 2\n",
                 "perm 0 1\n2 3\n",
                 ""):
        with pytest.raises(SpecFormatError):
            parse_spec_text(text)
    with pytest.raises(SpecFormatError):
        parse_spec_text("perm 0 1 2\n")


@pytest.mark.parametrize("text", [
    ".i 30\n.o 1\n",
    "x1 ^ x40\n",
    "perm " + " ".join(str(v) for v in range((1 << 17) + 1)) + "\n",
])
def test_oversized_specs_are_rejected_before_allocating(text):
    start = time.perf_counter()
    with pytest.raises(SpecFormatError, match="exceeds the limit 16"):
        parse_spec_text(text)
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("text, message", [
    (".i 1\n.o 1000000000\n", "exceeds the limit of 1048576 bits"),
    (".i 16\n.o 17\n", "2\\^16 rows by 17 outputs"),
    ("x16\n" * 17, "2\\^16 rows by 17 outputs"),
])
def test_oversized_tables_are_rejected_before_allocating(text, message):
    start = time.perf_counter()
    with pytest.raises(SpecFormatError, match=message):
        parse_spec_text(text)
    assert time.perf_counter() - start < 1.0


def test_the_table_bound_admits_sixteen_outputs_over_sixteen_inputs():
    table = parse_spec_text(".i 16\n.o 16\n")
    assert (table.n_inputs, table.n_outputs) == (16, 16)


@pytest.mark.parametrize("text", [".i\n.o 1\n", ".i 2\n.o\n",
                                  ".i two\n.o 1\n", ".i 2\n.o -1\n"])
def test_pla_header_without_an_integer_is_a_format_error(text):
    with pytest.raises(SpecFormatError, match="needs a non-negative integer"):
        parse_spec_text(text)


@pytest.mark.parametrize("text, message", [
    (".i 0\n.o 1\n", ".i must be at least 1"),
    (".i 2\n.o 0\n", ".o must be at least 1"),
    # TruthTable holds every name rule
    (".i 2\n.o 1\n.ilb a\n00 1\n", "1 input names given, 2 expected"),
    (".i 2\n.o 1\n.ilb a b c\n", "3 input names given, 2 expected"),
    (".ob p q\n.i 2\n.o 1\n", "2 output names given, 1 expected"),
    (".i 2\n.o 1\n.ilb a a\n", "input name 'a' given twice"),
    (".i 2\n.o 2\n.ob p p\n", "output name 'p' given twice"),
    # names a circuit file would split at ',' or ':'
    (".i 2\n.o 1\n.ilb a,x b\n", "input name 'a,x' is empty, holds ','"),
    (".i 2\n.o 1\n.ilb a b:x\n", "input name 'b:x' is empty, holds ','"),
    (".i 2\n.o 2\n.ob p,q r\n", "output name 'p,q' is empty, holds ','"),
    (".i 2\n.o 2\n.ob p r:q\n", "output name 'r:q' is empty, holds ','"),
])
def test_pla_counts_and_name_lists_must_agree(text, message):
    with pytest.raises(SpecFormatError, match=f"^spec.pla: {re.escape(message)}"):
        parse_spec_text(text, origin="spec.pla")


BAD_NAMES = ["a,b", "p:q", "", " a", "a ", "a\nb", "a\n"]


@pytest.mark.parametrize("name", BAD_NAMES)
def test_a_name_the_circuit_format_cannot_hold_is_refused(name):
    # a line and an output so named do not survive a circuit file's round
    # trip, so a truth table refuses it as an input or output name
    lines = [LineState(0, "x1"),
             LineState(1, name, CONSTANT, role=ROLE_OUTPUT, output_name=name)]
    text = format_circuit(Circuit(2, [cnot(0, 1)], lines))
    try:
        assert format_circuit(parse_circuit_text(text)) != text
    except SpecFormatError:
        pass
    for names in ({"input_names": (name, "b")}, {"output_names": (name,)}):
        with pytest.raises(ValueError, match=f"name {re.escape(repr(name))} "
                                             "is empty, holds ','"):
            TruthTable(2, 1, (0, 1, 1, 0), **names)


def test_odd_names_the_circuit_format_holds_round_trip():
    tt = TruthTable(2, 1, (0, 0, 0, 1), ("a b", "#c"), (".v",))
    text = format_circuit(*synthesize(tt))
    assert format_circuit(parse_circuit_text(text)) == text.split("\n", 1)[1]


def test_bad_cube_tokens():
    with pytest.raises(SpecFormatError):
        parse_spec_text("x1 ^ zaphod\n")
    with pytest.raises(SpecFormatError):
        parse_spec_text("x0\n")


def test_inverter_round_trip():
    lines = [LineState(0, "a", INPUT, role=ROLE_OUTPUT, output_name="y1")]
    c = Circuit(1, [not_gate(0)], lines)
    text = format_circuit(c)
    assert "t1 a" in text
    back = parse_circuit_text(text)
    assert [str(g) for g in back.gates] == ["t1 0"]
    assert back.output_map() == {"y1": 0}


def test_ccnot_text_form():
    c = Circuit(3, [toffoli([0, 1], 2)],
                [LineState(0, "a"), LineState(1, "b"), LineState(2, "c")])
    assert "t3 a,b,c" in format_circuit(c)


def test_comment_carries_the_cost_report():
    c = Circuit(1, [not_gate(0)])
    text = format_circuit(c, quantum_cost(c))
    assert text.startswith("# qc=1 gates=1")


def _random_labeled_circuit(rng):
    n = rng.randint(1, 5)
    lines = []
    out_k = 0
    for i in range(n):
        origin = INPUT if rng.random() < 0.7 else CONSTANT
        role = ROLE_GARBAGE
        output_name = None
        if rng.random() < 0.5:
            out_k += 1
            role, output_name = ROLE_OUTPUT, f"y{out_k}"
        lines.append(LineState(i, f"l{i}", origin, 0, role, output_name))
    gates = []
    for _ in range(rng.randint(0, 8)):
        picks = rng.sample(range(n), k=min(n, 3))
        if len(picks) == 1:
            gates.append(not_gate(picks[0]))
        elif len(picks) == 2 or rng.random() < 0.5:
            gates.append(cnot(picks[0], picks[1]))
        elif rng.random() < 0.5:
            gates.append(toffoli(picks[:2], picks[2]))
        else:
            gates.append(fredkin(picks[:1], picks[1], picks[2]))
    return Circuit(n, gates, lines)


def test_circuit_round_trip_fuzz():
    rng = random.Random(55)
    for _ in range(60):
        c = _random_labeled_circuit(rng)
        back = parse_circuit_text(format_circuit(c))
        assert back.n_lines == c.n_lines
        assert [str(g) for g in back.gates] == [str(g) for g in c.gates]
        assert [(l.name, l.origin, l.init, l.role, l.output_name)
                for l in back.lines] == \
               [(l.name, l.origin, l.init, l.role, l.output_name)
                for l in c.lines]


def test_circuit_parse_errors():
    with pytest.raises(SpecFormatError):
        parse_circuit_text("t1 a\n")                      # no declarations
    with pytest.raises(SpecFormatError):
        parse_circuit_text(".v a,b\nt3 a,b\n")            # width mismatch
    with pytest.raises(SpecFormatError):
        parse_circuit_text(".v a\nt2 a,zz\n")             # unknown line
    with pytest.raises(SpecFormatError):
        parse_circuit_text(".v a\nnonsense\n")


@pytest.mark.parametrize("text, message", [
    (".v a,b\n.i zz\n.o y:q\nt2 a,b\n", ".i names undeclared line 'zz'"),
    (".v a,b\n.o y:q\nt2 a,b\n", ".o names undeclared line 'q'"),
    (".v a,b\n.o y\n", ".o names undeclared line 'y'"),
    (".v a,b\n.c w=0\n", ".c names undeclared line 'w'"),
    (".v a,b\n.g b,c\n", ".g names undeclared line 'c'"),
])
def test_circuit_entries_must_name_declared_lines(text, message):
    with pytest.raises(SpecFormatError, match=re.escape(message)):
        parse_circuit_text(text)


@pytest.mark.parametrize("inputs", ["a", "a,b,w", "", "b,a,a,w"])
def test_circuit_input_list_must_be_the_non_constant_lines(inputs):
    with pytest.raises(SpecFormatError, match="lines not declared constant"):
        parse_circuit_text(f".v a,b,w\n.i {inputs}\n.c w=0\n")
    # the same list in any order, or no .i line at all, is accepted
    for head in (".i b,a\n", ".i a, b,\n", ""):
        back = parse_circuit_text(f".v a,b,w\n{head}.c w=0\n.o y:w\n")
        assert [l.origin for l in back.lines] == [INPUT, INPUT, CONSTANT]
        assert back.output_map() == {"y": 2}


def test_a_repeated_directive_adds_to_the_earlier_ones():
    # a second .v declares more lines; it does not replace the first
    back = parse_circuit_text(".v a,b\n.v c\n.o y1:c\nt1 c\n")
    assert [l.name for l in back.lines] == ["a", "b", "c"]
    assert back.output_map() == {"y1": 2}
    # so a .i written before the last .v must list its lines too
    with pytest.raises(SpecFormatError, match=re.escape(
            ".i lists ['a'], but the lines not declared constant are "
            "['a', 'b']")):
        parse_circuit_text(".v a\n.i a\n.o y1:a\nt1 a\n.v b\n")
    back = parse_circuit_text(".v a\n.i a\n.o y1:a\nt1 a\n.v b\n.i b\n"
                              ".v w\n.c w\n.g b\n.g w\n")
    assert [(l.origin, l.role) for l in back.lines] == [
        (INPUT, ROLE_OUTPUT), (INPUT, ROLE_GARBAGE), (CONSTANT, ROLE_GARBAGE)]


@pytest.mark.parametrize("text, message", [
    (".v a\n.v b,a\n", ".v declares line 'a' twice"),
    (".v a,b\n.i a,b\n.i b\n", ".i lists line 'b' twice"),
    (".v a,b\n.g a\n.g a\n", ".g names line 'a' twice"),
])
def test_a_repeated_directive_names_each_line_once(text, message):
    with pytest.raises(SpecFormatError, match=re.escape(message)):
        parse_circuit_text(text)


@pytest.mark.parametrize("gate, message", [
    ("t0", "t-family gate needs 1 target(s)"),
    ("t2 a,a", "target appears in control set"),
    ("f1 a", "f-family gate needs 2 target(s)"),
])
def test_a_bad_gate_names_its_file_and_line(tmp_path, capsys, gate, message):
    text = f".v a,b\n{gate}\n"
    with pytest.raises(SpecFormatError) as err:
        parse_circuit_text(text)
    assert str(err.value) == f"<string>: gate {gate!r}: {message}"
    path = tmp_path / "bad.tfc"
    path.write_text(text)
    assert run_cli(["cost", "--in", str(path)]) == 1
    assert capsys.readouterr().err == \
        f"error: {path}: gate {gate!r}: {message}\n"


def test_report_rows_have_the_documented_columns(tmp_path):
    params = OptimizeParams(3, True, 2, False)
    c = Circuit(1, [not_gate(0)])
    row = report_row("f", "synth", 1, 1, params, quantum_cost(c))
    assert list(row) == REPORT_COLUMNS
    path = tmp_path / "r.csv"
    write_report(str(path), [row])
    header, data = path.read_text().strip().splitlines()
    assert header == ",".join(REPORT_COLUMNS)
    assert data.startswith("f,synth,1,1,3,1,2,0,0,1,1,1,")


@pytest.mark.parametrize("init", ["5", "-1", "x"])
def test_circuit_constant_init_must_be_0_or_1(init):
    with pytest.raises(SpecFormatError, match="not 0 or 1"):
        parse_circuit_text(f".v a,w\n.c w={init}\nt2 a,w\n")
    back = parse_circuit_text(".v a,w,v\n.c w=1,v\n")
    assert [(l.origin, l.init) for l in back.lines[1:]] == \
        [(CONSTANT, 1), (CONSTANT, 0)]


def test_circuit_with_too_many_input_lines_is_rejected():
    names = [f"x{i}" for i in range(1, 18)]
    with pytest.raises(SpecFormatError, match="17 inputs exceeds the limit 16"):
        parse_circuit_text(".v " + ",".join(names) + "\n")
    # constant lines do not count against the limit
    ok = parse_circuit_text(".v " + ",".join(names) + "\n.c x17=0\n")
    assert len(ok.input_lines()) == 16

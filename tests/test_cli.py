import csv
import dataclasses
import random
import re
import time

import pytest

import esopsyn.cli as cli
from esopsyn import ancilla_free, benchmarks, mapper
from esopsyn.ancilla_free import NonConvergenceError
from esopsyn.circuit import VerificationError, not_gate
from esopsyn.cli import parse_grid, pareto_points, run_cli
from esopsyn.io import SpecFormatError
from esopsyn.mapper import SynthesisError, synthesize


MOD5_PLA = """.i 4
.o 1
0000 1
1010 1
0101 1
1111 1
.e
"""


@pytest.fixture
def mod5(tmp_path):
    path = tmp_path / "4mod5.pla"
    path.write_text(MOD5_PLA)
    return str(path)


def test_synth_writes_circuit_and_report(mod5, tmp_path):
    out = tmp_path / "c.tfc"
    rep = tmp_path / "r.csv"
    rc = run_cli(["synth", "--in", mod5, "-T", "3", "-C", "true", "-K", "1",
                  "-P", "false", "--out", str(out), "--report", str(rep)])
    assert rc == 0
    assert out.read_text().splitlines()[0].startswith("# qc=")
    rows = list(csv.DictReader(rep.open()))
    assert rows[0]["T"] == "3" and rows[0]["K"] == "1"
    assert rows[0]["qc"] == "9"


def test_emitted_circuit_verifies(mod5, tmp_path):
    out = tmp_path / "c.tfc"
    assert run_cli(["synth", "--in", mod5, "--out", str(out)]) == 0
    assert run_cli(["verify", "--in", str(out), "--spec", mod5]) == 0


def test_corrupted_circuit_fails_verification(mod5, tmp_path):
    out = tmp_path / "c.tfc"
    run_cli(["synth", "--in", mod5, "--out", str(out)])
    text = out.read_text().replace("t3", "t2 x1,x2\nt3", 1)
    out.write_text(text)
    assert run_cli(["verify", "--in", str(out), "--spec", mod5]) == 2


def test_dirtied_ancilla_fails_verification(tmp_path, capsys):
    spec = tmp_path / "y1_is_x2.pla"
    spec.write_text(".i 2\n.o 1\n00 0\n10 0\n01 1\n11 1\n.e\n")
    circ = tmp_path / "dirty.tfc"
    # w is declared a restored ancilla but ends carrying a
    circ.write_text(".v a,b,w\n.i a,b\n.o y1:b\n.c w=0\nt2 a,w\n")
    assert run_cli(["verify", "--in", str(circ), "--spec", str(spec)]) == 2
    assert "ancilla line w" in capsys.readouterr().out


def test_cost_subcommand(mod5, tmp_path, capsys):
    out = tmp_path / "c.tfc"
    run_cli(["synth", "--in", mod5, "--out", str(out)])
    assert run_cli(["cost", "--in", str(out)]) == 0
    assert "qc=" in capsys.readouterr().out


def test_cost_derives_roles_from_simulation(tmp_path, capsys):
    # w is declared a restored ancilla but ends carrying a: garbage
    dirty = tmp_path / "dirty.tfc"
    dirty.write_text(".v a,w\n.i a\n.o a\n.c w=0\nt2 a,w\n")
    assert run_cli(["cost", "--in", str(dirty)]) == 0
    assert "garbage=1 ancilla=0" in capsys.readouterr().out
    # w is declared garbage but is computed and uncomputed: ancilla
    clean = tmp_path / "clean.tfc"
    clean.write_text(".v a,w\n.i a\n.o a\n.c w=1\n.g w\nt2 a,w\nt2 a,w\n")
    assert run_cli(["cost", "--in", str(clean)]) == 0
    assert "garbage=0 ancilla=1" in capsys.readouterr().out


def test_malformed_files_fail_with_one_line(tmp_path, capsys):
    cases = {"bare.pla": (["synth"], ".i\n.o 1\n"),
             "init.tfc": (["cost"], ".v a,w\n.c w=5\nt2 a,w\n"),
             "undeclared.tfc": (["cost"], ".v a,b\n.i zz\n.o y:q\nt2 a,b\n"),
             "no_inputs.pla": (["synth"], ".i 0\n.o 1\n"),
             "no_outputs.pla": (["synth"], ".i 2\n.o 0\n"),
             "short_ilb.pla": (["synth"], ".i 2\n.o 1\n.ilb a\n00 1\n"),
             "long_ob.pla": (["synth"], ".i 2\n.o 1\n.ob p q\n00 1\n"),
             "bad_type.pla": (["synth"], ".i 2\n.o 1\n.type exor\n1- 1\n"),
             # a name given twice: one line, or one output, would be dropped
             "dup_ilb.pla": (["synth"], ".i 2\n.o 1\n.ilb a a\n00 1\n"),
             "dup_ob.pla": (["synth"], ".i 2\n.o 2\n.ob p p\n00 11\n"),
             # a name the circuit file would split at ',' or ':'
             "comma_ilb.pla": (["synth"], ".i 2\n.o 1\n.ilb a,x b\n00 1\n"),
             "colon_ilb.pla": (["synth"], ".i 2\n.o 1\n.ilb a b:x\n00 1\n"),
             "comma_ob.pla": (["synth"], ".i 2\n.o 2\n.ob p,q r\n00 11\n"),
             "colon_ob.pla": (["synth"], ".i 2\n.o 2\n.ob p r:q\n00 11\n"),
             "wide_table.pla": (["synth"], ".i 1\n.o 1000000000\n"),
             "dup_line.tfc": (["cost"], ".v a,a\n.o y1:a\nt1 a\n"),
             "dup_output.tfc": (["cost"], ".v a,b\n.o y1:a,y1:b\nt2 a,b\n"),
             "dup_output_line.tfc": (["cost"], ".v a,b\n.o y1:b\n.o y2:b\n"),
             "dup_const.tfc": (["cost"], ".v a,b\n.c b=0\n.c b=1\nt2 a,b\n"),
             # two permutations are not one of twice the length
             "two_lines.perm": (["synth"], "perm 1 0\nperm 3 2\n"),
             # bytes UTF-8 cannot decode (a UTF-16 byte-order mark)
             "utf16.pla": (["synth"], b"\xff\xfe.\x00i\x00"),
             "utf16.tfc": (["cost"], b"\xff\xfe.\x00v\x00")}
    for name, (cmd, text) in cases.items():
        path = tmp_path / name
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        assert run_cli(cmd + ["--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1


_FUZZ_SEEDS = {
    "f.pla": (["synth"], ".i 2\n.o 2\n.ilb a b\n.ob p q\n00 01\n01 10\n1- 11\n"),
    "f.perm": (["synth"], "perm 0 2 3 5 7 1 4 6\n"),
    "f.cubes": (["synth"], "1 ^ x1 ^ x1x2\nx2x3 ^ x3\n"),
    "f.tfc": (["cost"], ".v a,b,w\n.i a,b\n.c w=0\n.o y1:w\n.g a,b\n"
                        "t3 a,b,w\nt2 a,w\n"),
}


def _fuzz_edit(rng, text):
    """One random edit: a character dropped, inserted or replaced, or a
    line dropped, doubled or moved."""
    alphabet = "01-2379 ^x.,:=tfviocgelbpr\n"
    k = rng.randrange(len(text) + 1)
    op = rng.randrange(6)
    if op == 0:
        return text[:k] + text[k + 1:]
    if op == 1:
        return text[:k] + rng.choice(alphabet) + text[k:]
    if op == 2:
        return text[:k] + rng.choice(alphabet) + text[k + 1:]
    lines = text.splitlines(keepends=True) or [""]
    i = rng.randrange(len(lines))
    if op == 3:
        del lines[i]
    elif op == 4:
        lines.insert(i, lines[i])
    else:
        lines.insert(rng.randrange(len(lines)), lines.pop(i))
    return "".join(lines)


def test_reader_fuzz_exits_0_or_1_with_one_error_line(tmp_path, capsys):
    # 1-4 random edits of a valid file of each kind: a reader either takes
    # the file or refuses it with one line, never with a traceback
    rng = random.Random(7)
    exits = {0: 0, 1: 0}
    for k in range(400):
        name, (cmd, text) = rng.choice(sorted(_FUZZ_SEEDS.items()))
        for _ in range(rng.randint(1, 4)):
            text = _fuzz_edit(rng, text)
        path = tmp_path / f"{k}{name}"
        path.write_text(text)
        rc = run_cli(cmd + ["--in", str(path)])
        err = capsys.readouterr().err
        assert rc in (0, 1), (text, err)
        exits[rc] += 1
        if rc == 1:
            assert err.startswith("error: ") and err.count("\n") == 1, text
    assert min(exits.values()) >= 50


def test_esop_pla_and_its_cube_list_check_each_other(tmp_path, capsys):
    pla = tmp_path / "x.pla"
    pla.write_text(".i 2\n.o 1\n.type esop\n1- 1\n-1 1\n")
    cubes = tmp_path / "x.cubes"
    cubes.write_text("x1 ^ x2\n")
    out = tmp_path / "x.tfc"
    assert run_cli(["synth", "--in", str(pla), "--out", str(out)]) == 0
    assert run_cli(["verify", "--in", str(out), "--spec", str(cubes)]) == 0
    assert capsys.readouterr().out.startswith("equivalent to x.cubes")


def test_missing_spec_and_bad_options_fail_with_one_line(tmp_path, capsys,
                                                         monkeypatch):
    # an out-of-range --exhaustive must be refused before any enumeration
    # starts (4 variables would mean 16! functions), so the runner fails loudly
    def never(*args):
        raise AssertionError("run started")
    monkeypatch.setattr(cli, "_run", never)
    report = tmp_path / "r.csv"
    sweep = ["sweep", "--in", "bench:present_sbox", "--report", str(report)]
    cases = [["synth"], ["ancilla-free"], ["sweep", "--report", str(report)],
             ["synth", "--exhaustive", "0"], ["synth", "--exhaustive", "4"],
             ["ancilla-free", "--exhaustive", "4"],
             ["ancilla-free", "--exhaustive", "-1"],
             sweep + ["--grid", "K=5..2"], sweep + ["--grid", "C=0,1,2"],
             sweep + ["--grid", "P=-1"], sweep + ["--jobs", "0"],
             sweep + ["--jobs", "-3"], sweep + ["--grid", "T=3", "T=4"],
             # grid values that are not integers
             sweep + ["--grid", "K=1,,2"], sweep + ["--grid", "K=x"],
             sweep + ["--grid", "T=3..y"], sweep + ["--grid", "K=1.5"],
             # values below a knob's range
             sweep + ["--grid", "T=3", "C=1", "P=0", "K=0,-1"],
             sweep + ["--grid", "T=1"],
             ["synth", "--in", "bench:nosuch"],
             # argparse's own usage errors, and the removed --verify
             ["synth", "--in", "bench:rd53", "-T", "x"],
             ["synth", "--in", "bench:rd53", "--verify", "off"],
             # the removed --format: a spec's first line names its format
             ["synth", "--in", "bench:rd53", "--format", "pla"],
             ["ancilla-free", "--in", "bench:hwb4", "--format", "perm"],
             sweep + ["--format", "cubes"],
             ["verify", "--in", "c.tfc", "--spec", "bench:rd53",
              "--format", "auto"]]
    for argv in cases:
        assert run_cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert run_cli(["synth", "--exhaustive", "4"]) == 1
    assert "1 to 3" in capsys.readouterr().err
    # a knob given twice is refused, not silently overridden
    assert run_cli(sweep + ["--grid", "T=3", "t=4"]) == 1
    assert "T given twice" in capsys.readouterr().err
    # a value below a knob's range names the knob and its token
    assert run_cli(sweep + ["--grid", "T=3", "C=1", "P=0", "K=0,-1"]) == 1
    assert "K takes values >= 0 in grid token 'K=0,-1'" in capsys.readouterr().err
    assert run_cli(sweep + ["--grid", "T=1"]) == 1
    assert "T takes values >= 2 in grid token 'T=1'" in capsys.readouterr().err
    # the message of a KeyError, without the quotes str() puts round it
    assert run_cli(["synth", "--in", "bench:nosuch"]) == 1
    assert capsys.readouterr().err.startswith("error: unknown benchmark 'nosuch';")
    assert not report.exists()


def test_ancilla_free_subcommand(tmp_path):
    spec = tmp_path / "p.perm"
    spec.write_text("perm 0 2 3 5 7 1 4 6\n")
    out = tmp_path / "c.tfc"
    assert run_cli(["ancilla-free", "--in", str(spec), "--out", str(out)]) == 0
    assert ".c" not in out.read_text()      # no constant lines at all


def test_zero_variable_permutation_fails_with_one_line(tmp_path, capsys):
    spec = tmp_path / "z.perm"
    spec.write_text("perm 0\n")
    out = tmp_path / "z.tfc"
    for mode in ("synth", "ancilla-free"):
        assert run_cli([mode, "--in", str(spec), "--out", str(out)]) == 1, mode
        assert capsys.readouterr().err == "error: need at least one input\n"
        assert not out.exists()


def test_ancilla_free_rejects_non_reversible(tmp_path, capsys):
    spec = tmp_path / "t.pla"
    for text in (".i 2\n.o 1\n00 1\n",
                 ".i 2\n.o 2\n00 01\n01 01\n10 10\n11 11\n"):
        spec.write_text(text)
        assert run_cli(["ancilla-free", "--in", str(spec)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


def test_non_convergence_exit_code(tmp_path, monkeypatch):
    def boom(*a, **k):
        raise NonConvergenceError("synthetic stall")
    monkeypatch.setattr(cli.ancilla_free, "ancilla_free_synthesize", boom)
    spec = tmp_path / "p.perm"
    spec.write_text("perm 0 1\n")
    assert run_cli(["ancilla-free", "--in", str(spec)]) == 3


def test_missing_file_is_a_plain_error(tmp_path):
    assert run_cli(["synth", "--in", str(tmp_path / "nope.pla")]) == 1


def test_bench_scheme(tmp_path):
    rep = tmp_path / "r.csv"
    rc = run_cli(["sweep", "--in", "bench:present_sbox", "--grid", "T=3",
                  "C=1", "K=0..2", "P=0", "--report", str(rep)])
    assert rc == 0
    rows = list(csv.DictReader(rep.open()))
    assert len(rows) == 3
    assert [r["K"] for r in rows] == ["0", "1", "2"]
    assert all(r["runtime_s"] == "" for r in rows)


def test_sweep_rows_are_sorted_and_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--in", "bench:present_sbox", "--grid", "T=4,3", "C=1",
            "K=1,0", "P=0"]
    assert run_cli(args + ["--report", str(a)]) == 0
    assert run_cli(args + ["--report", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    rows = list(csv.DictReader(a.open()))
    assert [(r["T"], r["K"]) for r in rows] == \
        [("3", "0"), ("3", "1"), ("4", "0"), ("4", "1")]


def test_exhaustive_two_variable_runs(tmp_path, capsys):
    rep = tmp_path / "all2.csv"
    rc = run_cli(["ancilla-free", "--exhaustive", "2", "--report", str(rep)])
    assert rc == 0
    rows = list(csv.DictReader(rep.open()))
    assert len(rows) == 24
    assert "24 functions, 24 converged" in capsys.readouterr().out

    rep2 = tmp_path / "synth2.csv"
    rc = run_cli(["synth", "--exhaustive", "2", "--report", str(rep2)])
    assert rc == 0
    assert len(list(csv.DictReader(rep2.open()))) == 24


def test_named_outputs_flow_through(tmp_path):
    spec = tmp_path / "named.pla"
    spec.write_text(".i 2\n.o 2\n.ilb a b\n.ob carry summ\n"
                    "00 00\n10 01\n01 01\n11 10\n")
    out = tmp_path / "named.tfc"
    assert run_cli(["synth", "--in", str(spec), "--out", str(out)]) == 0
    text = out.read_text()
    assert ".i a,b" in text
    assert "carry:" in text and "summ:" in text
    assert run_cli(["verify", "--in", str(out), "--spec", str(spec)]) == 0


def test_trace_prints_each_iteration_and_leaves_the_circuit_alone(
        tmp_path, capsys, monkeypatch):
    mapped = 0
    real = mapper.map_target

    def counted(*args):
        nonlocal mapped
        mapped += 1
        return real(*args)

    monkeypatch.setattr(mapper, "map_target", counted)
    plain, traced = tmp_path / "plain.tfc", tmp_path / "traced.tfc"
    argv = ["synth", "--in", "bench:rd53", "-K", "1", "-P", "1", "--out"]
    assert run_cli(argv + [str(plain)]) == 0
    assert capsys.readouterr().out == ""
    mapped = 0
    assert run_cli(argv + [str(traced), "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    iters = [ln.split(":")[0] for ln in lines if ln.startswith("iter ")]
    assert mapped > 0
    assert iters == [f"iter {k}" for k in range(1, mapped + 1)]
    assert sum(ln.startswith("cube_sharing: ") for ln in lines) == 1
    assert traced.read_text() == plain.read_text()


def test_ancilla_free_keeps_the_names_of_a_pla(tmp_path):
    spec = tmp_path / "sw.pla"
    spec.write_text(".i 2\n.o 2\n.ilb a b\n.ob p q\n"
                    "00 00\n01 10\n10 01\n11 11\n")
    out = tmp_path / "c.tfc"
    assert run_cli(["ancilla-free", "--in", str(spec), "--out", str(out)]) == 0
    assert ".o p:a,q:b\n" in out.read_text()
    assert run_cli(["verify", "--in", str(out), "--spec", str(spec)]) == 0


def test_parallel_sweep_matches_serial(tmp_path):
    serial, parallel = tmp_path / "s.csv", tmp_path / "p.csv"
    args = ["sweep", "--in", "bench:present_sbox", "--grid", "T=3", "C=1",
            "K=0..2", "P=0,1"]
    assert run_cli(args + ["--report", str(serial)]) == 0
    assert run_cli(args + ["--report", str(parallel), "--jobs", "2"]) == 0
    assert serial.read_bytes() == parallel.read_bytes()


def test_jobs_never_exceed_items_or_cpus(tmp_path, monkeypatch):
    # the pool forks every worker at the first task, so a large --jobs is
    # checked against a fake pool that only records its size
    sizes = []

    class FakePool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", FakePool)
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    report = tmp_path / "r.csv"
    base = ["sweep", "--in", "bench:present_sbox", "--report", str(report),
            "--grid", "T=3", "C=1", "P=0"]
    for k_values, jobs, want in (("0", "5000", []), ("0..1", "5000", [2]),
                                 ("0..4", "5000", [3]), ("0..4", "2", [2]),
                                 ("0..4", "1", [])):
        sizes.clear()
        assert run_cli(base + [f"K={k_values}", "--jobs", jobs]) == 0
        assert sizes == want, (k_values, jobs)


def test_a_run_that_fails_part_way_writes_no_report(tmp_path, monkeypatch):
    calls = []

    def fails_fifth(*args, **kwargs):
        calls.append(args)
        if len(calls) == 5:
            raise SynthesisError("synthetic failure")
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(cli, "synthesize", fails_fifth)
    rep = tmp_path / "r.csv"
    assert run_cli(["synth", "--exhaustive", "2", "--report", str(rep)]) == 1
    assert len(calls) == 5 and not rep.exists()


def test_grid_parser():
    grid = parse_grid(["T=3", "K=0..2,5"])
    assert grid["T"] == [3]
    assert grid["K"] == [0, 1, 2, 5]
    assert grid["C"] == [0, 1]
    with pytest.raises(SpecFormatError):
        parse_grid(["Q=1"])
    with pytest.raises(SpecFormatError):
        parse_grid(["T="])
    with pytest.raises(SpecFormatError):
        parse_grid(["K=5..2"])
    # C and P are switches: any value but 0 or 1 is refused, not read as a bool
    assert parse_grid(["C=1,0", "P=0..1"])["C"] == [1, 0]
    for tok in ("C=0,1,2", "P=-1", "C=0..2"):
        with pytest.raises(SpecFormatError):
            parse_grid([tok])
    # a value that is not an integer is named with its token
    for tok, part in (("K=1,,2", ""), ("K=x", "x"), ("T=3..y", "3..y"),
                      ("K=1.5", "1.5")):
        with pytest.raises(SpecFormatError,
                           match=re.escape(f"bad value {part!r} in grid "
                                           f"token {tok!r}")):
            parse_grid([tok])
    assert parse_grid([]) == {"T": [3, 4], "C": [0, 1], "K": list(range(8)),
                              "P": [0, 1]}


def test_grid_over_the_bound_is_refused_before_it_is_expanded(
        monkeypatch, capsys, tmp_path):
    # one configuration over the bound is refused, with one line of error
    # and exit 1; a parser that returned it instead fails this test before
    # the sweep builds the configurations
    bound = cli.MAX_GRID_CONFIGS
    assert len(parse_grid(["T=3", "C=0", "P=0", f"K=1..{bound}"])["K"]) == bound
    over = ["T=3", "C=0", "P=0", f"K=0..{bound}"]
    with pytest.raises(SpecFormatError, match=f"{bound + 1} configurations"):
        parse_grid(over)
    with pytest.raises(SpecFormatError, match="configurations"):
        parse_grid(["T=3,4", "C=0", "P=0,1", f"K=0..{bound // 4}"])

    def must_refuse(tokens):
        parse_grid(tokens)
        raise AssertionError(f"grid {tokens} accepted")

    monkeypatch.setattr(cli, "parse_grid", must_refuse)
    report = tmp_path / "r.csv"
    assert run_cli(["sweep", "--in", "bench:present_sbox", "--grid", *over,
                    "--report", str(report)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: grid of ") and err.count("\n") == 1
    assert not report.exists()


def test_pareto_front():
    pts = [(10, 3), (8, 5), (12, 1), (10, 4), (8, 6)]
    assert pareto_points(pts) == [(8, 5), (10, 3), (12, 1)]
    assert pareto_points([(5, 5)]) == [(5, 5)]


def test_help_still_exits_zero(capsys):
    for mode in ("synth", "sweep", "ancilla-free"):
        with pytest.raises(SystemExit) as exit_info:
            run_cli([mode, "--help"])
        assert exit_info.value.code == 0
        usage = capsys.readouterr().out
        assert "--verify" not in usage and "--seed" not in usage


def test_a_corrupted_circuit_fails_verification_in_both_engines(
        mod5, monkeypatch, capsys):
    real_order_outputs = mapper.order_outputs

    def flips_an_output(circuit, spec, words):
        real_order_outputs(circuit, spec, words)
        circuit.append(not_gate(next(iter(circuit.output_map().values()))))
        return circuit

    real_reduce = ancilla_free.reduce_to_identity

    def drops_the_last_step(state, policy):
        state = real_reduce(state, policy)
        return dataclasses.replace(state, history=state.history[:-1])

    monkeypatch.setattr(mapper, "order_outputs", flips_an_output)
    monkeypatch.setattr(ancilla_free, "reduce_to_identity", drops_the_last_step)
    with pytest.raises(VerificationError):
        synthesize(benchmarks.get("rd53"))
    with pytest.raises(VerificationError):
        ancilla_free.ancilla_free_synthesize(benchmarks.get("hwb4"))
    for argv in (["synth", "--in", mod5], ["ancilla-free", "--in", "bench:hwb4"]):
        assert run_cli(argv) == 2, argv
        assert capsys.readouterr().err.startswith("verification failed: ")


def test_report_runtime_includes_verification(monkeypatch):
    for module in (mapper, ancilla_free):
        real = module.verify_equivalence

        def slow(circuit, spec, *words, real=real):
            time.sleep(0.05)
            return real(circuit, spec, *words)

        monkeypatch.setattr(module, "verify_equivalence", slow)
    _, report = synthesize(benchmarks.get("rd53"))
    assert report.runtime >= 0.05
    _, report = ancilla_free.ancilla_free_synthesize(benchmarks.get("hwb4"))
    assert report.runtime >= 0.05

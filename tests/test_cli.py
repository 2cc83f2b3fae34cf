import csv

import pytest

import esopsyn.cli as cli
from esopsyn.ancilla_free import NonConvergenceError
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
             "undeclared.tfc": (["cost"], ".v a,b\n.i zz\n.o y:q\nt2 a,b\n")}
    for name, (cmd, text) in cases.items():
        path = tmp_path / name
        path.write_text(text)
        assert run_cli(cmd + ["--in", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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
             sweep + ["--jobs", "-3"]]
    for argv in cases:
        assert run_cli(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, argv
    assert run_cli(["synth", "--exhaustive", "4"]) == 1
    assert "1 to 3" in capsys.readouterr().err
    assert not report.exists()


def test_ancilla_free_subcommand(tmp_path):
    spec = tmp_path / "p.perm"
    spec.write_text("perm 0 2 3 5 7 1 4 6\n")
    out = tmp_path / "c.tfc"
    assert run_cli(["ancilla-free", "--in", str(spec), "--out", str(out)]) == 0
    assert ".c" not in out.read_text()      # no constant lines at all


def test_ancilla_free_rejects_non_reversible(tmp_path):
    spec = tmp_path / "t.pla"
    spec.write_text(".i 2\n.o 1\n00 1\n")
    assert run_cli(["ancilla-free", "--in", str(spec)]) == 1


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


def test_exhaustive_synth_passes_the_seed(tmp_path, monkeypatch):
    seeds = []

    def spy(*args, **kwargs):
        seeds.append(kwargs.get("seed"))
        return synthesize(*args, **kwargs)

    monkeypatch.setattr(cli, "synthesize", spy)
    rep = tmp_path / "r.csv"
    assert run_cli(["synth", "--exhaustive", "2", "--seed", "7",
                    "--verify", "sample", "--report", str(rep)]) == 0
    assert seeds == [7] * 24
    assert {r["seed"] for r in csv.DictReader(rep.open())} == {"7"}


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


def test_pareto_front():
    pts = [(10, 3), (8, 5), (12, 1), (10, 4), (8, 6)]
    assert pareto_points(pts) == [(8, 5), (10, 3), (12, 1)]
    assert pareto_points([(5, 5)]) == [(5, 5)]

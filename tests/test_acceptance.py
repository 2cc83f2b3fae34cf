"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to watch the lines; the
exhaustive criteria (3-variable sweeps, the 8-bit S-box) take a few
minutes in total.
"""

import csv
import itertools
import random
import time

from esopsyn import benchmarks
from esopsyn.ancilla_free import ancilla_free_synthesize
from esopsyn.circuit import (
    Circuit, cnot, fredkin, gate_cost, not_gate, quantum_cost, toffoli,
    verify_equivalence,
)
from esopsyn.cli import pareto_points, run_cli
from esopsyn.funcs import (
    Permutation, TruthTable, anf_from_truth_table, mobius_bits,
    truth_table_from_anf, truth_table_from_permutation,
)
from esopsyn.mapper import synthesize
from esopsyn.optimize import OptimizeParams


def _report(num: int, ok: bool, detail: str):
    print(f"\ncriterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_cost_model_exactness():
    t0 = time.perf_counter()
    got = (
        gate_cost(not_gate(0)),
        gate_cost(cnot(0, 1)),
        gate_cost(toffoli([0, 1], 2)),
        gate_cost(toffoli([0, 1, 2], 3)),
        gate_cost(toffoli([0, 1, 2, 3], 4)),
        gate_cost(toffoli(range(5), 5)),
    )
    fred = gate_cost(fredkin([0], 1, 2))
    pair = quantum_cost(Circuit(3, [toffoli([0, 1], 2), cnot(0, 1)]))
    elapsed = time.perf_counter() - t0
    ok = (got == (1, 1, 5, 13, 25, 41) and fred == 7
          and pair.quantum_cost == 4 and pair.peres_pairs == 1
          and elapsed < 1.0)
    _report(1, ok, f"costs {got}, fredkin {fred}, paired qc "
                   f"{pair.quantum_cost}, {elapsed:.2f}s")


def test_criterion_2_normal_form_correctness():
    t0 = time.perf_counter()
    col = 0
    for i in (0, 5, 10, 15):
        col |= 1 << i
    expr = anf_from_truth_table(TruthTable.from_columns(4, [col]))
    want = frozenset({0b0000, 0b0001, 0b0010, 0b0011, 0b0100, 0b0110,
                      0b1000, 0b1001, 0b1100})
    exact = expr.masks == want

    rng = random.Random(2024)
    checked = 0
    failures = 0
    sizes = itertools.cycle(range(1, 13))
    while checked < 1000:
        n = next(sizes)
        bits = rng.getrandbits(1 << n)
        if mobius_bits(mobius_bits(bits, n), n) != bits:
            failures += 1
        tt = TruthTable.from_columns(n, [bits])
        e = anf_from_truth_table(tt)
        back = truth_table_from_anf(e)
        if back.rows != tt.rows:
            failures += 1
        # independent spot-check of the expression semantics
        points = range(1 << n) if n <= 5 else \
            (rng.randrange(1 << n) for _ in range(8))
        for x in points:
            if e.evaluate(x) != tt.rows[x]:
                failures += 1
                break
        checked += 1
    elapsed = time.perf_counter() - t0
    ok = exact and failures == 0 and elapsed < 30
    _report(2, ok, f"nine-cube form {'exact' if exact else 'WRONG'}, "
                   f"{checked} tables, {failures} failures, {elapsed:.1f}s")


def test_criterion_3_soundness_over_the_benchmark_list():
    t0 = time.perf_counter()
    names = sorted(set(benchmarks.TABLE_ESOP_COMPARISON
                       + benchmarks.TABLE_BEST_KNOWN))
    settings = [OptimizeParams(3, True, 0, False),
                OptimizeParams(4, False, 0, False),
                OptimizeParams(3, True, 3, True)]
    runs = 0
    for name in names:
        spec = benchmarks.get(name)
        tt = truth_table_from_permutation(spec) \
            if isinstance(spec, Permutation) else spec
        for params in settings:
            circuit, _ = synthesize(spec, params)   # verifies internally
            assert verify_equivalence(circuit, tt)  # and cross-checked here
            runs += 1
        if isinstance(spec, Permutation) and spec.n_vars <= 4:
            circuit, _ = ancilla_free_synthesize(spec)
            assert verify_equivalence(circuit, tt)
            runs += 1
    elapsed = time.perf_counter() - t0
    ok = elapsed < 600
    _report(3, ok, f"{runs} circuits over {len(names)} functions all "
                   f"equivalent, {elapsed:.0f}s")


def test_criterion_4_prime_counter_exact_point():
    t0 = time.perf_counter()
    spec = benchmarks.get("nth_prime_3_inc")
    hits = []
    for t, c, k, p in itertools.product((3, 4), (0, 1), range(8), (0, 1)):
        params = OptimizeParams(t, bool(c), k, bool(p))
        _, rep = synthesize(spec, params)
        if (rep.quantum_cost, rep.gate_count, rep.garbage_count) == (6, 4, 0):
            hits.append(params.tckp())
    elapsed = time.perf_counter() - t0
    _report(4, bool(hits), f"qc=6 gates=4 garbage=0 at TCKP {hits}, "
                           f"{elapsed:.0f}s")


def _present_sweep(tmp_path, tag):
    report = tmp_path / f"present_{tag}.csv"
    rc = run_cli(["sweep", "--in", "bench:present_sbox", "--grid",
                  "T=3,4", "C=0,1", "K=0..7", "P=0,1",
                  "--report", str(report)])
    assert rc == 0
    return report


def test_criterion_5_tradeoff_reproduction(tmp_path):
    t0 = time.perf_counter()
    report = _present_sweep(tmp_path, "a")
    rows = list(csv.DictReader(report.open()))
    points = [(int(r["qc"]), int(r["garbage"])) for r in rows]
    front = pareto_points(points)
    min_qc = min(p[0] for p in points)
    min_garbage = min(p[1] for p in points)
    elapsed = time.perf_counter() - t0
    ok = (len(rows) == 64 and len(front) >= 3 and min_qc <= 120
          and min_garbage <= 4
          and min_qc <= 2 * 67          # secondary bounds with 2x latitude
          and min_garbage <= 2 * 3
          and elapsed < 120)
    _report(5, ok, f"front {front}, min qc {min_qc}, min garbage "
                   f"{min_garbage}, {elapsed:.1f}s")


def test_criterion_6_exhaustive_three_variable_flow():
    t0 = time.perf_counter()
    params = OptimizeParams()   # T=3, sharing on, kernels off, reduction off
    total_gates = total_garbage = count = 0
    for images in itertools.permutations(range(8)):
        _, rep = synthesize(Permutation(images), params)
        total_gates += rep.gate_count
        total_garbage += rep.garbage_count
        count += 1
    mean_gates = total_gates / count
    mean_garbage = total_garbage / count
    elapsed = time.perf_counter() - t0
    ok = (count == 40320
          and 7.6 * 0.75 <= mean_gates <= 7.6 * 1.25
          and 2.3 * 0.75 <= mean_garbage <= 2.3 * 1.25
          and elapsed < 300)
    _report(6, ok, f"{count} synthesized+verified, mean gates "
                   f"{mean_gates:.2f} (5.70..9.50), mean garbage "
                   f"{mean_garbage:.2f} (1.73..2.88), {elapsed:.0f}s")


def test_criterion_7_exhaustive_ancilla_free(tmp_path):
    t0 = time.perf_counter()
    report = tmp_path / "all3.csv"
    rc = run_cli(["ancilla-free", "--exhaustive", "3", "--report", str(report)])
    elapsed = time.perf_counter() - t0
    rows = list(csv.DictReader(report.open()))
    # a function that does not converge gets a row with no cost columns
    converged = [r for r in rows if r["qc"] != ""]
    problems = [r["function"] for r in rows if r["qc"] == ""
                or (r["lines"], r["ancilla"], r["garbage"]) != ("3", "0", "0")]
    mean_gates = sum(int(r["gates"]) for r in converged) / max(len(converged), 1)
    mean_qc = sum(int(r["qc"]) for r in converged) / max(len(converged), 1)
    ok = (rc == 0 and len(rows) == 40320 and len(converged) == 40320
          and not problems
          and 9.28 * 0.75 <= mean_gates <= 9.28 * 1.25
          and 17.14 * 0.75 <= mean_qc <= 17.14 * 1.25
          and elapsed < 600)
    _report(7, ok, f"{len(converged)}/{len(rows)} converged on 3 lines, "
                   f"mean gates {mean_gates:.2f} (6.96..11.60), "
                   f"mean qc {mean_qc:.2f} (12.86..21.43), "
                   f"{elapsed:.0f}s")


def test_criterion_8_sweep_determinism(tmp_path):
    a = _present_sweep(tmp_path, "rerun1")
    b = _present_sweep(tmp_path, "rerun2")
    identical = a.read_bytes() == b.read_bytes()
    _report(8, identical, "two sweep runs produced byte-identical CSVs")


def test_criterion_9_large_sbox_completes(tmp_path):
    t0 = time.perf_counter()
    aes = benchmarks.get("aes_sbox")
    recorded = []
    for t, c, k, p in [(3, 1, 0, 0), (4, 0, 0, 0), (3, 1, 3, 0),
                       (3, 1, 5, 0)]:
        params = OptimizeParams(t, bool(c), k, bool(p))
        _, rep = synthesize(aes, params)   # internal exhaustive verification
        recorded.append((params.tckp(), rep.quantum_cost, rep.gate_count,
                         rep.garbage_count))
    elapsed = time.perf_counter() - t0
    out = tmp_path / "aes_recorded.csv"
    out.write_text("tckp,qc,gates,garbage\n" + "\n".join(
        ",".join(map(str, r)) for r in recorded) + "\n")
    ok = elapsed < 3600
    _report(9, ok, f"values recorded (no tolerance asserted): {recorded}, "
                   f"{elapsed:.0f}s")

"""Golden digests: emitted circuits are pinned byte for byte.

Each case hashes `format_circuit(circuit, report)`, so a change to the
gate list, line names, line order, output labels or roles shows up here
even when the circuit still verifies.  The report CSVs of the three sweep
modes of the command line are pinned the same way.
"""

import hashlib
import random

import pytest

from esopsyn import benchmarks
from esopsyn.ancilla_free import NonConvergenceError, ancilla_free_synthesize
from esopsyn.cli import run_cli
from esopsyn.funcs import Permutation, TruthTable
from esopsyn.io import format_circuit, parse_circuit_text
from esopsyn.mapper import synthesize
from esopsyn.optimize import OptimizeParams


def _tckp(code: str) -> OptimizeParams:
    t, c, k, p = (int(ch) for ch in code)
    return OptimizeParams(t, bool(c), k, bool(p))


def _wide_table() -> TruthTable:
    # 3 inputs, 10 outputs: duplicated functions, constant 0 and constant 1
    x1, x2, x3 = 0b10101010, 0b11001100, 0b11110000
    full = 0xFF
    columns = [x1 & x2, x1 ^ x3, x1, x1 & x2, 0, full, x2 & x3 ^ x1,
               x1 ^ x3, full, 0]
    return TruthTable.from_columns(3, columns)


def _w_named_inputs() -> TruthTable:
    # inputs named like the fresh wires; the product needs a fresh line
    return TruthTable(2, 2, (0, 2, 2, 1), ("w1", "w2"))


CASES = {
    "present_sbox-3100": (lambda: benchmarks.get("present_sbox"), "3100",
        "42243c78d578aef98f95aaacd25f5d8d417944a67e7be715065426bb94d34554"),
    "present_sbox-4000": (lambda: benchmarks.get("present_sbox"), "4000",
        "f2885a389c684aabdd8e9658a41d7805d9cb911b09a47156678aa2a6eaa1b2ee"),
    "present_sbox-3111": (lambda: benchmarks.get("present_sbox"), "3111",
        "4c49f269ed6f9e2134b79b7819b6216aaaa4f2a66653da932540fd11a439ca27"),
    "present_sbox-3131": (lambda: benchmarks.get("present_sbox"), "3131",
        "9d1f97aa470e9cea98137f30bb7945faf3332a0053f4142acbbf6310bcd915f0"),
    "wide-3in-10out-3100": (_wide_table, "3100",
        "8c90e407e44d033f84df7f7b70e9cf5883650c423b0aa91e2dc1013a5a76bda1"),
    "w-named-inputs-3100": (_w_named_inputs, "3100",
        "4ed3348b209fd0291c0eda913d79f7aeca06b5802ee5da3176d0ad0af88751a6"),
    "hwb5-3100": (lambda: benchmarks.get("hwb5"), "3100",
        "2c61c1980f504bbaec16f95f4f2b9df9928adc737ab46322b3e48a8497885171"),
    # cube sharing with overlap hoists, K=3 factoring, parent reduction
    "aes_sbox-3131": (lambda: benchmarks.get("aes_sbox"), "3131",
        "cb207abf522cb852db17895d16880d2b92632f09867bfaaf64f75613c8e527e4"),
    # K=3 and K=5 kernel factoring on the largest built-in
    "aes_sbox-3130": (lambda: benchmarks.get("aes_sbox"), "3130",
        "7e9892b2dead1937cbd4aef383d665a7c708ca3ddb352b66d2d90df341cf59fb"),
    "aes_sbox-3150": (lambda: benchmarks.get("aes_sbox"), "3150",
        "588bc359f8a4b7545785f069c58769e43effebe136862f168109b6e30cab921f"),
}


def _digest(circuit, report) -> str:
    text = format_circuit(circuit, report)
    # the text form reads back to the same circuit
    assert format_circuit(parse_circuit_text(text), report) == text
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_synthesized_circuit_digest(case):
    build, code, golden = CASES[case]
    assert _digest(*synthesize(build(), _tckp(code))) == golden


def test_ancilla_free_circuit_digest():
    perm = Permutation((0, 7, 1, 14, 2, 9, 3, 12, 4, 11, 5, 10, 6, 13, 8, 15))
    assert _digest(*ancilla_free_synthesize(perm)) == \
        "e6717346593929312bfd303fbedd555410cad3418a2605a197c56ec00f5a3fa4"


def test_ancilla_free_four_variable_batch_digest():
    # 100 seeded 4-variable permutations; 5 of them do not converge (4 stuck
    # clearing three-literal cubes, 1 at the substitution cap), so the
    # messages are pinned along with the circuits
    rng = random.Random(2)
    h = hashlib.sha256()
    for _ in range(100):
        images = list(range(16))
        rng.shuffle(images)
        try:
            text = format_circuit(*ancilla_free_synthesize(
                Permutation(tuple(images))))
        except NonConvergenceError as e:
            text = f"NonConvergenceError: {e}\n"
        h.update(text.encode())
    assert h.hexdigest() == \
        "8d6057fbc06b7d71bebb7674281fa84a546e110d52ffec8360a7fed6a8abe787"


CSV_CASES = {
    "synth-exhaustive-2": (["synth", "--exhaustive", "2"],
        "6ef0ed11ed7f870782b2a96565e323b98c7546c575ae72325cd9d282aca4a481"),
    "ancilla-free-exhaustive-2": (["ancilla-free", "--exhaustive", "2"],
        "2a762822c82f3fdfe9ce05aad37229acc31f542a8e25b397fe105a5707c8eab9"),
    "present_sbox-grid": (["sweep", "--in", "bench:present_sbox", "--grid",
                           "T=3,4", "C=0,1", "K=0..2", "P=0,1"],
        "cd1c53c6902485f6876e765b6d230159243114e32d67ee57cc2565dadfa94e80"),
}


@pytest.mark.parametrize("case", sorted(CSV_CASES))
def test_report_csv_digest(case, tmp_path):
    argv, golden = CSV_CASES[case]
    report = tmp_path / "r.csv"
    assert run_cli(argv + ["--report", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == golden

"""Golden digests: emitted circuits are pinned byte for byte.

Each case hashes `format_circuit(circuit, report)`, so a change to the
gate list, line names, line order, output labels or roles shows up here
even when the circuit still verifies.  The report CSVs of the three sweep
modes of the command line are pinned the same way.
"""

import hashlib
import random

import pytest

from esopsyn import benchmarks, circuit as circuit_module, mapper
from esopsyn.ancilla_free import NonConvergenceError, POLICY_COMMON_CONTROL, \
    POLICY_UNIQUE_PAIR, ancilla_free_synthesize
from esopsyn.circuit import line_functions
from esopsyn.cli import run_cli
from esopsyn.funcs import Permutation, TruthTable
from esopsyn.io import format_circuit, parse_circuit_text
from esopsyn.mapper import synthesize
from esopsyn.optimize import OptimizeParams


def _tckp(code: str) -> OptimizeParams:
    t, c, k, p = (int(ch) for ch in code)
    return OptimizeParams(t, bool(c), k, bool(p))


def _wide_table() -> TruthTable:
    # 3 inputs, 10 outputs: duplicated functions, constant 0 and constant 1;
    # the second constant 0 (y10) is a fresh line with no gate
    x1, x2, x3 = 0b10101010, 0b11001100, 0b11110000
    full = 0xFF
    columns = [x1 & x2, x1 ^ x3, x1, x1 & x2, 0, full, x2 & x3 ^ x1,
               x1 ^ x3, full, 0]
    return TruthTable.from_columns(3, columns)


def _permutation(n: int, seed: int = 1) -> Permutation:
    images = list(range(1 << n))
    random.Random(seed).shuffle(images)
    return Permutation(tuple(images))


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
        "e70f06d1d40bd0e85a8dce52848b0cbfbb5de98c5b65f9b1a6d7582c20a800cd"),
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
    # parent reduction hits during mapping, each followed by a relabel
    "hwb8-3111": (lambda: benchmarks.get("hwb8"), "3111",
        "57a78e20091d217bb96c6a422bd1736bb1870cdf69f1843653f9eecf532cef09"),
    "aes_sbox-3111": (lambda: benchmarks.get("aes_sbox"), "3111",
        "b4734077264cb53107e077abab43ccbb585200c214868111e7b2971b2a0dd37e"),
    # parent reduction on, but no candidate has a rewrite's shape
    "perm10-3101": (lambda: _permutation(10), "3101",
        "57e4594fc38e94a5b7e671dc1a822548cd2794e9cae91e01feec12849324054a"),
    # K=1 factoring on 1,024-bit words, the widest that rank only the
    # level-one kernels
    "perm10-3110": (lambda: _permutation(10), "3110",
        "9410ca28e3ac3b65f93e6d87f348fa299c9e77a6b23d9e0f536c48539747e11e"),
    # cube sharing over three-child and nodes: K=3 factoring on the
    # largest built-in, and the flat form of a 10-input permutation
    "aes_sbox-4130": (lambda: benchmarks.get("aes_sbox"), "4130",
        "3925469f9d8c3bed6d89f520a2704c0866302502fc8284f0af749f79576a338a"),
    "perm10-4100": (lambda: _permutation(10), "4100",
        "df40e87ed3786c5e69ae66c9f719bf71e100456b5807e597a279c9edc5877017"),
    # wide and nodes: cube chains of two or three levels that end in one
    # another, on the flat form of a 10-input permutation and on the
    # kernel-factored largest built-in
    "perm10-5100": (lambda: _permutation(10), "5100",
        "88cece262350eac32458598af4a0f61793df2c39c8a2e758f53c6b04afd7d54e"),
    "perm10-8100": (lambda: _permutation(10), "8100",
        "8a6e30fcd8334f12a374168a6643c8a5b2272733f0097542a9fb518ad063be67"),
    "aes_sbox-6130": (lambda: benchmarks.get("aes_sbox"), "6130",
        "9263613ace9f9bef2f9b41e22899231301839992e3f0e69ecf51760bc0bb6d6f"),
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


@pytest.mark.parametrize("case", sorted(CASES))
def test_synthesize_simulates_each_gate_once(case, monkeypatch):
    # one simulation of the mapped circuit, resumed over the claim gates:
    # every gate once, and verification reads exactly what a fresh
    # simulation of the returned circuit gives
    build, code, _ = CASES[case]
    real_sim, real_verify = line_functions, mapper.verify_equivalence
    simulated, read = [], []

    def counted(c, resume=None):
        simulated.append(len(c.gates) - (resume[1] if resume else 0))
        return real_sim(c, resume)

    def reads(c, spec, words=None):
        read.append(words)
        return real_verify(c, spec, words)

    for module in (mapper, circuit_module):
        monkeypatch.setattr(module, "line_functions", counted)
    monkeypatch.setattr(mapper, "verify_equivalence", reads)
    circuit, _ = synthesize(build(), _tckp(code))
    assert sum(simulated) == len(circuit.gates)
    assert read == [real_sim(circuit)]


def test_ancilla_free_circuit_digest():
    perm = Permutation((0, 7, 1, 14, 2, 9, 3, 12, 4, 11, 5, 10, 6, 13, 8, 15))
    assert _digest(*ancilla_free_synthesize(perm)) == \
        "e6717346593929312bfd303fbedd555410cad3418a2605a197c56ec00f5a3fa4"


def test_synthesized_four_variable_batch_digest_with_parent_reduction():
    # 100 seeded 4-variable permutations at 3111; some candidates of the
    # parent-reduction pass have a rewrite's shape but every rewrite of
    # theirs would close a cycle, so the pass goes on to the next one
    rng = random.Random(2)
    h = hashlib.sha256()
    for _ in range(100):
        images = list(range(16))
        rng.shuffle(images)
        h.update(format_circuit(*synthesize(
            Permutation(tuple(images)), _tckp("3111"))).encode())
    assert h.hexdigest() == \
        "5d9aa627cc3beace6ce2f5b187c3980aff3611dd2c55efcb3ff60d45b7dbe50f"


def _four_variable_batch_digest(policy: str) -> str:
    # 100 seeded 4-variable permutations; under either policy 5 of them do
    # not converge (4 stuck clearing three-literal cubes, 1 at the
    # substitution cap), so the messages are pinned along with the circuits
    rng = random.Random(2)
    h = hashlib.sha256()
    for _ in range(100):
        images = list(range(16))
        rng.shuffle(images)
        try:
            text = format_circuit(*ancilla_free_synthesize(
                Permutation(tuple(images)), policy))
        except NonConvergenceError as e:
            text = f"NonConvergenceError: {e}\n"
        h.update(text.encode())
    return h.hexdigest()


def test_ancilla_free_four_variable_batch_digest():
    assert _four_variable_batch_digest(POLICY_UNIQUE_PAIR) == \
        "8d6057fbc06b7d71bebb7674281fa84a546e110d52ffec8360a7fed6a8abe787"


def test_ancilla_free_four_variable_batch_digest_common_control():
    assert _four_variable_batch_digest(POLICY_COMMON_CONTROL) == \
        "7e7f9b4343519d0ec0e34800944d62e1cd11147d31a119f7d4f80dbf508a80ad"


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

"""Named benchmark specifications used by the tests and demos.

Functions with a standard mathematical definition (parity, counters,
symmetric threshold functions, hidden-weighted-bit, modular adders, the
cipher S-boxes) are generated from that definition.  A few classic names
are only distributed as PLA files whose contents are not reproducible
from their name; those are deterministic stand-ins of the conventional
input/output sizes, seeded per name.
"""

from __future__ import annotations

import random

from .funcs import Permutation, TruthTable


def _table(n: int, m: int, value) -> TruthTable:
    return TruthTable(n, m, tuple(value(x) & ((1 << m) - 1) for x in range(1 << n)))


def _ones_table(n: int, counts: set[int]) -> TruthTable:
    return _table(n, 1, lambda x: 1 if x.bit_count() in counts else 0)


def _popcount_table(n: int, m: int) -> TruthTable:
    return _table(n, m, lambda x: x.bit_count())


def _mod5_table(n: int) -> TruthTable:
    return _table(n, 1, lambda x: 1 if x % 5 == 0 else 0)


def _graycode(n: int) -> Permutation:
    return Permutation(tuple(x ^ (x >> 1) for x in range(1 << n)))


def _decod24() -> TruthTable:
    return _table(2, 4, lambda x: 1 << x)


def _mod5adder() -> TruthTable:
    # two 3-bit addends, sum mod 5; defined on all inputs
    return _table(6, 3, lambda x: ((x & 7) + (x >> 3)) % 5)


def _hwb(n: int) -> Permutation:
    # rotate the word left by its own weight; weight is preserved, so
    # this is a bijection
    def rot(x: int) -> int:
        k = x.bit_count() % n
        return ((x << k) | (x >> (n - k))) & ((1 << n) - 1) if k else x
    return Permutation(tuple(rot(x) for x in range(1 << n)))


def _primes(limit: int):
    sieve = [True] * limit
    for p in range(2, limit):
        if sieve[p]:
            yield p
            for q in range(p * p, limit, p):
                sieve[q] = False


def _nth_prime_inc(n: int) -> Permutation:
    """0 stays put, slot i takes the i-th prime while primes last, and the
    leftover values fill the remaining slots in increasing order."""
    size = 1 << n
    images = [0] * size
    primes = list(_primes(size))
    for i, p in enumerate(primes, start=1):
        if i >= size:
            break
        images[i] = p
    used = set(images[:len(primes) + 1])
    leftovers = iter(sorted(set(range(size)) - used))
    for i in range(len(primes) + 1, size):
        images[i] = next(leftovers)
    return Permutation(tuple(images))


def _cycle10_2() -> Permutation:
    # a 2^10-cycle on the low block of a 12-line space
    block = 1 << 10
    return Permutation(tuple(
        (x + 1) % block if x < block else x for x in range(1 << 12)))


def _three_17() -> Permutation:
    # the 3_17 benchmark, reconstructed from its output expressions
    # f1 = ac^bc^a^c^1, f2 = a^b^c^1, f3 = ab^bc^b^c^1
    return Permutation((7, 4, 1, 6, 0, 2, 3, 5))


PRESENT_SBOX = (0xC, 0x5, 0x6, 0xB, 0x9, 0x0, 0xA, 0xD,
                0x3, 0xE, 0xF, 0x8, 0x4, 0x7, 0x1, 0x2)


def _present_sbox() -> TruthTable:
    return TruthTable(4, 4, PRESENT_SBOX)


def _gf256_mul(a: int, b: int) -> int:
    out = 0
    for _ in range(8):
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a & 0x100:
            a ^= 0x11B
    return out


def _aes_sbox_bytes() -> list[int]:
    inv = [0] * 256
    for a in range(1, 256):
        if inv[a]:
            continue
        for b in range(1, 256):
            if _gf256_mul(a, b) == 1:
                inv[a], inv[b] = b, a
                break
    out = []
    for x in range(256):
        b = inv[x]
        y = b
        for k in (1, 2, 3, 4):
            y ^= ((b << k) | (b >> (8 - k))) & 0xFF
        out.append(y ^ 0x63)
    return out


def _aes_sbox() -> TruthTable:
    return TruthTable(8, 8, tuple(_aes_sbox_bytes()))


def _seeded_table(name: str, n: int, m: int) -> TruthTable:
    rng = random.Random(f"esopsyn:{name}")
    return TruthTable(n, m, tuple(rng.randrange(1 << m) for _ in range(1 << n)))


def _seeded_permutation(name: str, n: int) -> Permutation:
    rng = random.Random(f"esopsyn:{name}")
    images = list(range(1 << n))
    rng.shuffle(images)
    return Permutation(tuple(images))


# name -> the function that makes its spec
_REGISTRY = {}


def _add(name: str, build):
    _REGISTRY[name] = build


_add("xor5", lambda: _table(5, 1, lambda x: x.bit_count() & 1))
_add("rd32", lambda: _popcount_table(3, 2))
_add("rd53", lambda: _popcount_table(5, 3))
_add("rd73", lambda: _popcount_table(7, 3))
_add("rd84", lambda: _popcount_table(8, 4))
_add("2of5", lambda: _ones_table(5, {2}))
_add("majority3", lambda: _table(3, 1, lambda x: 1 if x.bit_count() >= 2 else 0))
_add("majority5", lambda: _table(5, 1, lambda x: 1 if x.bit_count() >= 3 else 0))
_add("4mod5", lambda: _mod5_table(4))
_add("5mod5", lambda: _mod5_table(5))
_add("6sym", lambda: _ones_table(6, {2, 3, 4}))
_add("9sym", lambda: _ones_table(9, {3, 4, 5, 6}))
_add("5one013", lambda: _ones_table(5, {0, 1, 3}))
_add("5one245", lambda: _ones_table(5, {2, 4, 5}))
_add("6one135", lambda: _ones_table(6, {1, 3, 5}))
_add("6one0246", lambda: _ones_table(6, {0, 2, 4, 6}))
_add("graycode6", lambda: _graycode(6))
_add("decod24", _decod24)
_add("mod5adder", _mod5adder)
_add("3_17", _three_17)
_add("hwb4", lambda: _hwb(4))
_add("hwb5", lambda: _hwb(5))
_add("hwb6", lambda: _hwb(6))
_add("hwb7", lambda: _hwb(7))
_add("hwb8", lambda: _hwb(8))
_add("nth_prime_3_inc", lambda: _nth_prime_inc(3))
_add("nth_prime_4_inc", lambda: _nth_prime_inc(4))
_add("nth_prime_5_inc", lambda: _nth_prime_inc(5))
_add("nth_prime_6_inc", lambda: _nth_prime_inc(6))
_add("nth_prime_7_inc", lambda: _nth_prime_inc(7))
_add("nth_prime_8_inc", lambda: _nth_prime_inc(8))
_add("cycle10_2", _cycle10_2)
_add("present_sbox", _present_sbox)
_add("aes_sbox", _aes_sbox)
_add("sqr6", lambda: _table(6, 12, lambda x: x * x))

# names whose reference PLA contents are not derivable from the name:
# deterministic stand-ins at the conventional sizes
_add("4_49", lambda: _seeded_permutation("4_49", 4))
_add("ham3", lambda: _seeded_permutation("ham3", 3))
_add("ham7", lambda: _seeded_permutation("ham7", 7))
_add("alu", lambda: _seeded_table("alu", 5, 8))
_add("bw", lambda: _seeded_table("bw", 5, 28))
_add("f51m", lambda: _seeded_table("f51m", 8, 8))
_add("5xp1", lambda: _seeded_table("5xp1", 7, 10))
_add("wim", lambda: _seeded_table("wim", 4, 7))
_add("z4ml", lambda: _seeded_table("z4ml", 7, 4))

def names() -> list[str]:
    return sorted(_REGISTRY)


def get(name: str) -> TruthTable | Permutation:
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(f"unknown benchmark {name!r}; see benchmarks.names()") from None

"""Boolean function representations and truth-table <-> ANF conversions.

A truth table keeps its 2^n rows of packed output bits and, derived once,
one 2^n-bit column word per output, the form its consumers read: the GF(2)
coefficient transform is then a handful of big-int operations.  An output's
ANF is the transform of its column: one 2^n-bit coefficient word whose bit
m marks cube m, held by EsopExpression.  A variable's word
(`variable_patterns`) is both its column and the cubes that contain it.

Bit-order convention: variable x1 is the least-significant bit of the
truth-table index.  Output y1 is the least-significant bit of each row.
"""

from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import compress


@dataclass(frozen=True, slots=True)
class EsopExpression:
    """XOR of positive-polarity cubes, held as one coefficient word.

    Bit m of `coeffs` set means cube m is a term, where bit i of the cube
    mask m means variable x_{i+1} is a factor and mask 0 is the constant-1
    cube.  This is the word `mobius_bits` returns for the function's column.
    """

    n_vars: int
    coeffs: int

    @classmethod
    def from_masks(cls, n_vars: int, masks) -> "EsopExpression":
        """Build from cube masks; repeated masks cancel pairwise over GF(2)."""
        coeffs = 0
        for m in masks:
            coeffs ^= 1 << m
        return cls(n_vars, coeffs)

    @property
    def degree(self) -> int:
        return max((m.bit_count() for m in bit_support(self.coeffs)), default=0)

    def evaluate(self, x: int) -> int:
        """Brute-force evaluation; the independent oracle used by the tests."""
        return sum(x & m == m for m in bit_support(self.coeffs)) & 1

    def sorted_masks(self) -> list[int]:
        """The cube masks in cube_order."""
        return cube_order(bit_support(self.coeffs))

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        return " ^ ".join("".join(f"x{i + 1}" for i in bit_support(m)) or "1"
                          for m in self.sorted_masks())


def cube_order(masks) -> list[int]:
    """Deterministic cube order: by degree, then mask value."""
    return sorted(sorted(masks), key=int.bit_count)   # the sort is stable


def _default_names(prefix: str, count: int) -> list[str]:
    return [f"{prefix}{i + 1}" for i in range(count)]


@dataclass(frozen=True)
class TruthTable:
    """Multi-output Boolean function: 2^n_inputs rows of n_outputs packed bits.

    Row index i encodes the input assignment (x1 = bit 0 of i); output j
    is bit j of rows[i], and bit i of the derived word columns[j].
    """

    n_inputs: int
    n_outputs: int
    rows: tuple[int, ...]
    input_names: tuple[str, ...] = field(default=())
    output_names: tuple[str, ...] = field(default=())
    columns: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n_inputs < 0 or self.n_outputs < 0:
            raise ValueError("negative input/output count")
        if len(self.rows) != 1 << self.n_inputs:
            raise ValueError(
                f"expected {1 << self.n_inputs} rows, got {len(self.rows)}"
            )
        for r in self.rows:
            if r < 0 or r >> self.n_outputs:
                raise ValueError(f"row value {r} wider than {self.n_outputs} outputs")
        inames = self.input_names or tuple(_default_names("x", self.n_inputs))
        onames = self.output_names or tuple(_default_names("y", self.n_outputs))
        object.__setattr__(self, "input_names", tuple(inames))
        object.__setattr__(self, "output_names", tuple(onames))
        for role, names, count in (("input", self.input_names, self.n_inputs),
                                   ("output", self.output_names, self.n_outputs)):
            if len(names) != count:
                raise ValueError(
                    f"{len(names)} {role} names given, {count} expected")
            seen = set()
            for nm in names:
                if nm in seen:
                    raise ValueError(f"{role} name {nm!r} given twice")
                seen.add(nm)
                # a circuit file splits at ',', ':' and line breaks and
                # strips names
                if nm.strip() != nm or nm.splitlines() != [nm] \
                        or "," in nm or ":" in nm:
                    raise ValueError(
                        f"{role} name {nm!r} is empty, holds ',', ':' or a line "
                        f"break, or has outer whitespace; a circuit file can't")
        object.__setattr__(self, "columns", _transpose(self.rows, self.n_outputs))

    @classmethod
    def from_columns(
        cls, n_inputs: int, columns: list[int],
        input_names=(), output_names=(),
    ) -> "TruthTable":
        """Build from per-output bitsets (bit i of columns[j] = output j at input i)."""
        size = 1 << n_inputs
        for j, col in enumerate(columns):
            if col >> size:
                raise ValueError(f"column {j} wider than 2^{n_inputs} bits")
        return cls(n_inputs, len(columns), _transpose(columns, size),
                   tuple(input_names), tuple(output_names))


def _transpose(words, width: int) -> tuple[int, ...]:
    """Bit i of result[j] is bit j of words[i], each word in [0, 2^width):
    strided slices of one string of all the bits, so linear in its length."""
    top = 1 << width   # a leading 1 keeps each word's leading zeros in bin()
    bits = "".join([bin(w | top)[3:] for w in reversed(words)])
    return tuple([int(bits[width - 1 - j::width] or "0", 2) for j in range(width)])


@dataclass(frozen=True)
class Permutation:
    """A bijection on {0, ..., 2^n - 1}, given by its image sequence."""

    images: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "images", tuple(self.images))
        size = len(self.images)
        if size == 0 or size & (size - 1):
            raise ValueError(f"permutation size {size} is not a power of two")
        if sorted(self.images) != list(range(size)):
            raise ValueError("images are not a bijection on {0..size-1}")

    @property
    def n_vars(self) -> int:
        return (len(self.images) - 1).bit_length()


@lru_cache(maxsize=None)
def variable_patterns(n: int) -> tuple[int, ...]:
    """Per variable x_{i+1}, the 2^n-bit word whose bit m is bit i of m.

    It is the variable's column in the identity table; read as a
    coefficient word it is every cube containing the variable.
    """
    return _transpose(range(1 << n), n)


def mobius_bits(bits: int, n: int) -> int:
    """Self-inverse GF(2) transform between value and ANF-coefficient bitsets.

    Equivalent to multiplying by the upper-triangular recurrence matrix
    [[A, A], [0, A]] seeded with the 1x1 identity; two applications give
    back the input.
    """
    for i, pattern in enumerate(variable_patterns(n)):
        bits ^= (bits << (1 << i)) & pattern
    return bits


def bit_support(bits: int) -> list[int]:
    """Indices of the set bits, ascending, in time linear in the word's
    length plus its set bits.  A word of up to 1024 bits is cleared from
    its top bit down.  A longer one is read from its bytes as 64-bit limbs,
    and only its nonzero limbs are decoded, so no step shifts the whole
    word."""
    if bits >> 1024:
        limbs = array("Q", bits.to_bytes(-(-bits.bit_length() // 64) * 8, "little"))
        if sys.byteorder == "big":
            limbs.byteswap()
        return [64 * i + j for i in compress(range(len(limbs)), limbs)
                for j in bit_support(limbs[i])]
    out = []
    while bits:
        top = bits.bit_length() - 1
        out.append(top)
        bits ^= 1 << top
    out.reverse()
    return out


def anf_from_truth_table(tt: TruthTable) -> list[EsopExpression]:
    """ANF (positive-polarity Reed-Muller form) of each output, in order."""
    n = tt.n_inputs
    return [EsopExpression(n, mobius_bits(col, n)) for col in tt.columns]


def truth_table_from_anf(expr: EsopExpression) -> TruthTable:
    """The one-output table of an expression (the transform is an involution)."""
    col = mobius_bits(expr.coeffs, expr.n_vars)
    return TruthTable.from_columns(expr.n_vars, [col])


def truth_table_from_permutation(p: Permutation) -> TruthTable:
    n = p.n_vars
    return TruthTable(n, n, tuple(p.images))

"""Boolean function representations and truth-table <-> ANF conversions.

Truth tables of n inputs are stored as 2^n rows of packed output bits.
Single-output columns are manipulated as 2^n-bit Python integers, which
makes the GF(2) coefficient transform a handful of big-int operations.
An output's ANF is the transform of its column: one 2^n-bit coefficient
word whose bit m marks cube m, held by EsopExpression.  A variable's word
(`variable_patterns`) is both its column and the cubes that contain it.

Bit-order convention: variable x1 is the least-significant bit of the
truth-table index.  Output y1 is the least-significant bit of each row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache


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

    Row index i encodes the input assignment (x1 = bit 0 of i); bit j of
    rows[i] is output j.
    """

    n_inputs: int
    n_outputs: int
    rows: tuple[int, ...]
    input_names: tuple[str, ...] = field(default=())
    output_names: tuple[str, ...] = field(default=())

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
        if len(self.input_names) != self.n_inputs:
            raise ValueError("input_names length mismatch")
        if len(self.output_names) != self.n_outputs:
            raise ValueError("output_names length mismatch")
        if len(set(self.input_names)) != self.n_inputs:
            raise ValueError("duplicate input names")
        if len(set(self.output_names)) != self.n_outputs:
            raise ValueError("duplicate output names")

    @classmethod
    def from_columns(
        cls, n_inputs: int, columns: list[int],
        input_names=(), output_names=(),
    ) -> "TruthTable":
        """Build from per-output bitsets (bit i of columns[j] = output j at input i)."""
        size = 1 << n_inputs
        rows = [0] * size
        for j, col in enumerate(columns):
            if col >> size:
                raise ValueError(f"column {j} wider than 2^{n_inputs} bits")
            for i in range(size):
                rows[i] |= (col >> i & 1) << j
        return cls(n_inputs, len(columns), tuple(rows), tuple(input_names),
                   tuple(output_names))

    def column_bits(self, j: int) -> int:
        """Output column j as a 2^n-bit integer (bit i = value at input i)."""
        if not 0 <= j < self.n_outputs:
            raise IndexError(f"output {j} out of range")
        col = 0
        for i, r in enumerate(self.rows):
            col |= (r >> j & 1) << i
        return col


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

    Read as a truth-table column it is the variable itself; read as a
    coefficient word it is every cube containing the variable.
    """
    full = (1 << (1 << n)) - 1
    out = []
    for i in range(n):
        step = 1 << i
        # `step` zeros then `step` ones, repeated across the 2^n bits
        out.append(full // ((1 << 2 * step) - 1) * (((1 << step) - 1) << step))
    return tuple(out)


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
    """Indices of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def anf_from_truth_table(tt: TruthTable) -> list[EsopExpression]:
    """ANF (positive-polarity Reed-Muller form) of each output, in order."""
    n = tt.n_inputs
    return [EsopExpression(n, mobius_bits(tt.column_bits(j), n))
            for j in range(tt.n_outputs)]


def truth_table_from_anf(expr: EsopExpression) -> TruthTable:
    """The one-output table of an expression (the transform is an involution)."""
    col = mobius_bits(expr.coeffs, expr.n_vars)
    return TruthTable.from_columns(expr.n_vars, [col])


def truth_table_from_permutation(p: Permutation) -> TruthTable:
    n = p.n_vars
    return TruthTable(n, n, tuple(p.images))

"""Boolean function representations and truth-table <-> ANF conversions.

Truth tables of n inputs are stored as 2^n rows of packed output bits.
Single-output columns are manipulated as 2^n-bit Python integers, which
makes the GF(2) coefficient transform a handful of big-int operations.

Bit-order convention: variable x1 is the least-significant bit of the
truth-table index.  Output y1 is the least-significant bit of each row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache


@dataclass(frozen=True, slots=True)
class Cube:
    """One positive-polarity product term, encoded as a variable bit mask.

    Bit i set means variable x_{i+1} is a factor.  The all-zero mask is
    the constant-1 cube.
    """

    mask: int

    @property
    def degree(self) -> int:
        return self.mask.bit_count()

    def variables(self) -> tuple[int, ...]:
        """0-based indices of the variables in this cube."""
        return tuple(i for i in range(self.mask.bit_length()) if self.mask >> i & 1)

    def evaluate(self, x: int) -> int:
        return 1 if x & self.mask == self.mask else 0

    def __str__(self) -> str:
        if self.mask == 0:
            return "1"
        return "".join(f"x{i + 1}" for i in self.variables())


@dataclass(frozen=True, slots=True)
class EsopExpression:
    """XOR of positive-polarity cubes (no duplicates -- they cancel over GF(2))."""

    n_vars: int
    cubes: frozenset[Cube]

    @classmethod
    def from_masks(cls, n_vars: int, masks) -> "EsopExpression":
        """Build from cube masks; repeated masks cancel pairwise."""
        acc: set[int] = set()
        for m in masks:
            acc ^= {m}
        return cls(n_vars, frozenset(Cube(m) for m in acc))

    @property
    def masks(self) -> frozenset[int]:
        return frozenset(c.mask for c in self.cubes)

    @property
    def degree(self) -> int:
        return max((c.degree for c in self.cubes), default=0)

    def evaluate(self, x: int) -> int:
        """Brute-force evaluation; the independent oracle used by the tests."""
        acc = 0
        for c in self.cubes:
            if x & c.mask == c.mask:
                acc ^= 1
        return acc

    def sorted_masks(self) -> list[int]:
        """The cube masks in cube_order."""
        return cube_order(c.mask for c in self.cubes)

    def __str__(self) -> str:
        if not self.cubes:
            return "0"
        return " ^ ".join(str(Cube(m)) for m in self.sorted_masks())


def cube_order(masks) -> list[int]:
    """Deterministic cube order: by degree, then mask value."""
    return sorted(masks, key=lambda m: (m.bit_count(), m))


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

    def single_output(self, j: int) -> "TruthTable":
        return TruthTable(
            self.n_inputs, 1, tuple(r >> j & 1 for r in self.rows),
            self.input_names, (self.output_names[j],),
        )


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
def _butterfly_masks(n: int) -> tuple[tuple[int, int], ...]:
    """(shift, low-half mask) pairs for the in-place GF(2) transform."""
    out = []
    for i in range(n):
        step = 1 << i
        block = (1 << step) - 1
        width = step * 2
        for _ in range(n - i - 1):
            block |= block << width
            width <<= 1
        out.append((step, block))
    return tuple(out)


def mobius_bits(bits: int, n: int) -> int:
    """Self-inverse GF(2) transform between value and ANF-coefficient bitsets.

    Equivalent to multiplying by the upper-triangular recurrence matrix
    [[A, A], [0, A]] seeded with the 1x1 identity; two applications give
    back the input.
    """
    for step, low in _butterfly_masks(n):
        bits ^= (bits & low) << step
    return bits


def bit_support(bits: int) -> list[int]:
    """Indices of the set bits, ascending."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def anf_from_truth_table(tt: TruthTable) -> EsopExpression:
    """ANF (positive-polarity Reed-Muller form) of a single-output table."""
    if tt.n_outputs != 1:
        raise ValueError(
            f"expected a single-output table, got {tt.n_outputs} outputs; "
            "split per output first"
        )
    coeffs = mobius_bits(tt.column_bits(0), tt.n_inputs)
    return EsopExpression.from_masks(tt.n_inputs, bit_support(coeffs))


def truth_table_from_anf(expr: EsopExpression) -> TruthTable:
    """Inverse of anf_from_truth_table (the transform is an involution)."""
    coeffs = 0
    for c in expr.cubes:
        coeffs |= 1 << c.mask
    col = mobius_bits(coeffs, expr.n_vars)
    return TruthTable.from_columns(expr.n_vars, [col])


def truth_table_from_permutation(p: Permutation) -> TruthTable:
    n = p.n_vars
    return TruthTable(n, n, tuple(p.images))

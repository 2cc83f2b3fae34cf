"""Rule-based ancilla-free synthesis for small reversible functions.

The output expressions are reduced to the identity by variable
substitutions, each corresponding to one reversible gate applied on the
input side: a CNOT substitutes target <- target ^ control, a Toffoli
substitutes target <- target ^ (product of controls).  Each output's
expression is the coefficient word of its ANF (`EsopExpression.coeffs`),
on n <= 4 variables a 16-bit word whose bit m marks cube m.
Substituting with control set C turns every cube m containing the
target t into m ^ (m without t | C), which is linear over GF(2) on
words: two 256-entry tables, indexed by a word's low and high byte,
XOR to the substituted word (`_step`).  The measure every search
minimizes (cubes of three or more literals, nonlinear cubes, literals)
is two such tables packed as `wide << 16 | nonlinear << 8 | literals`;
the fields never carry, so sums over words are measures and integer
order is tuple order.
Candidates come from one enumerator (`_candidates`) and are scored on
their substituted words (`_measure_after`), so only the steps taken build
a state; the degree-clearing phase, the T3 step and the stall rescue
differ only in the key they minimize (see `reduce_to_identity`).  Once
every expression is linear the system is an invertible affine map,
finished by column elimination, inverters for complemented outputs, and
swap triples for the residual line permutation.

Gate order equals application order: if F composed with g1..gk is the
identity then the circuit executing g1 first realizes F (all gates are
self-inverse); the equivalence check enforces this rather than trusting it.
"""

from __future__ import annotations

import functools
import itertools
import operator
import time
from dataclasses import dataclass

from .circuit import (
    Circuit, CostReport, INPUT, LineState, ROLE_OUTPUT, VerificationError,
    quantum_cost, toffoli, verify_equivalence,
)
from .funcs import Permutation, TruthTable, anf_from_truth_table, \
    bit_support, truth_table_from_permutation

POLICY_UNIQUE_PAIR = "unique-pair"   # control = the other cube's unique variable
POLICY_COMMON_CONTROL = "common-control"  # control = a shared variable

_TOO_WIDE = "rule set covers at most four variables"
# `reduce_to_identity` gives up after this many times 4^n substitutions
SUBSTITUTION_CAP_FACTOR = 10


class NonConvergenceError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class Transformation:
    """One substitution step: kind T1..T4 by control count."""

    controls: tuple[int, ...]
    target: int

    def __post_init__(self):
        object.__setattr__(self, "controls", tuple(sorted(self.controls)))
        if self.target in self.controls:
            raise ValueError("target cannot also be a control")
        if len(self.controls) > 3:
            raise ValueError("more than three controls is out of range here")

    @property
    def kind(self) -> str:
        return f"T{len(self.controls) + 1}"


def _byte_tables(per_cube, fold) -> tuple[tuple[int, ...], ...]:
    """(lo, hi): lo[b] folds per_cube(m) over the cubes m of byte b of a
    word's low half, hi[b] over cubes m + 8 of its high half."""
    return tuple(tuple(functools.reduce(fold, (per_cube(base + m)
                                               for m in bit_support(b)), 0)
                       for b in range(256)) for base in (0, 8))


def _cube_measure(m: int) -> int:
    k = m.bit_count()
    return (k >= 3) << 16 | (k >= 2) << 8 | k


_MEASURE_LO, _MEASURE_HI = _byte_tables(_cube_measure, operator.add)
_NONLINEAR = sum(1 << m for m in range(16) if m.bit_count() >= 2)
_LITERALS = sum(1 << m for m in range(16) if m.bit_count() == 1)


@dataclass(frozen=True, slots=True)
class ExpressionState:
    """Current output expressions (cube-set words) plus applied history."""

    n_vars: int
    exprs: tuple[int, ...]
    history: tuple[Transformation, ...] = ()

    @property
    def last_applied(self) -> Transformation | None:
        return self.history[-1] if self.history else None

    def is_linear(self) -> bool:
        return not any(w & _NONLINEAR for w in self.exprs)

    def is_terminal(self) -> bool:
        """Every expression is one single-literal cube, no two alike."""
        return (all(w & _LITERALS and not w & (w - 1) for w in self.exprs)
                and len(set(self.exprs)) == len(self.exprs))


@functools.cache
def _step(controls: tuple[int, ...], target: int):
    """(t, lo, hi): the interned substitution for sorted `controls` and
    `target`, and its tables: it turns word w into lo[w & 255] ^ hi[w >> 8].
    Built on first use; n <= 4 has 32 (4 targets times 8 control sets)."""
    t_bit = 1 << target
    c_mask = sum(1 << c for c in controls)

    def image(m):
        return (1 << m) ^ (1 << ((m & ~t_bit) | c_mask)) if m & t_bit else 1 << m

    return (Transformation(controls, target),
            *_byte_tables(image, operator.xor))


def apply_substitution(state: ExpressionState, t: Transformation) -> ExpressionState:
    """Replace the target variable by target ^ (product of controls)
    throughout; duplicate cubes cancel over GF(2)."""
    _, lo, hi = _step(t.controls, t.target)
    return ExpressionState(state.n_vars,
                           tuple(lo[w & 255] ^ hi[w >> 8] for w in state.exprs),
                           state.history + (t,))


def _measure(state: ExpressionState) -> int:
    """Packed (cubes with three or more literals, nonlinear cubes,
    literals) of all expressions."""
    return sum(_MEASURE_LO[w & 255] + _MEASURE_HI[w >> 8] for w in state.exprs)


def _measure_after(exprs: tuple[int, ...], lo, hi) -> int:
    """`_measure` of the words `exprs` after the substitution with tables
    `lo`, `hi`, without building a state."""
    total = 0
    for w in exprs:
        w = lo[w & 255] ^ hi[w >> 8]
        total += _MEASURE_LO[w & 255] + _MEASURE_HI[w >> 8]
    return total


@functools.cache
def _candidates(n: int, widths: tuple[int, ...]):
    """`_step` of every substitution with a control count in `widths`,
    ordered by width, then target, then control combination; stops at the
    first width that leaves no variable free for the target."""
    out = []
    for width in widths:
        if width >= n:
            break
        for target in range(n):
            others = [v for v in range(n) if v != target]
            out += (_step(controls, target)
                    for controls in itertools.combinations(others, width))
    return tuple(out)


def _best(state: ExpressionState, widths, key):
    """(key, substitution) with the smallest key(t, _measure(after)), or
    None when no candidate exists.  Every key ends in the substitution's
    full (target, controls), so keys never tie."""
    exprs = state.exprs
    return min(((key(t, _measure_after(exprs, lo, hi)), t)
                for t, lo, hi in _candidates(state.n_vars, widths)),
               default=None)


_WIDTHS = (1, 2, 3)


def _t3_key(t, m):
    """T3 step: fewest nonlinear cubes, then fewest literals."""
    return m & 0xFFFF, t.target, t.controls


def _degree_key(t, m):
    """Degree-clearing phase: the whole measure, then the narrowest gate."""
    return m, len(t.controls), t.target, t.controls


def _rescue_key(t, m):
    """Stall rescue: (nonlinear cubes, literals), then controls first."""
    return m & 0xFFFF, t.controls, t.target


@functools.cache
def _pair_pool(c1: int, c2: int, policy: str):
    """((target, control), `_step`) of the CNOTs that nonlinear cubes
    c1 < c2 suggest, in (target, control) order; none when they share no
    variable.  n <= 4 has 2 * C(11, 2) = 110 (c1, c2, policy) keys."""
    common = c1 & c2
    if not common:
        return ()
    u1, u2 = c1 & ~c2, c2 & ~c1
    if policy == POLICY_UNIQUE_PAIR:
        pool = [(u, v) for u in bit_support(u1) for v in bit_support(u2)]
        pool += [(u, v) for u in bit_support(u2) for v in bit_support(u1)]
    else:
        pool = [(u, v) for v in bit_support(common)
                for u in bit_support(u1 | u2)]
    return tuple(((target, control), _step((control,), target))
                 for target, control in sorted(set(pool)))


def _t2_candidates(state: ExpressionState, policy: str):
    """Candidate CNOT substitutions, as `_step` entries, from pairs of
    nonlinear cubes that share a variable, in a fixed deterministic order."""
    seen = set()
    for w in state.exprs:
        for c1, c2 in itertools.combinations(bit_support(w & _NONLINEAR), 2):
            for pair, entry in _pair_pool(c1, c2, policy):
                if pair not in seen:
                    seen.add(pair)
                    yield entry


def check_T2(state: ExpressionState,
             policy: str = POLICY_UNIQUE_PAIR) -> Transformation | None:
    """First CNOT substitution that strictly lowers the nonlinear cube
    count of a nonlinear state."""
    nonlinear = _measure(state) >> 8 & 255
    for t, lo, hi in _t2_candidates(state, policy):
        if (_measure_after(state.exprs, lo, hi) >> 8 & 255) < nonlinear:
            return t
    return None


def _stall_rescue(state: ExpressionState, before: int) -> list[Transformation]:
    """When no single preferred substitution helps, look for any width-1..3
    substitution, then the first pair in enumeration order, that strictly
    lowers the packed (nonlinear cubes, literals) below `before`."""
    found = _best(state, _WIDTHS, _rescue_key)
    if found is not None and found[0][0] < before:
        return [found[1]]
    candidates = _candidates(state.n_vars, _WIDTHS)
    for t1, _, _ in candidates:
        mid = apply_substitution(state, t1).exprs
        for t2, lo, hi in candidates:
            if t2 is not t1 and _measure_after(mid, lo, hi) & 0xFFFF < before:
                return [t1, t2]
    return []


def _linear_finish_ops(n: int, exprs: tuple[int, ...]) -> tuple[Transformation, ...]:
    """Deterministic affine finisher for all-linear words.

    Column elimination drives the coefficient matrix to a permutation
    (preferring the natural diagonal pivot), inverters clear complemented
    outputs, and swap triples realize the leftover line permutation.
    Guaranteed to terminate, unlike greedy literal-count descent.  A
    singular matrix, which no permutation's state reaches, raises
    NonConvergenceError.
    """
    cols = [0] * n          # cols[j] bit i = coefficient of var j in expr i
    for i, w in enumerate(exprs):
        for j in range(n):
            cols[j] |= (w >> (1 << j) & 1) << i
    ops: list[Transformation] = []
    pivots: list[int] = []  # pivots[i]: the variable left carrying expr i
    for i in range(len(exprs)):
        row_bit = 1 << i
        free = [j for j in range(n) if cols[j] & row_bit and j not in pivots]
        if not free:
            raise NonConvergenceError("linear state is not invertible")
        p = i if i in free else free[0]
        pivots.append(p)
        for c in range(n):
            if c != p and cols[c] & row_bit:
                # substitution p <- p ^ c: c's column absorbs p's
                cols[c] ^= cols[p]
                ops.append(_step((c,), p)[0])
    ops += (_step((), p)[0] for w, p in zip(exprs, pivots) if w & 1)
    # residual permutation: selection-sort with swap triples
    perm = pivots
    for i in range(len(perm)):
        u, v = perm[i], i
        if u != v:
            ops += (_step((u,), v)[0], _step((v,), u)[0], _step((u,), v)[0])
            perm = [v if x == u else u if x == v else x for x in perm]
    return tuple(ops)


# n <= 3 has 2 + 24 + 1,344 invertible affine maps (|AGL(n, 2)|), which
# real inputs such as the exhaustive 3-variable sweep revisit; four
# variables have 322,560, so there the finisher runs uncached.
_small_finish_ops = functools.lru_cache(maxsize=2048)(_linear_finish_ops)


def reduce_to_identity(state: ExpressionState,
                       policy: str = POLICY_UNIQUE_PAIR) -> ExpressionState:
    """Run the substitution loop until every expression is a distinct
    single literal on its own line.

    While cubes of three or more literals remain, each step is the
    `_degree_key` winner of one search over widths 1..3.  Then CNOT
    substitutions are preferred; the T3 search (`_t3_key`, Toffolis only)
    takes over when none qualifies or the same step would repeat, and the
    stall rescue (`_rescue_key`, widths 1..3, then the first improving
    pair) when the T3 winner does not lower the nonlinear count.  When
    nothing strictly improves, the degree search's or (after a failed
    rescue) the T3 search's overall winner is accepted at most twice in a
    row before giving up (reported as non-convergence).

    More than `SUBSTITUTION_CAP_FACTOR * 4**n` substitutions is
    non-convergence; a degree phase whose (expressions, escapes) repeats,
    or a T2/T3 loop whose (expressions, last step, escapes) repeats, is
    cycling toward that cap and raises its error at once.  Candidates
    are scored by `_measure_after`, so `apply_substitution` runs only for
    the steps taken and the rescue's pair midpoints.
    """
    n = state.n_vars
    if n > 4:
        raise NonConvergenceError(_TOO_WIDE)
    cap = SUBSTITUTION_CAP_FACTOR * 4 ** n
    capped = f"no convergence within {cap} substitutions"
    steps = 0
    escapes = 0

    def step(t: Transformation) -> ExpressionState:
        nonlocal steps
        steps += 1
        if steps > cap:
            raise NonConvergenceError(capped)
        return apply_substitution(state, t)

    # four-variable scaling phase: clear cubes of three or more literals
    # with whichever substitution width helps most
    measure = _measure(state)
    seen = set()
    while measure >> 16:
        head = (state.exprs, escapes)
        if head in seen:        # a cycle: only the cap would end it
            raise NonConvergenceError(capped)
        seen.add(head)
        found = _best(state, _WIDTHS, _degree_key)
        if found is not None and found[0][0] < measure:
            escapes = 0
        else:
            escapes += 1
            if found is None or escapes > 2:
                raise NonConvergenceError(
                    "stuck while clearing three-literal cubes")
        (measure, _, _, _), t = found
        state = step(t)

    before = measure & 0xFFFF       # (nonlinear cubes, literals)
    seen = set()
    while not state.is_linear():
        head = (state.exprs, state.last_applied, escapes)
        if head in seen:        # a cycle: only the cap would end it
            raise NonConvergenceError(capped)
        seen.add(head)
        t = check_T2(state, policy)
        pending = [t] if t is not None and t != state.last_applied else []
        if not pending:
            t3 = _best(state, (2,), _t3_key)
            if t3 is not None and t3[0][0] >> 8 < before >> 8:
                pending = [t3[1]]
            else:
                pending = _stall_rescue(state, before)
            if not pending:
                escapes += 1
                if t3 is None or escapes > 2:
                    raise NonConvergenceError("no reducing substitution left")
                pending = [t3[1]]
        for t in pending:
            state = step(t)
        after = _measure(state) & 0xFFFF
        if after < before:
            escapes = 0
        before = after

    finish = _small_finish_ops if n <= 3 else _linear_finish_ops
    for t in finish(n, state.exprs):
        state = step(t)
    if not state.is_terminal():
        raise NonConvergenceError("affine finisher left a non-identity state")
    return state


def ancilla_free_synthesize(
    spec: TruthTable | Permutation,
    policy: str = POLICY_UNIQUE_PAIR,
) -> tuple[Circuit, CostReport]:
    """Synthesize a reversible function on exactly its own lines.

    The emitted circuit has n lines, no constants, no garbage; every line
    ends carrying its output, and lines and outputs keep the spec's
    names.  Verified by exhaustive simulation before returning; the
    report's runtime includes the check.  A table that is not a bijection
    on its own inputs, and fewer than one input, raise ValueError; more
    than four variables raise NonConvergenceError before any expression
    is built.
    """
    t0 = time.perf_counter()
    if isinstance(spec, Permutation):
        tt = truth_table_from_permutation(spec)
    else:
        tt = spec
        if tt.n_inputs != tt.n_outputs \
                or sorted(tt.rows) != list(range(len(tt.rows))):
            raise ValueError("ancilla-free mode needs a reversible spec")
    n = tt.n_inputs
    if n < 1:
        raise ValueError("need at least one input")
    if n > 4:
        raise NonConvergenceError(_TOO_WIDE)
    state = ExpressionState(n, tuple(e.coeffs for e in anf_from_truth_table(tt)))
    state = reduce_to_identity(state, policy)

    lines = []
    for i in range(n):
        lines.append(LineState(i, tt.input_names[i], INPUT,
                               role=ROLE_OUTPUT, output_name=tt.output_names[i]))
    circuit = Circuit(n, [], lines)
    for t in state.history:
        circuit.append(toffoli(t.controls, t.target))
    verdict = verify_equivalence(circuit, tt)
    if not verdict:
        raise VerificationError(
            f"gate sequence disagrees with the spec at {verdict.counterexample}")
    return circuit, quantum_cost(circuit, time.perf_counter() - t0)

"""Rule-based ancilla-free synthesis for small reversible functions.

The output expressions are reduced to the identity by variable
substitutions, each corresponding to one reversible gate applied on the
input side: a CNOT substitutes target <- target ^ control, a Toffoli
substitutes target <- target ^ (product of controls).  Substituting with
control set C turns every cube m containing the target t into
m ^ (m without t | C), which cancels pairs of nonlinear cubes when chosen
well.  Candidate substitutions come from one enumerator (`_candidates`)
and are scored by one measure (`_measure`: cubes of three or more
literals, nonlinear cubes, literals); the degree-clearing phase, the T3
step and the stall rescue differ only in the key they minimize (see
`reduce_to_identity`).  A candidate is scored by delta (`_measure_after`):
the current measure adjusted for the replacement cubes it toggles, so
only the substitutions actually taken build a new state.  Once every
expression is linear the remaining system is an invertible affine map,
finished deterministically by column elimination, inverters for
complemented outputs, and swap triples for the residual line permutation.

Gate order equals application order: if F composed with g1..gk is the
identity then the circuit executing g1 first realizes F (all gates are
self-inverse); the equivalence check enforces this rather than trusting it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .circuit import (
    Circuit, CostReport, INPUT, LineState, ROLE_OUTPUT, VerificationError,
    quantum_cost, toffoli, verify_equivalence,
)
from .funcs import Permutation, anf_from_truth_table, bit_support, \
    truth_table_from_permutation

import time

POLICY_UNIQUE_PAIR = "unique-pair"   # control = the other cube's unique variable
POLICY_COMMON_CONTROL = "common-control"  # control = a shared variable


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

    def control_mask(self) -> int:
        m = 0
        for c in self.controls:
            m |= 1 << c
        return m


@dataclass(frozen=True)
class ExpressionState:
    """Current output expressions (cube-mask sets) plus applied history."""

    n_vars: int
    exprs: tuple[frozenset[int], ...]
    history: tuple[Transformation, ...] = ()

    @property
    def last_applied(self) -> Transformation | None:
        return self.history[-1] if self.history else None

    def is_linear(self) -> bool:
        return all(m.bit_count() <= 1 for e in self.exprs for m in e)

    def is_terminal(self) -> bool:
        seen = set()
        for e in self.exprs:
            if len(e) != 1:
                return False
            (m,) = e
            if m.bit_count() != 1 or m in seen:
                return False
            seen.add(m)
        return True


def _toggles(expr: frozenset[int], t_bit: int, c_mask: int) -> set[int]:
    """The replacement cubes (m without the target) | controls of the cubes
    m containing the target, each kept when it arises an odd number of
    times; they never contain the target, so substituting toggles exactly
    these in `expr`."""
    toggled = set()
    for m in expr:
        if m & t_bit:
            repl = (m & ~t_bit) | c_mask
            if repl in toggled:
                toggled.remove(repl)
            else:
                toggled.add(repl)
    return toggled


def apply_substitution(state: ExpressionState, t: Transformation) -> ExpressionState:
    """Replace the target variable by target ^ (product of controls)
    throughout; duplicate cubes cancel over GF(2)."""
    t_bit = 1 << t.target
    c_mask = t.control_mask()
    exprs = tuple(e.symmetric_difference(_toggles(e, t_bit, c_mask))
                  for e in state.exprs)
    return ExpressionState(state.n_vars, exprs, state.history + (t,))


def _measure(state: ExpressionState) -> tuple[int, int, int]:
    """(cubes with three or more literals, nonlinear cubes, literals),
    counted in one pass over the cubes."""
    wide = nonlinear = literals = 0
    for e in state.exprs:
        for m in e:
            k = m.bit_count()
            literals += k
            nonlinear += k >= 2
            wide += k >= 3
    return wide, nonlinear, literals


def _measure_after(state: ExpressionState, base: tuple[int, int, int],
                   t: Transformation) -> tuple[int, int, int]:
    """`_measure(apply_substitution(state, t))` from `base = _measure(state)`
    without building the new state: each toggled cube leaves or joins its
    expression."""
    t_bit = 1 << t.target
    c_mask = t.control_mask()
    wide, nonlinear, literals = base
    for e in state.exprs:
        for r in _toggles(e, t_bit, c_mask):
            k = r.bit_count()
            sign = -1 if r in e else 1
            literals += sign * k
            nonlinear += sign * (k >= 2)
            wide += sign * (k >= 3)
    return wide, nonlinear, literals


@functools.cache
def _candidates(n: int, widths: tuple[int, ...]) -> tuple[Transformation, ...]:
    """Every substitution with a control count in `widths`, ordered by
    width, then target, then control combination; stops at the first
    width that leaves no variable free for the target."""
    out = []
    for width in widths:
        if width >= n:
            break
        for target in range(n):
            others = [v for v in range(n) if v != target]
            out += (Transformation(controls, target)
                    for controls in itertools.combinations(others, width))
    return tuple(out)


def _best(state: ExpressionState, widths, key):
    """(key, substitution) with the smallest key(t, _measure(after)), or
    None when no candidate exists.  Every key ends in the substitution's
    full (target, controls), so keys never tie."""
    base = _measure(state)
    return min(((key(t, _measure_after(state, base, t)), t)
                for t in _candidates(state.n_vars, widths)), default=None)


_WIDTHS = (1, 2, 3)


def _t3_key(t, m):
    """T3 step: fewest nonlinear cubes, then fewest literals."""
    return m[1], m[2], t.target, t.controls


def _degree_key(t, m):
    """Degree-clearing phase: the whole measure, then the narrowest gate."""
    return m, len(t.controls), t.target, t.controls


def _rescue_key(t, m):
    """Stall rescue: (nonlinear cubes, literals), then controls first."""
    return m[1:], t.controls, t.target


def _t2_candidates(state: ExpressionState, policy: str):
    """Candidate CNOT substitutions from pairs of nonlinear cubes that
    share a variable, in a fixed deterministic order."""
    seen = set()
    for expr in state.exprs:
        nonlinear = sorted(m for m in expr if m.bit_count() >= 2)
        for c1, c2 in itertools.combinations(nonlinear, 2):
            common = c1 & c2
            if not common:
                continue
            u1, u2 = c1 & ~c2, c2 & ~c1
            if policy == POLICY_UNIQUE_PAIR:
                pool = [(u, v) for u in bit_support(u1) for v in bit_support(u2)]
                pool += [(u, v) for u in bit_support(u2) for v in bit_support(u1)]
            else:
                pool = [(u, v) for v in bit_support(common)
                        for u in bit_support(u1 | u2)]
            for target, control in sorted(set(pool)):
                t = Transformation((control,), target)
                if t not in seen:
                    seen.add(t)
                    yield t


def check_T2(state: ExpressionState,
             policy: str = POLICY_UNIQUE_PAIR) -> Transformation | None:
    """First CNOT substitution that strictly lowers the nonlinear cube
    count of a nonlinear state."""
    base = _measure(state)
    for t in _t2_candidates(state, policy):
        if _measure_after(state, base, t)[1] < base[1]:
            return t
    return None


def _stall_rescue(state: ExpressionState,
                  before: tuple[int, int]) -> list[Transformation]:
    """When no single preferred substitution helps, look for any width-1..3
    substitution, then the first pair in enumeration order, that strictly
    lowers (nonlinear cubes, literals) below `before`."""
    found = _best(state, _WIDTHS, _rescue_key)
    if found is not None and found[0][0] < before:
        return [found[1]]
    candidates = _candidates(state.n_vars, _WIDTHS)
    for t1 in candidates:
        mid = apply_substitution(state, t1)
        base = _measure(mid)
        for t2 in candidates:
            if t2 != t1 and _measure_after(mid, base, t2)[1:] < before:
                return [t1, t2]
    return []


def _linear_finish_ops(state: ExpressionState) -> list[Transformation]:
    """Deterministic affine finisher for an all-linear state.

    Column elimination drives the coefficient matrix to a permutation
    (preferring the natural diagonal pivot), inverters clear complemented
    outputs, and swap triples realize the leftover line permutation.
    Guaranteed to terminate, unlike greedy literal-count descent.  A
    singular matrix, which no permutation's state reaches, raises
    NonConvergenceError.
    """
    n = state.n_vars
    cols = [0] * n          # cols[j] bit i = coefficient of var j in expr i
    consts = 0
    for i, e in enumerate(state.exprs):
        for m in e:
            if m == 0:
                consts |= 1 << i
            else:
                cols[m.bit_length() - 1] |= 1 << i
    ops: list[Transformation] = []

    def emit(control: int, target: int):
        # substitution target <- target ^ control: control's column
        # absorbs the target's
        cols[control] ^= cols[target]
        ops.append(Transformation((control,), target))

    pivot_of_row = {}
    used = set()
    for i in range(len(state.exprs)):
        row_bit = 1 << i
        if cols[i] & row_bit and i not in used:
            p = i
        else:
            p = next((j for j in range(n) if cols[j] & row_bit and j not in used),
                     None)
            if p is None:
                raise NonConvergenceError("linear state is not invertible")
        used.add(p)
        pivot_of_row[i] = p
        for c in range(n):
            if c != p and cols[c] & row_bit:
                emit(c, p)
    for i in range(len(state.exprs)):
        if consts >> i & 1:
            ops.append(Transformation((), pivot_of_row[i]))
    # residual permutation: selection-sort with swap triples
    perm = [pivot_of_row[i] for i in range(len(state.exprs))]
    for i in range(len(perm)):
        if perm[i] == i:
            continue
        u, v = perm[i], i
        for c, t in ((u, v), (v, u), (u, v)):
            ops.append(Transformation((c,), t))
        for k in range(len(perm)):
            if perm[k] == u:
                perm[k] = v
            elif perm[k] == v:
                perm[k] = u
    return ops


def reduce_to_identity(state: ExpressionState,
                       policy: str = POLICY_UNIQUE_PAIR,
                       iteration_cap: int | None = None) -> ExpressionState:
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

    More than `iteration_cap` substitutions (default 10 * 4**n) is
    non-convergence; a degree phase whose (expressions, escapes) repeats,
    or a T2/T3 loop whose (expressions, last step, escapes) repeats, is
    cycling toward that cap and raises its error at once.  Candidates
    are scored by `_measure_after`, so `apply_substitution` runs only for
    the steps taken and the rescue's pair midpoints.
    """
    n = state.n_vars
    if n > 4:
        raise NonConvergenceError("rule set covers at most four variables")
    cap = iteration_cap if iteration_cap is not None else 10 * 4 ** n
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
    while measure[0] > 0:
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

    seen = set()
    while not state.is_linear():
        head = (state.exprs, state.last_applied, escapes)
        if head in seen:        # a cycle: only the cap would end it
            raise NonConvergenceError(capped)
        seen.add(head)
        before = _measure(state)[1:]
        t = check_T2(state, policy)
        pending = [t] if t is not None and t != state.last_applied else []
        if not pending:
            t3 = _best(state, (2,), _t3_key)
            if t3 is not None and t3[0][0] < before[0]:
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
        if _measure(state)[1:] < before:
            escapes = 0

    for t in _linear_finish_ops(state):
        state = step(t)
    if not state.is_terminal():
        raise NonConvergenceError("affine finisher left a non-identity state")
    return state


def ancilla_free_synthesize(
    spec: Permutation,
    policy: str = POLICY_UNIQUE_PAIR,
    verify: bool = True,
) -> tuple[Circuit, CostReport]:
    """Synthesize a reversible function on exactly its own lines.

    The emitted circuit has n lines, no constants, no garbage; every line
    ends carrying its output.  Verified by exhaustive simulation before
    returning.
    """
    t0 = time.perf_counter()
    tt = truth_table_from_permutation(spec)
    n = tt.n_inputs
    exprs = tuple(anf_from_truth_table(tt.single_output(j)).masks
                  for j in range(n))
    state = ExpressionState(n, exprs)
    state = reduce_to_identity(state, policy)

    lines = []
    for i in range(n):
        lines.append(LineState(i, f"x{i + 1}", INPUT,
                               role=ROLE_OUTPUT, output_name=tt.output_names[i]))
    circuit = Circuit(n, [], lines)
    for t in state.history:
        circuit.append(toffoli(t.controls, t.target))
    report = quantum_cost(circuit, time.perf_counter() - t0)
    if verify:
        verdict = verify_equivalence(circuit, tt)
        if not verdict:
            raise VerificationError(
                f"gate sequence disagrees with the spec at {verdict.counterexample}")
    return circuit, report

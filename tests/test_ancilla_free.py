import itertools
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from esopsyn import ancilla_free
from esopsyn.ancilla_free import (
    ExpressionState, NonConvergenceError, POLICY_COMMON_CONTROL,
    Transformation, _WIDTHS, _best, _degree_key, _linear_finish_ops,
    _measure, _measure_after, _stall_rescue, _step, _t3_key,
    ancilla_free_synthesize, apply_substitution, check_T2, reduce_to_identity,
)
from esopsyn.circuit import simulate
from esopsyn.funcs import Permutation, anf_from_truth_table, bit_support, \
    truth_table_from_permutation

def _state(n, exprs):
    """An ExpressionState from one collection of cube masks per expression."""
    return ExpressionState(n, tuple(sum(1 << m for m in masks)
                                    for masks in exprs))


# the three-output benchmark whose reduction is traced in the docs:
# f1 = ac^bc^a^c^1, f2 = a^b^c^1, f3 = ab^bc^b^c^1 (a=x1, b=x2, c=x3)
F1 = frozenset({0b101, 0b110, 0b001, 0b100, 0b000})
F2 = frozenset({0b001, 0b010, 0b100, 0b000})
F3 = frozenset({0b011, 0b110, 0b010, 0b100, 0b000})
THREE_17_STATE = _state(3, (F1, F2, F3))
THREE_17 = Permutation((7, 4, 1, 6, 0, 2, 3, 5))


def _fields(m):
    """(wide, nonlinear, literals) of a packed measure."""
    return m >> 16, m >> 8 & 255, m & 255


def test_substituting_the_shared_pair_merges_two_products():
    t = check_T2(THREE_17_STATE)
    assert t == Transformation((1,), 0)       # control b, target a
    after = apply_substitution(THREE_17_STATE, t)
    assert after.exprs == _state(3, (
        {0b101, 0b001, 0b010, 0b100, 0b000},   # ac^a^b^c^1
        {0b001, 0b100, 0b000},                 # a^c^1
        {0b011, 0b110, 0b100, 0b000},          # ab^bc^c^1
    )).exprs
    assert _fields(_measure(after)) == (0, 3, 12)   # no 3-literal cube, 3 nonlinear


def test_substitution_is_an_involution():
    t = Transformation((1,), 0)
    state = _state(3, ({0b001},))
    once = apply_substitution(state, t)
    assert once.exprs == _state(3, ({0b001, 0b010},)).exprs  # a -> a^b
    twice = apply_substitution(once, t)
    assert twice.exprs == state.exprs


def test_check_T2_on_linear_states_reduces_literals():
    # a linear state is the affine finisher's job; its first step is the
    # literal-reducing CNOT
    state = _state(3, ({0b001, 0b010},  # a^b
                       {0b010},         # b
                       {0b100}))        # c
    ops = _linear_finish_ops(3, state.exprs)
    assert ops[0] == Transformation((1,), 0)       # reroute through b
    assert _linear_finish_ops(
        2, _state(2, ({0b01}, {0b10})).exprs) == ()


def _find_T3(state):
    """The T3 step of reduce_to_identity: the winner when it strictly
    lowers the nonlinear cube count, else None."""
    found = _best(state, (2,), _t3_key)
    if found is not None and _fields(found[0][0])[1] < _fields(_measure(state))[1]:
        return found[1]
    return None


def test_find_T3_cancels_a_lone_product():
    state = _state(3, ({0b011, 0b100},  # ab ^ c
                       {0b001},
                       {0b010}))
    t = _find_T3(state)
    assert t == Transformation((0, 1), 2)
    after = apply_substitution(state, t)
    assert _fields(_measure(after))[1] == 0
    assert reduce_to_identity(state).history[0] == t


def test_find_T3_gives_up_when_nothing_decreases():
    linear = _state(2, ({0b01}, {0b10}))
    assert _best(linear, (2,), _t3_key) is None     # no Toffoli on 2 lines
    assert _find_T3(linear) is None
    stuck = _state(3, ({0b011}, {0b101}, {0b110}))
    assert _find_T3(stuck) is None


def test_find_T4_clears_a_wide_cube():
    state = _state(4, ({0b0111, 0b1000},   # abc ^ d
                       {0b0001},
                       {0b0010},
                       {0b0100}))
    assert _fields(_measure(state)) == (1, 1, 7)
    key, t = _best(state, _WIDTHS, _degree_key)
    assert t == Transformation((0, 1, 2), 3)
    assert key[0] == _measure(apply_substitution(state, t))
    assert _fields(key[0]) == (0, 0, 4)
    # the degree-clearing phase takes it as the first step
    assert reduce_to_identity(state).history[0] == t


def test_measure_counts_wide_and_nonlinear_cubes_and_literals():
    state = _state(4, ({0b1111, 0b0111, 0b0011, 0b0001},
                       {0b0000, 0b1010}))
    assert _fields(_measure(state)) == (2, 4, 4 + 3 + 2 + 1 + 0 + 2)
    assert _measure(_state(2, ((),) * 2)) == 0


_STATES = st.integers(1, 4).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.frozensets(st.integers(0, (1 << n) - 1)), max_size=4)))


def _ref_substitute(expr, target, controls):
    """Substitute target <- target ^ (product of controls) in a set of cube
    masks, cube by cube: a cube m containing the target stays and adds
    (m without the target) | controls; equal cubes cancel in pairs."""
    t_bit = 1 << target
    c_mask = sum(1 << c for c in controls)
    out = set()
    for m in expr:
        out ^= {m}
        if m & t_bit:
            out ^= {(m & ~t_bit) | c_mask}
    return frozenset(out)


def _ref_count(exprs):
    """(cubes of three or more literals, nonlinear cubes, literals)."""
    degrees = [m.bit_count() for e in exprs for m in e]
    return (sum(k >= 3 for k in degrees), sum(k >= 2 for k in degrees),
            sum(degrees))


def _all_substitutions(n):
    for target in range(n):
        others = [v for v in range(n) if v != target]
        for width in range(min(3, n - 1) + 1):
            for controls in itertools.combinations(others, width):
                yield target, controls


@given(_STATES)
@example((2, [frozenset({0b11, 0b01})]))  # both cubes of target a become b
@settings(max_examples=60, deadline=None)
def test_measure_after_equals_the_measure_of_the_substituted_state(case):
    n, exprs = case
    state = _state(n, exprs)
    assert _fields(_measure(state)) == _ref_count(exprs)
    for target, controls in _all_substitutions(n):
        t = Transformation(controls, target)
        after = [_ref_substitute(e, target, controls) for e in exprs]
        _, lo, hi = _step(t.controls, t.target)
        assert _fields(_measure_after(state.exprs, lo, hi)) == _ref_count(after)
        assert [frozenset(bit_support(w)) for w in
                apply_substitution(state, t).exprs] == after


@given(st.integers(1, 4).flatmap(
    lambda n: st.tuples(st.just(n), st.integers(0, (1 << (1 << n)) - 1))))
@settings(max_examples=60, deadline=None)
def test_packed_toggles_and_measure_match_the_cube_set_reference(case):
    # one word over n variables: bit m set means cube m is present
    n, w = case
    expr = frozenset(bit_support(w))
    assert _fields(_measure(ExpressionState(n, (w,)))) == _ref_count([expr])
    for target, controls in _all_substitutions(n):
        _, lo, hi = _step(controls, target)
        image = lo[w & 255] ^ hi[w >> 8]
        after = _ref_substitute(expr, target, controls)
        assert frozenset(bit_support(w ^ image)) == expr ^ after   # toggles
        assert _fields(_measure_after((w,), lo, hi)) == _ref_count([after])


def test_a_degree_phase_cycle_stops_at_its_first_repeat(monkeypatch):
    # draw #295 of random.Random(1)'s 4-variable permutations (af4#295 of
    # the benchmark's small workload) reaches a 2-cycle while clearing
    # three-literal cubes; it used to spin to the 2,560-substitution cap
    rng = random.Random(1)
    for _ in range(296):
        images = list(range(16))
        rng.shuffle(images)
    calls = 0
    real = ancilla_free.apply_substitution

    def counted(state, t):
        nonlocal calls
        calls += 1
        return real(state, t)

    monkeypatch.setattr(ancilla_free, "apply_substitution", counted)
    with pytest.raises(NonConvergenceError,
                       match="^no convergence within 2560 substitutions$"):
        ancilla_free_synthesize(Permutation(tuple(images)))
    assert 0 < calls <= 20


def test_a_t2_t3_cycle_stops_at_its_first_repeat(monkeypatch):
    # a linear-phase state whose T2/T3 steps cycle; it used to spin to the
    # 640-substitution cap with 3,520 apply_substitution calls
    calls = 0
    real = ancilla_free.apply_substitution

    def counted(state, t):
        nonlocal calls
        calls += 1
        return real(state, t)

    monkeypatch.setattr(ancilla_free, "apply_substitution", counted)
    state = _state(3, ({2}, {3}, {3, 5}))
    with pytest.raises(NonConvergenceError,
                       match="^no convergence within 640 substitutions$"):
        reduce_to_identity(state)
    assert 0 < calls <= 40


def test_a_singular_linear_state_is_reported_as_non_convergence():
    # both outputs are x1: no invertible finisher exists
    state = _state(2, ({1}, {1}))
    with pytest.raises(NonConvergenceError, match="^linear state is not invertible$"):
        reduce_to_identity(state)


def test_identity_needs_no_gates():
    circ, rep = ancilla_free_synthesize(Permutation(tuple(range(8))))
    assert rep.gate_count == 0
    assert rep.line_count == 3
    assert rep.garbage_count == rep.ancilla_count == 0


def test_three_17_first_gate_and_line_count():
    circ, rep = ancilla_free_synthesize(THREE_17)
    assert str(circ.gates[0]) == "t2 1,0"
    assert rep.line_count == 3
    assert rep.garbage_count == 0 and rep.ancilla_count == 0


def test_gate_order_realizes_the_function():
    rng = random.Random(6)
    for _ in range(50):
        images = list(range(8))
        rng.shuffle(images)
        circ, _ = ancilla_free_synthesize(Permutation(tuple(images)))
        for x in range(8):
            assert simulate(circ, x) == images[x]


def test_progress_and_history_shape():
    state = reduce_to_identity(THREE_17_STATE)
    assert state.is_terminal()
    assert all(t.kind in ("T1", "T2", "T3") for t in state.history)
    assert len(state.history) <= 10 * 4 ** 3


def test_iteration_cap_reports_non_convergence(monkeypatch):
    monkeypatch.setattr(ancilla_free, "SUBSTITUTION_CAP_FACTOR", 0)
    with pytest.raises(NonConvergenceError,
                       match="^no convergence within 0 substitutions$"):
        reduce_to_identity(THREE_17_STATE)


def test_too_many_variables_is_rejected(monkeypatch):
    message = "^rule set covers at most four variables$"
    with pytest.raises(NonConvergenceError, match=message):
        reduce_to_identity(_state(5, ({0b1},) * 5))
    # a 5-variable spec fails before any output's ANF is built
    calls = 0
    real = ancilla_free.anf_from_truth_table

    def counted(tt):
        nonlocal calls
        calls += 1
        return real(tt)

    monkeypatch.setattr(ancilla_free, "anf_from_truth_table", counted)
    with pytest.raises(NonConvergenceError, match=message):
        ancilla_free_synthesize(Permutation(tuple(range(32))))
    assert calls == 0


def test_alternate_control_policy_still_verifies_when_it_converges():
    rng = random.Random(14)
    done = 0
    for _ in range(60):
        images = list(range(8))
        rng.shuffle(images)
        try:
            circ, rep = ancilla_free_synthesize(
                Permutation(tuple(images)), policy=POLICY_COMMON_CONTROL)
        except NonConvergenceError:
            continue   # this reading of the rule does stall on some inputs
        done += 1
        assert rep.line_count == 3
    assert done > 0


def test_four_variable_benchmarks_converge():
    from esopsyn import benchmarks
    for name in ("hwb4", "nth_prime_4_inc", "4_49"):
        spec = benchmarks.get(name)
        circ, rep = ancilla_free_synthesize(spec)
        assert rep.line_count == 4
        assert rep.garbage_count == 0 and rep.ancilla_count == 0


# -- the search before it was folded into one enumerator -----------------------
# A test-side copy of the three loops the engine used to run: the T3
# search, the degree clearer and the stall rescue, each with its own
# enumeration and its own measures.  The single search must pick exactly
# what they picked.

def _cubes(state):
    return [m for w in state.exprs for m in bit_support(w)]


def _ref_nonlinear(state):
    return sum(1 for m in _cubes(state) if m.bit_count() >= 2)


def _ref_literals(state):
    return sum(m.bit_count() for m in _cubes(state))


def _ref_high_degree(state):
    return sum(1 for m in _cubes(state) if m.bit_count() >= 3)


def _ref_search_controls(state, n_controls, measure):
    before = measure(state)
    best = None
    best_key = None
    for target in range(state.n_vars):
        others = [v for v in range(state.n_vars) if v != target]
        for controls in itertools.combinations(others, n_controls):
            t = Transformation(controls, target)
            after = apply_substitution(state, t)
            key = (measure(after), _ref_literals(after), target, controls)
            if best_key is None or key < best_key:
                best, best_key = t, key
    if best is None or best_key[0] >= before:
        return None, best
    return best, best


def _ref_degree_measure(state):
    return (_ref_high_degree(state), _ref_nonlinear(state),
            _ref_literals(state))


def _ref_best_degree_clearer(state):
    before = _ref_degree_measure(state)
    best = None
    best_key = None
    for n_controls in (1, 2, 3):
        if n_controls >= state.n_vars:
            break
        for target in range(state.n_vars):
            others = [v for v in range(state.n_vars) if v != target]
            for controls in itertools.combinations(others, n_controls):
                t = Transformation(controls, target)
                m = _ref_degree_measure(apply_substitution(state, t))
                key = (m, n_controls, target, controls)
                if best_key is None or key < best_key:
                    best, best_key = t, key
    if best is not None and best_key[0] < before:
        return best, best
    return None, best


def _ref_lex(state):
    return (_ref_nonlinear(state), _ref_literals(state))


def _ref_all_candidates(state):
    widths = (1, 2, 3) if state.n_vars >= 4 else (1, 2)
    for n_controls in widths:
        if n_controls >= state.n_vars:
            return
        for target in range(state.n_vars):
            others = [v for v in range(state.n_vars) if v != target]
            for controls in itertools.combinations(others, n_controls):
                yield Transformation(controls, target)


def _ref_stall_rescue(state):
    before = _ref_lex(state)
    best = []
    best_key = None
    for t in _ref_all_candidates(state):
        key = (_ref_lex(apply_substitution(state, t)), t.controls, t.target)
        if best_key is None or key < best_key:
            best, best_key = [t], key
    if best_key is not None and best_key[0] < before:
        return best
    for t1 in _ref_all_candidates(state):
        mid = apply_substitution(state, t1)
        for t2 in _ref_all_candidates(mid):
            if t2 == t1:
                continue
            if _ref_lex(apply_substitution(mid, t2)) < before:
                return [t1, t2]
    return []


def _pick(found, before, field=lambda m: m):
    """(strict improver or None, overall winner or None) from _best, where
    `field` of the key's measure must fall below `before`."""
    if found is None:
        return None, None
    key, t = found
    return (t if field(key[0]) < before else None), t


def _search_states():
    """Seeded 3- and 4-variable states: permutation ANFs, states taken
    mid-reduction from reduce_to_identity histories, and random cube sets
    (which often stall, so the rescue's pair search runs)."""
    rng = random.Random(2024)
    states = []
    for n, count in ((3, 60), (4, 40)):
        for _ in range(count):
            images = list(range(1 << n))
            rng.shuffle(images)
            tt = truth_table_from_permutation(Permutation(tuple(images)))
            start = ExpressionState(n, tuple(
                e.coeffs for e in anf_from_truth_table(tt)))
            states.append(start)
            try:
                history = reduce_to_identity(start).history
            except NonConvergenceError:
                continue
            state = start
            for k, t in enumerate(history):
                state = apply_substitution(state, t)
                if rng.random() < 0.3 and not state.is_linear():
                    states.append(ExpressionState(n, state.exprs,
                                                  history[:k + 1]))
    for _ in range(40):
        n = rng.choice((3, 4))
        states.append(_state(n, (
            [m for m in range(1 << n) if rng.random() < 0.3]
            for _ in range(n))))
    return states


def test_single_search_picks_what_the_three_loops_picked():
    states = _search_states()
    assert len(states) >= 300
    rescued = paired = 0
    for state in states:
        measure = _measure(state)
        assert _fields(measure) == _ref_degree_measure(state)
        assert _pick(_best(state, _WIDTHS, _degree_key), measure) == \
            _ref_best_degree_clearer(state)
        assert _pick(_best(state, (2,), _t3_key), _fields(measure)[1],
                     lambda m: _fields(m)[1]) == \
            _ref_search_controls(state, 2, _ref_nonlinear)
        if state.is_linear():
            continue
        picks = _stall_rescue(state, measure & 0xFFFF)
        assert picks == _ref_stall_rescue(state)
        rescued += len(picks) == 1
        paired += len(picks) == 2
    # both halves of the rescue were exercised
    assert rescued and paired

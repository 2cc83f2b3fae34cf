import random

import pytest
from hypothesis import given, settings, strategies as st

from esopsyn.funcs import (
    EsopExpression, Permutation, TruthTable, anf_from_truth_table,
    mobius_bits, truth_table_from_anf, truth_table_from_permutation,
    variable_patterns,
)


def table_from_ones(n, ones):
    col = 0
    for i in ones:
        col |= 1 << i
    return TruthTable.from_columns(n, [col])


FOUR_MOD_FIVE = table_from_ones(4, (0, 5, 10, 15))

# 1 ^ x1 ^ x2 ^ x1x2 ^ x3 ^ x2x3 ^ x4 ^ x1x4 ^ x3x4
FOUR_MOD_FIVE_CUBES = (
    0b0000, 0b0001, 0b0010, 0b0011, 0b0100, 0b0110, 0b1000, 0b1001, 0b1100)


def test_constant_zero_has_empty_cube_set():
    for n in (1, 3, 5):
        tt = TruthTable(n, 1, tuple([0] * (1 << n)))
        (expr,) = anf_from_truth_table(tt)
        assert expr.coeffs == 0 and expr.sorted_masks() == []


def test_single_variable_identity():
    tt = TruthTable(1, 1, (0, 1))
    (expr,) = anf_from_truth_table(tt)
    assert expr == EsopExpression.from_masks(1, [0b1])


def test_mod5_detector_normal_form():
    (expr,) = anf_from_truth_table(FOUR_MOD_FIVE)
    assert expr == EsopExpression.from_masks(4, FOUR_MOD_FIVE_CUBES)
    assert expr.sorted_masks() == sorted(FOUR_MOD_FIVE_CUBES,
                                         key=lambda m: (m.bit_count(), m))
    # cross-check with the brute-force evaluator
    for x in range(16):
        assert expr.evaluate(x) == (FOUR_MOD_FIVE.rows[x] & 1)


def test_mod5_cube_list_back_to_table():
    expr = EsopExpression.from_masks(4, FOUR_MOD_FIVE_CUBES)
    tt = truth_table_from_anf(expr)
    assert tt.rows == FOUR_MOD_FIVE.rows


def test_empty_and_constant_expressions():
    assert truth_table_from_anf(EsopExpression.from_masks(2, [])).rows == (0,) * 4
    ones = truth_table_from_anf(EsopExpression.from_masks(2, [0]))
    assert ones.rows == (1,) * 4


def test_multi_output_tables_give_one_expression_per_output():
    tt = TruthTable(2, 3, (0b100, 0b101, 0b110, 0b011))
    assert tt.columns == (0b1010, 0b1100, 0b0111)
    exprs = anf_from_truth_table(tt)
    assert [e.sorted_masks() for e in exprs] == [[0b01], [0b10], [0b00, 0b11]]
    for j, e in enumerate(exprs):
        assert truth_table_from_anf(e).columns == (tt.columns[j],)


def test_permutation_tables():
    assert truth_table_from_permutation(Permutation((0, 1, 2, 3))).rows == (0, 1, 2, 3)
    assert truth_table_from_permutation(Permutation((1, 0))).rows == (1, 0)
    t = truth_table_from_permutation(Permutation((0, 2, 3, 5, 7, 1, 4, 6)))
    assert t.n_inputs == t.n_outputs == 3
    assert t.rows == (0, 2, 3, 5, 7, 1, 4, 6)


def test_permutation_validation():
    with pytest.raises(ValueError):
        Permutation((0, 1, 2))          # not a power of two
    with pytest.raises(ValueError):
        Permutation((0, 0, 1, 1))       # not a bijection


def test_table_validation():
    with pytest.raises(ValueError):
        TruthTable(2, 1, (0, 1, 0))     # wrong row count
    with pytest.raises(ValueError):
        TruthTable(1, 1, (0, 2))        # row wider than outputs
    with pytest.raises(ValueError):
        TruthTable(2, 1, (0,) * 4, input_names=("a", "a"))


@given(st.integers(min_value=1, max_value=10), st.randoms())
@settings(max_examples=60, deadline=None)
def test_transform_is_an_involution(n, rnd):
    bits = rnd.getrandbits(1 << n)
    assert mobius_bits(mobius_bits(bits, n), n) == bits


@given(st.integers(min_value=1, max_value=4), st.randoms())
@settings(max_examples=40, deadline=None)
def test_round_trip_small(n, rnd):
    rows = tuple(rnd.getrandbits(1) for _ in range(1 << n))
    tt = TruthTable(n, 1, rows)
    (expr,) = anf_from_truth_table(tt)
    back = truth_table_from_anf(expr)
    assert back.rows == tt.rows


def test_round_trip_larger_sizes():
    rng = random.Random(12)
    for n in range(5, 13):
        col = rng.getrandbits(1 << n)
        tt = TruthTable.from_columns(n, [col])
        (expr,) = anf_from_truth_table(tt)
        assert truth_table_from_anf(expr).rows == tt.rows
        # spot-check the expression against the table
        for _ in range(16):
            x = rng.randrange(1 << n)
            assert expr.evaluate(x) == tt.rows[x]


def test_reversible_outputs_avoid_the_full_cube():
    # balanced outputs have even weight for n >= 2, so the all-variables
    # product never appears
    rng = random.Random(5)
    for n in (2, 3, 4):
        top = (1 << n) - 1
        for _ in range(20):
            images = list(range(1 << n))
            rng.shuffle(images)
            tt = truth_table_from_permutation(Permutation(tuple(images)))
            for expr in anf_from_truth_table(tt):
                assert not expr.coeffs >> top & 1


def test_cube_helpers():
    e = EsopExpression.from_masks(4, [0b1011, 0])
    assert e.coeffs == 1 << 0b1011 | 1
    assert str(e) == "1 ^ x1x2x4"
    assert e.degree == 3
    assert [e.evaluate(x) for x in (0, 0b1011, 0b1111, 0b0011)] == [1, 0, 0, 1]
    assert str(EsopExpression(4, 0)) == "0" and EsopExpression(4, 0).degree == 0


def test_variable_patterns_hold_each_variables_column():
    for n in range(7):
        patterns = variable_patterns(n)
        assert len(patterns) == n
        for i, p in enumerate(patterns):
            assert p == sum(1 << m for m in range(1 << n) if m >> i & 1)
            # the variable's ANF is the single cube x_{i+1}
            assert mobius_bits(p, n) == 1 << (1 << i)


_TABLES = st.tuples(st.integers(0, 8), st.integers(1, 4)).flatmap(
    lambda nm: st.tuples(st.just(nm[0]), st.just(nm[1]), st.lists(
        st.integers(0, (1 << nm[1]) - 1),
        min_size=1 << nm[0], max_size=1 << nm[0])))


@given(_TABLES, st.randoms())
@settings(max_examples=40, deadline=None)
def test_anf_of_random_multi_output_tables(case, rnd):
    n, m, rows = case
    tt = TruthTable(n, m, tuple(rows))
    exprs = anf_from_truth_table(tt)
    assert len(exprs) == m
    for j, e in enumerate(exprs):
        assert all(e.evaluate(x) == rows[x] >> j & 1 for x in range(1 << n))
        assert truth_table_from_anf(e).columns == (tt.columns[j],)
        assert EsopExpression.from_masks(n, e.sorted_masks()) == e
        extra = [rnd.randrange(1 << n) for _ in range(3)]
        twice = e.sorted_masks() + extra + extra[::-1]
        rnd.shuffle(twice)
        assert EsopExpression.from_masks(n, twice) == e

"""Truth tables, permutations and the XOR normal form.

Every synthesis run starts by turning the specification into one
exclusive-sum-of-products expression per output, held as one integer
whose bit m marks cube m.  The transform between a truth-table column and
that coefficient word is its own inverse, which this script demonstrates
on the classic mod-5 detector.
"""

from esopsyn import (
    Permutation, TruthTable, anf_from_truth_table, truth_table_from_anf,
    truth_table_from_permutation,
)

print("== a 4-input detector for multiples of five ==")
ones = (0, 5, 10, 15)
col = 0
for i in ones:
    col |= 1 << i
table = TruthTable.from_columns(4, [col])
print("inputs with output 1:", [i for i in range(16) if table.rows[i]])

(expr,) = anf_from_truth_table(table)      # one expression per output
print("normal form:", expr)
print(f"coefficient word: {expr.coeffs:#06x}")
print("cube count:", expr.coeffs.bit_count(), " highest degree:", expr.degree)

print("\n== the transform is an involution ==")
back = truth_table_from_anf(expr)
print("round trip reproduces the table:", back.rows == table.rows)
print("brute-force evaluation agrees:",
      all(expr.evaluate(x) == table.rows[x] for x in range(16)))

print("\n== reversible functions are permutations ==")
perm = Permutation((0, 2, 3, 5, 7, 1, 4, 6))
ptable = truth_table_from_permutation(perm)
for name, out in zip(ptable.output_names, anf_from_truth_table(ptable)):
    print(f"  {name} = {out}")
print("note: no output uses the full x1x2x3 product -- balanced outputs")
print("of a reversible function never can (for two or more variables).")

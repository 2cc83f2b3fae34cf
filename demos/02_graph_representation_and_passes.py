"""The and-xor graph and the three optimization passes.

The per-output expressions become one shared directed acyclic graph whose
nodes are xor, and, identifier and constant.  Kernel factoring reshapes
each expression before the graph is built, cube sharing hoists common
child sets afterwards, and parent reduction reroutes a leaf through an
existing a^b node so the mapper can consume it in place.
"""

from esopsyn import (
    EsopExpression, OptimizeParams, Permutation, anf_from_truth_table,
    best_divisor, build_dag_from_trees, common_cube_sharing,
    dag_to_expressions, dump_text, factor_expression, kernel_pairs,
    reduce_parents, truth_table_from_permutation, validate_dag,
)

perm = Permutation((0, 2, 3, 5, 7, 1, 4, 6))
table = truth_table_from_permutation(perm)
exprs = anf_from_truth_table(table)

print("== flat graph ==")
flat = [factor_expression(e, OptimizeParams()) for e in exprs]
dag = build_dag_from_trees(flat, 3, 3, output_names=list(table.output_names))
print(dump_text(dag))

print("== kernels of y3 ==")
y3 = exprs[2]
print("y3 =", y3)
# a kernel is a coefficient word (bit m = cube m), a co-kernel a cube mask
pairs = kernel_pairs(y3.coeffs, 3)
for kernel, co in pairs:
    taken = sum(1 << (co | k) for k in EsopExpression(3, kernel).sorted_masks())
    print(f"  kernel {EsopExpression(3, kernel)}  "
          f"co-kernel {EsopExpression(3, 1 << co)}  "
          f"remainder {EsopExpression(3, y3.coeffs & ~taken)}")
kernel, co = pairs[best_divisor(pairs, threshold=1)]
print("selected divisor:", EsopExpression(3, kernel),
      "(the largest kernel, so the smallest remainder)")

print("\n== factored + shared graph ==")
params = OptimizeParams(kernel_threshold=1)
trees = [factor_expression(e, params) for e in exprs]
dag = build_dag_from_trees(trees, 3, 3, output_names=list(table.output_names))
report = common_cube_sharing(dag)
print("sharing events:", report.events)
print(dump_text(dag))
print("still sound:", dag_to_expressions(dag) == exprs)

print("== parent reduction ==")
x1 = dag.var_node(0)
before = len(dag.nodes[x1].parents)
rep = reduce_parents(dag, x1)
print(f"x1 parents {before} -> {len(dag.nodes[x1].parents)}; "
      f"rewrites: {rep.events}")
print("graph still valid:", validate_dag(dag) == [])

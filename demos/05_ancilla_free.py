"""Ancilla-free synthesis: reducing output expressions to the identity.

Instead of allocating helper lines, small reversible functions can be
synthesized on exactly their own lines: each step substitutes a variable
by itself xor something (one CNOT or Toffoli), driving the expressions
toward single literals.  The substitution trace below is the circuit.
Each expression is held as the coefficient word of its EsopExpression:
one int whose bit m marks cube m.
"""

import random

from esopsyn import Permutation, ancilla_free_synthesize
from esopsyn.ancilla_free import ExpressionState, apply_substitution, \
    reduce_to_identity
from esopsyn.funcs import EsopExpression, anf_from_truth_table, \
    truth_table_from_permutation

spec = Permutation((7, 4, 1, 6, 0, 2, 3, 5))
table = truth_table_from_permutation(spec)
exprs = anf_from_truth_table(table)


def show(word):
    return str(EsopExpression(3, word))


print("== start: the output expressions ==")
state = ExpressionState(3, tuple(e.coeffs for e in exprs))
for j, w in enumerate(state.exprs):
    print(f"  f{j + 1} = {show(w)}   (word {w:#010b})")

final = reduce_to_identity(state)
print("\n== substitution steps (= gates, first one nearest the inputs) ==")
replay = state
for t in final.history:
    replay = apply_substitution(replay, t)
    forms = [show(w) for w in replay.exprs]
    print(f"  {t.kind} controls={t.controls} target={t.target}   ->   "
          + " | ".join(forms))

circuit, report = ancilla_free_synthesize(spec)
print(f"\ncircuit: {report.gate_count} gates on exactly 3 lines, "
      f"quantum cost {report.quantum_cost}, zero garbage")

print("\n== a taste of the exhaustive statistics ==")
rng = random.Random(0)
gates = qc = n = 0
for _ in range(500):
    images = list(range(8))
    rng.shuffle(images)
    _, rep = ancilla_free_synthesize(Permutation(tuple(images)))
    gates += rep.gate_count
    qc += rep.quantum_cost
    n += 1
print(f"{n} random 3-variable functions: mean gates {gates / n:.2f}, "
      f"mean cost {qc / n:.2f}")
print("(the full 40320-function sweep is part of the acceptance tests)")

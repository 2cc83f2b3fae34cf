"""ESOP-based reversible logic synthesis.

Truth tables or permutations go in; verified generalized-Toffoli circuits
come out, with four knobs (Toffoli size bound, cube sharing, kernel
threshold, parent reduction) trading quantum cost against garbage lines.
A separate rule-based engine synthesizes small reversible functions on
exactly their own lines.
"""

from .ancilla_free import (
    NonConvergenceError, Transformation, ancilla_free_synthesize,
)
from .circuit import (
    Circuit, CostReport, Gate, LineState, VerificationError, cnot,
    detect_peres, fredkin, gate_cost, not_gate, quantum_cost, simulate,
    toffoli, verify_equivalence,
)
from .dag import EsopDag, build_dag, dag_to_expressions, dump_dot, dump_text, \
    validate_dag
from .funcs import (
    Cube, EsopExpression, Permutation, TruthTable, anf_from_truth_table,
    truth_table_from_anf, truth_table_from_permutation,
)
from .mapper import SynthesisError, TargetChoice, find_target, order_outputs, \
    synthesize
from .optimize import (
    KernelEntry, KernelSet, OptimizeParams, common_cube_sharing,
    extract_kernels, factor_expression, reduce_parents, select_divisor,
)

__version__ = "0.1.0"

"""Properties over random specs, with a small example budget."""

import contextlib
import io
import os
import re
import tempfile

from hypothesis import given, settings, strategies as st

from esopsyn import OptimizeParams, Permutation, TruthTable, \
    ancilla_free_synthesize, synthesize
from esopsyn.cli import run_cli
from esopsyn.io import write_circuit


@st.composite
def permutations(draw, max_vars=3):
    n = draw(st.integers(min_value=1, max_value=max_vars))
    return Permutation(tuple(draw(st.permutations(range(1 << n)))))


@st.composite
def truth_tables(draw):
    n = draw(st.integers(min_value=1, max_value=5))
    m = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << m) - 1),
                         min_size=1 << n, max_size=1 << n))
    return TruthTable(n, m, tuple(rows))


params = st.builds(OptimizeParams, st.integers(min_value=2, max_value=5),
                   st.booleans(), st.integers(min_value=0, max_value=3),
                   st.booleans())


@given(permutations())
@settings(max_examples=40, deadline=None)
def test_ancilla_free_uses_exactly_the_functions_own_lines(spec):
    n = spec.n_vars
    circuit, report = ancilla_free_synthesize(spec)
    assert circuit.n_lines == n and report.line_count == n
    assert report.garbage_count == 0 and report.ancilla_count == 0


def _cost_line(circuit) -> dict[str, int]:
    """What `esopsyn cost` prints for the circuit, as name -> value."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "c.tfc")
        write_circuit(circuit, path)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert run_cli(["cost", "--in", path]) == 0
    return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", out.getvalue())}


@given(st.one_of(truth_tables(), permutations()), params)
@settings(max_examples=40, deadline=None)
def test_reported_garbage_is_what_simulation_derives(spec, knobs):
    circuit, report = synthesize(spec, knobs)
    derived = _cost_line(circuit)
    assert derived["garbage"] == report.garbage_count
    assert derived["ancilla"] == report.ancilla_count
    assert derived["lines"] == report.line_count
    assert derived["qc"] == report.quantum_cost

"""Command line front end.

Subcommands: synth (one function through the tunable flow), ancilla-free,
cost, verify, and sweep (a parameter grid over one function, written as a
CSV with one row per configuration).  ``--in`` takes a spec file or
``bench:<name>`` for a built-in benchmark.
"""

from __future__ import annotations

import argparse
import itertools
import logging
import sys

from . import benchmarks
from .ancilla_free import (
    NonConvergenceError, POLICY_COMMON_CONTROL, POLICY_UNIQUE_PAIR,
    ancilla_free_synthesize, exhaustive_sweep,
)
from .circuit import (
    ROLE_ANCILLA, ROLE_GARBAGE, ROLE_OUTPUT, VerificationError, line_functions,
    quantum_cost, restored_constants, verify_equivalence,
)
from .funcs import Permutation, TruthTable, truth_table_from_permutation
from .io import (
    SpecFormatError, format_circuit, parse_spec, read_circuit, report_row,
    write_circuit, write_report,
)
from .mapper import SynthesisError, synthesize
from .optimize import OptimizeParams

log = logging.getLogger("esopsyn")

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VERIFY_FAILED = 2
EXIT_NO_CONVERGENCE = 3


def _boolish(value: str) -> bool:
    low = value.lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise argparse.ArgumentTypeError(f"expected a boolean, got {value!r}")


def _load_spec(ref: str | None, fmt: str):
    if ref is None:
        raise SpecFormatError("no spec given: pass --in FILE or --in bench:<name>")
    if ref.startswith("bench:"):
        return benchmarks.get(ref[len("bench:"):]), ref[len("bench:"):]
    import os
    return parse_spec(ref, fmt), os.path.basename(ref)


def _exhaustive(args) -> bool:
    """Whether --exhaustive was given.  It must name 1 to 3 variables:
    4 would mean enumerating 16! functions."""
    if args.exhaustive is None:
        return False
    if not 1 <= args.exhaustive <= 3:
        raise SpecFormatError(
            f"--exhaustive takes 1 to 3 variables, got {args.exhaustive}")
    return True


def _params_from_args(args) -> OptimizeParams:
    return OptimizeParams(
        max_and_arity=args.toffoli_size,
        cube_sharing=args.cube_sharing,
        kernel_threshold=args.kernel_threshold,
        parent_reduction=args.parent_reduction,
    )


def _add_spec_arguments(sub, exhaustive: bool = True):
    sub.add_argument("--in", dest="input", help="spec file or bench:<name>")
    sub.add_argument("--format", choices=["auto", "pla", "perm", "cubes"],
                     default="auto")
    if exhaustive:
        sub.add_argument("--exhaustive", type=int, metavar="N",
                         help="run every N-variable reversible function instead")


def _add_tckp_arguments(sub):
    sub.add_argument("-T", "--toffoli-size", type=int, default=3,
                     help="largest Toffoli the initial graph may imply")
    sub.add_argument("-C", "--cube-sharing", type=_boolish, default=True,
                     metavar="BOOL")
    sub.add_argument("-K", "--kernel-threshold", type=int, default=0,
                     help="kernel size a divisor must exceed; 0 disables")
    sub.add_argument("-P", "--parent-reduction", type=_boolish, default=False,
                     metavar="BOOL")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="esopsyn",
        description="reversible logic synthesis from exclusive sums of products")
    parser.add_argument("-v", "--verbose", action="count", default=0)
    subs = parser.add_subparsers(dest="mode", required=True)

    synth = subs.add_parser("synth", help="synthesize one function")
    _add_spec_arguments(synth)
    _add_tckp_arguments(synth)
    synth.add_argument("--out", help="circuit file to write")
    synth.add_argument("--report", help="CSV report to write")
    synth.add_argument("--verify", choices=["exhaustive", "sample", "off"],
                       default="exhaustive")
    synth.add_argument("--seed", type=int, default=0)
    synth.add_argument("--trace", action="store_true",
                       help="print each mapping iteration")

    anc = subs.add_parser("ancilla-free",
                          help="rule-based synthesis on exactly n lines")
    _add_spec_arguments(anc)
    anc.add_argument("--policy",
                     choices=[POLICY_UNIQUE_PAIR, POLICY_COMMON_CONTROL],
                     default=POLICY_UNIQUE_PAIR)
    anc.add_argument("--out")
    anc.add_argument("--report")
    anc.add_argument("--seed", type=int, default=0)

    cost = subs.add_parser("cost", help="cost report for a circuit file")
    cost.add_argument("--in", dest="input", required=True)

    ver = subs.add_parser("verify", help="check a circuit against a spec")
    ver.add_argument("--in", dest="input", required=True, help="circuit file")
    ver.add_argument("--spec", required=True, help="spec file or bench:<name>")
    ver.add_argument("--format", choices=["auto", "pla", "perm", "cubes"],
                     default="auto")

    sweep = subs.add_parser("sweep", help="parameter grid over one function")
    _add_spec_arguments(sweep, exhaustive=False)
    sweep.add_argument("--grid", nargs="+", default=["T=3,4", "C=0,1", "K=0..7", "P=0,1"],
                       metavar="KNOB=VALUES",
                       help="e.g. T=3,4 C=0,1 K=0..7 P=0,1")
    sweep.add_argument("--report", required=True)
    sweep.add_argument("--verify", choices=["exhaustive", "sample", "off"],
                       default="exhaustive")
    sweep.add_argument("--seed", type=int, default=0)
    sweep.add_argument("--jobs", type=int, default=1)
    return parser


def parse_grid(tokens: list[str]) -> dict[str, list[int]]:
    grid = {"T": [3, 4], "C": [0, 1], "K": list(range(8)), "P": [0, 1]}
    for tok in tokens:
        knob, _, spec = tok.partition("=")
        knob = knob.strip().upper()
        if knob not in grid or not spec:
            raise SpecFormatError(f"bad grid token {tok!r}")
        values: list[int] = []
        for part in spec.split(","):
            part = part.strip()
            if ".." in part:
                lo, hi = (int(v) for v in part.split(".."))
                if hi < lo:
                    raise SpecFormatError(f"empty range {part!r} in grid token {tok!r}")
                values.extend(range(lo, hi + 1))
            else:
                values.append(int(part))
        grid[knob] = values
    return grid


def pareto_points(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """Mutually non-dominated (qc, garbage) pairs, minimizing both."""
    uniq = sorted(set(points))
    front = []
    for p in uniq:
        if not any(q != p and q[0] <= p[0] and q[1] <= p[1] for q in uniq):
            front.append(p)
    return front


def _spec_shape(spec) -> tuple[int, int]:
    if isinstance(spec, Permutation):
        return spec.n_vars, spec.n_vars
    return spec.n_inputs, spec.n_outputs


def _cmd_synth(args) -> int:
    if _exhaustive(args):
        return _cmd_synth_exhaustive(args)
    spec, name = _load_spec(args.input, args.format)
    params = _params_from_args(args)
    trace = print if args.trace else (log.info if args.verbose > 1 else None)
    circuit, report = synthesize(spec, params, verify=args.verify,
                                 trace=trace, seed=args.seed)
    n, m = _spec_shape(spec)
    if args.out:
        write_circuit(circuit, args.out, report)
    else:
        sys.stdout.write(format_circuit(circuit, report))
    if args.report:
        write_report(args.report, [report_row(
            name, "synth", n, m, params, args.seed, report)])
    log.info("%s: qc=%d gates=%d garbage=%d", name,
             report.quantum_cost, report.gate_count, report.garbage_count)
    return EXIT_OK


def _cmd_synth_exhaustive(args) -> int:
    n = args.exhaustive
    params = _params_from_args(args)
    rows = []
    total = {"qc": 0, "gates": 0, "garbage": 0}
    count = 0
    for images in itertools.permutations(range(1 << n)):
        spec = Permutation(images)
        _, report = synthesize(spec, params, verify=args.verify)
        count += 1
        total["qc"] += report.quantum_cost
        total["gates"] += report.gate_count
        total["garbage"] += report.garbage_count
        if args.report:
            rows.append(report_row("".join(map(str, images)), "synth", n, n,
                                   params, args.seed, report, with_runtime=False))
    if args.report:
        write_report(args.report, rows)
    print(f"{count} functions, mean gates {total['gates'] / count:.3f}, "
          f"mean qc {total['qc'] / count:.3f}, "
          f"mean garbage {total['garbage'] / count:.3f}")
    return EXIT_OK


def _cmd_ancilla_free(args) -> int:
    if _exhaustive(args):
        return _cmd_ancilla_exhaustive(args)
    spec, name = _load_spec(args.input, args.format)
    if isinstance(spec, TruthTable):
        if spec.n_inputs != spec.n_outputs:
            raise SpecFormatError("ancilla-free mode needs a reversible spec")
        spec = Permutation(spec.rows)
    circuit, report = ancilla_free_synthesize(spec, policy=args.policy)
    if args.out:
        write_circuit(circuit, args.out, report)
    else:
        sys.stdout.write(format_circuit(circuit, report))
    if args.report:
        n, m = _spec_shape(spec)
        write_report(args.report, [report_row(
            name, "ancilla-free", n, m, OptimizeParams(), args.seed, report)])
    return EXIT_OK


def _cmd_ancilla_exhaustive(args) -> int:
    rows = []
    params = OptimizeParams()

    def on_result(images, report):
        if args.report is None:
            return
        name = "".join(map(str, images))
        if report is None:
            rows.append({"function": name, "mode": "ancilla-free"})
        else:
            rows.append(report_row(name, "ancilla-free", args.exhaustive,
                                   args.exhaustive, params, args.seed, report,
                                   with_runtime=False))

    stats = exhaustive_sweep(args.exhaustive, policy=args.policy,
                             on_result=on_result)
    if args.report:
        write_report(args.report, rows)
    print(f"{stats.runs} functions, {stats.converged} converged, "
          f"mean gates {stats.mean_gates:.3f}, mean qc {stats.mean_qc:.3f}")
    if stats.failures:
        print(f"{len(stats.failures)} functions did not converge")
        return EXIT_NO_CONVERGENCE
    return EXIT_OK


def _cmd_cost(args) -> int:
    circuit = read_circuit(args.input)
    # roles from simulation: a non-output constant line is ancilla iff restored
    input_ids = [l.line_id for l in circuit.input_lines()]
    funcs = line_functions(circuit, len(input_ids), input_ids)
    restored = restored_constants(circuit, funcs, len(input_ids))
    for l in circuit.constant_lines():
        if l.role != ROLE_OUTPUT:
            l.role = ROLE_ANCILLA if l.line_id in restored else ROLE_GARBAGE
    report = quantum_cost(circuit)
    print(f"qc={report.quantum_cost} gates={report.gate_count} "
          f"lines={report.line_count} garbage={report.garbage_count} "
          f"ancilla={report.ancilla_count} peres_pairs={report.peres_pairs}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    circuit = read_circuit(args.input)
    spec, name = _load_spec(args.spec, args.format)
    if isinstance(spec, Permutation):
        spec = truth_table_from_permutation(spec)
    verdict = verify_equivalence(circuit, spec)
    if verdict:
        print(f"equivalent to {name}")
        return EXIT_OK
    if verdict.counterexample is not None:
        x, want, got = verdict.counterexample
        print(f"MISMATCH at input {x}: expected {want}, circuit gives {got}")
    for lid in verdict.dirty_ancillae:
        line = circuit.lines[lid]
        print(f"ancilla line {line.name} does not return to {line.init}")
    return EXIT_VERIFY_FAILED


def _sweep_one(payload) -> dict:
    kind, data, names, (t, c, k, p), seed, verify = payload
    if kind == "perm":
        spec = Permutation(data)
    else:
        n, m, rows, inames, onames = data
        spec = TruthTable(n, m, rows, inames, onames)
    params = OptimizeParams(t, bool(c), k, bool(p))
    _, report = synthesize(spec, params, verify=verify, seed=seed)
    n, m = _spec_shape(spec)
    return report_row(names, "synth", n, m, params, seed, report,
                      with_runtime=False)


def _cmd_sweep(args) -> int:
    spec, name = _load_spec(args.input, args.format)
    grid = parse_grid(args.grid)
    configs = sorted(itertools.product(grid["T"], grid["C"], grid["K"], grid["P"]))
    if isinstance(spec, Permutation):
        payloads = [("perm", spec.images, name, cfg, args.seed, args.verify)
                    for cfg in configs]
    else:
        data = (spec.n_inputs, spec.n_outputs, spec.rows,
                spec.input_names, spec.output_names)
        payloads = [("table", data, name, cfg, args.seed, args.verify)
                    for cfg in configs]
    if args.jobs > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_sweep_one, payloads))
    else:
        rows = [_sweep_one(p) for p in payloads]
    rows.sort(key=lambda r: (r["T"], r["C"], r["K"], r["P"]))
    write_report(args.report, rows)
    front = pareto_points([(r["qc"], r["garbage"]) for r in rows])
    print(f"{len(rows)} configurations, {len(front)} non-dominated "
          f"(qc, garbage) points: {front}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "ancilla-free": _cmd_ancilla_free,
    "cost": _cmd_cost,
    "verify": _cmd_verify,
    "sweep": _cmd_sweep,
}


def run_cli(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose > 1
        else logging.INFO if args.verbose else logging.WARNING,
        format="%(name)s: %(message)s")
    try:
        return _COMMANDS[args.mode](args)
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    except NonConvergenceError as e:
        print(f"did not converge: {e}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except (SpecFormatError, SynthesisError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_ERROR


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""esopsyn benchmark: end-to-end timings, output quality and per-layer traces.

Run one workload (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload sbox --seed 1 --seconds 30 --trace 0

Run all workloads, each in a fresh interpreter, and keep the results:

    python3 perfbench/run.py --out perfbench-results.json

Flag every quality or circuit change between two result files:

    python3 perfbench/run.py --compare old.json new.json

Regenerate BENCHMARK.json from the definitions below:

    python3 perfbench/run.py --write-config

The load is a closed loop: one caller in one process runs the workload's
operations back to back.  The fixed operation list (one *pass*) is
repeated until --seconds are used up, at least once.  Times are reported
in reference seconds (see speed.py).  Every operation's circuit is checked
by the benchmark's own simulator, outside the timed region.  With --trace 1 the run makes one untraced and one traced pass and
reports per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it, starting with
"record ", holds the full result (quality totals, digests, failures).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import io
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import speed
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("sbox", "randperm", "small")
RUN_SECONDS = 30
SETUP_REPEATS = 5

# end-to-end metric -> (unit, better, bound: tolerated worsening as a share
# of the parent's median).  Times get the widest bound allowed: even in
# reference seconds (see speed.py), ten seeds of sbox and randperm on a
# shared 2-core host spread 4-19 % (quartile distance over median).
END_TO_END = {
    "wall_s": ("s", "lower", 0.25),
    "call_geomean_ms": ("ms", "lower", 0.25),
    "call_p50_ms": ("ms", "lower", 0.25),
    "call_p99_ms": ("ms", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.15),
    "qc_total": ("count", "lower", 0.1),
    "gates_total": ("count", "lower", 0.1),
    "garbage_total": ("count", "lower", 0.1),
    "converged_share": ("ratio", "higher", 0.01),
    "setup_s": ("s", "lower", 0.25),
}
TRACE_OVERHEAD = ("trace.overhead_s", "s", "lower")


def _import_program():
    """Import esopsyn from this checkout's sources, never from elsewhere."""
    if not (SRC / "esopsyn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no esopsyn sources at {SRC}")
    sys.path.insert(0, str(SRC))
    import esopsyn
    import esopsyn.cli
    import esopsyn.io
    return esopsyn


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@dataclass
class PassResult:
    seconds: float = 0.0                           # sum of `times`
    raw_seconds: float = 0.0                       # the same, unscaled
    times: list = field(default_factory=list)      # per operation, seconds
    digests: list = field(default_factory=list)    # per operation, sha256
    totals: dict = field(default_factory=lambda: {"qc": 0, "gates": 0, "garbage": 0})
    failures: list = field(default_factory=list)   # messages
    failed: int = 0                                # operations with a failure
    nonconverged: int = 0
    sweep_csv_sha256: str | None = None


class Runner:
    """Runs and checks one workload's operations."""

    def __init__(self, esopsyn, ops, sweep_csv: Path):
        import check   # reads esopsyn's circuit vocabulary on import
        self.check_circuit = check.check_circuit
        self.esopsyn = esopsyn
        self.ops = ops
        self.sweep_csv = sweep_csv

    def _call(self, op):
        # resolve the public names at call time, so traced wrappers are seen
        if op.kind == "synth":
            return self.esopsyn.synthesize(op.spec, op.params)
        if op.kind == "ancilla_free":
            return self.esopsyn.ancilla_free_synthesize(op.spec)
        with contextlib.redirect_stdout(io.StringIO()):
            return self.esopsyn.cli.run_cli(
                ["sweep", "--in", "bench:present_sbox", "--grid", *workloads.SWEEP_GRID,
                 "--report", str(self.sweep_csv)])

    def run_pass(self, tracer=None, probe=None) -> PassResult:
        """One pass over the operations; with a speed probe, times are in
        reference seconds, and the probe's own time is taken out."""
        res = PassResult()
        for i, op in enumerate(self.ops):
            if tracer is not None:
                tracer.op = i
            t0 = perf_counter()
            try:
                outcome = self._call(op)
            except Exception as e:   # recorded per operation; the run goes on
                outcome = e
            t1 = perf_counter()
            raw = t1 - t0
            dt = raw
            if probe is not None:
                raw -= probe.spent(t0, t1)
                dt = raw * probe.scale(t0, t1)
            res.times.append(dt)
            res.seconds += dt
            res.raw_seconds += raw
            res.digests.append(self._check(op, outcome, res))
        return res

    def _check(self, op, outcome, res: PassResult) -> str:
        """Check one operation's outcome into `res`; returns its digest."""
        esopsyn = self.esopsyn
        if isinstance(outcome, esopsyn.NonConvergenceError) and op.kind == "ancilla_free":
            res.nonconverged += 1
            return _sha(f"nonconvergence: {outcome}".encode())
        if isinstance(outcome, Exception):
            res.failed += 1
            res.failures.append(f"{op.label}: {type(outcome).__name__}: {outcome}")
            return _sha(f"error: {type(outcome).__name__}".encode())
        if op.kind == "sweep":
            return self._check_sweep(op, outcome, res)
        circuit, report = outcome
        problems = self.check_circuit(circuit, report, op.table,
                                       ancilla_free=op.kind == "ancilla_free")
        res.failures.extend(f"{op.label}: {p}" for p in problems)
        res.failed += bool(problems)
        res.totals["qc"] += report.quantum_cost
        res.totals["gates"] += report.gate_count
        res.totals["garbage"] += report.garbage_count
        return _sha(esopsyn.io.format_circuit(circuit).encode())

    def _check_sweep(self, op, rc, res: PassResult) -> str:
        data = self.sweep_csv.read_bytes() if self.sweep_csv.exists() else b""
        self.sweep_csv.unlink(missing_ok=True)
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        if rc != 0 or len(rows) != workloads.SWEEP_ROWS:
            res.failed += 1
            res.failures.append(f"{op.label}: exit code {rc}, {len(rows)} rows")
        for row in rows:
            for key in res.totals:
                res.totals[key] += int(row[key])
        res.sweep_csv_sha256 = _sha(data)
        return res.sweep_csv_sha256


def _measure_setup(name: str, seed: int) -> float:
    """Median over fresh interpreters of process start through `import
    esopsyn` and spec generation, in reference seconds."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-only",
           "--workload", name, "--seed", str(seed)]
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.reference_time()
        t0 = perf_counter()
        subprocess.run(cmd, check=True, cwd=ROOT, timeout=120)
        raw = perf_counter() - t0
        ref = (before + speed.reference_time()) / 2
        times.append(raw * speed.NOMINAL_S / ref)
    return statistics.median(times)


def _metric(name: str, value: float) -> dict:
    if name in END_TO_END:
        unit = END_TO_END[name][0]
    elif name == TRACE_OVERHEAD[0]:
        unit = TRACE_OVERHEAD[1]
    else:
        unit = tracer.LAYER_METRICS[name][0]
    return {"value": value, "unit": unit}


def _end_to_end(passes: list[PassResult], n_ops: int, setup_s: float) -> dict:
    times_ms = [t * 1e3 for p in passes for t in p.times]
    first = passes[0]
    values = {
        "wall_s": statistics.median(p.seconds for p in passes),
        "call_geomean_ms": math.exp(statistics.fmean(math.log(t) for t in times_ms)),
        "call_p50_ms": statistics.median(times_ms),
        "call_p99_ms": statistics.quantiles(times_ms, n=100, method="inclusive")[98],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "qc_total": first.totals["qc"],
        "gates_total": first.totals["gates"],
        "garbage_total": first.totals["garbage"],
        "converged_share": 1 - first.nonconverged / n_ops,
        "setup_s": setup_s,
    }
    return {name: _metric(name, values[name]) for name in END_TO_END}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    esopsyn = _import_program()
    ops = workloads.build(esopsyn, name, seed)
    absent: list[str] = []
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".sweep-") as tmp:
        runner = Runner(esopsyn, ops, Path(tmp) / "present_sbox.csv")
        if trace:
            passes = [runner.run_pass()]
            tr = tracer.Tracer()
            tr.install()
            try:
                passes.append(runner.run_pass(tr))
            finally:
                tr.uninstall()
            layer, absent = tr.layer_metrics()
            layer[TRACE_OVERHEAD[0]] = passes[1].seconds - passes[0].seconds
            metrics = {k: _metric(k, v) for k, v in layer.items()}
        else:
            setup_s = _measure_setup(name, seed)
            started = perf_counter()
            with speed.SpeedProbe() as probe:
                passes = [runner.run_pass(probe=probe)]
                # another pass only if it is expected to end within --seconds
                while (perf_counter() - started) * (len(passes) + 1) / len(passes) <= seconds:
                    passes.append(runner.run_pass(probe=probe))
            metrics = _end_to_end(passes, len(ops), setup_s)

    failures = [f for p in passes for f in p.failures]
    failed = sum(p.failed for p in passes)
    for k, p in enumerate(passes[1:], start=1):
        changed = [op.label for op, a, b in zip(ops, passes[0].digests, p.digests) if a != b]
        if changed:
            what = "traced pass" if trace else f"pass {k}"
            failed += len(changed)
            failures.append(f"{what} changed {len(changed)} outputs, first {changed[0]}")
    first = passes[0]
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "passes": len(passes),
        "operations": len(ops),
        "attempted": len(ops) * len(passes),
        "failed": failed,
        "nonconverged": first.nonconverged,
        "correct": not failures,
        "metrics": metrics,
        "absent": absent,
        "totals": first.totals,
        "raw_wall_s": [p.raw_seconds for p in passes],
        "digest": _sha("\n".join(first.digests).encode()),
        "sweep_csv_sha256": first.sweep_csv_sha256,
        "op_digests": {op.label: d[:16] for op, d in zip(ops, first.digests)},
        "failures": failures[:20],
    }


def _print_record(rec: dict):
    print(f"workload {rec['workload']}  seed {rec['seed']}  trace {rec['trace']}  "
          f"passes {rec['passes']}  operations {rec['operations']}  "
          f"failed {rec['failed']}  nonconverged {rec['nonconverged']}")
    for name, m in rec["metrics"].items():
        print(f"  {name:42s} {m['value']:>16.6g} {m['unit']}")
    for name in rec["absent"]:
        print(f"  {name:42s} {'absent':>16s} (hooked function not found)")
    print(f"  digest {rec['digest']}  totals {rec['totals']}")
    for f in rec["failures"]:
        print(f"  FAILED {f}")


def _result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> str:
    return json.dumps({"correct": correct, "attempted": attempted,
                       "failed": failed, "metrics": metrics})


def _write_out(path: str, records: list[dict], seconds: float):
    doc = {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "platform": platform.platform(),
        "run_seconds": seconds,
        "workloads": {r["workload"]: r for r in records},
    }
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def run_all(args) -> int:
    records = []
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        lines = proc.stdout.splitlines()
        rec_lines = [l for l in lines if l.startswith("record ")]
        if proc.returncode != 0 or not rec_lines:
            sys.stderr.write(proc.stderr)
            sys.exit(f"perfbench: workload {name} exited with {proc.returncode}")
        records.append(json.loads(rec_lines[-1][len("record "):]))
        _print_record(records[-1])
    if args.out:
        _write_out(args.out, records, args.seconds)
    metrics = {f"{r['workload']}.{k}": v for r in records for k, v in r["metrics"].items()}
    print(_result_line(all(r["correct"] for r in records),
                       sum(r["attempted"] for r in records),
                       sum(r["failed"] for r in records), metrics))
    return 0


def compare(path_a: str, path_b: str) -> int:
    """Print metric changes; flag every quality and digest change."""
    a = json.loads(Path(path_a).read_text())["workloads"]
    b = json.loads(Path(path_b).read_text())["workloads"]
    flags = []
    for w in sorted(set(a) | set(b)):
        if w not in a or w not in b:
            flags.append(f"{w}: present in only one file")
            continue
        ra, rb = a[w], b[w]
        print(f"{w} (seed {ra['seed']} -> {rb['seed']})")
        for name in ra["metrics"]:
            if name in rb["metrics"]:
                va, vb = ra["metrics"][name]["value"], rb["metrics"][name]["value"]
                change = f"{(vb - va) / va:+.1%}" if va else ""
                print(f"  {name:42s} {va:>14.6g} {vb:>14.6g} {change}")
        if ra["seed"] != rb["seed"]:
            flags.append(f"{w}: seeds differ, so inputs differ")
        for key in ("qc", "gates", "garbage"):
            if ra["totals"][key] != rb["totals"][key]:
                flags.append(f"{w}: {key}_total {ra['totals'][key]} -> {rb['totals'][key]}")
        if ra["nonconverged"] != rb["nonconverged"]:
            flags.append(f"{w}: nonconverged {ra['nonconverged']} -> {rb['nonconverged']}")
        if ra["sweep_csv_sha256"] != rb["sweep_csv_sha256"]:
            flags.append(f"{w}: present_sbox sweep CSV changed")
        if ra["digest"] != rb["digest"]:
            changed = [k for k, d in ra["op_digests"].items() if rb["op_digests"].get(k) != d]
            flags.append(f"{w}: circuit digest changed, {len(changed)} operations "
                         f"differ: {', '.join(changed[:5])}")
    for f in flags:
        print(f"FLAG {f}")
    print(f"{len(flags)} flagged change(s)")
    return 1 if flags else 0


def benchmark_config() -> dict:
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w, "why": workloads.WHY[w]} for w in WORKLOADS],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, (u, b, bound) in END_TO_END.items()],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, (u, b, _needs, _f) in tracer.LAYER_METRICS.items()]
        + [dict(zip(("name", "unit", "better"), TRACE_OVERHEAD))],
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    ap.add_argument("--seed", type=int, default=None,
                    help="input seed for randperm and small (default 1)")
    ap.add_argument("--seconds", type=float, default=RUN_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="write the full results of this run as JSON")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    ap.add_argument("--write-config", action="store_true")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed is None:
        args.seed = workloads.DEFAULT_SEED
    if args.compare:
        return compare(*args.compare)
    if args.write_config:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(benchmark_config(), indent=2) + "\n")
        return 0
    if args.setup_only:
        workloads.build(_import_program(), args.workload, args.seed)
        return 0
    if args.workload == "all":
        return run_all(args)
    rec = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    _print_record(rec)
    if args.out:
        _write_out(args.out, [rec], args.seconds)
    print("record " + json.dumps(rec, sort_keys=True))
    print(_result_line(rec["correct"], rec["attempted"], rec["failed"], rec["metrics"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())

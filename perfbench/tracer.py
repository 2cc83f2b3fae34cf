"""Per-layer tracing from outside the program.

The tracer replaces, for the length of a traced pass, the names that
esopsyn's own callers resolve at run time (module globals such as
`esopsyn.mapper.find_target`, class attributes such as
`EsopDag.recompute_depths`) with wrappers.  A span wrapper records
(name, start, end, parent span, operation id) into an in-memory list; a
count wrapper only counts calls, for functions called too often to be
worth a span.  Self time is a span's duration minus its direct children's.

A hook whose target no longer exists is reported as missing, and every
metric that depends on it is reported as absent, by name.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from time import perf_counter


def _and_nodes(tree) -> int:
    """And-nodes (divisor products) in a factored tree."""
    own = 1 if hasattr(tree, "subs") else 0
    kids = getattr(tree, "subs", None) or getattr(tree, "parts", ())
    return own + sum(_and_nodes(k) for k in kids)


def _on_cube_sharing(tracer, report):
    tracer.counts["optimize.cube_sharing.shares"] += len(report.events)
    tracer.counts["optimize.cube_sharing.nodes_removed"] += \
        report.nodes_before - report.nodes_after


def _on_parent_reduction(tracer, report):
    tracer.counts["optimize.parent_reduction.hits"] += bool(report)


def _on_factor(tracer, tree):
    tracer.counts["optimize.factor.divisors"] += _and_nodes(tree)


def _on_build(tracer, dag):
    tracer.counts["dag.build.nodes"] += len(dag)


def _on_find_target(tracer, choice):
    if choice is not None:
        tracer.counts[f"mapper.rule.{tracer.rules.get(choice.rule, choice.rule)}"] += 1


def _on_ancilla_free(tracer, result):
    tracer.counts["ancilla_free.gates"] += len(result[0].gates)


@dataclass(frozen=True)
class Hook:
    name: str                 # span / count name
    targets: tuple[str, ...]  # "module:attr" or "module:Class.attr"
    span: bool = True         # False: count calls only
    on_result: object = None


HOOKS = (
    Hook("funcs.anf", ("esopsyn.mapper:anf_from_truth_table",
                       "esopsyn.ancilla_free:anf_from_truth_table")),
    Hook("optimize.factor", ("esopsyn.mapper:factor_expression",), on_result=_on_factor),
    Hook("dag.build", ("esopsyn.mapper:build_dag_from_trees",), on_result=_on_build),
    Hook("optimize.cube_sharing", ("esopsyn.mapper:common_cube_sharing",),
         on_result=_on_cube_sharing),
    Hook("optimize.parent_reduction", ("esopsyn.mapper:parent_reduction_pass",),
         on_result=_on_parent_reduction),
    Hook("mapper.find_target", ("esopsyn.mapper:find_target",), on_result=_on_find_target),
    Hook("dag.recompute_depths", ("esopsyn.dag:EsopDag.recompute_depths",)),
    Hook("dag.internal_ids", ("esopsyn.dag:EsopDag.internal_ids",), span=False),
    Hook("circuit.quantum_cost", ("esopsyn.mapper:quantum_cost",
                                  "esopsyn.ancilla_free:quantum_cost")),
    Hook("circuit.verify_equivalence", ("esopsyn.mapper:verify_equivalence",
                                        "esopsyn.ancilla_free:verify_equivalence")),
    Hook("mapper.synthesize", ("esopsyn:synthesize", "esopsyn.mapper:synthesize",
                               "esopsyn.cli:synthesize")),
    Hook("ancilla_free.synthesize", ("esopsyn:ancilla_free_synthesize",
                                     "esopsyn.ancilla_free:ancilla_free_synthesize"),
         on_result=_on_ancilla_free),
    Hook("ancilla_free.reduce_to_identity", ("esopsyn.ancilla_free:reduce_to_identity",)),
    Hook("ancilla_free.apply_substitution", ("esopsyn.ancilla_free:apply_substitution",),
         span=False),
    Hook("cli.run_cli", ("esopsyn.cli:run_cli",)),
)

RULE_CONSTANTS = {"xor_single": "esopsyn.mapper:RULE_XOR_SINGLE",
                  "and_xor_parent": "esopsyn.mapper:RULE_AND_XOR_PARENT",
                  "max_child": "esopsyn.mapper:RULE_MAX_CHILD"}


def _self_s(layer):
    return lambda agg: agg.self_s[layer]


def _count(key):
    return lambda agg: agg.counts[key]


def _ratio(num, den):
    return lambda agg: agg.counts[num] / agg.counts[den] if agg.counts[den] else 0.0


# per-layer metric -> (unit, better, hooks it needs, how to compute it)
LAYER_METRICS = {
    "optimize.cube_sharing.self_s": ("s", "lower", ("optimize.cube_sharing",),
                                     _self_s("optimize.cube_sharing")),
    "optimize.cube_sharing.calls": ("count", "lower", ("optimize.cube_sharing",),
                                    _count("optimize.cube_sharing")),
    "optimize.cube_sharing.shares": ("count", "higher", ("optimize.cube_sharing",),
                                     _count("optimize.cube_sharing.shares")),
    "optimize.cube_sharing.nodes_removed": ("count", "higher", ("optimize.cube_sharing",),
                                            _count("optimize.cube_sharing.nodes_removed")),
    "dag.internal_ids.calls": ("count", "lower", ("dag.internal_ids",),
                               _count("dag.internal_ids")),
    "dag.recompute_depths.self_s": ("s", "lower", ("dag.recompute_depths",),
                                    _self_s("dag.recompute_depths")),
    "dag.recompute_depths.calls": ("count", "lower", ("dag.recompute_depths",),
                                   _count("dag.recompute_depths")),
    "mapper.find_target.self_s": ("s", "lower", ("mapper.find_target",),
                                  _self_s("mapper.find_target")),
    "mapper.find_target.calls": ("count", "lower", ("mapper.find_target",),
                                 _count("mapper.find_target")),
    "optimize.parent_reduction.self_s": ("s", "lower", ("optimize.parent_reduction",),
                                         _self_s("optimize.parent_reduction")),
    "optimize.parent_reduction.calls": ("count", "lower", ("optimize.parent_reduction",),
                                        _count("optimize.parent_reduction")),
    "optimize.parent_reduction.hit_ratio": (
        "ratio", "higher", ("optimize.parent_reduction",),
        _ratio("optimize.parent_reduction.hits", "optimize.parent_reduction")),
    "optimize.factor.self_s": ("s", "lower", ("optimize.factor",),
                               _self_s("optimize.factor")),
    "optimize.factor.calls": ("count", "lower", ("optimize.factor",),
                              _count("optimize.factor")),
    "optimize.factor.divisors": ("count", "higher", ("optimize.factor",),
                                 _count("optimize.factor.divisors")),
    "mapper.rule.xor_single": ("count", "higher", ("mapper.find_target", "rules"),
                               _count("mapper.rule.xor_single")),
    "mapper.rule.and_xor_parent": ("count", "higher", ("mapper.find_target", "rules"),
                                   _count("mapper.rule.and_xor_parent")),
    "mapper.rule.max_child": ("count", "lower", ("mapper.find_target", "rules"),
                              _count("mapper.rule.max_child")),
    "dag.build.self_s": ("s", "lower", ("dag.build",), _self_s("dag.build")),
    "dag.build.nodes": ("count", "lower", ("dag.build",), _count("dag.build.nodes")),
    "funcs.anf.self_s": ("s", "lower", ("funcs.anf",), _self_s("funcs.anf")),
    "circuit.quantum_cost.self_s": ("s", "lower", ("circuit.quantum_cost",),
                                    _self_s("circuit.quantum_cost")),
    "circuit.verify_equivalence.self_s": ("s", "lower", ("circuit.verify_equivalence",),
                                          _self_s("circuit.verify_equivalence")),
    "mapper.synthesize.self_s": ("s", "lower", ("mapper.synthesize",),
                                 _self_s("mapper.synthesize")),
    "ancilla_free.synthesize.self_s": ("s", "lower", ("ancilla_free.synthesize",),
                                       _self_s("ancilla_free.synthesize")),
    "ancilla_free.reduce_to_identity.self_s": (
        "s", "lower", ("ancilla_free.reduce_to_identity",),
        _self_s("ancilla_free.reduce_to_identity")),
    "ancilla_free.reduce_to_identity.calls": (
        "count", "lower", ("ancilla_free.reduce_to_identity",),
        _count("ancilla_free.reduce_to_identity")),
    "ancilla_free.apply_substitution.calls": (
        "count", "lower", ("ancilla_free.apply_substitution",),
        _count("ancilla_free.apply_substitution")),
    "ancilla_free.useful_ratio": (
        "ratio", "higher", ("ancilla_free.synthesize", "ancilla_free.apply_substitution"),
        _ratio("ancilla_free.gates", "ancilla_free.apply_substitution")),
    "cli.run_cli.self_s": ("s", "lower", ("cli.run_cli",), _self_s("cli.run_cli")),
}


def _resolve(target: str):
    """(owner, attribute name) for "module:attr" or "module:Class.attr"."""
    module, _, path = target.partition(":")
    owner = importlib.import_module(module)
    *parents, attr = path.split(".")
    for p in parents:
        owner = getattr(owner, p)
    getattr(owner, attr)   # AttributeError when renamed or inlined away
    return owner, attr


@dataclass
class Aggregate:
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    counts: Counter = field(default_factory=Counter)


class Tracer:
    def __init__(self, hooks=HOOKS):
        self.hooks = hooks
        self.spans: list = []       # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self.op = None
        self.rules: dict[str, str] = {}   # TargetChoice.rule -> metric suffix
        self.missing: dict[str, list[str]] = {}   # hook name -> missing targets
        self._stack: list[int] = []
        self._patched: list = []

    def _span(self, name, fn, on_result):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op)
            if on_result is not None:
                on_result(self, result)
            return result
        return wrapper

    def _counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def install(self):
        for short, target in RULE_CONSTANTS.items():
            try:
                owner, attr = _resolve(target)
            except (ImportError, AttributeError):
                self.missing.setdefault("rules", []).append(target)
                continue
            self.rules[getattr(owner, attr)] = short
        for hook in self.hooks:
            for target in hook.targets:
                try:
                    owner, attr = _resolve(target)
                except (ImportError, AttributeError):
                    self.missing.setdefault(hook.name, []).append(target)
                    continue
                original = getattr(owner, attr)
                wrapper = self._span(hook.name, original, hook.on_result) \
                    if hook.span else self._counter(hook.name, original)
                setattr(owner, attr, wrapper)
                self._patched.append((owner, attr, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def aggregate(self) -> Aggregate:
        agg = Aggregate(counts=Counter(self.counts))
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (name, start, end, _parent, _op) in enumerate(self.spans):
            agg.self_s[name] += end - start - child_time[i]
            agg.counts[name] += 1
        return agg

    def layer_metrics(self, metrics=LAYER_METRICS) -> tuple[dict, list[str]]:
        """(metric -> value, names of metrics whose hooks are missing)."""
        agg = self.aggregate()
        values, absent = {}, []
        for name, (_unit, _better, needs, compute) in metrics.items():
            if any(n in self.missing for n in needs):
                absent.append(name)
            else:
                values[name] = compute(agg)
        return values, absent

"""Span tracing around disclab's public functions, installed from outside.

Nothing under src/ is edited: `install` rebinds each traced function at
every module attribute that holds it (a function imported into `cli`,
`lower_bounds` and `solvers` is rebound in all three), and wraps the traced
methods on their classes. Spans are kept in memory while an instance is
active and written out when the run ends. Calls made while no instance is
active (the correctness gate) pass straight through.

`layer_metrics(spans, scales)` turns one pass's spans into the per-layer metrics.
"""

from __future__ import annotations

import functools
import json
import threading
import time

import disclab
from disclab import cli, fairdiv, lower_bounds, matrices, recursive_coloring, solvers

MODULES = (disclab, cli, solvers, lower_bounds, recursive_coloring, fairdiv, matrices)

# Span name -> functions recorded under it (module, attribute).
FUNCTIONS = {
    "cli.run": [(cli, "run")],
    "solvers.wdisc_exact": [(solvers, "wdisc_exact")],
    "solvers.wdisc_heuristic": [(solvers, "wdisc_heuristic")],
    "solvers.odisc_exact": [(solvers, "odisc_exact")],
    "solvers.oracle_solve": [(solvers, "oracle_solve")],
    "solvers.eval": [(solvers, "eval_weighted"), (solvers, "eval_asymmetric")],
    "recursive_coloring.odisc_color": [(recursive_coloring, "odisc_color")],
    "matrices.stack_vertical": [(matrices, "stack_vertical")],
    "fairdiv.allocate": [(fairdiv, "allocate_prop_via_odisc")],
    "fairdiv.scaling": [(fairdiv, "build_agent_scaling")],
    "fairdiv.check": [(fairdiv, "check_fairness")],
    "fairdiv.minc": [(fairdiv, "brute_force_min_c")],
    "lower_bounds.build_stacked": [(lower_bounds, "build_stacked")],
    "lower_bounds.certify": [
        (lower_bounds, "certify_wdisc_lb"),
        (lower_bounds, "certify_multicolor_lb"),
    ],
}

# Span name -> methods recorded under it (class, attribute).
_FORMATTED = (
    matrices.RatMatrix, matrices.SignMatrix, solvers.WdiscResult, solvers.OdiscResult,
    lower_bounds.CertReport, lower_bounds.StackedConstruction,
    recursive_coloring.RecursionCertificate, fairdiv.FairDivInstance, fairdiv.Allocation,
)
METHODS = {
    "matrices.restrict_columns": [(matrices.RatMatrix, "restrict_columns")],
    "matrices.from_rows": [(matrices.RatMatrix, "from_rows")],
    "cli.parse": [
        (matrices.RatMatrix, "from_json_dict"), (matrices.SignMatrix, "from_json_dict"),
        (fairdiv.FairDivInstance, "from_json_dict"), (fairdiv.Allocation, "from_json_dict"),
    ],
    "cli.format": [(cls, "to_json_dict") for cls in _FORMATTED],
}


# What a span keeps of its call's result, for the metrics that need it.
NOTES = {
    "solvers.wdisc_exact": lambda r: (r.value, r.nodes_explored),
    "solvers.wdisc_heuristic": lambda r: (r.value, r.nodes_explored),
    "recursive_coloring.odisc_color": lambda r: len(r[1].bounds),
    "matrices.stack_vertical": lambda r: r.rows * r.cols,
    "matrices.restrict_columns": lambda r: r.rows * r.cols,
    "fairdiv.minc": lambda r: (r[0], len(r[1].bundles) ** sum(len(b) for b in r[1].bundles)),
}


class Tracer:
    """In-memory span recorder.

    A span is [name, start, end, parent index, instance id, note]: start and
    end are unscaled process CPU seconds, the parent is the innermost span
    open on the same thread when it started and the note is what NOTES keeps
    of the result. `spans` is the current pass; `passes` holds every pass.
    """

    def __init__(self):
        self.spans = []
        self.passes = []
        self.instance = None
        self._local = threading.local()

    def start_pass(self):
        self.spans = []
        self.passes.append(self.spans)

    def wrap(self, name, fn):
        tracer = self
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.instance is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            span = [name, time.process_time(), None, stack[-1] if stack else None,
                    tracer.instance, None]
            index = len(tracer.spans)
            tracer.spans.append(span)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if note is not None:
                    span[5] = note(result)
                return result
            finally:
                span[2] = time.process_time()
                stack.pop()

        return traced

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def install(self):
        """Wrap every traced function at each of its module bindings."""
        for name, targets in FUNCTIONS.items():
            for home, attr in targets:
                original = getattr(home, attr)
                wrapped = self.wrap(name, original)
                bound = 0
                for module in MODULES:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, key, wrapped)
                            bound += 1
                if bound == 0:
                    raise RuntimeError(f"{home.__name__}.{attr} is bound nowhere")
        for name, targets in METHODS.items():
            for cls, attr in targets:
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
                else:
                    setattr(cls, attr, self.wrap(name, raw))

    def write(self, path):
        """Write every pass's spans as JSON lines; ids are per pass."""
        with open(path, "w", encoding="utf-8") as handle:
            for number, spans in enumerate(self.passes):
                for index, (name, start, end, parent, instance, _note) in enumerate(spans):
                    handle.write(json.dumps({
                        "pass": number, "id": index, "name": name, "start": start,
                        "end": end, "parent": parent, "instance": instance,
                    }) + "\n")


# Per-layer metric -> unit. Counts are per pass and repeat exactly; times are
# seconds per pass, scaled like the end-to-end times.
LAYER_UNITS = {
    "solvers.wdisc_exact.calls": "count",
    "solvers.wdisc_exact.self_s": "s",
    "solvers.wdisc_exact.nodes": "count",
    "solvers.probe_s": "s",
    "solvers.probe_share": "ratio",
    "solvers.probe_hit_ratio": "ratio",
    "solvers.odisc_exact.calls": "count",
    "solvers.odisc_exact.s": "s",
    "solvers.oracle.calls": "count",
    "solvers.oracle.s": "s",
    "solvers.oracle.nodes": "count",
    "solvers.eval_s": "s",
    "recursive_coloring.odisc_color.calls": "count",
    "recursive_coloring.odisc_color.self_s": "s",
    "recursive_coloring.oracle_calls_per_color": "ratio",
    "matrices.stack_restrict_s": "s",
    "matrices.cells_built": "count",
    "matrices.from_rows_s": "s",
    "fairdiv.allocate.rounds": "count",
    "fairdiv.allocate.rejected_round_ratio": "ratio",
    "fairdiv.scaling_s": "s",
    "fairdiv.check.calls": "count",
    "fairdiv.check_s": "s",
    "fairdiv.minc.s": "s",
    "fairdiv.minc.full_leaves": "count",
    "fairdiv.minc.leaf_us": "us",
    "fairdiv.minc.early_exit_ratio": "ratio",
    "cli.run.self_s": "s",
    "cli.parse_s": "s",
    "cli.format_s": "s",
    "lower_bounds.build_stacked_s": "s",
    "lower_bounds.certify.self_s": "s",
}
COUNT_METRICS = tuple(name for name, unit in LAYER_UNITS.items() if unit == "count")


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(spans, scales):
    """Per-layer metrics of one pass, from that pass's spans.

    `scales[i]` converts instance i's CPU seconds to the reference speed the
    end-to-end metrics use (see run.py), so layer times add up to them.
    """
    children = [[] for _ in spans]
    by_name = {}
    for index, (name, _start, _end, parent, _instance, _note) in enumerate(spans):
        by_name.setdefault(name, []).append(index)
        if parent is not None:
            children[parent].append(index)

    def named(name):
        return by_name.get(name, [])

    def duration(i):
        return (spans[i][2] - spans[i][1]) * scales[spans[i][4]]

    def self_time(i):
        return duration(i) - sum(duration(c) for c in children[i])

    def has_ancestor(i, name):
        parent = spans[i][3]
        while parent is not None and spans[parent][0] != name:
            parent = spans[parent][3]
        return parent is not None

    def total(name):
        """Time in `name` calls, counting nested calls of the same name once."""
        return sum(duration(i) for i in named(name) if not has_ancestor(i, name))

    def child_of(i, name):
        return spans[i][3] is not None and spans[spans[i][3]][0] == name

    exact = named("solvers.wdisc_exact")
    probes = [i for i in named("solvers.wdisc_heuristic") if child_of(i, "solvers.wdisc_exact")]
    probe_hits = sum(1 for i in probes if spans[i][5][0] == spans[spans[i][3]][5][0])
    oracle = [i for i in named("solvers.wdisc_heuristic") if child_of(i, "solvers.oracle_solve")]
    colors = named("recursive_coloring.odisc_color")
    colored_oracle_calls = sum(
        1 for i in named("solvers.oracle_solve")
        if has_ancestor(i, "recursive_coloring.odisc_color")
    )
    built = named("matrices.stack_vertical") + named("matrices.restrict_columns")
    allocations = named("fairdiv.allocate")
    rounds = sum(1 for i in colors if child_of(i, "fairdiv.allocate"))
    minc = named("fairdiv.minc")
    full = [i for i in minc if spans[i][5][0] >= 1]
    full_leaves = sum(spans[i][5][1] for i in full)

    return {
        "solvers.wdisc_exact.calls": len(exact),
        "solvers.wdisc_exact.self_s": sum(self_time(i) for i in exact),
        "solvers.wdisc_exact.nodes": sum(spans[i][5][1] for i in exact),
        "solvers.probe_s": sum(duration(i) for i in probes),
        "solvers.probe_share": _ratio(
            sum(duration(i) for i in probes), sum(duration(i) for i in exact)
        ),
        "solvers.probe_hit_ratio": _ratio(probe_hits, len(exact)),
        "solvers.odisc_exact.calls": len(named("solvers.odisc_exact")),
        "solvers.odisc_exact.s": total("solvers.odisc_exact"),
        "solvers.oracle.calls": len(oracle),
        "solvers.oracle.s": sum(duration(i) for i in oracle),
        "solvers.oracle.nodes": sum(spans[i][5][1] for i in oracle),
        "solvers.eval_s": total("solvers.eval"),
        "recursive_coloring.odisc_color.calls": len(colors),
        "recursive_coloring.odisc_color.self_s": sum(self_time(i) for i in colors),
        "recursive_coloring.oracle_calls_per_color": _ratio(
            colored_oracle_calls, sum(spans[i][5] for i in colors)
        ),
        "matrices.stack_restrict_s": sum(duration(i) for i in built),
        "matrices.cells_built": sum(spans[i][5] for i in built),
        "matrices.from_rows_s": total("matrices.from_rows"),
        "fairdiv.allocate.rounds": rounds,
        "fairdiv.allocate.rejected_round_ratio": _ratio(rounds - len(allocations), rounds),
        "fairdiv.scaling_s": total("fairdiv.scaling"),
        "fairdiv.check.calls": len(named("fairdiv.check")),
        "fairdiv.check_s": total("fairdiv.check"),
        "fairdiv.minc.s": total("fairdiv.minc"),
        "fairdiv.minc.full_leaves": full_leaves,
        "fairdiv.minc.leaf_us": _ratio(sum(duration(i) for i in full) * 1e6, full_leaves),
        "fairdiv.minc.early_exit_ratio": _ratio(len(minc) - len(full), len(minc)),
        "cli.run.self_s": sum(self_time(i) for i in named("cli.run")),
        "cli.parse_s": total("cli.parse"),
        "cli.format_s": total("cli.format"),
        "lower_bounds.build_stacked_s": total("lower_bounds.build_stacked"),
        "lower_bounds.certify.self_s": sum(self_time(i) for i in named("lower_bounds.certify")),
    }

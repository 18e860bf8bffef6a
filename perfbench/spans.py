"""Spans around the library's public functions, and the per-layer metrics
derived from them.

Tracing lives entirely in the benchmark: `install` rebinds each wrapped
function in every subwordkit module namespace that holds it (so
`closures.determinize` is traced as well as `core.determinize`), and the
library source is untouched.  A span is

    [name, start, end, parent index or -1, op id, counts dict or None]

kept in a list in memory and written out when the process ends.  Spans are
recorded only while `Tracer.op` is set, so the benchmark's own checks, which
also call the library, leave no spans.
"""

import functools
import importlib
import sys
import time


def _interior_name(args, kwargs):
    method = args[1] if len(args) > 1 else kwargs.get("method", "antichain")
    return f"interiors.{method}"


# (module, function, span name or function of the call, counts of the call)
WRAPPED = (
    ("kernels", "cone_closure", "kernels.cone_closure",
     lambda a, kw, out: {"states": out[0]}),
    ("kernels", "subset_construction", "kernels.subset_construction",
     lambda a, kw, out: {"subsets": len(out[1])}),
    ("kernels", "dfa_minimize", "kernels.dfa_minimize",
     lambda a, kw, out: {"states_in": a[0], "states_out": out[0]}),
    ("core", "determinize", "core.determinize", None),
    ("core", "minimize", "core.minimize", None),
    ("closures", "closure_dfa", "closures.closure_dfa", None),
    ("closures", "down_closure", "closures.down_closure",
     lambda a, kw, out: {"transitions": len(out.transitions)}),
    ("closures", "up_closure", "closures.up_closure",
     lambda a, kw, out: {"transitions": len(out.transitions)}),
    ("decisions", "shortest_in_difference", "decisions.shortest_in_difference",
     lambda a, kw, out: {"witnesses": int(out is not None)}),
    ("decisions", "down_universal", "decisions.down_universal", None),
    ("decisions", "dfa_closed_witness", "decisions.dfa_closed_witness", None),
    ("interiors", "substitution_preimage", "interiors.substitution_preimage",
     lambda a, kw, out: {"states": out.n}),
    ("interiors", "up_interior", _interior_name, None),
    ("interiors", "down_interior", _interior_name, None),
    ("bounds", "verify_fooling", "bounds.verify_fooling", None),
    ("bounds", "rational_rank", "bounds.rational_rank", None),
    ("witnesses", "gen_family", "witnesses.gen_family", None),
    ("formats", "parse_automaton", "formats.parse_automaton",
     lambda a, kw, out: {"bytes": len(a[0].encode())}),
    ("formats", "serialize_automaton", "formats.serialize_automaton",
     lambda a, kw, out: {"bytes": len(out.encode())}),
    ("cli", "main", "cli.main", None),
)

# Per-layer metrics reported by a traced run, in report order.  `calls`
# counts spans, `self_ms` sums span time minus child spans, and any other
# quantity sums the counts recorded at that boundary.
LAYER_METRICS = (
    ("kernels.cone_closure.calls", "count"), ("kernels.cone_closure.self_ms", "ms"),
    ("kernels.cone_closure.states", "count"),
    ("kernels.subset_construction.calls", "count"),
    ("kernels.subset_construction.self_ms", "ms"),
    ("kernels.subset_construction.subsets", "count"),
    ("kernels.dfa_minimize.calls", "count"), ("kernels.dfa_minimize.self_ms", "ms"),
    ("kernels.dfa_minimize.states_in", "count"), ("kernels.dfa_minimize.states_out", "count"),
    ("core.determinize.self_ms", "ms"), ("core.minimize.self_ms", "ms"),
    ("closures.closure_dfa.calls", "count"), ("closures.closure_dfa.self_ms", "ms"),
    ("closures.down_closure.calls", "count"), ("closures.down_closure.self_ms", "ms"),
    ("closures.down_closure.transitions", "count"),
    ("closures.up_closure.calls", "count"), ("closures.up_closure.self_ms", "ms"),
    ("closures.up_closure.transitions", "count"),
    ("decisions.shortest_in_difference.calls", "count"),
    ("decisions.shortest_in_difference.self_ms", "ms"),
    ("decisions.shortest_in_difference.witnesses", "count"),
    ("decisions.down_universal.self_ms", "ms"),
    ("decisions.dfa_closed_witness.calls", "count"),
    ("decisions.dfa_closed_witness.self_ms", "ms"),
    ("interiors.substitution_preimage.calls", "count"),
    ("interiors.substitution_preimage.self_ms", "ms"),
    ("interiors.substitution_preimage.states", "count"),
    ("interiors.duality.self_ms", "ms"),
    ("bounds.verify_fooling.calls", "count"), ("bounds.verify_fooling.self_ms", "ms"),
    ("bounds.rational_rank.calls", "count"), ("bounds.rational_rank.self_ms", "ms"),
    ("witnesses.gen_family.calls", "count"), ("witnesses.gen_family.self_ms", "ms"),
    ("formats.parse_automaton.calls", "count"), ("formats.parse_automaton.self_ms", "ms"),
    ("formats.parse_automaton.bytes", "bytes"),
    ("formats.serialize_automaton.calls", "count"),
    ("formats.serialize_automaton.self_ms", "ms"),
    ("formats.serialize_automaton.bytes", "bytes"),
    ("cli.main.self_ms", "ms"), ("cli.startup_ms", "ms"),
)
# Ratios, each over a base that is itself a reported metric; 0 when the
# base is 0.
RATIOS = (
    ("core.powerset_yield", "kernels.dfa_minimize.states_out",
     "kernels.subset_construction.subsets"),
    ("closures.cone_route_share", "kernels.cone_closure.calls", "closures.closure_dfa.calls"),
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = None  # id of the running op; spans are recorded only while set
        self._stack = []

    def wrap(self, fn, name, counts):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            parent = tracer._stack[-1] if tracer._stack else -1
            span = [label, 0.0, 0.0, parent, tracer.op, None]
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, out)
            return out

        return traced


def install(tracer):
    """Rebind every wrapped function wherever a subwordkit module holds it."""
    for module, attr, name, counts in WRAPPED:
        original = getattr(importlib.import_module(f"subwordkit.{module}"), attr)
        wrapper = tracer.wrap(original, name, counts)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "subwordkit" or mod_name.startswith("subwordkit.")):
                continue
            if mod_name.startswith("subwordkit._kernels"):
                continue  # the backends themselves; kernels are traced at the facade
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)


def self_times(spans):
    """Self time of each span: its duration minus that of its direct children.

    Spans of one process nest properly, so the children of a span never
    overlap and their durations can be summed.
    """
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def layer_metrics(span_lists, extra=None):
    """The per-layer metrics of LAYER_METRICS and RATIOS for one run.

    `span_lists` holds one span list per traced process; `extra` adds
    totals measured outside the spans, such as cli.startup_ms.
    """
    totals = dict(extra or {})
    for spans in span_lists:
        for span, own in zip(spans, self_times(spans)):
            name = span[0]
            totals[f"{name}.calls"] = totals.get(f"{name}.calls", 0) + 1
            totals[f"{name}.self_ms"] = totals.get(f"{name}.self_ms", 0.0) + own * 1000
            for key, value in (span[5] or {}).items():
                totals[f"{name}.{key}"] = totals.get(f"{name}.{key}", 0) + value
    out = {name: (totals.get(name, 0), unit) for name, unit in LAYER_METRICS}
    for name, num, base in RATIOS:
        b = totals.get(base, 0)
        out[name] = (totals.get(num, 0) / b if b else 0, "ratio")
    return out

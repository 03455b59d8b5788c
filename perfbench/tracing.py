"""Spans and counters recorded around calls into the prism layers.

``install`` replaces the public functions of each layer module, and a few
methods, with wrappers, in every ``prism`` module that holds them: names
re-bound by ``from .x import y`` (such as ``prism.cube.thomason_heights``)
are wrapped too.  Nothing under ``src/`` changes; spans inside function
bodies (fixed-point rounds, cache hits) are the program's to record.

A span records its name, start, end, parent span and operation id.  Spans
stay in memory and are written once, when the run ends.  A span's self time
is its duration minus the time its child spans cover.  Each group below
also keeps the time of its outermost spans, so a recursive or nested call
(``is_clopen`` calling ``is_closed``) is not counted twice.
"""

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from time import perf_counter_ns

LAYERS = ("liegroups", "intlinalg", "priestley", "dispersion", "cube", "cli")

# methods of prism.priestley wrapped with spans: (class, method)
PREDICATES = ("is_closed", "is_open", "is_clopen", "is_down_set", "is_up_set")
SPAN_METHODS = [("FlaggedPriestley", "__post_init__"), ("FinitePriestley", "__post_init__")] + [
    ("SymbolicSet", m) for m in PREDICATES
]

# small methods called inside loops; a span on each would swamp the run, so
# they are only counted: (class, method, counter)
COUNTED_METHODS = [
    ("FlaggedPriestley", "down_closure", "down_up_closure"),
    ("FlaggedPriestley", "up_closure", "down_up_closure"),
    ("SymbolicSet", "portion", "portion"),
]

GROUPS = {
    "priestley.FlaggedPriestley.__post_init__": "construct",
    "priestley.FinitePriestley.__post_init__": "construct",
    **{"priestley.SymbolicSet.%s" % m: "predicate" for m in PREDICATES},
    "liegroups.flagged_snapshot": "snapshot",
    "liegroups.snapshot_keys": "snapshot",
    "liegroups.snapshot_parts": "snapshot",
    "liegroups.cotoral_le": "cotoral_le",
    "priestley.down_closure_symbolic": "symbolic_closure",
    "priestley.up_closure_symbolic": "symbolic_closure",
    "priestley.clopen_down_sets": "clopen",
    "dispersion.thomason_heights": "heights",
    "dispersion.thomason_derivative": "derivative",
    "dispersion.cb_heights": "cb",
    "dispersion.is_dispersion": "check",
    "dispersion.strata": "check",
    "dispersion.weakly_visible": "weakly_visible",
    "dispersion.is_generically_noetherian": "gen_noetherian",
    "cube.decomposition_of": "decomposition",
    "cube.build_decomposition": "decomposition",
    "cube.cube_to_json": "export",
    "cube.cube_to_dot": "export",
    "cube.cube_to_text": "export",
}


def _count(key, measure):
    def hook(counts, args, result):
        counts[key] += measure(args, result)
    return hook


def _clopen(counts, args, result):
    counts["clopen_classes"] += len(result)
    counts["clopen_profiles"] += 1 << len(args[0].families)


HOOKS = {
    "priestley.clopen_down_sets": _clopen,
    "liegroups.flagged_snapshot": _count("keys", lambda a, r: len(r.concrete)),
    "liegroups.cotoral_le": _count("cotoral_kept", lambda a, r: 1 if r else 0),
    "priestley.FlaggedPriestley.__post_init__": _count("order_pairs", lambda a, r: len(a[0].order)),
    "priestley.FinitePriestley.__post_init__": _count("order_pairs", lambda a, r: len(a[0].order)),
    "dispersion.weakly_visible": _count("visible", lambda a, r: r is not None),
    "cube.decomposition_of": _count("nodes", lambda a, r: len(r.nodes)),
    "cube.cube_to_json": _count("export_bytes", lambda a, r: len(r.encode())),
    "cube.cube_to_dot": _count("export_bytes", lambda a, r: len(r.encode())),
    "cube.cube_to_text": _count("export_bytes", lambda a, r: len(r.encode())),
}


class Tracer:
    def __init__(self):
        self.names = []
        self.layer_of = []
        self.self_ns = []
        self.calls = []
        self.spans = []
        self.stack = []
        self.group_ns = defaultdict(int)
        self.group_depth = defaultdict(int)
        self.counts = defaultdict(int)
        self.children = []
        self.op = None

    def wrap(self, fn, name, layer):
        idx = len(self.names)
        self.names.append(name)
        self.layer_of.append(layer)
        self.self_ns.append(0)
        self.calls.append(0)
        group = GROUPS.get(name)
        hook = HOOKS.get(name)
        call = self._call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(idx, group, hook, fn, args, kwargs)

        for attr in ("cache_clear", "cache_info"):
            if hasattr(fn, attr):
                setattr(wrapper, attr, getattr(fn, attr))
        return wrapper

    def count_only(self, fn, key):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _call(self, idx, group, hook, fn, args, kwargs):
        stack = self.stack
        rec = [idx, 0, 0, stack[-1][0] if stack else -1, self.op]
        frame = [len(self.spans), 0]
        self.spans.append(rec)
        stack.append(frame)
        outer = False
        if group is not None:
            outer = self.group_depth[group] == 0
            self.group_depth[group] += 1
        start = perf_counter_ns()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf_counter_ns()
            stack.pop()
            dur = end - start
            rec[1], rec[2] = start, end
            self.self_ns[idx] += dur - frame[1]
            self.calls[idx] += 1
            if stack:
                stack[-1][1] += dur
            if group is not None:
                self.group_depth[group] -= 1
                if outer:
                    self.group_ns[group] += dur
        if hook is not None:
            hook(self.counts, args, result)
        return result

    def reset_stack(self):
        """Drop open spans after an operation was cut off mid-call."""
        self.stack.clear()
        self.group_depth.clear()

    def summary(self):
        """Aggregates keyed by name, in a form ``merge`` can add up."""
        return {
            "self_ns": dict(zip(self.names, self.self_ns)),
            "calls": dict(zip(self.names, self.calls)),
            "layer": dict(zip(self.names, self.layer_of)),
            "group_ns": dict(self.group_ns),
            "counts": dict(self.counts),
        }

    def merge(self, summary, spans):
        """Add a traced child process's aggregates and spans."""
        self.children.append({"op": self.op, "names": list(summary["self_ns"]), "spans": spans})
        for name, ns in summary["self_ns"].items():
            if name not in self.names:
                self.names.append(name)
                self.layer_of.append(summary["layer"][name])
                self.self_ns.append(0)
                self.calls.append(0)
            i = self.names.index(name)
            self.self_ns[i] += ns
            self.calls[i] += summary["calls"][name]
        for key, ns in summary["group_ns"].items():
            self.group_ns[key] += ns
        for key, n in summary["counts"].items():
            self.counts[key] += n

    def dump(self):
        """Everything recorded, for writing once at the end of the run."""
        base = self.spans[0][1] if self.spans else 0
        return {
            "names": self.names,
            "fields": ["name", "start_ns", "end_ns", "parent", "op"],
            "spans": [[i, s - base, e - base, p, op] for i, s, e, p, op in self.spans],
            "children": self.children,
        }


def install(tracer):
    """Wrap the layers' functions and methods in every loaded prism module."""
    replaced = {}
    for layer in LAYERS:
        mod = importlib.import_module("prism." + layer)
        for attr, val in list(vars(mod).items()):
            if not callable(val) or inspect.isclass(val):
                continue
            if getattr(val, "__module__", None) != mod.__name__:
                continue
            if attr.startswith("_") and layer != "cli":
                continue
            replaced[id(val)] = tracer.wrap(val, "%s.%s" % (layer, attr), layer)
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "prism" and not mod_name.startswith("prism."):
            continue
        for attr, val in list(vars(mod).items()):
            if id(val) in replaced:
                setattr(mod, attr, replaced[id(val)])
    priestley = importlib.import_module("prism.priestley")
    for cls_name, method in SPAN_METHODS:
        cls = getattr(priestley, cls_name)
        name = "priestley.%s.%s" % (cls_name, method)
        setattr(cls, method, tracer.wrap(getattr(cls, method), name, "priestley"))
    for cls_name, method, key in COUNTED_METHODS:
        cls = getattr(priestley, cls_name)
        setattr(cls, method, tracer.count_only(getattr(cls, method), key))


def _ms(ns):
    return ns / 1e6


def layer_metrics(tracer):
    """The per-layer metrics the tracer can give, keyed by metric name."""
    s = tracer.summary()
    calls, counts, group = s["calls"], defaultdict(int, s["counts"]), defaultdict(int, s["group_ns"])
    out = {}
    for layer in LAYERS:
        names = [n for n, l in s["layer"].items() if l == layer]
        out[layer + ".self_ms"] = _ms(sum(s["self_ns"][n] for n in names))
        out[layer + ".calls"] = sum(calls[n] for n in names)

    def n_calls(*names):
        return sum(calls.get(n, 0) for n in names)

    def ratio(num, den):
        return num / den if den else 0.0

    cotoral = n_calls("liegroups.cotoral_le")
    visible = n_calls("dispersion.weakly_visible")
    out.update({
        "liegroups.snapshot_ms": _ms(group["snapshot"]),
        "liegroups.keys": counts["keys"],
        "liegroups.cotoral_le_calls": cotoral,
        "liegroups.cotoral_le_ms": _ms(group["cotoral_le"]),
        "liegroups.cotoral_hit_ratio": ratio(counts["cotoral_kept"], cotoral),
        "intlinalg.hnf_calls": n_calls("intlinalg.hermite_normal_form"),
        "intlinalg.solve_calls": n_calls("intlinalg.solve_in_lattice"),
        "intlinalg.snf_calls": n_calls("intlinalg.snf_invariant_factors"),
        "priestley.construct_calls": n_calls("priestley.FlaggedPriestley.__post_init__",
                                             "priestley.FinitePriestley.__post_init__"),
        "priestley.construct_ms": _ms(group["construct"]),
        "priestley.order_pairs": counts["order_pairs"],
        "priestley.down_up_closure_calls": counts["down_up_closure"],
        "priestley.portion_calls": counts["portion"],
        "priestley.symbolic_closure_ms": _ms(group["symbolic_closure"]),
        "priestley.predicate_ms": _ms(group["predicate"]),
        "priestley.clopen_ms": _ms(group["clopen"]),
        "priestley.clopen_yield_ratio": ratio(counts["clopen_classes"], counts["clopen_profiles"]),
        "dispersion.heights_ms": _ms(group["heights"]),
        "dispersion.derivative_calls": n_calls("dispersion.thomason_derivative"),
        "dispersion.derivative_ms": _ms(group["derivative"]),
        "dispersion.cb_ms": _ms(group["cb"]),
        "dispersion.check_ms": _ms(group["check"]),
        "dispersion.weakly_visible_ms": _ms(group["weakly_visible"]),
        "dispersion.visible_ratio": ratio(counts["visible"], visible),
        "dispersion.gen_closure_calls": n_calls("dispersion.gen_closure"),
        "dispersion.gen_noetherian_ms": _ms(group["gen_noetherian"]),
        "cube.decomposition_ms": _ms(group["decomposition"]),
        "cube.nodes": counts["nodes"],
        "cube.export_ms": _ms(group["export"]),
        "cube.export_bytes": counts["export_bytes"],
        "trace.spans": len(tracer.spans) + sum(len(c["spans"]) for c in tracer.children),
    })
    return out

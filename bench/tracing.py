"""Span-recording shims for the traced benchmark run.

The shims live here, not in the program: ``install`` replaces functions on
the module attributes that callers go through (``oracle.states_not_reaching``
as ``wilson`` calls it, the ``forests`` functions imported by name into
``formulas``, ``wilson.loop_erase`` and so on) with wrappers that record one
span per call. A span is (name, start, end, parent span, operation id).
Spans stay in memory in flat arrays and are written out once, when the run
ends. A layer's self time is its spans' time minus the time covered by
their child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from array import array

# Which functions are traced, module by module, and the kind of work each
# one is. A function is replaced wherever a forestchain module holds it, so
# names imported with ``from .forests import w_sum`` are covered too.
TRACED = {
    "chains": {
        "parse_chain": "parse",
        "chain_from_edge_list": "parse",
    },
    "forests": {
        "w_sum": "sum",
        "w_target_sum": "sum",
        "sigma_sums": "sum",
        "sigma_r": "sum",
        "sigma_pair": "sum",
        "w_ec_sums": "sum",
        "enumerate_forests": "enum",
        "enumerate_ecrsf": "enum",
        "forest_weight": "weight",
        "ecrsf_weight": "weight",
        "cayley_count": "count",
    },
    "formulas": {
        name: "formula" for name in (
            "stationary", "mean_return_time", "mfpt", "kemeny",
            "green_occupation", "mean_hitting_time", "hitting_distribution",
            "cesaro_forest", "cesaro_forest_matrix", "chung_occupation",
            "ecrsf_stopped_distribution", "feasibility", "analyze",
            "absorption", "mfpt_via_modified_chain")
    },
    "oracle": {
        "exact_det": "det",
        "laplacian_cofactor": "det",
        "stationary_solve": "solve",
        "green_matrix_solve": "solve",
        "hitting_solve": "solve",
        "mfpt_solve": "solve",
        "fundamental_matrix": "solve",
        "kemeny_trace": "solve",
        "irreducibility_certificate": "graph",
        "require_irreducible": "graph",
        "states_not_reaching": "graph",
        "states_not_reaching_all": "graph",
        "recurrent_classes": "graph",
        "period": "graph",
    },
    "wilson": {
        "sample_trees": "batch",
        "sample_forests": "batch",
        "sample_ecrsf": "batch",
        "wilson_tree": "draw",
        "wilson_forest": "draw",
        "kkw_sample": "draw",
        "loop_erase": "loop_erase",
        "_check_ec_feasible": "feasibility",
        "gof_test": "gof",
        "lerw_path_prob": "path",
    },
}

# Private names that one module reaches into another for. They are replaced
# only in the caller's namespace, so the span marks the boundary crossing:
# the sampler's per-draw use of the forests layer, and the law builder the
# CLI borrows from verify.
BOUNDARY = {
    ("wilson", "_scaled_rows"): ("forests._scaled_rows", "rows"),
    ("wilson", "RootedForest"): ("forests.RootedForest", "construct"),
    ("wilson", "Ecrsf"): ("forests.Ecrsf", "construct"),
    ("verify", "_tree_law"): ("law.tree_law", "law"),
}

# Generator functions are drained inside the span, so that the span covers
# the enumeration and not just the creation of the generator.
MATERIALIZE = {"enumerate_forests", "enumerate_ecrsf"}

_MODULES = ("forestchain", "forestchain.chains", "forestchain.forests",
            "forestchain.formulas", "forestchain.oracle", "forestchain.wilson",
            "forestchain.verify", "forestchain.cli")


def _arg(args, kwargs, pos, name, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(name, default)


def _roots_key(args, kwargs):
    """(chain, root set) of w_sum(p, roots, ...)."""
    return args[0], frozenset(_arg(args, kwargs, 1, "roots"))


def _target_key(args, kwargs):
    """w_target_sum(p, roots, i, j) sums over forests rooted at roots | {j}."""
    roots = frozenset(_arg(args, kwargs, 1, "roots"))
    return args[0], roots | {int(_arg(args, kwargs, 3, "j"))}


def _pair_key(args, kwargs):
    """sigma_pair by tree deletion walks the trees rooted at {j}."""
    if _arg(args, kwargs, 3, "method", "tree-deletion") != "tree-deletion":
        return None  # the two-forest method's w_target_sum calls carry keys
    return args[0], frozenset({int(_arg(args, kwargs, 2, "j"))})


def _ec_key(args, kwargs):
    return args[0], ("ec", frozenset(_arg(args, kwargs, 2, "tree_roots")))


KEYS = {
    "w_sum": _roots_key,
    "w_target_sum": _target_key,
    "sigma_pair": _pair_key,
    "w_ec_sums": _ec_key,
}


class Tracer:
    """In-memory span store plus the counters taken at the shims."""

    def __init__(self):
        self.names: list[str] = []
        self.kinds: list[str] = []
        self.span_name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.child_time = array("d")
        self.stack: list[int] = []
        self.active = False
        self.op_id = -1
        self.keyed = 0
        self.repeats = 0
        self._seen: set = set()
        self._chain_hash: dict[int, tuple[object, int]] = {}
        self.walk_steps: dict[int, int] = {}

    # -- recording -------------------------------------------------------

    def _name_id(self, name: str, kind: str) -> int:
        self.names.append(name)
        self.kinds.append(kind)
        return len(self.names) - 1

    def _note_key(self, key) -> None:
        chain, roots = key
        # hash each chain once per object; the entry keeps the chain alive
        # so that its id cannot be reused by another chain during the run
        entry = self._chain_hash.get(id(chain))
        if entry is None:
            entry = (chain, hash(chain.rows))
            self._chain_hash[id(chain)] = entry
        k = (entry[1], roots)
        self.keyed += 1
        if k in self._seen:
            self.repeats += 1
        else:
            self._seen.add(k)

    def wrap(self, name: str, kind: str, fn, key=None, materialize=False):
        nid = self._name_id(name, kind)
        steps = name == "wilson.loop_erase"
        stack = self.stack
        clock = time.perf_counter
        # the arrays are never replaced, so their methods can be bound once
        add_name, add_parent = self.span_name.append, self.parent.append
        add_op, add_child = self.op.append, self.child_time.append
        add_start, add_end = self.start.append, self.end.append
        end, child_time = self.end, self.child_time

        @functools.wraps(fn, updated=())
        def shim(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if key is not None:
                k = key(args, kwargs)
                if k is not None:
                    self._note_key(k)
            if steps:
                # the walk handed to loop erasure: its length is the step count
                path = args[0]
                n = len(getattr(path, "states", path)) - 1
                self.walk_steps[self.op_id] = self.walk_steps.get(self.op_id, 0) + n
            idx = len(end)
            parent = stack[-1] if stack else -1
            add_name(nid)
            add_parent(parent)
            add_op(self.op_id)
            add_child(0.0)
            add_end(0.0)
            stack.append(idx)
            t0 = clock()
            add_start(t0)
            try:
                out = fn(*args, **kwargs)
                if materialize:
                    out = iter(list(out))
                return out
            finally:
                t1 = clock()
                stack.pop()
                end[idx] = t1
                if parent >= 0:
                    child_time[parent] += t1 - t0

        return shim

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace the traced functions in every loaded forestchain module."""
        modules = [sys.modules[m] for m in _MODULES if m in sys.modules]
        for layer, table in TRACED.items():
            home = sys.modules[f"forestchain.{layer}"]
            for fname, kind in table.items():
                original = getattr(home, fname)
                shim = self.wrap(f"{layer}.{fname}", kind, original,
                                 key=KEYS.get(fname),
                                 materialize=fname in MATERIALIZE)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, shim)
        for (mod_name, attr), (name, kind) in BOUNDARY.items():
            mod = sys.modules.get(f"forestchain.{mod_name}")
            if mod is not None:
                setattr(mod, attr, self.wrap(name, kind, getattr(mod, attr)))

    # -- results ---------------------------------------------------------

    def merge(self, doc: dict, op_id: int) -> None:
        """Append the spans a traced child process wrote for one operation."""
        ids = [self._name_id(n, k) for n, k in zip(doc["names"], doc["kinds"])]
        base = len(self.start)
        for nid, s, e, par, child in zip(doc["name"], doc["start"], doc["end"],
                                         doc["parent"], doc["child_time"]):
            self.span_name.append(ids[nid])
            self.start.append(s)
            self.end.append(e)
            self.parent.append(par + base if par >= 0 else -1)
            self.op.append(op_id)
            self.child_time.append(child)
        self.keyed += doc["keyed"]
        self.repeats += doc["repeats"]
        for _op, n in doc["walk_steps"].items():
            self.walk_steps[op_id] = self.walk_steps.get(op_id, 0) + n

    def to_json(self) -> dict:
        t0 = min(self.start) if self.start else 0.0
        return {
            "names": self.names,
            "kinds": self.kinds,
            "name": list(self.span_name),
            "start": [round(s - t0, 7) for s in self.start],
            "end": [round(e - t0, 7) for e in self.end],
            "parent": list(self.parent),
            "op": list(self.op),
            "child_time": [round(c, 7) for c in self.child_time],
            "keyed": self.keyed,
            "repeats": self.repeats,
            "walk_steps": self.walk_steps,
        }

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_json(), fh)

    def layer_metrics(self, ops: int) -> dict[str, float]:
        """Per-layer times and counts, as means per operation of the traced phase."""
        draws = {i for i, n in enumerate(self.names)
                 if n in ("wilson.wilson_forest", "wilson.kkw_sample")}
        total: dict[str, float] = {}
        count: dict[str, int] = {}

        def add(metric: str, value: float) -> None:
            total[metric] = total.get(metric, 0.0) + value
            count[metric] = count.get(metric, 0) + 1

        for i in range(len(self.start)):
            nid = self.span_name[i]
            name, kind = self.names[nid], self.kinds[nid]
            layer = name.split(".", 1)[0]
            dur = self.end[i] - self.start[i]
            own = dur - self.child_time[i]
            if layer == "forests":
                add("forests.self", own)
            elif layer == "formulas":
                add("formulas.self", own)
            elif layer == "chains":
                add("chains.parse", own)
            elif layer == "oracle":
                add(f"oracle.{kind}", own)
                par = self.parent[i]
                if kind == "graph" and par >= 0 and self.span_name[par] in draws:
                    add("wilson.feasibility", dur)
            elif layer == "law":
                add("forests.law", dur)
            if kind == "draw":
                add("wilson.draw", dur)
            elif kind == "loop_erase":
                add("wilson.loop_erase", dur)
            elif kind == "feasibility":
                add("wilson.feasibility", dur)
            elif kind == "gof":
                add("wilson.gof", dur)
        per_op = max(ops, 1)
        draw_count = count.get("wilson.draw", 0)
        return {
            "forests.self_s": total.get("forests.self", 0.0) / per_op,
            "forests.calls": count.get("forests.self", 0) / per_op,
            "forests.repeat_share": self.repeats / self.keyed if self.keyed else 0.0,
            "forests.law_s": total.get("forests.law", 0.0) / per_op,
            "formulas.self_s": total.get("formulas.self", 0.0) / per_op,
            "oracle.solve_s": total.get("oracle.solve", 0.0) / per_op,
            "oracle.det_s": total.get("oracle.det", 0.0) / per_op,
            "oracle.solve_calls": count.get("oracle.solve", 0) / per_op,
            "oracle.graph_s": total.get("oracle.graph", 0.0) / per_op,
            "oracle.graph_calls": count.get("oracle.graph", 0) / per_op,
            "wilson.draw_us": (total.get("wilson.draw", 0.0) / draw_count * 1e6
                               if draw_count else 0.0),
            "wilson.loop_erase_s": total.get("wilson.loop_erase", 0.0) / per_op,
            "wilson.feasibility_s": total.get("wilson.feasibility", 0.0) / per_op,
            "wilson.gof_s": total.get("wilson.gof", 0.0) / per_op,
            "chains.parse_s": total.get("chains.parse", 0.0) / per_op,
        }

"""Spans around the library's public functions, installed from outside.

Each public name is wrapped in the namespace that calls it (for example
`quadstab.harness.stabilize` and `quadstab.stability.stabilize`), so no
file under src/ changes.  A span records name, layer, start, end, parent
and op id.  Leaf calls too hot for one span each (`hyers_iterate`,
`norm_eval`, the twisted residual, ...) are kept as a count and a total on
their parent span, so trace memory stays bounded.

A layer's self time is its spans' durations minus their children's; the
benchmark's own time is the rest of the traced wall clock, so the layer
self times plus the benchmark's add up to the wall time.
"""

from __future__ import annotations

import functools
import importlib
import time
from contextlib import contextmanager

import quadstab.finite as finite
from quadstab.equations import EquationSpec, equation_terms

SPAN, HOT = "span", "hot"


def _rref_bytes(args, kwargs, result):
    mat = args[0]
    return {"bytes": int(mat.shape[0]) * int(mat.shape[1]) * 8}


def _densify_rows(args, kwargs, result):
    return {"rows": int(args[1].shape[0])}


def _stabilize_probes(args, kwargs, result):
    probes = result.probes
    return {"probes": len(probes), "iterations": sum(p.iterations for p in probes),
            "converged": sum(1 for p in probes if p.converged)}


@functools.lru_cache(maxsize=None)
def _term_count(eq) -> int:
    return len(equation_terms(eq)[0])


def _twisted_evals(args, kwargs, result):
    return {"evals": _term_count(EquationSpec("fe3", n=int(args[2])))}


def _residual_evals(args, kwargs, result):
    return {"evals": _term_count(args[1])}


# (module, attribute, layer, kind, counter hook)
WRAPS = [
    ("quadstab.harness", "run_scenario", "harness", SPAN, None),
    ("quadstab.harness", "validate_config", "harness", SPAN, None),
    ("quadstab.harness", "stabilize", "stability", SPAN, _stabilize_probes),
    ("quadstab.stability", "stabilize", "stability", SPAN, _stabilize_probes),
    ("quadstab.harness", "fit_power_amplitude", "stability", SPAN, None),
    ("quadstab.harness", "fit_constant_level", "stability", SPAN, None),
    ("quadstab.stability", "fit_constant_level", "stability", SPAN, None),
    ("quadstab.harness", "verify_unitary_covariance", "stability", SPAN, None),
    ("quadstab.harness", "closed_form_bounds", "stability", HOT, None),
    ("quadstab.harness", "series_bound_forward", "stability", HOT, None),
    ("quadstab.harness", "series_bound_backward", "stability", HOT, None),
    ("quadstab.harness", "series_bound_forward_p", "stability", HOT, None),
    ("quadstab.harness", "series_bound_backward_p", "stability", HOT, None),
    ("quadstab.stability", "hyers_iterate", "stability", HOT, None),
    ("quadstab.stability", "probe_bound", "stability", HOT, None),
    ("quadstab.stability", "approximate_remainder", "mappings", HOT, _twisted_evals),
    ("quadstab.mappings", "approximate_remainder", "mappings", HOT, _twisted_evals),
    ("quadstab.mappings", "equation_residual", "mappings", HOT, _residual_evals),
    ("quadstab.mappings", "empirical_sup_residual", "mappings", SPAN, None),
    ("quadstab.algebra", "norm_eval", "algebra", HOT, None),
    ("quadstab.stability", "norm_eval", "algebra", HOT, None),
    ("quadstab.finite", "norm_eval", "algebra", HOT, None),
    ("quadstab.algebra", "concavity_modulus_estimate", "algebra", SPAN, None),
    ("quadstab.finite", "spaces_equal", "finite", SPAN, None),
    ("quadstab.finite", "nullspace_basis", "finite", SPAN, None),
    ("quadstab.finite", "constraints_hold", "finite", SPAN, None),
    ("quadstab.finite", "gf_rref", "finite", SPAN, _rref_bytes),
    ("quadstab.finite", "gf_nullspace", "finite", SPAN, None),
    ("quadstab.finite", "inner_product_characterization", "finite", SPAN, None),
    (finite.ConstraintMatrix, "densify", "finite", SPAN, _densify_rows),
]

LAYERS = ("harness", "stability", "mappings", "algebra", "finite", "equations")


class Tracer:
    """In-memory spans plus aggregated hot-leaf counters."""

    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[dict] = []
        self.hot: dict[str, dict] = {}
        self.paused = False
        self._in_hot = False
        self._saved: list = []
        self._next_id = 0

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for target, attr, layer, kind, hook in WRAPS:
            owner = importlib.import_module(target) if isinstance(target, str) else target
            fn = owner.__dict__[attr]
            self._saved.append((owner, attr, fn))
            wrapped = (self._span_wrapper if kind == SPAN else self._hot_wrapper)(
                fn, attr, layer, hook)
            setattr(owner, attr, wrapped)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, fn = self._saved.pop()
            setattr(owner, attr, fn)

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, layer: str, op_id=None) -> dict:
        parent = self.stack[-1] if self.stack else None
        rec = {"id": self._next_id, "name": name, "layer": layer,
               "parent": parent["id"] if parent else None,
               "op": op_id if parent is None else parent["op"],
               "start": time.perf_counter(), "end": None, "child_s": 0.0,
               "hot": {}, "counts": {}}
        self._next_id += 1
        self.stack.append(rec)
        return rec

    def _close(self, rec: dict) -> None:
        rec["end"] = time.perf_counter()
        self.stack.pop()
        if self.stack:
            self.stack[-1]["child_s"] += rec["end"] - rec["start"]
        self.spans.append(rec)

    @contextmanager
    def op_span(self, op):
        rec = self._open(f"op:{op.kind}", "bench", op.id)
        try:
            yield rec
        finally:
            self._close(rec)

    def _span_wrapper(self, fn, name, layer, hook):
        def wrapped(*args, **kwargs):
            if self.paused or self._in_hot or not self.stack:
                return fn(*args, **kwargs)
            rec = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    for k, v in hook(args, kwargs, result).items():
                        rec["counts"][k] = rec["counts"].get(k, 0) + v
                return result
            finally:
                self._close(rec)
        wrapped.__wrapped__ = fn
        return wrapped

    def _hot_wrapper(self, fn, name, layer, hook):
        def wrapped(*args, **kwargs):
            if self.paused or self._in_hot or not self.stack:
                return fn(*args, **kwargs)
            self._in_hot = True
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._in_hot = False
                parent = self.stack[-1]
                parent["child_s"] += dt
                agg = parent["hot"].setdefault(name, [0, 0.0])
                agg[0] += 1
                agg[1] += dt
                tot = self.hot.setdefault(name, {"layer": layer, "calls": 0, "s": 0.0})
                tot["calls"] += 1
                tot["s"] += dt
                if hook is not None:
                    for k, v in hook(args, kwargs, None).items():
                        tot[k] = tot.get(k, 0) + v
        wrapped.__wrapped__ = fn
        return wrapped

    # -- summaries ---------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, inclusive seconds, self seconds, summed counts."""
        out: dict[str, dict] = {}
        for rec in self.spans:
            s = out.setdefault(rec["name"], {"layer": rec["layer"], "calls": 0, "s": 0.0,
                                             "self_s": 0.0, "counts": {}})
            dur = rec["end"] - rec["start"]
            s["calls"] += 1
            s["s"] += dur
            s["self_s"] += dur - rec["child_s"]
            for k, v in rec["counts"].items():
                s["counts"][k] = s["counts"].get(k, 0) + v
        return out

    def inside(self, name: str) -> set[int]:
        """Ids of the spans called `name` and of every span below one."""
        by_id = {r["id"]: r for r in self.spans}
        out = set()
        for rec in self.spans:
            r = rec
            while r is not None:
                if r["name"] == name:
                    out.add(rec["id"])
                    break
                r = by_id.get(r["parent"])
        return out

    def self_times(self, wall_s: float) -> dict[str, float]:
        """Self seconds per layer; `bench` takes the rest of the wall time."""
        layers = {name: 0.0 for name in LAYERS + ("bench",)}
        op_total = 0.0
        for rec in self.spans:
            dur = rec["end"] - rec["start"]
            layers[rec["layer"]] += dur - rec["child_s"]
            if rec["parent"] is None:
                op_total += dur
        for tot in self.hot.values():
            layers[tot["layer"]] += tot["s"]
        layers["bench"] += wall_s - op_total
        return layers

    def dump(self) -> list[list]:
        return [[r["name"], r["layer"], r["start"], r["end"], r["parent"], r["op"],
                 {k: v for k, v in r["hot"].items()}] for r in self.spans]

"""Span tracing from outside the package: wraps ``g2lift`` entry points.

Each wrapped call records one span (name, start, end, parent) in memory.
A wrapped module-level function is replaced in every ``g2lift`` module that
holds a binding to it (``structure`` imports ``group`` names at import
time, ``lift`` imports ``cubic`` and ``modforms`` names), and a wrapped
method is replaced on the class named here only, so ``Matrix7.__mul__`` is
traced and ``Matrix2.__mul__`` is not.  Spans are written out at the end.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from collections import defaultdict
from fractions import Fraction

# layer -> (module, attribute path) of the calls it covers
LAYERS = {
    "exact.matmul": [("exact", "Matrix7.__mul__")],
    "exact.construct": [("exact", "Matrix7.__init__"), ("exact", "Matrix7.from_entries")],
    "exact.det": [("exact", "Matrix7.det")],
    "exact.preserves_form": [("exact", "preserves_form")],
    "group.construct": [
        ("group", n)
        for n in (
            "root_generator", "weyl", "torus", "heis_n", "heis_n1",
            "levi_m", "levi_l", "u_coord", "z_coord", "iota",
        )
    ],
    "group.read": [("group", n) for n in ("n_coords", "n1_coords", "u_coords", "levi_m_coords")],
    "group.conj": [("group", "ad_weyl_alpha"), ("group", "ad_weyl_alpha_inv")],
    "group.w_action": [("group", n) for n in ("rho3", "ad_w", "coad_w")],
    "cubic.roots": [("cubic", "rational_projective_roots")],
    "cubic.reduce": [("cubic", "reduce_to_canonical")],
    "cubic.verify": [("cubic", "verify_reduction")],
    "cubic.classify": [("cubic", "etale_type"), ("cubic", "is_maximal")],
    "modforms.series_mul": [("modforms", "QExpansion.__mul__"), ("modforms", "QExpansion.__pow__")],
    "modforms.series_build": [("modforms", n) for n in ("eisenstein", "delta", "eigenform")],
    "modforms.satake": [("modforms", "satake"), ("modforms", "mu_f")],
    "shimura.theta_F": [("shimura", "theta_half"), ("shimura", "weight2_F")],
    "shimura.basis": [("shimura", "plus_cusp_basis")],
    "shimura.lift_check": [("shimura", "shimura_lift_check")],
    "lfunctions.central_value": [("lfunctions", "central_twisted_value")],
    "lift.coefficient": [("lift", "LiftContext.fourier_coefficient")],
    "lift.transform": [("lift", "LiftContext.transform_coefficient")],
    "lift.ratio": [("lift", "LiftContext.gross_ratio")],
}
SERIES_LAYERS = ("modforms.series_build", "shimura.theta_F", "shimura.basis")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        # one [name id, parent index, start, end] per span, in start order
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list = []
        self.missing: list[str] = []
        self.build_calls = 0
        self.build_repeats = 0
        self._build_args: set = set()
        self.series: dict[int, object] = {}
        self.lfunction_terms = 0

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        span = [self._name_id(name), self._stack[-1] if self._stack else -1, 0.0, 0.0]
        self.spans.append(span)
        self._stack.append(len(self.spans) - 1)
        span[2] = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            span[3] = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn):
        tracer = self
        build = layer == "modforms.series_build"
        keep = layer in SERIES_LAYERS
        terms = layer == "lfunctions.central_value"
        qualname = fn.__qualname__

        def traced(*args, **kwargs):
            if build:
                key = (qualname, args, tuple(sorted(kwargs.items())))
                tracer.build_calls += 1
                tracer.build_repeats += key in tracer._build_args
                tracer._build_args.add(key)
            result = tracer.call(layer, fn, *args, **kwargs)
            if keep:
                tracer.series[id(result)] = result
            elif terms:
                tracer.lfunction_terms += result.terms_used
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = qualname
        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        modules = {n: m for n, m in sys.modules.items() if n.startswith("g2lift") and m}
        for layer, targets in LAYERS.items():
            for mod_name, path in targets:
                module = sys.modules.get("g2lift." + mod_name)
                if module is None:
                    __import__("g2lift." + mod_name)
                    module = sys.modules["g2lift." + mod_name]
                    modules["g2lift." + mod_name] = module
                if "." in path:
                    self._patch_method(layer, module, path)
                else:
                    self._patch_function(layer, module, path, modules)

    def _patch_function(self, layer, module, name, modules):
        original = getattr(module, name, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{name}")
            return
        traced = self._wrap(layer, original)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, traced)
                    self._undo.append((mod, attr, True, original))

    def _patch_method(self, layer, module, path):
        cls_name, attr = path.split(".")
        cls = getattr(module, cls_name, None)
        raw = inspect.getattr_static(cls, attr, None) if cls is not None else None
        if raw is None:
            self.missing.append(f"{module.__name__}.{path}")
            return
        if isinstance(raw, classmethod):
            new = classmethod(self._wrap(layer, raw.__func__))
        else:
            new = self._wrap(layer, raw)
        had_own = attr in vars(cls)
        setattr(cls, attr, new)
        self._undo.append((cls, attr, had_own, raw))

    def uninstall(self):
        for owner, attr, had_own, original in reversed(self._undo):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def self_times(self, first: int = 0) -> list[float]:
        """Self time of the spans from index ``first`` on: duration minus
        the durations of their direct children."""
        spans = self.spans[first:]
        own = [end - start for _, _, start, end in spans]
        for _, parent, start, end in spans:
            if parent >= first:
                own[parent - first] -= end - start
        return own

    def layer_table(self, check_names) -> dict[str, float]:
        """The per-layer metrics, named as in BENCHMARK.json."""
        calls = defaultdict(int)
        self_s = defaultdict(float)
        rebuild = 0.0
        read = self._ids.get("group.read")
        construct = self._ids.get("group.construct")
        for (nid, parent, start, end), own in zip(self.spans, self.self_times()):
            name = self.names[nid]
            calls[name] += 1
            self_s[name] += own
            if nid == construct and parent >= 0 and self.spans[parent][0] == read:
                rebuild += end - start
        out = {}
        for name in list(LAYERS) + ["structure.check." + c for c in check_names]:
            out[name + ".calls"] = calls[name]
            out[name + ".self_s"] = self_s[name]
        out["group.read.rebuild_s"] = rebuild
        out["modforms.coeff_bits_max"] = max(
            (_coeff_bits(s) for s in self.series.values()), default=0
        )
        out["modforms.series_build.repeat_ratio"] = (
            self.build_repeats / self.build_calls if self.build_calls else 0.0
        )
        out["lfunctions.terms"] = self.lfunction_terms
        return out

    def shares(self, first: int, groups) -> tuple[float, float]:
        """(self time in the given top-level groups, total root-span time)
        over the spans recorded from index ``first`` on."""
        total = primary = 0.0
        for (nid, parent, start, end), own in zip(self.spans[first:], self.self_times(first)):
            if parent < first:
                total += end - start
            if self.names[nid].split(".")[0] in groups:
                primary += own
        return primary, total

    def write(self, path):
        with open(path, "w") as fh:
            header = {"names": self.names, "fields": ["name", "parent", "start", "end"]}
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def _coeff_bits(series) -> int:
    items = series if isinstance(series, (list, tuple)) else [series]
    best = 0
    for s in items:
        for n in range(s.precision):
            c = Fraction(s.coeff(n))
            best = max(best, c.numerator.bit_length(), c.denominator.bit_length())
    return best

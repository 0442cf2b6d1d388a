"""Span tracer for the traced benchmark worker, and its aggregation.

``install`` wraps the public functions of every strainkp module listed in
``LAYERS``.  It replaces each function object in *every* strainkp module
namespace that binds it, so calls through ``from .x import f`` names (in
``cli``, ``axis``, ``optics``, ``qw`` and the package itself) are seen as
well as calls through ``module.f``.  Spans stay in memory until ``dump``
writes them, once, when the worker exits.

Only the traced worker imports this module; the untraced worker runs the
library unmodified.
"""

from __future__ import annotations

import functools
import json
import sys
from time import perf_counter

# module -> public functions wrapped as layer boundaries ("Class.method" for
# methods).  The per-layer metrics are named "<module>.<function>.<metric>",
# with leading underscores dropped (metric names start with a letter).
LAYERS = {
    "materials": ("default_parameter_table", "algaas"),
    "elasticity": ("uniaxial_strain", "biaxial_strain", "superpose",
                   "strain_from_stress"),
    "kp_bulk": ("h6_vb", "build_h8", "eigensolve", "top_valence_doublet",
                "dispersion"),
    "axis": ("mixing_curve", "mixing_map", "project_hgs"),
    "optics": ("dipole_sweep", "dipole_strengths", "rates",
               "angular_density", "dlp_and_angle"),
    "qw": ("build_qw_hamiltonian", "solve_qw", "envelope_projection",
           "transition_energy"),
    "cli": ("main", "RunConfig.load", "RunConfig.validate",
            "RunConfig.load_table"),
    "_parallel": ("map_ordered",),
}

# grid sizes that get their own qw.solve_qw.n<N>.self_s metric: the point
# query grid, the CLI default grid and its 2N+1 convergence grid
SOLVE_QW_GRIDS = (61, 301, 603)

SPAN_NAMES = tuple(f"{mod.lstrip('_')}.{fn}" for mod, fns in LAYERS.items()
                   for fn in fns)


class Tracer:
    """In-memory span store: (name, start, end, parent span, request)."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self.request = -1
        self.doublet_calls = 0
        self._doublet_inputs: set = set()
        self.hamiltonian_bytes = 0
        self.solve_qw_dim = 0

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        observe = self._observers().get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.request,
                                _tag(name, args, kwargs))
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return traced

    def _observers(self) -> dict:
        return {"kp_bulk.top_valence_doublet": self._see_doublet,
                "qw.build_qw_hamiltonian": self._see_hamiltonian,
                "qw.solve_qw": self._see_solve}

    def _see_doublet(self, args, kwargs, result) -> None:
        bound = dict(zip(("strain", "p", "k"), args), **kwargs)
        strain, p = bound["strain"], bound["p"]
        k = bound.get("k", (0, 0, 0))
        key = (tuple(float(v) for v in strain.as_voigt()), p.name,
               tuple(float(v) for v in k), kwargs.get("hh_shift", 0.0),
               kwargs.get("lh_shift", 0.0))
        self.doublet_calls += 1
        self._doublet_inputs.add(key)

    def _see_hamiltonian(self, args, kwargs, result) -> None:
        self.hamiltonian_bytes = max(self.hamiltonian_bytes,
                                     int(result.nbytes))

    def _see_solve(self, args, kwargs, result) -> None:
        self.solve_qw_dim = max(self.solve_qw_dim,
                                6 * int(args[0].grid_points))

    def dump(self, path) -> None:
        payload = {"spans": self.spans,
                   "counters": {
                       "doublet_calls": self.doublet_calls,
                       "doublet_distinct": len(self._doublet_inputs),
                       "hamiltonian_bytes": self.hamiltonian_bytes,
                       "solve_qw_dim": self.solve_qw_dim}}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, separators=(",", ":"))


def _tag(name: str, args, kwargs):
    if name == "qw.solve_qw":
        geometry = args[0] if args else kwargs["geometry"]
        return f"n{geometry.grid_points}"
    return None


def install(package) -> Tracer:
    """Wrap every function in LAYERS wherever a strainkp module binds it."""
    tracer = Tracer()
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == package.__name__
                                     or n.startswith(package.__name__ + "."))]
    for mod_name, functions in LAYERS.items():
        module = sys.modules[f"{package.__name__}.{mod_name}"]
        for qualname in functions:
            name = f"{mod_name.lstrip('_')}.{qualname}"
            if "." in qualname:
                cls_name, meth = qualname.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[meth]
                if isinstance(raw, classmethod):
                    setattr(cls, meth,
                            classmethod(tracer.wrap(name, raw.__func__)))
                else:
                    setattr(cls, meth, tracer.wrap(name, raw))
                continue
            original = getattr(module, qualname)
            wrapped = tracer.wrap(name, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)
    return tracer


def aggregate(dumps: list[dict], passes: int) -> dict:
    """Per-pass call counts and self times from the dumped spans.

    A span's self time is its duration minus the durations of its direct
    children (spans nest, since the worker runs one call at a time).
    Counts and times are summed over all dumps and divided by ``passes``.
    """
    calls = dict.fromkeys(SPAN_NAMES, 0)
    self_s = dict.fromkeys(SPAN_NAMES, 0.0)
    split = {f"n{n}": 0.0 for n in SOLVE_QW_GRIDS}
    counters = {"doublet_calls": 0, "doublet_distinct": 0,
                "hamiltonian_bytes": 0, "solve_qw_dim": 0}
    for dump in dumps:
        spans = dump["spans"]
        child = [0.0] * len(spans)
        for name, start, end, parent, _req, _tag in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, _parent, _req, tag) in enumerate(spans):
            own = end - start - child[i]
            calls[name] += 1
            self_s[name] += own
            if tag in split:
                split[tag] += own
        c = dump["counters"]
        counters["doublet_calls"] += c["doublet_calls"]
        counters["doublet_distinct"] += c["doublet_distinct"]
        for key in ("hamiltonian_bytes", "solve_qw_dim"):
            counters[key] = max(counters[key], c[key])
    passes = max(passes, 1)
    out = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = calls[name] / passes
        out[f"{name}.self_s"] = self_s[name] / passes
    for tag, total in split.items():
        out[f"qw.solve_qw.{tag}.self_s"] = total / passes
    dc = counters["doublet_calls"]
    out["kp_bulk.top_valence_doublet.unique_ratio"] = \
        counters["doublet_distinct"] / dc if dc else 0.0
    out["qw.build_qw_hamiltonian.bytes"] = counters["hamiltonian_bytes"]
    out["qw.solve_qw.dim"] = counters["solve_qw_dim"]
    return out

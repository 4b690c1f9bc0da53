"""Outside-in layer tracing for ksctl, installed from the benchmark's side.

Each ``src/ksctl`` module is a layer.  :class:`Tracer` wraps the public
functions of every layer (the functions a module lists in ``__all__`` and
defines itself), plus scipy's ``splu`` and ``spsolve``, and records one span
per call: name, start, end, parent span and, for a few functions, facts
read from the arguments or the result (steps marched, CG iterations).

Modules bind each other's functions at import time (``cli`` and
``nonlinear_control`` both do ``from .hum_control import solve_dual``), so
patching the defining module alone misses every call made through another
module's binding.  ``install`` therefore replaces *every* reference to a
wrapped function in every loaded ``ksctl`` module namespace, and
``uninstall`` puts the originals back.

The package under test is never edited; wrappers return exactly what the
wrapped function returned and re-raise what it raised.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = (
    "grid", "weights", "ks_model", "adjoint", "carleman_check",
    "hum_control", "nonlinear_control", "cli",
)
SPARSE = ("splu", "spsolve")


def _grid_steps(bound) -> int:
    return bound.arguments["grid"].m


# span name -> callable(bound arguments, result) -> dict of facts kept on the span
_INFO = {
    "ks_model.solve_forward_pp": lambda b, r: {
        "steps": _grid_steps(b), "implicit": b.arguments["coupling"] == "implicit"},
    "adjoint.solve_adjoint": lambda b, r: {"steps": _grid_steps(b)},
    "hum_control.solve_dual": lambda b, r: {
        "iterations": r.iterations, "converged": bool(r.converged)},
    "nonlinear_control.picard_solve": lambda b, r: {
        "iterations": r.iterations, "converged": bool(r.converged)},
    "cli.run": lambda b, r: {"command": b.arguments["command"]},
}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    info: dict | None = None


@dataclass
class Tracer:
    """Records spans while installed; ``spans`` is cleared by the caller."""

    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _patches: list = field(default_factory=list)

    def wrap(self, name: str, fn):
        info = _INFO.get(name)
        sig = inspect.signature(fn) if info else None
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if info is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.info = info(bound, result)
            return result

        return traced

    def targets(self):
        """(span name, namespace owning the original, attribute, original)."""
        out = []
        for layer in LAYERS:
            mod = importlib.import_module(f"ksctl.{layer}")
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr, None)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    out.append((f"{layer}.{attr}", mod, attr, obj))
        spla = importlib.import_module("scipy.sparse.linalg")
        for attr in SPARSE:
            out.append((f"sparse.{attr}", spla, attr, getattr(spla, attr)))
        return out

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        # keyed by id: the originals stay alive in _patches, so ids are unique
        wrapped = {}
        for name, owner, attr, original in self.targets():
            wrapped[id(original)] = self.wrap(name, original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapped[id(original)])
        # every other binding of the same function object, e.g. the name
        # ``solve_dual`` inside ``ksctl.cli`` and ``ksctl.nonlinear_control``
        namespaces = [m for n, m in sys.modules.items()
                      if m is not None and (n == "ksctl" or n.startswith("ksctl."))]
        for mod in namespaces:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrapped:
                    self._patches.append((mod, attr, obj))
                    setattr(mod, attr, wrapped[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


_COUNTS = ("hum_control.cg_iterations", "hum_control.cg_not_converged",
           "nonlinear_control.picard_iterations")


def unit(name: str) -> str:
    """Unit of a metric returned by :func:`layer_metrics`."""
    if name.endswith(".calls") or name in _COUNTS:
        return "count"
    if name.endswith("per_implicit_step"):
        return "1/step"
    if name.endswith("_ratio"):
        return "ratio"
    return "s"


def ancestor(spans: list, idx: int, name: str) -> int:
    """Index of the nearest ancestor of span ``idx`` called ``name``, or -1."""
    p = spans[idx].parent
    while p >= 0 and spans[p].name != name:
        p = spans[p].parent
    return p


def layer_metrics(spans: list) -> dict:
    """Per-layer metrics of one traced pass.

    Times are inclusive span durations summed per name unless the metric is
    a ``self_s``, which subtracts the time covered by child spans.
    """
    calls: dict = {}
    total: dict = {}
    child = [0.0] * len(spans)
    for s in spans:
        d = s.end - s.start
        calls[s.name] = calls.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + d
        if s.parent >= 0:
            child[s.parent] += d

    def named(name):
        return [(i, s) for i, s in enumerate(spans) if s.name == name and s.info]

    def self_s(name):
        return sum(s.end - s.start - child[i]
                   for i, s in enumerate(spans) if s.name == name)

    def info_sum(name, key):
        return sum(s.info[key] for _, s in named(name))

    def per(num, den):
        return num / den if den else 0.0

    m: dict = {}

    def calls_s(name):
        m[f"{name}.calls"] = calls.get(name, 0)
        m[f"{name}.s"] = total.get(name, 0.0)

    pp = "ks_model.solve_forward_pp"
    calls_s(pp)
    m[f"{pp}.s_per_step"] = per(total.get(pp, 0.0), info_sum(pp, "steps"))
    m["ks_model.solve_forward_pe.s"] = total.get("ks_model.solve_forward_pe", 0.0)
    calls_s("ks_model.solve_linearized")
    implicit = {i: s.info["steps"] for i, s in named(pp) if s.info["implicit"]}
    inner = sum(1 for i, s in enumerate(spans)
                if s.name == "sparse.spsolve" and ancestor(spans, i, pp) in implicit)
    m["ks_model.spsolve_per_implicit_step"] = per(inner, sum(implicit.values()))

    sd = "hum_control.solve_dual"
    iters = info_sum(sd, "iterations")
    calls_s(sd)
    m[f"{sd}.s_per_iteration"] = per(total.get(sd, 0.0), iters)
    m["hum_control.cg_iterations"] = iters
    m["hum_control.cg_not_converged"] = sum(
        1 for _, s in named(sd) if not s.info["converged"])
    calls_s("hum_control.extract_control")

    adj = "adjoint.solve_adjoint"
    calls_s(adj)
    m[f"{adj}.s_per_step"] = per(total.get(adj, 0.0), info_sum(adj, "steps"))
    calls_s("adjoint.solve_backward_heat")

    for rep in ("theorem22_report", "lemma31_report", "lemmaA1_report"):
        m[f"carleman_check.{rep}.s"] = total.get(f"carleman_check.{rep}", 0.0)
    calls_s("carleman_check.log_space_time_integral")

    ps = "nonlinear_control.picard_solve"
    m[f"{ps}.calls"] = calls.get(ps, 0)
    m[f"{ps}.self_s"] = self_s(ps)
    m["nonlinear_control.picard_iterations"] = info_sum(ps, "iterations")
    m["nonlinear_control.picard_converged_ratio"] = per(
        sum(1 for _, s in named(ps) if s.info["converged"]), calls.get(ps, 0))
    m["nonlinear_control.e_norm.s"] = total.get("nonlinear_control.e_norm", 0.0)

    for name in ("weights.build_eta0", "weights.refined_weights",
                 "weights.carleman_weights", "weights.log_weight_profile",
                 "grid.chemotaxis_divergence", "grid.h1_seminorm_sq",
                 "sparse.splu", "sparse.spsolve"):
        calls_s(name)

    m["cli.run.self_s"] = self_s("cli.run")
    for cmd in importlib.import_module("ksctl.cli").COMMANDS:
        m[f"cli.run.{cmd.replace('-', '_')}.s"] = sum(
            s.end - s.start for _, s in named("cli.run") if s.info["command"] == cmd)
    return m

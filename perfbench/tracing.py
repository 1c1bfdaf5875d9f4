"""Span tracing installed from outside the package.

``Tracer.install`` replaces every public function of the package at each
of its lookup sites (the module dicts that name it, e.g. both
``schroedsym.coords.linear_xi_f`` and ``schroedsym.multiplier.linear_xi_f``)
and the public and arithmetic methods of the package's classes with timing
wrappers.  A wrapper opens a span only when the call crosses into another
layer; a call inside the layer it is already in runs unwrapped, so a
layer's self time is the time it holds the interpreter between entering it
and calling out of it.

Layers are the package modules, with these sub-layers split out because a
planned change targets each of them:

- ``multiplier.oracle``: the Runge-Kutta oracle.  It is a leaf: inside it
  no span is opened, only frame evaluations are counted, because one call
  makes ~32k tiny frame evaluations whose spans would cost more than they
  measure.
- ``jets.mul`` (``Jet.__mul__``), ``jets.series`` (exp, log, reciprocal,
  cpow, sqrt), ``jets.compose`` and ``jets.other`` (the rest of ``jets``).
- ``solutions.jet`` (the ``jet`` method of reference solutions) and
  ``solutions.quadrature`` (the Airy contour integral and energy scan).
- ``suites.check``: the body of one registered check, which is always a
  span so that suite times and the check-body glue can be read off.

A frame evaluation is an outermost call of ``linear_xi_f``,
``quadratic_frame`` or ``mobius_time``; it is counted whatever layer it is
called from.  Spans stay in memory until ``write`` is called.
"""

from __future__ import annotations

import gzip
import importlib
import types
from time import perf_counter

PACKAGE = "schroedsym"
MODULES = ("cli", "coords", "errors", "group", "jets", "multiplier", "opalg",
           "residual", "sampling", "solutions", "suites")

LAYERS = (
    "cli", "suites", "group", "sampling", "coords", "multiplier",
    "multiplier.oracle", "jets.mul", "jets.series", "jets.compose",
    "jets.other", "solutions", "solutions.jet", "solutions.quadrature",
    "residual", "opalg",
)
CHECK_LAYER = "suites.check"
ORACLE_LAYER = "multiplier.oracle"

FRAME_FUNCS = frozenset({"coords.linear_xi_f", "coords.quadratic_frame",
                         "coords.mobius_time"})
ARITH_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__neg__", "__pow__", "__matmul__",
})
JETS_SERIES = frozenset({"exp", "log", "reciprocal", "cpow", "sqrt"})


def layer_of(module, qualname):
    """Layer key of a package function or method (``module`` is short)."""
    leaf = qualname.rsplit(".", 1)[-1]
    if module == "jets":
        if leaf in ("__mul__", "__rmul__"):
            return "jets.mul"
        if leaf in JETS_SERIES:
            return "jets.series"
        if leaf == "compose":
            return "jets.compose"
        return "jets.other"
    if module == "multiplier" and qualname == "ode_oracle_coefficients":
        return ORACLE_LAYER
    if module == "solutions":
        if qualname.startswith("AiryFn.") or qualname == "eigenvalue_scan":
            return "solutions.quadrature"
        if "." in qualname and leaf == "jet":
            return "solutions.jet"
    if module == "suites" and qualname == "Check.run":
        return CHECK_LAYER
    return module


def package_modules():
    """The package and its modules, resolved through importlib.

    ``schroedsym.multiplier`` as an attribute is the function ``multiplier``
    re-exported by the package, not the module, so attribute access would
    patch the wrong object.
    """
    mods = [importlib.import_module(PACKAGE)]
    mods += [importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES]
    return mods


class Tracer:
    """Spans and per-layer counters of one traced run."""

    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.spans = []  # (span id, parent id, op id, name id, start, end)
        self.calls = dict.fromkeys(LAYERS + (CHECK_LAYER,), 0)
        self.self_s = dict.fromkeys(LAYERS + (CHECK_LAYER,), 0.0)
        self.suite_s = {}  # suite name -> inclusive check seconds
        self.points = 0  # grid points in the reports the residual layer returned
        self.frame_calls = 0
        self.oracle_frame_calls = 0
        self.label = None  # what the frame evaluations are currently for
        self.label_frames = {}
        self.label_runs = {}
        self.op = -1
        self._stack = []  # [span id, seconds spent in child spans]
        self._layer = None
        self._leaf = False
        self._frame_depth = 0
        self._next_id = 0
        self._restore = []

    # -- recording -----------------------------------------------------------

    def name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin_label(self, label, runs=1):
        """Attribute the following frame evaluations to ``label``."""
        self.label = label
        self.label_runs[label] = self.label_runs.get(label, 0) + runs

    def span(self, layer, name_id, fn, args, kwargs):
        stack = self._stack
        parent = stack[-1][0] if stack else -1
        sid = self._next_id
        self._next_id = sid + 1
        entry = [sid, 0.0]
        outer_layer, outer_leaf = self._layer, self._leaf
        stack.append(entry)
        self._layer = layer
        self._leaf = layer == ORACLE_LAYER
        start = perf_counter()
        try:
            result = fn(*args, **kwargs)
            if layer == "residual":
                self.points += getattr(result, "n_points", 0)
            return result
        finally:
            end = perf_counter()
            stack.pop()
            self._layer, self._leaf = outer_layer, outer_leaf
            dur = end - start
            self.calls[layer] += 1
            self.self_s[layer] += dur - entry[1]
            if stack:
                stack[-1][1] += dur
            self.spans.append((sid, parent, self.op, name_id, start, end))

    # -- wrappers ------------------------------------------------------------

    def _wrap(self, fn, module, qualname):
        layer = layer_of(module, qualname)
        name_id = self.name_id(f"{layer}:{qualname}")
        tracer = self

        if layer == CHECK_LAYER:
            def check_wrapper(check, *args, **kwargs):
                label_before = tracer.label
                tracer.begin_label(check.name, check.trials)
                nid = tracer.name_id(f"{CHECK_LAYER}:{check.name}")
                start = perf_counter()
                try:
                    return tracer.span(CHECK_LAYER, nid, fn, (check,) + args, kwargs)
                finally:
                    suite = check.name.split(".", 1)[0]
                    tracer.suite_s[suite] = tracer.suite_s.get(suite, 0.0) + perf_counter() - start
                    tracer.label = label_before
            return check_wrapper

        if f"{module}.{qualname}" in FRAME_FUNCS:
            def frame_wrapper(*args, **kwargs):
                if tracer._frame_depth == 0:
                    if tracer._leaf:
                        tracer.oracle_frame_calls += 1
                    else:
                        tracer.frame_calls += 1
                        lf = tracer.label_frames
                        lf[tracer.label] = lf.get(tracer.label, 0) + 1
                tracer._frame_depth += 1
                try:
                    if tracer._leaf or tracer._layer == layer:
                        return fn(*args, **kwargs)
                    return tracer.span(layer, name_id, fn, args, kwargs)
                finally:
                    tracer._frame_depth -= 1
            return frame_wrapper

        def wrapper(*args, **kwargs):
            if tracer._leaf or tracer._layer == layer:
                return fn(*args, **kwargs)
            return tracer.span(layer, name_id, fn, args, kwargs)
        return wrapper

    def install(self):
        """Wrap every public function at every lookup site, and the methods."""
        wrapped = {}  # original function -> wrapper, shared across sites

        def wrapper_for(fn):
            w = wrapped.get(fn)
            if w is None:
                module = fn.__module__[len(PACKAGE) + 1:]
                w = wrapped[fn] = self._wrap(fn, module, fn.__qualname__)
            return w

        def patch(target, name, new):
            self._restore.append((target, name, target.__dict__[name]))
            setattr(target, name, new)

        for mod in package_modules():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(obj, types.FunctionType) and obj.__module__.startswith(PACKAGE + "."):
                    patch(mod, name, wrapper_for(obj))
                elif isinstance(obj, type) and obj.__module__ == mod.__name__ \
                        and not issubclass(obj, BaseException):
                    for attr, member in list(vars(obj).items()):
                        if attr.startswith("_") and attr not in ARITH_DUNDERS:
                            continue
                        if isinstance(member, types.FunctionType):
                            patch(obj, attr, wrapper_for(member))
                        elif isinstance(member, (classmethod, staticmethod)):
                            patch(obj, attr, type(member)(wrapper_for(member.__func__)))

    def uninstall(self):
        while self._restore:
            target, name, original = self._restore.pop()
            setattr(target, name, original)

    # -- output ----------------------------------------------------------------

    def write(self, path, header):
        """Spans as gzip'd tab-separated rows after one header line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write(f"# {header}\n")
            fh.write("span\tparent\top\tname\tstart_s\tend_s\n")
            names = self.names
            for sid, parent, op, nid, start, end in self.spans:
                fh.write(f"{sid}\t{parent}\t{op}\t{names[nid]}\t{start:.9f}\t{end:.9f}\n")

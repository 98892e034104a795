"""Layer spans recorded from outside the program.

`Tracer.install` replaces the public functions and methods of each
ckverify module with timing wrappers, and `uninstall` puts the originals
back.  The layers are the modules.  Only the outermost call into a layer
opens a span: a call from a layer into itself runs unwrapped and counts
toward that layer's self time, while a call into another layer opens a
child span.  Self time is a span's duration minus its children's.

Scalar calls into `coeff` are too many for one span each.  They are
aggregated into counters on the calling span, and split by how many
parameter names the scalar's field has: 0 (q), 1 (qt) or more (multi).
"""
from __future__ import annotations

import inspect
import json
import os
import time

LAYERS = ("cli", "presentations", "curves", "ideal", "parser", "ncpoly",
          "coeff")
# The engine's deglex sort key, called once per term during reduction.
# A wrapper would cost several times the call, so it stays unwrapped and
# its time counts toward the caller.
_UNWRAPPED = {("ncpoly", "word_key")}
_SKIPPED_METHODS = {"__repr__", "__hash__", "__post_init__"}
# The engine entry points whose arguments and results feed the ideal.*
# counters.
_IDEAL_ENTRY_POINTS = ("graded_membership", "bounded_membership",
                       "involution_stability", "presentations_equivalent")


class Span:
    __slots__ = ("id", "parent", "request", "layer", "name", "start", "end",
                 "child", "coeff_s", "coeff_calls")

    def __init__(self, sid, parent, request, layer, name, start):
        self.id, self.parent, self.request = sid, parent, request
        self.layer, self.name, self.start = layer, name, start
        self.end = start
        self.child = self.coeff_s = 0.0
        self.coeff_calls = 0


def _field_kind(first) -> str:
    names = getattr(first, "names", None)
    if names is None:
        names = first if isinstance(first, tuple) \
            else getattr(first, "mapping", ())
    return ("q", "qt")[len(names)] if len(names) < 2 else "multi"


# -- per-layer counters computed from a call's arguments and result ---------

def _degree(poly) -> int:
    return max(map(len, poly.terms), default=0)


def _homogeneous(poly) -> bool:
    return len({len(w) for w in poly.terms}) <= 1


def _graded_rows(relations, degree: int) -> int:
    """Wrapped rows of the degree slice: (d - deg + 1) * n^(d - deg) per
    relation, for an alphabet of n generators."""
    n = len(relations[0].alphabet)
    return sum((degree - _degree(r) + 1) * n ** (degree - _degree(r))
               for r in relations if _degree(r) <= degree)


def _bounded_rows(relations, wrapper_len: int) -> int:
    """Wrapped rows with |left| + |right| <= wrapper_len."""
    n = len(relations[0].alphabet)
    return len(relations) * sum((t + 1) * n ** t
                                for t in range(wrapper_len + 1))


def _direction_rows(sources, relations, wrapper_len: int) -> int:
    if all(map(_homogeneous, relations)) and all(map(_homogeneous, sources)):
        degrees = {_degree(s) for s in sources if s.terms}
        return sum(_graded_rows(relations, d) for d in degrees)
    return _bounded_rows(relations, wrapper_len)


def _ideal_rows(name: str, bound) -> int:
    """Rows the engine builds for one call, computed from the arguments by
    the engine's own dispatch rule (graded when everything is homogeneous,
    bounded otherwise) and its one span per degree."""
    a = bound.arguments
    k = a.get("wrapper_len")
    if name == "graded_membership":
        return _graded_rows(a["relations"], _degree(a["target"])) \
            if a["target"].terms else 0
    if name == "bounded_membership":
        return _bounded_rows(a["relations"], k)
    if name == "involution_stability":
        rels = a["p"].relations
        return _direction_rows(rels, rels, k)
    p, q = a["P"].relations, a["Q"].relations
    return _direction_rows(p, q, k) + _direction_rows(q, p, k)


def _verdicts(name: str, result) -> list:
    if name in ("graded_membership", "bounded_membership"):
        return [result]
    if name == "involution_stability":
        return [r.verdict for r in result.relations]
    return list(result.forward) + list(result.backward)


class Tracer:
    """Spans and per-layer totals for the calls made while installed."""

    def __init__(self, package_modules: dict):
        self.modules = package_modules     # layer name -> module
        self.stack: list = []
        self.spans: list = []
        self.request = None
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        self.field_calls = {"q": 0, "qt": 0, "multi": 0}
        self.ideal_rows = self.ideal_verdicts = 0
        self.ideal_members = self.ideal_cert_entries = 0
        self.parser_chars = 0
        self._in_coeff = False
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def _targets(self, layer, module):
        """(owner, attribute, raw attribute, function) for each public
        function of the module and each public or operator method of its
        public classes."""
        for name, obj in vars(module).items():
            if name.startswith("_") or (layer, name) in _UNWRAPPED or \
                    getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield module, name, obj, obj
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                for attr, raw in vars(obj).items():
                    dunder = attr.startswith("__") and attr.endswith("__")
                    if attr in _SKIPPED_METHODS or \
                            (attr.startswith("_") and not dunder):
                        continue
                    fn = raw.__func__ if isinstance(
                        raw, (staticmethod, classmethod)) else raw
                    if inspect.isfunction(fn):
                        yield obj, attr, raw, fn

    def install(self):
        replaced = {}
        for layer, module in self.modules.items():
            for owner, attr, raw, fn in list(self._targets(layer, module)):
                wrapper = self._wrap(layer, attr, fn)
                if isinstance(raw, (staticmethod, classmethod)):
                    wrapper = type(raw)(wrapper)
                if owner is module:
                    replaced[id(fn)] = (fn, wrapper)
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, wrapper)
        # names imported with "from .module import function"
        for module in self.modules.values():
            for attr, obj in list(vars(module).items()):
                hit = replaced.get(id(obj))
                if hit and hit[0] is obj and getattr(module, attr) is not hit[1]:
                    self._patches.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    # -- wrappers ----------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn):
        if layer == "coeff":
            return self._wrap_scalar(fn)
        tracer = self
        signature = inspect.signature(fn) \
            if layer == "ideal" and name in _IDEAL_ENTRY_POINTS else None

        def wrapper(*args, **kwargs):
            stack = tracer.stack
            if stack and stack[-1].layer == layer:
                return fn(*args, **kwargs)
            parent = stack[-1] if stack else None
            span = Span(len(tracer.spans), parent.id if parent else None,
                        tracer.request, layer, name, time.perf_counter())
            tracer.spans.append(span)
            stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span.end = time.perf_counter()
                stack.pop()
                tracer.self_s[layer] += span.end - span.start - span.child
                tracer.calls[layer] += 1
                if signature is not None and result is not None:
                    tracer._count_ideal(name, signature.bind(*args, **kwargs),
                                        result)
                elif layer == "parser" and args:
                    tracer._count_chars(name, args[0])
                if parent is not None:
                    # the bookkeeping above is charged to no layer
                    parent.child += time.perf_counter() - span.start
        return wrapper

    def _wrap_scalar(self, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            if tracer._in_coeff:
                return fn(*args, **kwargs)
            tracer._in_coeff = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                tracer._in_coeff = False
                tracer.self_s["coeff"] += elapsed
                tracer.calls["coeff"] += 1
                tracer.field_calls[_field_kind(args[0]) if args else "q"] += 1
                if tracer.stack:
                    parent = tracer.stack[-1]
                    parent.child += elapsed
                    parent.coeff_s += elapsed
                    parent.coeff_calls += 1
        return wrapper

    def _count_ideal(self, name: str, bound, result):
        bound.apply_defaults()
        self.ideal_rows += _ideal_rows(name, bound)
        for v in _verdicts(name, result):
            self.ideal_verdicts += 1
            if v.kind == "MEMBER":
                self.ideal_members += 1
                self.ideal_cert_entries += len(v.certificate.entries)

    def _count_chars(self, name: str, text):
        if name == "parse_presentation":
            self.parser_chars += os.path.getsize(text)
        elif isinstance(text, str):
            self.parser_chars += len(text)

    # -- output ------------------------------------------------------------

    def write_spans(self, path):
        """One JSON array per line: id, parent, request, layer, name,
        start and duration in microseconds, then the coeff calls and
        microseconds aggregated into the span."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps([
                    s.id, s.parent, s.request, s.layer, s.name,
                    round((s.start - t0) * 1e6, 1),
                    round((s.end - s.start) * 1e6, 1),
                    s.coeff_calls, round(s.coeff_s * 1e6, 1)]) + "\n")

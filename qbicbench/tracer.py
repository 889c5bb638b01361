"""Spans around the calls into each qbic module, recorded from outside.

install() replaces every public function of a layer module by a timing
wrapper, in the namespace of every qbic module that holds it (the
defining module included), so calls within a module and between modules
are both seen.  A few linear-algebra methods are wrapped on their class.
FieldElement arithmetic is counted, not timed: a span per scalar operation
would cost more than the operation.  uninstall() puts everything back.

Spans are aggregated as they close rather than kept: per span name the
number of calls and the self time, which is the span's duration minus the
time its child spans cover.
"""

import functools
import inspect
import time
from collections import Counter

LAYERS = ("fields", "linalg", "forms", "classify", "auts", "moduli", "cli")

# Public methods timed as linalg spans: matrix products, inverses and
# subspace spans are the elimination work that callers do without going
# through a module function.
METHODS = {
    "linalg": {"MatrixF": ("__matmul__", "inverse", "is_invertible"),
               "Subspace": ("from_columns", "contains", "contains_vector")},
}

ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
              "__rmul__", "__neg__", "__truediv__", "__rtruediv__",
              "__pow__", "inverse")


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.elem_ops = 0
        self.peel_depth = 0
        self.peel_linalg_calls = 0
        self.extension_degree_max = 0
        self.candidates = 0
        self.stabilizers = 0
        self._stack = [[0.0]]
        self._undo = []

    # -- patching -------------------------------------------------------------

    def install(self):
        import importlib
        modules = {name: importlib.import_module(f"qbic.{name}")
                   for name in LAYERS}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or not _is_function(obj, mod):
                    continue
                wrapper = self._span(f"{layer}.{name}", layer, obj)
                for holder in modules.values():
                    for attr, val in list(vars(holder).items()):
                        if val is obj:
                            self._set(holder, attr, wrapper)
            for cls_name, names in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for name in names:
                    raw = cls.__dict__[name]
                    span_name = f"{layer}.{name.strip('_')}"
                    if isinstance(raw, staticmethod):
                        new = staticmethod(self._span(span_name, layer,
                                                      raw.__func__))
                    else:
                        new = self._span(span_name, layer, raw)
                    self._set(cls, name, new)
        element = modules["fields"].FieldElement
        for name in ARITHMETIC:
            self._set(element, name, self._count(element.__dict__[name]))

    def uninstall(self):
        while self._undo:
            holder, attr, old = self._undo.pop()
            setattr(holder, attr, old)

    def _set(self, holder, attr, new):
        self._undo.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, new)

    # -- wrappers -------------------------------------------------------------

    def _count(self, fn):
        def counted(*args):
            self.elem_ops += 1
            return fn(*args)
        return counted

    def _span(self, name, layer, fn):
        stack, clock = self._stack, time.perf_counter
        calls, self_s = self.calls, self.self_s
        in_linalg = layer == "linalg"
        is_peel = name == "classify.peel"
        on_result = {"classify.normal_form": self._saw_normal_form,
                     "auts.enumerate_points": self._saw_points}.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if in_linalg and self.peel_depth:
                self.peel_linalg_calls += 1
            if is_peel:
                self.peel_depth += 1
            frame = [0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                stack.pop()
                stack[-1][0] += dur
                self_s[name] += dur - frame[0]
                calls[name] += 1
                if is_peel:
                    self.peel_depth -= 1
            if on_result is not None:
                on_result(args, result)
            return result
        return span

    def _saw_normal_form(self, args, cert):
        self.extension_degree_max = max(self.extension_degree_max,
                                        cert.extension_degree)

    def _saw_points(self, args, result):
        f = args[0]
        self.candidates += f.field.order ** (f.n * f.n)
        self.stabilizers += result[0]

    # -- results --------------------------------------------------------------

    def metrics(self):
        """Per-layer figures, named as in BENCHMARK.json."""
        out = {}
        for layer in LAYERS:
            names = [n for n in self.calls if n.startswith(layer + ".")]
            out[f"{layer}.calls"] = sum(self.calls[n] for n in names)
            out[f"{layer}.self_s"] = sum(self.self_s[n] for n in names)
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out["fields.elem_ops"] = self.elem_ops
        out["classify.peel.linalg_calls"] = self.peel_linalg_calls
        out["classify.extension_degree_max"] = self.extension_degree_max
        out["auts.candidates"] = self.candidates
        out["auts.hit_ratio"] = (self.stabilizers / self.candidates
                                 if self.candidates else 0.0)
        # short name for orthonormalize_nonsingular
        out["classify.orthonormalize.self_s"] = out.get(
            "classify.orthonormalize_nonsingular.self_s", 0.0)
        return out


def _is_function(obj, mod):
    """A function defined in mod, plain or behind functools.lru_cache."""
    return (callable(obj) and not inspect.isclass(obj)
            and getattr(obj, "__module__", None) == mod.__name__)

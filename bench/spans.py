"""Per-layer spans recorded from outside the program.

`Tracer.instrument(package)` wraps the public functions and methods of each
`unitons` module (one module is one layer) and rebinds every name that
refers to them in every `unitons` module namespace, so a call made through
`verify.harmonic_map_at` or `cli.unitarize` is seen as well as one made in
the defining module.  Each wrapped call is a span: it counts a call and adds
to its layer's self time, which is the span's duration minus the time of the
wrapped spans nested directly inside it.  numpy.linalg calls are counted
against the layer of the innermost open span.  `restore()` puts every
original back.

Private helpers (`_bauer_pass`, `_cancel`, ...) are not spans; their time
lands in the self time of the public call that ran them.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "scalars", "exactmat", "loops", "weierstrass", "roots",
    "factorization", "verify", "jsonio", "cli",
)

# dunder methods that are arithmetic or construction, traced like public ones
TRACED_DUNDERS = frozenset({
    "__init__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
    "__truediv__", "__rtruediv__", "__floordiv__", "__mod__", "__neg__",
    "__matmul__", "__eq__",
})

RATFUN_OPS = ("__add__", "__radd__", "__sub__", "__rsub__",
              "__mul__", "__rmul__", "__truediv__", "__rtruediv__")


class Tracer:
    """Span stack, call counts and self times, kept in memory."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack = []  # open spans: [start, child seconds, layer]
        self.calls = Counter()  # span name -> calls
        self.self_s = defaultdict(float)  # layer or span name -> self seconds
        self.linalg = Counter()  # layer -> numpy.linalg calls while innermost
        self.tagged = Counter()  # matmul by loop kind, jsonio bytes
        self._undo = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, layer, name, fn, after=None):
        """fn as a span of `layer` named `name`; `after(args, result)` runs
        once the call has returned normally."""
        stack, calls, self_s, clock = self.stack, self.calls, self.self_s, self.clock

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [clock(), 0.0, layer]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - frame[0]
                stack.pop()
                own = dur - frame[1]
                self_s[layer] += own
                self_s[name] += own
                calls[name] += 1
                if stack:
                    stack[-1][1] += dur
            if after is not None:
                after(args, result)
            return result

        return span

    def probe(self, fn):
        """Count fn against the innermost open span's layer; no span."""
        stack, linalg = self.stack, self.linalg

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if stack:
                linalg[stack[-1][2]] += 1
            return fn(*args, **kwargs)

        return counted

    # -- patching --------------------------------------------------------------

    def _set(self, owner, name, value):
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def _after_hook(self, name):
        """Extra counts for the few spans that carry more than a call."""
        if name == "loops.LoopMat.__matmul__":
            def by_kind(args, result, tagged=self.tagged):
                tagged[f"loops.matmul_{args[0].kind}"] += 1
            return by_kind
        if name in ("jsonio.dumps", "jsonio.loads"):
            def count_bytes(args, result, tagged=self.tagged):
                text = result if name == "jsonio.dumps" else args[0]
                if isinstance(text, str):
                    tagged["jsonio.bytes"] += len(text.encode("utf-8"))
            return count_bytes
        return None

    def _wrap_class(self, layer, cls):
        for attr, raw in list(cls.__dict__.items()):
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if isinstance(raw, (classmethod, staticmethod)):
                inner = self.wrap(layer, name, raw.__func__)
                self._set(cls, attr, type(raw)(inner))
            elif inspect.isfunction(raw):
                self._set(cls, attr, self.wrap(layer, name, raw, self._after_hook(name)))

    def instrument(self, package, linalg_module):
        """Wrap every layer of `package` and probe `linalg_module`."""
        prefix = package.__name__ + "."
        modules = {layer: sys.modules[prefix + layer] for layer in LAYERS}
        wrapped = {}  # original function -> span wrapper
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    self._wrap_class(layer, obj)
                elif inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrapped[obj] = self.wrap(layer, name, obj, self._after_hook(name))
        for mod in [package, *modules.values()]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    self._set(mod, attr, wrapped[obj])
        for attr in getattr(linalg_module, "__all__", ()):
            fn = getattr(linalg_module, attr)
            if callable(fn) and not inspect.isclass(fn):
                self._set(linalg_module, attr, self.probe(fn))

    def restore(self):
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- results ---------------------------------------------------------------

    def layer_calls(self, layer):
        head = layer + "."
        return sum(c for name, c in self.calls.items() if name.startswith(head))


def per_layer_metrics(tracer, ops, overhead_ratio):
    """The per-layer metrics, each divided by the number of traced ops."""
    c, s = tracer.calls, tracer.self_s

    def per_op(x):
        return x / ops

    def count(v):
        return {"value": per_op(v), "unit": "1/op"}

    def secs(v):
        return {"value": per_op(v), "unit": "s/op"}

    m = {
        "scalars.ratfun_ops": count(sum(c[f"scalars.RatFun.{op}"] for op in RATFUN_OPS)),
        "scalars.poly_gcd.calls": count(c["scalars.Poly.gcd"]),
        "scalars.self_s": secs(s["scalars"]),
        "exactmat.calls": count(tracer.layer_calls("exactmat")),
        "exactmat.self_s": secs(s["exactmat"]),
        "loops.matmul_exact.calls": count(tracer.tagged["loops.matmul_exact"]),
        "loops.matmul_numeric.calls": count(tracer.tagged["loops.matmul_numeric"]),
        "loops.evaluate.calls": count(c["loops.LoopMat.evaluate"]),
        "loops.self_s": secs(s["loops"]),
        "weierstrass.calls": count(tracer.layer_calls("weierstrass")),
        "weierstrass.self_s": secs(s["weierstrass"]),
        "roots.calls": count(tracer.layer_calls("roots")),
        "roots.self_s": secs(s["roots"]),
    }
    for fn in ("harmonic_map_at", "unitarize", "bruhat_cell"):
        m[f"factorization.{fn}.calls"] = count(c[f"factorization.{fn}"])
        m[f"factorization.{fn}.self_s"] = secs(s[f"factorization.{fn}"])
    for fn in ("cstar_flow", "uniton_factorize"):
        m[f"factorization.{fn}.self_s"] = secs(s[f"factorization.{fn}"])
    m["factorization.linalg_calls"] = count(tracer.linalg["factorization"])
    m["verify.calls"] = count(tracer.layer_calls("verify"))
    m["verify.self_s"] = secs(s["verify"])
    m["verify.linalg_calls"] = count(tracer.linalg["verify"])
    m["jsonio.calls"] = count(tracer.layer_calls("jsonio"))
    m["jsonio.self_s"] = secs(s["jsonio"])
    m["jsonio.bytes"] = {"value": per_op(tracer.tagged["jsonio.bytes"]), "unit": "B/op"}
    m["cli.calls"] = count(tracer.layer_calls("cli"))
    m["cli.self_s"] = secs(s["cli"])
    m["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    return m

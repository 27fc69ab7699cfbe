"""Per-layer tracing for the benchmark: wraps bellri's public functions in place.

Each layer is one bellri module. ``Tracer.install`` replaces every public
function of every layer with a timing wrapper, in every bellri module
namespace that holds a reference to it (``multiparty.is_psd``,
``optimizer.moments``, ``bellri.classify`` ...), so calls made between
modules are timed too. ``uninstall`` puts the originals back; untraced runs
never install anything.

A call is a span: the wrapper keeps a stack of open spans, so each span's
self time is its duration minus the time of the spans it opened. Spans are
aggregated as they close (durations per function and tag, self time and
calls per module); nothing is written out until the benchmark ends.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import time
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager

LAYERS = ("cli", "correlators", "lhv", "ri", "linalg", "qmodel", "multiparty", "optimizer")

# methods that the per-layer metrics need, beyond each module's public functions
_METHODS = {
    "correlators": (("CorrelatorTable", "from_pearson"),),
}


def _matrix_dim(m) -> int:
    """Size of a bellri matrix wrapper (``.n``) or of a raw square array."""
    return getattr(m, "n", None) or len(m)


# functions whose durations are kept per input class, keyed by a tag of the call
_TAGS = {
    "linalg.is_psd": lambda args, kwargs: f"n{_matrix_dim(args[0])}",
    "qmodel.moments": lambda args, kwargs: "pure" if args[0].is_pure else "mixed",
    "cli.main": lambda args, kwargs: args[0][0],
}


def _public_functions(module) -> list[str]:
    names = getattr(module, "__all__", None)
    if names is None:
        names = [n for n in vars(module) if not n.startswith("_")]
    return [
        n for n in names
        if inspect.isfunction(getattr(module, n, None))
        and getattr(module, n).__module__ == module.__name__
    ]


class Tracer:
    """Collects span durations, per-module self time and call counts."""

    def __init__(self) -> None:
        self.durations: dict[str, array] = defaultdict(lambda: array("d"))
        self.self_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()      # (function, exception type) -> count
        self._open: list[float] = []          # child time accumulated per open span
        self._undo: list[tuple[object, str, object]] = []
        self._relabel: dict[str, str] = {}    # function -> tag that replaces its own

    def _close(self, layer: str, key: str, start: float) -> None:
        dur = time.perf_counter() - start
        child = self._open.pop()
        if self._open:
            self._open[-1] += dur
        self.self_s[layer] += dur - child
        self.calls[layer] += 1
        self.durations[key].append(dur)

    @contextmanager
    def span(self, layer: str, key: str):
        """A span recorded by the benchmark itself around a call into ``layer``."""
        self._open.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(layer, key, start)

    @contextmanager
    def relabel(self, key: str, tag: str):
        """Record the calls of function ``key`` under ``tag`` while open."""
        self._relabel[key] = tag
        try:
            yield
        finally:
            del self._relabel[key]

    def _wrap(self, fn, layer: str, name: str):
        key = f"{layer}.{name}"
        tag = _TAGS.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception as exc:
                self.errors[(key, type(exc).__name__)] += 1
                raise
            finally:
                if tag is not None:
                    label = f"{key}.{self._relabel.get(key) or tag(args, kwargs)}"
                else:
                    label = key
                self._close(layer, label, start)

        return traced

    def install(self, package) -> None:
        """Wrap every layer's public functions wherever bellri holds them."""
        import importlib

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        namespaces = [package, *modules.values()]
        replace = {}
        for layer, module in modules.items():
            for name in _public_functions(module):
                fn = getattr(module, name)
                replace[id(fn)] = (fn, self._wrap(fn, layer, name))
            for cls_name, meth in _METHODS.get(layer, ()):
                cls = getattr(module, cls_name)
                raw = inspect.getattr_static(cls, meth)
                if isinstance(raw, classmethod):
                    new = classmethod(self._wrap(raw.__func__, layer, meth))
                else:
                    new = self._wrap(raw, layer, meth)
                self._undo.append((cls, meth, raw))
                setattr(cls, meth, new)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    self._undo.append((ns, attr, value))
                    setattr(ns, attr, hit[1])

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- aggregates ---------------------------------------------------------

    def count(self, key: str) -> int:
        return len(self.durations.get(key, ()))

    def median(self, *keys: str) -> float:
        """Median duration in seconds over the spans of ``keys``; 0.0 if none ran."""
        values = [v for k in keys for v in self.durations.get(k, ())]
        return statistics.median(values) if values else 0.0

    def total(self, key: str) -> float:
        return float(sum(self.durations.get(key, ())))

    def keys_with_prefix(self, prefix: str) -> list[str]:
        return [k for k in self.durations if k.startswith(prefix)]

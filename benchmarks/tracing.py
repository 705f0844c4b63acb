"""Per-layer measurement from outside the package.

``patched`` replaces chosen ``pathcomb`` functions at every binding they are
reached through: the defining module, every module that imported them by
name, and default argument values such as ``verify_bijection``'s
``comb_fn=comb``.  It restores every binding on exit.  ``Tracer`` uses it to
wrap each function in a span and sum self times; ``Counters`` uses it for an
untimed pass that counts work.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Iterator

# (module, function or Class.method, span key).  Methods of several classes
# may share one key.  Functions the workloads never reach stay listed so that
# a later change routing work through them is still attributed to its layer.
SPANS = (
    ("cli", "main", "cli"),
    ("rng", "random_triangle", "rng.random_triangle"),
    ("families", "is_disjoint", "families.is_disjoint"),
    ("families", "validate_family", "families.validate_family"),
    ("families", "explicit_paths", "families.explicit_paths"),
    ("families", "family_from_bits", "families.family_from_bits"),
    ("families", "family_from_paths", "families.family_from_paths"),
    ("families", "BitTriangle.to_text", "families.to_text"),
    ("families", "PathFamily.to_text", "families.to_text"),
    ("families", "BitTriangle.from_text", "families.from_text"),
    ("families", "PathFamily.from_text", "families.from_text"),
    ("combing", "comb", "combing.comb"),
    ("combing", "uncomb", "combing.uncomb"),
    ("combing", "comb_column", "combing.comb_column"),
    ("combing", "uncomb_column", "combing.uncomb_column"),
    ("tilings", "family_to_tiling", "tilings.family_to_tiling"),
    ("tilings", "tiling_to_family", "tilings.tiling_to_family"),
    ("tilings", "dual_family", "tilings.dual_family"),
    ("tilings", "convention_paths", "tilings.convention_paths"),
    ("tilings", "tiling_to_paths", "tilings.tiling_to_paths"),
    ("tilings", "paths_to_tiling", "tilings.paths_to_tiling"),
    ("tilings", "aztec_region", "tilings.aztec_region"),
    ("tilings", "DominoTiling.to_text", "tilings.text"),
    ("tilings", "DominoTiling.from_text", "tilings.text"),
    ("svg", "render_family", "svg.render_family"),
    ("svg", "render_dual", "svg.render_dual"),
    ("svg", "render_tiling", "svg.render_tiling"),
    ("svg", "render_overlay", "svg.render_overlay"),
    ("delannoy", "delannoy_matrix", "delannoy.delannoy_matrix"),
    ("delannoy", "det_exact", "delannoy.det_exact"),
    ("delannoy", "verify_reduction", "delannoy.verify_reduction"),
    ("enumeration", "verify_bijection", "enumeration.verify_bijection"),
    ("enumeration", "enumerate_disjoint", "enumeration.enumerate_disjoint"),
)

LAYERS = ("cli", "rng", "families", "combing", "tilings", "svg", "delannoy", "enumeration")


def _modules() -> list:
    return [m for name, m in sys.modules.items()
            if m is not None and (name == "pathcomb" or name.startswith("pathcomb."))]


@contextmanager
def patched(wrap: Callable[[str, Callable], Callable | None]) -> Iterator[None]:
    """Within the block, every function in SPANS for which ``wrap(key, fn)``
    returns a replacement is replaced at each of its bindings."""
    undo: list[Callable[[], None]] = []
    try:
        for mod_name, attr, key in SPANS:
            mod = importlib.import_module("pathcomb." + mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                desc = cls.__dict__[meth]
                is_cm = isinstance(desc, classmethod)
                new = wrap(key, desc.__func__ if is_cm else desc)
                if new is not None:
                    setattr(cls, meth, classmethod(new) if is_cm else new)
                    undo.append(functools.partial(setattr, cls, meth, desc))
                continue
            fn = getattr(mod, attr)
            new = wrap(key, fn)
            if new is None:
                continue
            for m in _modules():
                for name, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, name, new)
                        undo.append(functools.partial(setattr, m, name, fn))
                    # a function already replaced keeps its defaults on the original
                    inner = getattr(value, "__wrapped__", value)
                    defaults = getattr(inner, "__defaults__", None)
                    if defaults and any(d is fn for d in defaults):
                        inner.__defaults__ = tuple(new if d is fn else d for d in defaults)
                        undo.append(functools.partial(setattr, inner, "__defaults__",
                                                      defaults))
        yield
    finally:
        for step in reversed(undo):
            step()


class Tracer:
    """Spans around the patched functions: self time per key, escaped
    exceptions per layer."""

    def __init__(self) -> None:
        self.self_s: Counter = Counter()
        self.errors: Counter = Counter()
        self._stack: list[list[float]] = []

    def wrap(self, key: str, fn: Callable) -> Callable:
        layer = key.split(".")[0]
        stack, self_s, errors = self._stack, self.self_s, self.errors

        @functools.wraps(fn)
        def span(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                took = perf_counter() - start
                stack.pop()
                self_s[key] += took - children[0]
                if stack:
                    stack[-1][0] += took

        return span


class CombCounts:
    """A ``trace_sink`` for ``comb`` that tallies each trace and keeps none."""

    def __init__(self, counts: Counter) -> None:
        self.counts = counts

    def append(self, trace) -> None:
        d = trace.d_seq
        c = self.counts
        c["combing.basic_ops"] += 1
        c["combing.scanned_columns"] += len(d) - 1
        c["combing.swaps"] += sum(b > a for a, b in zip(d, d[1:]))
        c["combing.zero_transfer_ops"] += d[-1] == 0


class Counters:
    """Work counts from an untimed pass; ``wrap`` is given to ``patched``."""

    def __init__(self) -> None:
        self.counts: Counter = Counter()

    def wrap(self, key: str, fn: Callable) -> Callable | None:
        c = self.counts

        def cells(t) -> None:
            c["tilings.cells"] += 2 * len(t.dominoes)

        if key == "combing.comb":
            sink = CombCounts(c)

            def counted(t, trace_sink=None):
                c["combing.calls"] += 1
                return fn(t, sink if trace_sink is None else trace_sink)
        elif key in ("combing.uncomb", "families.is_disjoint", "delannoy.verify_reduction"):
            def counted(*args, **kwargs):
                c["combing.calls" if key == "combing.uncomb" else key + ".calls"] += 1
                return fn(*args, **kwargs)
        elif key == "delannoy.det_exact":
            def counted(matrix):
                n = len(matrix)  # sum over k < n-1 of (n-1-k)^2 entry updates
                c["delannoy.bareiss_updates"] += (n - 1) * n * (2 * n - 1) // 6
                return fn(matrix)
        elif key == "enumeration.enumerate_disjoint":
            def counted(*args, **kwargs):
                out = fn(*args, **kwargs)
                c["enumeration.families"] += len(out)
                return out
        elif key == "tilings.family_to_tiling":
            def counted(f):
                out = fn(f)
                cells(out)
                return out
        elif key in ("tilings.tiling_to_family", "tilings.convention_paths"):
            def counted(t, *args):
                cells(t)
                return fn(t, *args)
        elif key.startswith("svg."):
            def counted(*args):
                out = fn(*args)
                c["svg.bytes_out"] += len(out.encode())
                return out
        else:
            return None
        return functools.wraps(fn)(counted)

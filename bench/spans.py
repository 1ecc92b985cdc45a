"""Per-layer tracing from outside the program.

``Tracer.install()`` wraps public functions of the curvecount modules
in every module namespace that binds them (``genus1.count_y`` is the
same function as ``genus0.count_y``, ``cli.table_rows`` the same as
``tables.table_rows``, and so on) and ``Tracer.restore()`` puts every
original back.  Each wrapped call records a span: its layer name, the
span that was open when it started, and its start and end times.
Generator functions are timed only inside ``next()``, so a caller's
loop body is never charged to the generator.  Counters (memo hits,
nonzero results, bytes rendered) are recorded at the same boundaries.

Spans stay in memory while a pass runs and are written out with
``Tracer.dump`` when it ends; layers.py turns a dumped table into the
per-layer metrics.
"""

from __future__ import annotations

import array
import importlib
import json
import os
import sys
import time

import curvecount.cache as cache
import curvecount.cli as cli
import curvecount.engine as engine
import curvecount.fibration as fibration
import curvecount.genus0 as genus0
import curvecount.genus1 as genus1
import curvecount.partitions as partitions
import curvecount.problems as problems
import curvecount.tables as tables
# The package re-binds the name ``trace`` to engine.trace, so the
# module is fetched by its full name.
trace = importlib.import_module("curvecount.trace")
from layers import SPANS

def _nonzero(counter):
    def hook(tracer, args, result):
        if result[0]:
            tracer.bump(counter)

    return hook


def _lookup(tracer, args, result):
    tracer.bump("cache.lookup.misses" if result is None else "cache.lookup.hits")


def _load(tracer, args, result):
    tracer.bump("cache.records", result)


def _save(tracer, args, result):
    tracer.bump("cache.file_bytes", os.path.getsize(args[1]))


def _terms(tracer, args, result):
    tracer.bump("engine.finish_terms.terms", len(args[3]))


def _rendered(fmt):
    def hook(tracer, args, result):
        tracer.bump(f"trace.render_{fmt}.bytes", len(result) if result.isascii() else len(result.encode("utf-8")))
        if fmt == "text":
            tracer.bump("trace.render_text.lines", result.count("\n") + 1)
            tracer.bump("trace.render_text.nodes", sum(1 for _ in trace.iter_nodes(args[0])))

    return hook


def _nodes(tracer, args, result):
    tracer.bump("trace.nodes", sum(1 for _ in trace.iter_nodes(result)))


# (owner, attribute, span name, result hook).  A module owner means the
# function is patched in every curvecount namespace that binds it; a
# class owner means the class attribute is patched.
FUNCTIONS = (
    (genus0, "expand_x", "genus0.expand_x", None),
    (genus0, "count_y", "genus0.count_y", _nonzero("genus0.count_y.nonzero")),
    (genus0, "tail_problem", "genus0.tail_problem", None),
    (genus1, "expand_w", "genus1.expand_w", None),
    (genus1, "count_ya", "genus1.count_ya", _nonzero("genus1.count_ya.nonzero")),
    (genus1, "count_yb", "genus1.count_yb", _nonzero("genus1.count_yb.nonzero")),
    (genus1, "count_yc", "genus1.count_yc", _nonzero("genus1.count_yc.nonzero")),
    (problems, "format_problem", "problems.format", None),
    (problems, "base_z_text", "problems.format", None),
    (problems, "format_divisor", "problems.format", None),
    (fibration, "expand_z", "fibration.expand_z", None),
    (fibration, "sec_pair", "fibration.pairings", None),
    (fibration, "sec_hyp", "fibration.pairings", None),
    (fibration, "hyp_self", "fibration.pairings", None),
    (fibration, "hyp_minus_sec", "fibration.pairings", None),
    (fibration, "sec_self", "fibration.pairings", None),
    (engine, "finish_terms", "engine.finish_terms", _terms),
    (engine, "trace", "engine.trace", _nodes),
    (trace, "render_text", "trace.render_text", _rendered("text")),
    (trace, "render_json", "trace.render_json", _rendered("json")),
    (trace, "render_dot", "trace.render_dot", _rendered("dot")),
    (tables, "table_rows", "tables.table_rows", None),
    (cli, "main", "cli.main", None),
)
METHODS = (
    (problems.Problem, "make", "problems.make", None),
    (problems.ZProblem, "make", "problems.make", None),
    (engine.Engine, "terms_node", "engine.terms_node", None),
    (cache.MemoStore, "lookup", "cache.lookup", _lookup),
    (cache.MemoStore, "store", "cache.store", None),
    (cache.MemoStore, "load", "cache.load", _load),
    (cache.MemoStore, "save", "cache.save", _save),
)
GENERATORS = ((partitions, "type2_partitions", "partitions.type2"),)


def _namespaces():
    return [m for name, m in sorted(sys.modules.items()) if name == "curvecount" or name.startswith("curvecount.")]


class Tracer:
    """Span table and counters for one traced pass, plus the patches
    that feed them."""

    def __init__(self):
        self.kind = array.array("B")
        self.parent = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.counters: dict[str, int] = {}
        self._stack = [-1]
        self._patched: list[tuple[object, str, object]] = []

    def bump(self, counter: str, by: int = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + by

    def wrap(self, fn, span: str, hook=None):
        """Return fn wrapped in a span named ``span``; ``hook(tracer,
        args, result)`` runs after the span closes."""
        idx = SPANS.index(span)
        kind, parent, start, end = self.kind.append, self.parent.append, self.start.append, self.end
        stack = self._stack
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(end)
            kind(idx)
            parent(stack[-1])
            end.append(0.0)
            stack.append(sid)
            start(perf())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = perf()
                stack.pop()
            if hook is not None:
                hook(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", span)
        return wrapper

    def wrap_generator(self, fn, span: str):
        """Wrap a generator function: creating the generator counts a
        call, each ``next()`` is a span, each item yielded a shape."""
        step = self.wrap(next, span)
        calls, shapes = f"{span}.calls", f"{span}.shapes"
        tracer = self

        class Timed:
            __slots__ = ("it",)

            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                item = step(self.it)
                tracer.bump(shapes)
                return item

        def wrapper(*args, **kwargs):
            tracer.bump(calls)
            return Timed(fn(*args, **kwargs))

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr, new) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, new)

    def _patch_everywhere(self, module, attr, new) -> None:
        """Patch every name, under any alias, bound to the function."""
        original = getattr(module, attr)
        for ns in _namespaces():
            for name, value in list(vars(ns).items()):
                if value is original:
                    self._patch(ns, name, new)

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        for module, attr, span, hook in FUNCTIONS:
            self._patch_everywhere(module, attr, self.wrap(getattr(module, attr), span, hook))
        for module, attr, span in GENERATORS:
            self._patch_everywhere(module, attr, self.wrap_generator(getattr(module, attr), span))
        for cls, attr, span, hook in METHODS:
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                self._patch(cls, attr, classmethod(self.wrap(raw.__func__, span, hook)))
            else:
                self._patch(cls, attr, self.wrap(raw, span, hook))

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self, path: str, extra: dict) -> None:
        """Write the span table to ``path`` and its description, with
        the counters and ``extra``, to ``path + '.json'``."""
        with open(path, "wb") as fh:
            for arr in (self.kind, self.parent, self.start, self.end):
                arr.tofile(fh)
        meta = {"spans": len(self.kind), "names": list(SPANS), "counters": self.counters, **extra}
        with open(path + ".json", "w", encoding="utf-8") as fh:
            json.dump(meta, fh)


def patched_names() -> list[str]:
    """Names in curvecount namespaces that still hold a wrapper."""
    found = []
    for ns in _namespaces():
        for attr, value in list(vars(ns).items()):
            if hasattr(value, "__wrapped__") and getattr(value, "__module__", "") == __name__:
                found.append(f"{ns.__name__}.{attr}")
            if isinstance(value, type):
                for mattr, mval in vars(value).items():
                    inner = mval.__func__ if isinstance(mval, classmethod) else mval
                    if getattr(inner, "__module__", "") == __name__:
                        found.append(f"{ns.__name__}.{attr}.{mattr}")
    return found

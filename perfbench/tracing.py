"""Spans and counters recorded from outside the circle_billiards modules.

The package carries no instrumentation of its own.  A traced pass replaces
each public function of the six layer modules with a timing wrapper in every
module namespace that refers to it (``oracle.intersection_points`` is the
same object as ``geometry.intersection_points``), so a call from one layer
into another becomes a child span of the caller.  ``chords_cross`` runs
about q*q/2 times per pass over a pair, far too often for a span each; it is
wrapped with a plain counter in a separate, untimed counting pass instead.
Everything is restored when the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import threading
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("core", "formula", "geometry", "oracle", "render", "cli")
# Counted in a separate pass instead of traced; see the module docstring.
COUNTED = "chords_cross"


def layer_modules():
    pkg = importlib.import_module("circle_billiards")
    mods = {name: importlib.import_module(f"circle_billiards.{name}") for name in LAYERS}
    return pkg, mods


def public_functions(mods):
    """(qualified name, function) for every public function a layer defines."""
    for layer, mod in mods.items():
        for name, obj in vars(mod).items():
            if (
                not name.startswith("_")
                and inspect.isfunction(obj)
                and obj.__module__ == mod.__name__
            ):
                yield f"{layer}.{name}", obj


class _Patch:
    """Swap module attributes that point at given functions; undo on exit."""

    def __init__(self, namespaces, replacement_for):
        self.namespaces = namespaces
        self.replacement_for = replacement_for
        self.saved = []

    def __enter__(self):
        for ns in self.namespaces:
            for attr, obj in list(vars(ns).items()):
                new = self.replacement_for(ns, obj)
                if new is not None:
                    self.saved.append((ns, attr, obj))
                    setattr(ns, attr, new)
        return self

    def __exit__(self, *exc):
        for ns, attr, obj in reversed(self.saved):
            setattr(ns, attr, obj)
        self.saved.clear()


class Tracer:
    """In-memory span store; spans are (id, name, start, end, parent, op)."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = self._local.stack = []
        self.op = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self):
        stack = self._stack()
        if stack:
            parent = stack[-1]
        else:
            # A pool thread has no caller span of its own: its spans hang
            # off the span the main thread has open, the one that waits.
            parent = self._main_stack[-1] if self._main_stack else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, perf_counter()

    def _close(self, name, sid, parent, start):
        end = perf_counter()
        self._stack().pop()
        self.spans.append((sid, name, start, end, parent, self.op))

    def run_op(self, op_id, name, fn):
        """Run one benchmark operation as a root span."""
        self.op = op_id
        sid, parent, start = self._open()
        try:
            return fn()
        finally:
            self._close(name, sid, parent, start)

    def wrap(self, name, fn, on_result=None):
        tracer = self
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def traced_gen(*args, **kwargs):
                # One span per item: the generator's work happens in next().
                it = fn(*args, **kwargs)
                while True:
                    sid, parent, start = tracer._open()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(name, sid, parent, start)
                    yield item

            return traced_gen

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, start = tracer._open()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(name, sid, parent, start)
            if on_result is not None:
                with tracer._lock:
                    on_result(tracer.counts, result)
            return result

        return traced

    def patched(self, on_result):
        """Context manager: every public layer function traced while inside."""
        pkg, mods = layer_modules()
        wrappers = {}
        for qual, fn in public_functions(mods):
            if fn.__name__ != COUNTED:
                wrappers[fn] = self.wrap(qual, fn, on_result.get(qual))
        return _Patch(
            [pkg, *mods.values()],
            lambda ns, obj: wrappers.get(obj) if inspect.isfunction(obj) else None,
        )


def counting_patch(counts):
    """Context manager: count chords_cross calls and hits per calling module."""
    pkg, mods = layer_modules()
    target = getattr(mods["geometry"], COUNTED)
    lock = threading.Lock()

    def replacement(ns, obj):
        if obj is not target:
            return None
        caller = ns.__name__.rsplit(".", 1)[-1]

        def counted(*args):
            hit = obj(*args)
            with lock:
                counts[f"{caller}.calls"] += 1
                counts[f"{caller}.hits"] += hit
            return hit

        return counted

    return _Patch([pkg, *mods.values()], replacement)


def _covered(intervals):
    total, cur_start, cur_end = 0.0, None, None
    for s, e in sorted(intervals):
        if cur_end is None or s > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = s, e
        elif e > cur_end:
            cur_end = e
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """span id -> duration minus the part of it that child spans cover."""
    children = defaultdict(list)
    for sid, _name, start, end, parent, _op in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _name, start, end, _parent, _op in spans:
        kids = [(max(s, start), min(e, end)) for s, e in children.get(sid, ())]
        out[sid] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def summarize(spans):
    """Self and inclusive seconds and call counts per span name and per layer."""
    selfs = self_times(spans)
    by_name = defaultdict(lambda: {"self": 0.0, "incl": 0.0, "calls": 0})
    by_layer = defaultdict(float)
    for sid, name, start, end, _parent, _op in spans:
        row = by_name[name]
        row["self"] += selfs[sid]
        row["incl"] += end - start
        row["calls"] += 1
        by_layer[name.split(".", 1)[0]] += selfs[sid]
    return by_name, by_layer

"""Boundary tracing from outside the program.

The traced rep wraps a table of public entry points (``spec.BOUNDARIES``),
resolved by dotted name at run time, and records one in-memory span per
synchronous call: boundary group, start, end, parent span, the id of the
façade call it belongs to, and a byte (or item) count.  Generator entry
points are only counted — their body runs later, inside the event loop.
Nothing here is imported in untraced reps.

A name that no longer resolves is listed in :attr:`Tracer.unresolved`
and its metrics stay absent; the run goes on.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time

import numpy as np

ROOT = "bench.harness"


def _nbytes(x) -> int:
    if isinstance(x, np.ndarray):
        return x.nbytes
    if isinstance(x, dict):
        x = x.values()
    return sum(np.asarray(v).nbytes for v in x)


#: what a span's ``count`` holds, by the boundary's ``count`` field
_COUNTERS = {
    None: lambda args, result: 0,
    "arg_bytes": lambda args, result: _nbytes(args[1]),
    "repair_bytes": lambda args, result: (
        result.block.nbytes
        if hasattr(result, "block")
        else sum(r.block.nbytes for r in result)
    ),
    "result_len": lambda args, result: len(result),
}


#: extra per-call labels, counted under ``"<group>:<label>"``
_TAGS = {
    "gf_backend": lambda args: args[0].backend_for(np.shape(args[1])[-1]),
}


def resolve(dotted: str):
    """``(owner, attribute name, current value)`` for a dotted path."""
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for name in parts[cut:-1]:
            owner = getattr(owner, name)
        return owner, parts[-1], getattr(owner, parts[-1])
    raise ImportError(dotted)


def _all_subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _all_subclasses(sub)


class Tracer:
    """Installs the wrappers, holds the spans, computes self times."""

    def __init__(self):
        self.groups: list[str] = [ROOT]
        #: (group index, parent span index, request id, start, end, count)
        self.spans: list[tuple | None] = []
        self.tags: dict[str, int] = {}
        self.generator_calls: dict[str, int] = {}
        self.unresolved: list[str] = []
        self._stack: list[int] = []
        self._request = -1
        self._patched: list[tuple] = []

    # -- installation --------------------------------------------------------
    def install(self, boundaries) -> None:
        for b in boundaries:
            try:
                owner, attr, fn = resolve(b["target"])
            except (ImportError, AttributeError):
                self.unresolved.append(b["target"])
                continue
            owners = [owner]
            if b.get("subclasses"):
                owners = [c for c in _all_subclasses(owner) if attr in vars(c)]
            for o in owners:
                self._patch(o, attr, vars(o).get(attr, fn), b)

    def _patch(self, owner, attr, fn, b) -> None:
        had_own = attr in vars(owner)
        if inspect.isgeneratorfunction(fn):
            wrapper = self._count_only(fn, b["group"])
        else:
            wrapper = self._timed(
                fn, b["group"], _COUNTERS[b.get("count")], _TAGS.get(b.get("tag"))
            )
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, fn, had_own))

    def uninstall(self) -> None:
        for owner, attr, fn, had_own in reversed(self._patched):
            if had_own:
                setattr(owner, attr, fn)
            else:
                delattr(owner, attr)
        self._patched.clear()

    def _group_index(self, group: str) -> int:
        if group not in self.groups:
            self.groups.append(group)
        return self.groups.index(group)

    def _count_only(self, fn, group):
        calls = self.generator_calls
        calls.setdefault(group, 0)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[group] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, fn, group, counter, tag):
        gi = self._group_index(group)
        spans, stack, tags = self.spans, self._stack, self.tags
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1]
            if len(stack) == 1:
                self._request = index
            request = self._request
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stack.pop()
                spans[index] = (gi, parent, request, start, clock(), 0)
                raise
            end = clock()
            stack.pop()
            spans[index] = (gi, parent, request, start, end, counter(args, result))
            if tag is not None:
                key = f"{group}:{tag(args)}"
                tags[key] = tags.get(key, 0) + 1
            return result

        return wrapper

    # -- the root span -------------------------------------------------------
    def __enter__(self) -> "Tracer":
        self.spans.append(None)
        self._stack.append(0)
        self._root_start = time.perf_counter()
        return self

    def __exit__(self, *_exc) -> None:
        self.spans[0] = (0, -1, -1, self._root_start, time.perf_counter(), 0)
        self._stack.pop()

    # -- analysis ------------------------------------------------------------
    def arrays(self) -> dict[str, np.ndarray]:
        cols = list(zip(*self.spans))
        return {
            "group": np.array(cols[0], dtype=np.int32),
            "parent": np.array(cols[1], dtype=np.int64),
            "request": np.array(cols[2], dtype=np.int64),
            "start": np.array(cols[3]),
            "end": np.array(cols[4]),
            "count": np.array(cols[5], dtype=np.int64),
        }

    def summary(self) -> dict[str, dict]:
        """Per group: calls, self seconds, total seconds, longest span, count.

        Self time is a span's duration minus its direct children's, so the
        self times of all groups, the root ``bench.harness`` included, add
        up to the root span by construction.  ``calls`` skips spans whose
        parent is in the same group (a planner delegating to its base class
        is one call).
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        children = np.bincount(
            a["parent"][has_parent], weights=dur[has_parent], minlength=len(dur)
        )
        self_s = dur - children
        outer = np.ones(len(dur), dtype=bool)
        outer[has_parent] = a["group"][has_parent] != a["group"][a["parent"][has_parent]]
        out = {}
        for gi, group in enumerate(self.groups):
            sel = a["group"] == gi
            top = sel & outer
            out[group] = {
                "calls": int(top.sum()),
                "self_s": float(self_s[sel].sum()),
                "total_s": float(dur[top].sum()),
                "max_s": float(dur[top].max()) if top.any() else 0.0,
                "count": int(a["count"][sel].sum()),
            }
        return out

    def dump(self, path) -> None:
        np.savez_compressed(path, groups=np.array(self.groups), **self.arrays())

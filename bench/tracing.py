"""Spans around the calls into quadsym's public functions.

The program itself is not changed.  ``install`` replaces every public
function (the callables named in ``quadsym.__all__``, plus ``cli.main``)
with a timing wrapper, in each quadsym module global that refers to it, so
calls the modules make to each other are recorded as well as calls made
from outside.  Spans are kept in memory as
``(name, start, end, parent, group)`` and summarised or written out after
the pass.
"""
from __future__ import annotations

import functools
import json
import time


def layer_name(fn) -> str:
    """``module.function`` with the package prefix dropped."""
    return f"{fn.__module__.removeprefix('quadsym.')}.{fn.__name__}"


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []
        self._stack: list[int] = []
        self.group: str | None = None

    def wrap(self, fn):
        name = layer_name(fn)
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self.group)

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap the public functions in every quadsym module; returns their layer names."""
    import quadsym
    from quadsym import chartab, cli, groups, groupspec, ntheory, reciprocity

    targets = [getattr(quadsym, name) for name in quadsym.__all__]
    targets = [fn for fn in targets if callable(fn) and not isinstance(fn, type)]
    targets.append(cli.main)
    wrappers = {id(fn): tracer.wrap(fn) for fn in targets}
    for module in (quadsym, groupspec, groups, ntheory, reciprocity, chartab, cli):
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
    return sorted(layer_name(fn) for fn in targets)


def summarize(spans: list, names: list[str]) -> dict:
    """Per layer: inclusive time ``s``, ``calls`` and ``self_s``; plus the
    time covered by top-level spans.

    A recursive call (``make_group`` on a product) is counted in ``calls``
    but its time is inside the outer call's ``s`` already.  Self time is a
    span's duration minus the time of its direct children.
    """
    total = dict.fromkeys(names, 0.0)
    self_s = dict.fromkeys(names, 0.0)
    calls = dict.fromkeys(names, 0)
    top = 0.0
    for name, start, end, parent, _ in spans:
        dur = end - start
        calls[name] += 1
        self_s[name] += dur
        if parent < 0:
            top += dur
            total[name] += dur
            continue
        self_s[spans[parent][0]] -= dur
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            total[name] += dur
    return {"s": total, "calls": calls, "self_s": self_s, "top_s": top}


def write_spans(spans: list, path: str) -> None:
    with open(path, "w") as fh:
        for span in spans:
            fh.write(json.dumps(span, separators=(",", ":")) + "\n")

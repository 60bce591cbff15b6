"""In-memory span tracer that wraps spinmetro's public functions from outside.

A target such as ``metrology.sym_inverse`` is replaced by a recording
wrapper at every module binding that holds it (``spinmetro.metrology``,
``spinmetro.models`` and the package namespace all bind ``sym_inverse``),
so calls between the library's modules are seen.  A target naming a
method, such as ``analysis.ScanResult.write_csv``, is replaced on its
class.  Nothing is wrapped until :meth:`Tracer.install` runs, and
:meth:`Tracer.uninstall` puts every original object back.
"""

from __future__ import annotations

import importlib
import math
import os
import sys
from collections import defaultdict
from time import perf_counter

import numpy as np

__all__ = ["Tracer"]


def _file_bytes(path) -> dict:
    return {"bytes": os.path.getsize(path)}


# Counters recorded beside calls and self time, from each call's arguments
# and result.  stack_bytes is computed from the generator stack's shape
# (G, d, N, N) at 16 bytes per complex entry, not measured.
_EXTRAS = {
    "analysis.ScanResult.write_csv": lambda args, kw, res: _file_bytes(args[1]),
    "analysis.ScalingResult.write_csv": lambda args, kw, res: _file_bytes(args[1]),
    "analysis.write_json": lambda args, kw, res: _file_bytes(args[0]),
    "analysis.run_scan": lambda args, kw, res: {
        "cells": int(res.theta.size),
        "singular_cells": int(np.count_nonzero(res.singular)),
    },
    "metrology.batched_qfim_uhlmann": lambda args, kw, res: {
        "stack_bytes": math.prod(np.shape(args[0])) * 16,
    },
}


class Tracer:
    """Records a span (op, name, start, end, parent) for each wrapped call.

    ``stats[name]`` accumulates ``calls``, ``self_s`` (duration minus the
    child spans it encloses), ``failed`` (calls that raised) and the extra
    counters above.  Recording happens only while ``recording`` is true, so
    the correctness gate can call the library without being traced.
    """

    def __init__(self, targets):
        self.targets = list(targets)
        self.spans: list[tuple] = []
        self.stats = defaultdict(lambda: defaultdict(int))
        self.op = -1
        self.recording = False
        self._stack: list[list] = []
        self._restore: list[tuple] = []

    def _wrap(self, name: str, fn):
        extra = _EXTRAS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else -1
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            failed = True
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                tracer.spans[index] = (tracer.op, name, start, end, parent)
                stat = tracer.stats[name]
                stat["calls"] += 1
                stat["self_s"] += duration - frame[1]
                stat["failed"] += failed
                if not failed and extra is not None:
                    for key, value in extra(args, kwargs, result).items():
                        stat[key] += value

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "spinmetro" or k.startswith("spinmetro.")]
        for name in self.targets:
            module_name, *attrs = name.split(".")
            owner = importlib.import_module(f"spinmetro.{module_name}")
            for attr in attrs[:-1]:
                owner = getattr(owner, attr)
            original = getattr(owner, attrs[-1])
            wrapper = self._wrap(name, original)
            if isinstance(owner, type):
                bindings = [(owner, attrs[-1])]
            else:
                bindings = [(m, k) for m in modules for k, v in vars(m).items() if v is original]
            for obj, key in bindings:
                self._restore.append((obj, key, original))
                setattr(obj, key, wrapper)

    def uninstall(self) -> None:
        for obj, key, original in reversed(self._restore):
            setattr(obj, key, original)
        self._restore.clear()

    def take_stats(self) -> dict:
        """Return the counters accumulated since the last call and reset them."""
        stats = {name: dict(values) for name, values in self.stats.items()}
        self.stats.clear()
        return stats

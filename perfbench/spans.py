"""Spans and call counters for the traced run, recorded from the benchmark side.

Spans (name, start, end, parent) are kept in memory and written out once, at
the end of the run.  :meth:`Tracer.instrument` wraps a public function of the
program for in-process replay: it rebinds the name in *every* loaded
``pybel_ray`` module that holds the function, since a module that did
``from x import f`` keeps its own reference and would bypass a wrapper set
only on ``x``.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional


class CallStats:
    __slots__ = ("calls", "busy_s")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0


class Tracer:
    def __init__(self):
        self.spans: List[dict] = []
        self._stack: List[int] = []
        self.calls: Dict[str, CallStats] = {}
        self._undo: List[Callable[[], None]] = []

    @contextmanager
    def span(self, name: str, **attrs):
        parent = self._stack[-1] if self._stack else None
        idx = len(self.spans)
        rec = {"name": name, "start": time.time(), "end": None, "parent": parent}
        rec.update(attrs)
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.time()

    def durations(self, name: str) -> List[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name and s["end"]]

    # -- in-process instrumentation -------------------------------------------

    def _wrap(self, name: str, fn: Callable, on_result: Optional[Callable]) -> Callable:
        stats = self.calls.setdefault(name, CallStats())
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                stats.busy_s += clock() - t0
                stats.calls += 1
            if on_result is not None:
                on_result(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def instrument(self, name: str, fn: Callable, on_result: Optional[Callable] = None) -> int:
        """Route every ``pybel_ray`` binding of ``fn`` through a timing wrapper.

        Returns the number of bindings replaced.
        """
        wrapper = self._wrap(name, fn, on_result)
        n = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "pybel_ray" or mod_name.startswith("pybel_ray.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is fn:
                    setattr(mod, attr, wrapper)
                    self._undo.append(lambda m=mod, a=attr: setattr(m, a, fn))
                    n += 1
        return n

    def instrument_method(self, name: str, cls: type, method: str,
                          on_result: Optional[Callable] = None) -> None:
        """Wrap a method on its class (subclasses that call ``super()`` reach it)."""
        fn = cls.__dict__[method]
        setattr(cls, method, self._wrap(name, fn, on_result))
        self._undo.append(lambda: setattr(cls, method, fn))

    def restore(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path: str, extra: dict) -> None:
        doc = dict(extra)
        doc["spans"] = self.spans
        doc["calls"] = {k: {"calls": v.calls, "busy_s": v.busy_s} for k, v in self.calls.items()}
        with open(path, "w") as f:
            json.dump(doc, f, indent=1)

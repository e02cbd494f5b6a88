"""Spans and output capture around freeconv's public functions, installed
from outside the library.

A wrapper replaces a function at *every* module attribute that holds it.
``freeconv.experiments`` and ``freeconv.cli`` bind ``solve_grid``,
``recover`` and the distances at import time, and
``freeconv.subordination`` binds ``cauchy`` the same way, so patching only
the defining module would silently miss those calls.

Spans are kept in flat arrays while the traced repetition runs and are
aggregated only at the end.  A span's self time is its
duration minus the durations of its direct children; calls are strictly
nested because the benchmark is one closed-loop caller on one thread.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from array import array

import numpy as np

# modules with timed work of their own; measures and errors have none
TRACED_MODULES = ("complexfn", "cumulants", "subordination", "inversion",
                  "sphere", "experiments", "cli")


def public_functions(package: str = "freeconv") -> dict:
    """Span name ("module.function") -> function, for every public function
    defined in one of TRACED_MODULES."""
    out = {}
    for short in TRACED_MODULES:
        mod = importlib.import_module(f"{package}.{short}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                    and not name.startswith("_")):
                out[f"{short}.{name}"] = obj
    return out


class Patch:
    """Swaps wrappers in at every module attribute of the package that holds
    one of the wrapped functions, and puts the originals back."""

    def __init__(self, functions: dict, package: str = "freeconv"):
        self.functions = functions
        self.package = package
        self.sites: list = []

    def install(self, wrappers: dict) -> None:
        by_id = {id(self.functions[name]): name for name in wrappers}
        self.sites = [(mod, attr, by_id[id(value)])
                      for modname, mod in list(sys.modules.items())
                      if modname == self.package
                      or modname.startswith(self.package + ".")
                      for attr, value in vars(mod).items() if id(value) in by_id]
        for mod, attr, name in self.sites:
            setattr(mod, attr, wrappers[name])

    def restore(self) -> None:
        for mod, attr, name in self.sites:
            setattr(mod, attr, self.functions[name])
        self.sites = []


def capturing(fn, sink: list):
    """Wrapper appending (args, kwargs, result) of each returning call."""
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        out = fn(*args, **kwargs)
        sink.append((args, kwargs, out))
        return out
    return wrapper


class Tracer:
    """In-memory span recorder: name id, parent index, start and end."""

    def __init__(self):
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.nid = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        nids, parents, starts, ends = self.nid, self.parent, self.start, self.end
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(nids)
            nids.append(nid)
            parents.append(stack[-1] if stack else -1)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                starts[idx] = t0
                stack.pop()
        return wrapper

    def summary(self) -> dict:
        """Span name -> {"calls", "total_s", "self_s"}."""
        nid = np.frombuffer(self.nid, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        self_t = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selfs = np.bincount(nid, weights=self_t, minlength=k)
        return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                       "self_s": float(selfs[i])}
                for i, name in enumerate(self.names)}

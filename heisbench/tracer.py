"""Outside-in tracer for heisgeom.

`Tracer.install()` replaces the public functions and methods of the layer
modules with wrappers that count calls and time them, and rebinds every
alias a `from .x import f` made in any heisgeom module.  `uninstall()` puts
every original back.  Each thread keeps its own span stack and its own
tables, so the checks that run in the suite runner's worker thread are
attributed correctly; `snapshot()` merges the tables.

Per wrapped callable the tracer records calls, inclusive and self wall time
(`time.perf_counter`) and inclusive and self CPU time (`time.thread_time`).
Self time is the inclusive time minus the inclusive time of the traced
calls made beneath it.
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
import types
from collections import defaultdict

PACKAGE = "heisgeom"
LAYER_MODULES = ("jets", "fields", "coords", "group", "approx", "groupoid", "rates", "manifests")

# Operator methods worth counting, and the short names they are reported under.
DUNDERS = {
    "__call__": "call",
    "__add__": "add",
    "__radd__": "radd",
    "__sub__": "sub",
    "__rsub__": "rsub",
    "__mul__": "mul",
    "__rmul__": "rmul",
    "__neg__": "neg",
}

# stats row: calls, inclusive wall, self wall, inclusive cpu, self cpu
CALLS, WALL, SELF_WALL, CPU, SELF_CPU = range(5)


class _ThreadTables:
    def __init__(self):
        self.stack = []
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        self.edges = defaultdict(int)
        self.builds = []


class Tracer:
    def __init__(self, package: str = PACKAGE, modules=LAYER_MODULES):
        self.package = package
        self.modules = tuple(modules)
        self._local = threading.local()
        self._tables = []
        self._tables_lock = threading.Lock()
        self._patches = []  # (owner, attribute, original value), in install order

    # -- per-thread state ---------------------------------------------------
    def _mine(self) -> _ThreadTables:
        tables = getattr(self._local, "tables", None)
        if tables is None:
            tables = self._local.tables = _ThreadTables()
            with self._tables_lock:
                self._tables.append(tables)
        return tables

    # -- wrappers -----------------------------------------------------------
    def _wrap(self, name: str, fn):
        mine = self._mine
        clock, cpu_clock = time.perf_counter, time.thread_time

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            tables = mine()
            stack = tables.stack
            span = [name, 0.0, 0.0]  # name, child wall, child cpu
            stack.append(span)
            w0, c0 = clock(), cpu_clock()
            try:
                return fn(*args, **kwargs)
            finally:
                wall, cpu = clock() - w0, cpu_clock() - c0
                stack.pop()
                row = tables.stats[name]
                row[CALLS] += 1
                row[WALL] += wall
                row[SELF_WALL] += wall - span[1]
                row[CPU] += cpu
                row[SELF_CPU] += cpu - span[2]
                if stack:
                    parent = stack[-1]
                    parent[1] += wall
                    parent[2] += cpu
                    tables.edges[(parent[0], name)] += 1

        return traced

    def _wrap_cached(self, name: str, fn):
        """Wrap an lru_cache'd factory such as jet_space and also record each cache miss."""
        inner = self._wrap(name, fn)
        mine = self._mine

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            misses = fn.cache_info().misses
            t0 = time.perf_counter()
            out = inner(*args, **kwargs)
            if fn.cache_info().misses != misses:
                size = getattr(out, "size", None)
                mine().builds.append({"args": list(args), "size": size, "seconds": time.perf_counter() - t0})
            return out

        return traced

    def _set(self, owner, attr: str, value):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    # -- install / uninstall --------------------------------------------------
    def install(self) -> "Tracer":
        if self._patches:
            raise RuntimeError("tracer is already installed")
        replaced = {}  # id(original function) -> (original, wrapper)
        for short in self.modules:
            mod = importlib.import_module(f"{self.package}.{short}")
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    wrapper = self._wrap(f"{short}.{attr}", obj)
                elif isinstance(obj, functools._lru_cache_wrapper):
                    wrapper = self._wrap_cached(f"{short}.{attr}", obj)
                elif isinstance(obj, type):
                    self._wrap_class(short, obj)
                    continue
                else:
                    continue
                replaced[id(obj)] = (obj, wrapper)
                self._set(mod, attr, wrapper)
        # rebind the aliases made by `from .x import f` anywhere in the package
        for modname, mod in sorted(sys.modules.items()):
            if mod is None or not (modname == self.package or modname.startswith(self.package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = replaced.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        return self

    def _wrap_class(self, short: str, cls: type):
        for attr, obj in list(vars(cls).items()):
            if attr in DUNDERS:
                label = DUNDERS[attr]
            elif attr.startswith("_"):
                continue
            else:
                label = attr
            name = f"{short}.{cls.__name__}.{label}"
            if isinstance(obj, types.FunctionType):
                self._set(cls, attr, self._wrap(name, obj))
            elif isinstance(obj, classmethod):
                self._set(cls, attr, classmethod(self._wrap(name, obj.__func__)))
            elif isinstance(obj, staticmethod):
                self._set(cls, attr, staticmethod(self._wrap(name, obj.__func__)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def patched_names(self) -> list:
        return [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr, _ in self._patches]

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- results --------------------------------------------------------------
    def snapshot(self) -> dict:
        """Merged tables: {"functions": {name: {...}}, "edges": {...}, "builds": [...]}."""
        stats = defaultdict(lambda: [0, 0.0, 0.0, 0.0, 0.0])
        edges = defaultdict(int)
        builds = []
        with self._tables_lock:
            tables = list(self._tables)
        for t in tables:
            for name, row in t.stats.items():
                acc = stats[name]
                for k in range(5):
                    acc[k] += row[k]
            for key, n in t.edges.items():
                edges[key] += n
            builds += t.builds
        functions = {
            name: {
                "calls": row[CALLS],
                "wall_s": row[WALL],
                "self_wall_s": row[SELF_WALL],
                "cpu_s": row[CPU],
                "self_cpu_s": row[SELF_CPU],
            }
            for name, row in sorted(stats.items())
        }
        return {
            "functions": functions,
            "edges": {f"{a} -> {b}": n for (a, b), n in sorted(edges.items())},
            "builds": builds,
        }

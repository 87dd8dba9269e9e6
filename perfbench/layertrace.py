"""Traced runs: per-layer call counts and self times, from outside tilelab.

Every public function of the seven modules of ``tilelab`` is replaced by a
timing wrapper in *every* namespace that bound it: ``cli``, ``reduction``,
``splitting``, ``tiling`` and the package itself import names with
``from ... import``, so patching only the defining module would miss most
calls.  ``TileSet`` is traced through its constructors.  Generators are
wrapped around each ``next()``; memoized functions report hits and misses
from the original ``cache_info()``.

Spans are aggregated in memory by (name, parent) as they close: a span's
self time is its duration minus the durations of the wrapped spans it
directly contains.  Nothing is recorded per call, so a sweep's hundreds of
thousands of ``fiber_parity`` calls cost a dictionary update each.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

MODULES = ("cli", "zm_core", "cyclotomic", "tiling", "structure", "splitting",
           "reduction")
ROOT = "<benchmark>"


def _applicable_first(args, result) -> int:
    return 1 if result[0] else 0


def _applicable_not_none(args, result) -> int:
    return 0 if result is None else 1


def _pairs(args, result) -> int:
    return args[0].context.M ** 2


# Extra per-call tallies: (span name, counter name, function of the call).
TALLIES = (
    ("reduction.slabcor_check", "applicable", _applicable_first),
    ("reduction.blowbound_check", "applicable", _applicable_first),
    ("splitting.cross_direction_check", "applicable", _applicable_not_none),
    ("structure.box_product_all_ones", "pairs", _pairs),
)


class Tracer:
    def __init__(self):
        self.stack = [[ROOT, 0.0]]          # open spans: [name, child time]
        self.spans: dict[tuple[str, str], list] = {}  # -> [calls, total, self]
        self.tallies: dict[tuple[str, str], int] = {}
        self.yields: dict[str, int] = {}
        self.caches: dict[str, list] = {}   # name -> [cache_info, hits, misses]

    # -- recording -------------------------------------------------------

    def _close(self, name: str, frame: list, parent: list, dur: float):
        parent[1] += dur
        key = (name, parent[0])
        rec = self.spans.get(key)
        if rec is None:
            rec = self.spans[key] = [0, 0.0, 0.0]
        rec[0] += 1
        rec[1] += dur
        rec[2] += dur - frame[1]

    def wrap(self, name: str, fn):
        stack = self.stack
        close = self._close
        clock = time.perf_counter
        tallies = [(counter, f) for span, counter, f in TALLIES if span == name]

        if inspect.isgeneratorfunction(fn):
            tracer = self

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return _TracedIter(tracer, name, fn(*args, **kwargs))
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1]
            frame = [name, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                close(name, frame, parent, dur)
            for counter, f in tallies:
                key = (name, counter)
                self.tallies[key] = self.tallies.get(key, 0) + f(args, result)
            return result

        if hasattr(fn, "cache_info"):
            # cache_clear() also zeroes the statistics, so bank them first
            start = fn.cache_info()
            banked = self.caches[name] = [fn.cache_info, -start.hits,
                                          -start.misses]

            def cache_clear():
                info = fn.cache_info()
                banked[1] += info.hits
                banked[2] += info.misses
                fn.cache_clear()
            wrapper.cache_info = fn.cache_info
            wrapper.cache_clear = cache_clear
        return wrapper

    # -- patching --------------------------------------------------------

    def install(self, package) -> None:
        """Patch every public function of the package's modules, in every
        module of the package that bound it, and TileSet's constructors."""
        replace: dict[int, object] = {}
        for mod in MODULES:
            module = sys.modules[f"{package.__name__}.{mod}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or inspect.isclass(obj):
                    continue
                if not callable(obj) or getattr(obj, "__module__", None) != module.__name__:
                    continue
                replace[id(obj)] = self.wrap(f"{mod}.{attr}", obj)
        for name, module in list(sys.modules.items()):
            if name != package.__name__ and not name.startswith(package.__name__ + "."):
                continue
            for attr, obj in list(vars(module).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        tileset = sys.modules[f"{package.__name__}.zm_core"].TileSet
        tileset.__init__ = self.wrap("zm_core.TileSet", tileset.__init__)
        from_mask = tileset.__dict__["from_mask"].__func__
        tileset.from_mask = classmethod(self.wrap("zm_core.TileSet.from_mask",
                                                  from_mask))

    # -- results ---------------------------------------------------------

    def by_name(self) -> dict[str, dict]:
        """Per span name: calls, total_s, self_s, plus yields, misses and
        tallies where they exist."""
        out: dict[str, dict] = {}
        for (name, _parent), (calls, total, self_s) in self.spans.items():
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            rec["calls"] += calls
            rec["total_s"] += total
            rec["self_s"] += self_s
        for name, n in self.yields.items():
            out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                  "self_s": 0.0})["yields"] = n
        for name, (info, hits, misses) in self.caches.items():
            now = info()
            rec = out.setdefault(name, {"calls": 0, "total_s": 0.0,
                                        "self_s": 0.0})
            rec["hits"] = hits + now.hits
            rec["misses"] = misses + now.misses
        for (name, counter), n in self.tallies.items():
            out[name][counter] = n
        return out

    def span_table(self) -> list[dict]:
        return [{"name": name, "parent": parent, "calls": calls,
                 "total_s": total, "self_s": self_s}
                for (name, parent), (calls, total, self_s)
                in sorted(self.spans.items())]


class _TracedIter:
    """A generator seen through the tracer: one span per next()."""

    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer: Tracer, name: str, it):
        self._tracer = tracer
        self._name = name
        self._it = it

    def __iter__(self):
        return self

    def __next__(self):
        tracer = self._tracer
        stack = tracer.stack
        parent = stack[-1]
        frame = [self._name, 0.0]
        stack.append(frame)
        start = time.perf_counter()
        try:
            item = next(self._it)
        finally:
            dur = time.perf_counter() - start
            stack.pop()
            tracer._close(self._name, frame, parent, dur)
        tracer.yields[self._name] = tracer.yields.get(self._name, 0) + 1
        return item

    def close(self):
        self._it.close()

"""Spans around the program's public functions, installed from outside.

Every public function of inglenook.search, inglenook.model and
inglenook.constructive, the SlotCodec methods, and inglenook.cli.run are
replaced by timing wrappers.  A name bound by `from .x import y` is a
separate reference in the importing module, so each wrapper is installed
under every name, in every inglenook module, that refers to the original.

A layer's self time is its inclusive time less the time of the wrapped
calls made beneath it.  A generator function is timed while it is being
iterated, not when it is called.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter

TRACED_MODULES = ("search", "model", "constructive")
TRACED_METHODS = (("model", "SlotCodec", "encode"), ("model", "SlotCodec", "decode"))


class Tracer:
    def __init__(self):
        # name -> [calls, inclusive seconds, seconds in wrapped callees]
        self.stats: dict[str, list] = {}
        self._stack: list[list[float]] = []

    def _record(self, name, start, callees, calls):
        spent = perf_counter() - start
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += calls
        st[1] += spent
        st[2] += callees
        if self._stack:
            self._stack[-1][0] += spent

    def wrap(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        def wrapper(*args, **kwargs):
            frame = [0.0]
            self._stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self._record(name, start, frame[0], 1)

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_generator(self, name, fn):
        def wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            calls = 1
            while True:
                frame = [0.0]
                self._stack.append(frame)
                start = perf_counter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._stack.pop()
                    self._record(name, start, frame[0], calls)
                    calls = 0
                yield item

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        package = sys.modules["inglenook"]
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "inglenook" or n.startswith("inglenook.")]
        originals = {}
        for short in TRACED_MODULES:
            mod = getattr(package, short)
            for attr, value in vars(mod).items():
                if (not attr.startswith("_") and inspect.isfunction(value)
                        and value.__module__ == mod.__name__):
                    originals[id(value)] = (f"{short}.{attr}", value)
        run = package.cli.run
        originals[id(run)] = ("cli.run", run)
        wrappers = {key: self.wrap(name, fn) for key, (name, fn) in originals.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if id(value) in originals and originals[id(value)][1] is value:
                    setattr(mod, attr, wrappers[id(value)])
        for short, cls_name, attr in TRACED_METHODS:
            cls = getattr(getattr(package, short), cls_name)
            fn = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(f"{short}.{cls_name}.{attr}", fn))

    def report(self) -> dict[str, dict[str, float]]:
        return {name: {"calls": c, "s": s, "self_s": s - sub}
                for name, (c, s, sub) in sorted(self.stats.items())}

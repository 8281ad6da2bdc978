"""Outside-in layer tracing of the netcm package, from the benchmark's own files.

A layer is a netcm module.  ``Tracer.install`` replaces every public
module-level function of every netcm module (in each namespace that holds
it, so ``from .linalg import partial_trace`` copies are covered too) and the
``__post_init__`` validation hook of every netcm dataclass with a wrapper
that records a span.  Methods and private helpers run inside their
caller's span; private helpers are only called from their own module, so
their time still lands in the right layer.  ``uninstall`` restores the
originals.  Checks that run between ops call netcm too; ``untraced`` keeps
them out of the spans.

Spans are aggregated as they close rather than stored: per layer the self
time (span time minus the time covered by child spans), per function the
call count and inclusive time, and the bytes of NCMX files read or written.
Spans nest on one thread only, so the traced run sets ``NETCM_THREADS=1``.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import os
import sys
from collections import Counter, defaultdict
from time import perf_counter

# inclusive span time is attributed to these names; the byte counters stat
# the file named by the first argument once the call has returned
_BYTE_COUNTERS = {"ncmx.read_matrix": "ncmx.bytes_read", "ncmx.write_matrix": "ncmx.bytes_written"}


def netcm_modules():
    return [m for name, m in sorted(sys.modules.items())
            if name == "netcm" or name.startswith("netcm.")]


class Tracer:
    def __init__(self):
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.bytes: Counter = Counter()
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []
        self.paused = False

    def _wrap(self, fn, layer: str, key: str):
        stack, self_s, incl_s, calls = self._stack, self.self_s, self.incl_s, self.calls
        counter = _BYTE_COUNTERS.get(key)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            frame = [0.0]  # time covered by child spans
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                self_s[layer] += elapsed - frame[0]
                incl_s[key] += elapsed
                calls[key] += 1
                if stack:
                    stack[-1][0] += elapsed
                if counter is not None and args and os.path.exists(args[0]):
                    self.bytes[counter] += os.path.getsize(args[0])

        return span

    def install(self) -> None:
        wrappers = {}
        for mod in netcm_modules():
            layer = mod.__name__.rpartition(".")[2]
            for name, obj in vars(mod).items():
                if getattr(obj, "__module__", None) != mod.__name__ or name.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    wrappers[obj] = self._wrap(obj, layer, f"{layer}.{name}")
                elif inspect.isclass(obj) and dataclasses.is_dataclass(obj) \
                        and "__post_init__" in vars(obj):
                    hook = vars(obj)["__post_init__"]
                    self._undo.append((obj, "__post_init__", hook))
                    setattr(obj, "__post_init__",
                            self._wrap(hook, layer, f"{layer}.{name}.__post_init__"))
        for mod in netcm_modules():
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._undo.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def untraced(self, fn):
        """``fn`` with tracing paused while it runs (for checks between ops)."""

        @functools.wraps(fn)
        def call(*args, **kwargs):
            self.paused = True
            try:
                return fn(*args, **kwargs)
            finally:
                self.paused = False

        return call

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._undo):
            setattr(owner, name, original)
        self._undo.clear()

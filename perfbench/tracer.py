"""Per-layer tracing by wrapping ltseg's public functions from outside.

Each target is a function named by its defining module and attribute.
Installing the tracer replaces that function object under every name a
loaded ``ltseg`` module binds it to, so ``from .confusion import
compute_confusion`` in ``classifier`` is traced as well as
``confusion.compute_confusion``. Nothing inside ``src/ltseg`` changes.

A target that no longer exists (module gone, attribute gone, or not
callable) is reported as absent and left out; the run goes on.

Time is kept per thread: a span's self time is its duration minus the
time of the traced spans it called on the same thread. Spans that run on
worker threads (the eval pool) have no traced parent, so they do not
reduce the self time of the command that waits for them.
"""

import functools
import importlib
import sys
import threading
import time
from dataclasses import dataclass


@dataclass(frozen=True)
class Target:
    """One function to trace. ``extra`` optionally names a count and
    gives ``fn(args, result) -> int`` to accumulate it per call."""

    name: str
    module: str
    attr: str
    extra: tuple = None


@dataclass
class Stats:
    calls: int = 0
    seconds: float = 0.0
    self_seconds: float = 0.0
    extra: int = 0


class Tracer:
    def __init__(self, targets):
        self.targets = tuple(targets)
        self.absent = []
        self._stats = {}
        self._patched = []  # (module, name, original), for uninstall
        self._local = threading.local()
        self._lock = threading.Lock()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def install(self):
        if self._patched:
            raise RuntimeError("tracer is already installed")
        self._stats = {}
        originals = {target: _resolve(target) for target in self.targets}
        self.absent = [t.name for t, func in originals.items() if func is None]
        loaded = [
            module
            for name, module in list(sys.modules.items())
            if module is not None and (name == "ltseg" or name.startswith("ltseg."))
        ]
        for target, original in originals.items():
            if original is None:
                continue
            stats = self._stats[target.name] = Stats()
            wrapper = self._wrap(original, stats, target.extra)
            for module in loaded:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
                        self._patched.append((module, key, original))

    def uninstall(self):
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched = []

    def snapshot(self):
        """{target name: Stats copy} for every present target."""
        with self._lock:
            return {name: Stats(**vars(s)) for name, s in self._stats.items()}

    def _wrap(self, func, stats, extra):
        local = self._local
        lock = self._lock
        counter = extra[1] if extra else None

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            stack.append(0.0)  # time of traced children, filled by them
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                if stack:
                    stack[-1] += elapsed
                with lock:
                    stats.calls += 1
                    stats.seconds += elapsed
                    stats.self_seconds += elapsed - children
            if counter is not None:
                amount = counter(args, result)
                with lock:
                    stats.extra += amount
            return result

        return traced


def _resolve(target):
    try:
        module = importlib.import_module(target.module)
    except ImportError:
        return None
    func = getattr(module, target.attr, None)
    return func if callable(func) else None

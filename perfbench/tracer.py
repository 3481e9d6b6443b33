"""In-memory span tracer that wraps csmooth's public functions from outside.

A wrapped function records a span each time it runs; its time counts once
toward its own name and is subtracted from its parent's self time. Wrapping rebinds the name in every ``csmooth`` module that holds the
original object, because modules import names directly: ``methods`` keeps
its own reference to ``css_recover``, so patching ``csmooth.admm`` alone
would record nothing. A name that no longer exists is reported as absent
instead of raising, so the tracer keeps working while the package changes.
"""
from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext


class Tracer:
    """Collects spans and counters; ``restore`` undoes every rebinding."""

    def __init__(self) -> None:
        self.self_s: dict[str, float] = defaultdict(float)
        self.total_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.durations: dict[str, list[float]] = defaultdict(list)
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = defaultdict(float)
        self.absent: dict[str, str] = {}
        self._stack: list[list] = []   # [start, time spent in children]
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ spans

    @contextmanager
    def span(self, name: str):
        frame = [time.perf_counter(), 0.0]
        self._stack.append(frame)
        try:
            yield
        finally:
            duration = time.perf_counter() - frame[0]
            self._stack.pop()
            self.total_s[name] += duration
            self.self_s[name] += duration - frame[1]
            self.calls[name] += 1
            self.durations[name].append(duration)
            if self._stack:
                self._stack[-1][1] += duration

    def count(self, name: str, amount: float = 1.0) -> None:
        self.counts[name] += amount

    def peak(self, name: str, value: float) -> None:
        self.maxima[name] = max(self.maxima[name], value)

    # ------------------------------------------------------------ wrapping

    def wrap(self, module: str, attr: str, name, after=None, around=None) -> None:
        """Record a span around every call of ``module.attr``.

        ``name`` is the span name, or a callable of (args, kwargs) giving it.
        ``after(result, args, kwargs)`` runs once the call has returned;
        ``around()`` returns a context manager entered inside the span.
        """
        original = getattr(sys.modules.get(module), attr, None)
        if not callable(original):
            self.absent[f"{module}.{attr}"] = "not defined in this version"
            return
        wrapper = self._wrapper(original, name, after, around)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "csmooth" and getattr(mod, attr, None) is original:
                self._rebind(mod, attr, wrapper)

    def wrap_method(self, module: str, cls: str, attr: str, name) -> None:
        """Like ``wrap`` for a method; the class object is shared, so one patch covers every caller."""
        owner = getattr(sys.modules.get(module), cls, None)
        original = owner.__dict__.get(attr) if isinstance(owner, type) else None
        if not callable(original):
            self.absent[f"{module}.{cls}.{attr}"] = "not defined in this version"
            return
        self._rebind(owner, attr, self._wrapper(original, name, None, None))

    def wrap_prefix(self, module: str, prefix: str, name, after=None) -> None:
        """Wrap every public function of ``module`` whose name starts with ``prefix``."""
        mod = sys.modules.get(module)
        attrs = [a for a in vars(mod) if a.startswith(prefix) and callable(getattr(mod, a))] if mod else []
        if not attrs:
            self.absent[f"{module}.{prefix}*"] = "no such functions in this version"
        for attr in attrs:
            self.wrap(module, attr, name, after)

    def _wrapper(self, original, name, after, around):
        @functools.wraps(original)
        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with self.span(label), (around() if around is not None else nullcontext()):
                result = original(*args, **kwargs)
            if after is not None:
                try:
                    after(result, args, kwargs)
                except (AttributeError, IndexError, TypeError) as exc:
                    # a result whose shape changed loses its counters, not the run
                    self.absent[f"{label} counters"] = repr(exc)
            return result

        return traced

    def _rebind(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def written_bytes(args, kwargs) -> int:
    """Size of every file named among a call's arguments (its outputs, for writers)."""
    total = 0
    for value in (*args, *kwargs.values()):
        if isinstance(value, (str, os.PathLike)) and os.path.isfile(value):
            total += os.path.getsize(value)
    return total

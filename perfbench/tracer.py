"""In-memory spans and counters around the public functions of swarmsec.

The tracer patches the package from the outside: every module attribute of a
loaded ``swarmsec`` module that is one of the probed functions is replaced by
a wrapper, so each binding made by ``from .x import y`` is covered, and
``restore`` puts every original back. Hot leaf functions (path loss, RNG
substreams) only bump a counter; the rest record a span
``[name, start, end, parent, run_id]`` on a stack-tracked parent chain.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter


WRAPPED = "__wrapped_by_tracer__"


def package_modules(package: str = "swarmsec"):
    """(name, module) for every loaded module of ``package``."""
    for name, module in list(sys.modules.items()):
        if module is not None and (name == package or name.startswith(package + ".")):
            yield name, module


def leftover_wrappers(package: str = "swarmsec") -> list:
    """Module and class attributes of ``package`` still bound to a tracer wrapper."""
    left = []
    for mod_name, module in package_modules(package):
        for attr, value in vars(module).items():
            bindings = [(f"{mod_name}.{attr}", value)]
            if isinstance(value, type):
                bindings += [(f"{mod_name}.{attr}.{a}", v) for a, v in vars(value).items()]
            left += [name for name, v in bindings if getattr(v, WRAPPED, False)]
    return left


def _merged_length(intervals) -> float:
    """Total length covered by a set of (start, end) intervals."""
    total, cur_start, cur_end = 0.0, None, None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


class Tracer:
    """Spans and counters for one traced pass; ``patch_*`` installs probes, ``restore`` removes them."""

    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.run_id = None
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name: str, fn, on_call=None, on_return=None):
        """Wrap ``fn`` so each call records a span and bumps ``<name>_calls``.

        ``on_call(counters, arguments)`` (arguments bound to parameter names)
        and ``on_return(counters, result)`` add workload counters; an
        exception bumps ``<layer>.errors``.
        """
        layer = name.split(".", 1)[0]
        signature = inspect.signature(fn) if on_call is not None else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.run_id]
            span_id = len(self.spans)
            self.spans.append(span)
            self._stack.append(span_id)
            self.counters[name + "_calls"] += 1
            if on_call is not None:
                on_call(self.counters, signature.bind(*args, **kwargs).arguments)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counters[layer + ".errors"] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if on_return is not None:
                on_return(self.counters, result)
            return result

        setattr(wrapper, WRAPPED, True)
        return wrapper

    def counted(self, counter: str, fn):
        """Wrap ``fn`` so each call only bumps ``counter`` (no span)."""
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)

        setattr(wrapper, WRAPPED, True)
        return wrapper

    # -- patching ----------------------------------------------------------

    def patch_everywhere(self, original, wrapper) -> None:
        """Rebind every swarmsec module attribute that is ``original``."""
        found = False
        for _, module in package_modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, attr, original))
                    setattr(module, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no binding of {original!r} found to trace")

    def patch_attr(self, owner, attr: str, wrapper) -> None:
        """Rebind one attribute, e.g. a method on a class."""
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put back every original binding, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- summaries ---------------------------------------------------------

    def busy_s(self, name: str) -> float:
        """Wall time covered by at least one span of ``name``."""
        return _merged_length((s[1], s[2]) for s in self.spans if s[0] == name)

    def self_s(self, name: str) -> float:
        """Sum over spans of ``name`` of duration minus their children's coverage."""
        children: dict[int, list] = {}
        for s in self.spans:
            if s[3] is not None:
                children.setdefault(s[3], []).append((s[1], s[2]))
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] == name:
                total += (s[2] - s[1]) - _merged_length(children.get(i, ()))
        return total

    def dump(self) -> dict:
        """Spans and counters as plain JSON-ready data."""
        return {
            "span_fields": ["name", "start", "end", "parent", "run_id"],
            "spans": self.spans,
            "counters": dict(sorted(self.counters.items())),
        }

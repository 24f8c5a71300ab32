"""Spans around calls into the program's public functions.

The program is not edited: a :class:`Tracer` replaces each traced
function with a timing wrapper *at every binding* — the defining module
attribute and every ``from x import f`` copy in other loaded ``repro``
modules — so callers that bound the function by name are traced too.
Methods are wrapped on their class. :meth:`Tracer.uninstall` restores
every binding.

Spans are kept in memory: ``(name, start_ns, end_ns, parent)`` with
``parent`` the index of the enclosing span (-1 at the root). A span's
self time is its duration minus the union of its children's intervals.
Spans and counters are read per *root* span (the benchmark opens one
root for set-up and one for the timed job), so set-up work is never
charged to the job.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Sequence, Tuple

#: One recorded span: [name, start_ns, end_ns, parent index].
Span = List


def union_ns(intervals: Sequence[Tuple[int, int]], lo: int, hi: int) -> int:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    covered = 0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            covered += end - start
            cursor = end
    return covered


def self_times_ns(spans: Sequence[Span]) -> List[int]:
    """Self time of every span: duration minus the union of its children."""
    children: Dict[int, List[Tuple[int, int]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for index, (name, start, end, parent) in enumerate(spans):
        out.append(end - start - union_ns(children.get(index, ()), start, end))
    return out


class Tracer:
    """Records spans and counters for one traced job."""

    def __init__(self, clock: Callable[[], int] = time.perf_counter_ns) -> None:
        self.clock = clock
        self.spans: List[Span] = []
        #: root span name -> counter name -> value.
        self.counters: Dict[str, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self._stack: List[int] = []
        self._restore: List[Callable[[], None]] = []

    # -- recording ------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        self.spans.append([name, self.clock(), 0, parent])
        self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self._stack.pop()
        self.spans[index][2] = self.clock()

    def count(self, key: str, amount: float = 1.0) -> None:
        """Add ``amount`` to counter ``key`` under the current root span."""
        root = self.spans[self._stack[0]][0] if self._stack else ""
        self.counters[root][key] += amount

    def wrap(self, name: str, fn: Callable, on_result=None) -> Callable:
        """A wrapper of ``fn`` recording a span per call.

        ``on_result(tracer, result)`` runs after the span closes, so the
        counting it does is not charged to the span.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    # -- installation ---------------------------------------------------

    def install(self, target: str, name: str, on_result=None) -> int:
        """Wrap ``module:attr`` or ``module:Class.method``; return bindings.

        Every loaded ``repro`` module attribute bound to the original
        function is replaced, so name-bound call sites are traced. A
        target that resolves to nothing raises, so a rename cannot
        silently drop a layer.
        """
        module_name, _, qualname = target.partition(":")
        module = importlib.import_module(module_name)
        if "." in qualname:
            class_name, attr = qualname.split(".", 1)
            cls = getattr(module, class_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self.wrap(name, raw.__func__, on_result))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self.wrap(name, raw.__func__, on_result))
            else:
                wrapped = self.wrap(name, raw, on_result)
            setattr(cls, attr, wrapped)
            self._restore.append(lambda: setattr(cls, attr, raw))
            return 1
        original = getattr(module, qualname)
        wrapped = self.wrap(name, original, on_result)
        bindings = 0
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._restore.append(
                        functools.partial(setattr, mod, attr, original)
                    )
                    bindings += 1
        return bindings

    def uninstall(self) -> None:
        """Restore every binding :meth:`install` replaced."""
        while self._restore:
            self._restore.pop()()

    # -- reading --------------------------------------------------------

    def roots(self) -> List[str]:
        """The name of the root span each span sits under."""
        out: List[str] = []
        for name, start, end, parent in self.spans:
            out.append(name if parent < 0 else out[parent])
        return out

    def totals(self, root: str) -> Dict[str, Dict[str, float]]:
        """Per span name under root span ``root``: ``calls``, ``self_s``
        and ``total_s``."""
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        for span, own, under in zip(self.spans, self_times_ns(self.spans), self.roots()):
            if under != root:
                continue
            entry = out[span[0]]
            entry["calls"] += 1
            entry["self_s"] += own * 1e-9
            entry["total_s"] += (span[2] - span[1]) * 1e-9
        return dict(out)

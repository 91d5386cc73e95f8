"""Spans and counts recorded around the program's public functions.

The tracer patches a name where its caller looks it up (a module global or
a class attribute), so nothing inside the program is edited.  Spans are kept
in memory as [name, parent, start, end] and written out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter

_now = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, parent index or -1, start, end]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, *args, **kwargs):
        """Run fn inside a span called name."""
        idx = len(self.spans)
        self.spans.append([name, self._stack[-1] if self._stack else -1, _now(), 0.0])
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[idx][3] = _now()

    def replace(self, owner, attr, new):
        """Set owner.attr to new until ``restore``; return the original."""
        original = owner.__dict__[attr]
        setattr(owner, attr, new)
        self._patched.append((owner, attr, original))
        return original

    def wrap(self, owner, attr, name):
        """Replace owner.attr by a wrapper that records a span per call."""
        original = owner.__dict__[attr]
        static = isinstance(original, staticmethod)
        fn = original.__func__ if static else original
        call = self.call

        def traced(*args, **kwargs):
            return call(name, fn, *args, **kwargs)

        self.replace(owner, attr, staticmethod(traced) if static else traced)

    def count_yields(self, owner, attr, counter):
        """Replace the generator function owner.attr by one that counts its items."""
        original = owner.__dict__[attr]
        counts = self.counts

        def counted(*args, **kwargs):
            for item in original(*args, **kwargs):
                counts[counter] += 1
                yield item

        self.replace(owner, attr, counted)

    def count_size(self, owner, attr, counter):
        """Replace the method owner.attr(rng, size) by one that adds ``size`` to a count."""
        original = owner.__dict__[attr]
        counts = self.counts

        def counted(self_, rng, size, *args, **kwargs):
            counts[counter] += int(size)
            return original(self_, rng, size, *args, **kwargs)

        self.replace(owner, attr, counted)

    def restore(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- reading ------------------------------------------------------------

    def roots(self) -> list[int]:
        """Index of the outermost span above each span."""
        out = []
        for i, (_, parent, _, _) in enumerate(self.spans):
            out.append(i if parent < 0 else out[parent])
        return out

    def total_ms(self, names, roots_named=None, outermost=False) -> tuple[int, float]:
        """(number of spans, summed ms) of spans with a name in ``names``.

        ``roots_named`` keeps spans whose outermost span has one of those
        names; ``outermost`` drops spans nested in another span of ``names``.
        """
        names = set(names)
        roots = self.roots()
        count, total = 0, 0.0
        for i, (name, parent, start, end) in enumerate(self.spans):
            if name not in names:
                continue
            if roots_named is not None and self.spans[roots[i]][0] not in roots_named:
                continue
            if outermost and self._has_ancestor(parent, names):
                continue
            count += 1
            total += end - start
        return count, 1e3 * total

    def self_ms(self, names) -> float:
        """Summed ms of spans in ``names`` minus the time of their direct children."""
        names = set(names)
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return 1e3 * sum(
            (end - start) - child[i] for i, (name, _, start, end) in enumerate(self.spans) if name in names
        )

    def _has_ancestor(self, parent: int, names: set) -> bool:
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path):
        """Write spans (start and end in ms from the first span) and counts as JSON."""
        t0 = self.spans[0][2] if self.spans else 0.0
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": ["name", "parent", "start_ms", "end_ms"],
                    "spans": [
                        [n, p, round(1e3 * (s - t0), 4), round(1e3 * (e - t0), 4)] for n, p, s, e in self.spans
                    ],
                    "counts": dict(self.counts),
                },
                fh,
            )

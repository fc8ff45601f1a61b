"""Spans recorded from outside the program, around calls into each layer.

:class:`Tracer` replaces a public function or method of a ``repro``
module with a wrapper that records one span per call -- name, start,
end, parent span and run id -- in memory, plus optional counts taken
from the call's arguments.  Nothing under ``src/`` is edited: a wrapped
module function is rebound in every loaded ``repro`` module that holds
it, a wrapped method is rebound on its class.

A span's *self time* is its duration minus the time its direct child
spans cover (spans nest strictly: one thread, calls return in order).
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time
from collections import defaultdict


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        #: [name, start, end, parent index or -1, run id]
        self.spans: list[list] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._local = threading.local()

    # -- installing wrappers ---------------------------------------------

    def _wrap(self, fn, name: str, count=None, after=None):
        spans = self.spans
        counts = self.counts
        local = self._local
        run_id = self.run_id

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            index = len(spans)
            record = [name, time.perf_counter(), 0.0,
                      stack[-1] if stack else -1, run_id]
            spans.append(record)
            if count is not None:
                for key, value in count(args, kwargs).items():
                    counts[key] += value
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = time.perf_counter()
                stack.pop()
            if after is not None:
                for key, value in after(result, args, kwargs).items():
                    counts[key] += value
            return result

        return traced

    def function(self, module_name: str, attr: str, name: str,
                 count=None, after=None):
        """Wrap ``module_name.attr`` everywhere a ``repro`` module holds it.

        ``count(args, kwargs)`` and ``after(result, args, kwargs)`` return
        counts to add to :attr:`counts`, before and after the call.
        """
        original = getattr(sys.modules[module_name], attr)
        traced = self._wrap(original, name, count, after)
        for mod_name, module in list(sys.modules.items()):
            if (mod_name == "repro" or mod_name.startswith("repro.")) and \
                    getattr(module, attr, None) is original:
                setattr(module, attr, traced)

    def method(self, cls, attr: str, name: str, count=None, after=None):
        """Wrap ``cls.attr`` (plain, class- or static method)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, (classmethod, staticmethod)):
            traced = self._wrap(raw.__func__, name, count, after)
            setattr(cls, attr, type(raw)(traced))
        else:
            setattr(cls, attr, self._wrap(raw, name, count, after))

    # -- reading spans ---------------------------------------------------

    def totals(self, since: float = float("-inf"), until: float = float("inf")):
        """Per span name: [calls, total seconds, self seconds] over the
        finished spans that started inside ``[since, until]``.

        A span nested directly in a span of the same name adds to the
        call count but not again to the total.
        """
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0 and end:
                child[parent] += end - start
        out: dict[str, list[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, start, end, parent, _) in enumerate(spans):
            if not end or not since <= start <= until:
                continue
            row = out[name]
            row[0] += 1
            row[2] += end - start - child[i]
            if parent < 0 or spans[parent][0] != name:
                row[1] += end - start
        return dict(out)

    def write(self, path: str) -> None:
        """Write every span as one JSON line: name, start, end, parent
        (index of the enclosing span, -1 at top level) and run id."""
        with open(path, "w") as fh:
            for name, start, end, parent, run_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "run": run_id}) + "\n")

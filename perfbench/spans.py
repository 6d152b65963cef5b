"""In-memory span recorder that times tenhash's layers from outside.

:meth:`SpanRecorder.wrap` replaces a module attribute with a timing shim.
tenhash calls its own functions through module globals, so calls made
inside the package are recorded too. Each span keeps its name, start, end,
parent span, the run id of the clustering it belongs to and an optional
size computed from the call's result; nothing is written until the caller
asks for :meth:`SpanRecorder.as_records`.
"""

import functools
import time
from contextlib import contextmanager


class SpanRecorder:
    def __init__(self):
        self.spans = []        # [run, name, parent index or None, start, end, size]
        self.run = None
        self._open = []
        self._saved = []

    @contextmanager
    def span(self, name):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        record = [self.run, name, parent, time.perf_counter(), None, 0]
        self.spans.append(record)
        self._open.append(index)
        try:
            yield record
        finally:
            record[4] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr, name, size=None):
        """Record a span named ``name`` around every call of ``module.attr``;
        ``size``, if given, maps the call's result to the span's size."""
        original = getattr(module, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = original(*args, **kwargs)
                if size is not None:
                    record[5] = size(result)
                return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self):
        """Put back every attribute :meth:`wrap` replaced."""
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def summary(self, runs):
        """Per span name over the given run ids: calls, total seconds, self
        seconds (the span minus the time its child spans cover) and summed
        size."""
        child = [0.0] * len(self.spans)
        for _, _, parent, start, end, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        rows = {}
        for i, (run, name, _, start, end, size) in enumerate(self.spans):
            if run not in runs:
                continue
            row = rows.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "size": 0})
            row["calls"] += 1
            row["total_s"] += end - start
            row["self_s"] += end - start - child[i]
            row["size"] += size
        return rows

    def as_records(self):
        return [
            {"id": i, "run": r, "name": name, "parent": parent,
             "start": start, "end": end, "size": size}
            for i, (r, name, parent, start, end, size) in enumerate(self.spans)
        ]

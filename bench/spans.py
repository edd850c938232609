"""In-memory spans around the library calls the benchmark makes.

A span records its name, start, end, parent span, operation id and the
exception type it ended with, if any.  Spans stay in memory and are
written out once, when the run ends.  The untraced run calls the same
code through ``NullTracer``, so both runs execute one code path.
"""

import contextlib
import json
import time


class NullTracer:
    """Tracing switched off: calls go straight through."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)


class Tracer:
    """Records one span per wrapped call; nesting follows the call stack."""

    FIELDS = ("name", "start", "end", "parent", "op", "error")

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []

    @contextlib.contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, 0.0, 0.0, parent, self.op, None]
        self.spans.append(rec)
        self._stack.append(idx)
        rec[1] = time.perf_counter()
        try:
            yield idx
        except Exception as exc:
            rec[5] = type(exc).__name__
            raise
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def under(self, parent):
        """Make a finished span the parent of the spans opened inside.

        The traced run replays the calls a CLI command made after the
        command returns; the replayed spans hang under the command's span.
        """
        self._stack.append(parent)
        try:
            yield
        finally:
            self._stack.pop()

    def last(self, name):
        """Index of the most recent span called name."""
        for i in range(len(self.spans) - 1, -1, -1):
            if self.spans[i][0] == name:
                return i
        raise KeyError(name)

    def durations(self, name):
        """Durations in seconds of the spans called name."""
        return [s[2] - s[1] for s in self.spans if s[0] == name]

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps(dict(zip(self.FIELDS, s))) + "\n")

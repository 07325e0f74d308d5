"""In-memory span recorder used by the traced benchmark run.

Wrappers installed around public names record one span per call:
``(id, name, start_ns, end_ns, parent_id, run)``.  ``parent_id`` is the
innermost open span when the call started (``-1`` at top level), so the
spans of one tracer form a forest.  Counts are recorded at the same
boundaries.  Nothing here imports numpy or headalign.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict


class Tracer:
    """Records spans and counts while its patches are installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, int, int, int, str]] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        #: Run identifier stamped on every span (for example "setup", "rep").
        self.run = ""
        self._stack: list[int] = []
        self._next_id = 0
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name, note=None):
        """``fn`` wrapped in a span.

        ``name`` is a string or a callable of the positional arguments.
        ``note(args, result)`` runs after the span closes, so counting
        costs land in the caller's self time, not the callee's.
        """
        naming = name if callable(name) else (lambda args: name)
        clock = time.perf_counter_ns
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(sid)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                self.spans.append((sid, naming(args), start, end, parent, self.run))
            if note is not None:
                note(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, name, note=None) -> None:
        """Replace ``owner.attr`` by a traced wrapper until :meth:`unpatch`."""
        original = getattr(owner, attr)
        setattr(owner, attr, self.wrap(original, name, note))
        self._patches.append((owner, attr, original))

    def unpatch(self) -> None:
        """Restore every patched name, newest first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def count(self, key: str, n: float = 1) -> None:
        self.counts[key] += n

    def dump(self, path: str) -> None:
        """Append spans as JSON lines and counts as a trailing object."""
        with open(path, "a", newline="\n") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
            fh.write(json.dumps({"counts": dict(self.counts)}) + "\n")


def self_times(spans) -> dict[int, int]:
    """Self time of every span: its duration minus the part of its
    interval that the union of its direct children covers."""
    children: defaultdict[int, list[tuple[int, int]]] = defaultdict(list)
    for _, _, start, end, parent, _ in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _ in spans:
        covered = 0
        run_start = run_end = None
        for cs, ce in sorted(children.get(sid, ())):
            cs, ce = max(cs, start), min(ce, end)
            if ce <= cs:
                continue
            if run_end is None or cs > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = cs, ce
            else:
                run_end = max(run_end, ce)
        if run_end is not None:
            covered += run_end - run_start
        out[sid] = (end - start) - covered
    return out

"""Layer-boundary tracing from outside the program.

The benchmark never edits ``src/``: it wraps public functions and
methods of the ``repro`` package at each layer boundary for the length
of one iteration.  Two kinds of wrapper exist:

* **Phase hooks** mark once-per-run boundaries (world build, route
  install, "first publish can run", digest).  They are installed in
  every iteration, traced or not, because ``setup_s`` needs them; their
  cost is a few calls per run.  Each phase is kept as a full span
  ``(name, start, end, parent)`` and written out at exit.
* **Per-packet probes** (``Face.send``, ``GCopssRouter.receive``,
  ``SubscriptionTable.match`` ...) run hundreds of thousands of times,
  so they keep only an aggregated call count and *self time* per layer
  on an exclusive-time stack: a boundary's self time is its elapsed time
  minus the time spent in traced boundaries it called.  Memory stays
  bounded whatever the run length.  Probes are installed only in traced
  iterations.

A forked worker inherits the probes together with a copy of the
tracer; :meth:`LayerTracer.fork_reset` empties that copy when the
worker starts building its slice, so a worker reports its own work
only.
"""

from __future__ import annotations

import functools
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

perf = time.perf_counter


class LayerTracer:
    """Counts, self time and phase spans for one iteration."""

    def __init__(self) -> None:
        self.pid = os.getpid()
        #: boundary -> [calls, self seconds, extra count]
        self.stats: Dict[str, List[float]] = {}
        #: once-per-run phases: (name, start, end, parent)
        self.spans: List[Tuple[str, float, float, Optional[str]]] = []
        #: latest entry time of each marked call (perf_counter seconds)
        self.marks: Dict[str, float] = {}
        self.networks: list = []
        self._stack: List[float] = []
        self._phase: List[str] = []
        self.origin = perf()

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    @staticmethod
    def _patch(owner, attr: str, original, wrapper) -> None:
        # Every iteration is its own process, so a patch lives as long as
        # the process and is never undone.
        functools.update_wrapper(wrapper, original)
        setattr(owner, attr, wrapper)

    def now(self) -> float:
        return perf()

    def probe(
        self,
        owner,
        attr: str,
        boundary: str,
        after: Optional[Callable[[object, tuple, List[float]], None]] = None,
        span: bool = False,
    ) -> None:
        """Aggregate calls and self time of ``owner.attr`` under ``boundary``.

        ``after(result, args, cell)`` runs after each call and may bump
        ``cell[2]``, the boundary's extra counter (faces matched, items
        flushed ...).  ``span=True`` also keeps every call as a full span.
        """
        fn = getattr(owner, attr)
        cell = self.stats.setdefault(boundary, [0, 0.0, 0])
        stack = self._stack
        phases = self._phase
        spans = self.spans

        def wrapper(*args, **kwargs):
            start = perf()
            if span:
                parent = phases[-1] if phases else None
                phases.append(boundary)
            stack.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                elapsed = end - start
                inner = stack.pop()
                cell[0] += 1
                cell[1] += elapsed - inner
                if stack:
                    stack[-1] += elapsed
                if span:
                    phases.pop()
                    spans.append((boundary, start, end, parent))
            if after is not None:
                after(result, args, cell)
            return result

        self._patch(owner, attr, fn, wrapper)

    def phase(self, owner, attr: str, name: str, after=None) -> None:
        """A once-per-run boundary: a probe that also keeps full spans."""
        self.probe(owner, attr, name, after, span=True)

    def mark_on_call(self, owner, attr: str, mark: str) -> None:
        """Record the entry time of every call of ``owner.attr`` under
        ``mark`` (last call wins); no span, no stack entry."""
        fn = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            self.marks[mark] = perf()
            return fn(*args, **kwargs)

        self._patch(owner, attr, fn, wrapper)

    # ------------------------------------------------------------------
    # Bookkeeping
    # ------------------------------------------------------------------
    def fork_reset(self) -> None:
        """Forget what the parent process recorded (forked worker start)."""
        if os.getpid() == self.pid:
            return
        self.pid = os.getpid()
        for cell in self.stats.values():
            cell[0], cell[1], cell[2] = 0, 0.0, 0
        self.spans.clear()
        self.networks.clear()

    def calls(self, boundary: str) -> int:
        return int(self.stats.get(boundary, (0, 0.0, 0))[0])

    def self_s(self, *boundaries: str) -> float:
        return sum(self.stats.get(b, (0, 0.0, 0))[1] for b in boundaries)

    def extra(self, boundary: str) -> int:
        return int(self.stats.get(boundary, (0, 0.0, 0))[2])

    def merge_stats(self, stats: Dict[str, List[float]]) -> None:
        """Add a worker's aggregated boundaries into this tracer."""
        for boundary, (calls, self_s, extra) in stats.items():
            cell = self.stats.setdefault(boundary, [0, 0.0, 0])
            cell[0] += calls
            cell[1] += self_s
            cell[2] += extra

    def span_records(self) -> List[dict]:
        return [
            {
                "name": name,
                "start_s": round(start - self.origin, 6),
                "end_s": round(end - self.origin, 6),
                "parent": parent,
            }
            for name, start, end, parent in sorted(self.spans, key=lambda s: s[1])
        ]

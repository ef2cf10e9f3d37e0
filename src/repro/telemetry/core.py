"""Zero-dependency span telemetry.

The paper's Section 4.3 argues the partitioner should "call a timer to
determine the invocation intervals" because "these timing calls will
impose insignificant overhead".  This module generalises that stance to
the whole stack: hierarchical **spans** (context-managed wall-clock
intervals carrying attributes) recorded against an injectable monotonic
clock, with a hard zero-cost guarantee when disabled.  Counts do not
live here: they are counters in the always-on metrics registry
(:mod:`repro.telemetry.metrics`), and a span that wants them records
the registry delta over its extent as attributes.

Design constraints, in order:

1. **No hash impact.**  Telemetry must never change a ``RunSpec`` key,
   a published series, or any store artifact byte.  Run profiles and
   Chrome traces are written under ``<store>/telemetry/``, which the
   content-addressed store never scans (``ResultStore.iter_results``
   walks ``objects/`` only), and no telemetry value flows into result
   payloads.
2. **Free when off.**  The module-level :func:`span` fast path is a
   single global-``None`` check; with no active recorder it returns a
   shared do-nothing singleton.
3. **Deterministic under test.**  ``TelemetryRecorder(clock=...)``
   accepts any zero-argument float callable.

Activation is process-global (one recorder at a time) because spans
must nest across module boundaries without threading a handle through
every signature.  Worker threads get their own span stacks (and their
own ``tid`` ordinals) via thread-local storage.  The engine activates
one fresh recorder per run (:func:`repro.telemetry.run_scope`), so a
recorder's events are exactly one run's spans.

Span event schema (one dict per closed span, in close order):
``{"type": "span", "name", "cat", "id", "parent", "tid", "ts", "dur",
"attrs", ["error"]}`` — ``ts``/``dur`` are seconds relative to the
recorder epoch; ``parent`` is the enclosing span id (0 for top-level);
``error`` marks spans exited by an exception.
"""

from __future__ import annotations

import os
import threading
import time
from itertools import count
from typing import Callable

__all__ = [
    "TELEMETRY_ENV",
    "TELEMETRY_MODES",
    "Span",
    "TelemetryRecorder",
    "activate",
    "active_recorder",
    "deactivate",
    "span",
    "telemetry_active",
    "telemetry_mode",
]

#: Environment variable selecting the telemetry sink mode.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Recognized ``REPRO_TELEMETRY`` values.  ``json`` leaves one run
#: profile per executed spec; ``chrome`` additionally leaves each run's
#: Chrome trace-event file (chrome://tracing / Perfetto loadable).
TELEMETRY_MODES = ("off", "json", "chrome")


def telemetry_mode() -> str:
    """The configured sink mode (the env variable is read per call)."""
    mode = os.environ.get(TELEMETRY_ENV) or "off"
    if mode not in TELEMETRY_MODES:
        raise ValueError(
            f"{TELEMETRY_ENV} must be one of {TELEMETRY_MODES}, got {mode!r}"
        )
    return mode


class _NullSpan:
    """The shared do-nothing span handed out while no recorder is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def annotate(self, **attrs) -> None:
        pass


_NULL_SPAN = _NullSpan()


class Span:
    """One open span of an active recorder (use as a context manager)."""

    __slots__ = ("_recorder", "id", "name", "cat", "attrs", "parent", "_start")

    def __init__(self, recorder: "TelemetryRecorder", span_id: int,
                 name: str, cat: str, attrs: dict):
        self._recorder = recorder
        self.id = span_id
        self.name = name
        self.cat = cat
        self.attrs = attrs
        self.parent = 0
        self._start = 0.0

    def annotate(self, **attrs) -> None:
        """Attach attributes to the span before it closes."""
        self.attrs.update(attrs)

    def __enter__(self) -> "Span":
        self._recorder._push(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        self._recorder._pop(self, error=exc_type is not None)
        return False


class TelemetryRecorder:
    """An in-memory list of closed spans, with hierarchical parenting.

    ``clock`` is any zero-argument callable returning monotonic seconds
    (defaults to :func:`time.monotonic`); all timestamps are relative to
    the clock value at construction, so a fake clock yields fully
    deterministic events.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.monotonic
        self._epoch = self._clock()
        self._ids = count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tids: dict[int, int] = {}
        self.events: list[dict] = []

    # -- clock / identity ---------------------------------------------------

    def _now(self) -> float:
        return self._clock() - self._epoch

    def _tid(self) -> int:
        """Stable small ordinal for the calling thread."""
        ident = threading.get_ident()
        with self._lock:
            return self._tids.setdefault(ident, len(self._tids))

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- spans --------------------------------------------------------------

    def span(self, name: str, cat: str = "", **attrs) -> Span:
        """A new span; opens on ``__enter__``, records on ``__exit__``."""
        return Span(self, next(self._ids), name, cat, attrs)

    def _push(self, span: Span) -> None:
        stack = self._stack()
        span.parent = stack[-1].id if stack else 0
        span._start = self._now()
        stack.append(span)

    def _pop(self, span: Span, error: bool) -> None:
        stack = self._stack()
        # Tolerate out-of-order exits (a leaked inner span) by unwinding
        # to the span being closed rather than corrupting the stack.
        while stack:
            top = stack.pop()
            if top is span:
                break
        event = {
            "type": "span",
            "name": span.name,
            "cat": span.cat,
            "id": span.id,
            "parent": span.parent,
            "tid": self._tid(),
            "ts": span._start,
            "dur": max(0.0, self._now() - span._start),
            "attrs": span.attrs,
        }
        if error:
            event["error"] = True
        with self._lock:
            self.events.append(event)


# ---------------------------------------------------------------------------
# the process-global recorder and its zero-cost front door
# ---------------------------------------------------------------------------

_ACTIVE: TelemetryRecorder | None = None


def active_recorder() -> TelemetryRecorder | None:
    """The currently active recorder, if any."""
    return _ACTIVE


def telemetry_active() -> bool:
    """True when a recorder is live (instrumentation should do work)."""
    return _ACTIVE is not None


def activate(recorder: TelemetryRecorder) -> TelemetryRecorder:
    """Install ``recorder`` as the process-global recorder."""
    global _ACTIVE
    if _ACTIVE is not None:
        raise RuntimeError("a telemetry recorder is already active")
    _ACTIVE = recorder
    return recorder


def deactivate() -> None:
    """Clear the process-global recorder."""
    global _ACTIVE
    _ACTIVE = None


def span(name: str, cat: str = "", **attrs):
    """A span on the active recorder, or the shared null span when off."""
    rec = _ACTIVE
    if rec is None:
        return _NULL_SPAN
    return rec.span(name, cat=cat, **attrs)

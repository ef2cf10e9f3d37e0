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
   a published series, or any store artifact byte.  Event logs are
   written under ``<store>/telemetry/`` which the content-addressed
   store never scans (``ResultStore.iter_results`` walks ``objects/``
   only), and no telemetry value flows into result payloads.
2. **Free when off.**  The module-level :func:`span` fast path is a
   single global-``None`` check; with no active recorder it returns a
   shared do-nothing singleton.
3. **Deterministic under test.**  ``TelemetryRecorder(clock=...)``
   accepts any zero-argument float callable.

Activation is process-global (one recorder at a time) because spans
must nest across module boundaries without threading a handle through
every signature.  Worker threads get their own span stacks (and their
own ``tid`` ordinals in the event log) via thread-local storage.

Event-log schema (one JSON object per line, ``sort_keys=True``):

``{"type": "meta", ...}``
    First line of every log: free-form session metadata.
``{"type": "span", "name", "cat", "id", "parent", "tid", "ts", "dur",
"attrs", ["error"]}``
    Appended when a span *closes*; ``ts``/``dur`` are seconds relative
    to the recorder epoch; ``parent`` is the enclosing span id (0 for
    top-level); ``error`` marks spans exited by an exception.
"""

from __future__ import annotations

import json
import os
import secrets
import threading
import time
from contextlib import contextmanager
from itertools import count
from pathlib import Path
from typing import Callable

__all__ = [
    "TELEMETRY_ENV",
    "TELEMETRY_MODES",
    "Span",
    "TelemetryRecorder",
    "activate",
    "active_recorder",
    "deactivate",
    "recording",
    "session",
    "span",
    "telemetry_active",
    "telemetry_mode",
]

#: Environment variable selecting the telemetry sink mode.
TELEMETRY_ENV = "REPRO_TELEMETRY"

#: Recognized ``REPRO_TELEMETRY`` values.  ``json`` emits the JSONL
#: event log only; ``chrome`` additionally converts each session into a
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
    """An in-memory event log with hierarchical spans.

    ``clock`` is any zero-argument callable returning monotonic seconds
    (defaults to :func:`time.monotonic`); all timestamps are relative to
    the clock value at construction, so a fake clock yields fully
    deterministic event logs.
    """

    def __init__(self, clock: Callable[[], float] | None = None,
                 meta: dict | None = None):
        self._clock = clock if clock is not None else time.monotonic
        self._epoch = self._clock()
        self._ids = count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tids: dict[int, int] = {}
        self._jsonl_path: Path | None = None
        self._flushed = 0
        self.meta = dict(meta or {})
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
        """A new span; opens on ``__enter__``, logs on ``__exit__``."""
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

    # -- persistence --------------------------------------------------------

    def bind_jsonl(self, path: str | os.PathLike) -> None:
        """Set the JSONL sink; :meth:`flush` appends unwritten events."""
        self._jsonl_path = Path(path)

    def flush(self) -> int:
        """Append events recorded since the last flush to the JSONL sink.

        Returns the number of event lines written (0 when unbound).  The
        first flush prepends the session ``meta`` line.  Crash-safe in
        the sense that everything flushed so far survives the process:
        a pool worker's exec log is flushed after every run.
        """
        if self._jsonl_path is None:
            return 0
        with self._lock:
            fresh = self.events[self._flushed:]
            first = self._flushed == 0
            self._flushed = len(self.events)
        if not fresh and not first:
            return 0
        self._jsonl_path.parent.mkdir(parents=True, exist_ok=True)
        with open(self._jsonl_path, "a", encoding="utf-8") as fh:
            if first:
                fh.write(json.dumps({"type": "meta", **self.meta},
                                    sort_keys=True) + "\n")
            for event in fresh:
                fh.write(json.dumps(event, sort_keys=True) + "\n")
        return len(fresh)

    # -- queries ------------------------------------------------------------

    def subtree(self, root_id: int) -> list[dict]:
        """All spans at or under the span ``root_id``, in log order."""
        with self._lock:
            events = list(self.events)
        parent_of = {e["id"]: e["parent"] for e in events}

        def under(span_id: int) -> bool:
            seen: set[int] = set()
            while span_id and span_id not in seen:
                if span_id == root_id:
                    return True
                seen.add(span_id)
                span_id = parent_of.get(span_id, 0)
            return False

        return [
            e for e in events if e["id"] == root_id or under(e["parent"])
        ]


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


@contextmanager
def recording(clock: Callable[[], float] | None = None,
              meta: dict | None = None):
    """Activate a fresh in-memory recorder for a block (test harness)."""
    rec = TelemetryRecorder(clock=clock, meta=meta)
    activate(rec)
    try:
        yield rec
    finally:
        if _ACTIVE is rec:
            deactivate()


@contextmanager
def session(store_root: str | os.PathLike | None = None,
            name: str = "session",
            mode: str | None = None,
            clock: Callable[[], float] | None = None,
            meta: dict | None = None):
    """Activate a recorder and persist its event log next to the store.

    The outermost telemetry scope of a process: ``run_specs`` sweeps
    open one around their whole lifetime.  When
    the mode is ``off``, or a session is already active (nested sweeps
    share the outer log), this is a transparent no-op yielding the
    current recorder (possibly ``None``).

    With a ``store_root``, events land in
    ``<store_root>/telemetry/<name>-<stamp>-<pid>-<nonce>.jsonl`` — a
    sibling of ``objects/`` that the content-addressed store never
    scans, preserving the no-hash-impact invariant.  ``chrome`` mode
    additionally writes ``...trace.json`` on exit.
    """
    resolved = telemetry_mode() if mode is None else mode
    if resolved not in TELEMETRY_MODES:
        raise ValueError(
            f"telemetry mode must be one of {TELEMETRY_MODES}, got {resolved!r}"
        )
    if resolved == "off" or _ACTIVE is not None:
        yield _ACTIVE
        return
    safe = "".join(c if c.isalnum() or c in "-_." else "-" for c in name)
    doc_meta = {"session": safe, "pid": os.getpid(), **(meta or {})}
    rec = TelemetryRecorder(clock=clock, meta=doc_meta)
    base: Path | None = None
    if store_root is not None:
        stamp = time.strftime("%Y%m%d-%H%M%S")
        base = (Path(store_root) / "telemetry"
                / f"{safe}-{stamp}-{os.getpid()}-{secrets.token_hex(3)}")
        rec.bind_jsonl(base.with_suffix(".jsonl"))
    activate(rec)
    try:
        yield rec
    finally:
        if _ACTIVE is rec:
            deactivate()
        if base is not None:
            rec.flush()
            if resolved == "chrome":
                from .sinks import write_chrome_trace

                write_chrome_trace(base.with_suffix(".trace.json"), rec)

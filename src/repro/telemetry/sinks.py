"""Telemetry sinks: atomic JSON documents and Chrome trace-event files.

A run profile (:mod:`repro.telemetry.profile`) is the source of truth
for a run's spans (schema in :mod:`repro.telemetry.core`); the Chrome
trace is a lossy projection of the same events into the `trace-event
format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
so a run can be dropped straight into ``chrome://tracing`` or Perfetto.
Spans become complete events (``ph: "X"``, microsecond ``ts``/``dur``).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "write_json_atomic",
]


def chrome_trace(events, meta: dict | None = None, pid: int | None = None) -> dict:
    """Project a span-event list into a trace-event document."""
    pid = os.getpid() if pid is None else pid
    trace_events = []
    for event in events:
        if event.get("type") != "span":
            continue
        entry = {
            "name": event["name"],
            "cat": event.get("cat") or "repro",
            "ph": "X",
            "ts": event["ts"] * 1e6,
            "dur": event["dur"] * 1e6,
            "pid": pid,
            "tid": event.get("tid", 0),
            "args": dict(event.get("attrs") or {}),
        }
        if event.get("error"):
            entry["args"]["error"] = True
        trace_events.append(entry)
    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": dict(meta or {}),
    }


def write_chrome_trace(path: str | os.PathLike, events,
                       meta: dict | None = None) -> Path:
    """Write a trace-event file atomically; returns the path."""
    return write_json_atomic(path, chrome_trace(events, meta=meta))


def write_json_atomic(path: str | os.PathLike, doc: dict) -> Path:
    """Stage-then-rename JSON write (sorted keys, same discipline as the
    store); returns the path."""
    text = json.dumps(doc, sort_keys=True)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path

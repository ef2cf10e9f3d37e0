"""Telemetry sinks: JSONL event logs and Chrome trace-event files.

The JSONL log is the source of truth (one JSON object per line, schema
in :mod:`repro.telemetry.core`); the Chrome trace is a lossy projection
of the same events into the `trace-event format
<https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU>`_
so a session can be dropped straight into ``chrome://tracing`` or
Perfetto.  Spans become complete events (``ph: "X"``, microsecond
``ts``/``dur``).
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

__all__ = [
    "chrome_trace",
    "read_jsonl",
    "write_chrome_trace",
    "write_json_atomic",
]


def chrome_trace(events, meta: dict | None = None, pid: int | None = None) -> dict:
    """Project an event list (or recorder) into a trace-event document."""
    if hasattr(events, "events"):  # a TelemetryRecorder
        meta = dict(events.meta) if meta is None else meta
        events = events.events
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
    """Stage-then-rename JSON write (same discipline as the store)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, sort_keys=True)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    return path


def read_jsonl(path: str | os.PathLike) -> list[dict]:
    """Parse a JSONL event log (skips blank lines)."""
    out = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                out.append(json.loads(line))
    return out

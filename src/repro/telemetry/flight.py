"""Crash flight recorder: a bounded ring of recent events, dumped on death.

Span tracing answers "what happened in that run" — *if* you turned it
on first.  When a worker dies at 3am with ``REPRO_TELEMETRY`` unset,
there is nothing to inspect.  The flight recorder closes that gap the
way an aircraft black box does: a fixed-size ring buffer
(:class:`collections.deque` with ``maxlen``) records the last N
interesting events **unconditionally** — claims, job starts/finishes,
lease transitions, failures — at the cost of one deque append, and is
only ever *persisted* when something goes wrong:

* an unhandled exception in a worker's main loop;
* SIGTERM arriving while a job is in flight (mid-job kill);
* the broker exhausting retries for a job (``ClusterJobError``);
* fault-injection self-kill (``--die-after-claims`` dumps just before
  raising SIGKILL against itself, since SIGKILL is uncatchable).

Dumps land in ``<store>/telemetry/crash/`` as standalone JSON — the
event ring plus a full metrics snapshot and the failure reason — and
are rendered by ``repro blackbox``.  ``repro health`` treats their
presence as an unhealthy signal until an operator clears them.

Like all telemetry, dumps live outside ``objects/`` and can never
perturb a content hash.
"""

from __future__ import annotations

import json
import os
import socket
import threading
import time
from collections import deque
from pathlib import Path

from .metrics import metrics_registry
from .sinks import write_json_atomic

__all__ = [
    "FLIGHT_CAPACITY",
    "FLIGHT_SCHEMA",
    "FlightRecorder",
    "crash_dir",
    "find_crash_dumps",
    "flight_dump",
    "flight_record",
    "flight_recorder",
    "load_crash_dump",
    "render_blackbox",
    "reset_flight",
]

FLIGHT_SCHEMA = 1

#: Ring capacity (events) of the process-global recorder.
FLIGHT_CAPACITY = 512


class FlightRecorder:
    """Bounded, thread-safe ring of recent events (always recording).

    ``capacity=0`` disables recording entirely.
    """

    def __init__(self, capacity: int = FLIGHT_CAPACITY):
        self.capacity = max(0, capacity)
        self._lock = threading.Lock()
        self._ring: deque = deque(maxlen=self.capacity or 1)

    def record(self, kind: str, name: str, **fields) -> None:
        """Append one event; O(1), oldest events fall off the end."""
        if self.capacity == 0:
            return
        event = {"ts": time.time(), "kind": kind, "name": name}
        if fields:
            event.update(fields)
        with self._lock:
            self._ring.append(event)

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._ring)

    def clear(self) -> None:
        with self._lock:
            self._ring.clear()

    def dump(
        self,
        store_root: str | os.PathLike,
        reason: str,
        error: str | None = None,
        extra: dict | None = None,
    ) -> Path:
        """Persist the ring + a metrics snapshot to the crash directory.

        Filenames carry host, pid, timestamp, and a nonce so concurrent
        dumps from one host never collide; writes are atomic.
        """
        doc = {
            "schema": FLIGHT_SCHEMA,
            "reason": reason,
            "error": error,
            "host": socket.gethostname(),
            "pid": os.getpid(),
            "dumped_at": time.time(),
            "events": self.events(),
            "metrics": metrics_registry().snapshot(),
        }
        if extra:
            doc.update(extra)
        stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
        nonce = os.urandom(3).hex()
        name = f"{doc['host']}-{doc['pid']}-{stamp}-{nonce}.json"
        return write_json_atomic(crash_dir(store_root) / name, doc)


# ---------------------------------------------------------------------------
# process-global recorder
# ---------------------------------------------------------------------------

_GLOBAL: FlightRecorder | None = None
_GLOBAL_LOCK = threading.Lock()


def flight_recorder() -> FlightRecorder:
    """The process-global flight recorder (created on first use)."""
    global _GLOBAL
    if _GLOBAL is None:
        with _GLOBAL_LOCK:
            if _GLOBAL is None:
                _GLOBAL = FlightRecorder()
    return _GLOBAL


def flight_record(kind: str, name: str, **fields) -> None:
    """Record one event on the global ring (always on, O(1))."""
    flight_recorder().record(kind, name, **fields)


def flight_dump(
    store_root: str | os.PathLike,
    reason: str,
    error: str | None = None,
    extra: dict | None = None,
) -> Path | None:
    """Dump the global ring; never raises (a dying process calls this)."""
    try:
        return flight_recorder().dump(
            store_root, reason, error=error, extra=extra
        )
    except Exception:
        return None


def reset_flight() -> None:
    """Clear the global ring (test isolation)."""
    flight_recorder().clear()


# ---------------------------------------------------------------------------
# dump inspection (repro blackbox / repro health)
# ---------------------------------------------------------------------------

def crash_dir(store_root: str | os.PathLike) -> Path:
    """``<store>/telemetry/crash`` (never scanned by the object store)."""
    return Path(store_root) / "telemetry" / "crash"


def find_crash_dumps(store_root: str | os.PathLike) -> list[Path]:
    """All dump files, newest last."""
    root = crash_dir(store_root)
    if not root.is_dir():
        return []
    return sorted(root.glob("*.json"), key=lambda p: (p.stat().st_mtime, p.name))


def load_crash_dump(path: str | os.PathLike) -> dict:
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError(f"not a crash dump: {path}")
    return doc


def _fmt_ts(ts: float) -> str:
    return time.strftime("%H:%M:%S", time.gmtime(ts)) + f".{int(ts % 1 * 1000):03d}"


def render_blackbox(doc: dict) -> str:
    """Human-readable rendering of one crash dump."""
    lines = [
        f"crash dump: {doc.get('reason', '?')} "
        f"on {doc.get('host', '?')}[{doc.get('pid', '?')}]",
    ]
    if doc.get("error"):
        lines.append(f"  error: {doc['error']}")
    if doc.get("worker_id"):
        lines.append(f"  worker: {doc['worker_id']}")
    if doc.get("job"):
        lines.append(f"  in-flight job: {doc['job']}")
    dumped = doc.get("dumped_at")
    if dumped:
        lines.append(
            "  dumped at: "
            + time.strftime("%Y-%m-%d %H:%M:%SZ", time.gmtime(dumped))
        )
    events = doc.get("events") or []
    lines.append(f"  last {len(events)} events:")
    for event in events:
        ts = _fmt_ts(event.get("ts", 0.0))
        kind = event.get("kind", "?")
        name = event.get("name", "?")
        detail = " ".join(
            f"{k}={v}"
            for k, v in sorted(event.items())
            if k not in ("ts", "kind", "name")
        )
        lines.append(f"    {ts} [{kind}] {name}" + (f" {detail}" if detail else ""))
    metrics = doc.get("metrics") or {}
    counters = metrics.get("counters") or []
    if counters:
        lines.append("  counters at dump:")
        for entry in counters:
            if entry["name"].startswith(("repro_worker", "repro_queue")):
                labels = entry.get("labels") or {}
                label_txt = (
                    "{" + ",".join(f"{k}={v}" for k, v in sorted(labels.items())) + "}"
                    if labels
                    else ""
                )
                lines.append(
                    f"    {entry['name']}{label_txt} = {entry['value']:g}"
                )
    return "\n".join(lines)

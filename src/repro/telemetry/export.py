"""Metrics exporters: Prometheus text, JSON, HTTP endpoints, file snapshots.

Three transports over the same :meth:`MetricsRegistry.snapshot` doc:

* **Prometheus text exposition** (:func:`render_prometheus`, format
  version 0.0.4) with a matching :func:`parse_prometheus` used by tests
  and CI to assert the output is valid by round-trip;
* **HTTP** — :class:`MetricsServer`, a stdlib
  :class:`~http.server.ThreadingHTTPServer` on a daemon thread serving
  ``/metrics`` (text), ``/metrics.json``, and ``/healthz`` (a fixed
  ``{"status": "ok"}``).  Wired to ``repro sweep --metrics-port``;
* **file snapshots** — :func:`write_metrics_files` atomically publishes
  ``<store>/telemetry/metrics/<host>-<pid>.prom`` (+ ``.json``) so a
  finished sweep stays scrapeable with node-exporter textfile
  collection without any open ports.

All output lives under ``<store>/telemetry/``, which the
content-addressed object store never scans — metrics on or off, every
store hash is bit-identical (CI-enforced).
"""

from __future__ import annotations

import http.server
import json
import os
import socket
import threading
from pathlib import Path

from .metrics import MetricsRegistry, _fmt_value, metrics_registry
from .sinks import write_json_atomic, write_text_atomic

__all__ = [
    "MetricsServer",
    "load_metrics_snapshots",
    "metrics_dir",
    "parse_prometheus",
    "render_prometheus",
    "write_metrics_files",
]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _label_block(labels: dict, extra: dict | None = None) -> str:
    merged = dict(labels)
    if extra:
        merged.update(extra)
    if not merged:
        return ""
    body = ",".join(
        f'{k}="{_escape_label(str(v))}"' for k, v in sorted(merged.items())
    )
    return "{" + body + "}"


def render_prometheus(snapshot: dict) -> str:
    """Render a registry snapshot as Prometheus text exposition 0.0.4.

    Histograms expand to the conventional cumulative ``_bucket{le=}``
    series (including ``+Inf``) plus ``_sum`` and ``_count``.
    """
    lines: list[str] = []
    typed: set[str] = set()

    def type_line(name: str, kind: str) -> None:
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for entry in snapshot.get("counters", ()):
        type_line(entry["name"], "counter")
        lines.append(
            f"{entry['name']}{_label_block(entry['labels'])} "
            f"{_fmt_value(entry['value'])}"
        )
    for entry in snapshot.get("gauges", ()):
        type_line(entry["name"], "gauge")
        lines.append(
            f"{entry['name']}{_label_block(entry['labels'])} "
            f"{_fmt_value(entry['value'])}"
        )
    for entry in snapshot.get("histograms", ()):
        name = entry["name"]
        type_line(name, "histogram")
        labels = entry["labels"]
        cumulative = 0
        for bound, count in zip(entry["bounds"], entry["counts"]):
            cumulative += count
            le = _label_block(labels, {"le": _fmt_value(float(bound))})
            lines.append(f"{name}_bucket{le} {cumulative}")
        inf = _label_block(labels, {"le": "+Inf"})
        lines.append(f"{name}_bucket{inf} {entry['count']}")
        lines.append(
            f"{name}_sum{_label_block(labels)} {_fmt_value(entry['sum'])}"
        )
        lines.append(f"{name}_count{_label_block(labels)} {entry['count']}")
    return "\n".join(lines) + "\n"


def parse_prometheus(text: str) -> dict:
    """Parse text exposition back into ``{"types": ..., "samples": ...}``.

    A deliberately strict reader for tests/CI round-trips: every
    non-comment line must be ``name[{labels}] value``, every label
    body must be well-formed, and sample names must carry a preceding
    ``# TYPE``.  Raises :class:`ValueError` on malformed input.
    """
    types: dict[str, str] = {}
    samples: list[dict] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                types[parts[2]] = parts[3]
            continue
        labels: dict[str, str] = {}
        if "{" in line:
            name, rest = line.split("{", 1)
            body, _, value_part = rest.rpartition("}")
            labels = _parse_label_body(body, lineno)
        else:
            name, _, value_part = line.partition(" ")
        name = name.strip()
        value_part = value_part.strip()
        if not name or not value_part:
            raise ValueError(f"line {lineno}: malformed sample {raw!r}")
        try:
            value = float(value_part)
        except ValueError as exc:
            raise ValueError(
                f"line {lineno}: bad value {value_part!r}"
            ) from exc
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[: -len(suffix)] in types:
                base = name[: -len(suffix)]
                break
        if base not in types:
            raise ValueError(f"line {lineno}: sample {name!r} has no # TYPE")
        samples.append({"name": name, "labels": labels, "value": value})
    return {"types": types, "samples": samples}


def _parse_label_body(body: str, lineno: int) -> dict[str, str]:
    labels: dict[str, str] = {}
    i, n = 0, len(body)
    while i < n:
        eq = body.index("=", i)
        key = body[i:eq].strip().lstrip(",").strip()
        if body[eq + 1] != '"':
            raise ValueError(f"line {lineno}: unquoted label value")
        j = eq + 2
        out = []
        while j < n:
            ch = body[j]
            if ch == "\\":
                nxt = body[j + 1]
                out.append(
                    {"\\": "\\", '"': '"', "n": "\n"}.get(nxt, "\\" + nxt)
                )
                j += 2
            elif ch == '"':
                break
            else:
                out.append(ch)
                j += 1
        else:
            raise ValueError(f"line {lineno}: unterminated label value")
        labels[key] = "".join(out)
        i = j + 1
    return labels


# ---------------------------------------------------------------------------
# HTTP endpoints
# ---------------------------------------------------------------------------

class _MetricsHandler(http.server.BaseHTTPRequestHandler):
    server_version = "repro-metrics"

    def do_GET(self):  # noqa: N802 - http.server API
        server = self.server  # a MetricsServer's inner ThreadingHTTPServer
        registry: MetricsRegistry = server.registry  # type: ignore[attr-defined]
        path = self.path.split("?", 1)[0]
        if path == "/metrics":
            body = render_prometheus(registry.snapshot()).encode("utf-8")
            self._reply(200, PROMETHEUS_CONTENT_TYPE, body)
        elif path == "/metrics.json":
            body = json.dumps(registry.snapshot(), sort_keys=True).encode()
            self._reply(200, "application/json", body)
        elif path == "/healthz":
            self._reply(200, "application/json", b'{"status": "ok"}')
        else:
            self._reply(404, "text/plain; charset=utf-8", b"not found\n")

    def _reply(self, code: int, ctype: str, body: bytes) -> None:
        self.send_response(code)
        self.send_header("Content-Type", ctype)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):  # silence per-request stderr noise
        pass


class MetricsServer:
    """``/metrics`` + ``/metrics.json`` + ``/healthz`` on a daemon thread.

    ``/healthz`` answers 200 ``{"status": "ok"}`` for as long as the
    server runs.  ``port=0`` binds an ephemeral port, published as
    ``.port`` after :meth:`start`.
    """

    def __init__(
        self,
        port: int = 0,
        host: str = "127.0.0.1",
        registry: MetricsRegistry | None = None,
    ):
        self.host = host
        self.port = port
        self.registry = registry if registry is not None else metrics_registry()
        self._server: http.server.ThreadingHTTPServer | None = None
        self._thread: threading.Thread | None = None

    def start(self) -> "MetricsServer":
        server = http.server.ThreadingHTTPServer(
            (self.host, self.port), _MetricsHandler
        )
        server.daemon_threads = True
        server.registry = self.registry  # type: ignore[attr-defined]
        self._server = server
        self.port = server.server_address[1]
        self._thread = threading.Thread(
            target=server.serve_forever,
            kwargs={"poll_interval": 0.2},
            name="repro-metrics",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server = None
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    def __enter__(self) -> "MetricsServer":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()


# ---------------------------------------------------------------------------
# file snapshots: scrape a finished sweep with zero open ports
# ---------------------------------------------------------------------------

def metrics_dir(store_root: str | os.PathLike) -> Path:
    """``<store>/telemetry/metrics`` (sibling of runs/, never hashed)."""
    return Path(store_root) / "telemetry" / "metrics"


def _snapshot_stem() -> str:
    return f"{socket.gethostname()}-{os.getpid()}"


def write_metrics_files(
    store_root: str | os.PathLike,
    registry: MetricsRegistry | None = None,
) -> Path:
    """Atomically publish this process's ``.prom`` + ``.json`` snapshot.

    Stable per-process filenames (``<host>-<pid>``) mean repeated writes
    replace rather than accumulate; ``os.replace`` keeps scrapers from
    ever seeing a torn file.  Returns the ``.prom`` path.
    """
    registry = registry if registry is not None else metrics_registry()
    snapshot = registry.snapshot()
    stem = _snapshot_stem()
    target = metrics_dir(store_root)
    write_json_atomic(target / f"{stem}.json", snapshot)
    return write_text_atomic(
        target / f"{stem}.prom", render_prometheus(snapshot)
    )


def load_metrics_snapshots(store_root: str | os.PathLike) -> list[dict]:
    """Every ``.json`` snapshot under the store, unreadable ones skipped."""
    root = metrics_dir(store_root)
    if not root.is_dir():
        return []
    out = []
    for path in sorted(root.glob("*.json")):
        try:
            with open(path, encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, ValueError):
            continue
        if isinstance(doc, dict):
            doc["path"] = str(path)
            out.append(doc)
    return out

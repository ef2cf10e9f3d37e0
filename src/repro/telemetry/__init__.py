"""Unified telemetry: spans, the metrics registry, and profiling surfaces.

Zero-dependency observability for the whole stack — see
:mod:`repro.telemetry.core` for the span recorder and event-log schema,
:mod:`repro.telemetry.metrics` for the registry that holds every count,
:mod:`repro.telemetry.sinks` for the JSONL / Chrome trace-event
writers, and :mod:`repro.telemetry.profile` for run profiles and the
``repro profile`` / ``repro report --timings`` / ``repro top``
renderers.

The hard invariant, enforced by tests and CI: telemetry on or off,
every ``RunSpec`` key, result series, and store artifact byte is
identical.  Telemetry output lives only under ``<store>/telemetry/``,
which the content-addressed store never scans.
"""

from .core import (
    TELEMETRY_ENV,
    TELEMETRY_MODES,
    Span,
    TelemetryRecorder,
    activate,
    active_recorder,
    annotate,
    deactivate,
    flush_active,
    recording,
    session,
    span,
    telemetry_active,
    telemetry_enabled,
    telemetry_mode,
)
from .export import (
    MetricsServer,
    load_metrics_snapshots,
    metrics_dir,
    parse_prometheus,
    render_prometheus,
    write_metrics_files,
)
from .flight import (
    FlightRecorder,
    crash_dir,
    find_crash_dumps,
    flight_dump,
    flight_record,
    flight_recorder,
    load_crash_dump,
    render_blackbox,
    reset_flight,
)
from .metrics import (
    DEFAULT_BUCKETS,
    MetricsRegistry,
    counter_deltas,
    metric_gauge,
    metric_inc,
    metric_observe,
    metrics_registry,
    reset_metrics,
)
from .profile import (
    aggregate_timings,
    cluster_status_doc,
    evaluate_health,
    find_run_profiles,
    load_run_profile,
    profile_tree,
    render_cluster_status,
    render_profile,
    render_timings,
    run_profile_path,
    run_scope,
    telemetry_root,
)
from .sinks import chrome_trace, read_jsonl, write_chrome_trace

__all__ = [
    "DEFAULT_BUCKETS",
    "FlightRecorder",
    "MetricsRegistry",
    "MetricsServer",
    "TELEMETRY_ENV",
    "TELEMETRY_MODES",
    "Span",
    "TelemetryRecorder",
    "activate",
    "active_recorder",
    "aggregate_timings",
    "annotate",
    "chrome_trace",
    "cluster_status_doc",
    "counter_deltas",
    "crash_dir",
    "deactivate",
    "evaluate_health",
    "find_crash_dumps",
    "find_run_profiles",
    "flight_dump",
    "flight_record",
    "flight_recorder",
    "flush_active",
    "load_crash_dump",
    "load_metrics_snapshots",
    "load_run_profile",
    "metric_gauge",
    "metric_inc",
    "metric_observe",
    "metrics_dir",
    "metrics_registry",
    "parse_prometheus",
    "profile_tree",
    "read_jsonl",
    "recording",
    "render_blackbox",
    "render_cluster_status",
    "render_profile",
    "render_prometheus",
    "render_timings",
    "reset_flight",
    "reset_metrics",
    "run_profile_path",
    "run_scope",
    "session",
    "span",
    "telemetry_active",
    "telemetry_enabled",
    "telemetry_mode",
    "telemetry_root",
    "write_chrome_trace",
    "write_metrics_files",
]

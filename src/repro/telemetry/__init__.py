"""Unified telemetry: spans, the metrics registry, and profiling surfaces.

Zero-dependency observability for the whole stack — see
:mod:`repro.telemetry.core` for the span recorder and event-log schema,
:mod:`repro.telemetry.metrics` for the registry that holds every count,
:mod:`repro.telemetry.sinks` for the JSONL / Chrome trace-event
writers, :mod:`repro.telemetry.export` for the Prometheus / JSON / HTTP
exporters, and :mod:`repro.telemetry.profile` for run profiles (the
failure record of every run that raised included) and the
``repro profile`` / ``repro report --timings`` renderers.

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
    failure_records,
    find_run_profiles,
    load_run_profile,
    profile_tree,
    render_profile,
    render_timings,
    run_profile_path,
    run_scope,
    telemetry_root,
)
from .sinks import chrome_trace, read_jsonl, write_chrome_trace

__all__ = [
    "DEFAULT_BUCKETS",
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
    "counter_deltas",
    "deactivate",
    "failure_records",
    "find_run_profiles",
    "flush_active",
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
    "render_profile",
    "render_prometheus",
    "render_timings",
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

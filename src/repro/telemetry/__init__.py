"""Unified telemetry: spans, the counter registry, and profiling surfaces.

Zero-dependency observability for the whole stack — see
:mod:`repro.telemetry.core` for the span recorder and span schema,
:mod:`repro.telemetry.metrics` for the registry that holds every count
(counters only), :mod:`repro.telemetry.sinks` for the atomic JSON and
Chrome trace-event writers, and :mod:`repro.telemetry.profile` for run
profiles — the one span artifact, one per executed spec, the failure
record of every run that raised included — and the ``repro profile`` /
``repro report --timings`` renderers.

The hard invariant, enforced by tests and CI: telemetry on or off,
every ``RunSpec`` key, result series, and store artifact byte is
identical.  Telemetry output lives only under ``<store>/telemetry/``,
which the content-addressed store never scans; with telemetry off, only
a failure record is ever written there.
"""

from .core import (
    TELEMETRY_ENV,
    TELEMETRY_MODES,
    Span,
    TelemetryRecorder,
    activate,
    active_recorder,
    deactivate,
    span,
    telemetry_active,
    telemetry_mode,
)
from .metrics import (
    MetricsRegistry,
    counter_deltas,
    metric_inc,
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
from .sinks import chrome_trace, write_chrome_trace

__all__ = [
    "MetricsRegistry",
    "TELEMETRY_ENV",
    "TELEMETRY_MODES",
    "Span",
    "TelemetryRecorder",
    "activate",
    "active_recorder",
    "aggregate_timings",
    "chrome_trace",
    "counter_deltas",
    "deactivate",
    "failure_records",
    "find_run_profiles",
    "load_run_profile",
    "metric_inc",
    "metrics_registry",
    "profile_tree",
    "render_profile",
    "render_timings",
    "reset_metrics",
    "run_profile_path",
    "run_scope",
    "span",
    "telemetry_active",
    "telemetry_mode",
    "telemetry_root",
    "write_chrome_trace",
]

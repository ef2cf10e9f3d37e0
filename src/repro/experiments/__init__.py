"""Experiment harness: one entry point per paper table/figure."""

from .ablations import (
    ablation_denominator,
    ablation_surface,
    machine_scenarios,
    meta_vs_static,
    regret_summary,
    static_partitioner_suite,
)
from .analysis import (
    amplitude_ratio,
    best_lag,
    dominant_period,
    envelope_fraction,
    pearson,
    series_stats,
)
from .figures import (
    FIGURE_APPS,
    dimension2_series,
    figure1,
    figure_app,
    shape_report,
)
from .report import (
    ascii_chart,
    render_figure1,
    render_figure_app,
    render_regret,
)
from .workloads import (
    ALL_APP_NAMES,
    APP_NAMES,
    APP_NAMES_3D,
    all_paper_traces,
    clear_trace_cache,
    paper_config,
    paper_trace,
    shadow_shape,
    workload_ndim,
)

__all__ = [
    "ablation_denominator",
    "ablation_surface",
    "machine_scenarios",
    "meta_vs_static",
    "regret_summary",
    "static_partitioner_suite",
    "amplitude_ratio",
    "best_lag",
    "dominant_period",
    "envelope_fraction",
    "pearson",
    "series_stats",
    "FIGURE_APPS",
    "dimension2_series",
    "figure1",
    "figure_app",
    "shape_report",
    "ascii_chart",
    "render_figure1",
    "render_figure_app",
    "render_regret",
    "ALL_APP_NAMES",
    "APP_NAMES",
    "APP_NAMES_3D",
    "all_paper_traces",
    "clear_trace_cache",
    "paper_config",
    "paper_trace",
    "shadow_shape",
    "workload_ndim",
]

"""Terminal rendering of the reproduced figures and tables.

The paper's evaluation is read visually ("this was most easily examined
visually", section 5.1.4); this module renders each regenerated figure as
an ASCII chart so the comparison can be made in a terminal or a text log,
and assembles the full reproduction report that EXPERIMENTS.md records.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "ascii_chart",
    "render_figure_app",
    "render_figure1",
]


def ascii_chart(
    series: dict[str, np.ndarray],
    height: int = 12,
    markers: str = "*o+x",
    ymin: float | None = None,
    ymax: float | None = None,
) -> str:
    """Render one or more aligned series as an ASCII chart.

    Parameters
    ----------
    series :
        Label -> 1-d array; all arrays must share a length.  The first
        series uses the first marker, and so on; collisions show the
        later marker.
    height :
        Chart body height in rows.
    ymin, ymax :
        Axis range; defaults to the data range padded by 5 %.
    """
    if not series:
        raise ValueError("need at least one series")
    arrays = [np.asarray(v, dtype=np.float64) for v in series.values()]
    n = arrays[0].size
    if any(a.size != n for a in arrays):
        raise ValueError("all series must have equal length")
    if n == 0:
        raise ValueError("series must be non-empty")
    if height < 2:
        raise ValueError("height must be >= 2")
    lo = min(a.min() for a in arrays) if ymin is None else ymin
    hi = max(a.max() for a in arrays) if ymax is None else ymax
    if hi <= lo:
        hi = lo + 1.0
    pad = 0.05 * (hi - lo)
    if ymin is None:
        lo -= pad
    if ymax is None:
        hi += pad
    grid = [[" "] * n for _ in range(height)]
    for (label, _), marker, arr in zip(series.items(), markers, arrays):
        rows = ((hi - arr) / (hi - lo) * (height - 1)).round().astype(int)
        rows = np.clip(rows, 0, height - 1)
        for col, row in enumerate(rows):
            grid[row][col] = marker
    lines = []
    for r, row in enumerate(grid):
        yval = hi - (hi - lo) * r / (height - 1)
        lines.append(f"{yval:8.3f} |{''.join(row)}")
    lines.append(" " * 9 + "+" + "-" * n)
    legend = "   ".join(
        f"{m} {label}" for (label, _), m in zip(series.items(), markers)
    )
    lines.append(" " * 10 + legend)
    return "\n".join(lines)


def render_figure_app(fig: dict, figure_number: int | None = None) -> str:
    """Render a :func:`~repro.experiments.figure_app` result as two panels."""
    title = f"Figure {figure_number} — " if figure_number else ""
    title += f"{fig['trace'].upper()} (P={fig['nprocs']})"
    left = ascii_chart(
        {
            "measured relative comm": fig["actual_relative_comm"],
            "beta_C": fig["beta_c"],
        },
        ymin=0.0,
    )
    right = ascii_chart(
        {
            "measured relative migration": fig["actual_relative_migration"],
            "beta_m": fig["beta_m"],
        },
        ymin=0.0,
    )
    stats = (
        f"corr(beta_m, migration) = {fig['migration_correlation']:+.3f}   "
        f"corr(beta_C, comm) = {fig['comm_correlation']:+.3f}   "
        f"envelope = {fig['comm_envelope_fraction']:.2f}   "
        f"amplitude ratio = {fig['migration_amplitude_ratio']:.2f}"
    )
    return "\n".join(
        [
            title,
            "",
            "Communication vs beta_C:",
            left,
            "",
            "Data migration vs beta_m:",
            right,
            "",
            stats,
        ]
    )


def render_figure1(fig: dict) -> str:
    """Render the Figure-1 series (BL2D dynamic behaviour)."""
    imb = ascii_chart(
        {"load imbalance [%]": fig["load_imbalance_percent"]}, ymin=0.0
    )
    comm = ascii_chart({"relative comm": fig["relative_comm"]}, ymin=0.0)
    return "\n".join(
        [
            f"Figure 1 — {fig['trace'].upper()} under a static P "
            f"(P={fig['nprocs']})",
            "",
            imb,
            "",
            comm,
        ]
    )

"""Tests for the ASCII figure rendering."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    ascii_chart,
    figure1,
    figure_app,
    render_figure1,
    render_figure_app,
)


class TestAsciiChart:
    def test_basic_render(self):
        out = ascii_chart({"a": np.array([0.0, 0.5, 1.0])}, height=4)
        lines = out.splitlines()
        assert len(lines) == 4 + 2  # body + axis + legend
        assert "a" in lines[-1]
        body = "\n".join(lines[:-2])  # exclude axis and legend
        assert body.count("*") == 3

    def test_two_series_two_markers(self):
        out = ascii_chart(
            {"x": np.array([0.0, 1.0]), "y": np.array([1.0, 0.0])}, height=5
        )
        assert "*" in out and "o" in out

    def test_constant_series(self):
        out = ascii_chart({"c": np.full(5, 2.0)})
        body = "\n".join(out.splitlines()[:-2])
        assert body.count("*") == 5

    def test_validation(self):
        with pytest.raises(ValueError):
            ascii_chart({})
        with pytest.raises(ValueError):
            ascii_chart({"a": np.array([1.0]), "b": np.array([1.0, 2.0])})
        with pytest.raises(ValueError):
            ascii_chart({"a": np.array([])})
        with pytest.raises(ValueError):
            ascii_chart({"a": np.array([1.0])}, height=1)

    def test_explicit_range(self):
        out = ascii_chart({"a": np.array([0.2, 0.4])}, ymin=0.0, ymax=1.0)
        assert "1.000" in out and "0.000" in out


class TestRenderers:
    def test_render_figure_app(self):
        fig = figure_app("bl2d", scale="small", nprocs=4)
        text = render_figure_app(fig, figure_number=5)
        assert "Figure 5" in text
        assert "BL2D" in text
        assert "beta_m" in text and "beta_C" in text
        assert "corr(beta_m, migration)" in text

    def test_render_figure1(self):
        fig = figure1(scale="small", nprocs=4)
        text = render_figure1(fig)
        assert "Figure 1" in text
        assert "load imbalance" in text

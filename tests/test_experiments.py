"""Tests for the experiment harness (small scale) and analysis utilities."""

from __future__ import annotations

import numpy as np
import pytest

from repro.experiments import (
    APP_NAMES,
    FIGURE_APPS,
    ablation_denominator,
    amplitude_ratio,
    best_lag,
    dimension2_series,
    dominant_period,
    envelope_fraction,
    figure1,
    figure_app,
    meta_vs_static,
    paper_config,
    paper_trace,
    pearson,
    static_partitioner_suite,
)


class TestAnalysis:
    def test_pearson_perfect(self):
        x = np.arange(10.0)
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_pearson_constant_is_zero(self):
        assert pearson(np.ones(5), np.arange(5.0)) == 0.0

    def test_pearson_validation(self):
        with pytest.raises(ValueError):
            pearson(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            pearson(np.ones(1), np.ones(1))

    def test_dominant_period_sine(self):
        t = np.arange(60)
        series = np.sin(2 * np.pi * t / 12.0)
        assert dominant_period(series) == 12

    def test_dominant_period_monotone_none(self):
        assert dominant_period(np.arange(30.0)) is None

    def test_dominant_period_too_short(self):
        assert dominant_period(np.array([1.0, 2.0])) is None

    def test_best_lag_detects_lead(self):
        t = np.arange(40)
        measured = np.sin(2 * np.pi * t / 10.0)
        model = np.sin(2 * np.pi * (t + 2) / 10.0)  # model leads by 2
        assert best_lag(model, measured, max_lag=3) == 2

    def test_best_lag_zero_for_aligned(self):
        t = np.arange(40)
        s = np.sin(2 * np.pi * t / 9.0)
        assert best_lag(s, s) == 0

    def test_best_lag_validation(self):
        with pytest.raises(ValueError):
            best_lag(np.ones(3), np.ones(4))
        with pytest.raises(ValueError):
            best_lag(np.ones(5), np.ones(5), max_lag=-1)

    def test_envelope_fraction(self):
        upper = np.array([1.0, 2.0, 3.0])
        lower = np.array([0.5, 2.5, 2.0])
        assert envelope_fraction(upper, lower) == pytest.approx(2 / 3)

    def test_envelope_validation(self):
        with pytest.raises(ValueError):
            envelope_fraction(np.ones(2), np.ones(3))
        with pytest.raises(ValueError):
            envelope_fraction(np.array([]), np.array([]))

    def test_amplitude_ratio(self):
        a = np.array([0.0, 2.0, 0.0, 2.0])
        b = np.array([0.0, 4.0, 0.0, 4.0])
        assert amplitude_ratio(a, b) == pytest.approx(0.5)

    def test_amplitude_ratio_constant_measured(self):
        assert amplitude_ratio(np.arange(4.0), np.ones(4)) == float("inf")


class TestWorkloads:
    def test_app_names_order(self):
        assert APP_NAMES == ("rm2d", "bl2d", "sc2d", "tp2d")

    def test_figure_mapping(self):
        assert FIGURE_APPS == {4: "rm2d", 5: "bl2d", 6: "sc2d", 7: "tp2d"}

    def test_paper_config_scales(self):
        paper = paper_config("paper")
        small = paper_config("small")
        assert paper.nsteps > small.nsteps
        assert paper.max_levels >= small.max_levels
        with pytest.raises(ValueError):
            paper_config("huge")

    def test_paper_3d_is_paper_faithful(self):
        # Sparse owner maps lifted the raster-memory cap: the 3-D paper
        # scale carries the paper's full 5 levels of refinement.
        cfg = paper_config("paper", ndim=3)
        assert cfg.base_shape == (16, 16, 16)
        assert cfg.max_levels == 5

    def test_deep_scale_is_3d_only(self):
        deep = paper_config("deep", ndim=3)
        assert deep.base_shape == (32, 32, 32)
        assert deep.max_levels == 5
        # 512^3 finest index space: infeasible as a dense raster, the
        # whole point of the sparse representation.
        assert deep.level_shape(4) == (512, 512, 512)
        with pytest.raises(ValueError, match="deep"):
            paper_config("deep", ndim=2)

    def test_paper_trace_cached(self):
        a = paper_trace("bl2d", "small")
        b = paper_trace("bl2d", "small")
        assert a is b  # the store's read cache

    def test_paper_trace_unknown(self):
        with pytest.raises(ValueError):
            paper_trace("xx2d", "small")


class TestFigures:
    def test_figure1_series(self):
        fig = figure1(scale="small", nprocs=4)
        assert fig["trace"] == "bl2d"
        n = fig["step"].size
        assert fig["load_imbalance_percent"].shape == (n,)
        assert fig["relative_comm"].shape == (n,)
        assert (fig["load_imbalance_percent"] >= 0).all()

    @pytest.mark.parametrize("name", APP_NAMES)
    def test_figure_app_contract(self, name):
        fig = figure_app(name, scale="small", nprocs=4)
        n = fig["step"].size
        for key in (
            "actual_relative_comm",
            "beta_c",
            "actual_relative_migration",
            "beta_m",
        ):
            assert fig[key].shape == (n,)
        assert -1.0 <= fig["comm_correlation"] <= 1.0
        assert -1.0 <= fig["migration_correlation"] <= 1.0
        assert 0.0 <= fig["comm_envelope_fraction"] <= 1.0
        assert (fig["beta_m"] >= 0).all() and (fig["beta_m"] <= 1).all()
        assert fig["beta_m"][0] == 0.0

    def test_warm_store_figures_bit_identical_without_compute(
        self, tmp_path, monkeypatch
    ):
        from repro.engine import ResultStore, clear_read_cache
        from repro.engine import executor as executor_module

        def figures(store):
            return {
                "figure1": figure1(scale="small", nprocs=4, store=store),
                "figure6": figure_app(
                    "sc2d", scale="small", nprocs=4, store=store
                ),
            }

        store = ResultStore(tmp_path / "store")
        cold = figures(store)
        clear_read_cache()

        def no_compute(spec, store=None):
            raise AssertionError(f"warm figure computed {spec.label()}")

        monkeypatch.setattr(executor_module, "_compute", no_compute)
        warm = figures(ResultStore(store.root))
        for name, fig in cold.items():
            assert sorted(warm[name]) == sorted(fig)
            for field, value in fig.items():
                again = warm[name][field]
                if isinstance(value, np.ndarray):
                    assert again.dtype == value.dtype, (name, field)
                    assert again.tobytes() == value.tobytes(), (name, field)
                else:
                    assert repr(again) == repr(value), (name, field)

    def test_figure_app_unknown(self):
        with pytest.raises(ValueError):
            figure_app("xx2d")

    def test_dimension2_series(self):
        d = dimension2_series("bl2d", scale="small", nprocs=4)
        n = d["step"].size
        assert d["requested_seconds"].shape == (n,)
        assert d["offered_seconds"].shape == (n,)
        assert ((d["dim2"] >= 0) & (d["dim2"] <= 1)).all()
        assert (d["normalized_grid_size"] <= 1.0).all()


class TestAblations:
    def test_static_suite_nonempty(self):
        suite = static_partitioner_suite()
        assert len(suite) >= 4
        for part in suite.values():
            assert hasattr(part, "partition")

    def test_ablation_denominator_small(self):
        table = ablation_denominator(nprocs=4, scale="small")
        assert set(table) == set(APP_NAMES)
        for row in table.values():
            assert set(row) == {"current", "previous", "max"}
            for v in row.values():
                assert -1.0 <= v <= 1.0

    def test_meta_vs_static_small(self):
        from repro.experiments import machine_scenarios, regret_summary

        table = meta_vs_static(nprocs=4, scale="small")
        assert set(table) == set(APP_NAMES)
        for per_machine in table.values():
            assert set(per_machine) == set(machine_scenarios())
            for row in per_machine.values():
                assert "meta-partitioner" in row
                assert "armada-octant" in row
                assert "meta_regret" in row
                for k, v in row.items():
                    if k != "meta_regret":
                        assert v > 0
        worst = regret_summary(table)
        assert set(worst) >= {"meta-partitioner", "armada-octant"}
        for v in worst.values():
            assert v >= 0.0

"""Tests for the four application kernels and the trace generator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.apps import (
    APPLICATIONS,
    BuckleyLeverett2D,
    RichtmyerMeshkov2D,
    ScalarWave2D,
    TraceGenConfig,
    Transport2D,
    Transport3D,
    build_hierarchy,
    fractional_flow,
    generate_trace,
    make_application,
)
from repro.clustering import gradient_indicator
from repro.experiments import workload_ndim


ALL_APPS = sorted(APPLICATIONS)

#: the kernels covered by the 2-D ``small_traces`` session fixture
TRACED_APPS = [name for name in ALL_APPS if workload_ndim(name) == 2]


def app_shape(name: str, side: int) -> tuple[int, ...]:
    """A cubic shadow-grid shape of the kernel's dimensionality."""
    return (side,) * workload_ndim(name)


class TestRegistry:
    def test_kernels(self):
        assert set(APPLICATIONS) == {
            "tp2d", "bl2d", "sc2d", "rm2d", "tp3d", "bl3d", "sc3d", "rm3d"
        }

    def test_make_application(self):
        app = make_application("tp2d", shape=(32, 32))
        assert isinstance(app, Transport2D)

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown application"):
            make_application("nope")


class TestTraceGenConfig:
    def test_level_shape(self):
        cfg = TraceGenConfig(base_shape=(16, 16), refine_ratio=2)
        assert cfg.level_shape(0) == (16, 16)
        assert cfg.level_shape(3) == (128, 128)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_levels": 0},
            {"refine_ratio": 1},
            {"nsteps": 0},
            {"regrid_interval": 0},
            {"flag_threshold": 0.0},
            {"threshold_growth": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            TraceGenConfig(**kwargs)


@pytest.mark.parametrize("name", ALL_APPS)
class TestKernelBasics:
    def test_advance_progresses_time(self, name):
        app = make_application(name, shape=app_shape(name, 32))
        t0 = app.time
        app.advance()
        assert app.time > t0

    def test_field_shape_and_finite(self, name):
        shape = app_shape(name, 32)
        app = make_application(name, shape=shape)
        for _ in range(3):
            app.advance()
        field = app.indicator_field()
        assert field.shape == shape
        assert np.isfinite(field).all()

    def test_deterministic(self, name):
        shape = app_shape(name, 32)
        a = make_application(name, shape=shape)
        b = make_application(name, shape=shape)
        for _ in range(2):
            a.advance()
            b.advance()
        np.testing.assert_array_equal(a.indicator_field(), b.indicator_field())

    def test_field_changes(self, name):
        app = make_application(name, shape=app_shape(name, 32))
        before = app.indicator_field().copy()
        for _ in range(4):
            app.advance()
        assert not np.array_equal(before, app.indicator_field())

    def test_too_small_grid_rejected(self, name):
        with pytest.raises(ValueError):
            make_application(name, shape=app_shape(name, 4))


class TestPhysics:
    def test_bl2d_saturation_bounds(self):
        app = BuckleyLeverett2D(shape=(32, 32))
        for _ in range(10):
            app.advance()
        s = app.indicator_field()
        assert s.min() >= 0.0 and s.max() <= 1.0

    def test_bl2d_front_advances(self):
        app = BuckleyLeverett2D(shape=(64, 64))
        initial = app.indicator_field().sum()
        for _ in range(10):
            app.advance()
        assert app.indicator_field().sum() > initial  # injection adds water

    def test_fractional_flow_endpoints(self):
        s = np.array([0.0, 1.0])
        f = fractional_flow(s, 2.0)
        np.testing.assert_allclose(f, [0.0, 1.0])

    def test_fractional_flow_monotone(self):
        s = np.linspace(0, 1, 50)
        f = fractional_flow(s, 2.0)
        assert (np.diff(f) >= -1e-12).all()

    def test_fractional_flow_clips(self):
        f = fractional_flow(np.array([-0.5, 1.5]), 2.0)
        np.testing.assert_allclose(f, [0.0, 1.0])

    def test_sc2d_source_pulses(self):
        app = ScalarWave2D(shape=(32, 32), pulse_period=0.4, pulse_width=0.03)
        amp_peak = app.source_amplitude(3.0 * 0.03)
        amp_quiet = app.source_amplitude(0.25)
        assert amp_peak > 0.9
        assert amp_quiet < 0.1

    def test_sc2d_wave_expands(self):
        app = ScalarWave2D(shape=(64, 64))
        for _ in range(6):
            app.advance()
        u = np.abs(app.indicator_field())
        centre = u[28:36, 28:36].max()
        assert centre > 0  # wave emitted

    def test_rm2d_density_positive(self):
        app = RichtmyerMeshkov2D(shape=(32, 32))
        for _ in range(5):
            app.advance()
        assert app.indicator_field().min() > 0

    def test_rm2d_mass_conserved(self):
        """Reflective walls: total mass is conserved by the FV scheme."""
        app = RichtmyerMeshkov2D(shape=(32, 32))
        m0 = app.indicator_field().sum()
        for _ in range(5):
            app.advance()
        assert app.indicator_field().sum() == pytest.approx(m0, rel=1e-10)

    def test_rm2d_atwood_validation(self):
        with pytest.raises(ValueError):
            RichtmyerMeshkov2D(atwood=1.5)

    def test_tp2d_gust_range(self):
        app = Transport2D(shape=(32, 32))
        gusts = [app._gust(t) for t in np.linspace(0, 5, 200)]
        assert min(gusts) >= 0.2 and max(gusts) <= 1.8

    def test_tp2d_mass_roughly_conserved(self):
        """Semi-Lagrangian advection approximately conserves the pulse mass."""
        app = Transport2D(shape=(64, 64))
        m0 = app.indicator_field().sum()
        for _ in range(10):
            app.advance()
        assert app.indicator_field().sum() == pytest.approx(m0, rel=0.1)

    def test_tp3d_mass_roughly_conserved(self):
        app = Transport3D(shape=(32, 32, 32))
        m0 = app.indicator_field().sum()
        for _ in range(10):
            app.advance()
        assert app.indicator_field().sum() == pytest.approx(m0, rel=0.1)

    def test_tp3d_blobs_move_in_all_dimensions(self):
        """The vertical shear must push features through the third axis."""
        app = Transport3D(shape=(32, 32, 32))
        profile0 = app.indicator_field().sum(axis=(0, 1))
        for _ in range(8):
            app.advance()
        profile1 = app.indicator_field().sum(axis=(0, 1))
        assert not np.allclose(profile0, profile1, rtol=1e-3)

    def test_tp3d_rejects_2d_shape(self):
        with pytest.raises(ValueError):
            Transport3D(shape=(32, 32))


class TestBuildHierarchy:
    def test_flat_indicator_gives_base_only(self):
        cfg = TraceGenConfig(base_shape=(16, 16), max_levels=3)
        h = build_hierarchy(np.zeros((64, 64)), cfg)
        assert h.nlevels == 1

    def test_peak_is_refined_to_max_depth(self):
        cfg = TraceGenConfig(base_shape=(16, 16), max_levels=3)
        ind = np.zeros((64, 64))
        ind[30:34, 30:34] = 1.0
        h = build_hierarchy(ind, cfg)
        assert h.nlevels == 3
        h.validate()

    def test_nesting_always_holds(self):
        rng = np.random.default_rng(5)
        cfg = TraceGenConfig(base_shape=(16, 16), max_levels=3)
        for _ in range(5):
            field = rng.random((64, 64))
            for _ in range(3):  # smooth
                field = 0.25 * (
                    np.roll(field, 1, 0)
                    + np.roll(field, -1, 0)
                    + np.roll(field, 1, 1)
                    + np.roll(field, -1, 1)
                )
            ind = gradient_indicator(field)
            h = build_hierarchy(ind, cfg)
            h.validate()

    def test_rejects_1d(self):
        with pytest.raises(ValueError):
            build_hierarchy(np.zeros(16), TraceGenConfig())

    @pytest.mark.parametrize("buffer_width", [0, 1, 2, 3])
    @pytest.mark.parametrize("ndim,factor", [(2, 1), (2, 2), (2, 4), (3, 2)])
    def test_windowed_equals_full_domain_reference(
        self, ndim, factor, buffer_width
    ):
        # build_hierarchy windows all per-level arrays to the refined
        # parent's buffered bounding box, dilates flags before upsampling
        # where the upsample factor divides the buffer width (odd widths
        # at factor 1 never qualify), then clips and coalesces without
        # per-box sweeps.  This must be *exactly* the hierarchy that
        # full-domain arrays, resample-then-dilate and the greedy
        # per-box scans produce, patches in order.  The indicator has a
        # few localized bumps, so the dilated flags stay local and most
        # levels hold several patches.
        from repro.clustering import buffer_flags, cluster_flags
        from repro.apps.base import _resample
        from repro.geometry import Box, BoxList, rasterize_mask
        from repro.hierarchy import GridHierarchy, PatchLevel

        from tests.test_oracles import greedy_coalesce

        def reference(indicator, config):
            domain = Box((0,) * config.ndim, config.base_shape)
            levels = [PatchLevel(0, [domain], ratio=1)]
            parents = BoxList([domain])
            for l in range(1, config.max_levels):
                shape = config.level_shape(l)
                tau = min(
                    0.95,
                    config.flag_threshold
                    * config.threshold_growth ** (l - 1),
                )
                flags = _resample(indicator > tau, shape, reduce="any")
                if config.buffer_width:
                    width = (
                        config.buffer_width
                        * config.refine_ratio ** (l - 1)
                    )
                    flags = buffer_flags(flags, width)
                refined = parents.refine(config.refine_ratio)
                flags &= rasterize_mask(
                    refined, Box((0,) * config.ndim, shape)
                )
                if not flags.any():
                    break
                clipped = [
                    piece
                    for box in cluster_flags(flags, config.cluster)
                    for parent in refined
                    if (piece := box.intersect(parent)) is not None
                ]
                patches = BoxList(
                    greedy_coalesce(BoxList(clipped).disjointified())
                )
                if patches.ncells == 0:
                    break
                levels.append(
                    PatchLevel(l, patches, ratio=config.refine_ratio)
                )
                parents = patches
            return GridHierarchy(domain, levels)

        def bumps(rng, shape, n=4, sigma=0.08):
            axes = [np.arange(s) / s for s in shape]
            grids = np.meshgrid(*axes, indexing="ij")
            field = np.zeros(shape)
            for center in rng.random((n, len(shape))):
                r2 = sum((g - c) ** 2 for g, c in zip(grids, center))
                field += np.exp(-r2 / sigma**2)
            return gradient_indicator(field)

        rng = np.random.default_rng(ndim * 10 + factor)
        base = (16,) * ndim if ndim == 2 else (8,) * ndim
        cfg = TraceGenConfig(
            base_shape=base, max_levels=4, buffer_width=buffer_width
        )
        for trial in range(4):
            ind = bumps(rng, tuple(factor * s for s in base))
            got = build_hierarchy(ind, cfg)
            ref = reference(ind, cfg)
            assert got.nlevels == ref.nlevels
            for a, b in zip(got, ref):
                assert a.patches.boxes == b.patches.boxes


class TestGenerateTrace:
    def test_snapshot_schedule(self, small_traces):
        tr = small_traces["tp2d"]
        assert [s.step for s in tr] == [0, 4, 8, 12]

    @pytest.mark.parametrize("name", TRACED_APPS)
    def test_all_hierarchies_valid(self, small_traces, name):
        for snap in small_traces[name]:
            snap.hierarchy.validate()

    @pytest.mark.parametrize("name", TRACED_APPS)
    def test_metadata_recorded(self, small_traces, name):
        md = small_traces[name].metadata
        assert md["max_levels"] == 3
        assert md["regrid_interval"] == 4

    def test_trace_name_matches_app(self, small_traces):
        for name, tr in small_traces.items():
            assert tr.name == name

    def test_deterministic_regeneration(self, small_config):
        a = generate_trace(make_application("bl2d", shape=(64, 64)), small_config)
        b = generate_trace(make_application("bl2d", shape=(64, 64)), small_config)
        assert [s.hierarchy for s in a] == [s.hierarchy for s in b]

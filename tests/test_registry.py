"""Tests for the unified component registry and the engine's name layer.

Covers the redesigned public surface: decorator registration, live
mapping views, parameter-schema introspection and validation,
duplicate/unknown names, and the hash-stability guarantee the redesign
ships under (existing store keys must not move).
"""

from __future__ import annotations

import pytest

import repro.registry as registry_module
from repro.apps import APPLICATIONS, ShadowApplication, make_application
from repro.engine import (
    ENGINE_API_VERSION,
    STATIC_SUITE,
    create,
    describe,
    penalties_spec,
    registry,
    resolve_machine,
    sim_spec,
    trace_spec,
)
from repro.engine.spec import _normalize_pairs
from repro.partition import PatchBasedPartitioner
from repro.simulator import MachineModel


@pytest.fixture()
def scratch_name():
    """A temporary registry name, removed again after the test."""
    name = "test-scratch-component"
    yield name
    for kind in ("app", "partitioner", "machine", "schedule", "scale"):
        registry(kind).unregister(name)


class TestRegistryBasics:
    def test_live_mapping_view(self):
        apps = registry("app")
        assert apps is APPLICATIONS
        assert "bl2d" in apps
        assert "sc3d" in apps  # registered purely via the decorator API
        assert apps["bl2d"].ndim == 2
        assert set(dict(apps)) == set(apps.names())

    def test_decorator_registration_and_unregister(self, scratch_name):
        @registry_module.register(
            "partitioner", scratch_name, description="scratch", tags=("test",)
        )
        def _factory(knob: int = 3):
            return ("scratch", knob)

        partitioners = registry("partitioner")
        assert scratch_name in partitioners
        assert partitioners[scratch_name] is _factory  # decorator returns obj
        assert create("partitioner", scratch_name, knob=5) == ("scratch", 5)
        assert scratch_name in partitioners.names(tag="test")
        assert partitioners.unregister(scratch_name)
        assert scratch_name not in partitioners

    def test_duplicate_name_rejected(self, scratch_name):
        machines = registry("machine")
        machines.register(scratch_name, MachineModel)
        with pytest.raises(ValueError, match="already registered"):
            machines.register(scratch_name, MachineModel)
        machines.register(scratch_name, MachineModel, replace=True)

    def test_unknown_name_lists_choices(self):
        with pytest.raises(ValueError, match="unknown partitioner"):
            create("partitioner", "warp-drive")
        with pytest.raises(ValueError, match="unknown machine scenario"):
            create("machine", "cray-1")
        with pytest.raises(ValueError, match="unknown application"):
            make_application("nope")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown component kind"):
            registry("frobnicator")

    def test_param_validation(self):
        with pytest.raises(ValueError, match="unknown parameter"):
            create("partitioner", "patch-lpt", bogus=1)
        # The wrapper factories validate against the wrapped class.
        with pytest.raises(ValueError, match="unknown parameter"):
            create("partitioner", "nature+fable", warp=9)
        with pytest.raises(ValueError, match="curve"):
            # 'curve' is bound by the domain-sfc-hilbert entry itself.
            create("partitioner", "domain-sfc-hilbert", curve="morton")
        part = create("partitioner", "patch-lpt", strategy="round-robin")
        assert isinstance(part, PatchBasedPartitioner)
        assert part.strategy == "round-robin"

    def test_describe_schema(self):
        doc = describe("partitioner", "nature+fable")
        assert doc["kind"] == "partitioner"
        params = {p["name"]: p for p in doc["params"]}
        assert params["atomic_unit"]["default"] == 4
        assert not params["atomic_unit"]["required"]
        everything = registry_module.describe()
        assert set(everything) >= {
            "app", "partitioner", "schedule", "machine", "scale"
        }
        assert "sc3d" in everything["app"]
        assert {"paper", "small"} <= set(everything["scale"])

    def test_static_suite_is_registered(self):
        partitioners = registry("partitioner")
        for name in STATIC_SUITE:
            assert name in partitioners


class TestAppRegistration:
    def test_runtime_registered_kernel_is_sweepable(self, scratch_name):
        class TinyKernel(ShadowApplication):
            name = scratch_name
            ndim = 2

            def __init__(self, shape=(16, 16)):
                self._shape = tuple(shape)
                self._t = 0.0

            @property
            def shape(self):
                return self._shape

            @property
            def time(self):
                return self._t

            def advance(self):
                self._t += 1.0

            def indicator_field(self):
                import numpy as np

                return np.zeros(self._shape)

        registry("app").register(scratch_name, TinyKernel)
        assert scratch_name in APPLICATIONS
        app = make_application(scratch_name)
        assert isinstance(app, TinyKernel)
        # Specs resolve the new kernel by name, end to end.
        spec = trace_spec(scratch_name, "small")
        assert spec.ndim == 2
        assert len(spec.key()) == 64
        # ... and the enumeration surfaces see it too: the CLI's 2d/all
        # aliases are built from app_names().
        from repro.experiments.workloads import APP_NAMES, app_names

        assert scratch_name in app_names(2)
        assert scratch_name in app_names()
        assert app_names(2)[: len(APP_NAMES)] == APP_NAMES  # canonical first

    def test_factory_function_apps_supported(self, scratch_name):
        from repro.apps import Transport2D

        def tiny_factory(**kwargs):
            return Transport2D(**kwargs)

        tiny_factory.ndim = 2
        registry("app").register(scratch_name, tiny_factory)
        spec = trace_spec(scratch_name, "small")  # must not crash
        assert spec.ndim == 2
        assert isinstance(make_application(scratch_name), Transport2D)

    def test_factory_without_ndim_fails_with_clear_error(self, scratch_name):
        registry("app").register(scratch_name, lambda **kw: None)
        with pytest.raises(ValueError, match="'ndim' attribute"):
            trace_spec(scratch_name, "small")
        from repro.experiments.workloads import app_names, workload_ndim

        with pytest.raises(ValueError, match="'ndim' attribute"):
            workload_ndim(scratch_name)
        assert scratch_name not in app_names()  # skipped, not misclassified

    def test_custom_scale_gets_consistent_shadow_shape(self, scratch_name):
        from repro.apps import TraceGenConfig
        from repro.experiments.workloads import SHADOW_FACTOR, shadow_shape

        @registry_module.register("scale", scratch_name)
        def _large_scale(ndim: int = 2) -> TraceGenConfig:
            return TraceGenConfig(
                base_shape=(128,) * ndim, max_levels=6, nsteps=200
            )

        # No silent fallback to the small shadow grid: the resolution
        # follows the scale's own base grid.
        assert shadow_shape(scratch_name, 2) == (128 * SHADOW_FACTOR,) * 2
        # The built-in scales keep their historical (hash-stable) values.
        assert shadow_shape("paper", 2) == (256, 256)
        assert shadow_shape("small", 2) == (64, 64)
        assert shadow_shape("paper", 3) == (64, 64, 64)
        assert shadow_shape("small", 3) == (32, 32, 32)


class TestEngineSurface:
    def test_resolve_machine_accepts_instances_and_names(self):
        # Names, override mappings and built models all resolve.
        model = MachineModel(bandwidth_bytes_per_s=1.0)
        assert resolve_machine(model) is model
        assert resolve_machine("net-starved").bandwidth_bytes_per_s == 5.0e7
        assert (
            resolve_machine({"latency_seconds": 1e-6}).latency_seconds == 1e-6
        )

    def test_expired_construction_shims_are_gone(self):
        import repro.engine as engine
        import repro.engine.components as components

        assert ENGINE_API_VERSION == "8.0"
        assert not [n for n in engine.__all__ if n.startswith("make_")]
        assert not [n for n in vars(components) if n.startswith("make_")]

    def test_pair_mode_kinds_are_gone(self):
        # One pair-candidate path: nothing is left to select by name.
        for kind in ("pair-index", "pair-reuse"):
            with pytest.raises(ValueError, match="unknown component kind"):
                registry(kind)

    def test_engine_all_is_clean(self):
        import repro.engine as engine

        assert isinstance(ENGINE_API_VERSION, str)
        for name in engine.__all__:
            assert not name.startswith("_"), name
            assert getattr(engine, name) is not None, name

    def test_registry_name_is_not_module_shadowed(self):
        # `repro.engine.registry` is unambiguously the accessor function;
        # the built-in registrations live in repro.engine.components.
        import repro.engine
        import repro.engine.components as components

        assert callable(repro.engine.registry)
        assert repro.engine.registry("app") is APPLICATIONS
        assert components.STATIC_SUITE == STATIC_SUITE


class TestNormalizePairs:
    def test_sorts_by_key_only(self):
        # Heterogeneous values used to reach tuple comparison and raise
        # TypeError when keys tied; key-only sorting never compares them.
        pairs = [("b", "text"), ("a", 3), ("b", 7)]
        out = _normalize_pairs(pairs)
        assert out == (("a", 3), ("b", "text"), ("b", 7))

    def test_mapping_order_invariant(self):
        a = _normalize_pairs({"x": 1, "curve": "hilbert"})
        b = _normalize_pairs({"curve": "hilbert", "x": 1})
        assert a == b == (("curve", "hilbert"), ("x", 1))

    def test_non_string_keys_rejected(self):
        with pytest.raises(TypeError, match="param names"):
            _normalize_pairs([(1, "x")])


class TestHashStability:
    """The redesign must not move existing store keys (PR-2 baseline)."""

    BASELINE = {
        ("trace", "bl2d"): (
            lambda: trace_spec("bl2d", "small"),
            "4c6d45adccfc483e03c2f2a97da8d0b44f8089394a0626691db12420eb3c77a8",
        ),
        ("sim", "default"): (
            lambda: sim_spec("bl2d", "small"),
            "eeda8601cf7164108e3509fdfe1ef68fef7b1684d12bd778bf97ee63473c944a",
        ),
        ("sim", "params"): (
            lambda: sim_spec(
                "bl2d",
                "small",
                partitioner="patch-lpt",
                params={"strategy": "lpt", "split_oversized": True},
            ),
            "bfae602724d42d36aee80a804ce2c7ff7e4afe35b2147bc1c2a2b4522b515b4a",
        ),
        ("sim", "machine"): (
            lambda: sim_spec("tp2d", "paper", nprocs=32, machine="net-starved"),
            "295dd2d5b8f49ba5aa7d2e76b9b0afbffc00ce2a039bdfdff10a9d4ded309555",
        ),
        ("penalties", "denominator"): (
            lambda: penalties_spec(
                "sc2d", "small", migration_denominator="max"
            ),
            "9b4770025c5d55b6143379122d712aa8b9a0c52aabfeb50d3f4ba32ba6b05fb6",
        ),
    }

    @pytest.mark.parametrize("case", sorted(BASELINE), ids=str)
    def test_keys_pinned_to_pr2_baseline(self, case):
        build, expected = self.BASELINE[case]
        assert build().key() == expected

"""The public surface: what every ``repro`` module exports, and what is gone.

Each module's ``__all__`` must name only public objects that import, each
once.  The names retired because no production path (``src/``,
``examples/``, ``benchmarks/``, ``perfbench/``) called them must stay
gone from ``src/``: the test-only oracles among them live in
``tests/sfc_oracle.py`` and ``tests/dense_oracle.py``.
"""

from __future__ import annotations

import dataclasses
import importlib
import importlib.util
import inspect
import pkgutil

import pytest

import repro

MODULES = ["repro"] + [
    info.name for info in pkgutil.walk_packages(repro.__path__, "repro.")
]

#: Each retired name, with every module that exported or defined it.
REMOVED_NAMES = {
    "intersect_corners": ("repro.geometry", "repro.geometry.ownermap"),
    "upsample": ("repro.geometry", "repro.geometry.raster"),
    "rasterize_owners": ("repro.geometry", "repro.geometry.raster"),
    "level_weights": ("repro.partition", "repro.partition.base"),
    "ablation_surface": ("repro.experiments", "repro.experiments.ablations"),
    "save_traces": ("repro.experiments.workloads",),
    "all_paper_traces": ("repro.experiments", "repro.experiments.workloads"),
    "ALL_APP_NAMES": ("repro.experiments", "repro.experiments.workloads"),
    "render_regret": ("repro.experiments", "repro.experiments.report"),
    "InvocationTimer": ("repro.meta",),
    "per_rank_comm_cells": ("repro.simulator", "repro.simulator.raster_metrics"),
    "flags_from_indicator": ("repro.clustering", "repro.clustering.flagging"),
    "downsample_mask": ("repro.clustering", "repro.clustering.flagging"),
    "restrict_flags_to_mask": ("repro.clustering", "repro.clustering.flagging"),
    "sfc_order": ("repro.sfc", "repro.sfc.curves"),
    "hilbert_inverse": ("repro.sfc", "repro.sfc.curves"),
    "hilbert_inverse_nd": ("repro.sfc", "repro.sfc.curves"),
    "morton_inverse": ("repro.sfc", "repro.sfc.curves"),
    "morton_inverse_nd": ("repro.sfc", "repro.sfc.curves"),
    "_compact1by1": ("repro.sfc.curves",),
    "_compact1by2": ("repro.sfc.curves",),
    "_compact_bits": ("repro.sfc.curves",),
    "_transpose_to_axes": ("repro.sfc.curves",),
    "_region_surface": ("repro.model.penalties",),
    "PARTITIONER_NAMES": ("repro.engine", "repro.engine.components"),
    "SCHEDULE_NAMES": ("repro.engine", "repro.engine.components"),
    "MACHINE_NAMES": ("repro.engine", "repro.engine.components"),
    "__getattr__": ("repro.engine", "repro.engine.components"),
    "plan_specs": ("repro.engine", "repro.engine.executor"),
    "block_sum": ("repro.geometry", "repro.geometry.raster"),
    "boxes_from_mask": ("repro.geometry", "repro.geometry.raster"),
    "boxes_from_labels": ("repro.geometry", "repro.geometry.raster"),
    "_runs_of": ("repro.geometry.raster",),
    "_label_runs_of": ("repro.geometry.raster",),
    "_merge_unit_runs": ("repro.partition.hybrid",),
    "column_workloads": ("repro.partition", "repro.partition.domain_sfc"),
    "session": ("repro.telemetry", "repro.telemetry.core"),
    "recording": ("repro.telemetry", "repro.telemetry.core"),
    "read_jsonl": ("repro.telemetry", "repro.telemetry.sinks"),
    "_EXEC_RECORDERS": ("repro.telemetry.profile",),
    "_exec_recorder": ("repro.telemetry.profile",),
    "_forget_traces": ("repro.engine.executor",),
    "_execute_kind": ("repro.engine.executor",),
    "_trace_for": ("repro.engine.executor",),
    "_app_ndim": ("repro.engine.spec",),
    "_check_scale": ("repro.experiments.workloads",),
    "_generate": ("repro.experiments.workloads",),
    "trace_meta": ("repro.engine.executor",),
    "_cache_get": ("repro.engine.store",),
    "add_box_overlap": ("repro.geometry", "repro.geometry.raster"),
    "first_cells_in_scan_order": ("repro.geometry", "repro.geometry.ownermap"),
    "subtract_corners": ("repro.geometry", "repro.geometry.ownermap"),
}

#: ``(module, class, attribute)``: retired methods.
REMOVED_METHODS = [
    ("repro.apps", "TraceGenConfig", "small"),
    ("repro.engine", "RunSpec", "input_keys"),
    ("repro.geometry", "Box", "chop"),
    ("repro.geometry", "Box", "tile"),
    ("repro.geometry", "Box", "cells"),
    ("repro.geometry", "BoxList", "bounding_box"),
    ("repro.hierarchy", "GridHierarchy", "level_mask"),
    ("repro.hierarchy", "GridHierarchy", "with_levels"),
    ("repro.model", "ClassificationPoint", "distance"),
    ("repro.simulator", "MachineModel", "faster_cpu"),
    ("repro.trace", "Trace", "consecutive_pairs"),
    ("repro.partition", "PartitionResult", "rasters"),
    ("repro.registry", "Registry", "names"),
    ("repro.meta", "MetaScheduler", "reset"),
    ("repro.meta", "ArmadaClassifier", "reset"),
    ("repro.telemetry", "TelemetryRecorder", "bind_jsonl"),
    ("repro.telemetry", "TelemetryRecorder", "flush"),
    ("repro.telemetry", "TelemetryRecorder", "subtree"),
    ("repro.engine", "ResultStore", "load_meta"),
    ("repro.engine", "ResultStore", "_result_sig"),
    ("repro.engine", "ResultStore", "_trace_sig"),
    ("repro.engine", "ResultStore", "_verify_entry"),
    ("repro.partition", "NaturePlusFable", "_column_work"),
]

#: ``(module, callable, parameter)``: second paths with one value in use.
REMOVED_PARAMETERS = [
    ("repro.model", "communication_penalty", "surface"),
    ("repro.partition", "PartitionResult", "owners"),
    ("repro.registry", "Registry.register", "tags"),
    ("repro.experiments", "figure1", "trace"),
    ("repro.experiments", "figure_app", "trace"),
    ("repro.experiments", "dimension2_series", "trace"),
    ("repro.telemetry", "TelemetryRecorder", "meta"),
]


def _is_private(name: str) -> bool:
    return name.startswith("_") and not (
        name.startswith("__") and name.endswith("__")
    )


def _resolve(module: str, dotted: str):
    obj = importlib.import_module(module)
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


@pytest.mark.parametrize("module", MODULES)
def test_all_names_are_public_unique_and_importable(module):
    mod = importlib.import_module(module)
    names = list(getattr(mod, "__all__", ()))
    assert len(names) == len(set(names)), f"{module} lists a name twice"
    for name in names:
        assert not _is_private(name), f"{module} exports private {name}"
        assert getattr(mod, name, None) is not None, f"{module}.{name}"


def test_removed_names_are_gone():
    still = [
        f"{module}.{name}"
        for name, modules in REMOVED_NAMES.items()
        for module in modules
        if hasattr(importlib.import_module(module), name)
    ]
    assert still == []
    assert importlib.util.find_spec("repro.meta.timer") is None
    exported = {
        name
        for module in MODULES
        for name in getattr(importlib.import_module(module), "__all__", ())
    }
    assert not exported & set(REMOVED_NAMES)


def test_scan_order_surface():
    """The sparse scan-order kernels the sticky remapper moves cells
    with: a region split at its ``k``-th cell, and the scan prefix and
    suffix of a grid it clips against."""
    geometry = importlib.import_module("repro.geometry")
    for name in ("split_in_scan_order", "prefix_corners", "suffix_corners"):
        assert name in geometry.__all__, name
    assert list(
        inspect.signature(geometry.split_in_scan_order).parameters
    ) == ["corners", "shape", "k"]
    for name in ("prefix_corners", "suffix_corners"):
        assert list(
            inspect.signature(getattr(geometry, name)).parameters
        ) == ["shape", "count"]


def test_removed_methods_are_gone():
    still = [
        f"{cls}.{attr}"
        for module, cls, attr in REMOVED_METHODS
        if hasattr(_resolve(module, cls), attr)
    ]
    assert still == []
    entry = _resolve("repro.registry", "RegistryEntry")
    assert "tags" not in {field.name for field in dataclasses.fields(entry)}
    assert not hasattr(_resolve("repro.telemetry", "TelemetryRecorder")(), "meta")


def test_removed_parameters_are_gone():
    still = [
        f"{target}({param}=)"
        for module, target, param in REMOVED_PARAMETERS
        if param in inspect.signature(_resolve(module, target)).parameters
    ]
    assert still == []
    assert "tags" not in _resolve("repro.registry", "describe")(
        "partitioner", "nature+fable"
    )

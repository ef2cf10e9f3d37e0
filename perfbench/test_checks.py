"""Tests of the benchmark's own output checks and metric lists.

    python3 -m pytest perfbench -q
"""

import json
from pathlib import Path

import numpy as np

import checks
import run
import suites
import tracer

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _arrays():
    return {"step": np.arange(4), "beta_c": np.array([0.1, 0.25, 0.5, 0.75])}


def test_tampered_digest_counts_as_failure():
    digest = checks.arrays_digest(_arrays())
    assert checks.verify("key", digest, {"key": digest}, True)
    tampered = digest[:-1] + ("1" if digest[-1] == "0" else "0")
    assert not checks.verify("key", digest, {"key": tampered}, True)


def test_changed_output_or_unpinned_operation_counts_as_failure():
    pinned = {"key": checks.arrays_digest(_arrays())}
    changed = _arrays()
    changed["beta_c"][2] = np.nextafter(changed["beta_c"][2], 1.0)
    assert not checks.verify("key", checks.arrays_digest(changed), pinned, True)
    assert not checks.verify("other", pinned["key"], pinned, True)
    assert not checks.verify("key", pinned["key"], pinned, False)


def test_unpinned_seeds_get_structural_checks():
    assert checks.verify("key", None, None, checks.series_ok(_arrays(), 4))
    assert not checks.series_ok(_arrays(), 5)
    broken = _arrays()
    broken["beta_c"][1] = np.nan
    assert not checks.series_ok(broken, 4)


def test_every_workload_is_pinned_on_two_seeds():
    for workload in suites.WORKLOADS:
        for seed in suites.PINNED_SEEDS:
            assert checks.load_pinned(workload, seed), (workload, seed)


def test_benchmark_json_lists_what_the_runner_prints():
    doc = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in doc["workloads"]] == list(suites.WORKLOADS)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in doc["per_layer"]] == list(tracer.PER_LAYER)
    assert all(m["unit"] == tracer.unit(m["name"]) for m in doc["per_layer"])

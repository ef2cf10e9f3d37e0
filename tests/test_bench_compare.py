"""``benchmarks/compare.py``: counters are an exact gate, wall time a soft one."""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

_COMPARE = Path(__file__).resolve().parents[1] / "benchmarks" / "compare.py"


@pytest.fixture(scope="module")
def compare():
    spec = importlib.util.spec_from_file_location("bench_compare", _COMPARE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _write(directory: Path, wall_s: float, counters: dict) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    doc = {
        "schema": 1,
        "suite": "pair_kernels",
        "scale": "small",
        "records": [
            {"case": "indexed:tp2d:small", "wall_s": wall_s,
             "peak_mb": None, "counters": counters},
            {"case": "bruteforce:tp2d:small", "wall_s": wall_s,
             "peak_mb": None, "counters": {}},
        ],
    }
    (directory / "BENCH_pair_kernels.json").write_text(json.dumps(doc))
    return directory


COUNTERS = {"queries": 96, "candidate_pairs": 8549, "grid_queries": 60}


def test_equal_counters_pass_and_wall_stays_soft(compare, tmp_path, capsys):
    base = _write(tmp_path / "base", 1.0, COUNTERS)
    fresh = _write(tmp_path / "fresh", 3.0, dict(COUNTERS))
    argv = ["--out", str(fresh), "--baselines", str(base)]
    assert compare.main(argv) == 0
    assert "wall regression" in capsys.readouterr().out
    assert compare.main([*argv, "--strict"]) == 1


def test_one_altered_counter_fails_without_strict(compare, tmp_path, capsys):
    base = _write(tmp_path / "base", 1.0, COUNTERS)
    fresh = _write(tmp_path / "fresh", 1.0, {**COUNTERS, "candidate_pairs": 8550})
    assert compare.main(["--out", str(fresh), "--baselines", str(base)]) == 1
    out = capsys.readouterr().out
    assert "'candidate_pairs': (8549, 8550)" in out
    assert "1 counter mismatch(es)" in out

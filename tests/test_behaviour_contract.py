"""The behaviour contract in tier-1: pinned digests of every run's integers.

Sixteen cold replays at ``small`` on 4 ranks — tp2d and bl3d under every
registered partitioner and schedule — each hashed over its integer
series the way ``perfbench/checks.py::arrays_digest`` hashes results
(name, dtype, shape, bytes, by name).  A change to the pair kernels,
the partitioners or the simulator that moves any step count, cell
count, workload or traffic figure changes a digest here.  The float
series stay out: their low bits can depend on the numpy build.

Every registered app's ``small`` trace is pinned too, hashed over each
snapshot's step and level boxes in stored order (the snapshot times
stay out), so a change to the apps, the clustering or the per-level
geometry of ``build_hierarchy`` that moves or reorders a patch changes
a digest here.
"""

from __future__ import annotations

import hashlib

import numpy as np

from repro.engine import ResultStore, registry, run_specs, sim_spec
from repro.experiments import paper_trace
from repro.geometry import box_corners

INTEGER_SERIES = (
    "step",
    "ncells",
    "workload",
    "comm_cells",
    "interlevel_cells",
    "migration_cells",
)

#: ``(app, partitioner or schedule)`` -> digest of its integer series.
PINNED = {
    ("tp2d", "nature+fable"):
        "de73da0861d015b38a2d5f9941db866d146dfcc410b96aa9f294f1249ecd23a4",
    ("tp2d", "nature+fable-balance"):
        "d00ea2e9210ee4c669c625ed246c52c5278e106aee558daeff8ee8b5271213f2",
    ("tp2d", "domain-sfc-hilbert"):
        "23d0f70e0caa0b87d42401c1a163355b64f10f5314fa16d58bc7bb1ccf9cf2de",
    ("tp2d", "domain-sfc-morton"):
        "eb690a72dba58347d5a7b5c49421a1c18062d1d297f46b0261dc1224d306be37",
    ("tp2d", "patch-lpt"):
        "cb053b44ae7ff139523c451070b5fa8d67fce3ebfc40855752e3c6142f9d7b53",
    ("tp2d", "sticky-sfc"):
        "59d396cf3a52733cafd12b49f706edaea1385c9bb8a401a114b6e9ee679640f3",
    ("tp2d", "armada-octant"):
        "cb053b44ae7ff139523c451070b5fa8d67fce3ebfc40855752e3c6142f9d7b53",
    ("tp2d", "meta-partitioner"):
        "9c46483131b64fb5f68ffe0cf32510fe313598f4097d9d9977c5e583bc131a39",
    ("bl3d", "nature+fable"):
        "1ab9ade8858cf4308cd59e4c75f94e22472fb932b55298543b2231725dc295bc",
    ("bl3d", "nature+fable-balance"):
        "a058be8357f507a67918a9db6497f7ff8666634988de548d582fdda90cf44df3",
    ("bl3d", "domain-sfc-hilbert"):
        "e5c666148ae6d8d2496e3c6924d9c5b827cfbf3a8bdae6d1ad11a8b146930686",
    ("bl3d", "domain-sfc-morton"):
        "e1d89191a09e8583eb4cfbec941a2fbe824a2a88e74c36db92ac568efcefb1a6",
    ("bl3d", "patch-lpt"):
        "65a1fde96832d4c292677607f7601ed9712f1fd3b6beb26ae163077544e479df",
    ("bl3d", "sticky-sfc"):
        "01bafcdca7e65a65a9141a9153ff2df9df4297b13377a61a9cfeec65353d33a6",
    ("bl3d", "armada-octant"):
        "a1cbcedd933ff743005d8cbaa3dcccc1e735018501ed29317d999910b1b6fd00",
    ("bl3d", "meta-partitioner"):
        "a1cbcedd933ff743005d8cbaa3dcccc1e735018501ed29317d999910b1b6fd00",
}


def series_digest(arrays) -> str:
    digest = hashlib.sha256()
    for name in sorted(INTEGER_SERIES):
        array = np.ascontiguousarray(arrays[name])
        digest.update(f"{name}:{array.dtype.str}:{array.shape};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def test_integer_series_digests_are_pinned(tmp_path):
    names = tuple(registry("partitioner")) + tuple(registry("schedule"))
    runs = [(app, name) for app in ("tp2d", "bl3d") for name in names]
    assert set(runs) == set(PINNED), "pin a digest for every run"
    specs = [
        sim_spec(app, "small", nprocs=4, partitioner=name) for app, name in runs
    ]
    results = run_specs(specs, store=ResultStore(tmp_path))
    got = {run: series_digest(r.arrays) for run, r in zip(runs, results)}
    assert got == PINNED


#: registered app -> digest of its ``small`` trace's level boxes.
TRACE_PINNED = {
    "bl2d": "f44d8208e2515979482fc431a84fe74835b67fa85e9e103fde367bc73584ccf0",
    "bl3d": "80fab9349c35ace380c0eb94990144c1909dd6ca03099aa84d4bb0de016bc125",
    "rm2d": "5c2abd13700c9b7d0905e0baa0b89fd656a7103d811b17de33f7c11f5134576a",
    "rm3d": "fb24d20f7085e81e31e6d2352f2137386b61527a7b08cbfcbf53a2d1cd96f0ac",
    "sc2d": "001f2d044e08278692113ea2699cc24118dfe8c638a91b952551ba244a228385",
    "sc3d": "5e8ee4b5a915c3a87118a0422a2e7cd04015a5286b2603f73d6a0f7710a07229",
    "tp2d": "65e8ecb5f098d9f31f08e145b5cf6ee6a17c97792d36a21bf5c22f4acff79da3",
    "tp3d": "324bbc92a7c7f02bf01fbc24fe5ae5b5bb1bf11c78b5eeff197711256d8d12d4",
}


def trace_digest(trace) -> str:
    digest = hashlib.sha256()
    for snap in trace:
        digest.update(f"step {snap.step};".encode())
        for level in snap.hierarchy:
            corners = box_corners(level.patches)
            digest.update(
                f"level {level.index} {level.ratio} {corners.shape};".encode()
            )
            digest.update(corners.tobytes())
    return digest.hexdigest()


def test_small_trace_digests_are_pinned(tmp_path):
    apps = tuple(registry("app"))
    assert set(apps) == set(TRACE_PINNED), "pin a digest for every app"
    store = ResultStore(tmp_path)
    got = {app: trace_digest(paper_trace(app, "small", store=store)) for app in apps}
    assert got == TRACE_PINNED

"""The benchmark tracer (``spqbench/spans.py``) still hooks both routers.

The traced benchmark run patches public names of each layer: the routers'
``submit`` methods, the cluster transport call and ``merge_top_k`` in the
router modules.  These tests run one query through a 2-shard router and
one through a 2-node in-process cluster with the patches installed, and
check that every router-layer span was recorded -- in particular that the
shared gather's merge is seen under both routers' submit spans.
"""

from __future__ import annotations

import os
import sys

from repro.core.engine import EngineConfig
from repro.server import ServiceConfig
from repro.sharding import ShardRouter, ShardingConfig

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from spqbench.spans import Recorder, install  # noqa: E402

GRID = 10
SPEC = {"keywords": ["w0001"], "k": 5, "radius": 2.0}


def test_router_spans_are_recorded(small_uniform_dataset, inprocess_cluster):
    data, features = small_uniform_dataset
    recorder = Recorder()
    install(recorder)
    try:
        with ShardRouter(
            data,
            features,
            engine_config=EngineConfig(grid_size=GRID),
            service_config=ServiceConfig(engines=1, default_grid_size=GRID),
            sharding=ShardingConfig(shards=2),
        ) as router:
            router.submit(SPEC)
        inprocess_cluster(small_uniform_dataset, grid=GRID).submit(SPEC)
    finally:
        recorder.unpatch()
    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    for name in ("sharding.submit", "cluster.submit", "cluster.node_call",
                 "model.merge_top_k"):
        assert by_name.get(name), f"no {name} span recorded"
    # The router gather runs on the submitting thread, so its merge is a
    # direct child of the submit span -- in both modes.
    merge_parents = {span.parent for span in by_name["model.merge_top_k"]}
    for name in ("sharding.submit", "cluster.submit"):
        assert any(span.sid in merge_parents for span in by_name[name]), name

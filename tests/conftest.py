"""Shared fixtures: the paper's running example and small generated datasets."""

from __future__ import annotations

import pytest

from repro.datagen.realistic import RealisticDatasetConfig, generate_flickr_like
from repro.datagen.synthetic import (
    SyntheticDatasetConfig,
    generate_clustered,
    generate_uniform,
)
from repro.model.objects import DataObject, FeatureObject
from repro.model.query import SpatialPreferenceQuery


# --------------------------------------------------------------------- #
# The running example of the paper (Figure 1 / Table 2): hotels (data
# objects) ranked by Italian restaurants (feature objects) nearby.


@pytest.fixture()
def paper_data_objects():
    return [
        DataObject("p1", 4.6, 4.8),
        DataObject("p2", 7.5, 1.7),
        DataObject("p3", 8.9, 5.2),
        DataObject("p4", 1.8, 1.8),
        DataObject("p5", 1.9, 9.0),
    ]


@pytest.fixture()
def paper_feature_objects():
    return [
        FeatureObject("f1", 2.8, 1.2, frozenset({"italian", "gourmet"})),
        FeatureObject("f2", 5.0, 3.8, frozenset({"chinese", "cheap"})),
        FeatureObject("f3", 8.7, 1.9, frozenset({"sushi", "wine"})),
        FeatureObject("f4", 3.8, 5.5, frozenset({"italian"})),
        FeatureObject("f5", 5.2, 5.1, frozenset({"mexican", "exotic"})),
        FeatureObject("f6", 7.4, 5.4, frozenset({"greek", "traditional"})),
        FeatureObject("f7", 3.0, 8.1, frozenset({"italian", "spaghetti"})),
        FeatureObject("f8", 9.5, 7.0, frozenset({"indian"})),
    ]


@pytest.fixture()
def paper_query():
    """The example query: top-1 for keyword "italian" within r = 1.5."""
    return SpatialPreferenceQuery.create(k=1, radius=1.5, keywords={"italian"})


# --------------------------------------------------------------------- #
# Small generated datasets used by integration tests.


@pytest.fixture(scope="session")
def small_uniform_dataset():
    config = SyntheticDatasetConfig(num_objects=1_000, seed=101)
    return generate_uniform(config)


@pytest.fixture(scope="session")
def small_clustered_dataset():
    config = SyntheticDatasetConfig(num_objects=1_000, seed=202)
    return generate_clustered(config)


@pytest.fixture(scope="session")
def small_flickr_dataset():
    config = RealisticDatasetConfig(num_objects=800, vocabulary_size=500, seed=303)
    return generate_flickr_like(config=config)


# --------------------------------------------------------------------- #
# An in-process cluster: real shard nodes behind real HTTP servers.


@pytest.fixture()
def inprocess_cluster():
    """Factory for a started :class:`ClusterRouter` over in-process nodes.

    Every shard node is a :class:`ShardNodeService` behind a
    :func:`make_server` HTTP server on port 0, served from a daemon thread.
    Routers and nodes are shut down when the test ends.
    """
    import threading

    from repro.cluster import (
        ClusterConfig,
        ClusterRouter,
        NodeConfig,
        NodeSpec,
        ShardNodeService,
    )
    from repro.core.engine import EngineConfig
    from repro.server import ServiceConfig, make_server

    cleanups = []

    def build(dataset, shards=2, grid=10, engine_config=None,
              service_config=None):
        data, features = dataset
        engine_config = engine_config or EngineConfig(grid_size=grid)
        specs = []
        for shard_index in range(shards):
            node = ShardNodeService(
                data,
                features,
                node_config=NodeConfig(shard_index=shard_index, shards=shards),
                engine_config=engine_config,
                service_config=ServiceConfig(
                    engines=1, result_cache_capacity=0, default_grid_size=grid
                ),
            ).start()
            server = make_server(node)
            thread = threading.Thread(target=server.serve_forever, daemon=True)
            thread.start()
            cleanups.append((node, server, thread))
            specs.append(NodeSpec(
                url=f"http://127.0.0.1:{server.port}", shard_index=shard_index
            ))
        router = ClusterRouter(
            data,
            features,
            specs,
            cluster=ClusterConfig(
                shards=shards, heartbeat_interval=0, node_deadline=5.0
            ),
            engine_config=engine_config,
            service_config=service_config
            or ServiceConfig(engines=1, default_grid_size=grid),
        )
        cleanups.append((router, None, None))
        return router.start()

    yield build
    for owner, server, thread in reversed(cleanups):
        if server is not None:
            server.shutdown()
            server.server_close()
            thread.join()
        owner.shutdown()


def _key_paths(tree, prefix=""):
    """Every dotted key path of a JSON tree (list items as ``name[]``)."""
    paths = set()
    if isinstance(tree, dict):
        for key, value in tree.items():
            path = f"{prefix}.{key}" if prefix else str(key)
            paths.add(path)
            paths |= _key_paths(value, path)
    elif isinstance(tree, list):
        for value in tree:
            paths |= _key_paths(value, prefix + "[]")
    return paths


@pytest.fixture()
def key_paths():
    """The key-path function payload-shape tests pin trees with."""
    return _key_paths

"""Shared fixtures: a tiny bipartite world every test layer can reuse."""

from pathlib import Path

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.datasets.synthetic import BehaviorSpec, SyntheticConfig, generate
from repro.graph.dmhg import DMHG
from repro.graph.metapath import MultiplexMetapath
from repro.graph.schema import GraphSchema
from repro.graph.streams import EdgeStream, StreamEdge

#: A file closed by the garbage collector, not by its owner, fails the
#: test that leaked it: its ResourceWarning is raised inside a finaliser,
#: so pytest reports it as an unraisable exception, and both are errors.
#: A service frees the moment it is dropped, so a forgotten WAL or
#: checkpoint handle warns in the test that forgot it.
LEAK_FILTERS = (
    "error::ResourceWarning",
    "error::pytest.PytestUnraisableExceptionWarning",
)


def pytest_collection_modifyitems(items):
    """Apply :data:`LEAK_FILTERS` to this directory's tests only (the
    paper benches and the benchmark spine keep the default filters)."""
    here = Path(__file__).parent
    for item in items:
        if here in item.path.parents:
            for spec in LEAK_FILTERS:
                item.add_marker(pytest.mark.filterwarnings(spec))


@pytest.fixture
def schema() -> GraphSchema:
    """user/video schema with two user behaviours."""
    return GraphSchema.create(
        ["user", "video"],
        ["click", "like"],
        {"click": ("user", "video"), "like": ("user", "video")},
    )


@pytest.fixture
def metapath(schema) -> MultiplexMetapath:
    return MultiplexMetapath.create(
        ["user", "video", "user"], [["click", "like"], ["click", "like"]]
    )


@pytest.fixture
def small_graph(schema) -> DMHG:
    """5 users, 5 videos, 8 timestamped edges."""
    g = DMHG(schema)
    g.add_nodes("user", 5)
    g.add_nodes("video", 5)
    edges = [
        (0, 5, "click", 1.0),
        (0, 6, "like", 2.0),
        (1, 5, "click", 3.0),
        (1, 7, "click", 4.0),
        (2, 6, "like", 5.0),
        (2, 8, "click", 6.0),
        (3, 8, "click", 7.0),
        (4, 9, "like", 8.0),
    ]
    for u, v, r, t in edges:
        g.add_edge(u, v, r, t)
    return g


@pytest.fixture
def small_stream() -> EdgeStream:
    return EdgeStream(
        [
            StreamEdge(0, 5, "click", 1.0),
            StreamEdge(0, 6, "like", 2.0),
            StreamEdge(1, 5, "click", 3.0),
            StreamEdge(1, 7, "click", 4.0),
            StreamEdge(2, 6, "like", 5.0),
            StreamEdge(2, 8, "click", 6.0),
            StreamEdge(3, 8, "click", 7.0),
            StreamEdge(4, 9, "like", 8.0),
        ]
    )


@pytest.fixture
def small_dataset(schema, metapath, small_stream) -> Dataset:
    return Dataset(
        name="tiny",
        schema=schema,
        nodes_by_type=[("user", 5), ("video", 5)],
        stream=small_stream,
        metapaths=[metapath],
    )


@pytest.fixture
def tiny_synthetic() -> Dataset:
    """A small generated dataset with enough edges to train on."""
    cfg = SyntheticConfig(
        name="tiny-synth",
        mode="bipartite",
        n_users=30,
        n_items=40,
        n_events=600,
        behaviors=(
            BehaviorSpec("view", base_rate=1.0, affinity_gain=0.3),
            BehaviorSpec("buy", base_rate=0.3, affinity_gain=1.5),
        ),
        drift_rate=0.02,
        seed=7,
    )
    return generate(cfg)


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(0)

"""Tests for automatic metapath mining."""

import pytest

from repro.graph.dmhg import DMHG
from repro.graph.mining import mine_metapaths
from repro.graph.schema import GraphSchema


class TestMineMetapaths:
    def test_empty_graph(self, schema):
        g = DMHG(schema)
        g.add_nodes("user", 3)
        assert mine_metapaths(g) == []

    def test_bipartite_discovers_uvu(self, small_graph):
        schemas = mine_metapaths(
            small_graph, num_walks=300, walk_length=4, min_support=3, rng=0
        )
        assert schemas
        signatures = {mp.node_types for mp in schemas}
        assert ("user", "video", "user") in signatures or (
            "video",
            "user",
            "video",
        ) in signatures

    def test_mined_schemas_are_symmetric(self, small_graph):
        for mp in mine_metapaths(small_graph, num_walks=200, min_support=3, rng=0):
            assert mp.node_types == mp.node_types[::-1]
            assert mp.edge_type_sets == mp.edge_type_sets[::-1]

    def test_mined_schemas_validate(self, small_graph):
        for mp in mine_metapaths(small_graph, num_walks=200, min_support=3, rng=0):
            mp.validate_against(small_graph.schema)

    def test_merged_edge_sets_cover_observed_types(self, small_graph):
        schemas = mine_metapaths(
            small_graph, num_walks=400, walk_length=4, min_support=3, rng=0
        )
        merged = next(
            mp for mp in schemas if mp.node_types == ("user", "video", "user")
        )
        # both behaviours exist between users and videos in the fixture
        assert merged.edge_type_sets[0] == frozenset({"click", "like"})

    def test_unmerged_mode_single_types(self, small_graph):
        schemas = mine_metapaths(
            small_graph,
            num_walks=400,
            min_support=3,
            merge_edge_types=False,
            rng=0,
        )
        for mp in schemas:
            for rset in mp.edge_type_sets:
                assert len(rset) == 1

    def test_top_k_respected(self, small_graph):
        schemas = mine_metapaths(
            small_graph, num_walks=400, min_support=1, top_k=1, rng=0
        )
        assert len(schemas) <= 1

    def test_min_support_filters(self, small_graph):
        none = mine_metapaths(
            small_graph, num_walks=5, walk_length=3, min_support=10_000, rng=0
        )
        assert none == []

    def test_mined_schemas_usable_by_supa(self, small_dataset, small_graph):
        from repro.core import SUPA, SUPAConfig

        schemas = mine_metapaths(small_graph, num_walks=200, min_support=3, rng=0)
        model = SUPA(
            small_dataset.schema,
            small_dataset.nodes_by_type,
            schemas,
            SUPAConfig(dim=8),
        )
        loss = model.process_edge(0, 5, "click", 1.0)
        assert loss > 0

    def test_deterministic(self, small_graph):
        a = mine_metapaths(small_graph, num_walks=100, min_support=2, rng=5)
        b = mine_metapaths(small_graph, num_walks=100, min_support=2, rng=5)
        assert [mp.describe() for mp in a] == [mp.describe() for mp in b]

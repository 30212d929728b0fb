"""Tests for the Dataset container."""

import numpy as np
import pytest

from repro.datasets.base import Dataset
from repro.graph.streams import StreamEdge


class TestLayout:
    def test_type_ranges_contiguous(self, small_dataset):
        assert small_dataset.type_range("user") == (0, 5)
        assert small_dataset.type_range("video") == (5, 10)
        assert small_dataset.num_nodes == 10

    def test_nodes_of_type(self, small_dataset):
        assert list(small_dataset.nodes_of_type("video")) == [5, 6, 7, 8, 9]

    def test_node_type_of(self, small_dataset):
        assert small_dataset.node_type_of(0) == "user"
        assert small_dataset.node_type_of(9) == "video"

    def test_node_type_of_out_of_range(self, small_dataset):
        with pytest.raises(IndexError):
            small_dataset.node_type_of(10)

    def test_unknown_type_range(self, small_dataset):
        with pytest.raises(KeyError):
            small_dataset.type_range("author")

    def test_negative_count_rejected(self, schema, small_stream):
        with pytest.raises(ValueError):
            Dataset("bad", schema, [("user", -1)], small_stream)

    def test_invalid_metapath_rejected(self, schema, small_stream):
        from repro.graph.metapath import MultiplexMetapath

        bad = MultiplexMetapath.create(["user", "video"], [["share"]])
        with pytest.raises(KeyError):
            Dataset("bad", schema, [("user", 5), ("video", 5)], small_stream, [bad])


class TestGraphs:
    def test_build_graph_full(self, small_dataset):
        g = small_dataset.build_graph()
        assert g.num_edges == small_dataset.num_edges
        assert g.num_nodes == small_dataset.num_nodes

    def test_build_graph_substream(self, small_dataset):
        train, _, _ = small_dataset.split(0.5, 0.1)
        g = small_dataset.build_graph(train)
        assert g.num_edges == len(train)

    def test_empty_graph(self, small_dataset):
        g = small_dataset.empty_graph()
        assert g.num_edges == 0 and g.num_nodes == 10


class TestQueries:
    def test_ranking_target_user_query(self, small_dataset):
        edge = StreamEdge(0, 5, "click", 1.0)
        query, true, candidates = small_dataset.ranking_target(edge)
        assert (query, true) == (0, 5)
        assert list(candidates) == [5, 6, 7, 8, 9]

    def test_ranking_queries_one_per_edge(self, small_dataset):
        queries = small_dataset.ranking_queries(small_dataset.stream)
        assert len(queries) == small_dataset.num_edges
        for q in queries:
            assert q.true_node in q.candidates

    def test_statistics_table_iii_row(self, small_dataset):
        stats = small_dataset.statistics()
        assert stats == {"|V|": 10, "|E|": 8, "|O|": 2, "|R|": 2, "|T|": 8}

    def test_describe_mentions_metapaths(self, small_dataset):
        assert "user" in small_dataset.describe()

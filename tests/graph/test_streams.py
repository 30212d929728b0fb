"""Tests for edge streams and protocol splits."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.streams import EdgeStream, StreamEdge


def _stream(n: int) -> EdgeStream:
    return EdgeStream([StreamEdge(0, 1, "r", float(i)) for i in range(n)])


class TestConstruction:
    def test_sorts_by_time(self):
        s = EdgeStream(
            [StreamEdge(0, 1, "r", 3.0), StreamEdge(0, 1, "r", 1.0)]
        )
        assert [e.t for e in s] == [1.0, 3.0]

    def test_stable_for_equal_timestamps(self):
        s = EdgeStream(
            [StreamEdge(0, 1, "r", 1.0), StreamEdge(2, 3, "r", 1.0)]
        )
        assert s[0].u == 0 and s[1].u == 2

    def test_slicing_returns_stream(self):
        s = _stream(10)
        sub = s[2:5]
        assert isinstance(sub, EdgeStream)
        assert len(sub) == 3

    def test_timestamps(self):
        assert list(_stream(3).timestamps()) == [0.0, 1.0, 2.0]


class TestChronologicalSplit:
    def test_80_1_19(self):
        train, valid, test = _stream(100).chronological_split(0.80, 0.01)
        assert (len(train), len(valid), len(test)) == (80, 1, 19)

    def test_time_ordering_preserved(self):
        train, valid, test = _stream(100).chronological_split()
        assert train.timestamps().max() < test.timestamps().min()

    def test_parts_partition_the_stream_in_order(self):
        stream = _stream(37)
        parts = stream.chronological_split(0.6, 0.1)
        assert [e for part in parts for e in part] == list(stream)

    def test_bad_fractions(self):
        with pytest.raises(ValueError):
            _stream(10).chronological_split(0.9, 0.2)
        with pytest.raises(ValueError):
            _stream(10).chronological_split(1.5, 0.0)


class TestSequentialBatches:
    def test_batch_sizes(self):
        batches = _stream(10).sequential_batches(4)
        assert [len(b) for b in batches] == [4, 4, 2]

    def test_batches_cover_everything(self):
        batches = _stream(10).sequential_batches(3)
        assert sum(len(b) for b in batches) == 10

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            _stream(10).sequential_batches(0)

    def test_batches_keep_stream_order(self):
        stream = _stream(10)
        batches = stream.sequential_batches(4)
        assert [e for b in batches for e in b] == list(stream)
        assert all(isinstance(b, EdgeStream) for b in batches)


class TestTrainValidSplit:
    def test_last_edges_become_validation(self):
        train, valid = _stream(10).split_train_valid(3)
        assert len(train) == 7 and len(valid) == 3
        assert valid.timestamps().min() > train.timestamps().max()

    def test_shrinks_when_stream_small(self):
        train, valid = _stream(2).split_train_valid(5)
        assert len(train) == 1 and len(valid) == 1

    def test_zero_validation(self):
        train, valid = _stream(5).split_train_valid(0)
        assert len(train) == 5 and len(valid) == 0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            _stream(5).split_train_valid(-1)

    def test_single_edge_is_kept_for_training(self):
        train, valid = _stream(1).split_train_valid(3)
        assert len(train) == 1 and len(valid) == 0


class TestEqualSlices:
    def test_ten_parts(self):
        slices = _stream(100).equal_slices(10)
        assert len(slices) == 10
        assert all(len(s) == 10 for s in slices)

    def test_uneven(self):
        slices = _stream(10).equal_slices(3)
        assert sum(len(s) for s in slices) == 10

    def test_invalid(self):
        with pytest.raises(ValueError):
            _stream(10).equal_slices(0)

    def test_more_parts_than_edges_leaves_empty_slices(self):
        slices = _stream(3).equal_slices(5)
        assert len(slices) == 5
        assert sorted(len(s) for s in slices) == [0, 0, 1, 1, 1]


class TestBuildGraph:
    def test_builds_all_edges(self, schema, small_stream):
        g = small_stream.build_graph(schema, [("user", 5), ("video", 5)])
        assert g.num_edges == len(small_stream)
        assert g.num_nodes == 10

    def test_edges_keep_their_types_and_times(self, schema, small_stream):
        g = small_stream.build_graph(schema, [("user", 5), ("video", 5)])
        stored = [(e.u, e.v, schema.edge_types[e.rel], e.t) for e in g.edges()]
        assert stored == [tuple(e) for e in small_stream]  # insertion order

    def test_max_neighbors_forwarded(self, schema, small_stream):
        g = small_stream.build_graph(schema, [("user", 5), ("video", 5)], max_neighbors=1)
        assert g.max_neighbors == 1


@given(n=st.integers(5, 200), parts=st.integers(1, 10))
@settings(max_examples=50, deadline=None)
def test_equal_slices_partition(n, parts):
    slices = _stream(n).equal_slices(parts)
    assert sum(len(s) for s in slices) == n
    sizes = [len(s) for s in slices]
    assert max(sizes) - min(sizes) <= 1


class TestSortedFastPath:
    """Already-sorted input must skip the O(n log n) sort entirely."""

    def test_sorted_input_never_calls_sorted(self):
        edges = [StreamEdge(i, i + 1, "r", float(i)) for i in range(50)]
        with mock.patch(
            "repro.graph.streams.sorted",
            create=True,
            side_effect=AssertionError("sorted() called on pre-sorted input"),
        ):
            s = EdgeStream(edges)
        assert [e.t for e in s] == [float(i) for i in range(50)]

    def test_unsorted_input_still_sorts(self):
        edges = [StreamEdge(0, 1, "r", 2.0), StreamEdge(0, 1, "r", 1.0)]
        with mock.patch(
            "repro.graph.streams.sorted",
            create=True,
            side_effect=AssertionError("sorted() called"),
        ):
            with pytest.raises(AssertionError):
                EdgeStream(edges)
        assert [e.t for e in EdgeStream(edges)] == [1.0, 2.0]

    def test_fast_path_preserves_identity_order(self):
        """Equal-timestamp runs keep the exact input objects in order."""
        edges = [StreamEdge(i, i + 1, "r", 1.0) for i in range(10)]
        s = EdgeStream(edges)
        assert all(s[i] is edges[i] for i in range(10))

    @given(
        ts=st.lists(st.floats(0.0, 100.0, allow_nan=False), min_size=1, max_size=60)
    )
    @settings(max_examples=50, deadline=None)
    def test_fast_path_agrees_with_sort(self, ts):
        edges = [StreamEdge(0, 1, "r", t) for t in ts]
        assert [e.t for e in EdgeStream(edges)] == sorted(ts)

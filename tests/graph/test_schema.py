"""Tests for GraphSchema."""

import pytest

from repro.graph.schema import GraphSchema


class TestConstruction:
    def test_create_homogeneous_defaults_endpoints(self):
        s = GraphSchema.create(["user"], ["msg"])
        assert s.endpoints_of("msg") == ("user", "user")

    def test_duplicate_node_types_raise(self):
        with pytest.raises(ValueError, match="duplicate node"):
            GraphSchema(("a", "a"), ("r",), {})

    def test_duplicate_edge_types_raise(self):
        with pytest.raises(ValueError, match="duplicate edge"):
            GraphSchema(("a",), ("r", "r"), {})

    def test_empty_node_types_raise(self):
        with pytest.raises(ValueError):
            GraphSchema((), ("r",), {})

    def test_empty_edge_types_raise(self):
        with pytest.raises(ValueError):
            GraphSchema(("a",), (), {})

    def test_endpoints_unknown_edge_type(self):
        with pytest.raises(ValueError, match="unknown edge type"):
            GraphSchema(("a",), ("r",), {"x": ("a", "a")})

    def test_endpoints_unknown_node_type(self):
        with pytest.raises(ValueError, match="unknown node type"):
            GraphSchema(("a",), ("r",), {"r": ("a", "b")})


class TestLookups:
    def test_type_ids_stable(self, schema):
        assert schema.node_type_id("user") == 0
        assert schema.node_type_id("video") == 1
        assert schema.edge_type_id("click") == 0
        assert schema.edge_type_id("like") == 1

    def test_unknown_node_type_raises(self, schema):
        with pytest.raises(KeyError, match="unknown node type"):
            schema.node_type_id("author")

    def test_unknown_edge_type_raises(self, schema):
        with pytest.raises(KeyError, match="unknown edge type"):
            schema.edge_type_id("share")

    def test_counts(self, schema):
        assert schema.num_node_types == 2
        assert schema.num_edge_types == 2

    def test_endpoints_of(self, schema):
        assert schema.endpoints_of("click") == ("user", "video")

    def test_endpoints_of_unknown(self, schema):
        with pytest.raises(KeyError):
            schema.endpoints_of("share")

    def test_endpoints_of_undeclared(self):
        s = GraphSchema(("a", "b"), ("r",), {})
        with pytest.raises(KeyError, match="no declared endpoints"):
            s.endpoints_of("r")

    def test_describe(self, schema):
        d = schema.describe()
        assert d["|O|"] == 2
        assert d["|R|"] == 2
        assert "user" in d["node_types"]

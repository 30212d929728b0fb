"""Tests for multiplex metapath schemas."""

import dataclasses

import pytest

from repro.graph.metapath import MultiplexMetapath
from repro.graph.sampling import CompiledMetapath
from repro.graph.schema import GraphSchema


class TestConstruction:
    def test_create(self, metapath):
        assert len(metapath) == 3
        assert metapath.head == "user"

    def test_too_short_raises(self):
        with pytest.raises(ValueError, match="at least two"):
            MultiplexMetapath.create(["user"], [])

    def test_wrong_edge_set_count(self):
        with pytest.raises(ValueError, match="edge type sets"):
            MultiplexMetapath.create(["a", "b"], [["r"], ["r"]])

    def test_empty_edge_set(self):
        with pytest.raises(ValueError, match="non-empty"):
            MultiplexMetapath.create(["a", "b"], [[]])

    def test_create_deduplicates_edge_types(self):
        mp = MultiplexMetapath.create(["a", "b"], [["r", "s", "r"]])
        assert mp.edge_type_sets == (frozenset({"r", "s"}),)

    def test_is_immutable(self, metapath):
        with pytest.raises(dataclasses.FrozenInstanceError):
            metapath.node_types = ("video", "user")


class TestSchemaIndex:
    """A walk longer than the schema reuses it: hop ``i`` takes the
    schema's hop ``f(i, |P|-1) = i mod (|P|-1)`` (applied by
    :class:`CompiledMetapath`)."""

    def test_wraps_with_period(self, schema):
        mp = MultiplexMetapath.create(["user", "video", "user"], [["click"], ["like"]])
        compiled = CompiledMetapath(mp, schema)
        assert compiled.period == 2
        click, like = compiled.filters_for(2)
        assert compiled.filters_for(5) == [click, like, click, like, click]

    def test_period_one(self, schema):
        mp = MultiplexMetapath.create(["user", "video"], [["click"]])
        compiled = CompiledMetapath(mp, schema)
        assert compiled.period == 1
        assert compiled.filters_for(7) == compiled.filters_for(1) * 7


class TestWrapping:
    def test_node_type_at_wraps(self, schema, metapath):
        # user -> video -> user -> video -> ...: hop i lands on node i + 1
        compiled = CompiledMetapath(metapath, schema)
        landed = [next_type for _, next_type in compiled.filters_for(4)]
        user, video = schema.node_type_id("user"), schema.node_type_id("video")
        assert compiled.head_type_id == user
        assert landed == [video, user, video, user]

    def test_edge_types_at_wraps(self, schema):
        mp = MultiplexMetapath.create(["user", "video", "user"], [["click"], ["like"]])
        rel_ids = [rels for rels, _ in CompiledMetapath(mp, schema).filters_for(3)]
        assert rel_ids[0] == rel_ids[2] == frozenset({schema.edge_type_id("click")})
        assert rel_ids[1] == frozenset({schema.edge_type_id("like")})


class TestValidation:
    def test_validate_against_ok(self, metapath, schema):
        metapath.validate_against(schema)

    def test_reversed_hop_is_valid(self, schema):
        # ``click`` is declared user -> video; a hop may walk it backwards
        MultiplexMetapath.create(["video", "user"], [["click"]]).validate_against(schema)

    def test_unknown_node_type(self, schema):
        mp = MultiplexMetapath.create(["author", "video"], [["click"]])
        with pytest.raises(KeyError):
            mp.validate_against(schema)

    def test_unknown_edge_type(self, schema):
        mp = MultiplexMetapath.create(["user", "video"], [["share"]])
        with pytest.raises(KeyError):
            mp.validate_against(schema)

    def test_incompatible_endpoints(self):
        schema = GraphSchema.create(
            ["user", "video", "author"],
            ["click", "upload"],
            {"click": ("user", "video"), "upload": ("author", "video")},
        )
        mp = MultiplexMetapath.create(["user", "author"], [["click"]])
        with pytest.raises(ValueError, match="between user and author"):
            mp.validate_against(schema)


def test_describe(metapath):
    assert metapath.describe() == (
        "user -{click,like}-> video -{click,like}-> user"
    )

"""Tests for deletion-as-a-special-relation (Section III-A)."""

import numpy as np
import pytest

from repro.core import SUPA, SUPAConfig
from repro.core.deletion import (
    deletion_edge_type,
    extend_schema_with_deletions,
    process_edge_deletion,
)
from repro.graph.schema import GraphSchema


class TestExtendSchema:
    def test_twins_added_with_endpoints(self, schema):
        extended = extend_schema_with_deletions(schema)
        assert "un_click" in extended.edge_types
        assert "un_like" in extended.edge_types
        assert extended.endpoints_of("un_click") == ("user", "video")

    def test_original_types_kept(self, schema):
        extended = extend_schema_with_deletions(schema)
        for r in schema.edge_types:
            assert r in extended.edge_types

    def test_double_extension_rejected(self, schema):
        extended = extend_schema_with_deletions(schema)
        with pytest.raises(ValueError, match="already carries"):
            extend_schema_with_deletions(extended)

    def test_custom_prefix(self, schema):
        extended = extend_schema_with_deletions(schema, prefix="del_")
        assert "del_click" in extended.edge_types

    def test_twin_name(self):
        assert deletion_edge_type("click") == "un_click"


class TestProcessDeletion:
    def _model(self, schema, metapath):
        extended = extend_schema_with_deletions(schema)
        return SUPA(
            extended,
            [("user", 5), ("video", 5)],
            [metapath],
            SUPAConfig(dim=8, seed=0),
        )

    def test_removes_most_recent_matching_edge(self, schema, metapath):
        model = self._model(schema, metapath)
        model.observe(0, 5, "click", 1.0)
        model.observe(0, 5, "click", 3.0)
        assert model.graph.num_edges == 2
        process_edge_deletion(model, 0, 5, "click", 4.0, learn=False)
        # one click remains, and it is the older one
        remaining = [e for e in model.graph.edges()]
        assert len(remaining) == 1
        assert remaining[0].t == 1.0

    def test_learns_on_twin_relation(self, schema, metapath):
        model = self._model(schema, metapath)
        model.observe(0, 5, "click", 1.0)
        loss = process_edge_deletion(model, 0, 5, "click", 2.0)
        assert loss is not None and loss > 0
        # The un-event is inserted as a first-class edge.
        kinds = {model.schema.edge_types[e.rel] for e in model.graph.edges()}
        assert "un_click" in kinds

    def test_no_matching_edge_returns_none(self, schema, metapath):
        model = self._model(schema, metapath)
        model.observe(0, 5, "click", 1.0)
        assert process_edge_deletion(model, 0, 6, "click", 2.0) is None
        assert process_edge_deletion(model, 0, 5, "like", 2.0) is None

    def test_future_edges_not_deleted(self, schema, metapath):
        model = self._model(schema, metapath)
        model.observe(0, 5, "click", 10.0)
        assert process_edge_deletion(model, 0, 5, "click", 5.0) is None

    def test_deletes_edge_capped_out_of_both_lists(self, schema, metapath):
        """Under a recency cap the matching edge may be traversable from
        neither endpoint; it is still live and must still be deleted."""
        model = SUPA(
            schema, [("user", 5), ("video", 5)], [metapath], SUPAConfig(dim=8),
            max_neighbors=1,
        )
        model.observe(0, 5, "click", 1.0)
        model.observe(0, 6, "click", 2.0)
        model.observe(1, 5, "click", 2.5)
        process_edge_deletion(model, 0, 5, "click", 3.0, learn=False)
        assert 0 not in [e.index for e in model.graph.edges()]
        assert model.graph.num_edges == 2
        assert model.graph.degrees()[0] == 1 and model.graph.degrees()[5] == 1

    def test_newest_match_wins_even_when_capped_out(self, schema, metapath):
        model = SUPA(
            schema, [("user", 5), ("video", 5)], [metapath], SUPAConfig(dim=8),
            max_neighbors=2,
        )
        model.observe(0, 5, "click", 3.0)  # newest match, capped out below
        model.observe(0, 5, "click", 1.0)
        model.observe(0, 6, "click", 2.0)
        process_edge_deletion(model, 0, 5, "click", 4.0, learn=False)
        assert [e.index for e in model.graph.edges()] == [1, 2]

    def test_plain_schema_deletes_without_learning(self, schema, metapath):
        model = SUPA(
            schema, [("user", 5), ("video", 5)], [metapath], SUPAConfig(dim=8)
        )
        model.observe(0, 5, "click", 1.0)
        result = process_edge_deletion(model, 0, 5, "click", 2.0)
        assert result is None
        assert model.graph.num_edges == 0

    def test_deletion_changes_recommendations(self, schema, metapath):
        """After un-click training events, the deleted pair's score drops
        relative to an untouched control pair."""
        model = self._model(schema, metapath)
        for t in range(10):
            model.process_edge(0, 5, "click", float(t))
            model.process_edge(0, 6, "click", float(t) + 0.5)
        before = model.score(0, np.array([5, 6]), "click", 10.0)
        for t in range(10, 25):
            process_edge_deletion(model, 0, 5, "click", float(t))
            model.process_edge(0, 5, "un_click", float(t) + 0.25)
        after = model.score(0, np.array([5, 6]), "click", 26.0)
        margin_before = before[0] - before[1]
        margin_after = after[0] - after[1]
        assert margin_after < margin_before

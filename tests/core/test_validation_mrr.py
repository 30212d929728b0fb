"""Tests for InsLearn's validation scorer on edge-role corner cases."""

import numpy as np
import pytest

from repro.core import SUPA, SUPAConfig
from repro.core.inslearn import validation_mrr
from repro.datasets.base import Dataset
from repro.graph.dmhg import DMHG
from repro.graph.metapath import MultiplexMetapath
from repro.graph.schema import GraphSchema
from repro.graph.streams import EdgeStream, StreamEdge
from repro.utils.rng import new_rng


@pytest.fixture
def model(small_dataset):
    m = SUPA.for_dataset(small_dataset, SUPAConfig(dim=8, seed=0))
    for e in small_dataset.stream:
        m.observe(e.u, e.v, e.edge_type, e.t)
    return m


class TestValidationMRR:
    def test_reversed_edge_order_handled(self, model):
        """An edge recorded (video, user) still ranks the correct side:
        the user queries, the video is the ground truth, and the
        distractors are videos (same type as the true node)."""
        forward = StreamEdge(0, 5, "click", 9.0)
        reversed_edge = StreamEdge(5, 0, "click", 9.0)
        a = validation_mrr(model, [forward], num_candidates=5, rng=0)
        b = validation_mrr(model, [reversed_edge], num_candidates=5, rng=0)
        assert a > 0 and b > 0
        # identical pools (seeded) -> identical score either way round
        assert a == b

    def test_score_in_unit_interval(self, model, small_stream):
        score = validation_mrr(model, list(small_stream), num_candidates=5, rng=0)
        assert 0.0 < score <= 1.0

    def test_single_candidate_pool_skipped(self, small_dataset):
        """A true-node type with one node contributes nothing (rank is
        trivially 1 and carries no signal)."""
        schema = GraphSchema.create(
            ["user", "video"], ["click"], {"click": ("user", "video")}
        )
        ds = Dataset(
            "one-video",
            schema,
            [("user", 3), ("video", 1)],
            EdgeStream([StreamEdge(0, 3, "click", 1.0)]),
        )
        m = SUPA.for_dataset(ds, SUPAConfig(dim=4))
        m.observe(0, 3, "click", 1.0)
        assert validation_mrr(m, [StreamEdge(1, 3, "click", 2.0)], rng=0) == 0.0


def _per_edge_validation_mrr(model, edges, num_candidates=100, rng=0):
    """The per-edge scorer the one-pass ``validation_mrr`` replaced: a
    Python-list pool and one ``model.score`` per edge.  The oracle for
    its bits and its RNG stream."""
    rng = new_rng(rng)
    reciprocal = []
    for e in edges:
        src_type, _ = model.schema.endpoints_of(e.edge_type)
        if model.graph.node_type(e.u) == src_type:
            query, true = e.u, e.v
        else:
            query, true = e.v, e.u
        pool = model.graph.nodes_of_type(model.graph.node_type(true)).tolist()
        if len(pool) <= 1:
            continue
        distractors = rng.choice(
            pool, size=min(num_candidates - 1, len(pool)), replace=False
        )
        candidates = np.concatenate(([true], distractors[distractors != true]))
        scores = model.score(query, candidates, e.edge_type, e.t)
        rank = 1.0 + np.sum(scores > scores[0]) + 0.5 * np.sum(scores[1:] == scores[0])
        reciprocal.append(1.0 / rank)
    return float(np.mean(reciprocal)) if reciprocal else 0.0


#: users 0-7, videos 8-19, one channel (20): a "follow" edge's pool is
#: a single node, so it is skipped wherever it sits in the tail
_SCHEMA = GraphSchema.create(
    ["user", "video", "channel"],
    ["click", "like", "follow"],
    {
        "click": ("user", "video"),
        "like": ("user", "video"),
        "follow": ("user", "channel"),
    },
)
_CHANNEL = 20


def _edge(rng, t):
    user = int(rng.integers(0, 8))
    kind = ("click", "like", "follow")[int(rng.integers(0, 3))]
    other = _CHANNEL if kind == "follow" else int(rng.integers(8, 20))
    return StreamEdge(user, other, kind, t)


def _trained(typed_context, use_forgetting):
    """A model trained on 60 edges of the three-type universe; two
    videos never interact (their active interval clamps from -inf)."""
    rng = np.random.default_rng(3)
    stream = [_edge(rng, float(t)) for t in range(60)]
    stream = [e for e in stream if e.v not in (18, 19)]
    ds = Dataset(
        "mixed",
        _SCHEMA,
        [("user", 8), ("video", 12), ("channel", 1)],
        EdgeStream(stream),
        metapaths=[
            MultiplexMetapath.create(
                ["user", "video", "user"], [["click", "like"], ["click", "like"]]
            )
        ],
    )
    cfg = SUPAConfig(
        dim=8,
        seed=0,
        typed_context=typed_context,
        use_forgetting=use_forgetting,
    )
    model = SUPA.for_dataset(ds, cfg)
    model.process_stream(stream)
    return model


def _tail(seed, size=25):
    """Mixed relations, every third record reversed to (target, source),
    times spread past the training stream."""
    rng = np.random.default_rng(seed)
    tail = []
    for i in range(size):
        e = _edge(rng, 60.0 + 0.37 * i)
        tail.append(StreamEdge(e.v, e.u, e.edge_type, e.t) if i % 3 == 0 else e)
    tail[len(tail) // 2] = StreamEdge(2, _CHANNEL, "follow", 61.5)  # skipped mid-tail
    tail.append(StreamEdge(3, 19, "click", 70.0))  # never-seen true node
    return tail


@pytest.mark.parametrize("use_forgetting", [True, False])
@pytest.mark.parametrize("typed_context", [True, False])
class TestOnePassOracle:
    """The one-pass scorer equals the per-edge loop byte for byte: the
    same score (``==``) and the same generator state afterwards."""

    @pytest.mark.parametrize("num_candidates", [2, 4, 50])
    def test_matches_per_edge_loop(
        self, typed_context, use_forgetting, num_candidates
    ):
        # 50 > the 12-video pool: every draw is a full permutation, so
        # the true node is always among the distractors and dropped
        model = _trained(typed_context, use_forgetting)
        fast, slow = np.random.default_rng(11), np.random.default_rng(11)
        for seed in range(4):  # consecutive tails share one generator
            tail = _tail(seed)
            assert any(e.edge_type == "follow" for e in tail)
            assert validation_mrr(
                model, tail, num_candidates=num_candidates, rng=fast
            ) == _per_edge_validation_mrr(
                model, tail, num_candidates=num_candidates, rng=slow
            )
            assert fast.bit_generator.state == slow.bit_generator.state

    def test_tail_of_skipped_edges_draws_nothing(
        self, typed_context, use_forgetting
    ):
        model = _trained(typed_context, use_forgetting)
        rng = np.random.default_rng(5)
        before = rng.bit_generator.state
        tail = [StreamEdge(u, _CHANNEL, "follow", 65.0) for u in range(3)]
        assert validation_mrr(model, tail, rng=rng) == 0.0
        assert rng.bit_generator.state == before


class TestOneGather:
    def test_a_tail_enters_the_embedding_gather_once(self, monkeypatch):
        """One ``validation_mrr`` call reads last-interaction times once,
        however many edges its tail scores.

        The mutation that turns this red: restore the per-edge
        ``model.score(query, candidates, e.edge_type, e.t)`` in
        ``validation_mrr`` (two gathers per scored edge, ≈ 50 here).
        """
        model = _trained(True, True)
        calls = []
        gather = DMHG.last_interaction_times
        monkeypatch.setattr(
            DMHG,
            "last_interaction_times",
            lambda self, nodes: (calls.append(1), gather(self, nodes))[1],
        )
        tail = _tail(0)
        validation_mrr(model, tail, num_candidates=6, rng=0)
        assert len(calls) == 1

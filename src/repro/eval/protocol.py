"""The paper's experiment protocols, run by its benchmarks and the CLI.

* :class:`LinkPredictionProtocol` — Section IV-C/IV-D: chronological
  80/1/19 split, full-catalogue ranking on the test tail (Tables V/VI,
  ``repro train`` / ``compare``).
* :class:`DynamicLinkPredictionProtocol` — Section IV-E: ten equal
  time slices, (re)train on ``E_i``, evaluate on ``E_{i+1}`` (Figs. 4
  and 5).
* :class:`NeighborhoodDisturbanceProtocol` — Section IV-F: train on
  the most recent subgraph under a per-node recency cap ``eta`` (Fig. 6).

The split protocols train on the 80 % prefix alone: the 1 % validation
slice only moves the test tail's start.  Models enter through factories
so each protocol stage starts from a fresh, identically configured
model, and one stage's models are all ranked on the same query subsample
(:class:`~repro.eval.ranking.RankingEvaluator` draws it from its seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Sequence, Tuple

from repro.eval.ranking import EvaluationResult, RankingEvaluator, RankingQuery
from repro.graph.streams import EdgeStream
from repro.utils.timer import Timer

if TYPE_CHECKING:  # type-only imports; avoids circular module loading
    from repro.baselines.base import BaselineModel
    from repro.datasets.base import Dataset

ModelFactory = Callable[["Dataset"], "BaselineModel"]


def capped_stream(dataset: Dataset, stream: EdgeStream, eta: Optional[int]) -> EdgeStream:
    """The "most recent subgraph" of ``stream`` under recency cap ``eta``.

    Replays the stream through a capped graph and keeps the edges still
    traversable at the end — what a memory-constrained platform retains.
    ``eta=None`` returns the stream unchanged.
    """
    if eta is None:
        return stream
    graph = dataset.build_graph(stream, max_neighbors=eta)
    surviving = set(graph.traversable_edge_indices())
    return EdgeStream([e for i, e in enumerate(stream) if i in surviving])


@dataclass
class ProtocolResult:
    """Outcome of one protocol stage: metrics plus fit wall-clock."""

    metrics: Dict[str, float]
    fit_seconds: float
    evaluation: EvaluationResult = field(repr=False, default=None)

    def __getitem__(self, key: str) -> float:
        return self.metrics[key]


def _evaluator(protocol) -> RankingEvaluator:
    return RankingEvaluator(
        hit_ks=protocol.hit_ks,
        ndcg_k=protocol.ndcg_k,
        max_queries=protocol.max_queries,
        seed=protocol.seed,
    )


def _timed_fit(model: BaselineModel, stream: EdgeStream) -> float:
    fit_timer = Timer()
    with fit_timer:
        model.fit(stream)
    return fit_timer.elapsed


def _ranked(
    model: BaselineModel,
    fit_seconds: float,
    evaluator: RankingEvaluator,
    queries: Sequence[RankingQuery],
) -> ProtocolResult:
    evaluation = evaluator.evaluate(model, queries)
    return ProtocolResult(evaluation.metrics, fit_seconds, evaluation)


@dataclass
class LinkPredictionProtocol:
    """Chronological split + full-catalogue ranking (Sections IV-C/D)."""

    train_frac: float = 0.80
    valid_frac: float = 0.01
    hit_ks: Tuple[int, ...] = (20, 50)
    ndcg_k: int = 10
    max_queries: Optional[int] = None
    seed: int = 0

    def run(self, factory: ModelFactory, dataset: Dataset) -> ProtocolResult:
        """Fit a fresh model on the training prefix; rank the test tail."""
        train, _, test = dataset.split(self.train_frac, self.valid_frac)
        model = factory(dataset)
        fit_seconds = _timed_fit(model, train)
        queries = dataset.ranking_queries(test)
        return _ranked(model, fit_seconds, _evaluator(self), queries)


@dataclass
class DynamicLinkPredictionProtocol:
    """Train on slice i, evaluate on slice i+1 (Section IV-E).

    Dynamic models (``is_dynamic``) receive each slice through
    ``partial_fit``; static models are refit from scratch on everything
    seen so far (``retrain_factory`` may vary the budget with the
    accumulated edge count, mirroring training-to-convergence).  A
    step's ``fit_seconds`` includes a refit model's construction.
    """

    num_slices: int = 10
    hit_ks: Tuple[int, ...] = (50,)
    ndcg_k: int = 10
    max_queries: Optional[int] = None
    seed: int = 0
    retrain_factory: Optional[Callable[[Dataset, int], BaselineModel]] = None

    def run(
        self, factory: ModelFactory, dataset: Dataset
    ) -> List[ProtocolResult]:
        """Per-step results for steps ``1 .. num_slices - 1``."""
        if self.num_slices < 2:
            raise ValueError(f"need at least 2 slices, got {self.num_slices}")
        slices = dataset.stream.equal_slices(self.num_slices)
        evaluator = _evaluator(self)
        retrain = self.retrain_factory or (lambda ds, _: factory(ds))
        model = factory(dataset)
        seen: List = []
        results: List[ProtocolResult] = []
        for i in range(self.num_slices - 1):
            seen.extend(slices[i])
            fit_timer = Timer()
            with fit_timer:
                if model.is_dynamic:
                    model.partial_fit(slices[i])
                else:
                    model = retrain(dataset, len(seen))
                    model.fit(EdgeStream(list(seen)))
            queries = dataset.ranking_queries(slices[i + 1])
            results.append(_ranked(model, fit_timer.elapsed, evaluator, queries))
        return results


@dataclass
class NeighborhoodDisturbanceProtocol:
    """Link prediction under per-node recency caps (Section IV-F)."""

    etas: Sequence[Optional[int]] = (5, 10, 20, 50, 100, None)
    train_frac: float = 0.80
    valid_frac: float = 0.01
    hit_ks: Tuple[int, ...] = (50,)
    ndcg_k: int = 10
    max_queries: Optional[int] = None
    seed: int = 0

    def run(
        self,
        factory: Callable[[Dataset, Optional[int]], BaselineModel],
        dataset: Dataset,
    ) -> Dict[Optional[int], ProtocolResult]:
        """One result per eta; ``factory(dataset, eta)`` builds the model
        (SUPA-style models can pass the cap to their internal graph)."""
        train, _, test = dataset.split(self.train_frac, self.valid_frac)
        queries = dataset.ranking_queries(test)
        evaluator = _evaluator(self)
        out: Dict[Optional[int], ProtocolResult] = {}
        for eta in self.etas:
            capped = capped_stream(dataset, train, eta)
            model = factory(dataset, eta)
            out[eta] = _ranked(model, _timed_fit(model, capped), evaluator, queries)
        return out

    @staticmethod
    def sensitivity(results: Dict[Optional[int], ProtocolResult], metric: str) -> float:
        """Max-minus-min of ``metric`` across etas (the Figure 6 spread)."""
        values = [r.metrics[metric] for r in results.values()]
        return float(max(values) - min(values))

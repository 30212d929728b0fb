"""SUPA wrapped in the shared baseline API.

Lets the benchmark harnesses treat SUPA interchangeably with the sixteen
baselines: ``fit`` runs InsLearn over the stream, ``partial_fit``
continues incrementally (SUPA's whole point — no retraining), ``score``
delegates to Eq. 15.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.baselines.base import BaselineModel
from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig, InsLearnTrainer
from repro.core.model import SUPA
from repro.datasets.base import Dataset
from repro.graph.streams import EdgeStream


def cpu_schedule(dim: int = 32, seed: int = 0) -> Tuple[SUPAConfig, InsLearnConfig]:
    """The CPU-scale SUPA model + InsLearn schedule the paper benches and
    ``repro train`` / ``compare`` run: walks 4 x 3, and ``S_batch`` 1024 /
    ``N_iter`` 8 / ``I_valid`` 2 / ``S_valid`` 100 / patience 2."""
    model_cfg = SUPAConfig(dim=dim, num_walks=4, walk_length=3, seed=seed)
    train_cfg = InsLearnConfig(
        batch_size=1024,
        max_iterations=8,
        validation_interval=2,
        validation_size=100,
        patience=2,
        seed=seed,
    )
    return model_cfg, train_cfg


class SUPARecommender(BaselineModel):
    """SUPA + InsLearn behind the common fit/partial_fit/score interface."""

    name = "SUPA"
    is_dynamic = True

    def __init__(
        self,
        dataset: Dataset,
        dim: int = 32,
        config: Optional[SUPAConfig] = None,
        train_config: Optional[InsLearnConfig] = None,
        max_neighbors: Optional[int] = None,
        seed: int = 0,
    ):
        super().__init__(dataset, dim=dim, seed=seed)
        self.config = (config or SUPAConfig(dim=dim)).with_overrides(dim=dim, seed=seed)
        self.train_config = train_config or InsLearnConfig(seed=seed)
        self.max_neighbors = max_neighbors
        self.model: Optional[SUPA] = None
        self.last_report = None

    def _ensure_model(self) -> SUPA:
        if self.model is None:
            self.model = SUPA.for_dataset(
                self.dataset, self.config, max_neighbors=self.max_neighbors
            )
        return self.model

    def fit(self, stream: EdgeStream) -> None:
        """Fresh model, one InsLearn pass over ``stream``."""
        self.model = None
        model = self._ensure_model()
        trainer = InsLearnTrainer(model, self.train_config)
        self.last_report = trainer.fit(stream)

    def partial_fit(self, stream: EdgeStream) -> None:
        """Continue InsLearn on new edges — no retraining from scratch."""
        model = self._ensure_model()
        trainer = InsLearnTrainer(model, self.train_config)
        self.last_report = trainer.fit(stream)

    def score(
        self, node: int, candidates: np.ndarray, edge_type: str, t: float
    ) -> np.ndarray:
        if self.model is None:
            raise RuntimeError("SUPARecommender.score() called before fit()")
        return self.model.score(node, candidates, edge_type, t)

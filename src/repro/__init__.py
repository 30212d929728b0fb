"""SUPA / InsLearn: instant representation learning for recommendation
over large dynamic graphs (ICDE 2023), reproduced in pure Python.

Public entry points::

    from repro import SUPA, SUPAConfig, InsLearnTrainer, load_dataset
    from repro.baselines import make_baseline
    from repro.eval import RankingEvaluator

See README.md for a quickstart and DESIGN.md for the system inventory.
"""

from repro.core import (
    SUPA,
    InsLearnConfig,
    InsLearnTrainer,
    SUPAConfig,
    make_variant,
    tau_from_g,
    train_conventional,
)
from repro.datasets import Dataset, load_dataset
from repro.eval import RankingEvaluator
from repro.graph import DMHG, EdgeStream, GraphSchema, MultiplexMetapath
from repro.serve import RecommendationService, ServeConfig

__version__ = "1.0.0"

__all__ = [
    "SUPA",
    "SUPAConfig",
    "InsLearnTrainer",
    "InsLearnConfig",
    "train_conventional",
    "make_variant",
    "tau_from_g",
    "Dataset",
    "load_dataset",
    "RankingEvaluator",
    "DMHG",
    "EdgeStream",
    "GraphSchema",
    "MultiplexMetapath",
    "RecommendationService",
    "ServeConfig",
    "__version__",
]

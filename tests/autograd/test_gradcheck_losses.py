"""Finite-difference gradient checks for the row-lookup primitive
(:meth:`Tensor.gather_rows`): its gradient scatter-adds into the table."""

import numpy as np

from repro.autograd.tensor import Tensor

from tests.autograd.test_tensor import check_gradients


class TestEmbeddingGradients:
    def test_embedding_scatter_add(self):
        rng = np.random.default_rng(2)
        indices = np.array([0, 2, 2, 1])
        check_gradients(
            lambda table: table.gather_rows(indices), rng.normal(size=(3, 4))
        )

    def test_embedding_duplicate_rows_accumulate(self):
        # Weight the lookup so duplicated indices contribute distinct
        # per-row gradients that must sum into the same table row.
        rng = np.random.default_rng(3)
        indices = np.array([1, 1, 0])
        weights = Tensor(rng.normal(size=(3, 2)))
        check_gradients(
            lambda table: table.gather_rows(indices) * weights,
            rng.normal(size=(2, 2)),
        )

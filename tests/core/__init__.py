import numpy as np

from repro.core.engine.engine import ReferenceEngine
from repro.core.model import SUPA


def build_model(dataset, config, engine="batched") -> SUPA:
    """A freshly built model; ``engine="reference"`` installs the
    per-edge oracle on it.  No configuration selects the oracle, and
    engine construction draws no RNG, so the swap moves no bytes."""
    model = SUPA.for_dataset(dataset, config=config)
    if engine == "reference":
        model.engine = ReferenceEngine()
    return model


def assert_one_row_table(model: SUPA) -> None:
    """``memory.long`` / ``short`` / ``context`` are views, at their
    offsets, of the one table the optimiser steps (and ``alpha`` of the
    alpha chain's column)."""
    memory, optimizer = model.memory, model.optimizer
    table = optimizer.table.param
    n = memory.num_nodes
    assert table is memory.table
    for view, block in (
        (memory.long, table[:n]),
        (memory.short, table[n : 2 * n]),
        (memory.context, table[2 * n :].reshape(memory.context.shape)),
    ):
        # same address, shape and strides: the view *is* that block
        assert view.__array_interface__ == block.__array_interface__
    assert np.shares_memory(optimizer.alpha.param, memory.alpha)

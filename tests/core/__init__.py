from repro.core.engine.engine import ReferenceEngine
from repro.core.model import SUPA


def build_model(dataset, config, engine="batched") -> SUPA:
    """A freshly built model; ``engine="reference"`` installs the
    per-edge oracle on it.  No configuration selects the oracle, and
    engine construction draws no RNG, so the swap moves no bytes."""
    model = SUPA.for_dataset(dataset, config=config)
    if engine == "reference":
        model.engine = ReferenceEngine(model)
    return model

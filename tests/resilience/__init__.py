from repro.resilience.recovery import QueueLogState


def fold(records, state=None):
    """Fold ``records`` through ``QueueLogState.apply``, the one
    transition, keeping the cut batches in ``trained`` — the tests'
    oracle; ``src`` has no fold besides ``catch_up``'s."""
    state = state if state is not None else QueueLogState()
    for record in records:
        state.trained.extend(state.apply(record) or ())
    return state

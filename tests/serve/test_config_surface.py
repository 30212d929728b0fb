"""The option surface is pinned.

Every field here doubles the configurations the tests and the benchmark
spine have to cover.  A new knob has to edit this file — and the PR that
does should name the two real callers (not tests, not examples) that
need different values; with one value in use, make it a constant next to
the code that reads it (ROADMAP aim 2).
"""

import dataclasses
import inspect

from repro.core.config import SUPAConfig
from repro.serve.index import TopKIndex
from repro.serve.service import ServeConfig


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_serve_config_fields():
    assert field_names(ServeConfig) == {
        "edge_type", "batch_size", "capacity", "overflow", "cache_size",
        "warm_users", "read_only",
        "wal_path", "wal_fsync", "wal_segment_bytes",
        "checkpoint_dir", "checkpoint_every", "late_tolerance",
        "breaker_threshold", "breaker_cooldown_events",
        "clock_fn", "async_dispatch", "dispatch_poll_seconds", "admission",
    }


def test_supa_config_fields():
    assert field_names(SUPAConfig) == {
        "dim", "num_walks", "walk_length", "num_negatives",
        "tau", "tau_g_value", "learning_rate", "weight_decay", "init_std",
        "noise_power", "negative_table_refresh",
        "use_inter", "use_prop", "use_neg", "typed_alpha", "typed_context",
        "use_short_term", "use_propagation_decay", "use_forgetting",
        "decay_at_inference", "trace", "seed",
    }


def test_top_k_index_constructor():
    assert list(inspect.signature(TopKIndex).parameters) == [
        "candidates", "cache_size", "score_block",
    ]

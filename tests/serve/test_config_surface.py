"""The option surface is pinned.

Every field here doubles the configurations the tests and the benchmark
spine have to cover.  A new knob has to edit this file — and the PR that
does should name the two real callers (not tests, not examples) that
need different values; with one value in use, make it a constant next to
the code that reads it (ROADMAP aim 2).
"""

import argparse
import dataclasses
import inspect

from repro.cli import build_parser
from repro.core.config import SUPAConfig
from repro.core.inslearn import InsLearnConfig
from repro.obs.metrics import Counter, Gauge
from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.wal import WriteAheadLog
from repro.serve.admission import AdmissionConfig
from repro.serve.index import TopKIndex
from repro.serve.ingest import OVERFLOW_POLICIES
from repro.serve.service import ServeConfig
from repro.serve.store import DecayedEmbeddingStore, VersionedEmbeddingStore


def field_names(cls):
    return {f.name for f in dataclasses.fields(cls)}


def test_serve_config_fields():
    assert field_names(ServeConfig) == {
        "batch_size", "capacity", "overflow", "cache_size",
        "read_only",
        "wal_path", "wal_fsync",
        "checkpoint_dir", "checkpoint_every", "late_tolerance",
        "clock_fn", "async_dispatch", "admission",
    }


def test_supa_config_fields():
    assert field_names(SUPAConfig) == {
        "dim", "num_walks", "walk_length", "num_negatives",
        "tau",
        "use_inter", "use_prop", "use_neg", "typed_alpha", "typed_context",
        "use_short_term", "use_propagation_decay", "use_forgetting",
        "seed",
    }


def test_top_k_index_constructor():
    # SCORE_BLOCK fixes the gemv shape the served bits depend on: no knob
    assert list(inspect.signature(TopKIndex).parameters) == ["candidates", "cache_size"]


def test_store_constructors():
    # the layout is fixed: BLOCK_SIZE blocks, copy-on-write, no compaction
    assert list(inspect.signature(VersionedEmbeddingStore).parameters) == [
        "initial", "block_size",
    ]
    assert list(inspect.signature(DecayedEmbeddingStore).parameters) == [
        "components", "last_times", "alpha", "alpha_slots", "config",
        "clock", "block_size",
    ]


def test_durability_constructors():
    # the log and the checkpoint manager keep their own tallies, which
    # the service's instruments read: neither takes a registry
    assert list(inspect.signature(WriteAheadLog).parameters) == [
        "path", "fsync", "recovered",
    ]
    assert list(inspect.signature(CheckpointManager).parameters) == [
        "directory", "retain",
    ]


def test_instruments_move_one_way():
    # a counter counts or reads its owner; a gauge is set or reads its owner
    assert not hasattr(Counter, "set")
    assert not hasattr(Gauge, "inc") and not hasattr(Gauge, "dec")


def test_admission_config_fields():
    # the low watermark is the constant admission.DEPTH_LOWWATER
    assert field_names(AdmissionConfig) == {"rate_per_user", "burst", "depth_highwater"}


def test_inslearn_config_fields():
    # the paper's S_batch, N_iter, I_valid, S_valid, mu (PAPER.md §IV-C) + ours
    assert field_names(InsLearnConfig) == {
        "batch_size", "max_iterations", "validation_interval",
        "validation_size", "patience", "seed",
    }


def test_overflow_policies():
    assert set(OVERFLOW_POLICIES) == {"raise", "drop_new", "drop_oldest"}


def cli_flags(parser, prefix=""):
    """``{subcommand: its option strings and positionals}`` off a parser."""
    subparsers = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    if not subparsers:
        return {
            prefix.strip(): {
                a.option_strings[-1] if a.option_strings else a.dest
                for a in parser._actions
                if a.dest != "help"
            }
        }
    flags = {}
    for name, sub in subparsers[0].choices.items():
        flags.update(cli_flags(sub, f"{prefix} {name}"))
    return flags


COMMON = {"--dataset", "--scale", "--seed"}
SERVING = {"--k", "--dim", "--batch-size", "--capacity"}
REPLICATE = COMMON | SERVING | {"--state-dir", "--checkpoint-every"}


def test_cli_surface():
    assert cli_flags(build_parser()) == {
        "datasets": {"--scale", "--seed"},
        "train": COMMON | {"--method", "--dim", "--max-queries"},
        "compare": COMMON | {"--methods", "--dim", "--max-queries"},
        "mine": COMMON,
        "export": COMMON | {"--output"},
        "serve-replay": COMMON | SERVING | {
            "--probe-every", "--max-parity-users", "--min-parity", "--output",
            "--trace", "--output-dir",  # the telemetry story
        },
        "replicate primary": REPLICATE | {"--heartbeat-every", "--events"},
        "replicate follower": REPLICATE | {"--probes"},
        "replicate promote": REPLICATE | {
            "--replica-dir", "--resume-from", "--events", "--verify-parity", "--probes",
        },
    }

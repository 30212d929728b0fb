"""Tests for the InsLearn workflow (Algorithm 1)."""

import numpy as np
import pytest

from repro.core import inslearn
from repro.core.config import SUPAConfig
from repro.core.inslearn import (
    InsLearnConfig,
    InsLearnTrainer,
    train_conventional,
    validation_mrr,
)
from repro.core.model import SUPA
from tests.core import build_model


@pytest.fixture
def model(tiny_synthetic):
    return SUPA.for_dataset(tiny_synthetic, SUPAConfig(dim=8, seed=0))


@pytest.fixture
def train_stream(tiny_synthetic):
    train, _, _ = tiny_synthetic.split()
    return train


class TestConfig:
    def test_defaults_match_paper(self):
        cfg = InsLearnConfig()
        assert cfg.batch_size == 1024
        assert cfg.validation_interval == 8
        assert cfg.validation_size == 150
        assert cfg.patience == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(batch_size=0),
            dict(max_iterations=0),
            dict(validation_interval=0),
            dict(patience=-1),
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            InsLearnConfig(**kwargs)

    def test_refuses_negative_validation_size(self):
        """Accepted, it would fail only inside the first batch's split —
        in serving, a dispatcher-side update failure."""
        with pytest.raises(ValueError, match="validation_size must be >= 0"):
            InsLearnConfig(validation_size=-1)
        assert InsLearnConfig(validation_size=0).validation_size == 0



class TestFit:
    def test_processes_every_edge(self, model, train_stream):
        cfg = InsLearnConfig(
            batch_size=100, max_iterations=2, validation_interval=1, validation_size=10
        )
        report = InsLearnTrainer(model, cfg).fit(train_stream)
        edges = sum(b.num_train_edges + b.num_valid_edges for b in report.batches)
        assert edges == len(train_stream)
        assert model.graph.num_edges == len(train_stream)

    def test_batch_count(self, model, train_stream):
        cfg = InsLearnConfig(
            batch_size=100, max_iterations=1, validation_interval=1, validation_size=10
        )
        report = InsLearnTrainer(model, cfg).fit(train_stream)
        expected = int(np.ceil(len(train_stream) / 100))
        assert len(report.batches) == expected

    def test_iteration_cap_respected(self, model, train_stream):
        cfg = InsLearnConfig(
            batch_size=200,
            max_iterations=3,
            validation_interval=10,  # never validates -> runs to the cap
            validation_size=10,
        )
        report = InsLearnTrainer(model, cfg).fit(train_stream[:200])
        assert report.batches[0].iterations_run == 3

    def test_early_stopping_can_trigger(self, model, train_stream):
        cfg = InsLearnConfig(
            batch_size=200,
            max_iterations=50,
            validation_interval=1,
            validation_size=30,
            patience=0,
        )
        report = InsLearnTrainer(model, cfg).fit(train_stream[:200])
        assert report.batches[0].iterations_run < 50

    def test_training_improves_validation(self, tiny_synthetic):
        train, _, test = tiny_synthetic.split()
        trained = SUPA.for_dataset(tiny_synthetic, SUPAConfig(dim=8, seed=0))
        cfg = InsLearnConfig(
            batch_size=200, max_iterations=4, validation_interval=2, validation_size=20
        )
        InsLearnTrainer(trained, cfg).fit(train)
        untrained = SUPA.for_dataset(tiny_synthetic, SUPAConfig(dim=8, seed=0))
        for e in train:
            untrained.observe(e.u, e.v, e.edge_type, e.t)
        score_trained = validation_mrr(trained, list(test)[:50], rng=0)
        score_untrained = validation_mrr(untrained, list(test)[:50], rng=0)
        assert score_trained > score_untrained

    def test_report_statistics(self, model, train_stream):
        cfg = InsLearnConfig(
            batch_size=150, max_iterations=2, validation_interval=1, validation_size=20
        )
        report = InsLearnTrainer(model, cfg).fit(train_stream[:300])
        for batch in report.batches:
            assert batch.best_score >= 0.0
            assert batch.mean_loss > 0


class TestValidationMRR:
    def test_empty_edges(self, model):
        assert validation_mrr(model, []) == 0.0

    def test_in_unit_interval(self, model, train_stream):
        for e in train_stream[:50]:
            model.observe(e.u, e.v, e.edge_type, e.t)
        score = validation_mrr(model, list(train_stream[:20]), rng=0)
        assert 0.0 <= score <= 1.0

    def test_perfect_model_scores_high(self, tiny_synthetic):
        """A model trained hard on one pair ranks that pair first."""
        model = SUPA.for_dataset(tiny_synthetic, SUPAConfig(dim=8, seed=0))
        e = tiny_synthetic.stream[0]
        model.observe(e.u, e.v, e.edge_type, e.t)
        for _ in range(60):
            model.train_step(e.u, e.v, e.edge_type, e.t + 1, 1.0, 1.0)
        score = validation_mrr(model, [e], num_candidates=20, rng=0)
        assert score > 0.5


class TestConventionalTraining:
    def test_epochs_validation(self, model, train_stream):
        with pytest.raises(ValueError):
            train_conventional(model, train_stream, epochs=0)

    def test_runs_and_reports(self, model, train_stream):
        report = train_conventional(model, train_stream[:150], epochs=2)
        assert report.batches[0].iterations_run == 2
        assert model.graph.num_edges == 150

    def test_multi_epoch_trains_more(self, tiny_synthetic, train_stream):
        one = SUPA.for_dataset(tiny_synthetic, SUPAConfig(dim=8, seed=0))
        train_conventional(one, train_stream[:100], epochs=1)
        three = SUPA.for_dataset(tiny_synthetic, SUPAConfig(dim=8, seed=0))
        report = train_conventional(three, train_stream[:100], epochs=3)
        assert report.batches[0].iterations_run == 3


def _assert_state_identical(a, b, path=""):
    """Recursively require byte-identical learnable state."""
    assert type(a) is type(b), f"{path}: {type(a)} != {type(b)}"
    if isinstance(a, dict):
        assert set(a) == set(b), f"{path}: keys differ"
        for key in a:
            _assert_state_identical(a[key], b[key], f"{path}.{key}")
    elif isinstance(a, np.ndarray):
        assert a.dtype == b.dtype and a.shape == b.shape, f"{path}: layout differs"
        assert a.tobytes() == b.tobytes(), f"{path}: values differ"
    else:
        assert a == b, f"{path}: {a!r} != {b!r}"


class TestTrainOneBatch:
    """fit() must be a thin wrapper over the public train_one_batch()."""

    CFG = dict(
        batch_size=100, max_iterations=3, validation_interval=1, validation_size=20
    )

    def test_fit_equals_manual_batch_loop(self, tiny_synthetic, train_stream):
        m_fit = SUPA.for_dataset(tiny_synthetic, SUPAConfig(dim=8, seed=0))
        m_manual = SUPA.for_dataset(tiny_synthetic, SUPAConfig(dim=8, seed=0))
        cfg = InsLearnConfig(**self.CFG)
        fit_report = InsLearnTrainer(m_fit, cfg).fit(train_stream)

        manual = InsLearnTrainer(m_manual, cfg)
        manual_reports = [
            manual.train_one_batch(batch, batch_index=i)
            for i, batch in enumerate(
                train_stream.sequential_batches(cfg.batch_size)
            )
        ]
        _assert_state_identical(m_fit.state_dict(), m_manual.state_dict())
        assert fit_report.batches == manual_reports

    def test_touched_nodes_cover_batch_endpoints(self, model, train_stream):
        cfg = InsLearnConfig(**self.CFG)
        trainer = InsLearnTrainer(model, cfg)
        batch = train_stream[: cfg.batch_size]
        report = trainer.train_one_batch(batch)
        assert report.touched_nodes  # non-empty
        endpoints = {e.u for e in batch} | {e.v for e in batch}
        assert endpoints <= set(report.touched_nodes)
        # sorted and distinct, as the serve store's row publish expects
        assert list(report.touched_nodes) == sorted(set(report.touched_nodes))

    def test_touched_nodes_is_superset_of_changed_rows(
        self, tiny_synthetic, train_stream
    ):
        """Every memory row the batch moves is a touched node's, read on
        the node axis (``context`` is ``(R, N, d)``: slot, node, dim), and
        every alpha that moves is the type slot of some touched node.  One
        negative per side and 40 edges leave some nodes untouched, so the
        claim is not vacuous."""
        model = SUPA.for_dataset(
            tiny_synthetic, SUPAConfig(dim=8, seed=0, num_negatives=1)
        )
        trainer = InsLearnTrainer(model, InsLearnConfig(**self.CFG))
        memory = model.memory
        before = model.state_dict()
        report = trainer.train_one_batch(train_stream[:40])
        touched = np.asarray(report.touched_nodes, dtype=np.int64)
        assert 0 < touched.size < memory.num_nodes
        moved = np.zeros(memory.num_nodes, dtype=bool)
        for name in ("long", "short", "context"):
            now = getattr(memory, name)
            diff = (before[f"memory.{name}"] != now).reshape(-1, *now.shape[-2:])
            moved |= diff.any(axis=(0, 2))
        assert moved.any()
        assert set(np.flatnonzero(moved).tolist()) <= set(touched.tolist())
        moved_alpha = np.flatnonzero(before["memory.alpha"] != memory.alpha)
        touched_slots = memory.alpha_slots(model._node_type_ids[touched])
        assert set(moved_alpha.tolist()) <= set(touched_slots.tolist())


def _oracle_train_one_batch(trainer, batch):
    """Algorithm 1's inner loop with the best model kept as a *full copy*
    (``state_dict`` / ``load_state_dict``) — the oracle the undo-log
    rollback in ``train_one_batch`` must match byte for byte."""
    model, cfg = trainer.model, trainer.config
    train, valid = batch.split_train_valid(cfg.validation_size)
    records = inslearn._record_and_observe(model, list(train))
    best_score, best_state, patience_used = 0.0, model.state_dict(), 0
    validated = False
    for iteration in range(1, cfg.max_iterations + 1):
        inslearn._train_pass(model, records)
        if len(valid) and iteration % cfg.validation_interval == 0:
            validated = True
            score = inslearn.validation_mrr(model, list(valid), rng=trainer._rng)
            if score > best_score:
                best_score, best_state, patience_used = score, model.state_dict(), 0
            else:
                patience_used += 1
                if patience_used > cfg.patience:
                    break
    if validated:
        model.load_state_dict(best_state)
    inslearn._record_and_observe(model, list(valid))
    return best_score


@pytest.mark.parametrize("engine", ["reference", "batched"])
class TestEarlyStoppingRollback:
    """Line 20 through the undo log ≡ the full-snapshot restore, for the
    four ways a batch can end and on every engine's save site."""

    #: validation scores per iteration -> which state line 20 restores
    OUTCOMES = {
        "best_at_first_validation": [0.9, 0.1, 0.2, 0.3],
        "best_at_last_iteration": [0.1, 0.2, 0.3, 0.4],  # rollback is a no-op
        "never_better_than_start": [0.0, 0.0, 0.0, 0.0],  # back to batch start
        "best_in_the_middle_then_patience_runs_out": [0.1, 0.5, 0.2, 0.2],
    }

    def pair(self, tiny_synthetic, engine, **cfg):
        cfg = InsLearnConfig(
            **{
                **dict(
                    batch_size=60,
                    max_iterations=4,
                    validation_interval=1,
                    validation_size=12,
                    patience=1,
                ),
                **cfg,
            }
        )
        make = lambda: InsLearnTrainer(  # noqa: E731
            build_model(tiny_synthetic, SUPAConfig(dim=8, seed=0), engine),
            cfg,
        )
        return make(), make()

    @pytest.mark.parametrize("outcome", sorted(OUTCOMES))
    def test_outcome_matches_full_snapshot_oracle(
        self, tiny_synthetic, train_stream, monkeypatch, engine, outcome
    ):
        trainer, oracle = self.pair(tiny_synthetic, engine)
        script = self.OUTCOMES[outcome]

        def run(step, who):
            # two batches: the second starts from a rolled-back state
            for start in (0, 60):
                scores = iter(script)
                monkeypatch.setattr(
                    inslearn, "validation_mrr", lambda *a, **k: next(scores)
                )
                best = step(who, train_stream[start : start + 60])
            return best

        trained = run(lambda t, b: t.train_one_batch(b).best_score, trainer)
        assert trained == max(script)
        assert run(_oracle_train_one_batch, oracle) == max(script)
        _assert_state_identical(
            trainer.model.state_dict(), oracle.model.state_dict()
        )
        assert (
            trainer.model.rng.bit_generator.state
            == oracle.model.rng.bit_generator.state
        )
        assert all(
            a._undo is None and not a._logged.any()
            for a in trainer.model.optimizer._adams
        )

    def test_no_validation_edges_logs_nothing(
        self, tiny_synthetic, train_stream, monkeypatch, engine
    ):
        trainer, oracle = self.pair(tiny_synthetic, engine, validation_size=0)
        marks = []
        mark = type(trainer.model.optimizer).mark
        monkeypatch.setattr(
            type(trainer.model.optimizer),
            "mark",
            lambda self: (marks.append(1), mark(self))[1],
        )
        trainer.train_one_batch(train_stream[:60])
        _oracle_train_one_batch(oracle, train_stream[:60])
        assert marks == []
        _assert_state_identical(
            trainer.model.state_dict(), oracle.model.state_dict()
        )

    def test_batch_that_never_validates_keeps_its_training(
        self, tiny_synthetic, train_stream, engine
    ):
        """``validation_interval > max_iterations``: no validation runs,
        so there is no best-validated state to restore and the trained
        state stays (rolling back to the only mark, the pre-batch one,
        would discard every pass)."""
        trainer, oracle = self.pair(tiny_synthetic, engine, validation_interval=8)
        memory = trainer.model.memory
        before = memory.long.copy()
        batch = train_stream[:60]
        report = trainer.train_one_batch(batch)
        _oracle_train_one_batch(oracle, batch)
        _assert_state_identical(
            trainer.model.state_dict(), oracle.model.state_dict()
        )
        assert report.iterations_run == 4
        assert report.num_valid_edges == 12 and report.best_score == 0.0
        changed = set(np.flatnonzero((memory.long != before).any(axis=1)).tolist())
        train, _ = batch.split_train_valid(12)
        assert {n for e in train for n in (e.u, e.v)} <= changed
        assert changed <= set(report.touched_nodes)

    def test_exception_in_a_replay_pass_leaves_no_log_open(
        self, tiny_synthetic, train_stream, engine
    ):
        trainer, _ = self.pair(tiny_synthetic, engine)
        model = trainer.model
        train_batch, calls = model.train_batch, []

        def failing(records):
            calls.append(1)
            if len(calls) == 2:
                raise RuntimeError("kernel failure mid-batch")
            return train_batch(records)

        model.train_batch = failing
        with pytest.raises(RuntimeError, match="mid-batch"):
            trainer.train_one_batch(train_stream[:60])
        assert all(
            a._undo is None and not a._logged.any() for a in model.optimizer._adams
        )
        # the next batch runs normally on the same trainer
        model.train_batch = train_batch
        assert trainer.train_one_batch(train_stream[60:120]).iterations_run >= 1

"""Golden parity suite: the production engine (stacked conflict-free
rounds) must be *bitwise* identical to the per-edge oracle of the same
round semantics under fixed seeds.

The sweep trains both engines on the same stream with identical seeds —
across every model variant (``core/variants.py``), decay/termination
settings and walk configurations — and asserts byte-equality of the
full model state, the per-batch reports, and the consumed RNG state.
``tobytes`` comparison is deliberate: it distinguishes ``-0.0`` from
``+0.0`` and catches any reassociated float reduction that ``allclose``
would wave through.  Hand-built micro-batches then hit the cases a
stacked round can get wrong, a mutation check shows the gate goes red
when the barrier order is broken, two golden digests pin single-edge
``train_step`` bytes under the per-pass draw contract, and a third pins
a run under the service's training schedule.

The second half checks every analytic kernel against central finite
differences, and the stacked-vs-per-edge / fused-vs-split identities
the kernels module promises (``test_round_kernels.py`` pins each fused
round kernel against the split form bit for bit over Hypothesis shapes).
"""

import hashlib

import numpy as np
import pytest

from repro.core.config import SUPAConfig, g_decay
from repro.core.engine import engine as engine_module
from repro.core.engine import kernels
from repro.core.engine.plan import compile_plan
from repro.core.inslearn import InsLearnConfig, InsLearnTrainer
from repro.core.engine.schedule import partition_round_indices
from repro.core.variants import VARIANT_BUILDERS, make_variant
from repro.datasets.zoo import movielens
from repro.graph.streams import StreamEdge
from repro.obs.trace import Tracer
from tests.core import build_model
from tests.oracle import kernels as oracle_kernels

BATCH_SIZE = 96
N_BATCHES = 2


def _state_bytes(model):
    """The full model state as one byte string, in name order."""
    return b"".join(array.tobytes() for array in model.state_views().values())


def _train(config, engine="batched", traced=False):
    dataset = movielens(scale=0.08, seed=3)
    model = build_model(dataset, config, engine)
    if traced:
        model.tracer = Tracer()
    trainer = InsLearnTrainer(
        model,
        InsLearnConfig(
            batch_size=BATCH_SIZE,
            max_iterations=4,
            validation_interval=2,
            validation_size=20,
            seed=1,
        ),
    )
    reports = []
    batches = list(dataset.stream.sequential_batches(BATCH_SIZE))[:N_BATCHES]
    for i, batch in enumerate(batches):
        reports.append(trainer.train_one_batch(batch, batch_index=i))
    return model, reports


def _assert_engines_agree(config, traced=False):
    ref_model, ref_reports = _train(config, engine="reference", traced=traced)
    bat_model, bat_reports = _train(config, traced=traced)
    assert _state_bytes(ref_model) == _state_bytes(bat_model)
    for ref, bat in zip(ref_reports, bat_reports):
        assert ref.mean_loss == bat.mean_loss
        assert ref.best_score == bat.best_score
        assert ref.iterations_run == bat.iterations_run
        assert ref.touched_nodes == bat.touched_nodes
        assert isinstance(bat.touched_nodes, tuple)
        assert list(bat.touched_nodes) == sorted(set(bat.touched_nodes))
    # Both engines must make *exactly* the same per-pass draws — equal
    # final generator state is the strongest witness of that.
    assert (
        ref_model.rng.bit_generator.state == bat_model.rng.bit_generator.state
    )


# ------------------------------------------------------------- golden sweep


@pytest.mark.parametrize("variant", sorted(VARIANT_BUILDERS))
def test_variant_parity(variant):
    _assert_engines_agree(make_variant(variant, SUPAConfig(seed=7)))


@pytest.mark.parametrize(
    "overrides",
    [
        {"use_propagation_decay": False},
        {"num_walks": 0},
        {"num_negatives": 0},
        {"walk_length": 5, "num_walks": 6},
        {"tau": 0.5},
        {"use_forgetting": False},
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_walk_and_decay_config_parity(overrides):
    _assert_engines_agree(SUPAConfig(seed=7, **overrides))


def test_batched_engine_is_run_deterministic():
    """Two identically-seeded batched runs are byte-identical — the
    serving layer's replay logs and JSON exports depend on this."""
    model_a, reports_a = _train(SUPAConfig(seed=7))
    model_b, reports_b = _train(SUPAConfig(seed=7))
    assert _state_bytes(model_a) == _state_bytes(model_b)
    for a, b in zip(reports_a, reports_b):
        assert a.touched_nodes == b.touched_nodes
        assert a.mean_loss == b.mean_loss


# ------------------------------------------------------- round edge cases
#
# Hand-built micro-batches that hit what a stacked round can get wrong;
# both engines train the same records over the same observed history.


def _trained_pair(overrides, make_records, history=260):
    """Production and oracle models after one ``train_batch`` of
    ``make_records(dataset, stream_edges)`` (never inserted — only the
    first ``history`` stream edges are)."""
    out = []
    for engine in ("batched", "reference"):
        dataset = movielens(scale=0.3, seed=3)
        edges = list(dataset.stream)
        model = build_model(dataset, SUPAConfig(seed=7, **overrides), engine)
        for e in edges[:history]:
            model.observe(e.u, e.v, e.edge_type, e.t)
        records = make_records(dataset, edges[history:])
        losses = model.train_batch(records)
        out.append((model, losses, records))
    return out


def _assert_pair_identical(pair):
    (bat, bat_losses, records), (ref, ref_losses, _) = pair
    assert bat_losses.tobytes() == ref_losses.tobytes()
    assert _state_bytes(bat) == _state_bytes(ref)
    assert bat.rng.bit_generator.state == ref.rng.bit_generator.state
    assert bat.last_touched_nodes == ref.last_touched_nodes
    assert bat.last_loss_components == ref.last_loss_components
    return bat, records


def _next_records(count):
    def make(dataset, upcoming):
        return [(e, 0.5 + i, 1.5 * i) for i, e in enumerate(upcoming[:count])]

    return make


def _rounds_of(records):
    uv = np.asarray([(e.u, e.v) for e, _, _ in records], dtype=np.int64)
    return partition_round_indices(uv)


def test_self_loop_edge_inside_a_multi_edge_round():
    """``u == v`` collapses the long/short pair to one row and puts the
    same context row twice in the interaction pair."""

    def make(dataset, upcoming):
        records = _next_records(12)(dataset, upcoming)
        loop = records[3][0]
        records[3] = (StreamEdge(loop.u, loop.u, loop.edge_type, loop.t), 0.7, 0.7)
        return records

    _, records = _assert_pair_identical(_trained_pair({}, make))
    loop_round = next(r for r in _rounds_of(records) if 3 in r)
    assert len(loop_round) > 1


@pytest.mark.parametrize(
    "overrides",
    [
        {"typed_alpha": False},  # both endpoints of every edge on one slot
        {"num_negatives": 0},
        {"use_short_term": False},  # g_short and g_alpha are None
        {"use_forgetting": False},  # g_alpha is None
        {"use_inter": False},  # no interaction pair in the catalogue
        {"use_prop": False, "use_neg": False},  # context rows = the pair only
    ],
    ids=lambda o: ",".join(f"{k}={v}" for k, v in o.items()),
)
def test_multi_edge_rounds_parity(overrides):
    _, records = _assert_pair_identical(_trained_pair(overrides, _next_records(40)))
    assert max(len(r) for r in _rounds_of(records)) > 1


def test_edge_with_no_surviving_hops_inside_a_multi_edge_round():
    """An edge between two never-seen nodes has no walk to sample; its
    slices of the round's hop arrays are empty."""

    def make(dataset, upcoming):
        records = _next_records(12)(dataset, upcoming)
        seen = {n for e in list(dataset.stream)[:260] for n in (e.u, e.v)}
        busy = {n for e, _, _ in records for n in (e.u, e.v)}
        fresh_user = next(
            int(n) for n in dataset.nodes_of_type("user") if n not in seen | busy
        )
        fresh_movie = next(
            int(n) for n in dataset.nodes_of_type("movie") if n not in seen | busy
        )
        records[5] = (
            StreamEdge(fresh_user, fresh_movie, "rate", records[5][0].t),
            0.0,
            0.0,
        )
        return records

    bat, records = _assert_pair_identical(_trained_pair({}, make))
    plan = compile_plan(bat, records)
    hop_owner = plan.draw_owner[plan.draw_owner < plan.num_edges]
    hops = np.bincount(plan.edges[hop_owner], minlength=plan.num_edges)
    assert hops[5] == 0 and hops.sum() > 0
    assert len(next(r for r in _rounds_of(records) if 5 in r)) > 1


def test_all_singleton_rounds():
    """A star batch (every edge shares one endpoint) is fully
    sequential: every round holds one edge."""

    def make(dataset, upcoming):
        hub = upcoming[0].u
        movies = dataset.nodes_of_type("movie")[:9]
        return [
            (StreamEdge(hub, int(m), "rate", upcoming[i].t), 0.3 * i, 2.0)
            for i, m in enumerate(movies)
        ]

    _, records = _assert_pair_identical(_trained_pair({}, make))
    assert [len(r) for r in _rounds_of(records)] == [1] * 9


def test_barrier_order_mutation_turns_parity_red(monkeypatch):
    """Mutation check on the parity gate itself: apply each round's
    contended context rows in *reverse* edge order and the suite must
    notice (ROADMAP aim 3: every gate is shown to fail when the thing it
    guards is broken).  The occurrences of a contended row swap their
    gradients: the rank-0 row of the barrier's first call gets the last
    edge's sum, the last sweep the first edge's."""
    real = engine_module.compile_plan

    def reversed_contended_order(model, records):
        plan = real(model, records)
        first = plan.ctx_first.copy()
        dest = plan.ctx_later_dest.copy()
        cuts = plan.barrier_cuts
        for r in range(plan.num_rounds):
            c0, c1 = plan.ctx_bounds[r], plan.ctx_bounds[r + 1]
            rows = plan.ctx_rows[c0:c1]
            swap = np.arange(c1 - c0)
            for row in np.unique(rows[plan.ctx_rank[c0:c1] > 0]):
                hits = np.flatnonzero(rows == row)
                swap[hits] = hits[::-1]
            first[c0:c1] = plan.ctx_first[c0:c1][swap]
            # barrier-local catalogue row = endpoint rows + local index
            ends = int(
                cuts[plan.round_cuts[r + 1]] - cuts[plan.round_cuts[r]]
            ) - (c1 - c0)
            l0, l1 = plan.ctx_later_bounds[r], plan.ctx_later_bounds[r + 1]
            dest[l0:l1] = ends + swap[plan.ctx_later_dest[l0:l1] - ends]
        return plan._replace(ctx_first=first, ctx_later_dest=dest)

    monkeypatch.setattr(engine_module, "compile_plan", reversed_contended_order)
    with pytest.raises(AssertionError):
        _assert_engines_agree(SUPAConfig(seed=7))


# ------------------------------------------------ single-edge golden digest
#
# A streamed edge is a round of one and a pass of one: its bytes are
# fixed by the per-pass draw contract (DESIGN.md §9 rule 2) — one
# ``(1, 2, k, l)`` walk block, then one negative draw per opposite node
# type — and the round executor.  Both digests were captured with this
# function when that contract replaced the per-draw RNG order, and both
# engines must reproduce them.


def _single_edge_digest(config, engine):
    dataset = movielens(scale=0.08, seed=3)
    model = build_model(dataset, config, engine)
    losses = [
        model.process_edge(e.u, e.v, e.edge_type, e.t)
        for e in list(dataset.stream)[:300]
    ]
    digest = hashlib.sha256(_state_bytes(model))
    digest.update(np.asarray(losses, dtype=np.float64).tobytes())
    digest.update(repr(model.rng.bit_generator.state).encode())
    return digest.hexdigest()


PARENT_DIGEST = "19168fb4f3c70332624d5b4200b7641efdb67cd003fc03f38df6c712c9b30f13"
PARENT_DIGEST_NO_INTER = (
    "60cee0e72d51049df4129b5b29a4bd190ee92bd1a95c8710012d0e250a1d3b0c"
)


@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_single_edge_bytes_equal_the_parent_without_eq7(engine):
    """Everything but the interaction score: 300 streamed edges give
    the golden state, losses and RNG state on either engine."""
    config = SUPAConfig(seed=7, use_inter=False)
    assert _single_edge_digest(config, engine) == PARENT_DIGEST_NO_INTER


@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_single_edge_bytes_equal_the_parent_given_its_blas_score(
    monkeypatch, engine
):
    """Eq. 7's score reduces through ``rowwise_dot`` like every other
    inner product; the per-edge executor the round engine replaced used
    BLAS ``np.dot``, whose summation order no stacked kernel can
    reproduce.  Put the BLAS reduction back — in the engine's fused
    Eq. 7 entry, or in the oracle's split forward — and the full model's
    single-edge bytes are the golden digest, which therefore still
    pins that executor's arithmetic under today's draws."""

    def blas_forward(h_star, context):
        h_r = 0.5 * (h_star + context)
        score = np.asarray(
            [float(np.dot(u, v)) for u, v in zip(h_r[0::2], h_r[1::2])],
            dtype=np.float64,
        )
        return -oracle_kernels.log_sigmoid_branched(score), score, h_r

    def blas_rows(h_star, context):
        loss, score, h_r = blas_forward(h_star, context)
        return loss, oracle_kernels.interaction_backward(score, h_r)

    if engine == "batched":
        monkeypatch.setattr(kernels, "interaction_rows", blas_rows)
    else:
        monkeypatch.setattr(oracle_kernels, "interaction_forward", blas_forward)
    assert _single_edge_digest(SUPAConfig(seed=7), engine) == PARENT_DIGEST


# ---------------------------------------------- served-schedule golden digest
#
# Three 256-event batches under the service's training schedule (4 passes,
# validation every 2, 25-edge tail, patience 1): every pass's per-edge
# losses, the reports, the final state and both RNG states.  Captured
# before the round kernels were fused; a change that moves any bit on
# the engine and the oracle together still fails here.

SERVED_GOLDEN = "60b2f03cd30ae0129d770465141a87e55024ca06aff9b19dd54e37327f89816b"


def _served_schedule_digest(engine):
    dataset = movielens(scale=0.3, seed=3)
    model = build_model(dataset, SUPAConfig(seed=7), engine)
    trainer = InsLearnTrainer(
        model,
        InsLearnConfig(
            batch_size=256,
            max_iterations=4,
            validation_interval=2,
            validation_size=25,
            patience=1,
        ),
    )
    digest = hashlib.sha256()
    real = model.engine.train_batch

    def recorded(m, records):
        losses = real(m, records)
        digest.update(losses.tobytes())
        return losses

    model.engine.train_batch = recorded
    passes = 0
    for i, batch in enumerate(dataset.stream.sequential_batches(256)):
        if i == 3:
            break
        report = trainer.train_one_batch(batch, batch_index=i)
        passes += report.iterations_run
        digest.update(np.float64(report.mean_loss).tobytes())
        digest.update(np.float64(report.best_score).tobytes())
    digest.update(_state_bytes(model))
    digest.update(repr(model.rng.bit_generator.state).encode())
    digest.update(repr(trainer.rng_state()).encode())
    return passes, digest.hexdigest()


@pytest.mark.parametrize("engine", ["batched", "reference"])
def test_served_schedule_bytes_equal_the_golden_digest(engine):
    assert _served_schedule_digest(engine) == (12, SERVED_GOLDEN)


# ------------------------------------------------------------ tracing parity


@pytest.mark.parametrize("engine", ["reference", "batched"])
def test_tracing_is_bitwise_neutral(engine):
    """Observability must never change the computation: a traced run and
    an untraced run of the same engine are byte-identical — model state,
    reports, and the consumed RNG stream."""
    plain_model, plain_reports = _train(SUPAConfig(seed=7), engine)
    traced_model, traced_reports = _train(SUPAConfig(seed=7), engine, traced=True)
    assert _state_bytes(plain_model) == _state_bytes(traced_model)
    for plain, traced in zip(plain_reports, traced_reports):
        assert plain.mean_loss == traced.mean_loss
        assert plain.best_score == traced.best_score
        assert plain.touched_nodes == traced.touched_nodes
    assert (
        plain_model.rng.bit_generator.state
        == traced_model.rng.bit_generator.state
    )
    # the traced run actually recorded the training span tree
    spans = {s["name"] for s in traced_model.tracer.as_dict()["spans"]}
    assert "core.inslearn.batch" in spans
    if engine == "batched":
        # ... and the round-size telemetry the next engine issue sizes from
        metrics = traced_model.tracer.registry.as_dict()
        rounds = metrics["engine.plan.rounds"]["value"]
        edges = metrics["engine.plan.edges"]["value"]
        histogram = metrics["engine.round.edges"]
        assert 0 < rounds <= edges
        assert histogram["count"] == rounds
        assert histogram["sum"] == edges
        assert metrics["engine.plan.contended_ctx_rows"]["value"] > 0


def test_adam_call_counter_counts_every_optimiser_call(monkeypatch):
    """``engine.apply.adam_calls`` is the number of ``update_rows``
    calls the barriers made: per round one table call (long, short and
    first context occurrences) plus one per extra occurrence-rank sweep
    (the alpha chain is one ``update_chain`` per round, not counted)."""
    from repro.core.memory import SparseAdam

    calls = []
    real = SparseAdam.update_rows
    monkeypatch.setattr(
        SparseAdam,
        "update_rows",
        lambda self, *a: calls.append(1) or real(self, *a),
    )
    model, _ = _train(SUPAConfig(seed=7), traced=True)
    metrics = model.tracer.registry.as_dict()
    adam_calls = metrics["engine.apply.adam_calls"]["value"]
    rounds = metrics["engine.plan.rounds"]["value"]
    contended = metrics["engine.plan.contended_ctx_rows"]["value"]
    assert adam_calls == len(calls)
    assert rounds < adam_calls <= rounds + contended


def test_engines_agree_with_tracing_enabled():
    """The cross-engine bitwise contract holds under tracing too."""
    _assert_engines_agree(SUPAConfig(seed=7), traced=True)


# ------------------------------------------------- finite-difference checks


def _fd_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar ``f`` w.r.t. array ``x``."""
    x = np.asarray(x, dtype=np.float64)
    grad = np.zeros_like(x)
    it = np.nditer(x, flags=["multi_index"])
    for _ in it:
        idx = it.multi_index
        bumped = x.copy()
        bumped[idx] = x[idx] + eps
        hi = f(bumped)
        bumped[idx] = x[idx] - eps
        lo = f(bumped)
        grad[idx] = (hi - lo) / (2.0 * eps)
    return grad


def _assert_close(analytic, numeric, tol=5e-5):
    scale = np.maximum(1.0, np.abs(numeric))
    assert np.max(np.abs(analytic - numeric) / scale) < tol


class TestTargetKernelGradients:
    """Eq. 5 analytic backward vs finite differences, per ablation."""

    def _inputs(self, rng, n=4, dim=6):
        return (
            rng.normal(size=(n, dim)),
            rng.normal(size=(n, dim)),
            rng.normal(size=n),
            rng.uniform(0.1, 2.0, size=n),
            rng.normal(size=(n, dim)),  # weights defining the scalar loss
        )

    def _loss(self, long_rows, short_rows, alpha, deltas, w, cfg):
        h_star, *_ = kernels.target_forward(
            long_rows, short_rows, alpha, deltas, cfg
        )
        return float((w * h_star).sum())

    @pytest.mark.parametrize(
        "cfg",
        [
            SUPAConfig(),
            SUPAConfig(use_forgetting=False),
            SUPAConfig(use_short_term=False),
        ],
        ids=["full", "no-forgetting", "no-short-term"],
    )
    def test_target_backward_matches_fd(self, cfg):
        rng = np.random.default_rng(11)
        long_rows, short_rows, alpha, deltas, w = self._inputs(rng)
        _, gamma, x, sig, log_term = kernels.target_forward(
            long_rows, short_rows, alpha, deltas, cfg
        )
        grad_long, grad_short, grad_alpha = kernels.target_backward(
            w, short_rows, alpha, gamma, x, deltas, cfg, sig=sig, log_term=log_term
        )
        _assert_close(
            grad_long,
            _fd_grad(
                lambda a: self._loss(a, short_rows, alpha, deltas, w, cfg),
                long_rows,
            ),
        )
        fd_short = _fd_grad(
            lambda a: self._loss(long_rows, a, alpha, deltas, w, cfg), short_rows
        )
        if grad_short is None:
            assert not cfg.use_short_term
            _assert_close(np.zeros_like(short_rows), fd_short)
        else:
            _assert_close(grad_short, fd_short)
        fd_alpha = _fd_grad(
            lambda a: self._loss(long_rows, short_rows, a, deltas, w, cfg), alpha
        )
        if grad_alpha is None:
            assert not (cfg.use_short_term and cfg.use_forgetting)
            _assert_close(np.zeros_like(alpha), fd_alpha)
        else:
            _assert_close(grad_alpha, fd_alpha)

    def test_sig_reuse_is_bitwise_neutral(self):
        """Passing the forward's sigma(alpha) and log(e + x) to the
        backward must be a pure recomputation skip — identical bits
        either way, and the forward's gamma is ``g_decay``'s."""
        rng = np.random.default_rng(12)
        cfg = SUPAConfig()
        long_rows, short_rows, alpha, deltas, w = self._inputs(rng)
        _, gamma, x, sig, log_term = kernels.target_forward(
            long_rows, short_rows, alpha, deltas, cfg
        )
        assert gamma.tobytes() == g_decay(x).tobytes()
        with_both = kernels.target_backward(
            w, short_rows, alpha, gamma, x, deltas, cfg, sig=sig, log_term=log_term
        )
        without = kernels.target_backward(
            w, short_rows, alpha, gamma, x, deltas, cfg
        )
        for a, b in zip(with_both, without):
            assert a.tobytes() == b.tobytes()


def _position_major_slots(segments: np.ndarray, num_segments: int) -> np.ndarray:
    """``position * num_segments + segment`` per row, positions counted
    per segment in row order (the plan's ``draw_slots`` layout)."""
    slots = np.empty(segments.size, dtype=np.int64)
    for seg in range(num_segments):
        picked = np.flatnonzero(segments == seg)
        slots[picked] = np.arange(picked.size) * num_segments + seg
    return slots


def _propagation_fused(context_rows, h_star_sides, sides, cum_factors):
    """The round executor's Eq. 10 for one edge: the draw kernel (hop
    mode) plus the reductions the engine applies (hop-order loss sum,
    per-side position-major gradient sums)."""
    ones = np.ones(sides.size, dtype=np.float64)
    terms, context_grads, source_grads = kernels.context_draw_rows(
        context_rows, h_star_sides[sides], cum_factors, ones, ones
    )
    slots = _position_major_slots(sides, 2)
    grad_sides = kernels.padded_segment_sums(source_grads, slots, 2, sides.size)
    return kernels.sequential_sum(terms), context_grads, grad_sides


def _negative_fused(context_rows, h_star):
    """The round executor's Eq. 12 for one side: the draw kernel
    (negative mode) plus the draw-order loss and gradient sums."""
    n = context_rows.shape[0]
    terms, context_grads, source_grads = kernels.context_draw_rows(
        context_rows,
        np.broadcast_to(h_star, context_rows.shape),
        np.ones(n, dtype=np.float64),
        np.zeros(n, dtype=np.float64),
        -np.ones(n, dtype=np.float64),
    )
    grad_h = kernels.padded_segment_sums(
        source_grads, np.arange(n, dtype=np.int64), 1, n
    )[0]
    return kernels.sequential_sum(terms), context_grads, grad_h


class TestPropagationKernelGradients:
    """Eq. 10 / 12 through the draw kernel: FD checks + fused == split."""

    def _inputs(self, rng, hops=5, dim=6):
        return (
            rng.normal(size=(hops, dim)),
            rng.normal(size=(2, dim)),
            rng.integers(0, 2, size=hops),
            rng.uniform(0.1, 1.0, size=hops),
        )

    def test_fused_matches_fd(self):
        rng = np.random.default_rng(21)
        ctx, h_star, sides, cums = self._inputs(rng)
        loss, ctx_grads, side_grads = _propagation_fused(
            ctx, h_star, sides, cums
        )
        _assert_close(
            ctx_grads,
            _fd_grad(
                lambda a: _propagation_fused(
                    a, h_star, sides, cums
                )[0],
                ctx,
            ),
        )
        _assert_close(
            side_grads,
            _fd_grad(
                lambda a: _propagation_fused(
                    ctx, a, sides, cums
                )[0],
                h_star,
            ),
        )

    def test_fused_equals_split_bitwise(self):
        """The executor's draw kernel + reductions equal the split
        forward / backward pairs the oracle calls (Eq. 10 per edge,
        Eq. 12 per side): identical bits."""
        rng = np.random.default_rng(22)
        ctx, h_star, sides, cums = self._inputs(rng)
        scores, loss = oracle_kernels.propagation_forward(ctx, h_star, sides, cums)
        ctx_grads, side_grads = oracle_kernels.propagation_backward(
            ctx, h_star, sides, cums, scores
        )
        f_loss, f_ctx, f_sides = _propagation_fused(
            ctx, h_star, sides, cums
        )
        assert np.float64(f_loss).tobytes() == np.float64(loss).tobytes()
        assert f_ctx.tobytes() == ctx_grads.tobytes()
        assert f_sides.tobytes() == side_grads.tobytes()
        split = oracle_kernels.negative_forward_backward(ctx, h_star[0])
        fused = _negative_fused(ctx, h_star[0])
        for a, b in zip(split, fused):
            assert np.asarray(a).tobytes() == np.asarray(b).tobytes()

    def test_negative_kernel_matches_fd(self):
        rng = np.random.default_rng(23)
        ctx = rng.normal(size=(5, 6))
        h_star = rng.normal(size=6)
        loss, ctx_grads, grad_h = _negative_fused(ctx, h_star)
        _assert_close(
            ctx_grads,
            _fd_grad(lambda a: _negative_fused(a, h_star)[0], ctx),
        )
        _assert_close(
            grad_h,
            _fd_grad(lambda a: _negative_fused(ctx, a)[0], h_star),
        )


class TestStackedKernels:
    """Row kernels over a stack of edges == the same kernel edge by
    edge, bit for bit — what lets a round run as one array pass."""

    def test_interaction_stack_equals_per_edge(self):
        rng = np.random.default_rng(51)
        h_star = rng.normal(size=(10, 7))
        context = rng.normal(size=(10, 7))
        loss, grad = kernels.interaction_rows(h_star, context)
        for i in range(5):
            pair = slice(2 * i, 2 * i + 2)
            l_i, g_i = kernels.interaction_rows(h_star[pair], context[pair])
            assert l_i.tobytes() == loss[i : i + 1].tobytes()
            assert g_i.tobytes() == grad[pair].tobytes()

    def test_interaction_backward_matches_fd(self):
        rng = np.random.default_rng(52)
        h_star = rng.normal(size=(4, 5))
        context = rng.normal(size=(4, 5))
        _, grad = kernels.interaction_rows(h_star, context)
        def total(h, c):
            return float(kernels.interaction_rows(h, c)[0].sum())
        _assert_close(grad, _fd_grad(lambda a: total(a, context), h_star))
        _assert_close(grad, _fd_grad(lambda a: total(h_star, a), context))

    def test_row_kernels_are_stack_size_independent(self):
        rng = np.random.default_rng(53)
        ctx = rng.normal(size=(23, 6))
        src = rng.normal(size=(23, 6))
        cums = rng.uniform(0.1, 1.0, size=23)
        labels = (rng.random(23) < 0.5).astype(np.float64)
        factors = np.where(labels == 1.0, cums, 1.0)
        signs = labels + labels - 1.0
        whole = kernels.context_draw_rows(ctx, src, factors, labels, signs)
        for lo, hi in ((0, 1), (1, 9), (9, 23)):
            part = kernels.context_draw_rows(
                ctx[lo:hi], src[lo:hi], factors[lo:hi], labels[lo:hi], signs[lo:hi]
            )
            for w, p in zip(whole, part):
                assert w[lo:hi].tobytes() == p.tobytes()

    def test_padded_segment_sums_are_sequential_per_segment(self):
        rng = np.random.default_rng(54)
        lengths = [3, 0, 5, 1, 0, 4]
        width = max(lengths)
        values = rng.normal(size=(sum(lengths), 6)) * 10.0 ** rng.integers(
            -6, 6, size=(sum(lengths), 1)
        )
        segments = np.repeat(np.arange(len(lengths)), lengths)
        slots = _position_major_slots(segments, len(lengths))
        sums = kernels.padded_segment_sums(values, slots, len(lengths), width)
        start = 0
        for seg, n in enumerate(lengths):
            expected = oracle_kernels.sequential_colsum(values[start : start + n])
            assert sums[seg].tobytes() == expected.tobytes()
            start += n


class TestFactorKernels:
    """Eq. 8-9 weighting kernels vs their scalar-loop references."""

    def test_edge_factors_match_scalar(self):
        cfg = SUPAConfig(tau=1.5)
        rng = np.random.default_rng(31)
        deltas = np.concatenate(
            [
                rng.uniform(-0.5, 3.0, size=40),
                [0.0, cfg.tau, np.nextafter(cfg.tau, np.inf), -0.25],
            ]
        )
        vectorised = kernels.edge_factors(deltas, cfg)
        scalar = np.asarray(
            [
                0.0 if d > cfg.tau else float(g_decay(max(float(d), 0.0)))
                for d in deltas
            ],
            dtype=np.float64,
        )
        assert vectorised.tobytes() == scalar.tobytes()

    def test_edge_factors_decay_ablation_is_ones(self):
        cfg = SUPAConfig(use_propagation_decay=False)
        deltas = np.asarray([0.0, 5.0, 100.0], dtype=np.float64)
        assert (kernels.edge_factors(deltas, cfg) == 1.0).all()

    def test_walk_cumulative_factors_match_scalar(self):
        rng = np.random.default_rng(32)
        lengths = [3, 1, 4, 2, 3]
        offsets = np.zeros(len(lengths) + 1, dtype=np.int64)
        np.cumsum(lengths, out=offsets[1:])
        factors = rng.uniform(0.2, 1.0, size=int(offsets[-1]))
        factors[2] = 0.0  # terminate walk 0 at its last hop
        factors[4] = 0.0  # kill walk 2 at its first hop
        cum, keep = kernels.walk_cumulative_factors(factors, offsets)
        exp_cum = np.zeros_like(factors)
        exp_keep = np.zeros(factors.shape, dtype=bool)
        for w in range(len(lengths)):
            carry = 1.0
            for i in range(int(offsets[w]), int(offsets[w + 1])):
                if factors[i] == 0.0:
                    break
                carry *= factors[i]
                exp_cum[i] = carry
                exp_keep[i] = True
        assert cum.tobytes() == exp_cum.tobytes()
        assert (keep == exp_keep).all()

    def test_walk_cumulative_factors_empty(self):
        cum, keep = kernels.walk_cumulative_factors(
            np.empty(0, dtype=np.float64), np.zeros(1, dtype=np.int64)
        )
        assert cum.size == 0 and keep.size == 0


class TestAccumulateRows:
    def test_matches_dict_accumulation(self):
        rng = np.random.default_rng(41)
        rows = rng.integers(0, 6, size=12)
        grads = rng.normal(size=(12, 5))
        unique, summed = kernels.accumulate_rows(rows, grads)
        acc = {}
        for r, g in zip(rows, grads):
            if int(r) in acc:
                acc[int(r)] = acc[int(r)] + g
            else:
                acc[int(r)] = g.copy()
        exp_rows = np.asarray(sorted(acc), dtype=np.int64)
        exp = np.stack([acc[int(r)] for r in exp_rows])
        assert unique.tobytes() == exp_rows.tobytes()
        assert summed.tobytes() == exp.tobytes()

    def test_all_unique_rows_pass_through_bitwise(self):
        """The no-duplicate fast path must return the input bits — in
        particular it must not flip ``-0.0`` to ``+0.0``."""
        rows = np.asarray([3, 1, 7], dtype=np.int64)
        grads = np.asarray(
            [[-0.0, 1.0], [2.0, -0.0], [-0.5, 0.25]], dtype=np.float64
        )
        out_rows, out = kernels.accumulate_rows(rows, grads)
        assert out_rows.tobytes() == rows.tobytes()
        assert out.tobytes() == grads.tobytes()

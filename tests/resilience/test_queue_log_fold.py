"""The single queue-log fold: one transition, however the log is fed.

``QueueLogState.apply`` is the only accept/evict/batch state machine in
the tree; recovery, the prefix fold and the replication follower all
drive it.  These tests pin that feeding a log in one shot, record by
record off a live tailer, or folded to any checkpoint position and then
continued, lands in the same state — and that a log contradicting the
queue is refused at the same record by ``recover()`` and by a tailing
follower.
"""

import os
import tempfile
from itertools import islice

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SUPAConfig
from repro.datasets.zoo import load_dataset
from repro.graph.streams import StreamEdge
from repro.replicate.config import checkpoint_dir, wal_path
from repro.replicate.follower import ReplicationError, ReplicationFollower
from repro.replicate.primary import ReplicationPrimary
from repro.resilience.recovery import QueueLogState, RecoveryError, recover
from repro.resilience.wal import WalTailer, WriteAheadLog, iter_records, scan
from repro.serve.service import ServeConfig
from tests.resilience import fold

KINDS = ("accept", "evict", "batch", "heartbeat", "shed", "throttle")


def write_valid_log(path, draws):
    """Journal a valid decision sequence steered by ``draws``.

    Each draw is ``(kind index, magnitude)``; an ``evict``/``batch``
    drawn against an empty queue degrades to an ``accept`` so every
    written log is one a real queue could have produced.  Returns the
    model's own ``(trained, fifo, accepted, watermark)``.
    """
    trained, fifo, accepted, watermark = [], [], 0, float("-inf")
    with WriteAheadLog(path) as wal:
        for i, (kind_index, magnitude) in enumerate(draws):
            kind = KINDS[kind_index]
            edge = StreamEdge(i, magnitude, "r", float(magnitude % 7))
            if kind in ("evict", "batch") and not fifo:
                kind = "accept"
            if kind == "accept":
                wal.append_accept(edge)
                fifo.append(edge)
                accepted += 1
                watermark = max(watermark, edge.t)
            elif kind == "evict":
                wal.append_evict(fifo.pop(0))
            elif kind == "batch":
                count = 1 + magnitude % len(fifo)
                wal.append_batch(count)
                trained.extend(fifo[:count])
                del fifo[:count]
            elif kind == "heartbeat":
                wal.append_heartbeat(float(magnitude))
            elif kind == "shed":
                wal.append_shed(edge, "shed: reject")
            else:
                wal.append_throttle(edge, "throttle: rate")
    return QueueLogState(
        trained=trained, fifo=fifo, accepted=accepted, watermark=watermark
    )


@settings(max_examples=60, deadline=None)
@given(
    draws=st.lists(
        st.tuples(st.integers(0, len(KINDS) - 1), st.integers(0, 50)),
        min_size=1,
        max_size=40,
    ),
    chunk=st.integers(1, 7),
)
def test_one_shot_fold_equals_tailed_equals_split_fold(draws, chunk):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "decisions.wal")
        model = write_valid_log(path, draws)

        one_shot = fold(iter_records(path))
        assert one_shot == model

        tailer = WalTailer(path)
        tailed = QueueLogState()
        while True:
            records = tailer.poll(max_records=chunk)
            if not records:
                break
            assert len(records) <= chunk
            fold(records, tailed)
        assert tailed == one_shot

        for split in range(len(draws) + 1):
            records = iter_records(path)  # one pass, paused at the split
            state = fold(islice(records, split))
            fold(records, state)
            assert state == one_shot, f"diverged when split at seq {split}"


# ------------------------------------------------- contradictions are refused


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("uci", scale=0.1)


SERVE = dict(
    batch_size=8, capacity=64, overflow="drop_new", late_tolerance=0.0, checkpoint_every=2
)
MODEL = SUPAConfig(dim=16, num_walks=2, walk_length=2, seed=0)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda wal: wal.append_evict(StreamEdge(0, 1, "no-such-head", -1.0)),
        lambda wal: wal.append_batch(10_000),
    ],
    ids=["mismatched-evict", "over-long-batch"],
)
def test_recover_and_follower_refuse_the_same_record(dataset, tmp_path, corrupt):
    state_dir = str(tmp_path / "primary")
    primary = ReplicationPrimary(
        dataset,
        state_dir,
        serve_config=ServeConfig(**SERVE),
        model_config=MODEL,
        heartbeat_every=4,
    )
    for edge in list(dataset.stream)[:30]:  # 3 batches + 6 events of residue
        primary.ingest(edge)
    primary.close()
    follower = ReplicationFollower(
        dataset,
        state_dir,
        serve_config=ServeConfig(**SERVE),
        model_config=MODEL,
    ).bootstrap()
    assert follower.residue == 6

    with WriteAheadLog(wal_path(state_dir)) as wal:
        bad_seq = corrupt(wal).seq
    assert bad_seq == follower.applied_seq + 1

    with pytest.raises(ReplicationError, match=f"record #{bad_seq} "):
        follower.poll()
    assert follower.applied_seq == bad_seq - 1  # position did not advance
    follower.close()
    with pytest.raises(RecoveryError, match=f"record #{bad_seq} "):
        recover(
            dataset,
            ServeConfig(
                wal_path=wal_path(state_dir),
                checkpoint_dir=checkpoint_dir(state_dir),
                **SERVE,
            ),
            model_config=MODEL,
        )


def test_recover_and_follower_refuse_a_checkpoint_newer_than_the_log(
    dataset, tmp_path
):
    """A log cut back below the newest checkpoint (here to its first
    batch boundary) has no history that produces the checkpoint's
    state: the one catch-up refuses it, with one message, whether
    ``recover()`` or a bootstrapping follower asks."""
    state_dir = str(tmp_path / "primary")
    primary = ReplicationPrimary(
        dataset,
        state_dir,
        serve_config=ServeConfig(**SERVE),
        model_config=MODEL,
        heartbeat_every=4,
    )
    for edge in list(dataset.stream)[:32]:  # 4 batches, checkpoints at 2 and 4
        primary.ingest(edge)
    primary.close()
    path = wal_path(state_dir)
    status = scan(path)
    cut = next(r.seq for r in status.records if r.kind == "batch")
    with open(path, "rb") as fh:
        lines = fh.readlines()
    with open(path, "wb") as fh:
        fh.writelines(lines[:cut])
    assert scan(path).last_seq == cut < status.last_seq

    with pytest.raises(RecoveryError, match=r"log truncated\?") as recovered:
        recover(
            dataset,
            ServeConfig(
                wal_path=path, checkpoint_dir=checkpoint_dir(state_dir), **SERVE
            ),
            model_config=MODEL,
        )
    follower = ReplicationFollower(
        dataset,
        state_dir,
        serve_config=ServeConfig(**SERVE),
        model_config=MODEL,
    )
    with pytest.raises(ReplicationError) as replicated:
        follower.bootstrap()
    assert str(replicated.value) == str(recovered.value)
    assert f"WAL ends at seq {cut} " in str(recovered.value)
    assert follower.service is None  # nothing was built to serve from

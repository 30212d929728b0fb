"""A closed service is freed the moment it is dropped (DESIGN.md §8).

No object the service owns holds it strongly: the queue's handler and
validator, the dispatcher's ``on_error`` and the registry sources that
read the service reach it through one weak proxy, a follower's
``replica.*`` sources reach the follower the same way, and an engine
holds no model.  So with the cyclic collector off, dropping the last
reference frees the service and its model at once — a back-reference
made strong again leaves both alive until a gen-2 collection, which on
a large universe is tens of MB held past ``close()``.
"""

import gc
import os
import weakref
from contextlib import contextmanager

import pytest

from repro.core.config import SUPAConfig
from repro.core.model import SUPA
from repro.datasets.zoo import load_dataset
from repro.replicate.follower import ReplicationFollower
from repro.replicate.primary import ReplicationPrimary
from repro.resilience.recovery import recover
from repro.serve.admission import AdmissionConfig
from repro.serve.service import RecommendationService, ServeConfig

from tests.serve import dispatch_threads

MODEL = SUPAConfig(dim=8, num_walks=2, walk_length=2, seed=0)
EVENTS = 40


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("uci", scale=0.1)


@contextmanager
def collector_off():
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def service(dataset, trace=False, **overrides):
    return RecommendationService(
        dataset,
        model=SUPA.for_dataset(dataset, MODEL),
        config=ServeConfig(batch_size=8, capacity=64, **overrides),
        trace=trace,
    )


def durable(root):
    return dict(
        wal_path=os.path.join(root, "events.wal"),
        checkpoint_dir=os.path.join(root, "ckpts"),
        checkpoint_every=2,
    )


def run(svc, dataset):
    """Ingest, read and export, so every callback has fired once."""
    for edge in list(dataset.stream)[:EVENTS]:
        svc.ingest(edge)
    svc.query(int(dataset.stream[0].u))
    svc.metrics.as_dict()
    return svc


def sync_durable(dataset, tmp_path):
    svc = run(service(dataset, **durable(str(tmp_path))), dataset)
    svc.checkpoint()
    svc.close()
    return svc


def async_started(dataset, tmp_path):
    svc = run(service(dataset, async_dispatch=True), dataset)
    assert dispatch_threads()
    svc.close()
    svc.flush()
    return svc


def admission_on(dataset, tmp_path):
    svc = run(service(dataset, admission=AdmissionConfig()), dataset)
    svc.close()
    return svc


def traced(dataset, tmp_path):
    svc = run(service(dataset, trace=True), dataset)
    assert svc.model.tracer is svc.tracer
    svc.close()
    return svc


def recovered(dataset, tmp_path):
    crashed = run(service(dataset, **durable(str(tmp_path))), dataset)
    crashed.close()
    config = ServeConfig(batch_size=8, capacity=64, **durable(str(tmp_path)))
    svc = run(recover(dataset, config, model_config=MODEL).service, dataset)
    svc.close()
    return svc


SHAPES = {
    "sync-wal-checkpoints": sync_durable,
    "async-dispatcher-started": async_started,
    "admission": admission_on,
    "traced": traced,
    "recovered": recovered,
}


@pytest.mark.parametrize("build", SHAPES.values(), ids=SHAPES.keys())
def test_a_dropped_service_frees_without_a_collection(dataset, tmp_path, build):
    with collector_off():
        svc = build(dataset, tmp_path)
        refs = (weakref.ref(svc), weakref.ref(svc.model))
        del svc
        assert [ref() for ref in refs] == [None, None]


def test_a_dropped_follower_frees_without_a_collection(dataset, tmp_path):
    stream = list(dataset.stream)
    config = ServeConfig(batch_size=8, capacity=64, checkpoint_every=2)
    primary = ReplicationPrimary(
        dataset, str(tmp_path / "primary"), serve_config=config, model_config=MODEL
    )
    with collector_off():
        for edge in stream[:EVENTS]:
            primary.ingest(edge)
        follower = ReplicationFollower(
            dataset,
            str(tmp_path / "primary"),
            serve_config=config,
            model_config=MODEL,
        ).bootstrap()
        for edge in stream[EVENTS : 2 * EVENTS]:
            primary.ingest(edge)
        primary.close()
        assert follower.poll() > 0
        follower.promote(str(tmp_path / "replica"))
        follower.service.metrics.as_dict()
        follower.close()
        owned = (follower, follower.service, follower.service.model)
        refs = [weakref.ref(o) for o in owned]
        del owned
        del follower
        assert [ref() for ref in refs] == [None, None, None]


def test_a_callback_outliving_its_service_raises(dataset):
    """A back-reference never passes silently: once the service is gone,
    a registry source or the queue's validator raises."""
    svc = service(dataset)
    queue, applied = svc.queue, svc.metrics.counter("updates.applied")
    del svc
    gc.collect()
    with pytest.raises(ReferenceError):
        applied.value
    with pytest.raises(ReferenceError):
        queue.put(dataset.stream[0])

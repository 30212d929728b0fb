"""One pass of one workload in this interpreter (run.py starts one per pass).

Prints progress to stderr and exactly one JSON object, the pass's
result, as the last line of stdout.  Not meant to be run by hand:
``run.py`` sets the thread-count environment, the import path and the
scratch directory.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()  # before the heavy imports: they are set-up

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import phases
import workloads
from hostspeed import NOMINAL_SECONDS, SpeedLog
from probes import Recorder, Summary

_IMPORT_SECONDS = time.perf_counter() - _PROCESS_START
_clock = time.perf_counter

SETUP_REPEATS = 3
SEGMENTS = 9
VISIBLE_LIMIT_S = 0.5  # stated limit on steady's visible_p99_ms
#: spans whose share of the live phase is printed (the separation the
#: workloads were built to show)
LIVE_SHARES = (
    "core.engine.train_batch", "core.engine.compile", "core.inslearn.state_copy",
    "serve.index.top_k", "serve.store.snapshot", "serve.index.invalidate",
    "resilience.wal.append", "resilience.checkpoint.save",
)
#: spans whose self time (what their child spans do not cover) is printed
FACADE_SPANS = ("serve.service.ingest", "serve.service.query", "serve.service.update")
#: an open-loop run is invalid past these: the backlog was growing
MAX_BACKLOG_EVENTS = 128
MAX_DRAIN_TAIL_S = 1.0


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def prefault(expected_peak_mb: int) -> None:
    """Touch and free memory up to the workload's expected peak RSS.

    On the sizing VM the first touch of memory the host has not backed
    yet costs ~5-70 ms/MB and every later touch ~0.2 ms/MB; paying that
    here keeps it out of the timed phases.  Afterwards the kernel's
    high-water mark is reset (Linux: "5" to /proc/self/clear_refs) so
    ``peak_rss_mb`` reports what the workload needs, not this buffer;
    where that is not possible the buffer is at least sized from the
    current peak, so it cannot push the reported peak past the expected one.
    """
    megabytes = int(expected_peak_mb - peak_rss_mb())
    if megabytes > 0:
        buffer = np.ones(megabytes * (1 << 20) // 8, dtype=np.float64)
        del buffer
    try:
        with open("/proc/self/clear_refs", "w", encoding="ascii") as fh:
            fh.write("5")
    except OSError:
        pass


def calm_quartile(per_segment: Sequence[float], faster_is_higher: bool = False) -> float:
    """The quartile of per-segment values on the *fast* side.

    Dividing by the host's slowdown takes out the speed changes the
    kernel sees.  What is left are stalls it does not see (a 20 ms pause
    inside one update, a burst of page faults), and those only ever slow
    a segment down.  The quartile nearest the fast end keeps three
    quarters of the segments in play yet ignores them: on ten same-stream
    runs it gave every tail metric a smaller run-to-run spread than the
    median of the segments did (visible_p99_ms on ``crash_recover``:
    1.4 % against 8.4 %).
    """
    return float(np.percentile(per_segment, 75.0 if faster_is_higher else 25.0))


def batch_segments(accepted: np.ndarray, batch: int, period: int) -> List[Tuple[int, int]]:
    """Live-phase segments as operation-index ranges that each span the
    same whole number of micro-batches.

    With inline dispatch every ``batch``-th accepted ``ingest()`` carries
    a whole update (and every ``period``-th update a checkpoint).  Cuts
    by operation count alone would give one segment four updates and the
    next five, a +-10 % difference that is pure quantisation; cuts on
    batch boundaries give every segment the same work.  About nine
    segments, a whole number of checkpoint periods each when the run has
    at least three periods; a remainder short of one segment is left out.
    """
    accepted_so_far = np.cumsum(accepted)
    batches = int(accepted_so_far[-1]) // batch
    group = max(1, batches // SEGMENTS)
    if period and batches // period >= 3:
        group = period * max(1, round(group / period))
    # the operation that completes a group's last batch belongs to that group
    cuts = [0] + [
        int(np.searchsorted(accepted_so_far, j * group * batch, side="left")) + 1
        for j in range(1, batches // group + 1)
    ]
    return list(zip(cuts[:-1], cuts[1:])) or [(0, len(accepted))]


def percentile(parts: Sequence[np.ndarray], p: float) -> Tuple[float, str]:
    """Calm quartile over ``parts`` of each part's ``p``-th percentile."""
    value = calm_quartile([float(np.percentile(part, p)) for part in parts])
    return value, f"n={sum(len(part) for part in parts)} seg={len(parts)}"


def tail_mean(parts: Sequence[np.ndarray], share: float = 0.01) -> Tuple[float, str]:
    """Calm quartile over ``parts`` of the mean of each part's slowest
    ``share``.  Unlike a percentile it has no cliff: on ``backfill`` 0.4 %
    of ``ingest()`` calls carry a 300 ms update and ~1 % a WAL buffer
    flush, so p99 sits on the edge between two populations 0.07 ms and
    0.17 ms apart and swung 2x between same-seed runs."""
    means = [float(np.sort(part)[-max(1, round(len(part) * share)) :].mean()) for part in parts]
    return calm_quartile(means), f"n={sum(len(part) for part in parts)} seg={len(parts)}"


def host_fingerprint() -> Dict[str, object]:
    model = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": model or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "omp_threads": os.environ.get("OMP_NUM_THREADS", ""),
    }


def run(workload: str, seed: int, seconds: float, traced: bool, out_dir: str) -> Dict[str, object]:
    spec = workloads.spec_for(workload, seconds)
    scratch = os.path.join(out_dir, "tmp", f"{workload}-{os.getpid()}")
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    recorder = Recorder() if traced else None
    failures = phases.Failures()
    speed = SpeedLog()
    try:
        # ------------------------------------------------------------ set-up
        setup_begin = t0 = speed.sample(5)
        inputs = workloads.make_inputs(spec, seed)
        inputs_seconds = _clock() - t0
        speed.sample(3)
        build_seconds: List[float] = []
        for attempt in range(SETUP_REPEATS):
            t0 = _clock()
            state_dir = os.path.join(scratch, f"state{attempt}")
            service = workloads.make_service(inputs, state_dir)
            prefault(spec.expected_peak_mb)
            build_seconds.append(_clock() - t0)
            speed.sample(2)
            if attempt < SETUP_REPEATS - 1:
                service.close()
        t0 = _clock()
        stamps = phases.watch_visibility(service)
        refused = sum(0 if service.ingest(e) else 1 for e in inputs.edges[: spec.warmup_events])
        service.flush()
        warmup_seconds = _clock() - t0
        setup_end = speed.sample(5)
        failures.tally(spec.warmup_events, refused, "warm-up events refused")
        # the imports ran before the first kernel sample: they take the
        # set-up's slowdown as a whole
        setup_slowdown = float(speed.slowdown(setup_begin, setup_end)[0])
        setup_seconds = (
            _IMPORT_SECONDS + inputs_seconds + statistics.median(build_seconds) + warmup_seconds
        ) / setup_slowdown
        print(
            f"[{workload}] set-up {setup_seconds:.2f}s at nominal speed (host slowdown "
            f"{setup_slowdown:.2f}; raw: imports {_IMPORT_SECONDS:.2f}, inputs {inputs_seconds:.2f}, "
            "service " + "/".join(f"{b:.3f}" for b in build_seconds)
            + f", warm-up {warmup_seconds:.2f})",
            file=sys.stderr,
        )

        # ---------------------------------------------------- measured phases
        if recorder is not None:
            recorder.install()
        try:
            live = phases.run_live(
                inputs, service, stamps, failures, speed,
                set_request=recorder.set_request if recorder is not None else None,
            )
            probe = phases.run_probe(inputs, service, failures)
            phases.check_offline_parity(inputs, service, failures)
            if spec.admission:
                phases.check_ledger(inputs, service, state_dir, failures)
            phases.unwatch_visibility(service)
            restart = phases.run_restart(inputs, service, state_dir, failures, speed)
        finally:
            if recorder is not None:
                recorder.remove()
        generator = generator_metrics(spec, live)
        failures.check(
            generator["gen.backlog_end_events"] <= MAX_BACKLOG_EVENTS
            and generator["gen.drain_tail_s"] <= MAX_DRAIN_TAIL_S,
            "the open loop fell behind its schedule: "
            f"{generator['gen.backlog_end_events']:.0f} events unissued when it ended, "
            f"{generator['gen.drain_tail_s']:.2f}s drain tail",
        )
        if spec.async_dispatch:
            phases.check_async_parity(
                inputs, scratch, min(1024, spec.live_events), failures
            )

        windows = [(live.begin, live.end), (probe.begin, probe.end), (restart.begin, restart.end)]
        measured_wall = sum(hi - lo for lo, hi in windows)
        end_to_end, samples = end_to_end_metrics(spec, setup_seconds, live, probe, restart, speed)
        result: Dict[str, object] = {
            "workload": workload,
            "seed": seed,
            "seconds": seconds,
            "traced": traced,
            "end_to_end": end_to_end,
            "samples": samples,
            "per_layer": None,
            "phase_wall_s": {
                "live": live.end - live.begin,
                "probe": probe.end - probe.begin,
                "restart": restart.end - restart.begin,
            },
            "attempted": failures.attempted,
            "failed": failures.failed,
            "notes": failures.notes,
            "host": host_fingerprint(),
        }
        if recorder is not None:
            spans = recorder.spans()
            summary = Summary(spans, windows)
            live_busy = Summary(spans, windows[:1]).busy
            result["per_layer"] = per_layer_metrics(
                inputs, service, recorder, summary, live_busy, generator, live, probe, restart
            )
            result["per_layer"]["host.kernel_ms"] = (
                float(speed.slowdown(live.begin, live.end)[0]) * NOMINAL_SECONDS * 1e3
            )
            result["per_layer"]["trace.overhead_share"] = (
                len(summary.spans) * recorder.span_cost() / measured_wall
            )
            result["update_child_coverage"] = summary.child_coverage("serve.service.update")
            result["live_share"] = {
                name: live_busy.get(name, 0.0) / (live.end - live.begin) for name in LIVE_SHARES
            }
            result["self_time_s"] = {
                name: summary.self_time.get(name, 0.0) for name in FACADE_SPANS
            }
            result["wrappers_left"] = recorder.installed
            recorder.dump(
                os.path.join(out_dir, f"trace_{workload}.json"),
                {"workload": workload, "seed": seed, "seconds": seconds, "windows": windows},
            )
        return result
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def generator_metrics(spec: workloads.Spec, live: phases.LiveResult) -> Dict[str, float]:
    """How well the load generator kept its schedule (validity of the run,
    not performance of the program).  All zero on a closed loop."""
    is_ingest = live.kinds == workloads.INGEST
    issued, due = live.issued[is_ingest], live.start[is_ingest]
    n_events = int(is_ingest.sum())
    visible = live.visible_at - live.start[is_ingest & live.ok]
    out = {
        "gen.lag_p99_ms": float(np.percentile(issued - due, 99)) * 1e3,
        "gen.offered_eps": 0.0,
        "gen.achieved_eps": n_events / (live.last_return - live.begin),
        "gen.backlog_end_events": 0.0,
        "gen.drain_tail_s": 0.0,
        "gen.slo_miss_share": float((visible > VISIBLE_LIMIT_S).mean()) if visible.size else 0.0,
        "proc.cpu_s": live.cpu_seconds,
    }
    if spec.rate_eps:
        out["gen.offered_eps"] = n_events / (due[-1] - live.begin)
        out["gen.backlog_end_events"] = float((issued > due[-1]).sum())
        out["gen.drain_tail_s"] = max(0.0, live.last_return - due[-1])
    return out


def end_to_end_metrics(
    spec: workloads.Spec,
    setup_seconds: float,
    live: phases.LiveResult,
    probe: phases.ProbeResult,
    restart: phases.RestartResult,
    speed: SpeedLog,
) -> Tuple[Dict[str, float], Dict[str, str]]:
    """Every duration here is CPU-bound and is divided by the host's
    slowdown while it ran (``hostspeed.py``); the one exception is the
    time an open-loop event waits for the schedule to fill its batch."""
    is_ingest = live.kinds == workloads.INGEST
    is_query = ~is_ingest
    accepted = is_ingest & live.ok
    slowdown = speed.slowdown(np.minimum(live.start, live.issued), live.done)
    latency = (live.done - live.start) / slowdown
    inside = (live.done - live.issued) / slowdown  # seconds spent inside each operation
    due = live.start[accepted]
    if spec.rate_eps:
        wait = live.batch_full_at - due
        work = (live.visible_at - live.batch_full_at) / speed.slowdown(
            live.batch_full_at, live.visible_at
        )
        visible = wait + work
    else:
        visible = (live.visible_at - due) / speed.slowdown(due, live.visible_at)
    segments = batch_segments(accepted, spec.batch_size, spec.checkpoint_every)

    def parts(mask: np.ndarray) -> List[np.ndarray]:
        return [latency[lo:hi][mask[lo:hi]] for lo, hi in segments]

    def live_rate(counted: np.ndarray) -> float:
        if spec.rate_eps:  # open loop: the schedule, not the system, sets the rate
            return float(counted.sum()) / (live.end - live.begin)
        return calm_quartile(
            [float(counted[lo:hi].sum()) / float(inside[lo:hi].sum()) for lo, hi in segments],
            faster_is_higher=True,
        )

    accepted_before = np.concatenate(([0], np.cumsum(accepted)))
    visible_parts = [visible[accepted_before[lo] : accepted_before[hi]] for lo, hi in segments]
    values: Dict[str, float] = {"setup_s": setup_seconds}
    samples: Dict[str, str] = {}

    def put(name: str, stat: Tuple[float, str], scale: float = 1e3) -> None:
        values[name] = stat[0] * scale
        samples[name] = stat[1]

    put("visible_p50_ms", percentile(visible_parts, 50))
    put("visible_p99_ms", percentile(visible_parts, 99))
    put("ingest_tail_ms", tail_mean(parts(is_ingest)))
    put("query_p95_ms", percentile(parts(is_query), 95))
    raw_rate = accepted.sum() / (live.end - live.begin)
    values["drain_eps"] = live_rate(accepted)
    samples["drain_eps"] = f"n={int(accepted.sum())} raw whole-phase={raw_rate:.1f}"
    values["read_qps"] = live_rate(is_query)
    samples["read_qps"] = f"n={int(is_query.sum())}"
    began = np.asarray(restart.recover_began)
    raw_recover = np.asarray(restart.recover_seconds)
    recover_slowdown = speed.slowdown(began, began + raw_recover)
    values["recover_s"] = float(np.median(raw_recover / recover_slowdown))
    samples["recover_s"] = "raw/slowdown=" + " ".join(
        f"{s:.3f}/{f:.2f}" for s, f in zip(raw_recover, recover_slowdown)
    )
    values["next_event_auc"] = probe.auc
    samples["next_event_auc"] = f"next_event_hit10={probe.hit10:.4f}"
    values["peak_rss_mb"] = peak_rss_mb()
    samples["host"] = (
        f"slowdown during the live phase: median {np.median(slowdown):.2f}, "
        f"range {slowdown.min():.2f}-{slowdown.max():.2f} ({len(speed.when)} kernel samples)"
    )
    return values, samples


def per_layer_metrics(
    inputs: workloads.Inputs,
    service,
    recorder: Recorder,
    summary: Summary,
    live_busy: Dict[str, float],
    generator: Dict[str, float],
    live: phases.LiveResult,
    probe: phases.ProbeResult,
    restart: phases.RestartResult,
) -> Dict[str, float]:
    busy = lambda name: summary.busy.get(name, 0.0)  # noqa: E731
    calls = lambda name: float(summary.calls.get(name, 0))  # noqa: E731

    def pct_ms(values: Sequence[float], p: float) -> float:
        return float(np.percentile(values, p)) * 1e3 if len(values) else 0.0

    out: Dict[str, float] = dict(generator)

    admission = service.admission.counts() if service.admission is not None else {}
    out["admission.admit_s"] = busy("serve.admission.admit")
    out["admission.calls"] = calls("serve.admission.admit")
    out["admission.denied"] = float(admission.get("throttled", 0) + admission.get("shed", 0))

    out["wal.append_s"] = busy("resilience.wal.append")
    out["wal.appends"] = calls("resilience.wal.append")
    out["wal.bytes"] = float(restart.wal_bytes)
    out["wal.scan_s"] = busy("resilience.wal.scan")

    put_durations = summary.durations("serve.ingest.put")
    out["queue.put_s"] = busy("serve.ingest.put")
    out["queue.put_max_ms"] = max(put_durations, default=0.0) * 1e3
    out["queue.lock_wait_s"] = summary.self_time.get("serve.ingest.put", 0.0) + busy(
        "serve.ingest.pending"
    )
    waits = service.metrics.histogram("latency.queue_wait_seconds")
    out["queue.fill_wait_p50_ms"] = waits.percentile(50.0) * 1e3
    out["queue.fill_wait_p99_ms"] = waits.percentile(99.0) * 1e3
    out["queue.batches"] = float(service.queue.batches_dispatched)
    out["queue.mean_batch"] = service.queue.accepted / max(1, service.queue.batches_dispatched)

    out["dispatch.busy_share"] = live_busy.get("serve.dispatch.dispatch_next", 0.0) / (
        live.end - live.begin
    )
    out["dispatch.batches"] = float(service.dispatcher.batches) if service.dispatcher else 0.0
    out["dispatch.wake_p99_ms"] = pct_ms(recorder.wake_waits, 99)

    out["inslearn.batch_s"] = busy("core.inslearn.batch")
    out["inslearn.batches"] = calls("core.inslearn.batch")
    out["inslearn.iterations"] = summary.total("core.inslearn.batch", "iterations")
    out["inslearn.state_copy_s"] = busy("core.inslearn.state_copy")
    out["inslearn.state_copies"] = calls("core.inslearn.state_copy")
    out["inslearn.validate_s"] = busy("core.inslearn.validate")

    edges = summary.total("core.engine.train_batch", "edges")
    out["engine.train_batch_s"] = busy("core.engine.train_batch")
    out["engine.train_batch_calls"] = calls("core.engine.train_batch")
    out["engine.edges"] = edges
    out["engine.compile_s"] = busy("core.engine.compile")
    out["engine.execute_s"] = busy("core.engine.train_batch") - busy("core.engine.compile")
    out["engine.us_per_edge"] = busy("core.engine.train_batch") / edges * 1e6 if edges else 0.0

    out["graph.observe_s"] = busy("graph.observe")
    out["graph.observe_calls"] = calls("graph.observe")
    cache = getattr(service.model.engine, "candidate_cache", None)
    out["graph.cand_cache_hit_rate"] = float(cache.hit_rate) if cache is not None else 0.0

    state_bytes = state_nbytes(service.model.state_dict())
    out["memory.state_mb"] = state_bytes / float(1 << 20)
    out["memory.bytes_per_node"] = state_bytes / inputs.dataset.num_nodes

    out["store.publish_s"] = busy("serve.store.publish")
    out["store.publishes"] = calls("serve.store.publish")
    out["store.rows_published"] = summary.total("serve.store.publish", "rows")
    out["store.snapshot_s"] = busy("serve.store.snapshot")
    out["store.compactions"] = float(service.store.compactions)

    top_k_calls = calls("serve.index.top_k")
    misses = summary.durations("serve.index.top_k", miss=1)
    out["index.top_k_s"] = busy("serve.index.top_k")
    out["index.top_k_calls"] = top_k_calls
    out["index.hit_rate"] = 1.0 - len(misses) / top_k_calls if top_k_calls else 0.0
    out["index.miss_p50_ms"] = pct_ms(misses, 50)
    out["index.invalidate_s"] = busy("serve.index.invalidate")
    out["index.invalidated"] = float(service.index.invalidations)

    updates = summary.durations("serve.service.update")
    out["service.ingest_s"] = busy("serve.service.ingest")
    out["service.query_s"] = busy("serve.service.query")
    out["service.query_p50_ms"] = pct_ms(summary.durations("serve.service.query"), 50)
    out["service.update_s"] = busy("serve.service.update")
    out["service.update_p50_ms"] = pct_ms(updates, 50)
    out["service.update_p99_ms"] = pct_ms(updates, 99 if len(updates) >= 1000 else 100)
    out["service.flush_s"] = busy("serve.service.flush")

    out["checkpoint.save_s"] = busy("resilience.checkpoint.save")
    out["checkpoint.saves"] = calls("resilience.checkpoint.save")
    out["checkpoint.bytes"] = summary.total("resilience.checkpoint.save", "bytes")
    out["checkpoint.load_s"] = busy("resilience.checkpoint.load")

    replayed = summary.total("resilience.recovery.replay", "events")
    out["recovery.replay_s"] = busy("resilience.recovery.replay")
    out["recovery.replayed_events"] = float(restart.replayed_events)
    out["recovery.replayed_batches"] = float(restart.replayed_batches)
    out["recovery.replay_eps"] = (
        replayed / busy("resilience.recovery.replay") if replayed else 0.0
    )
    out["quality.next_event_hit10"] = probe.hit10
    return out


def state_nbytes(node) -> int:
    if isinstance(node, dict):
        return sum(state_nbytes(v) for v in node.values())
    return int(np.asarray(node).nbytes)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.traced), args.out)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

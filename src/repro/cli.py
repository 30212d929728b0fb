"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``datasets`` — list the built-in dataset equivalents with their
  Table III statistics.
* ``train`` — fit a method on a dataset with the link-prediction
  protocol and print its metrics.
* ``compare`` — fit several methods on one dataset and print a ranked
  comparison table.
* ``mine`` — mine multiplex metapath schemas from a dataset prefix.
* ``export`` — write a generated dataset's edge stream to TSV.
* ``serve-replay`` — replay a dataset through the online serving layer
  (:mod:`repro.serve`) and report throughput, latency and offline
  parity.  ``--trace`` prints the observability story — span tree,
  flame table, metrics snapshot — and with ``--output-dir`` writes
  Prometheus-text and JSONL exports (see :mod:`repro.obs`).
* ``replicate`` — WAL-shipping replication roles (see
  :mod:`repro.replicate`): ``primary`` runs the writable update loop
  publishing its WAL, ``follower`` bootstraps a read replica and tails
  it, and ``promote`` flips a drained follower writable and optionally
  resumes ingest with a golden parity check.
* ``lint`` — run the reprolint static-analysis suite over the source
  tree (see :mod:`repro.analysis`).
* ``loadtest`` — the open-loop SLO harness (see
  :mod:`repro.obs.loadgen`): calibrate closed-loop capacity, then sweep
  offered-rate tiers with seeded Poisson/bursty/ramp arrivals and
  report p50/p99/p999 end-to-end latency split into queue wait vs
  service time, gated on the SLO contract.

Every command is deterministic for a fixed ``--seed`` (loadtest latency
numbers vary with the machine; its arrival schedules do not).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional

from repro.baselines import available_baselines, make_baseline
from repro.core import InsLearnConfig, SUPAConfig
from repro.datasets import DATASET_BUILDERS, load_dataset
from repro.datasets.loaders import save_edge_tsv
from repro.eval import LinkPredictionProtocol
from repro.graph.mining import mine_metapaths
from repro.utils.tables import format_table


def _add_common(
    parser: argparse.ArgumentParser, dataset: Optional[str] = None, scale: float = 0.5
) -> None:
    parser.add_argument(
        "--dataset",
        required=dataset is None,
        default=dataset,
        choices=sorted(DATASET_BUILDERS),
        help="built-in dataset equivalent",
    )
    parser.add_argument("--scale", type=float, default=scale, help="dataset scale")
    parser.add_argument("--seed", type=int, default=0)


def _add_serving(
    parser: argparse.ArgumentParser, batch_size: int, capacity: int
) -> None:
    """The serving-stack flags every service-building command takes."""
    parser.add_argument("--k", type=int, default=10, help="recommendation list length")
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument(
        "--batch-size", type=int, default=batch_size, help="update micro-batch"
    )
    parser.add_argument("--capacity", type=int, default=capacity, help="queue capacity")


def _add_fit(parser: argparse.ArgumentParser) -> None:
    _add_common(parser)
    parser.add_argument("--dim", type=int, default=32)
    parser.add_argument("--max-queries", type=int, default=150)


def _serving_model_config(args: argparse.Namespace) -> SUPAConfig:
    """The small SUPA every serving-stack command trains."""
    return SUPAConfig(dim=args.dim, num_walks=2, walk_length=2, seed=args.seed)


def _build(name: str, dataset, dim: int, seed: int):
    if name == "SUPA":
        return make_baseline(
            "SUPA",
            dataset,
            dim=dim,
            seed=seed,
            config=SUPAConfig(dim=dim, num_walks=4, walk_length=3, seed=seed),
            train_config=InsLearnConfig(
                batch_size=1024,
                max_iterations=8,
                validation_interval=2,
                validation_size=100,
                patience=2,
                seed=seed,
            ),
        )
    return make_baseline(name, dataset, dim=dim, seed=seed)


def cmd_datasets(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(DATASET_BUILDERS):
        ds = load_dataset(name, scale=args.scale, seed=args.seed)
        stats = ds.statistics()
        rows.append(
            [name, stats["|V|"], stats["|E|"], stats["|O|"], stats["|R|"], stats["|T|"]]
        )
    print(
        format_table(
            ["dataset", "|V|", "|E|", "|O|", "|R|", "|T|"],
            rows,
            title=f"built-in dataset equivalents (scale={args.scale})",
        )
    )
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    print(dataset.describe())
    protocol = LinkPredictionProtocol(max_queries=args.max_queries, seed=args.seed)
    result = protocol.run(
        lambda ds: _build(args.method, ds, args.dim, args.seed), dataset
    )
    print(
        format_table(
            ["metric", "value"],
            sorted(result.metrics.items()),
            title=f"{args.method} on {args.dataset} "
            f"(fit {result.fit_seconds:.1f}s, {result.evaluation.num_queries} queries)",
        )
    )
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    protocol = LinkPredictionProtocol(max_queries=args.max_queries, seed=args.seed)
    rows = []
    for name in args.methods:
        result = protocol.run(
            lambda ds, n=name: _build(n, ds, args.dim, args.seed), dataset
        )
        rows.append(
            [
                name,
                result["H@20"],
                result["H@50"],
                result["MRR"],
                result.fit_seconds,
            ]
        )
    rows.sort(key=lambda r: -r[3])
    print(
        format_table(
            ["method", "H@20", "H@50", "MRR", "fit s"],
            rows,
            title=f"link prediction on {args.dataset} (scale={args.scale})",
            highlight_best=[1, 2, 3],
        )
    )
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    prefix_len = max(1, int(len(dataset.stream) * args.prefix))
    graph = dataset.build_graph(dataset.stream[:prefix_len])
    schemas = mine_metapaths(
        graph,
        num_walks=args.walks,
        walk_length=args.walk_length,
        top_k=args.top_k,
        min_support=args.min_support,
        rng=args.seed,
    )
    if not schemas:
        print("no metapath schemas found (try more walks or lower support)")
        return 1
    print(f"mined {len(schemas)} schemas from {prefix_len} edges:")
    for mp in schemas:
        print("  ", mp.describe())
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis.cli import run as lint_run

    return lint_run(
        args.paths,
        fmt=args.format,
        output=args.output,
        select=args.select,
        ignore=args.ignore,
        project_root=args.project_root,
        concurrency=args.concurrency,
    )


def _print_summary(title: str, rows) -> None:
    print(format_table(["metric", "value"], rows, title=title))


def cmd_serve_replay(args: argparse.Namespace) -> int:
    from repro.obs import (
        format_flame_table,
        format_span_tree,
        to_prometheus_text,
        write_jsonl_snapshot,
    )
    from repro.serve import ServeConfig, StreamReplayDriver

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    driver = StreamReplayDriver(
        dataset,
        k=args.k,
        serve_config=ServeConfig(batch_size=args.batch_size),
        model_config=_serving_model_config(args),
        probe_every=args.probe_every,
        max_parity_users=args.max_parity_users,
        seed=args.seed,
        trace=args.trace,
    )
    service = driver.build_service()
    report = driver.run(service)
    _print_summary(
        f"serve-replay: {args.dataset} (scale={args.scale}, k={args.k})",
        report.summary_rows(),
    )
    if args.output:
        print(f"wrote {report.write_json(args.output)}")
    if args.trace:
        tracer = service.tracer
        print()
        print("span tree (layer.component.phase):")
        print(format_span_tree(tracer))
        print()
        print(format_flame_table(tracer))
        print()
        print("metrics snapshot:")
        print(service.metrics.to_json())
        if args.output_dir:
            os.makedirs(args.output_dir, exist_ok=True)
            prom_path = os.path.join(args.output_dir, "obs_metrics.prom")
            with open(prom_path, "w", encoding="utf-8") as fh:
                fh.write(to_prometheus_text(service.metrics))
            jsonl_path = os.path.join(args.output_dir, "obs_telemetry.jsonl")
            write_jsonl_snapshot(
                jsonl_path,
                metrics=service.metrics,
                trace=tracer,
                label=f"obs:{args.dataset}:scale={args.scale}:seed={args.seed}",
            )
            print()
            print(f"wrote {prom_path}")
            print(f"wrote {jsonl_path}")
    if report.parity_fraction < args.min_parity:
        print(
            f"FAIL: parity {report.parity_fraction:.4f} below "
            f"--min-parity {args.min_parity}"
        )
        return 1
    return 0


def cmd_loadtest(args: argparse.Namespace) -> int:
    """Open-loop offered-load sweep with the SLO gate (see ISSUE/DESIGN §14).

    With ``--async-dispatch`` / ``--admission`` the sweep exercises the
    overload path (DESIGN §8): ``ingest()`` returns after the journaled
    accept decision and a dispatcher thread runs the updates, while the
    admission controller throttles and sheds past the watermarks.  Add
    ``--state-dir`` to journal each tier into its own WAL and run the
    per-tier audit: every shed/throttle decision in the WAL ledger must
    reconcile with the controller's and queue's tallies, and a full
    replay of the WAL from a fresh model must reproduce the drained
    service bitwise (state fingerprint, RNG streams, served top-K) —
    the async-equals-inline parity gate.  ``--overload-gate`` swaps the
    SLO gate for the overload contract (flat ingest p99, shedding
    measured, audit findings fatal).
    """
    import itertools
    import json
    import time

    from repro.core.model import SUPA
    from repro.obs.loadgen import (
        overload_gate_failures,
        run_offered_load_sweep,
        sweep_gate_failures,
    )
    from repro.obs.quality import StreamingQualityEvaluator
    from repro.serve.admission import AdmissionConfig
    from repro.serve.service import RecommendationService, ServeConfig

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    edges = list(dataset.stream)
    if args.events:
        edges = edges[: args.events]

    model_config = _serving_model_config(args)
    admission_config = None
    if args.admission:
        admission_config = AdmissionConfig(
            rate_per_user=args.rate_per_user,
            burst=args.burst,
            depth_highwater=args.depth_highwater,
            depth_lowwater=args.depth_lowwater,
        )
    # Every service the sweep builds (the calibration throwaway, then
    # one per tier) gets its own WAL directory so tiers never share a
    # journal and the audit replays exactly one tier's decisions.
    tier_ordinal = itertools.count()

    def service_factory() -> RecommendationService:
        model = SUPA.for_dataset(dataset, config=model_config)
        wal_path = None
        if args.state_dir:
            tier_dir = os.path.join(
                args.state_dir, f"tier-{next(tier_ordinal):03d}"
            )
            os.makedirs(tier_dir, exist_ok=True)
            wal_path = os.path.join(tier_dir, "events.wal")
        return RecommendationService(
            dataset,
            model=model,
            config=ServeConfig(
                batch_size=args.batch_size,
                capacity=args.capacity,
                overflow="drop_new",
                clock_fn=time.perf_counter,
                wal_path=wal_path,
                async_dispatch=args.async_dispatch,
                admission=admission_config,
            ),
        )

    def tier_audit(service: RecommendationService, tier: dict) -> None:
        """Ledger reconciliation + replay parity for one drained tier."""
        from repro.replicate.failover import compare_services
        from repro.resilience.recovery import recover
        from repro.resilience.wal import decision_ledger

        failures: list = []
        tier["audit"] = {"failures": failures}
        # Quiesce first: stop + drain the dispatcher, flush the partial
        # batch (both idempotent — service.close() repeats them later).
        if service.dispatcher is not None:
            service.dispatcher.close()
        service.flush()
        wal_path = service.config.wal_path
        if wal_path is None:
            return
        ledger = decision_ledger(wal_path)
        tier["audit"]["ledger"] = ledger
        admission = service.admission
        if admission is not None:
            counts = admission.counts()
            throttled = sum(ledger["throttle"].values())
            shed = sum(ledger["shed"].values())
            if throttled != counts["throttled"]:
                failures.append(
                    f"ledger has {throttled} throttle records but the "
                    f"controller throttled {counts['throttled']}"
                )
            if shed != counts["shed"]:
                failures.append(
                    f"ledger has {shed} shed records but the "
                    f"controller shed {counts['shed']}"
                )
            expected_queue_shed = counts["throttled"] + counts["shed"]
            if service.queue.shed != expected_queue_shed:
                failures.append(
                    f"queue counted {service.queue.shed} shed deadletters "
                    f"but the controller denied {expected_queue_shed}"
                )
        # Replay parity: recover() over the tier's WAL with no
        # checkpoint replays every journaled accept/evict/batch from a
        # fresh model — i.e. the inline golden run over the same
        # accepted-event sequence.  The drained async service must match
        # it bitwise: state fingerprint, both RNG streams, served top-K.
        recover_dir = os.path.join(os.path.dirname(wal_path), "recover-ckpt")
        os.makedirs(recover_dir, exist_ok=True)
        recovered = recover(
            dataset,
            ServeConfig(
                batch_size=args.batch_size,
                capacity=args.capacity,
                overflow="drop_new",
                wal_path=wal_path,
                checkpoint_dir=recover_dir,
            ),
            model_config=model_config,
        )
        twin = recovered.service
        try:
            verdict = compare_services(
                service, service.users[:4], args.k, reference=twin
            )
            tier["audit"]["state_fingerprint"] = verdict.fingerprint
            if not verdict.fingerprint_match:
                failures.append(
                    "replay parity: drained state fingerprint "
                    f"{verdict.fingerprint[:12]} != inline-replay fingerprint"
                )
            if not verdict.rng_match:
                failures.append(
                    "replay parity: model or trainer RNG streams diverged"
                )
            if verdict.matches != verdict.users:
                failures.append(
                    f"replay parity: top-{args.k} differs between drained "
                    f"and replayed service for "
                    f"{verdict.users - verdict.matches} of {verdict.users} users"
                )
        finally:
            twin.close()

    quality_factory = None
    if args.quality:
        quality_factory = lambda service: StreamingQualityEvaluator(
            service, k=args.k
        )
    sweep = run_offered_load_sweep(
        service_factory,
        edges,
        fractions=args.tiers,
        kind=args.arrival,
        seed=args.seed,
        k=args.k,
        query_every=args.query_every,
        quality_factory=quality_factory,
        tier_audit=tier_audit if args.state_dir else None,
    )
    rows = [
        [
            f"{tier['fraction_of_capacity']:g}x",
            f"{tier['offered_rate']:.0f}",
            f"{tier['achieved_rate']:.0f}",
            f"{tier['e2e']['p50'] * 1e3:.2f}",
            f"{tier['e2e']['p99'] * 1e3:.2f}",
            f"{tier['e2e']['p99.9'] * 1e3:.2f}",
            f"{tier['queue_wait']['p99'] * 1e3:.2f}",
            f"{tier['service']['p99'] * 1e3:.2f}",
            f"{tier['ingest_latency']['p99'] * 1e3:.3f}",
            str(tier["ingest"]["shed"]),
            str(tier["hdr_p999_bucket_error"]),
        ]
        for tier in sweep["tiers"]
    ]
    print(
        format_table(
            [
                "tier",
                "offered/s",
                "achieved/s",
                "e2e p50 ms",
                "e2e p99 ms",
                "e2e p999 ms",
                "qwait p99 ms",
                "service p99 ms",
                "ingest p99 ms",
                "shed",
                "p999 Δbuckets",
            ],
            rows,
            title=(
                f"loadtest: {args.dataset} (scale={args.scale}, "
                f"{args.arrival} arrivals, capacity "
                f"{sweep['capacity_events_per_second']:.0f} events/s)"
            ),
        )
    )
    if args.output:
        os.makedirs(os.path.dirname(args.output) or ".", exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as fh:
            json.dump(sweep, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.output}")
    if args.no_gate:
        return 0
    if args.overload_gate:
        failures = overload_gate_failures(sweep)
    else:
        failures = sweep_gate_failures(sweep)
    for failure in failures:
        print(f"FAIL: {failure}")
    return 1 if failures else 0


def _replication_pieces(args: argparse.Namespace):
    """``(dataset, configs)`` shared by every ``replicate`` role, which
    must agree on all of them; ``configs`` are the role constructors'
    ``serve_config`` / ``model_config`` / ``replication`` keywords."""
    from repro.replicate import ReplicationConfig
    from repro.serve import ServeConfig

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    serve_config = ServeConfig(
        batch_size=args.batch_size,
        capacity=args.capacity,
        overflow="drop_new",
        late_tolerance=0.0,
        warm_users=8,
    )
    replication = ReplicationConfig(
        heartbeat_every=args.heartbeat_every,
        checkpoint_every=args.checkpoint_every,
    )
    return dataset, dict(
        serve_config=serve_config,
        model_config=_serving_model_config(args),
        replication=replication,
    )


def cmd_replicate_primary(args: argparse.Namespace) -> int:
    from repro.replicate import ReplicationPrimary

    dataset, configs = _replication_pieces(args)
    stream = list(dataset.stream)
    end = len(stream) if args.events is None else min(args.events, len(stream))
    primary = ReplicationPrimary(
        dataset,
        args.state_dir,
        **configs,
    )
    accepted = 0
    for edge in stream[:end]:
        if primary.ingest(edge):
            accepted += 1
    # stop abruptly, like a killed process: buffered events stay
    # journaled and a follower inherits them as residue
    primary.kill()
    rows = [
        ("events offered", end),
        ("events accepted", accepted),
        ("wal last seq", primary.last_seq),
        ("wal segments", len(primary.service.wal.segments())),
        (
            "heartbeats",
            int(primary.metrics.counter("replica.heartbeats").value),
        ),
    ]
    _print_summary(f"replicate primary: {args.dataset} -> {args.state_dir}", rows)
    return 0


def cmd_replicate_follower(args: argparse.Namespace) -> int:
    from repro.replicate import ReplicationFollower, compare_services

    dataset, configs = _replication_pieces(args)
    follower = ReplicationFollower(
        dataset,
        args.state_dir,
        **configs,
    ).bootstrap()
    while follower.poll():
        pass
    service = follower.service
    verdict = compare_services(service, service.users[: args.probes], args.k)
    metrics = service.metrics
    rows = [
        ("state", follower.state),
        ("applied seq", follower.applied_seq),
        ("queue residue", follower.residue),
        ("accepted (ledger)", follower.accepted_total),
        ("heartbeats seen", follower.heartbeats_seen),
        ("seq lag (last poll)", follower.lag_records),
        (
            "lag seconds",
            round(float(metrics.gauge("replica.lag_seconds").value), 3),
        ),
        (
            "bytes shipped",
            int(metrics.counter("replica.bytes_shipped").value),
        ),
        ("cache entries warmed", service.index.warmed),
        (f"top-{args.k} parity", f"{verdict.matches}/{verdict.users}"),
    ]
    _print_summary(f"replicate follower: tailing {args.state_dir}", rows)
    return 0 if verdict.identical else 1


def cmd_replicate_promote(args: argparse.Namespace) -> int:
    from repro.replicate import ReplicationFollower, compare_services

    dataset, configs = _replication_pieces(args)
    stream = list(dataset.stream)
    follower = ReplicationFollower(
        dataset,
        args.state_dir,
        replica_dir=args.replica_dir,
        **configs,
    ).bootstrap()
    follower.promote(args.replica_dir)
    resume_from = args.resume_from
    resumed = stream[resume_from:]
    if args.events is not None:
        resumed = resumed[: args.events]
    for edge in resumed:
        follower.ingest(edge)
    follower.flush()
    service = follower.service
    rows = [
        ("state", follower.state),
        ("inherited seq", follower.applied_seq),
        ("events resumed", len(resumed)),
        ("events accepted (ledger)", service.queue.accepted),
        ("own wal last seq", service.wal.last_seq),
    ]
    exit_code = 0
    if args.verify_parity:
        # golden: one uninterrupted single-node run over the identical
        # prefix + resumed slice (valid when the primary ingested
        # exactly stream[:resume_from] and stopped abruptly)
        from repro.core.model import SUPA
        from repro.serve import RecommendationService

        # serve_config names no WAL or checkpoints (the roles fill those
        # into their own copies), so the golden run journals nothing
        golden = RecommendationService(
            dataset,
            model=SUPA.for_dataset(dataset, configs["model_config"]),
            config=configs["serve_config"],
        )
        for edge in stream[:resume_from] + resumed:
            golden.ingest(edge)
        golden.flush()
        verdict = compare_services(
            service, service.users[: args.probes], args.k, reference=golden
        )
        golden.close()
        rows.append(
            (
                "state fingerprint",
                "match" if verdict.fingerprint_match else "MISMATCH",
            )
        )
        rows.append(
            (
                f"top-{args.k} parity vs golden",
                f"{verdict.matches}/{verdict.users}",
            )
        )
        if not verdict.identical:
            exit_code = 1
    follower.close()
    _print_summary(
        f"replicate promote: {args.state_dir} -> {args.replica_dir}", rows
    )
    return exit_code


def cmd_export(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    save_edge_tsv(dataset.stream, args.output)
    print(f"wrote {len(dataset.stream)} edges to {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SUPA / InsLearn reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("datasets", help="list built-in datasets")
    p.add_argument("--scale", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_datasets)

    p = sub.add_parser("train", help="train one method, print metrics")
    _add_fit(p)
    p.add_argument(
        "--method", default="SUPA", choices=available_baselines()
    )
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="compare several methods")
    _add_fit(p)
    p.add_argument(
        "--methods",
        nargs="+",
        default=["SUPA", "LightGCN", "DeepWalk"],
        choices=available_baselines(),
    )
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("mine", help="mine multiplex metapath schemas")
    _add_common(p)
    p.add_argument("--prefix", type=float, default=0.3, help="stream fraction to mine")
    p.add_argument("--walks", type=int, default=400)
    p.add_argument("--walk-length", type=int, default=4)
    p.add_argument("--top-k", type=int, default=4)
    p.add_argument("--min-support", type=int, default=5)
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("export", help="write a dataset's edges to TSV")
    _add_common(p)
    p.add_argument("--output", required=True)
    p.set_defaults(func=cmd_export)

    p = sub.add_parser(
        "serve-replay",
        help="replay a dataset through the online serving layer; "
        "--trace prints the telemetry story",
    )
    _add_common(p)
    _add_serving(p, batch_size=256, capacity=2048)
    p.add_argument("--probe-every", type=int, default=64)
    p.add_argument(
        "--max-parity-users", type=int, default=None, help="cap parity check users"
    )
    p.add_argument(
        "--min-parity",
        type=float,
        default=0.99,
        help="fail when served/offline top-K parity drops below this",
    )
    p.add_argument(
        "--output",
        default="",
        help="JSON report path (default: write nothing)",
    )
    p.add_argument(
        "--trace",
        action="store_true",
        help="record repro.obs spans; print the span tree, flame table and "
        "metrics snapshot",
    )
    p.add_argument(
        "--output-dir",
        default="",
        help="with --trace: directory for the .prom / .jsonl exports "
        "(default: write nothing)",
    )
    p.set_defaults(func=cmd_serve_replay)

    p = sub.add_parser(
        "loadtest",
        help="open-loop offered-load sweep: calibrate capacity, drive "
        "Poisson/bursty/ramp arrivals, report tail latency split into "
        "queue wait vs service time, gate on the SLO contract",
    )
    _add_common(p, dataset="uci", scale=0.1)
    _add_serving(p, batch_size=64, capacity=4096)
    p.add_argument(
        "--events",
        type=int,
        default=400,
        help="requests per tier (stream prefix length)",
    )
    p.add_argument(
        "--arrival",
        default="poisson",
        choices=["poisson", "bursty", "ramp"],
        help="arrival process for every tier",
    )
    p.add_argument(
        "--tiers",
        type=float,
        nargs="+",
        default=[0.02, 0.5, 2.0],
        help="offered rate as fractions of calibrated capacity; keep the "
        "lowest tier well under the batch-update duty cycle so queue "
        "waits are rare there (the gate checks that tier)",
    )
    p.add_argument(
        "--query-every",
        type=int,
        default=4,
        help="issue a top-K query on every Nth request",
    )
    p.add_argument(
        "--quality",
        action="store_true",
        help="run the streaming hold-out quality evaluator per tier "
        "(queries every request)",
    )
    p.add_argument(
        "--async-dispatch",
        action="store_true",
        help="drain micro-batches on the dispatcher thread so ingest() "
        "returns after the journaled accept decision (DESIGN §8)",
    )
    p.add_argument(
        "--admission",
        action="store_true",
        help="put the admission controller in front of the queue "
        "(token-bucket throttling + watermark-driven rejection)",
    )
    p.add_argument(
        "--rate-per-user",
        type=float,
        default=0.0,
        help="token-bucket refill per user per second; 0 disables "
        "per-user throttling (with --admission)",
    )
    p.add_argument(
        "--burst",
        type=float,
        default=10.0,
        help="token-bucket burst capacity per user (with --admission)",
    )
    p.add_argument(
        "--depth-highwater",
        type=float,
        default=0.9,
        help="queue-depth fraction that escalates to SHEDDING",
    )
    p.add_argument(
        "--depth-lowwater",
        type=float,
        default=0.5,
        help="queue-depth fraction SHEDDING must fall below to clear "
        "(hysteresis); must hold one batch: x capacity >= batch size",
    )
    p.add_argument(
        "--state-dir",
        default="",
        help="journal each tier into <dir>/tier-NNN/events.wal and run "
        "the per-tier audit: decision-ledger reconciliation plus the "
        "drained-async == inline-replay parity check ('' to skip)",
    )
    p.add_argument(
        "--overload-gate",
        action="store_true",
        help="gate on the overload contract instead of the SLO gate: "
        "ingest p99 flat vs the sub-saturation reference, shedding "
        "measured past saturation, audit findings fatal",
    )
    p.add_argument(
        "--output",
        default="",
        help="write the sweep JSON here (default: write nothing)",
    )
    p.add_argument(
        "--no-gate",
        action="store_true",
        help="report only; skip the SLO gate exit code",
    )
    p.set_defaults(func=cmd_loadtest)

    p = sub.add_parser(
        "replicate",
        help="WAL-shipping replication: primary / follower / promote roles",
    )
    rsub = p.add_subparsers(dest="role", required=True)

    def _add_replicate_common(rp: argparse.ArgumentParser) -> None:
        _add_common(rp)
        _add_serving(rp, batch_size=32, capacity=256)
        rp.add_argument(
            "--state-dir",
            required=True,
            help="the primary's directory (its WAL + checkpoints)",
        )
        rp.add_argument(
            "--heartbeat-every",
            type=int,
            default=16,
            help="primary heartbeat cadence in accepted events",
        )
        rp.add_argument(
            "--checkpoint-every",
            type=int,
            default=4,
            help="checkpoint cadence in applied updates",
        )

    rp = rsub.add_parser(
        "primary", help="run the writable update loop, publishing its WAL"
    )
    _add_replicate_common(rp)
    rp.add_argument(
        "--events",
        type=int,
        default=None,
        help="ingest only the first N stream events (default: all)",
    )
    rp.set_defaults(func=cmd_replicate_primary)

    rp = rsub.add_parser(
        "follower",
        help="bootstrap a read replica from a primary's directory, drain "
        "its WAL and probe reads",
    )
    _add_replicate_common(rp)
    rp.add_argument(
        "--probes", type=int, default=16, help="read probes after draining"
    )
    rp.set_defaults(func=cmd_replicate_follower)

    rp = rsub.add_parser(
        "promote",
        help="drain a follower, promote it writable in --replica-dir and "
        "resume ingest",
    )
    _add_replicate_common(rp)
    rp.add_argument(
        "--replica-dir", required=True, help="the promoted node's own directory"
    )
    rp.add_argument(
        "--resume-from",
        type=int,
        default=0,
        help="stream position ingest resumes from (= events the primary "
        "ingested)",
    )
    rp.add_argument(
        "--events",
        type=int,
        default=None,
        help="resume at most N events (default: the rest of the stream)",
    )
    rp.add_argument(
        "--verify-parity",
        action="store_true",
        help="compare state fingerprint + top-K against an uninterrupted "
        "golden run",
    )
    rp.add_argument(
        "--probes", type=int, default=16, help="parity probes when verifying"
    )
    rp.set_defaults(func=cmd_replicate_promote)

    p = sub.add_parser(
        "lint", help="run the reprolint static-analysis suite"
    )
    p.add_argument("paths", nargs="*", help="files/dirs (default: src/repro)")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--output", help="also write a JSON report here")
    p.add_argument("--select", nargs="+", metavar="RULE")
    p.add_argument("--ignore", nargs="+", metavar="RULE")
    p.add_argument(
        "--concurrency",
        action="store_true",
        help="run only the concurrency rules (lock-discipline, "
        "lock-ordering, hold-and-call)",
    )
    p.add_argument("--project-root")
    p.set_defaults(func=cmd_lint)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

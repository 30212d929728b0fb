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
* ``serve-replay`` — ingest a dataset's stream into a fresh
  ``RecommendationService`` with interleaved probes, flush, and gate
  served-vs-offline parity (``failover.parity_matches``).  ``--trace``
  prints the observability story — span tree, flame table, metrics
  snapshot — and with ``--output-dir`` writes Prometheus-text and JSONL
  exports (see :mod:`repro.obs`).
* ``replicate`` — WAL-shipping replication roles (see
  :mod:`repro.replicate`): ``primary`` runs the writable update loop
  publishing its WAL, ``follower`` bootstraps a read replica and tails
  it, and ``promote`` flips a drained follower writable and optionally
  resumes ingest with a golden parity check.

Every command is deterministic for a fixed ``--seed`` (timings vary with
the machine).  Load and latency under open-loop arrivals are measured by
the benchmark spine (``benchmarks/spine``), not by a command here.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from typing import Callable, List, Optional

import numpy as np

from repro.baselines import available_baselines, make_baseline
from repro.baselines.supa_adapter import cpu_schedule
from repro.core import SUPAConfig
from repro.datasets import DATASET_BUILDERS, load_dataset
from repro.datasets.loaders import save_edge_tsv
from repro.eval import LinkPredictionProtocol
from repro.graph.mining import mine_metapaths
from repro.utils.tables import format_table

#: ``recommend`` probes ``serve-replay`` issues every ``--probe-every`` events
PROBES_PER_CHECKPOINT = 4
#: ``mine``'s stream fraction and walk budget (else ``mine_metapaths``')
MINE_PREFIX = 0.3
MINE_WALKS = 400


def _int_at_least(minimum: int) -> Callable[[str], int]:
    """An argparse ``type`` for an integer count of at least ``minimum``:
    a bad value exits 2 at parse time instead of slicing a stream from
    its end or failing in a config's check after the work began."""

    def parse(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be >= {minimum}, got {value}")
        return value

    parse.__name__ = "int"  # argparse names it in "invalid int value: 'x'"
    return parse


#: a parity gate over no users checks nobody
_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


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
    parser.add_argument(
        "--k", type=_positive_int, default=10, help="recommendation list length"
    )
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
    kwargs = {}
    if name == "SUPA":
        config, train_config = cpu_schedule(dim=dim, seed=seed)
        kwargs = dict(config=config, train_config=train_config)
    return make_baseline(name, dataset, dim=dim, seed=seed, **kwargs)


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
    prefix_len = max(1, int(len(dataset.stream) * MINE_PREFIX))
    graph = dataset.build_graph(dataset.stream[:prefix_len])
    schemas = mine_metapaths(graph, num_walks=MINE_WALKS, rng=args.seed)
    if not schemas:
        print("no metapath schemas found")
        return 1
    print(f"mined {len(schemas)} schemas from {prefix_len} edges:")
    for mp in schemas:
        print("  ", mp.describe())
    return 0


def _print_summary(title: str, rows) -> None:
    print(format_table(["metric", "value"], rows, title=title))


def cmd_serve_replay(args: argparse.Namespace) -> int:
    from repro.core.model import SUPA
    from repro.obs import (
        format_flame_table,
        format_span_tree,
        to_prometheus_text,
        write_jsonl_snapshot,
    )
    from repro.replicate.failover import parity_matches
    from repro.serve import RecommendationService, ServeConfig
    from repro.utils.timer import Timer

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    service = RecommendationService(
        dataset,
        model=SUPA.for_dataset(dataset, _serving_model_config(args)),
        config=ServeConfig(batch_size=args.batch_size, capacity=args.capacity),
        trace=args.trace,
    )
    probes = itertools.cycle(service.users)
    timer = Timer()
    with timer:
        for position, edge in enumerate(dataset.stream, 1):
            service.ingest(edge)
            if position % args.probe_every == 0:
                for _ in range(PROBES_PER_CHECKPOINT):
                    service.recommend(int(next(probes)), args.k)
        service.flush()
    events = len(dataset.stream)
    # read before the parity check, whose reads must not land in them
    rows = [("events replayed", events), ("events / s", events / timer.elapsed)]
    rows += [
        (name.replace("_", " "), int(v) if v.is_integer() else v)
        for name, v in service.stats().items()
    ]
    metrics = service.metrics.as_dict()

    users = service.users
    if args.max_parity_users is not None and users.size > args.max_parity_users:
        picks = np.linspace(0, users.size - 1, args.max_parity_users)
        users = users[picks.astype(np.int64)]
    matches = parity_matches(service, users, args.k)
    fraction = matches / max(1, users.size)
    rows += [
        (f"top-{args.k} parity", f"{matches}/{users.size}"),
        ("parity fraction", fraction),
    ]
    _print_summary(
        f"serve-replay: {args.dataset} (scale={args.scale}, k={args.k})", rows
    )
    if args.output:
        report = {
            "dataset": dataset.name,
            "k": args.k,
            "parity_users": int(users.size),
            "parity_matches": matches,
            "parity_fraction": fraction,
            "metrics": metrics,
        }
        os.makedirs(os.path.dirname(os.path.abspath(args.output)), exist_ok=True)
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.output}")
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
    if fraction < args.min_parity:
        print(
            f"FAIL: parity {fraction:.4f} below "
            f"--min-parity {args.min_parity}"
        )
        return 1
    return 0


def _replication_pieces(args: argparse.Namespace):
    """``(dataset, configs)`` shared by every ``replicate`` role, which
    must agree on all of them; ``configs`` are the role constructors'
    ``serve_config`` / ``model_config`` keywords."""
    from repro.serve import ServeConfig

    dataset = load_dataset(args.dataset, scale=args.scale, seed=args.seed)
    serve_config = ServeConfig(
        batch_size=args.batch_size,
        capacity=args.capacity,
        overflow="drop_new",
        late_tolerance=0.0,
        checkpoint_every=args.checkpoint_every,
    )
    return dataset, dict(
        serve_config=serve_config,
        model_config=_serving_model_config(args),
    )


def cmd_replicate_primary(args: argparse.Namespace) -> int:
    from repro.replicate import ReplicationPrimary

    dataset, configs = _replication_pieces(args)
    stream = list(dataset.stream)
    end = len(stream) if args.events is None else min(args.events, len(stream))
    primary = ReplicationPrimary(
        dataset,
        args.state_dir,
        heartbeat_every=args.heartbeat_every,
        **configs,
    )
    accepted = 0
    for edge in stream[:end]:
        if primary.ingest(edge):
            accepted += 1
    # stop abruptly, like a killed process: buffered events stay
    # journaled and a follower inherits them as residue
    primary.close()
    rows = [
        ("events offered", end),
        ("events accepted", accepted),
        ("wal last seq", primary.last_seq),
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
    p.add_argument("--probe-every", type=_positive_int, default=64)
    p.add_argument(
        "--max-parity-users", type=_positive_int, help="cap parity check users"
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
            "--checkpoint-every",
            type=_non_negative_int,
            default=4,
            help="checkpoint cadence in applied updates",
        )

    rp = rsub.add_parser(
        "primary", help="run the writable update loop, publishing its WAL"
    )
    _add_replicate_common(rp)
    rp.add_argument(
        "--heartbeat-every",
        type=_positive_int,
        default=16,
        help="heartbeat cadence in offered events",
    )
    rp.add_argument(
        "--events",
        type=_non_negative_int,
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
        "--probes", type=_positive_int, default=16, help="read probes after draining"
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
        type=_non_negative_int,
        default=0,
        help="stream position ingest resumes from (= events the primary "
        "ingested)",
    )
    rp.add_argument(
        "--events",
        type=_non_negative_int,
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
        "--probes", type=_positive_int, default=16, help="parity probes when verifying"
    )
    rp.set_defaults(func=cmd_replicate_promote)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())

"""Tests for the command-line interface."""

import json
import os

import pytest

from repro.cli import build_parser, main
from reprolint.__main__ import main as lint_main

#: a ``core/`` module with one dtype-less allocation (an ``explicit-dtype`` hit)
UNPINNED = "import numpy as np\nbuf = np.zeros(3)\n"


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_train_defaults(self):
        args = build_parser().parse_args(["train", "--dataset", "uci"])
        assert args.method == "SUPA"
        assert args.dim == 32

    def test_unknown_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train", "--dataset", "netflix"])

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["train", "--dataset", "uci", "--method", "GPT"]
            )


class TestCommands:
    def test_datasets_lists_all(self, capsys):
        assert main(["datasets", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        for name in ("uci", "amazon", "lastfm", "movielens", "taobao", "kuaishou"):
            assert name in out

    def test_train_prints_metrics(self, capsys):
        code = main(
            [
                "train",
                "--dataset",
                "taobao",
                "--scale",
                "0.15",
                "--method",
                "LightGCN",
                "--dim",
                "8",
                "--max-queries",
                "20",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "H@20" in out and "MRR" in out

    def test_compare_ranks_methods(self, capsys):
        code = main(
            [
                "compare",
                "--dataset",
                "taobao",
                "--scale",
                "0.15",
                "--methods",
                "LightGCN",
                "DyHNE",
                "--dim",
                "8",
                "--max-queries",
                "15",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LightGCN" in out and "DyHNE" in out

    def test_mine_prints_schemas(self, capsys):
        code = main(
            ["mine", "--dataset", "taobao", "--scale", "0.2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "->" in out

    def test_export_writes_tsv(self, tmp_path, capsys):
        path = str(tmp_path / "edges.tsv")
        code = main(
            ["export", "--dataset", "uci", "--scale", "0.1", "--output", path]
        )
        assert code == 0
        assert os.path.exists(path)
        with open(path) as fh:
            assert fh.readline().startswith("u\tv\tedge_type")

    def test_lint_subcommand_clean_on_src(self, capsys):
        repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        code = lint_main(
            [os.path.join(repo, "src", "repro"), "--project-root", repo]
        )
        assert code == 0
        assert "reprolint: clean" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "source, extra, code, expected",
        [
            ("x = 1\n", [], 0, "reprolint: clean"),
            (UNPINNED, [], 1, "src/repro/core/alloc.py:2:6: [explicit-dtype]"),
            (UNPINNED, ["--ignore", "explicit-dtype"], 0, "reprolint: clean"),
            ("x = 1\n", ["--select", "bogus-rule"], 2, "unknown rule 'bogus-rule'"),
            (None, [], 2, "no such file or directory"),
        ],
        ids=["clean", "violations", "ignore", "unknown-rule", "missing-path"],
    )
    def test_lint_exit_codes(self, tmp_path, capsys, source, extra, code, expected):
        tree = tmp_path / "src" / "repro"
        if source is not None:
            (tmp_path / "pyproject.toml").write_text("[project]\nname = 'fixture'\n")
            (tree / "core").mkdir(parents=True)
            (tree / "core" / "alloc.py").write_text(source)
        assert lint_main([str(tree), "--project-root", str(tmp_path), *extra]) == code
        captured = capsys.readouterr()
        assert expected in (captured.err if code == 2 else captured.out)


class TestServeReplay:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["serve-replay", "--dataset", "uci"])
        assert args.k == 10
        assert args.batch_size == 256
        assert args.min_parity == 0.99
        assert args.output == ""  # nothing written unless asked

    def test_replay_writes_report_and_passes_parity(self, tmp_path, capsys):
        out = tmp_path / "serving.json"
        code = main(
            [
                "serve-replay",
                "--dataset",
                "uci",
                "--scale",
                "0.05",
                "--k",
                "5",
                "--batch-size",
                "64",
                "--probe-every",
                "40",
                "--output",
                str(out),
            ]
        )
        captured = capsys.readouterr().out
        assert code == 0
        assert "serve-replay: uci" in captured
        assert "parity fraction" in captured
        payload = json.loads(out.read_text())
        assert payload["k"] == 5
        assert payload["parity_fraction"] >= 0.99
        assert payload["metrics"]["latency.recommend_seconds"]["count"] > 0

    def test_min_parity_gate_can_fail(self, tmp_path, capsys):
        code = main(
            [
                "serve-replay",
                "--dataset",
                "uci",
                "--scale",
                "0.05",
                "--batch-size",
                "64",
                "--min-parity",
                "1.1",
                "--output",
                "",
            ]
        )
        assert code == 1
        assert "FAIL: parity" in capsys.readouterr().out

    def test_capacity_reaches_the_queue(self, monkeypatch, capsys):
        """A batch above the default capacity needs --capacity to land."""
        import repro.serve

        built = []
        build = repro.serve.RecommendationService

        def spy(*args, **kwargs):
            built.append(build(*args, **kwargs))
            return built[-1]

        monkeypatch.setattr(repro.serve, "RecommendationService", spy)
        code = main(
            [
                "serve-replay", "--dataset", "uci", "--scale", "0.05", "--dim", "8",
                "--batch-size", "4096", "--capacity", "8192",
                "--max-parity-users", "8",
            ]
        )
        assert code == 0
        assert built[0].queue.capacity == 8192
        assert "serve-replay: uci" in capsys.readouterr().out

    def test_a_cap_of_one_checks_one_user(self, tmp_path, capsys):
        out = tmp_path / "nested" / "serving.json"
        code = main(
            [
                "serve-replay", "--dataset", "uci", "--scale", "0.05", "--dim", "8",
                "--batch-size", "64", "--max-parity-users", "1", "--output", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {
            "dataset", "k", "parity_users", "parity_matches", "parity_fraction",
            "metrics",
        }
        assert payload["parity_users"] == 1 and payload["parity_matches"] == 1


SERVE_REPLAY = ["serve-replay", "--dataset", "uci"]
PRIMARY = ["replicate", "primary", "--dataset", "uci", "--state-dir", "s"]
FOLLOWER = ["replicate", "follower", "--dataset", "uci", "--state-dir", "s"]
PROMOTE = [
    "replicate", "promote", "--dataset", "uci", "--state-dir", "s",
    "--replica-dir", "r",
]


class TestCountsBelowOne:
    """A count below its floor exits 2 at parse time.  ``--probes 0``
    passed the follower's parity gate as 0/0 and ``--probes -3`` checked
    all users but the last three; ``--k 0`` and ``--probe-every 0`` ended
    in a traceback, ``--k 0`` only after the whole replay.  ``replicate
    primary --events -5`` ingested all but the last five events,
    ``promote --resume-from -3`` resumed from the stream's end (so
    ``--verify-parity`` replayed another prefix than the primary
    ingested), and ``--heartbeat-every 0`` / ``--checkpoint-every -1``
    ended in a configuration traceback."""

    @pytest.mark.parametrize(
        "argv, floor",
        [
            (SERVE_REPLAY + ["--k", "0"], 1),
            (SERVE_REPLAY + ["--probe-every", "0"], 1),
            (SERVE_REPLAY + ["--max-parity-users", "0"], 1),
            (SERVE_REPLAY + ["--max-parity-users", "-3"], 1),
            (FOLLOWER + ["--probes", "0"], 1),
            (FOLLOWER + ["--probes", "-3"], 1),
            (PROMOTE + ["--probes", "0"], 1),
            (PROMOTE + ["--k", "-1"], 1),
            (PRIMARY + ["--events", "-5"], 0),
            (PROMOTE + ["--events", "-1"], 0),
            (PROMOTE + ["--resume-from", "-3"], 0),
            (PRIMARY + ["--checkpoint-every", "-1"], 0),
            (PRIMARY + ["--heartbeat-every", "0"], 1),
        ],
        ids=[
            "k-0", "probe-every-0", "max-parity-users-0", "max-parity-users-neg",
            "follower-probes-0", "follower-probes-neg", "promote-probes-0",
            "promote-k-neg", "primary-events-neg", "promote-events-neg",
            "promote-resume-from-neg", "checkpoint-every-neg", "heartbeat-every-0",
        ],
    )
    def test_exits_2_at_parse_time(self, argv, floor, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert f"must be >= {floor}" in capsys.readouterr().err

    def test_zero_is_a_replicate_count(self):
        args = build_parser().parse_args(
            PROMOTE + ["--events", "0", "--resume-from", "0", "--checkpoint-every", "0"]
        )
        assert (args.events, args.resume_from, args.checkpoint_every) == (0, 0, 0)


@pytest.mark.parametrize("role", [FOLLOWER, PROMOTE], ids=["follower", "promote"])
def test_heartbeat_every_is_a_primary_flag(role, capsys):
    """Only the primary writes heartbeats: a follower or promote run
    given ``--heartbeat-every`` refuses it instead of ignoring it."""
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(role + ["--heartbeat-every", "4"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --heartbeat-every 4" in capsys.readouterr().err


class TestReplicate:
    def test_parser_defaults(self):
        args = build_parser().parse_args(
            ["replicate", "primary", "--dataset", "uci", "--state-dir", "s"]
        )
        assert args.role == "primary"
        assert args.heartbeat_every == 16
        assert args.checkpoint_every == 4

    def test_role_is_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["replicate"])

    def test_primary_follower_promote_pipeline(self, tmp_path, capsys):
        state = str(tmp_path / "primary")
        replica = str(tmp_path / "replica")
        common = ["--dataset", "uci", "--scale", "0.05", "--dim", "16"]
        # abrupt-kill primary: the follower must cope with the torn tail
        assert main(
            ["replicate", "primary", *common, "--state-dir", state, "--events", "80"]
        ) == 0
        out = capsys.readouterr().out
        assert "replicate primary" in out
        assert main(
            ["replicate", "follower", *common, "--state-dir", state, "--probes", "4"]
        ) == 0
        out = capsys.readouterr().out
        assert "parity" in out
        assert main(
            [
                "replicate",
                "promote",
                *common,
                "--state-dir",
                state,
                "--replica-dir",
                replica,
                "--resume-from",
                "80",
                "--events",
                "40",
                "--verify-parity",
                "--probes",
                "4",
            ]
        ) == 0
        out = capsys.readouterr().out
        assert "fingerprint" in out


class TestObs:
    """``serve-replay --trace``: the telemetry story."""

    ARGS = [
        "serve-replay", "--dataset", "uci", "--scale", "0.05", "--batch-size", "64",
        "--trace",
    ]

    def test_default_writes_nothing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert build_parser().parse_args(self.ARGS).output_dir == ""
        assert main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "span tree" in out and "metrics snapshot" in out
        assert "wrote" not in out
        assert list(tmp_path.iterdir()) == []

    def test_exports_land_where_told(self, capsys, tmp_path):
        out_dir = tmp_path / "telemetry"
        assert main(self.ARGS + ["--output-dir", str(out_dir)]) == 0
        prom = (out_dir / "obs_metrics.prom").read_text()
        assert "# TYPE repro_latency_recommend_seconds histogram" in prom
        assert 'repro_latency_recommend_seconds_bucket{le="+Inf"}' in prom
        assert "quantile=" not in prom
        assert len((out_dir / "obs_telemetry.jsonl").read_text().splitlines()) == 1

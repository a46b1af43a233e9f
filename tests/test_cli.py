"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.obs import validate_payload


class TestParser:
    def test_known_commands(self):
        parser = build_parser()
        args = parser.parse_args(["fig3", "--dataset", "querylog", "--scale", "small"])
        assert args.command == "fig3"
        assert args.dataset == "querylog"
        assert args.scale == "small"

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig99"])

    def test_defaults(self):
        args = build_parser().parse_args(["fig2"])
        assert args.scale == "paper"
        assert args.distance == "shel"
        assert args.jobs == 1

    def test_jobs_flag(self):
        args = build_parser().parse_args(["fig1", "--jobs", "4"])
        assert args.jobs == 4
        args = build_parser().parse_args(["fig3", "--jobs", "0"])
        assert args.jobs == 0

    def test_negative_jobs_is_an_explicit_error(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig1", "--jobs", "-2"])
        stderr = capsys.readouterr().err
        assert "--jobs must be >= 0" in stderr
        assert "-2" in stderr


class TestMain:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "fig1" in output and "table4" in output

    def test_fig5_small(self, capsys):
        assert main(["fig5", "--scale", "small"]) == 0
        output = capsys.readouterr().out
        assert "Figure 5" in output

    def test_table4_small(self, capsys):
        assert main(["table4", "--scale", "small"]) == 0
        assert "Table IV" in capsys.readouterr().out

    def test_streaming_small(self, capsys):
        assert main(["streaming", "--scale", "small"]) == 0
        assert "Extension X1" in capsys.readouterr().out

    def test_lsh_small(self, capsys):
        assert main(["lsh", "--scale", "small"]) == 0
        out = capsys.readouterr().out
        assert "Extension X2" in out
        # The wall clock stays in the command's output, after the table.
        assert re.search(r"^exact \d+\.\d{4} s, lsh \d+\.\d{4} s$", out, re.M)

    def test_fig1_querylog_small(self, capsys):
        assert main(["fig1", "--dataset", "querylog", "--scale", "small"]) == 0
        assert "Figure 1 (querylog)" in capsys.readouterr().out

    def test_selection_small(self, capsys):
        assert main(["selection", "--scale", "small"]) == 0
        output = capsys.readouterr().out
        assert "Scheme selection for" in output
        assert "anomaly_detection" in output

    def test_deanonymize_small(self, capsys):
        assert main(["deanonymize", "--scale", "small"]) == 0
        assert "De-anonymization attack" in capsys.readouterr().out


class TestObservabilityCli:
    def test_obs_out_writes_schema_valid_payload(self, tmp_path, capsys):
        out = tmp_path / "obs.json"
        assert main(["fig5", "--scale", "small", "--obs-out", str(out)]) == 0
        assert f"observability payload written to {out}" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        assert validate_payload(payload) == []
        assert payload["meta"] == {"command": "fig5", "scale": "small", "jobs": 1}
        [root] = payload["spans"]
        assert root["name"] == "cli.fig5"

    def test_obs_prom_writes_prometheus_text(self, tmp_path, capsys):
        prom = tmp_path / "metrics.prom"
        assert main(["fig5", "--scale", "small", "--obs-prom", str(prom)]) == 0
        text = prom.read_text()
        assert "# TYPE repro_kernel_calls_total counter" in text
        assert "repro_span_seconds_count" in text

    def test_no_obs_flags_writes_nothing(self, tmp_path, capsys):
        assert main(["fig5", "--scale", "small"]) == 0
        assert "observability payload" not in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []

    def test_fig1_parallel_kernel_counts_match_workload_exactly(
        self, tmp_path, capsys
    ):
        """Acceptance check: fig1 --jobs 4 --obs-out merges the worker
        metrics into kernel call/pair counts that match the workload
        (schemes x distances grid over the small network population)."""
        from repro.experiments.config import (
            ExperimentConfig,
            get_enterprise_dataset,
            make_schemes,
        )

        out = tmp_path / "obs.json"
        assert (
            main(
                [
                    "fig1", "--scale", "small", "--jobs", "4",
                    "--obs-out", str(out),
                ]
            )
            == 0
        )
        capsys.readouterr()
        payload = json.loads(out.read_text())
        assert validate_payload(payload) == []

        config = ExperimentConfig(scale="small")
        population = len(get_enterprise_dataset("small").local_hosts)
        num_schemes = len(make_schemes(1, config.reset_probability, config.rwr_hops))
        counters = payload["counters"]
        for distance in config.distances:
            # Uniqueness: one all-pairs batch kernel per (scheme, distance).
            base = f"metric={distance},op=pairwise,path=batch"
            assert counters[f"kernel.calls{{{base}}}"] == num_schemes
            assert (
                counters[f"kernel.pairs{{{base}}}"]
                == num_schemes * population * population
            )
            # Persistence: one diagonal pair kernel per (scheme, distance).
            base = f"metric={distance},op=pairs,path=batch"
            assert counters[f"kernel.calls{{{base}}}"] == num_schemes
            assert counters[f"kernel.pairs{{{base}}}"] == num_schemes * population
        # The merged span tree nests worker cells under the CLI root.
        [root] = payload["spans"]
        assert root["name"] == "cli.fig1"
        [experiment] = root["children"]
        assert experiment["name"] == "experiment.fig1{dataset=network}"
        cells = {child["name"] for child in experiment["children"]}
        assert len(cells) == num_schemes
        assert all(name.startswith("fig1.cell{scheme=") for name in cells)


class TestPipelineCli:
    @pytest.fixture
    def trace(self, tmp_path):
        from repro.graph.stream import EdgeRecord, write_edge_records

        path = tmp_path / "trace.csv"
        records = [
            EdgeRecord(time=float(w), src=f"h{i % 4}", dst=f"e{i % 9}", weight=1.0)
            for w in range(2)
            for i in range(20)
        ]
        write_edge_records(records, path)
        return path

    def test_pipeline_requires_input_and_checkpoint_dir(self):
        with pytest.raises(SystemExit):
            main(["pipeline", "run"])

    def test_pipeline_run(self, trace, tmp_path, capsys):
        assert (
            main(
                [
                    "pipeline",
                    "run",
                    "--input",
                    str(trace),
                    "--checkpoint-dir",
                    str(tmp_path / "ckpt"),
                    "--scheme",
                    "tt",
                    "--k",
                    "5",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "pipeline run: 2 windows" in output
        assert "exact" in output

    def test_pipeline_resume_replays_checkpoints(self, trace, tmp_path, capsys):
        argv_tail = [
            "--input", str(trace), "--checkpoint-dir", str(tmp_path / "ckpt"),
        ]
        assert main(["pipeline", "run", *argv_tail]) == 0
        capsys.readouterr()
        assert main(["pipeline", "resume", *argv_tail]) == 0
        output = capsys.readouterr().out
        assert "resumed: windows 0..1 replayed from checkpoint" in output

    def test_pipeline_quarantine_policy(self, trace, tmp_path, capsys):
        trace.write_text(trace.read_text() + "garbage,row,here\n")
        assert (
            main(
                [
                    "pipeline",
                    "run",
                    "--input",
                    str(trace),
                    "--checkpoint-dir",
                    str(tmp_path / "ckpt"),
                    "--errors",
                    "quarantine",
                    "--quarantine",
                    str(tmp_path / "q.csv"),
                ]
            )
            == 0
        )
        assert "1 rejected" in capsys.readouterr().out
        assert (tmp_path / "q.csv").exists()

    def test_list_mentions_pipeline(self, capsys):
        assert main(["list"]) == 0
        assert "pipeline run" in capsys.readouterr().out


class TestLiveObservabilityCli:
    def test_obs_log_writes_parseable_events(self, tmp_path, capsys):
        from repro.obs import read_events

        log_path = tmp_path / "events.jsonl"
        assert main(["fig5", "--scale", "small", "--obs-log", str(log_path)]) == 0
        output = capsys.readouterr().out
        assert f"event log appended to {log_path}" in output
        events = read_events(log_path)
        assert events, "no events recorded"
        run_ids = {event["run_id"] for event in events}
        assert len(run_ids) == 1
        assert all("ts" in event and "seq" in event for event in events)

    def test_obs_serve_ephemeral_port_for_experiment_command(
        self, tmp_path, capsys
    ):
        # Port 0: bind an ephemeral port and report it.  The server runs
        # only during the body (no linger), so this just checks the
        # lifecycle messages and a clean exit.
        assert main(["fig5", "--scale", "small", "--obs-serve", "0"]) == 0
        assert "obs server listening on http://127.0.0.1:" in capsys.readouterr().out

    def test_obs_serve_validation(self, capsys):
        with pytest.raises(SystemExit):
            main(["fig5", "--obs-serve", "65536"])
        assert "--obs-serve must be a TCP port" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["fig5", "--obs-serve", "0", "--obs-serve-linger", "-1"])
        assert "--obs-serve-linger must be >= 0" in capsys.readouterr().err
        with pytest.raises(SystemExit):
            main(["fig5", "--obs-sample", "0"])
        assert "--obs-sample must be positive" in capsys.readouterr().err

    def test_pipeline_obs_log_routes_run_events(self, tmp_path, capsys):
        from repro.graph.stream import EdgeRecord, write_edge_records
        from repro.obs import read_events

        trace = tmp_path / "trace.csv"
        records = [
            EdgeRecord(time=float(w), src=f"h{i % 4}", dst=f"e{i % 9}", weight=1.0)
            for w in range(2)
            for i in range(20)
        ]
        write_edge_records(records, trace)
        log_path = tmp_path / "events.jsonl"
        assert (
            main(
                [
                    "pipeline", "run",
                    "--input", str(trace),
                    "--checkpoint-dir", str(tmp_path / "ckpt"),
                    "--obs-log", str(log_path),
                ]
            )
            == 0
        )
        names = [event["event"] for event in read_events(log_path)]
        assert "pipeline.run.start" in names
        assert "pipeline.window" in names
        assert "pipeline.run.finish" in names

    def test_obs_sample_records_series_alongside_snapshot(self, tmp_path, capsys):
        out = tmp_path / "obs.json"
        assert (
            main(
                [
                    "fig5", "--scale", "small",
                    "--obs-sample", "0.01",
                    "--obs-out", str(out),
                ]
            )
            == 0
        )
        assert out.exists()


class TestServeCli:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.host == "127.0.0.1"
        assert args.port == 8080
        assert args.shards == 4
        assert args.window_records == 256
        assert args.queue_capacity == 4096
        assert args.serve_max_restarts == 2
        assert args.serve_distance == "sdice"
        assert args.serve_for is None

    def test_serve_flags_land_in_namespace(self):
        args = build_parser().parse_args(
            [
                "serve", "--port", "9000", "--shards", "8",
                "--window-records", "64", "--queue-capacity", "512",
                "--serve-max-restarts", "0", "--serve-distance", "jaccard",
                "--serve-for", "1.5", "--scheme", "ut", "--k", "20",
            ]
        )
        assert args.port == 9000
        assert args.shards == 8
        assert args.window_records == 64
        assert args.queue_capacity == 512
        assert args.serve_max_restarts == 0
        assert args.serve_distance == "jaccard"
        assert args.serve_for == 1.5
        assert args.scheme == "ut"
        assert args.k == 20

    def test_serve_rejects_bad_port_and_duration(self):
        with pytest.raises(SystemExit):
            main(["serve", "--port", "70000", "--serve-for", "0"])
        with pytest.raises(SystemExit):
            main(["serve", "--serve-for", "-1"])

    def test_serve_rejects_unknown_distance(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--serve-distance", "cosine"])

    def test_list_mentions_serve(self, capsys):
        assert main(["list"]) == 0
        assert "serve" in capsys.readouterr().out

    def test_serve_replays_trace_and_serves_http(self, tmp_path, capsys):
        import threading
        import urllib.request

        from repro.graph.stream import EdgeRecord, write_edge_records

        trace = tmp_path / "trace.csv"
        records = [
            EdgeRecord(time=float(i), src=f"h{i % 5}", dst=f"e{i % 9}", weight=1.0)
            for i in range(64)
        ]
        write_edge_records(records, trace)

        statuses = {}

        def probe():
            # Wait for the "listening on" line to learn the ephemeral port.
            for _ in range(400):
                output = capsys.readouterr()
                statuses.setdefault("stdout", "")
                statuses["stdout"] += output.out
                if "listening on" in statuses["stdout"]:
                    break
                threading.Event().wait(0.01)
            for line in statuses["stdout"].splitlines():
                if "listening on" in line:
                    url = line.rsplit(" ", 1)[-1]
                    with urllib.request.urlopen(f"{url}/status", timeout=5) as reply:
                        statuses["code"] = reply.status
                    return

        prober = threading.Thread(target=probe, daemon=True)
        prober.start()
        assert (
            main(
                [
                    "serve", "--input", str(trace), "--port", "0",
                    "--window-records", "32", "--serve-for", "1.0",
                ]
            )
            == 0
        )
        prober.join(timeout=5)
        assert "replayed" in statuses["stdout"]
        assert statuses.get("code") == 200

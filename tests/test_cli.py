"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_elect_arguments(self):
        parser = build_parser()
        args = parser.parse_args(
            ["elect", "--workload", "clique", "--size", "20", "--protocol", "token"]
        )
        assert args.command == "elect"
        assert args.size == 20
        assert args.protocol == "token"

    def test_invalid_protocol_rejected(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(
                ["elect", "--workload", "clique", "--size", "20", "--protocol", "bogus"]
            )

    def test_service_subcommands_parse(self):
        parser = build_parser()
        serve = parser.parse_args(["serve", "--port", "7070", "--local-workers", "2"])
        assert (serve.command, serve.port, serve.local_workers) == ("serve", 7070, 2)
        worker = parser.parse_args(["worker", "--connect", "10.0.0.5:7070"])
        assert (worker.command, worker.connect) == ("worker", "10.0.0.5:7070")
        submit = parser.parse_args(["submit", "--connect", "h:1", "--scenario", "clique-n100"])
        assert (submit.command, submit.scenario) == ("submit", "clique-n100")

    @pytest.mark.parametrize("flag", ["--threads", "--shards", "--shard-workers"])
    @pytest.mark.parametrize("command", ["sweep", "submit"])
    def test_execution_dials_are_not_options(self, command, flag):
        argv = [command, "--scenario", "table1-stars", flag, "2"]
        if command == "submit":
            argv[1:1] = ["--connect", "h:1"]
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_worker_requires_endpoint(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["worker"])


class TestCommands:
    def test_workloads_command(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "clique" in out
        assert "dense-gnp" in out

    def test_elect_command(self, capsys):
        code = main(
            [
                "elect",
                "--workload",
                "clique",
                "--size",
                "16",
                "--protocol",
                "token",
                "--repetitions",
                "2",
                "--seed",
                "1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "token-6state" in out

    def test_elect_star_protocol(self, capsys):
        code = main(
            [
                "elect",
                "--workload",
                "star",
                "--size",
                "20",
                "--protocol",
                "star",
                "--repetitions",
                "2",
            ]
        )
        assert code == 0
        assert "star-trivial" in capsys.readouterr().out

    def test_graph_info_command(self, capsys):
        assert main(["graph-info", "--workload", "cycle", "--size", "12"]) == 0
        out = capsys.readouterr().out
        assert "Graph properties" in out
        assert "Table 1 parameters" in out

    def test_broadcast_command(self, capsys):
        code = main(
            ["broadcast", "--workload", "clique", "--size", "16", "--repetitions", "2"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Broadcast time" in out
        assert "measured B(G)" in out

    def test_table1_command(self, capsys):
        code = main(
            [
                "table1",
                "--family",
                "star",
                "--sizes",
                "10",
                "16",
                "--repetitions",
                "1",
            ]
        )
        assert code == 0
        assert "Table 1" in capsys.readouterr().out

    def test_unknown_workload_errors(self):
        with pytest.raises(KeyError):
            main(["graph-info", "--workload", "bogus", "--size", "10"])


class TestSweepCommand:
    def test_scenarios_command(self, capsys):
        assert main(["scenarios"]) == 0
        out = capsys.readouterr().out
        assert "table1-clique" in out
        assert "hypercube-expander" in out
        assert "pref-attach-hubs" in out

    def test_sweep_runs_and_reports_cache_stats(self, capsys, tmp_path):
        args = [
            "sweep",
            "--scenario",
            "table1-stars",
            "--sizes",
            "6",
            "10",
            "--repetitions",
            "2",
            "--jobs",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "star-trivial" in out
        assert "0/4 units from cache" in out
        # Second invocation is served entirely from the store.
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "4/4 units from cache" in out

    def test_sweep_no_cache(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep",
                    "--scenario",
                    "table1-stars",
                    "--sizes",
                    "6",
                    "10",
                    "--repetitions",
                    "1",
                    "--no-cache",
                    "--cache-dir",
                    str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "cache off" in out
        assert list(tmp_path.iterdir()) == []

    def test_sweep_single_size_reports_degenerate_fit(self, capsys, tmp_path):
        assert (
            main(
                [
                    "sweep",
                    "--scenario",
                    "table1-stars",
                    "--sizes",
                    "8",
                    "--repetitions",
                    "1",
                    "--no-cache",
                ]
            )
            == 0
        )
        assert "no scaling fit" in capsys.readouterr().out

    def test_sweep_dynamic_scenario(self, capsys, tmp_path):
        args = [
            "sweep",
            "--scenario",
            "dynamic-epoch-mix",
            "--sizes",
            "12",
            "--repetitions",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "dynamic-epoch-mix" in out
        assert "token-6state" in out
        # Dynamic results are cached under the schedule-aware content hash.
        assert main(args) == 0
        assert "2/2 units from cache" in capsys.readouterr().out


class TestCliErrorPaths:
    def test_sweep_unknown_scenario_lists_known_names(self):
        with pytest.raises(KeyError) as excinfo:
            main(["sweep", "--scenario", "bogus"])
        message = str(excinfo.value)
        assert "unknown scenario 'bogus'" in message
        assert "table1-clique" in message
        assert "dynamic-epoch-mix" in message

    def test_sweep_rejects_bad_engine_value(self, capsys):
        for engine in ("warp-drive", "compiled"):
            with pytest.raises(SystemExit) as excinfo:
                main(["sweep", "--scenario", "table1-stars", "--engine", engine])
            assert excinfo.value.code == 2
            assert "invalid choice" in capsys.readouterr().err

    def test_worker_rejects_malformed_endpoint(self, capsys):
        assert main(["worker", "--connect", "no-port-here"]) == 2
        assert "expected host:port" in capsys.readouterr().err

    def test_submit_unreachable_server_is_a_clean_error(self, capsys):
        code = main(
            ["submit", "--connect", "127.0.0.1:1", "--scenario", "clique-n100"]
        )
        assert code == 1
        assert "cannot reach job server" in capsys.readouterr().err

    def test_submit_command_end_to_end(self, capsys, tmp_path):
        """`submit` against a live server prints the same tables as `sweep`."""
        import asyncio
        import threading

        from repro.service import JobServer

        ready = threading.Event()
        endpoint = {}
        loop = asyncio.new_event_loop()

        def serve():
            asyncio.set_event_loop(loop)

            async def up():
                server = JobServer(cache_dir=tmp_path, local_workers=1)
                endpoint["addr"] = "{}:{}".format(*await server.start())
                endpoint["server"] = server
                ready.set()

            loop.run_until_complete(up())
            loop.run_forever()

        thread = threading.Thread(target=serve, daemon=True)
        thread.start()
        assert ready.wait(timeout=10)
        try:
            code = main(
                [
                    "submit",
                    "--connect",
                    endpoint["addr"],
                    "--scenario",
                    "table1-stars",
                    "--sizes",
                    "6",
                    "10",
                    "--repetitions",
                    "1",
                    "--events",
                ]
            )
            out = capsys.readouterr().out
            assert code == 0
            assert "[done]" in out
            assert "table1-stars" in out
            assert "executed by" in out
        finally:
            asyncio.run_coroutine_threadsafe(
                endpoint["server"].stop(), loop
            ).result(timeout=10)
            loop.call_soon_threadsafe(loop.stop)
            thread.join(timeout=10)
            loop.close()

    def test_elect_rejects_bad_engine_value(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(
                [
                    "elect",
                    "--workload",
                    "clique",
                    "--size",
                    "8",
                    "--engine",
                    "warp-drive",
                ]
            )
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_sweep_recovers_from_corrupted_cache_entry(self, capsys, tmp_path):
        args = [
            "sweep",
            "--scenario",
            "table1-stars",
            "--sizes",
            "6",
            "--repetitions",
            "2",
            "--cache-dir",
            str(tmp_path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        unit_files = sorted(tmp_path.glob("*/units/*.json"))
        assert len(unit_files) == 2
        # One hard-kill truncation, one well-formed-but-wrong payload.
        unit_files[0].write_text('{"version": 2, "unit": "p00-s00-t00')
        unit_files[1].write_text('{"version": 999, "unit": "wrong", "records": []}')
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "0/2 units from cache" in out
        # The corrupted files were replaced by fresh, valid payloads.
        assert main(args) == 0
        assert "2/2 units from cache" in capsys.readouterr().out

    def test_sweep_reports_identical_results_after_corruption(self, capsys, tmp_path):
        args = [
            "sweep",
            "--scenario",
            "table1-stars",
            "--sizes",
            "6",
            "10",
            "--repetitions",
            "1",
            "--cache-dir",
            str(tmp_path),
        ]
        def measured_tables(output):
            # Drop the final provenance line (cache-hit counts, wall time).
            return "\n".join(output.splitlines()[:-1])

        assert main(args) == 0
        first = measured_tables(capsys.readouterr().out)
        victim = sorted(tmp_path.glob("*/units/*.json"))[0]
        victim.write_text("not json at all")
        assert main(args) == 0
        second = measured_tables(capsys.readouterr().out)
        assert first == second

"""Tests for the console CLI (repro.cli)."""

import pytest

from repro.cli import CliError, ConsoleSession, main


def session():
    s = ConsoleSession(scale=2048, seed=1)
    s.execute("host 4 8MB 4")
    return s


class TestCommands:
    def test_host_reports_scaled_l2(self):
        s = ConsoleSession(scale=2048)
        output = s.execute("host 4 8MB 4")
        assert "4 CPUs" in output and "4KB" in output

    def test_program_single(self):
        s = session()
        output = s.execute("program single 64MB")
        assert "node A" in output

    def test_program_split(self):
        s = session()
        output = s.execute("program split 64MB 2")
        assert "node A" in output and "node B" in output

    def test_program_multi(self):
        s = session()
        output = s.execute("program multi 16MB 64MB")
        assert "group 0" in output and "group 1" in output

    def test_full_session(self):
        s = session()
        s.execute("program single 64MB")
        s.execute("workload tpcc 150GB")
        run_output = s.execute("run 20000")
        assert "20,000 references" in run_output
        ratios = s.execute("miss-ratios")
        assert ratios.startswith("node 0:")
        report = s.execute("report")
        assert "node0.local.read" in report

    def test_stats_and_reset_pass_through(self):
        s = session()
        s.execute("program single 64MB")
        s.execute("workload web 4GB")
        s.execute("run 5000")
        assert "global.bus.tenures" in s.execute("stats")
        assert s.execute("reset") == "ok"

    def test_save_trace(self, tmp_path):
        s = session()
        s.execute("workload tpch 100GB")
        path = tmp_path / "session.mies"
        output = s.execute(f"save-trace {path} 5000")
        assert "5,000 records" in output
        from repro.bus.trace import TraceReader

        assert len(TraceReader(path).load()) == 5000

    def test_save_and_reload_programming(self, tmp_path):
        s = session()
        s.execute("program split 64MB 2")
        path = tmp_path / "machine.json"
        assert "saved programming" in s.execute(f"save-machine {path}")
        fresh = session()
        output = fresh.execute(f"program file {path}")
        assert "node A" in output and "node B" in output

    def test_save_machine_requires_programming(self, tmp_path):
        with pytest.raises(CliError, match="programming"):
            session().execute(f"save-machine {tmp_path}/x.json")

    def test_sweep(self):
        s = session()
        s.execute("workload tpcc 150GB")
        output = s.execute("sweep 5000 16MB 256MB")
        assert "swept 5,000 records" in output
        assert "16MB" in output and "256MB" in output
        lines = [line for line in output.splitlines() if "miss ratio" in line]
        assert len(lines) == 2

    def test_sweep_requires_workload(self):
        with pytest.raises(CliError, match="workload"):
            session().execute("sweep 1000 16MB")

    def test_help(self):
        assert "program single" in session().execute("help")
        assert "sweep" in session().execute("help")

    def test_comments_and_blank_lines_ignored(self):
        s = session()
        assert s.execute("") == ""
        assert s.execute("# a comment") == ""


class TestErrors:
    def test_unknown_command(self):
        with pytest.raises(CliError):
            session().execute("frobnicate")

    def test_run_without_workload(self):
        with pytest.raises(CliError, match="workload"):
            session().execute("run 100")

    def test_run_without_host(self):
        s = ConsoleSession()
        s.execute("workload tpcc")
        with pytest.raises(CliError, match="host"):
            s.execute("run 100")

    def test_bad_program_mode(self):
        with pytest.raises(CliError):
            session().execute("program doughnut 64MB")

    def test_bad_workload(self):
        with pytest.raises(CliError):
            session().execute("workload minecraft")


class TestMain:
    def test_scripted_session(self, tmp_path, capsys):
        script = tmp_path / "session.txt"
        script.write_text(
            "host 4 8MB 4 2048\n"
            "program single 64MB\n"
            "workload tpcc 150GB\n"
            "run 10000\n"
            "miss-ratios\n"
            "quit\n"
        )
        assert main([str(script)]) == 0
        output = capsys.readouterr().out
        assert "10,000 references" in output
        assert "node 0:" in output

    def test_error_sets_status(self, tmp_path, capsys):
        script = tmp_path / "bad.txt"
        script.write_text("frobnicate\n")
        assert main([str(script)]) == 1
        assert "error:" in capsys.readouterr().out


class TestBenchSubcommand:
    def test_bench_reports_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "BENCH_replay.json"
        status = main(
            [
                "bench", "--records", "1500", "--shards", "2",
                "--inline-shards", "--out", str(out),
            ]
        )
        assert status == 0
        printed = capsys.readouterr().out
        assert "compiled speedup over scalar" in printed
        import json

        report = json.loads(out.read_text())
        assert report["identical"] is True
        assert set(report["engines"]) == {"scalar", "compiled", "sharded"}
        for entry in report["engines"].values():
            assert entry["records_per_second"] > 0

"""End-to-end CLI tests, driven in process through main(argv)."""

import json
import os
import re
import subprocess
import sys

import pytest

import affsim
from affsim import FairnessConfig, SimConfig, cli, profile_stats
from affsim.cli import main
from affsim.profiles import fairness_table3

TABLE_ROW = re.compile(
    r"^(aff|avg3|ewma)\s+\d+\s+\d+\s+"
    r"(--|\d+\.\d{2}(, \d+\.\d{2})*)\s+\d+\.\d{2}$")


class TestCompare:
    def test_three_row_table(self, capsys):
        rc = main(["compare", "--synth", "test1", "--seed", "7"])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert out[0].split() == ["method", "bitrate_changes",
                                  "stall_events", "stall_time_s",
                                  "mean_bitrate_kbps"]
        assert len(out) == 4
        assert [line.split()[0] for line in out[1:]] == \
            ["aff", "avg3", "ewma"]
        for line in out[1:]:
            assert TABLE_ROW.match(line), line

    def test_out_json_payload(self, capsys, tmp_path):
        path = tmp_path / "cmp.json"
        rc = main(["compare", "--synth", "test1", "--seed", "7",
                   "--out", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert sorted(payload) == ["aff", "avg3", "ewma"]
        for rep in payload.values():
            assert {"bitrate_changes", "stall_events",
                    "mean_bitrate_kbps"} <= set(rep)

    def test_avg_window_names_the_row(self, capsys, tmp_path):
        path = tmp_path / "cmp.json"
        rc = main(["compare", "--synth", "test1", "--seed", "7",
                   "--avg-window", "5", "--out", str(path)])
        out = capsys.readouterr().out.splitlines()
        assert rc == 0
        assert [line.split()[0] for line in out[1:]] == \
            ["aff", "avg5", "ewma"]
        assert sorted(json.loads(path.read_text())) == \
            ["aff", "avg5", "ewma"]

    def test_estimator_option_refused(self, capsys):
        # compare runs every kind, so it has no --estimator to ignore
        with pytest.raises(SystemExit) as exc:
            main(["compare", "--synth", "test1", "--segments", "20",
                  "--estimator", "ewma"])
        err = capsys.readouterr().err
        assert exc.value.code == 2
        assert err.startswith("usage: affsim")
        assert err.endswith(
            "error: unrecognized arguments: --estimator ewma\n")


class TestRun:
    def test_session_summary_lines(self, capsys):
        rc = main(["run", "--synth", "test1", "--seed", "3",
                   "--segments", "60"])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"^segments: 60$", out, re.M)
        for key in ("mean_bitrate_kbps", "stall_time_s", "startup_delay_s",
                    "wall_time_s", "idle_full_s"):
            assert re.search(r"^%s: \d+\.\d{4}$" % key, out, re.M)
        assert re.search(r"^(bitrate_changes|stall_events): \d+$", out, re.M)

    def test_builtin_profile_by_name(self, capsys):
        rc = main(["run", "--profile", "fairness-table3",
                   "--segments", "100"])
        assert rc == 0
        assert "segments: 100" in capsys.readouterr().out

    def test_json_export_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        rc = main(["run", "--synth", "test1", "--seed", "3",
                   "--segments", "40", "--out", str(path)])
        assert rc == 0
        report = json.loads(path.read_text())
        assert report["bitrate_changes"] >= 0
        assert report["mean_bitrate_kbps"] > 0

    def test_csv_export_file(self, capsys, tmp_path):
        path = tmp_path / "report.csv"
        rc = main(["run", "--synth", "test1", "--seed", "3",
                   "--segments", "40", "--out", str(path),
                   "--format", "csv"])
        assert rc == 0
        lines = path.read_text().splitlines()
        assert lines[0] == "section,key,value"
        assert any(line.startswith("summary,mean_bitrate_kbps,")
                   for line in lines)

    def test_per_segment_trace_dump(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        rc = main(["run", "--synth", "test1", "--seed", "3",
                   "--segments", "25", "--trace", str(path)])
        assert rc == 0
        lines = path.read_text().splitlines()
        assert lines[0] == ("index,quality_index,size_kbit,t_request_s,"
                            "t_complete_s,instant_throughput_kbps,"
                            "estimate_kbps,buffer_after_s,decision_reason")
        assert len(lines) == 26
        assert lines[1].startswith("1,")

    def test_estimator_choice_changes_output(self, capsys):
        outputs = {}
        for kind in ("aff", "ewma", "avg3"):
            rc = main(["run", "--synth", "test3", "--seed", "11",
                       "--segments", "80", "--estimator", kind])
            assert rc == 0
            outputs[kind] = capsys.readouterr().out
        assert len(set(outputs.values())) > 1


class TestStats:
    def test_builtin_profile_stats(self, capsys):
        rc = main(["stats", "--profile", "fairness-table3"])
        out = capsys.readouterr().out
        assert rc == 0
        stats = profile_stats(fairness_table3())
        assert out == (
            "max_mbps: %.4f\nmin_mbps: %.4f\navg_mbps: %.4f\n"
            "stddev_mbps: %.4f\n"
            % (stats.max_mbps, stats.min_mbps, stats.avg_mbps,
               stats.stddev_mbps))

    def test_csv_profile(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time_s,bandwidth_kbps\n0,4000\n10,1000\n")
        rc = main(["stats", "--profile", str(path),
                   "--duration", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max_mbps: 4.0000" in out
        assert "avg_mbps: 2.5000" in out

    def test_huge_rates_give_finite_stats(self, capsys, tmp_path):
        # the time-weighted sums once overflowed to inf
        path = tmp_path / "trace.csv"
        path.write_text("0,1.7e308\n5,1e308\n")
        rc = main(["stats", "--profile", str(path), "--duration", "10"])
        out = capsys.readouterr().out
        assert rc == 0
        stats = dict(line.split(": ") for line in out.splitlines())
        assert float(stats["avg_mbps"]) == pytest.approx(1.35e305)
        assert float(stats["stddev_mbps"]) == pytest.approx(3.5e304)


class TestErrorPaths:
    def test_malformed_csv_reports_line_number(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("time_s,bandwidth_kbps\n0,1000\n5,fast\n")
        rc = main(["stats", "--profile", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert "line 3" in captured.err

    @pytest.mark.parametrize("command", ["run", "compare", "fairness",
                                         "stats"])
    def test_profile_not_utf8(self, capsys, tmp_path, command):
        path = tmp_path / "bin.csv"
        path.write_bytes(b"\xff\xfe\x00x\n")
        rc = main([command, "--profile", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: profile %r is not UTF-8 text" % (str(path),)]

    def test_missing_file(self, capsys):
        rc = main(["run", "--profile", "/no/such/trace.csv"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")

    def test_bad_ladder(self, capsys):
        rc = main(["run", "--synth", "test1", "--ladder", "250,xyz"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error: could not parse --ladder" in captured.err

    def test_bad_fairness_window(self, capsys):
        rc = main(["fairness", "--window", "wide", "--clients", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "window must look like LO:HI" in captured.err

    def test_profile_and_synth_are_exclusive(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--profile", "x.csv", "--synth", "test1"])
        assert exc.value.code == 2

    def test_run_requires_a_profile(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["run", "--segments", "10"])
        assert exc.value.code == 2

    def test_domain_error_exits_one(self, capsys):
        rc = main(["run", "--synth", "test1", "--segments", "0"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.err.startswith("error:")

    def test_zero_time_download_exits_one(self, capsys, tmp_path):
        # a 1e300 kbps link moves a segment in less than one ulp of t
        path = tmp_path / "fast.csv"
        path.write_text("0,1e300\n")
        rc = main(["run", "--profile", str(path)])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error:")
        assert "zero time" in lines[0]

    @pytest.mark.parametrize("estimator", ["aff"])  # those that overflow
    def test_overflowing_estimate_exits_one(self, capsys, tmp_path,
                                            estimator):
        # two 1.5e308 kbit/s samples sum past the largest float
        path = tmp_path / "huge.csv"
        path.write_text("0,1.5e308\n")
        trace = tmp_path / "t.csv"
        rc = main(["run", "--profile", str(path), "--segments", "5",
                   "--estimator", estimator, "--trace", str(trace)])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "error: throughput 1.5e+308 overflows the estimator state"]
        assert not trace.exists()

    def test_sliding_mean_of_huge_samples_exits_zero(self, capsys,
                                                     tmp_path):
        # their sum passes the largest float, but their mean fits
        path = tmp_path / "huge.csv"
        path.write_text("0,1.5e308\n")
        trace = tmp_path / "t.csv"
        rc = main(["run", "--profile", str(path), "--segments", "5",
                   "--estimator", "avg3", "--trace", str(trace)])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        rows = trace.read_text().splitlines()[1:]
        assert [float(r.split(",")[6]) for r in rows] == [1.5e308] * 5

    def test_infinite_fairness_window_end(self, capsys, tmp_path):
        path = tmp_path / "open.csv"
        path.write_text("0,2500\n")
        rc = main(["fairness", "--profile", str(path), "--window", "50:inf",
                   "--clients", "2"])
        captured = capsys.readouterr()
        assert rc == 1
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: window must")

    def test_long_wall_time_exits_one(self, capped_python, tmp_path):
        # the buffer replay of this 5e6 s session once ran out of memory,
        # so it runs in a child with capped memory; its levels, above
        # 2^19 s, would need more than 2^20 buffer CDF rows
        path = tmp_path / "fast.csv"
        path.write_text("0,1e9\n")
        code = ("import sys\n"
                "from affsim.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        proc = capped_python(
            code, "run", "--profile", str(path), "--segment-duration", "1e6",
            "--max-buffer", "1e7", "--segments", "5")
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(
            "error: buffer levels must be finite and at most 524288 s")

    def test_long_media_exits_one_before_the_engine(self, capped_python,
                                                    tmp_path):
        # 3e6 two-second segments play for at least 6e6 s; this session
        # once ran for tens of seconds and then out of memory in the engine.
        # It holds more than 2^20 records, so its config is refused
        path = tmp_path / "fast.csv"
        path.write_text("0,5000\n")
        code = ("import sys\n"
                "from affsim.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        proc = capped_python(
            code, "run", "--profile", str(path), "--segments", "3000000")
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0] == (
            "error: total_segments 3000000 is over 1048576 records")

    def test_over_cap_fairness_exits_one(self, capped_python):
        # 1e8 clients once ran for seconds and then out of memory
        code = ("import sys\n"
                "from affsim.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        proc = capped_python(
            code, "fairness", "--clients", "100000000", "--segments", "5")
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: n_clients 100000000 x ")

    @pytest.mark.parametrize("argv", [
        ["fairness", "--jitter", "nan", "--clients", "3"],
        ["run", "--synth", "test1", "--ladder", "nan,500"],
        ["run", "--synth", "test1", "--ladder", "250,inf"],
        ["run", "--synth", "test1", "--segment-duration", "inf"],
        ["run", "--synth", "test1", "--duration", "nan"],
        ["run", "--synth", "test1", "--duration", "inf"],
        ["run", "--synth", "test1", "--panic-buffer", "nan"],
    ], ids=["jitter-nan", "ladder-nan", "ladder-inf", "segment-duration-inf",
            "duration-nan", "duration-inf", "panic-buffer-nan"])
    def test_non_finite_option_exits_one(self, argv):
        # each of these once hung or crashed, so it runs in a child process
        # whose timeout turns a hang into a failure
        src = os.path.dirname(os.path.dirname(affsim.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run(
            [sys.executable, "-m", "affsim.cli"] + argv, env=env,
            capture_output=True, text=True, timeout=30)
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error:")

    @pytest.mark.parametrize("argv", [
        ["run", "--synth", "test1", "--step-size", "nan"],
        ["run", "--synth", "test1", "--forgetting-min", "nan"],
        ["run", "--synth", "test1", "--forgetting-max", "nan"],
        ["run", "--synth", "test1", "--estimator", "ewma",
         "--ewma-weight", "nan"],
        ["run", "--synth", "test1", "--max-buffer", "nan"],
    ], ids=["step-size-nan", "forgetting-min-nan", "forgetting-max-nan",
            "ewma-weight-nan", "max-buffer-nan"])
    def test_degenerate_option_exits_one(self, capsys, argv):
        rc = main(argv)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith("error:")

    def test_huge_synthetic_duration_exits_one(self, capped_python):
        # the generator once looped on this duration until memory ran out
        code = ("import sys\n"
                "from affsim.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        proc = capped_python(
            code, "stats", "--synth", "test1", "--duration", "1e300")
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith("error: duration_s must lie in")

    @pytest.mark.parametrize("command", [["run"], ["compare"],
                                         ["fairness", "--window", "0:100"]],
                             ids=["run", "compare", "fairness"])
    def test_over_cap_session_refused_before_synthesis(
            self, capsys, monkeypatch, command):
        calls = []
        real = cli.synthesize_profile

        def counting(*args):
            calls.append(args)
            return real(*args)
        monkeypatch.setattr(cli, "synthesize_profile", counting)
        # the 240 s span of 30 segments holds the fairness window
        assert main(command + ["--synth", "test1", "--segments", "30"]) == 0
        assert len(calls) == 1  # the counter sees a synthesis
        capsys.readouterr()
        rc = main(command + ["--synth", "test1", "--segments", "1048577"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == ("error: total_segments 1048577 is over "
                                "1048576 records\n")
        assert len(calls) == 1

    def test_short_segments_over_the_record_cap_exit_one(self, capsys,
                                                         monkeypatch):
        # 5e8 one-millisecond segments: a 1,000,120 s synthetic span is
        # under its cap, so only the count of records refuses them, before
        # any trace is synthesized
        monkeypatch.setattr(cli, "synthesize_profile", None)
        rc = main(["run", "--synth", "test1", "--segments", "500000000",
                   "--segment-duration", "0.001"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == ("error: total_segments 500000000 is over "
                                "1048576 records\n")


class TestFairnessCommand:
    def test_small_run(self, capsys):
        rc = main(["fairness", "--clients", "3", "--segments", "40",
                   "--window", "30:110", "--jitter", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"^clients: 3$", out, re.M)
        assert re.search(r"^jfi: [01]\.\d{4}$", out, re.M)
        assert len(re.findall(r"^client_\d+_avg_kbps: ", out, re.M)) == 3

    def test_fairness_export(self, capsys, tmp_path):
        path = tmp_path / "fair.json"
        rc = main(["fairness", "--clients", "2", "--segments", "40",
                   "--window", "30:110", "--jitter", "2",
                   "--out", str(path)])
        assert rc == 0
        payload = json.loads(path.read_text())
        assert payload["jfi"] > 0
        assert len(payload["per_client_avg_kbps"]) == 2

    def test_symmetric_clients_score_at_most_one(self, capsys, tmp_path):
        # 17 lockstep clients once scored 1.0000000000000004
        path = tmp_path / "fair.json"
        rc = main(["fairness", "--jitter", "0", "--clients", "17",
                   "--out", str(path)])
        assert rc == 0
        assert json.loads(path.read_text())["jfi"] == 1.0

    def test_huge_rates_score_a_finite_jfi(self, capsys, tmp_path):
        # the squares of 1e200-scale averages once overflowed to jfi: nan
        path = tmp_path / "trace.csv"
        path.write_text("0,4e200\n")
        rc = main(["fairness", "--profile", str(path), "--ladder",
                   "5e199,1e200", "--clients", "2", "--segments", "40",
                   "--window", "10:50"])
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(r"^jfi: 1\.0000$", out, re.M), out


class TestDefaults:
    """Each option default is read from a default-built config."""

    def test_session_defaults_are_sim_config(self):
        args = cli.build_parser().parse_args(["run", "--synth", "test1"])
        assert cli._sim_config(args, args.estimator) == SimConfig()

    def test_fairness_defaults_are_fairness_config(self):
        args = cli.build_parser().parse_args(["fairness"])
        cfg = FairnessConfig()
        assert (args.clients, args.jitter) == (cfg.n_clients,
                                               cfg.start_jitter_s)
        assert tuple(map(float, args.window.split(":"))) == cfg.window
        assert args.segments == cfg.sim.total_segments
        assert cli._sim_config(args, args.estimator) == cfg.sim


@pytest.fixture
def fresh_parser_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


@pytest.mark.usefixtures("fresh_parser_cache")
class TestParserReuse:
    """main() builds one parser per process and reuses it."""

    def _calls(self, tmp_path):
        csv = tmp_path / "trace.csv"
        csv.write_text("time_s,bandwidth_kbps\n0,2400\n40,700\n90,1800\n")
        out = str(tmp_path / "out")
        trace = str(tmp_path / "segments.csv")
        return [
            ["fairness", "--clients", "3", "--jitter", "2",
             "--window", "30:110", "--out", out],
            ["run", "--profile", str(csv), "--out", out, "--trace", trace],
            ["compare", "--profile", str(csv), "--avg-window", "4",
             "--out", out],
            ["stats", "--profile", str(csv), "--duration", "120"],
            ["run", "--profile", str(csv), "--ladder", "250,xyz"],
            ["run", "--segments", "10"],
            ["--help"],
            ["run", "--synth", "test2", "--seed", "5", "--estimator",
             "ewma", "--format", "csv", "--out", out],
            ["fairness", "--synth", "test4", "--clients", "2",
             "--segments", "40", "--window", "30:110", "--jitter", "2"],
        ], (out, trace)

    def _play(self, capsys, calls, files, fresh):
        results = []
        for argv in calls:
            if fresh:
                cli._parser.cache_clear()
            try:
                status = main(argv)
            except SystemExit as exc:
                status = ("exit", exc.code)
            captured = capsys.readouterr()
            written = []
            for path in files:
                if os.path.exists(path):
                    with open(path, "rb") as fh:
                        written.append(fh.read())
                    os.remove(path)
                else:
                    written.append(None)
            results.append((status, captured.out, captured.err, written))
        return results

    def test_build_parser_runs_once(self, capsys, monkeypatch, tmp_path):
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()
        monkeypatch.setattr(cli, "build_parser", counting)
        calls, files = self._calls(tmp_path)
        self._play(capsys, calls, files, fresh=False)
        assert len(built) == 1

    def test_shared_parser_output_matches_fresh_parsers(self, capsys,
                                                       tmp_path):
        calls, files = self._calls(tmp_path)
        shared = self._play(capsys, calls, files, fresh=False)
        fresh = self._play(capsys, calls, files, fresh=True)
        assert shared == fresh
        status = [r[0] for r in shared]
        assert status == [0, 0, 0, 0, 1, ("exit", 2), ("exit", 0), 0, 0]
        # run keeps its 150-segment default after fairness parsed 180
        assert "segments: 150\n" in shared[1][1]
        assert shared[6][1].startswith("usage: affsim")

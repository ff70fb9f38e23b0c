"""End-to-end CLI tests, driven in process through main(argv)."""

import argparse
import contextlib
import csv
import io
import json
import math
import os
import re
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import affsim
from affsim import (FairnessConfig, SimConfig, aff_update, cli, estimators,
                    load_profile, parse_csv_export, profile_stats,
                    run_session)
from affsim.cli import main
from affsim.profiles import fairness_table3

TABLE_ROW = re.compile(
    r"^(aff|avg3|ewma)\s+\d+\s+\d+\s+"
    r"(--|\d+\.\d{2}(, \d+\.\d{2})*)\s+\d+\.\d{2}$")


def run_module(argv):
    """`python -m affsim.cli argv` in a child process, which fails the
    test if it runs past 30 s."""
    src = os.path.dirname(os.path.dirname(affsim.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run(
        [sys.executable, "-m", "affsim.cli"] + argv, env=env,
        capture_output=True, text=True, timeout=30)


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

    @pytest.mark.parametrize("argv", [
        ["--synth", "test1", "--max-buffer", "inf"],
        ["--profile", "fairness-table3", "--duration", "inf"],
        ["--profile", "@DIR/link.csv", "--duration", "inf"],
    ], ids=["no-buffer-ceiling", "open-ended-builtin", "open-ended-csv"])
    def test_accepted_infinite_option_keeps_the_identity(self, capsys,
                                                          tmp_path, argv):
        # inf means no ceiling, or a trace with no end
        (tmp_path / "link.csv").write_text("0,2400\n40,700\n90,1800\n")
        argv = [a.replace("@DIR", str(tmp_path)) for a in argv]
        rc = main(["run", "--segments", "60"] + argv)
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        shown = dict(line.split(": ") for line in captured.out.splitlines())
        media = 60 * SimConfig().ladder.segment_duration_s
        assert float(shown["wall_time_s"]) == pytest.approx(
            float(shown["startup_delay_s"]) + media
            + float(shown["stall_time_s"]), abs=2e-4)

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

    # the trace CSV as it was written when each record stored its
    # throughput: the record's values in column order, the sixth being the
    # sample the estimator took
    STORED_HEADER = ("index,quality_index,size_kbit,t_request_s,"
                     "t_complete_s,instant_throughput_kbps,estimate_kbps,"
                     "buffer_after_s,decision_reason\n")
    STORED_ROW = "%d,%d,%.4f,%.4f,%.4f,%.4f,%.4f,%.4f,%s\n"

    def test_trace_dump_keeps_its_bytes(self, capsys, tmp_path,
                                        monkeypatch):
        # fast, then under the lowest rung: the session waits for room,
        # then stalls
        link = tmp_path / "link.csv"
        link.write_text("0,5000\n100,100\n200,5000\n")
        trace = run_session(load_profile(link.read_text()),
                            SimConfig(total_segments=100))
        assert trace.stalls and trace.idle_full_s > 0.0
        samples = []

        def update(state, kbps):
            samples.append(kbps)
            return aff_update(state, kbps)

        monkeypatch.setattr(estimators, "aff_update", update)
        path = tmp_path / "trace.csv"
        assert main(["run", "--profile", str(link), "--segments", "100",
                     "--trace", str(path)]) == 0
        assert len(samples) == 100
        stored = [r[:5] + (kbps,) + r[5:]
                  for r, kbps in zip(trace.records, samples)]
        assert path.read_bytes() == (self.STORED_HEADER + "".join(
            self.STORED_ROW % r for r in stored)).encode()

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

    def test_builtin_profile_takes_duration(self, capsys):
        # --duration was once ignored for a built-in trace
        rc = main(["stats", "--profile", "fairness-table3",
                   "--duration", "600"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "avg_mbps: 17.6667\n" in out

    @pytest.mark.parametrize("command", ["stats", "fairness"])
    def test_duration_help_names_builtin_traces(self, capsys, monkeypatch,
                                                command):
        # the help once spoke of csv and synthetic traces only; a wide
        # terminal keeps argparse from wrapping at a name's hyphen
        monkeypatch.setenv("COLUMNS", "1000")
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        # the option's own help, up to the next option's line
        block = out.split("--duration DURATION")[2].split("\n  -")[0]
        duration = " ".join(block.split())
        assert "cuts or stretches a built-in trace" in duration
        for name in affsim.profiles.BUILTIN_PROFILES:
            assert name in duration
        assert ("the trace is fairness-table3" in duration) == \
            (command == "fairness")

    def test_builtin_duration_before_last_breakpoint(self, capsys):
        rc = main(["stats", "--profile", "fairness-table3",
                   "--duration", "100"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: duration 100.0 ends before the last breakpoint at "
            "300.0\n")

    def test_csv_profile(self, capsys, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("time_s,bandwidth_kbps\n0,4000\n10,1000\n")
        rc = main(["stats", "--profile", str(path),
                   "--duration", "20"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "max_mbps: 4.0000" in out
        assert "avg_mbps: 2.5000" in out

    def test_module_entry_point(self, capsys):
        # `python -m affsim.cli` exits with main's code and prints its text
        argv = ["stats", "--synth", "test4", "--duration", "60"]
        proc = run_module(argv)
        assert main(argv) == 0
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (0, capsys.readouterr().out, "")

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

    def test_mean_of_huge_rungs_is_finite(self, capsys):
        # 150 segments at a 1e308 kbps rung: their sum passes the largest
        # float, but their mean fits
        rc = main(["run", "--profile", "fairness-table3",
                   "--segment-duration", "5e-324", "--ladder", "1e308"])
        captured = capsys.readouterr()
        assert rc == 0
        assert captured.err == ""
        mean = re.search(r"^mean_bitrate_kbps: (\S+)$", captured.out, re.M)
        assert float(mean.group(1)) == pytest.approx(1e308, rel=1e-12)

    @pytest.mark.parametrize("source, ladder", [
        (["--synth", "test1"], ["--ladder", "1e308"]),
        (["--profile", "@DIR/link.csv"], ["--ladder", "1e308"]),
        (["--synth", "test1"], ["--ladder", "0.1",
                                "--segment-duration", "5e-324"]),
    ], ids=["synth-overflow", "csv-overflow", "synth-underflow"])
    def test_unsizable_ladder_is_the_ladders_fault(self, capsys, tmp_path,
                                                   source, ladder):
        # these once ran and failed on the trace or the clock
        (tmp_path / "link.csv").write_text("0,1000\n")
        source = [a.replace("@DIR", str(tmp_path)) for a in source]
        rc = main(["run"] + source + ladder)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1, captured.err
        assert lines[0].startswith(
            "error: segment sizes must be positive, finite and strictly "
            "increasing: bitrates ")

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
        # the buffer replay of a session like this 2e6 s one once ran out
        # of memory, so it runs in a child with capped memory; its levels,
        # above 2^19 s, would need more than 2^20 buffer CDF rows
        path = tmp_path / "fast.csv"
        path.write_text("0,1e9\n")
        code = ("import sys\n"
                "from affsim.cli import main\n"
                "sys.exit(main(sys.argv[1:]))\n")
        proc = capped_python(
            code, "run", "--profile", str(path), "--segment-duration", "4e5",
            "--max-buffer", "1e7", "--segments", "5")
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert lines[0].startswith(
            "error: buffer levels must be finite and at most 524288 s")

    def test_wall_time_past_the_clock_horizon_exits_one(self, capsys,
                                                        tmp_path):
        # five 1e6 s segments end at 5e6 s, past the 2^21 s horizon: the
        # engine refuses the session before any buffer replay
        path = tmp_path / "fast.csv"
        path.write_text("0,1e9\n")
        rc = main(["run", "--profile", str(path), "--segment-duration",
                   "1e6", "--max-buffer", "1e7", "--segments", "5"])
        assert rc == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: the clock reaches 5000000.25 s, where one ulp is "
            "9.313225746154785e-10 s; a run must end before the 2097152 s "
            "(2^21 s) clock horizon\n")

    def test_synthetic_span_stops_at_the_clock_horizon(self, capsys):
        # 1.1e6 s of media play out below the 2^21 s horizon; its default
        # span, twice the media plus 120 s, was once refused at synthesis
        argv = ["run", "--synth", "test4", "--segment-duration", "100000",
                "--max-buffer", "500000"]
        assert main(argv + ["--segments", "11"]) == 0
        captured = capsys.readouterr()
        assert "wall_time_s: 1110460.2510\n" in captured.out
        assert captured.err == ""
        # 3e6 s of media cannot play out below it: the trace, capped at the
        # horizon, ends first, and an explicit longer --duration is refused
        assert main(argv + ["--segments", "30"]) == 1
        assert main(argv + ["--segments", "11", "--duration",
                            "2097152.0000000005"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: trace ends at 2.09715e+06 with downloads in flight\n"
            "error: duration_s must lie in [60, 2097152], got "
            "2097152.0000000005\n")

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
        proc = run_module(argv)
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

    @pytest.mark.parametrize("options, message", [
        # each client's 500,000 half-second segments are under the cap and
        # their 500,120 s span under its own; three clients' records are
        # not
        (["--clients", "3", "--segments", "500000", "--segment-duration",
          "0.5"], "n_clients 3 x total_segments 500000 is over 1048576 "
                  "records"),
        # the other rules of the config, on a session whose default span
        # is the whole 2^21 s clock horizon
        (["--clients", "1"], "n_clients must be an integer >= 2, got 1"),
        (["--clients", "2", "--jitter", "-1"],
         "start_jitter_s must be >= 0 and before the 2097152 s clock "
         "horizon, got -1.0"),
        # no client could end; the run once blamed the trace
        (["--clients", "2", "--jitter", "1e308"],
         "start_jitter_s must be >= 0 and before the 2097152 s clock "
         "horizon, got 1e+308"),
        (["--clients", "2", "--window", "5:1"],
         "window must satisfy 0 <= start < end < inf, got (5.0, 1.0)"),
    ], ids=["records", "clients", "jitter", "jitter-horizon", "window"])
    def test_fairness_records_refused_before_synthesis(
            self, capsys, monkeypatch, options, message):
        # every rule of the config refuses before any trace is synthesized
        def fail(*args):
            raise AssertionError("a trace was synthesized")
        monkeypatch.setattr(cli, "synthesize_profile", fail)
        # a case's own options come last, and argparse keeps the last
        rc = main(["fairness", "--synth", "test1", "--segments", "524288",
                   "--segment-duration", "2"] + options)
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message


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

    def test_default_link_takes_duration(self, capsys):
        # the default link once ran 360 s whatever --duration said; every
        # default client finishes by 360 s, so a longer link changes nothing
        assert main(["fairness"]) == 0
        default = capsys.readouterr().out
        assert main(["fairness", "--duration", "600"]) == 0
        assert capsys.readouterr().out == default
        assert main(["fairness", "--duration", "340"]) == 1
        assert capsys.readouterr().err == (
            "error: profile ends at 340.0, before the window end 350.0\n")

    def test_default_link_duration_before_last_breakpoint(self, capsys):
        rc = main(["fairness", "--duration", "100"])
        assert rc == 1
        assert capsys.readouterr().err == (
            "error: duration 100.0 ends before the last breakpoint at "
            "300.0\n")

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
        # the default trace is named, so --duration applies to it
        assert args.profile == "fairness-table3"
        assert cli._build_profile(args, 600.0) == cfg.profile


@pytest.fixture
def fresh_parser_cache():
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


@pytest.mark.usefixtures("fresh_parser_cache")
class TestParserReuse:
    """main() builds one parser per command per process and reuses it."""

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

    def test_each_parser_is_built_once(self, capsys, monkeypatch, tmp_path):
        built = []
        real = cli._build

        def counting(commands):
            built.append(tuple(commands))
            return real(commands)
        monkeypatch.setattr(cli, "_build", counting)
        calls, files = self._calls(tmp_path)
        self._play(capsys, calls, files, fresh=False)
        # one parser per command, with its options alone, and the whole
        # parser for --help, which names no command
        assert built == [("fairness",), ("run",), ("compare",), ("stats",),
                         ("run", "fairness", "compare", "stats")]

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


def eager_build_parser():
    """Frozen reference: the parser as built when every command added its
    options up front, before any call ran."""
    parser = argparse.ArgumentParser(
        prog="affsim",
        description="Trace-driven adaptive bitrate simulation")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="simulate one playback session")
    cli._add_profile_args(p_run)
    cli._add_session_args(p_run, SimConfig())
    cli._add_out_args(p_run)
    p_run.add_argument("--trace", help="write the per-segment CSV here")
    p_run.set_defaults(func=cli._cmd_run)

    p_fair = sub.add_parser("fairness",
                            help="simulate clients sharing one link")
    fair = FairnessConfig()
    cli._add_profile_args(p_fair, "fairness-table3")
    cli._add_session_args(p_fair, fair.sim)
    cli._add_out_args(p_fair)
    p_fair.add_argument("--clients", type=int, default=fair.n_clients)
    p_fair.add_argument("--jitter", type=float, default=fair.start_jitter_s)
    p_fair.add_argument("--window", default="%r:%r" % fair.window)
    p_fair.set_defaults(func=cli._cmd_fairness)

    p_cmp = sub.add_parser("compare",
                           help="run all three estimators on one trace")
    cli._add_profile_args(p_cmp)
    cli._add_session_args(p_cmp, SimConfig(), pick_estimator=False)
    p_cmp.add_argument("--out", help="write per-method reports as JSON")
    p_cmp.set_defaults(func=cli._cmd_compare)

    p_stats = sub.add_parser("stats", help="print trace statistics")
    cli._add_profile_args(p_stats)
    p_stats.set_defaults(func=cli._cmd_stats)

    return parser


EAGER = eager_build_parser()
COMMANDS = ("run", "fairness", "compare", "stats")
# every argv exits: help and usage errors
EXITING_ARGVS = [[], ["-h"], ["bogus"]] + [
    [command, *extra] for command in COMMANDS
    for extra in (["-h"], ["--bogus"], ["--segments", "x"])]
PARSING_ARGVS = [
    ["run", "--synth", "test1", "--estimator", "ewma", "--trace", "t.csv"],
    ["fairness"],
    ["fairness", "--profile", "link.csv", "--clients", "4", "--window",
     "5:30"],
    ["compare", "--synth", "test2", "--segments", "20"],
    ["stats", "--synth", "test3", "--duration", "120"],
]


def command_options(parser):
    """{command: its option strings but -h}, in the order added."""
    (sub,) = [a for a in parser._actions
              if isinstance(a, argparse._SubParsersAction)]
    return {name: [o for a in p._actions for o in a.option_strings
                   if a.dest != "help"]
            for name, p in sub.choices.items()}


def parse_outcome(parser, argv):
    """(repr of the namespace or exit, stdout, stderr) of one parse of
    argv; a repr, so that two nan values compare equal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            status = parser.parse_args(argv)
        except SystemExit as exc:
            status = ("exit", exc.code)
    return repr(status), out.getvalue(), err.getvalue()


class _Parsed(Exception):
    """Stops main at its parse."""


def mains_parser(argv):
    """The cached parser that main(argv) parses argv with. main runs up
    to its parse, so the parser is main's own choice; the parse itself
    is left to the caller."""
    chosen, real = [], cli._parser
    parse = mock.Mock(side_effect=_Parsed)

    def spy(command):
        chosen.append(real(command))
        return mock.Mock(parse_args=parse)

    with mock.patch.object(cli, "_parser", spy), pytest.raises(_Parsed):
        main(argv)
    parse.assert_called_once_with(argv)
    (parser,) = chosen
    return parser


class TestLazyCommandOptions:
    """A call's parser holds only its command's options, and it says and
    parses what the eager one did."""

    @pytest.mark.parametrize("argv", EXITING_ARGVS + PARSING_ARGVS,
                             ids=lambda argv: "_".join(argv) or "noargs")
    def test_same_text_and_namespace_as_eager(self, argv):
        eager = parse_outcome(eager_build_parser(), argv)
        parser = mains_parser(argv)
        assert parse_outcome(parser, argv) == eager
        # a command's parser holds its options alone; any other argv
        # gets every command's
        options = command_options(EAGER)
        if argv and argv[0] in COMMANDS:
            options = {**dict.fromkeys(COMMANDS, []),
                       argv[0]: options[argv[0]]}
        assert command_options(parser) == options
        assert parse_outcome(cli.build_parser(), argv) == eager
        if argv in EXITING_ARGVS:
            assert eager[0] == repr(("exit", 0 if "-h" in argv else 2))

    def test_shared_parser_says_the_same_in_any_order(self):
        # main's parsers, reused in the order argvs reach them
        eager = eager_build_parser()
        for argv in PARSING_ARGVS + EXITING_ARGVS + PARSING_ARGVS:
            assert parse_outcome(mains_parser(argv), argv) == \
                parse_outcome(eager, argv)
        assert command_options(cli.build_parser()) == command_options(eager)

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(argv=st.deferred(lambda: cli_argv()))
    def test_grammar_parses_as_eager(self, argv):
        # argvs drawn from the output contract's grammar, parsed only
        assert parse_outcome(mains_parser(argv), argv) == \
            parse_outcome(EAGER, argv)

    @pytest.mark.usefixtures("fresh_parser_cache")
    def test_a_call_builds_only_its_command(self, capsys, tmp_path):
        csv = tmp_path / "trace.csv"
        csv.write_text("0,2400\n40,700\n")
        eager = command_options(eager_build_parser())
        none = dict.fromkeys(COMMANDS, [])
        assert main(["stats", "--profile", str(csv), "--duration", "60"]) \
            == 0
        assert main(["run", "--profile", str(csv), "--segments", "5"]) == 0
        assert main(["stats", "--profile", str(csv)]) == 1
        capsys.readouterr()
        assert cli._parser.cache_info().currsize == 2
        for command in ("stats", "run"):
            assert command_options(cli._parser(command)) == {
                **none, command: eager[command]}


# The command line's output contract over its option grammar. An example
# is typical or hostile: a hostile one draws each value from the option's
# typical values or from a pool of hostile ones, half and half. Counts
# stay small so one example takes milliseconds. "@DIR" stands for the
# directory of the test's files.
HOSTILE = ("nan", "inf", "-inf", "-0", "5e-324", "1e-300", "1e308", "x", "",
           "9" * 30)
# set on every example, so the runs stay short and a window fits them
ALWAYS = {"--segments": ("3", "1", "5", "12", "0"),
          "--clients": ("2", "3", "4", "1"),
          "--window": ("0:20", "5:30", "0:60", "30:110", "10:5", "1:2:3")}
SOURCES = ("--synth=test1", "--profile=@DIR/link.csv", "--synth=test3",
           "--synth=test4", "--profile=fairness-table3", "",
           "--profile=@DIR/hostile.csv", "--profile=@DIR/malformed.csv",
           "--profile=@DIR/missing.csv")
PROFILE_OPTIONS = {"--seed": ("0", "7", "-3"),
                   "--duration": ("60", "120", "400")}
SESSION_OPTIONS = {
    "--segment-duration": ("0.5", "2", "4"),
    "--ladder": ("250,500,1000,2000", "1000", "300,200", "2000,250,,1"),
    "--panic-buffer": ("0", "4", "8"),
    "--max-buffer": ("6", "12", "30"),
    "--initial-quality": ("0", "1", "3"),
    "--step-size": ("0.01", "0.05"),
    "--forgetting-min": ("0.5", "0.9"),
    "--forgetting-max": ("0.95", "1"),
    "--ewma-weight": ("0.2", "0.8"),
    "--avg-window": ("1", "3", "5"),
}
ESTIMATOR = {"--estimator": ("aff", "ewma", "avg3", "avg5")}
COMMAND_OPTIONS = {
    "run": {**PROFILE_OPTIONS, **SESSION_OPTIONS, **ESTIMATOR},
    "fairness": {**PROFILE_OPTIONS, **SESSION_OPTIONS, **ESTIMATOR,
                 "--jitter": ("0", "2", "15")},
    "compare": {**PROFILE_OPTIONS, **SESSION_OPTIONS},
    "stats": PROFILE_OPTIONS,
}
# (options in ALWAYS, the choices of output files)
COMMAND_EXTRAS = {
    "run": (("--segments",), (("--out", "--trace"), ("--out",), ("--trace",),
                              ())),
    "fairness": (("--segments", "--clients", "--window"), (("--out",), ())),
    "compare": (("--segments",), (("--out",), ())),
    "stats": ((), ((),)),
}
OUTPUT_FILES = {"--out": "out", "--trace": "trace.csv"}


@st.composite
def cli_argv(draw):
    command = draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    hostile = draw(st.sampled_from((False, True)))

    def option(name, typical):
        pool = st.sampled_from(typical)
        if hostile:
            pool = st.one_of(pool, st.sampled_from(HOSTILE))
        return "%s=%s" % (name, draw(pool))
    argv = [command]
    source = draw(st.sampled_from(SOURCES))
    if source:
        argv.append(source)
    always, outputs = COMMAND_EXTRAS[command]
    argv.extend(option(name, ALWAYS[name]) for name in always)
    options = COMMAND_OPTIONS[command]
    argv.extend(option(name, options[name]) for name in draw(
        st.lists(st.sampled_from(sorted(options)), unique=True, max_size=4)))
    for name in draw(st.sampled_from(outputs)):
        argv.append("%s=@DIR/%s" % (name, OUTPUT_FILES[name]))
        if name == "--out" and command != "compare":
            argv.append(option("--format", ("json", "csv")))
    return argv


def printed(out):
    """{key: text} of the `key: value` lines that a command prints."""
    return dict(line.split(": ", 1) for line in out.splitlines()
                if ": " in line)


def check_report_file(text, fmt, shown):
    # the lines run printed are the file's scalars, in order, each
    # rendered by the summary walk: an int as is, a float at 4 places
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        values = {key: cell for section, key, cell in rows
                  if section == "summary"}
        assert len(parse_csv_export(text).get("stall_durations_s", ())) \
            == int(shown["stall_events"])
    else:
        payload = json.loads(text)
        values = {key: str(v) if isinstance(v, int) else "%.4f" % v
                  for key, v in payload.items() if not isinstance(v, list)}
        assert "%.4f" % sum(payload["stall_durations_s"]) \
            == shown["stall_time_s"]
    assert list(values.items()) == list(shown.items())


def check_fairness_file(text, fmt, shown):
    if fmt == "csv":
        rows = parse_csv_export(text)
        values = dict(rows["summary"])
        clients = [v for _, v in rows.get("per_client_avg_kbps", ())]
    else:
        values = json.loads(text)
        clients = values["per_client_avg_kbps"]
    assert "%.4f" % values["jfi"] == shown["jfi"]
    assert "%.4f" % values["total_avg_kbps"] == shown["total_avg_kbps"]
    assert ["%.4f" % v for v in clients] == [
        shown["client_%d_avg_kbps" % i] for i in range(int(shown["clients"]))]


def check_compare_file(text, out):
    # each printed row is the one its method's report renders to
    payload = json.loads(text)
    rows = [re.split(r"\s{2,}", line) for line in out.splitlines()[1:]]
    assert [row[0] for row in rows] == list(payload)
    for label, changes, stalls, stall_time, mean in rows:
        rep = payload[label]
        assert [changes, stalls, mean] == [
            "%d" % rep["bitrate_changes"], "%d" % rep["stall_events"],
            "%.2f" % rep["mean_bitrate_kbps"]]
        assert stall_time == (", ".join(
            "%.2f" % d for d in rep["stall_durations_s"]) or "--")


@pytest.fixture(scope="module")
def contract_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("contract")
    (path / "link.csv").write_text(
        "time_s,bandwidth_kbps\n0,2400\n40,700\n90,1800\n")
    (path / "hostile.csv").write_text("0,1000\n3,5e-324\n7,1e308\n")
    (path / "malformed.csv").write_text("0,1000\n5,banana\n")
    return path


@settings(max_examples=400, deadline=None, derandomize=True)
@given(argv=cli_argv())
# a mean of rungs near the float maximum once printed inf with exit 0
@example(argv=["run", "--profile=fairness-table3", "--segments=3",
               "--segment-duration=5e-324", "--ladder=1e308"])
@example(argv=["compare", "--profile=fairness-table3", "--segments=3",
               "--segment-duration=5e-324", "--ladder=1e308",
               "--out=@DIR/out"])
def test_output_contract(contract_dir, argv):
    argv = [arg.replace("@DIR", str(contract_dir)) for arg in argv]
    files = {name: contract_dir / file for name, file in OUTPUT_FILES.items()}
    for path in files.values():
        path.unlink(missing_ok=True)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse, and only argparse, exits
            assert exc.code == 2, argv
            code = "usage"
    out, err = out.getvalue(), err.getvalue()
    if code == "usage":
        assert err.startswith("usage: affsim"), err
        assert "error: " in err.splitlines()[-1], err
        return
    if code == 1:
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        return
    assert code == 0 and err == "", (code, err)
    for token in re.split(r"[\s,:]+", out):
        try:
            value = float(token)
        except ValueError:
            continue
        assert math.isfinite(value), (token, out)
    options = dict(arg.split("=", 1) for arg in argv[1:])
    fmt = options.get("--format", "json")
    written = {name: path.read_text() for name, path in files.items()
               if path.exists()}
    assert set(written) == set(files).intersection(options)
    if "--out" in written:
        text = written["--out"]
        if argv[0] == "run":
            check_report_file(text, fmt, printed(out))
        elif argv[0] == "fairness":
            check_fairness_file(text, fmt, printed(out))
        else:
            check_compare_file(text, out)
    if "--trace" in written:
        assert len(written["--trace"].splitlines()) \
            == 1 + int(printed(out)["segments"])

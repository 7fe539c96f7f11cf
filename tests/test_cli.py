import errno
import importlib
import importlib.util
import io
import json
import os
import re
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings

from prpwifi import LogFormatError, RunLog, decode_log
from prpwifi import cli, sim
from prpwifi.cli import main
from prpwifi import config as config_module
from prpwifi.config import ConfigError, load_config, parse_config
from prpwifi.units import parse_duration_ns

from conftest import mutated_logs

BASE_CONFIG = """
# duplex desk-scale run
channels = A,B
packets = 600
period = 4ms
seed = 3
full_trace = false
loss_prob = 0.02

# interference knobs (B only)
payload_airtime = 300us
burst_spacing = 400us
burst_mean = 3
burst_cap = 12
gap_mean = 2.8ms
gap_cap = 280ms
B.interferers = 2
"""


@pytest.fixture()
def config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(BASE_CONFIG)
    return path


class TestConfigParsing:
    def test_channel_overrides(self):
        cfg = parse_config(BASE_CONFIG)
        assert cfg.n_packets == 600
        assert cfg.channels[0].interference.interferer_count == 0
        assert cfg.channels[1].interference.interferer_count == 2
        assert cfg.channels[1].interference.burst_len_cap == 12
        assert cfg.channels[0].loss_prob == 0.02

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("packets = 5\nbogus = 1\n")

    def test_packets_required(self):
        with pytest.raises(ConfigError, match="packets"):
            parse_config("seed = 1\n")

    def test_deferral_keys(self):
        cfg = parse_config(BASE_CONFIG + "deferral = -100us\n")
        assert cfg.deferral_ns == -100_000
        assert cfg.request_offsets() == (100_000, 0)

    @pytest.mark.parametrize(
        "line, message",
        [
            ("cw_min = x", "cw_min: invalid literal for int() with base 10: 'x'"),
            ("packets = 1e5", "packets: invalid literal for int() with base 10: '1e5'"),
            ("B.burst_spacing = 5 parsecs", "B.burst_spacing: invalid duration: '5 parsecs'"),
            ("loss_prob = lots", "loss_prob: could not convert string to float: 'lots'"),
            ("full_trace = maybe", "full_trace: expected a boolean, got 'maybe'"),
            ("deferral_primary = B", "unknown key 'deferral_primary'"),
        ],
    )
    def test_bad_value_names_line_and_key(self, line, message, tmp_path, capsys):
        path = tmp_path / "t.cfg"
        path.write_text(f"packets = 10\n{line}\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "run.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: {path}:2: {message}\n"
        assert not (tmp_path / "run.jsonl").exists()

    def test_readme_config_and_docstring_keys_match_the_key_table(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        cfg = parse_config(block, "README.md")
        assert cfg.n_packets == 100_000 and cfg.channels[1].interference.interferer_count == 2
        documented = {
            key
            for line in config_module.__doc__.splitlines()
            if (m := re.match(r"    (\w[\w ]*?)(?:\s{2,}|$)", line))
            for key in m.group(1).split()
        }
        assert documented == set(config_module._KEYS)

    @pytest.mark.parametrize(
        "text, ns",
        [
            ("9007199.254740993s", 9_007_199_254_740_993),
            ("9223372036.854775807s", 2**63 - 1),
            ("0.1us", 100),
        ],
    )
    def test_durations_parse_exactly(self, text, ns):
        assert parse_duration_ns(text) == ns

    def test_duration_off_the_ns_grid_rejected(self):
        with pytest.raises(ValueError, match="not a whole number of ns"):
            parse_duration_ns("12345678.0000000015s")

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        with pytest.raises(ConfigError, match="nope.cfg"):
            load_config(missing)

    def test_non_utf8_byte_exits_2_naming_the_line(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_bytes(b"channels = A,B\npackets = 10\nseed = 5\xff\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "run.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err == f"error: {path}:3: byte 0xff at column 9 is not valid UTF-8\n"


class TestSimulateCommand:
    def test_writes_deterministic_log(self, config_file, tmp_path, capsys):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["simulate", str(config_file), "--out", str(out1)]) == 0
        first = capsys.readouterr()
        assert first.out.startswith("N=600 losses A=")
        assert main(["simulate", str(config_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        # the wall time goes to stderr, so stdout is deterministic too
        second = capsys.readouterr()
        assert second.out == first.out and "wall" not in first.out
        assert re.fullmatch(r"wall=[0-9]+\.[0-9]{2}s\n", second.err)

    def test_seed_override_changes_log(self, config_file, tmp_path):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        main(["simulate", str(config_file), "--out", str(out1)])
        main(["simulate", str(config_file), "--seed", "99", "--out", str(out2)])
        assert out1.read_bytes() != out2.read_bytes()

    def test_more_interferers_hurt_channel_b(self, config_file, tmp_path):
        """Comparative check: 4 interferers on B must raise its mean latency
        over 1 interferer (same seed)."""
        reports = {}
        for count in (1, 4):
            config = tmp_path / f"int{count}.cfg"
            config.write_text(config_file.read_text() + f"B.interferers = {count}\n")
            log = tmp_path / f"int{count}.jsonl"
            main(["simulate", str(config), "--out", str(log)])
            rep = tmp_path / f"int{count}.json"
            main(["analyze", "--log", str(log), "--mode", "pow", "--out", str(rep)])
            reports[count] = json.loads(rep.read_text())
        b1 = reports[1]["channels"]["B"]["latency"]["mean_us"]
        b4 = reports[4]["channels"]["B"]["latency"]["mean_us"]
        assert b4 > b1

    def test_missing_config_exits_2(self, tmp_path, capsys):
        rc = main(
            ["simulate", str(tmp_path / "absent.cfg"), "--out", str(tmp_path / "x")]
        )
        assert rc == 2
        assert "absent.cfg" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "phy", ["cw_min = 1125899906842624\ncw_max = 1125899906842624", "slot = 1000000000000000"]
    )
    def test_config_past_the_time_limit_exits_2(self, phy, tmp_path, capsys):
        path = tmp_path / "huge.cfg"
        path.write_text(f"packets = 20\nperiod = 4ms\nloss_prob = 1.0\n{phy}\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "run.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: channel A: the worst-case end time")
        assert "cw_max x slot" in err

    @pytest.mark.parametrize("run", ["packets = 1\nmargin = 0", "packets = 5\nmargin = -1s"])
    def test_margin_without_a_horizon_exits_2(self, run, tmp_path, capsys):
        path = tmp_path / "margin.cfg"
        path.write_text(f"{run}\nperiod = 4ms\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "run.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: margin must keep the interference horizon")
        assert not (tmp_path / "run.jsonl").exists()

    def test_gaps_of_a_billion_seconds_leave_the_medium_idle(self, tmp_path):
        # 16 gaps of mean 10^9 s (the smallest chunk) sum past int64; no
        # burst starts before the 4.4 s horizon, so the records are those
        # of a run without interferers
        gaps = "gap_mean = 1000000000s\ngap_cap = 4000000000s\nA.interferers = 1\n"
        idle = BASE_CONFIG.replace("B.interferers = 2", "B.interferers = 0")
        records = []
        for name, text in (("gaps", BASE_CONFIG + gaps), ("idle", idle)):
            path, log = tmp_path / f"{name}.cfg", tmp_path / f"{name}.jsonl"
            path.write_text(text)
            assert main(["simulate", str(path), "--out", str(log)]) == 0
            records.append(log.read_text().splitlines()[1:])
        assert records[0] == records[1]

    def test_synthesis_past_int64_exits_2(self, tmp_path, capsys):
        path = tmp_path / "gaps.cfg"
        path.write_text(
            "packets = 2\nperiod = 2305843009213693952ns\ngap_mean = 1000000000s\n"
            "gap_cap = 4000000000s\nB.interferers = 1\n"
        )
        assert main(["simulate", str(path), "--out", str(tmp_path / "run.jsonl")]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: channel B: interference synthesis could exceed int64")
        assert "gap_cap" in err
        assert not (tmp_path / "run.jsonl").exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("B.burst_cap = 2", "channel B: burst_cap must be >= burst_mean"),
            ("B.payload_airtime = 0us", "channel B: payload_airtime must be positive"),
            ("B.loss_prob = 1.5", "channel B: loss_prob must be within [0, 1]"),
            ("B.retry_limit = 0", "channel B: retry_limit must be >= 1"),
        ],
    )
    def test_bad_channel_key_names_channel_and_key(self, line, message, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(BASE_CONFIG + line + "\n")
        assert main(["simulate", str(path), "--out", str(tmp_path / "run.jsonl")]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not (tmp_path / "run.jsonl").exists()

    def test_flat_csv_export(self, config_file, tmp_path):
        log = tmp_path / "run.jsonl"
        flat = tmp_path / "run.csv"
        main(["simulate", str(config_file), "--out", str(log), "--csv", str(flat)])
        lines = flat.read_text().splitlines()
        assert lines[0] == "i,ch,l,t_T,t_X,w,Td,Ta"
        assert len(lines) == 1 + 2 * 600


@pytest.fixture()
def log_file(config_file, tmp_path):
    path = tmp_path / "run.jsonl"
    assert main(["simulate", str(config_file), "--out", str(path)]) == 0
    return path


class TestAnalyzeCommand:
    def test_pow_has_unit_relative_load(self, log_file, capsys):
        assert main(["analyze", "--log", str(log_file), "--mode", "pow"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["link"]["theta_hat_pct"] == 100.0
        assert report["link"]["Theta_hat_pct"] == 200.0

    def test_tdd_zero_matches_rda(self, log_file, tmp_path):
        a, b = tmp_path / "rda.json", tmp_path / "tdd.json"
        main(
            ["analyze", "--log", str(log_file), "--mode", "rda", "--tlre", "50us",
             "--out", str(a)]
        )
        main(
            ["analyze", "--log", str(log_file), "--mode", "tdd", "--tlre", "50us",
             "--td", "0", "--out", str(b)]
        )
        rda, tdd = json.loads(a.read_text()), json.loads(b.read_text())
        del rda["params"], tdd["params"]
        assert rda == tdd

    def test_reaction_latency_reduces_savings(self, log_file, tmp_path):
        values = {}
        for t in ("0", "1000us"):
            out = tmp_path / f"r{t}.json"
            main(
                ["analyze", "--log", str(log_file), "--mode", "rda", "--tlre", t,
                 "--out", str(out)]
            )
            values[t] = json.loads(out.read_text())["link"]["e_pct"]
        assert values["1000us"] <= values["0"]

    def test_bad_log_path_exits_2(self, tmp_path, capsys):
        assert main(["analyze", "--log", str(tmp_path / "no.jsonl"), "--mode", "pow"]) == 2

    def test_oracle_policy_without_traces_exits_2(self, tmp_path, capsys):
        """An analysis the log cannot support is an error (exit 2), not a
        validation failure: adapter-view lost copies carry no durations."""
        config = tmp_path / "lossy.cfg"
        config.write_text(BASE_CONFIG + "retry_limit = 1\n")
        log = tmp_path / "lossy.jsonl"
        assert main(["simulate", str(config), "--out", str(log)]) == 0
        capsys.readouterr()
        argv = ["analyze", "--log", str(log), "--mode", "rda"]
        assert main(argv + ["--failed-copy-policy", "oracle"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: oracle policy needs traces") and err.count("\n") == 1


def _set_first_copy(field, value):
    def edit(record):
        record["copies"][0][field] = value

    return edit


def _duplicate_first_copy(record):
    record["copies"][1] = dict(record["copies"][0])


class TestMalformedLog:
    """Bad packet records exit 2 with a message naming the line, never with
    a traceback and never silently accepted."""

    @pytest.mark.parametrize(
        "edit",
        [
            lambda record: record.update(copies=7),
            lambda record: record.update(copies={"A": record["copies"][0]}),
            _set_first_copy("t_T", "12"),
            _set_first_copy("Td", "300000"),
            _set_first_copy("w", True),
            _set_first_copy("t_X", 4.5e9),
            _duplicate_first_copy,
            _set_first_copy("ch", ["A"]),
        ],
        ids=[
            "copies-not-a-list",
            "copies-an-object",
            "string-timestamp",
            "string-duration",
            "bool-attempt-count",
            "float-timestamp",
            "duplicate-channel",
            "unhashable-channel",
        ],
    )
    def test_exits_2_naming_the_line(self, edit, log_file, tmp_path, capsys):
        lines = log_file.read_text().splitlines()
        record = json.loads(lines[5])
        edit(record)
        lines[5] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--log", str(bad), "--mode", "rda"]) == 2
        assert capsys.readouterr().err.startswith("error: record 6: ")

    def test_bad_header_exits_2_naming_record_1(self, log_file, tmp_path, capsys):
        lines = log_file.read_text().splitlines()
        header = json.loads(lines[0])
        header["channels"][0]["ch"] = 5
        lines[0] = json.dumps(header)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--log", str(bad), "--mode", "rda"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: record 1: header key 'channels[0].ch' must be a string\n"

    def test_broken_invariant_names_packet_and_channel(self, log_file, tmp_path, capsys):
        """A delivered copy without ``Ta`` breaks a copy check; the error
        names its packet and channel, where it used to name neither."""
        lines = log_file.read_text().splitlines()
        record = json.loads(lines[5])
        assert record["i"] == 5 and record["copies"][1]["l"] == 0
        del record["copies"][1]["Ta"]
        lines[5] = json.dumps(record)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        assert main(["analyze", "--log", str(bad), "--mode", "rda"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: packet 5, channel B: delivered copies need both frame durations\n"
        )

    def test_non_utf8_byte_exits_2_naming_the_line(self, log_file, tmp_path, capsys):
        lines = log_file.read_bytes().split(b"\n")
        lines[3] = lines[3][:40] + b"\xff" + lines[3][41:]
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"\n".join(lines))
        assert main(["analyze", "--log", str(bad), "--mode", "rda"]) == 2
        err = capsys.readouterr().err
        assert err == "error: record 4: byte 0xff at column 41 is not valid UTF-8\n"


def test_commands_build_no_per_packet_records(config_file, tmp_path, monkeypatch, capsys):
    """Every subcommand works on the columns; the per-packet view is for
    the reference functions only."""

    def forbidden(run):
        raise AssertionError("per-packet records built on a command path")

    monkeypatch.setattr(RunLog, "packets", property(forbidden))
    traced = tmp_path / "traced.cfg"
    traced.write_text(BASE_CONFIG.replace("full_trace = false", "full_trace = true"))
    for config in (config_file, traced):
        log = tmp_path / "run.jsonl"
        argv = ["simulate", str(config), "--out", str(log), "--csv", str(tmp_path / "run.csv")]
        assert main(argv) == 0
        for mode in ("pow", "rda"):
            assert main(["analyze", "--log", str(log), "--mode", mode]) == 0
        assert main(["analyze", "--log", str(log), "--mode", "tdd", "--td", "50us"]) == 0
        for param, grid in (("tlre", "0:200us"), ("td", "-100us:100us")):
            argv = ["sweep", "--log", str(log), "--param", param, f"--range={grid}"]
            assert main(argv + ["--step", "50us"]) == 0
    oracle = ["--mode", "rda", "--failed-copy-policy", "oracle"]
    assert main(["analyze", "--log", str(log), *oracle]) == 0
    argv = ["validate-deferral", str(config_file), "--td-list=-50us,50us", "--seeds", "1"]
    assert main(argv + ["--tol-e", "0.1", "--tol-latency", "0.1"]) == 0
    capsys.readouterr()


@settings(max_examples=100, deadline=None)
@given(text=mutated_logs())
def test_mutated_log_exits_2_without_traceback(text, tmp_path_factory):
    """A log the decoder rejects exits 2 with a one-line error; one it
    accepts is analyzed (exit 0)."""
    path = tmp_path_factory.getbasetemp() / "mutated.jsonl"
    path.write_text(text)
    try:
        decode_log(io.StringIO(text))
        expected = 0
    except LogFormatError:
        expected = 2
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(["analyze", "--log", str(path), "--mode", "rda"])
    assert rc == expected
    if expected:
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1


class TestSweepCommand:
    def test_tlre_grid_row_count(self, log_file, capsys):
        rc = main(
            ["sweep", "--log", str(log_file), "--param", "tlre",
             "--range", "0:1000us", "--step", "50us"]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1 + 21

    def test_td_zero_row_matches_rda_row(self, log_file, tmp_path):
        td_csv, lre_csv = tmp_path / "td.csv", tmp_path / "lre.csv"
        main(
            ["sweep", "--log", str(log_file), "--param", "td",
             "--range=-100us:100us", "--step", "100us", "--tlre", "0",
             "--out", str(td_csv)]
        )
        main(
            ["sweep", "--log", str(log_file), "--param", "tlre",
             "--range", "0:0", "--step", "1us", "--out", str(lre_csv)]
        )
        td_rows = td_csv.read_text().splitlines()
        rda_row = lre_csv.read_text().splitlines()[1].split(",")
        zero_row = [r for r in td_rows if r.split(",")[2] == "0.0"][0].split(",")
        # identical metrics columns (mode and grid coordinates differ)
        assert zero_row[3:] == rda_row[3:]

    def test_bad_range_exits_2(self, log_file, capsys):
        assert (
            main(
                ["sweep", "--log", str(log_file), "--param", "tlre",
                 "--range", "10us", "--step", "5us"]
            )
            == 2
        )


class TestValidateDeferralCommand:
    def test_small_validation_passes(self, config_file, capsys):
        rc = main(
            [
                "validate-deferral",
                str(config_file),
                "--td-list=-50us,0,50us",
                "--seeds",
                "1,2",
                "--tol-e",
                "0.06",
                "--tol-latency",
                "0.08",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0, out
        assert "pass" in out
        # zero displacement reduces both sides to the same analysis
        zero_row = [line for line in out.splitlines() if line.strip().startswith("0.0 ")]
        assert zero_row and " 0.0000 " in zero_row[0]

    def test_displacement_outside_tolerance_exits_1(self, config_file, capsys):
        argv = ["validate-deferral", str(config_file), "--td-list=50us", "--seeds", "1"]
        assert main(argv + ["--tol-e=-1"]) == 1
        assert "validation FAILED for 1 of 1 displacements" in capsys.readouterr().out

    def test_guard_refuses_large_displacement(self, config_file, capsys):
        rc = main(
            ["validate-deferral", str(config_file), "--td-list", "2ms"]
        )
        assert rc == 2
        assert "guard" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--td-list=100us", "--seeds", "5,x"], "error: --seeds: invalid entry 'x' in '5,x'\n"),
            (
                ["--td-list=100us,,200us", "--seeds", "1"],
                "error: --td-list: invalid entry '' in '100us,,200us'\n",
            ),
            (["--td-list=", "--seeds", "1"], "error: --td-list: invalid entry '' in ''\n"),
            (["--td-list=100us", "--seeds", ""], "error: --seeds: invalid entry '' in ''\n"),
        ],
        ids=["seed-x", "td-empty-entry", "td-empty", "seeds-empty"],
    )
    def test_bad_list_entry_names_flag(self, config_file, capsys, flags, message):
        assert main(["validate-deferral", str(config_file), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""


class TestVirtualDisplacementBound:
    """A virtual |T_D| at or past the log's 4 ms period is refused like a
    real one: exit 2 with a one-line error, where a huge value used to end
    in an OverflowError traceback and -(2^63 - 1) ns in a report with a
    link latency of -9.2e15 us."""

    @pytest.mark.parametrize("td", ["99999999999s", "-9223372036854775807", "4ms"])
    @pytest.mark.parametrize("command", ["analyze", "sweep", "validate-deferral"])
    def test_exits_2_with_one_line(self, command, td, log_file, config_file, capsys):
        if command == "analyze":
            argv = ["analyze", "--log", str(log_file), "--mode", "tdd", f"--td={td}"]
        elif command == "sweep":
            argv = ["sweep", "--log", str(log_file), "--param", "td", f"--range={td}:{td}",
                    "--step", "1us"]
        else:
            argv = ["validate-deferral", str(config_file), f"--td-list={td}", "--seeds", "1",
                    "--force"]
        capsys.readouterr()
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "must be smaller than the generation period of 4000000 ns" in captured.err

    def test_just_inside_the_period_is_analyzed(self, log_file, capsys):
        argv = ["analyze", "--log", str(log_file), "--mode", "tdd", "--td=-3999999"]
        assert main(argv) == 0


@pytest.mark.parametrize(
    "argv, message",
    [
        (["analyze", "LOG", "--mode", "rda", "--lost-attempts", "x"],
         "--lost-attempts: invalid literal for int() with base 10: 'x'"),
        (["analyze", "LOG", "--mode", "rda", "--tlre", "1e3"], "--tlre: invalid duration: '1e3'"),
        (["analyze", "LOG", "--mode", "rda", "--tlre", ""], "--tlre: invalid duration: ''"),
        (["analyze", "LOG", "--mode", "tdd", "--td", "1ks"], "--td: invalid duration: '1ks'"),
        (["analyze", "LOG", "--mode", "rda", "--tlre=-1us"], "--tlre: duration '-1us' is negative"),
        (["analyze", "LOG", "--mode", "rda", "--lost-attempts", "0"],
         "--lost-attempts: charge '0' must be >= 1"),
        (["analyze", "LOG", "--mode", "rda", "--td", "100us"],
         "--td: a request displacement applies to tdd mode only"),
        (["analyze", "LOG", "--mode", "pow", "--td=-1ns"],
         "--td: a request displacement applies to tdd mode only"),
        (["sweep", "LOG", "--param", "tlre", "--range", "0:1us", "--step", "1us", "--tlre", "999ms"],
         "--tlre: a fixed reaction latency applies to --param td only"),
        (["sweep", "LOG", "--param", "td", "--range", "0:1us", "--step", "1us", "--tlre=-1us"],
         "--tlre: duration '-1us' is negative"),
        # only an absent --tlre means 0
        (["sweep", "LOG", "--param", "td", "--range", "0:1us", "--step", "1us", "--tlre", ""],
         "--tlre: invalid duration: ''"),
        (["sweep", "LOG", "--param", "tlre", "--range", "0:x", "--step", "1us"],
         "--range: invalid duration: 'x'"),
        (["sweep", "LOG", "--param", "tlre", "--range", "0:1us", "--step", "1e3"],
         "--step: invalid duration: '1e3'"),
        (["simulate", "CONFIG", "--out", "OUT", "--td", "x"], "--td: invalid duration: 'x'"),
        (["validate-deferral", "CONFIG", "--td-list=50us", "--tlre", "x"],
         "--tlre: invalid duration: 'x'"),
        (["validate-deferral", "CONFIG", "--td-list=50us", "--tlre=-1us"],
         "--tlre: duration '-1us' is negative"),
    ],
)
def test_bad_flag_value_names_the_flag(argv, message, log_file, config_file, tmp_path, capsys):
    paths = {"LOG": ["--log", str(log_file)], "CONFIG": [str(config_file)],
             "OUT": [str(tmp_path / "out.jsonl")]}
    capsys.readouterr()
    assert main([part for arg in argv for part in paths.get(arg, [arg])]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n" and captured.out == ""


@pytest.mark.parametrize("command", ["simulate", "analyze"])
@pytest.mark.parametrize("code", [errno.ENOENT, errno.EISDIR], ids=["no-dir", "a-dir"])
def test_unwritable_out_names_the_path(command, code, log_file, config_file, tmp_path, capsys):
    out = tmp_path / "outdir"
    if code == errno.EISDIR:
        out.mkdir()
    else:
        out = out / "x.out"
    before = sorted(tmp_path.rglob("*"))
    if command == "simulate":
        argv = ["simulate", str(config_file)]
    else:
        argv = ["analyze", "--log", str(log_file), "--mode", "pow"]
    capsys.readouterr()
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: [Errno {code}] {os.strerror(code)}: '{out}'\n"
    assert sorted(tmp_path.rglob("*")) == before


@pytest.mark.parametrize("command", ["analyze", "sweep"])
def test_request_skew_comes_from_the_header_only(command, log_file, capsys):
    """A log's header ``epsilon`` is the one request skew tolerance; no
    flag overrides it."""
    argv = ["--mode", "rda"] if command == "analyze" else [
        "--param", "tlre", "--range", "0:1us", "--step", "1us"
    ]
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([command, "--log", str(log_file), *argv, "--epsilon", "1us"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --epsilon 1us" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


class TestBenchmarkHooks:
    """The benchmark times each layer by wrapping the module attributes in
    ``perfbench/tracing.py``'s ``PATCH_POINTS``, and counts the media a
    ``validate-deferral`` op builds by its ``sim.interference_arrays``
    calls. A refactor that moves a patch point, or that builds a medium
    twice, fails here rather than dropping or skewing a benchmark span."""

    @staticmethod
    def patch_points():
        path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
        spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
        module = importlib.util.module_from_spec(spec)
        # its dataclasses look their module up while it runs
        with mock.patch.dict(sys.modules, {spec.name: module}):
            spec.loader.exec_module(module)
        return module.PATCH_POINTS

    def test_every_patch_point_is_a_callable(self):
        points = self.patch_points()
        assert points
        for module_name, attr, span in points:
            assert callable(getattr(importlib.import_module(module_name), attr, None)), span

    def test_validate_deferral_builds_each_medium_once(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(BASE_CONFIG.replace("packets = 600", "packets = 300") + "A.interferers = 1\n")
        def counted(module, name):
            return mock.patch.object(module, name, wraps=getattr(module, name))

        with counted(cli, "generate_run") as runs, counted(sim, "interference_arrays") as media:
            argv = ["validate-deferral", str(config), "--td-list=-100us,100us", "--seeds", "5"]
            assert main(argv + ["--tol-e", "1", "--tol-latency", "1"]) == 0
        capsys.readouterr()
        # the base run and one run per displacement; one medium per channel
        assert runs.call_count == 3
        assert media.call_count == 2

import io
import json
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings

from prpwifi import LogFormatError, RunLog, decode_log
from prpwifi.cli import main
from prpwifi.config import ConfigError, load_config, parse_config

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
        assert cfg.channels[0].errors.attempt_loss_prob == 0.02

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("packets = 5\nbogus = 1\n")

    def test_packets_required(self):
        with pytest.raises(ConfigError, match="packets"):
            parse_config("seed = 1\n")

    def test_deferral_keys(self):
        cfg = parse_config(BASE_CONFIG + "deferral = -100us\n")
        assert cfg.deferral.offset_ns == -100_000

    def test_missing_file_names_path(self, tmp_path):
        missing = tmp_path / "nope.cfg"
        with pytest.raises(ConfigError, match="nope.cfg"):
            load_config(missing)


class TestSimulateCommand:
    def test_writes_deterministic_log(self, config_file, tmp_path, capsys):
        out1, out2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        assert main(["simulate", str(config_file), "--out", str(out1)]) == 0
        summary = capsys.readouterr().out
        assert summary.startswith("N=600 losses A=")
        assert main(["simulate", str(config_file), "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

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
            log = tmp_path / f"int{count}.jsonl"
            main(
                [
                    "simulate",
                    str(config_file),
                    "--interferers",
                    str(count),
                    "--out",
                    str(log),
                ]
            )
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
        for mode in ("pow", "rda", "tdd"):
            assert main(["analyze", "--log", str(log), "--mode", mode, "--td", "50us"]) == 0
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

    def test_guard_refuses_large_displacement(self, config_file, capsys):
        rc = main(
            ["validate-deferral", str(config_file), "--td-list", "2ms"]
        )
        assert rc == 2
        assert "guard" in capsys.readouterr().err


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2

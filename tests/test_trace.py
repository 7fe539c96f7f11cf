import hashlib
import io
import json
import re
from dataclasses import replace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prpwifi import (
    ChannelId,
    InvalidRunError,
    LogFormatError,
    MissingFrameDurationError,
    PacketRecord,
    RunLog,
    copy_latency,
    decode_log,
    encode_log,
    export_csv,
    final_attempt_start,
    generate_run,
    link_outcome,
    read_log,
    receive_time,
    validate_run,
    write_log,
)
from prpwifi import trace
from prpwifi.cli import main
from prpwifi.logblocks import BlockParser
from prpwifi.trace import shift_copy

from conftest import duplex_runs, encodable_runs, mutated_logs
from helpers import (
    CH_A,
    CH_B,
    HAND_PHY,
    lossy_config,
    make_lost_copy,
    make_run,
    make_success_copy,
    validate_run_spec,
)

PHY_BY = {CH_A: HAND_PHY, CH_B: HAND_PHY}


class TestFinalAttemptStart:
    def test_success_path(self):
        copy = make_success_copy(request_ns=0, end_ns=1_000_000)
        # 1_000_000 - (300_000 + 10_000 + 24_000)
        assert final_attempt_start(copy, HAND_PHY) == 666_000

    def test_failure_path(self):
        copy = make_lost_copy(0, 2_000_000, attempts=3, with_duration=True)
        # 2_000_000 - (300_000 + 60_000)
        assert final_attempt_start(copy, HAND_PHY) == 1_640_000

    def test_failure_without_duration_raises(self):
        copy = make_lost_copy(0, 2_000_000, attempts=3)
        with pytest.raises(MissingFrameDurationError):
            final_attempt_start(copy, HAND_PHY)

    def test_matches_recorded_trace(self, traced_run):
        phy_by = traced_run.phy_by_channel()
        for packet in traced_run.packets:
            for channel, copy in packet.copies.items():
                assert (
                    final_attempt_start(copy, phy_by[channel])
                    == copy.trace[-1].start_ns
                )


class TestReceiveTime:
    def test_direct_substitution(self):
        copy = make_success_copy(0, 1_000_000)
        assert receive_time(copy, HAND_PHY) == 966_000

    def test_latency(self):
        copy = make_success_copy(900_000, 1_000_000)
        assert copy_latency(copy, HAND_PHY) == 66_000

    def test_lost_copy_rejected(self):
        copy = make_lost_copy(0, 1_000_000, attempts=21, with_duration=True)
        with pytest.raises(ValueError):
            receive_time(copy, HAND_PHY)


class TestLinkOutcome:
    def packet(self, copy_a, copy_b):
        return PacketRecord(index=1, copies={CH_A: copy_a, CH_B: copy_b})

    def test_min_rule(self):
        # d_A = 3 ms, d_B = 2 ms
        p = self.packet(
            make_success_copy(0, 3_000_000 + 34_000),
            make_success_copy(0, 2_000_000 + 34_000),
        )
        out = link_outcome(p, PHY_BY)
        assert not out.lost
        assert out.latency_ns == 2_000_000
        assert out.quickest == CH_B

    def test_lost_on_all(self):
        p = self.packet(
            make_lost_copy(0, 5_000_000, 21), make_lost_copy(0, 6_000_000, 21)
        )
        out = link_outcome(p, PHY_BY)
        assert out.lost and out.latency_ns is None and out.quickest is None

    def test_single_survivor(self):
        p = self.packet(
            make_lost_copy(0, 8_000_000, 21),
            make_success_copy(0, 5_000_000 + 34_000),
        )
        out = link_outcome(p, PHY_BY)
        assert not out.lost
        assert out.latency_ns == 5_000_000
        assert out.quickest == CH_B

    def test_tie_breaks_to_lowest_index(self):
        p = self.packet(make_success_copy(0, 700_000), make_success_copy(0, 700_000))
        assert link_outcome(p, PHY_BY).quickest == CH_A

    def test_never_worse_than_any_channel(self, traced_run):
        phy_by = traced_run.phy_by_channel()
        for packet in traced_run.packets:
            out = link_outcome(packet, phy_by)
            for channel, copy in packet.copies.items():
                if copy.lost:
                    continue
                assert not out.lost
                assert out.latency_ns <= copy_latency(copy, phy_by[channel])


class TestCodec:
    def roundtrip(self, run):
        buf = io.StringIO()
        encode_log(run, buf)
        return buf.getvalue(), decode_log(io.StringIO(buf.getvalue()))

    def test_roundtrip_full_trace(self, traced_run):
        text, decoded = self.roundtrip(traced_run)
        assert decoded == traced_run
        buf = io.StringIO()
        encode_log(decoded, buf)
        assert buf.getvalue() == text

    def test_roundtrip_adapter_view(self, adapter_run):
        _, decoded = self.roundtrip(adapter_run)
        assert decoded == adapter_run
        assert all(
            copy.trace is None
            for packet in decoded.packets
            for copy in packet.copies.values()
        )

    def test_empty_run_rejected(self):
        with pytest.raises(InvalidRunError):
            encode_log(make_run([]), io.StringIO())

    def test_garbage_header(self):
        with pytest.raises(LogFormatError):
            decode_log(io.StringIO("not json\n"))

    def test_malformed_record_reports_index(self, traced_run):
        buf = io.StringIO()
        encode_log(traced_run, buf)
        lines = buf.getvalue().splitlines()
        lines[3] = '{"i": 3, "copies": [{"ch": "A"}]}'
        with pytest.raises(LogFormatError) as exc:
            decode_log(io.StringIO("\n".join(lines)))
        assert exc.value.record_index == 4

    def test_header_must_be_an_object(self):
        with pytest.raises(LogFormatError) as exc:
            decode_log(io.StringIO("[1, 2]\n"))
        assert exc.value.record_index == 1

    @pytest.mark.parametrize(
        "field, value", [("tW", 1.5), ("Td", "300000"), ("Ta", 24000.0), ("ok", None)]
    )
    def test_trace_fields_must_be_ints(self, traced_run, field, value):
        buf = io.StringIO()
        encode_log(traced_run, buf)
        lines = buf.getvalue().splitlines()
        record = json.loads(lines[2])
        entry = record["copies"][1]["trace"][-1]
        entry[field] = value
        lines[2] = json.dumps(record)
        with pytest.raises(LogFormatError, match=repr(field)) as exc:
            decode_log(io.StringIO("\n".join(lines)), validate=False)
        assert exc.value.record_index == 3

    @given(duplex_runs())
    def test_roundtrip_random_runs(self, run):
        _, decoded = self.roundtrip(run)
        assert decoded == run


def make_packet_pair(request_ns, index=1):
    return PacketRecord(
        index=index,
        copies={
            CH_A: make_success_copy(request_ns, request_ns + 400_000),
            CH_B: make_success_copy(request_ns, request_ns + 500_000),
        },
    )


class TestValidation:
    def test_simulated_runs_validate(self, traced_run, adapter_run):
        validate_run(traced_run)
        validate_run(adapter_run)

    def test_index_gap_detected(self):
        run = make_run([make_packet_pair(0, index=1), make_packet_pair(1_000_000, 3)])
        with pytest.raises(InvalidRunError):
            validate_run(run)

    def test_request_skew_epsilon(self):
        p = PacketRecord(
            index=1,
            copies={
                CH_A: make_success_copy(0, 400_000),
                CH_B: make_success_copy(700, 500_000),
            },
        )
        run = make_run([p])
        with pytest.raises(InvalidRunError):
            validate_run(run)
        validate_run(run, request_epsilon_ns=1_000)

    def test_deferred_skew_must_match(self):
        p = make_packet_pair(0)
        run = make_run([p], deferral_ns=100_000)
        with pytest.raises(InvalidRunError):
            validate_run(run)


class TestCsvExport:
    def test_one_row_per_copy(self, adapter_run):
        buf = io.StringIO()
        export_csv(adapter_run, buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "i,ch,l,t_T,t_X,w,Td,Ta"
        assert len(lines) == 1 + 2 * adapter_run.meta.n_packets
        first = adapter_run.packets[0].copies[CH_A]
        assert lines[1].startswith(f"1,A,{int(first.lost)},{first.request_ns},")

    def test_lost_copy_leaves_durations_empty(self):
        p = PacketRecord(
            index=1,
            copies={
                CH_A: make_lost_copy(0, 2_000_000, 21),
                CH_B: make_success_copy(0, 500_000),
            },
        )
        buf = io.StringIO()
        export_csv(make_run([p]), buf)
        row = buf.getvalue().splitlines()[1]
        assert row == "1,A,1,0,2000000,21,,"


def test_shift_copy_moves_trace_too(traced_run):
    packet = traced_run.packets[0]
    copy = packet.copies[CH_B]
    shifted = shift_copy(copy, 50_000)
    assert shifted.request_ns == copy.request_ns + 50_000
    assert shifted.end_ns == copy.end_ns + 50_000
    assert all(
        s.start_ns == o.start_ns + 50_000 for s, o in zip(shifted.trace, copy.trace)
    )
    assert shifted.attempts == copy.attempts and shifted.lost == copy.lost


# sha256 of the outputs of the per-packet implementation that the columnar
# run replaced, on lossy_config(400, seed=31): log, CSV export, and the
# `analyze` JSON of an RDA and a TDD report (oracle policy on the traced log)
FENCE_DIGESTS = {
    "traced": {
        "jsonl": "4255eceaf090de3ccb1933f082c9e7ddbae9aa5914ad78ad4a2d59c1dce6821d",
        "csv": "6cfe5228f1fd49f977b07d21401228cc8ab657cab8110de2f8f5091a1abacd40",
        "rda": "012d51f6d2e1bbde740544ff959c9fc91cead3254d525778f93dd15a11da6965",
        "tdd": "f83a202aa1dd13f7c3660db58073370eee9ddef8cda1e1999d6f539262707d81",
    },
    "adapter": {
        "jsonl": "f87b66b0f5cfebf7a3f99cfc76eaa88d2ab62f08b11a6f18548754cf1d858f8e",
        "csv": "971260ee377b7a56d441935cdca3ad0ecfadcaee218b73b0e515f3bdc0c7de33",
        "rda": "012d51f6d2e1bbde740544ff959c9fc91cead3254d525778f93dd15a11da6965",
        "tdd": "16c25987c23bc466376a0a3e03acf84980e42b5026fed6a95de906baa23250c4",
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestByteIdentity:
    @pytest.mark.parametrize("view", ["traced", "adapter"])
    def test_outputs_match_pinned_digests(self, view, tmp_path, capsys):
        run = generate_run(lossy_config(400, seed=31, full_trace=view == "traced"))
        assert run.lost.any(axis=1).all() and run.lost.all(axis=0).any()
        digests = {}
        for name, write in (("jsonl", encode_log), ("csv", export_csv)):
            buf = io.StringIO()
            write(run, buf)
            digests[name] = _sha256(buf.getvalue())
        log = tmp_path / "run.jsonl"
        write_log(run, log)
        tdd = ["--mode", "tdd", "--td", "100us", "--tlre", "30us"]
        if view == "traced":
            tdd += ["--failed-copy-policy", "oracle"]
        for name, argv in (("rda", ["--mode", "rda", "--tlre", "50us"]), ("tdd", tdd)):
            out = tmp_path / f"{name}.json"
            assert main(["analyze", "--log", str(log), *argv, "--out", str(out)]) == 0
            digests[name] = _sha256(out.read_text())
        capsys.readouterr()
        assert digests == FENCE_DIGESTS[view]


class TestColumns:
    @pytest.mark.parametrize("name", ["traced_run", "adapter_run"])
    def test_from_packets_roundtrip(self, name, request):
        run = request.getfixturevalue(name)
        assert RunLog.from_packets(run.meta, run.packets) == run

    def test_equality_compares_array_values(self, adapter_run):
        same = replace(adapter_run, end=adapter_run.end.copy())
        assert same.end is not adapter_run.end and same == adapter_run
        bumped = adapter_run.end.copy()
        bumped[1, 7] += 1
        assert replace(adapter_run, end=bumped) != adapter_run

    def test_columns_are_read_only(self, traced_run):
        with pytest.raises(ValueError):
            traced_run.end[0, 0] = 0
        with pytest.raises(ValueError):
            traced_run.trace.start[0] = 0

    def test_from_packets_needs_every_copy(self):
        p = PacketRecord(index=1, copies={CH_A: make_success_copy(0, 400_000)})
        with pytest.raises(InvalidRunError, match="missing channel copies"):
            make_run([p])


class TestDecoderHoles:
    @pytest.mark.parametrize(
        "line, edit, field",
        [
            (4, lambda r: r["copies"][0].update(t_T=2**70), "t_T"),
            (6, lambda r: r["copies"][1].update(w=-(2**63) - 1), "w"),
            (3, lambda r: r["copies"][1]["trace"][0].update(tW=2**64), "tW"),
            (5, lambda r: r.update(i=2**63), "i"),
        ],
    )
    def test_ints_beyond_int64_name_the_line(self, traced_run, line, edit, field):
        buf = io.StringIO()
        encode_log(traced_run, buf)
        lines = buf.getvalue().splitlines()
        record = json.loads(lines[line - 1])
        edit(record)
        lines[line - 1] = json.dumps(record)
        with pytest.raises(LogFormatError, match=repr(field)) as exc:
            decode_log(io.StringIO("\n".join(lines)))
        assert exc.value.record_index == line

    @pytest.mark.parametrize("field, value", [("epsilon", 2**70), ("t_m", 4.0e6)])
    def test_header_ints_are_int64(self, adapter_run, field, value):
        buf = io.StringIO()
        encode_log(adapter_run, buf)
        lines = buf.getvalue().splitlines()
        header = json.loads(lines[0])
        header[field] = value
        lines[0] = json.dumps(header)
        with pytest.raises(LogFormatError, match=field) as exc:
            decode_log(io.StringIO("\n".join(lines)))
        assert exc.value.record_index == 1

    @pytest.mark.parametrize("line", [1, 3])
    def test_deeply_nested_json_names_the_line(self, adapter_run, line):
        buf = io.StringIO()
        encode_log(adapter_run, buf)
        lines = buf.getvalue().splitlines()
        lines[line - 1] = "[" * 100_000 + "]" * 100_000
        with pytest.raises(LogFormatError) as exc:
            decode_log(io.StringIO("\n".join(lines)))
        assert exc.value.record_index == line

    @settings(max_examples=300, deadline=None)
    @given(mutated_logs())
    def test_mutated_log_decodes_or_raises_log_format_error(self, text):
        try:
            decode_log(io.StringIO(text))
        except LogFormatError:
            pass

    @settings(max_examples=300, deadline=None)
    @given(mutated_logs())
    def test_validation_matches_per_packet_spec(self, text):
        """The column checks report what a per-packet pass would: the same
        first offending packet and message, or no error."""
        try:
            run = decode_log(io.StringIO(text), validate=False)
        except LogFormatError:
            return
        errors = []
        for check in (validate_run, validate_run_spec):
            try:
                check(run)
                errors.append(None)
            except InvalidRunError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]


# --- block decoding ------------------------------------------------------------
#
# Edits of one packet line (index ``k``, choice ``c``) of an encoded log.
# Each returns the new text and whether it is still in the encoder's exact
# layout, which the block decoder must accept.

_NUMBER_TOKEN = re.compile(r"(?<=:)-?[0-9]+")
_NUMBERS = (
    ("-0", True), ("0", True), (str(10**18 - 1), True), (str(-(10**18 - 1)), True),
    ("007", False), ("-00", False), ("1234567890123456789", False),
    ("-1234567890123456789", False), (str(2**63 - 1), False), (str(2**63), False),
    (str(-(2**63)), False), ("1e3", False), ("1.5", False),
)


def _set_number(lines, k, c):
    tokens = list(_NUMBER_TOKEN.finditer(lines[k]))
    token = tokens[c % len(tokens)]
    value, canonical = _NUMBERS[c % len(_NUMBERS)]
    lines[k] = lines[k][: token.start()] + value + lines[k][token.end() :]
    return "".join(lines), canonical


def _redump(edit_record, **dumps):
    """Edit the decoded line and write it back; it stays in the encoder's
    layout only if its text does not change."""

    def edit(lines, k, c):
        record = json.loads(lines[k])
        edit_record(record, c)
        line = json.dumps(record, **dumps) + "\n"
        canonical = line == lines[k]
        lines[k] = line
        return "".join(lines), canonical

    return edit


def _move_label_last(record, c):
    entry = record["copies"][c % len(record["copies"])]
    entry["ch"] = entry.pop("ch")


def _drop_field(record, c):
    entry = record["copies"][c % len(record["copies"])]
    del entry[("ch", "l", "t_T", "t_X", "w")[c % 5]]


LINE_EDITS = {
    "canonical": lambda lines, k, c: ("".join(lines), True),
    "number": _set_number,
    "other-channel-order": _redump(
        lambda r, c: r["copies"].reverse(), separators=(",", ":")
    ),
    "spaces": _redump(lambda r, c: None),
    "unescaped-labels": _redump(
        lambda r, c: None, separators=(",", ":"), ensure_ascii=False
    ),
    "label-last": _redump(_move_label_last, separators=(",", ":")),
    "required-field-dropped": _redump(_drop_field, separators=(",", ":")),
    "no-final-newline": lambda lines, k, c: ("".join(lines)[:-1], False),
    "blank-line": lambda lines, k, c: (
        "".join(lines[:k] + [" " * (c % 3) + "\n"] + lines[k:]), False
    ),
    "crlf-line": lambda lines, k, c: (
        "".join(lines[:k] + [lines[k][:-1] + "\r\n"] + lines[k + 1 :]), False
    ),
    "crlf-all": lambda lines, k, c: ("".join(lines).replace("\n", "\r\n"), False),
}


def _outcome(text: str, validate: bool):
    """The decoded run, or the message and line of the decoder's error."""
    try:
        return decode_log(io.StringIO(text), validate=validate)
    except LogFormatError as exc:
        return str(exc), exc.record_index


def _decoded_both_ways(text: str, block: int, validate: bool):
    """(block decoder outcome, whether it parsed every packet line in
    blocks, outcome of the per-line helper over all lines)."""
    with mock.patch.object(trace, "_DECODE_BLOCK", block):
        with mock.patch.object(trace, "_decode_lines", wraps=trace._decode_lines) as lines:
            outcome = _outcome(text, validate)
        with mock.patch.object(BlockParser, "parse", return_value=None):
            reference = _outcome(text, validate)
    return outcome, lines.call_count == 0, reference


class TestBlockDecoder:
    @pytest.mark.parametrize(
        "edit, choice",
        [("number", c) for c in range(len(_NUMBERS))]
        + [(edit, c) for edit in sorted(LINE_EDITS) if edit != "number" for c in (0, 1)],
    )
    def test_edits_decode_as_line_by_line(self, edit, choice, traced_run):
        buf = io.StringIO()
        encode_log(traced_run, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        text, canonical = LINE_EDITS[edit](lines, 1 + choice * 57, choice)
        for validate in (False, True):
            outcome, in_blocks, reference = _decoded_both_ways(text, 3000, validate)
            assert outcome == reference
            assert in_blocks == canonical

    @settings(max_examples=300, deadline=None)
    @given(
        run=encodable_runs(),
        edit=st.sampled_from(sorted(LINE_EDITS)),
        line=st.integers(min_value=1),
        choice=st.integers(min_value=0, max_value=100),
        block=st.sampled_from((1, 200, 1 << 16)),
    )
    def test_random_logs_decode_as_line_by_line(self, run, edit, line, choice, block):
        buf = io.StringIO()
        encode_log(run, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        text, canonical = LINE_EDITS[edit](lines, 1 + line % (len(lines) - 1), choice)
        for validate in (False, True):
            outcome, in_blocks, reference = _decoded_both_ways(text, block, validate)
            assert outcome == reference
            assert in_blocks == canonical
        if text == buf.getvalue():
            assert _outcome(text, validate=False) == run

    @pytest.mark.parametrize("block", [1000, 1 << 16])
    @pytest.mark.parametrize("name", ["traced_run", "adapter_run", "lossy_traced", "lossy_adapter"])
    def test_simulated_logs_never_decode_line_by_line(self, name, block, request):
        if name.startswith("lossy"):
            run = generate_run(lossy_config(300, seed=4, full_trace=name == "lossy_traced"))
        else:
            run = request.getfixturevalue(name)
        buf = io.StringIO()
        encode_log(run, buf)
        per_line = AssertionError("a canonical log was decoded line by line")
        with mock.patch.object(trace, "_DECODE_BLOCK", block), mock.patch.object(
            trace, "_decode_lines", side_effect=per_line
        ):
            assert decode_log(io.StringIO(buf.getvalue())) == run


class TestTextDecoding:
    @pytest.mark.parametrize("line", [1, 4])
    def test_non_utf8_byte_names_its_line(self, adapter_run, tmp_path, line):
        path = tmp_path / "run.jsonl"
        write_log(adapter_run, path)
        lines = path.read_bytes().split(b"\n")
        lines[line - 1] = lines[line - 1][:40] + b"\xff" + lines[line - 1][41:]
        path.write_bytes(b"\n".join(lines))
        with pytest.raises(LogFormatError, match="byte 0xff at column 41") as exc:
            read_log(path)
        assert exc.value.record_index == line

    def test_lone_surrogate_in_text_names_its_line(self, adapter_run):
        buf = io.StringIO()
        encode_log(adapter_run, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        lines[2] = lines[2].replace('"A"', '"A\ud800"')
        with pytest.raises(LogFormatError, match="character U\\+D800 at column") as exc:
            decode_log(io.StringIO("".join(lines)))
        assert exc.value.record_index == 3

    @pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
    def test_files_split_lines_on_any_newline(self, adapter_run, tmp_path, newline):
        path = tmp_path / "run.jsonl"
        write_log(adapter_run, path)
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
        assert read_log(path) == adapter_run

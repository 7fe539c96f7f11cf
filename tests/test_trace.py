import io
import json

import pytest
from hypothesis import given

from prpwifi import (
    ChannelId,
    InvalidRunError,
    LogFormatError,
    MissingFrameDurationError,
    PacketRecord,
    copy_latency,
    decode_log,
    encode_log,
    export_csv,
    final_attempt_start,
    link_outcome,
    receive_time,
    validate_run,
)
from prpwifi.trace import shift_copy

from conftest import duplex_runs
from helpers import (
    CH_A,
    CH_B,
    HAND_PHY,
    make_lost_copy,
    make_run,
    make_success_copy,
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

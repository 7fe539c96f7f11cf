import csv
import errno
import hashlib
import io
import json
import os
import re
import signal
import tempfile
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import fields, replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prpwifi import (
    ChannelId,
    ChannelMeta,
    InvalidRunError,
    LogFormatError,
    PhyParams,
    RunLog,
    RunMeta,
    VIEW_ADAPTER,
    VIEW_FULL_TRACE,
    decode_log,
    encode_log,
    export_csv,
    generate_run,
    read_log,
    validate_run,
    write_log,
)
from prpwifi import trace
from prpwifi.cli import main
from prpwifi.config import parse_config
from prpwifi.da import FailedCopyPolicy, TraceRequiredError, policy_final_start
from prpwifi.logblocks import BlockFormatter, BlockParser, line_blocks
from prpwifi.metrics import _leads, _other_ends
from prpwifi.sim import RunFamily
from prpwifi.trace import (
    AttemptTrace,
    CopyRecord,
    PacketRecord,
    _meta_to_dict,
    final_attempt_start,
    final_starts,
    receive_time,
    receive_times,
    shift_copy,
)

from conftest import (
    NONPOSITIVE_DURATIONS,
    duplex_runs,
    encodable_runs,
    mutated_logs,
    sim_configs,
)
from helpers import (
    CH_A,
    CH_B,
    FAIL_TAIL_NS,
    HAND_PHY,
    copy_from_starts,
    copy_latency,
    desk_config,
    encode_log_spec,
    fixed_layout_spec,
    link_outcome,
    lossy_config,
    make_lost_copy,
    make_run,
    make_success_copy,
    trace_from_starts,
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
        with pytest.raises(TraceRequiredError):
            policy_final_start(copy, HAND_PHY, FailedCopyPolicy.ORACLE)

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

    def test_packet_count_must_match_the_meta(self, adapter_run):
        meta = replace(adapter_run.meta, n_packets=adapter_run.meta.n_packets + 1)
        with pytest.raises(InvalidRunError, match="^packet count does not match meta$"):
            encode_log(replace(adapter_run, meta=meta), io.StringIO())

    def test_any_int_config_seed_roundtrips(self):
        """Config files take any int seed, so its log must decode too."""
        run = generate_run(parse_config(f"packets = 20\nperiod = 4ms\nseed = {2**70}\n"))
        text, decoded = self.roundtrip(run)
        assert run.meta.seed == 2**70 and decoded.meta == run.meta
        assert text.startswith(f'{{"format":"prpwifi-runlog","version":1,"n":20,"t_m":4000000,'
                               f'"seed":{2**70},')

    def test_empty_run_rejected(self):
        with pytest.raises(InvalidRunError):
            encode_log(make_run([]), io.StringIO())

    def test_header_only_log(self, traced_run):
        buf = io.StringIO()
        encode_log(traced_run, buf)
        header = buf.getvalue().splitlines(keepends=True)[0]
        run = decode_log(io.StringIO(header), validate=False)
        assert run.meta == traced_run.meta and run.trace is None
        assert run.index.shape == (0,) and run.index.dtype == "int64"
        for column in (run.req, run.end, run.attempts, run.td, run.ta):
            assert column.shape == (len(traced_run.channels), 0)
            assert column.dtype == "int64"
        n = traced_run.meta.n_packets
        with pytest.raises(LogFormatError, match=f"meta says {n} packets, log has 0$"):
            decode_log(io.StringIO(header))

    @pytest.mark.parametrize("capacity", [5, trace._FIRST_CAPACITY])
    @pytest.mark.parametrize("name", ["traced_run", "adapter_run"])
    @pytest.mark.parametrize(
        "claimed, kept",
        [(10**15, range(3)), (None, [*range(401), *range(400, 800)]), (None, range(799))],
        ids=["n-1e15-over-3-lines", "line-duplicated", "last-line-dropped"],
    )
    def test_packet_lines_other_than_the_header_count(
        self, claimed, kept, name, capacity, request
    ):
        """The header's count only sizes the first allocation: without
        validation every line is decoded, with it the count is checked."""
        run = request.getfixturevalue(name)
        buf = io.StringIO()
        encode_log(run, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        header = json.loads(lines[0])
        header["n"] = claimed or header["n"]
        text = json.dumps(header) + "\n" + "".join(lines[1 + k] for k in kept)
        with mock.patch.object(trace, "_FIRST_CAPACITY", capacity):
            decoded = decode_log(io.StringIO(text), validate=False)
            assert decoded.meta == replace(run.meta, n_packets=header["n"])
            packets = run.packets
            assert decoded.packets == tuple(packets[k] for k in kept)
            message = f"^meta says {header['n']} packets, log has {len(kept)}$"
            with pytest.raises(LogFormatError, match=message):
                decode_log(io.StringIO(text))

    @pytest.mark.parametrize("capacity", [5, trace._FIRST_CAPACITY])
    @pytest.mark.parametrize("name", ["traced_run", "adapter_run"])
    @pytest.mark.parametrize("claimed", [None, 10**15, 3], ids=["n", "n-1e15", "n-3"])
    def test_decoded_columns_hold_no_slack(self, claimed, name, capacity, request):
        """The buffers behind a decoded run hold its arrays and nothing
        else, whatever the header's count: no unused row (the loss flags
        are bool) and no spare capacity stays alive with the run."""
        run = request.getfixturevalue(name)
        lines = _encoded(run, trace._ENCODE_BLOCK).splitlines(keepends=True)
        header = json.loads(lines[0])
        header["n"] = claimed or header["n"]
        text = json.dumps(header) + "\n" + "".join(lines[1:])
        with mock.patch.object(trace, "_FIRST_CAPACITY", capacity):
            decoded = decode_log(io.StringIO(text), validate=False)
        assert decoded.packets == run.packets
        tables = [decoded] + ([decoded.trace] if decoded.trace is not None else [])
        arrays = [
            getattr(table, f.name)
            for table in tables
            for f in fields(table)
            if isinstance(getattr(table, f.name), np.ndarray)
        ]
        assert len(arrays) == (11 if name == "traced_run" else 7)
        held = {}  # bytes of each buffer that the run's arrays cover
        for column in arrays:
            assert column.flags.c_contiguous
            base = column if column.base is None else column.base
            held.setdefault(id(base), [np.asarray(base).nbytes, 0])[1] += column.nbytes
        assert all(size == used for size, used in held.values())
        assert decoded.lost.dtype == bool

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

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda copy: copy.update(Td=None), "field 'Td' must be an int64"),
            (lambda copy: copy.update(Ta=None), "field 'Ta' must be an int64"),
            (lambda copy: copy.update(trace=None), "'trace' must be a list"),
            (lambda copy: copy["trace"][0].update(Ta=None), "trace field 'Ta' must be an int64"),
        ],
        ids=["Td", "Ta", "trace", "trace-Ta"],
    )
    def test_null_is_not_an_absent_field(self, traced_run, edit, message):
        """An optional field is absent only when its key is omitted, as in
        the header; a null in its place used to decode as an omitted key."""
        lines = encode_log_spec(traced_run).splitlines()
        record = json.loads(lines[2])
        edit(record["copies"][1])
        lines[2] = json.dumps(record)
        with pytest.raises(LogFormatError, match=f"^record 3: {re.escape(message)}$"):
            decode_log(io.StringIO("\n".join(lines)), validate=False)

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
        validate_run(replace(run, meta=replace(run.meta, request_epsilon_ns=1_000)))

    def test_displacement_needs_a_duplex_link(self, tmp_path, capsys):
        """A displacement is the second channel's lead over the first, so
        only a duplex link records one. A 3-channel log deferred by 100 us
        with requests at 0, 0 and 3 ms used to validate, since its request
        skew went unchecked."""
        ch_c = ChannelId(2, "C")
        copies = {
            CH_A: make_success_copy(0, 400_000),
            CH_B: make_success_copy(0, 500_000),
            ch_c: make_success_copy(3_000_000, 3_400_000),
        }
        run = make_run([PacketRecord(1, copies)], deferral_ns=100_000, channels=(CH_A, CH_B, ch_c))
        message = "a request displacement needs a duplex link"
        for check in (validate_run, validate_run_spec):
            with pytest.raises(InvalidRunError, match=f"^{message}$"):
                check(run)
        path = tmp_path / "run.jsonl"
        path.write_text(encode_log_spec(run))  # encode_log refuses the header
        message = f"record 1: bad meta header: {message}"
        with pytest.raises(LogFormatError, match=f"^{message}$"):
            read_log(path)
        capsys.readouterr()
        assert main(["analyze", "--log", str(path), "--mode", "rda"]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_deferred_skew_must_match(self):
        p = make_packet_pair(0)
        run = make_run([p], deferral_ns=100_000)
        with pytest.raises(InvalidRunError):
            validate_run(run)

    @pytest.mark.parametrize(
        "td, ta, message",
        [
            (2**63 - 1, 2**63 - 1, "the final attempt must not start before the request"),
            (300_000, 2**63 - 1, "the final attempt must not start before the request"),
            (300_000, 700_000, "the final attempt must not start before the request"),
        ],
    )
    def test_reconstruction_cannot_wrap(self, td, ta, message):
        """With Td = Ta = 2^63 - 1 on packet 2's copy on B, the int64 final
        start wrapped past B's request and the cross-ACK, so the columnar
        RDA report counted that copy as early (channel B e_bar 1, against
        2/3 from the per-packet reference); with only Ta that large, that
        copy's latency came out near -9.2e18 ns. Such a log no longer
        validates."""
        packets = [make_packet_pair(i * 1_000_000, index=i + 1) for i in range(3)]
        b = replace(packets[1].copies[CH_B], final_data_ns=td, final_ack_ns=ta)
        packets[1] = replace(packets[1], copies={**packets[1].copies, CH_B: b})
        run = make_run(packets)
        message = f"packet 2, channel B: {message}"
        for check in (validate_run, validate_run_spec):
            with pytest.raises(InvalidRunError, match=f"^{message}$"):
                check(run)
        buf = io.StringIO()
        encode_log(run, buf)
        with pytest.raises(LogFormatError, match=f"^{message}$"):
            decode_log(io.StringIO(buf.getvalue()))

    @pytest.mark.parametrize("td, ta, field", [(-300_000, 24_000, "Td"), (300_000, -24_000, "Ta")])
    def test_negative_duration_fails_in_memory_and_at_its_record(self, td, ta, field):
        """A run in memory can hold a negative frame duration, which
        validation refuses; written out, its line breaks the log format."""
        packets = [make_packet_pair(i * 1_000_000, index=i + 1) for i in range(3)]
        b = replace(packets[1].copies[CH_B], final_data_ns=td, final_ack_ns=ta)
        packets[1] = replace(packets[1], copies={**packets[1].copies, CH_B: b})
        run = make_run(packets)
        for check in (validate_run, validate_run_spec):
            with pytest.raises(
                InvalidRunError, match="^packet 2, channel B: frame durations must be positive$"
            ):
                check(run)
        buf = io.StringIO()
        encode_log(run, buf)
        with pytest.raises(LogFormatError, match=f"^record 3: field '{field}' must be positive$"):
            decode_log(io.StringIO(buf.getvalue()), validate=False)

    def test_lost_copy_carries_no_ack_duration(self):
        """No ACK ended a lost copy, so it may carry ``Td`` but never ``Ta``;
        the check comes before the one on negative durations."""
        packets = [make_packet_pair(i * 1_000_000, index=i + 1) for i in range(3)]
        b = packets[1].copies[CH_B]
        for ta, error in [
            (b.final_ack_ns, "lost copies carry no ACK duration"),
            (-1, "lost copies carry no ACK duration"),
            (None, None),
        ]:
            copies = {**packets[1].copies, CH_B: replace(b, lost=True, final_ack_ns=ta)}
            run = make_run([packets[0], replace(packets[1], copies=copies), packets[2]])
            for check in (validate_run, validate_run_spec):
                if error is None:
                    check(run)
                    continue
                with pytest.raises(InvalidRunError, match=f"^packet 2, channel B: {error}$"):
                    check(run)

    def test_copy_checks_follow_channel_order(self):
        """Packet 2 breaks a later check on A (``Td = -1``) than on B
        (``t_X = t_T``): the channel comes before the check, as in a
        per-packet pass, and the message names it."""
        packets = [make_packet_pair(i * 1_000_000, index=i + 1) for i in range(3)]
        a, b = (packets[1].copies[c] for c in (CH_A, CH_B))
        copies = {CH_A: replace(a, final_data_ns=-1), CH_B: replace(b, end_ns=b.request_ns)}
        run = make_run([packets[0], replace(packets[1], copies=copies), packets[2]])
        for check in (validate_run, validate_run_spec):
            with pytest.raises(
                InvalidRunError, match="^packet 2, channel A: frame durations must be positive$"
            ):
                check(run)

    def test_end_times_stay_below_2_62(self, tmp_path, capsys):
        """An end of transmission at 2^63 - 11 on packet 2's copy on A used
        to validate, and a virtual T_D of -3 ms then wrapped its shifted end
        in the vectorized report. Every end must now come before 2^62 ns,
        the simulator's limit too; 2^62 - 1 still validates."""
        packets = [make_packet_pair(i * 1_000_000, index=i + 1) for i in range(3)]
        for end, message in [
            (2**63 - 11, "packet 2, channel A: end of transmission must come before 2^62 ns"),
            (2**62, "packet 2, channel A: end of transmission must come before 2^62 ns"),
            (2**62 - 1, None),
        ]:
            a = replace(packets[1].copies[CH_A], end_ns=end)
            run = make_run(
                [packets[0], replace(packets[1], copies={**packets[1].copies, CH_A: a}), packets[2]]
            )
            self._check_time_limit(run, message, "--td=-3ms", tmp_path, capsys)

    def test_attempts_start_before_the_end_of_transmission(self, tmp_path, capsys):
        """A last start of 2^63 - 11 on packet 2's copy on B (its end 1.6
        ms) used to validate while the copy carried no ``Td``, and a
        virtual T_D of 3 ms then wrapped the displaced start in the oracle
        summary. A last start at or past the end is not the reconstructed
        final start, 1.24 ms, which validates."""
        message = "packet 2, channel B: final-attempt reconstruction mismatch"
        for last_start, error in [
            (2**63 - 11, message),
            (1_600_000, message),
            (1_600_000 - FAIL_TAIL_NS, None),
        ]:
            b = make_lost_copy(1_000_000, 1_600_000, attempts=2, with_duration=True)
            b = replace(b, trace=trace_from_starts([1_100_000, last_start], lost=True))
            run = make_run(
                [_traced_pair(0, 1), _traced_pair(1_000_000, 2, b), _traced_pair(2_000_000, 3)],
                view=VIEW_FULL_TRACE,
            )
            self._check_time_limit(run, error, "--td=3ms", tmp_path, capsys)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (
                lambda b: replace(b, trace=(replace(b.trace[0], data_ns=200_000, ack_ns=124_000),)),
                "final frame durations must be the last attempt's",
            ),
            (
                lambda b: replace(b, trace=(replace(b.trace[0], data_ns=-5),)),
                "attempt frame durations must be positive",
            ),
            (
                lambda b: replace(b, trace=(replace(b.trace[0], ack_ns=-24_000),)),
                "attempt frame durations must be positive",
            ),
            (
                lambda b: replace(
                    copy_from_starts(b.request_ns, [b.request_ns + 100_000], lost=True),
                    final_data_ns=None,
                ),
                "final frame durations must be the last attempt's",
            ),
            (
                lambda b: _attempts_at(b, 50_000, 50_000, 200_000),
                "attempt starts must strictly increase",
            ),
            (
                lambda b: replace(
                    c := _attempts_at(b, 50_000, 100_000, 200_000),
                    trace=(replace(c.trace[0], ack_ns=24_000), *c.trace[1:]),
                ),
                "only the final attempt may succeed",
            ),
        ],
        ids=["same-sum-other-ack", "negative-data", "negative-ack", "lost-without-Td",
             "second-start-repeats-the-first", "first-of-three-attempts-acked"],
    )
    def test_traced_copy_carries_its_last_attempts_frames(self, edit, message):
        """A traced copy's ``Td``/``Ta`` are its last attempt's DATA and ACK,
        and every attempt's DATA, and ACK where carried, is positive; its
        attempt starts strictly increase, and only its last attempt may
        carry an ACK, also in its first two rows. The first two cases
        used to validate: Td = 300 us and Ta = 24 us against an entry of
        200 us and 124 us, the same sum, so the reconstruction held while
        receive times used the 24 us ACK; and an entry DATA of -5 ns, whose
        log the decoder then refused (``trace field 'Td' must be
        positive``)."""
        packets = [_traced_pair(i * 1_000_000, i + 1) for i in range(3)]
        validate_run(make_run(packets, view=VIEW_FULL_TRACE))  # accepted before the edit
        b = edit(packets[1].copies[CH_B])
        packets[1] = replace(packets[1], copies={**packets[1].copies, CH_B: b})
        run = make_run(packets, view=VIEW_FULL_TRACE)
        for check in (validate_run, validate_run_spec):
            with pytest.raises(InvalidRunError, match=f"^packet 2, channel B: {message}$"):
                check(run)

    @pytest.mark.parametrize("first_start", [-1, 0])
    def test_first_packets_attempts_start_at_zero_or_later(self, first_start):
        """The first packet's attempts follow an end at -1, so a first
        attempt at -1 overlaps it and one at 0 does not; only the final
        attempt's start is checked against the request."""
        b = copy_from_starts(0, [first_start, 400_000], lost=False)
        packets = [_traced_pair(0, 1, b), _traced_pair(1_000_000, 2), _traced_pair(2_000_000, 3)]
        run = make_run(packets, view=VIEW_FULL_TRACE)
        for check in (validate_run, validate_run_spec):
            if first_start < 0:
                message = "^packet 1, channel B: attempts overlap the previous packet$"
                with pytest.raises(InvalidRunError, match=message):
                    check(run)
            else:
                check(run)

    @settings(max_examples=40, deadline=None)
    @given(config=sim_configs(), data=st.data())
    def test_defects_in_generated_runs_fail_as_the_per_packet_spec(self, config, data):
        """Defects in two or more packets, on both channels, and in two or
        more trace rows of a generated full-trace run: the column checks
        name the least (packet, channel, check) that the per-packet pass
        names, with its message, or both accept the run."""
        run = generate_run(replace(config, emit_full_trace=True))
        n, t = len(run.index), run.trace
        columns = {name: getattr(run, name).copy() for name in ("index", *trace.COPY_COLUMNS)}
        rows = {name: getattr(t, name).copy() for name in trace.ATTEMPT_COLUMNS}

        def defect(values, at):
            old = values[at].item()
            values[at] = not old if values.dtype == bool else data.draw(
                st.sampled_from((old - 1, old + 1, 0, -old, old - 300_000, old + 300_000, 2**62)),
                label="value",
            )

        packets = st.lists(st.integers(0, n - 1), min_size=2, max_size=4, unique=True)
        for k, i in enumerate(data.draw(packets, label="packets")):
            name = data.draw(st.sampled_from(list(columns)), label="field")
            defect(columns[name], i if name == "index" else (k % 2, i))
        attempt_rows = st.lists(
            st.integers(0, len(t.start) - 1), min_size=2, max_size=3, unique=True
        )
        for r in data.draw(attempt_rows, label="rows"):
            defect(rows[data.draw(st.sampled_from(list(rows)), label="attempt field")], r)
        mutated = replace(run, trace=replace(t, **rows), **columns)
        errors = []
        for check in (validate_run, validate_run_spec):
            try:
                check(mutated)
                errors.append(None)
            except InvalidRunError as exc:
                errors.append(str(exc))
        assert errors[0] == errors[1]

    @staticmethod
    def _check_time_limit(run, message, td_option, tmp_path, capsys):
        """Without ``message``, ``run`` validates, round-trips and analyzes
        under the virtual displacement ``td_option``; with it, validation,
        ``read_log`` and ``analyze`` (exit 2) fail with that message."""
        path = tmp_path / "run.jsonl"
        write_log(run, path)
        capsys.readouterr()
        exit_code = main(["analyze", "--log", str(path), "--mode", "tdd", td_option])
        captured = capsys.readouterr()
        if message is None:
            validate_run(run)
            validate_run_spec(run)
            assert read_log(path) == run
            assert exit_code == 0
            return
        for check in (validate_run, validate_run_spec):
            with pytest.raises(InvalidRunError, match=f"^{re.escape(message)}$"):
                check(run)
        with pytest.raises(LogFormatError, match=f"^{re.escape(message)}$"):
            read_log(path)
        assert exit_code == 2 and captured.out == ""
        assert captured.err == f"error: {message}\n"


def _traced_pair(request_ns: int, index: int, b: CopyRecord | None = None) -> PacketRecord:
    """Packet ``index`` with a traced copy on A delivered at +0.4 ms, and on
    B ``b`` or a traced copy delivered at +0.5 ms."""

    def delivered(end_ns: int) -> CopyRecord:
        copy = make_success_copy(request_ns, end_ns)
        start = final_attempt_start(copy, HAND_PHY)
        return replace(copy, trace=trace_from_starts([start], lost=False))

    b = delivered(request_ns + 500_000) if b is None else b
    return PacketRecord(index=index, copies={CH_A: delivered(request_ns + 400_000), CH_B: b})


def _attempts_at(b: CopyRecord, *offsets: int) -> CopyRecord:
    """A delivered copy requested as ``b`` whose attempts start at
    ``offsets`` after its request."""
    return copy_from_starts(b.request_ns, [b.request_ns + d for d in offsets], lost=False)


class TestColumnarReconstruction:
    """``receive_times``, ``final_starts`` and the oracle policy's final
    starts (its leads plus the other copies' ends) equal the per-copy
    functions on every copy of simulated runs."""

    @pytest.mark.parametrize("full_trace", [False, True], ids=["adapter", "traced"])
    @pytest.mark.parametrize("loss_prob", [None, 1.0], ids=["drawn-loss", "all-lost-on-B"])
    @settings(max_examples=15, deadline=None)
    @given(config=sim_configs())
    def test_equals_per_copy_spec(self, full_trace, loss_prob, config):
        if loss_prob is not None:
            b = replace(config.channels[1], loss_prob=loss_prob)
            config = replace(config, channels=(config.channels[0], b))
        run = generate_run(replace(config, emit_full_trace=full_trace))
        rx, start = receive_times(run), final_starts(run)
        phy_by = run.phy_by_channel()
        try:
            oracle = _leads(run, FailedCopyPolicy.ORACLE) + _other_ends(run)
        except TraceRequiredError:
            oracle = None
        spec_rx, spec_start, spec_oracle = (np.zeros_like(run.req) for _ in range(3))
        oracle_known = True
        for i, packet in enumerate(run.packets):
            for j, channel in enumerate(run.channels):
                copy, phy = packet.copies[channel], phy_by[channel]
                if not copy.lost:
                    spec_rx[j, i] = receive_time(copy, phy)
                if copy.final_data_ns is not None:
                    spec_start[j, i] = final_attempt_start(copy, phy)
                try:
                    spec_oracle[j, i] = policy_final_start(copy, phy, FailedCopyPolicy.ORACLE)
                except TraceRequiredError:
                    oracle_known = False
        assert np.array_equal(np.where(run.lost, 0, rx), spec_rx)
        assert np.array_equal(np.where(run.td != 0, start, 0), spec_start)
        assert (oracle is not None) == oracle_known
        if oracle is not None:
            assert np.array_equal(oracle, spec_oracle)


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

    @pytest.mark.parametrize("full_trace", [False, True], ids=["adapter", "traced"])
    def test_blocks_write_the_rows_of_every_packet(self, full_trace):
        """``export_csv`` writes ``_ENCODE_BLOCK`` packets at a time; over
        three blocks, the last of 3 packets, it writes what ``csv.writer``
        writes from the per-packet records, lost copies and a label that
        needs quoting included."""
        run = _relabelled(
            generate_run(lossy_config(2 * trace._ENCODE_BLOCK + 3, seed=31, full_trace=full_trace)),
            "A", 'x,"y',
        )
        assert run.lost.any(axis=1).all()
        spec = io.StringIO()
        writer = csv.writer(spec, lineterminator="\n")
        writer.writerow(["i", "ch", "l", "t_T", "t_X", "w", "Td", "Ta"])
        for p in run.packets:
            for channel, c in p.copies.items():
                writer.writerow([
                    p.index, channel.label, int(c.lost), c.request_ns, c.end_ns, c.attempts,
                    c.final_data_ns or "", c.final_ack_ns or "",
                ])
        buf = io.StringIO()
        export_csv(run, buf)
        assert '"x,""y"' in buf.getvalue()
        assert buf.getvalue() == spec.getvalue()

    def test_peak_is_a_few_blocks_of_rows(self, tmp_path):
        """Beside the run, ``export_csv`` holds the Python rows of one block
        of ``_ENCODE_BLOCK`` packets at a time, 11x that block's CSV text
        here. Building the rows of the whole run first held 36x the block's
        text on this 8-block run, a share that grows with the run."""
        packets = 1024  # per block, to keep the run small
        run = generate_run(desk_config(8 * packets, seed=5, full_trace=False))
        path = tmp_path / "run.csv"
        with mock.patch.object(trace, "_ENCODE_BLOCK", packets):
            write = lambda sink: export_csv(run, sink)  # noqa: E731
            trace.write_atomic(path, write)  # one-time allocations out of the way
            rows = path.read_text().splitlines(keepends=True)[1:]
            step = len(run.channels) * packets
            block = max(len("".join(rows[lo : lo + step])) for lo in range(0, len(rows), step))
            del rows
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                trace.write_atomic(path, write)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak - before <= 15 * block


def test_write_atomic_passes_other_errors_on_and_keeps_the_target(tmp_path):
    """An error other than ``OSError`` in ``write`` leaves ``write_atomic``
    as it was raised; the temp file is removed and the target keeps its
    bytes."""
    path = tmp_path / "out.csv"
    path.write_bytes(b"kept\n")
    error = KeyError("write")

    def write(sink):
        sink.write("partial\n")
        raise error

    with pytest.raises(KeyError) as raised:
        trace.write_atomic(path, write)
    assert raised.value is error
    assert list(tmp_path.iterdir()) == [path] and path.read_bytes() == b"kept\n"


def _relabelled(run: RunLog, *labels: str) -> RunLog:
    """``run`` with its channels labelled ``labels``."""
    channels = tuple(
        replace(cm, channel=replace(cm.channel, label=label))
        for cm, label in zip(run.meta.channels, labels)
    )
    return replace(run, meta=replace(run.meta, channels=channels))


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
# `analyze` JSON of an RDA and a TDD report (oracle policy on the traced
# log); and, pinned later from the columnar code, of the `sweep` CSVs over
# T_LRE and over T_D on the same log
FENCE_DIGESTS = {
    "traced": {
        "jsonl": "4255eceaf090de3ccb1933f082c9e7ddbae9aa5914ad78ad4a2d59c1dce6821d",
        "csv": "6cfe5228f1fd49f977b07d21401228cc8ab657cab8110de2f8f5091a1abacd40",
        "rda": "012d51f6d2e1bbde740544ff959c9fc91cead3254d525778f93dd15a11da6965",
        "tdd": "f83a202aa1dd13f7c3660db58073370eee9ddef8cda1e1999d6f539262707d81",
        "sweep_tlre": "bfdc41becd60b6784710cda417f82ffcb3ba8f1406fa5406d1ce87f85cee1881",
        "sweep_td": "2e59170041800d5c592079fefff438881208b17154f3ac45f15f1eeb11732d67",
    },
    "adapter": {
        "jsonl": "f87b66b0f5cfebf7a3f99cfc76eaa88d2ab62f08b11a6f18548754cf1d858f8e",
        "csv": "971260ee377b7a56d441935cdca3ad0ecfadcaee218b73b0e515f3bdc0c7de33",
        "rda": "012d51f6d2e1bbde740544ff959c9fc91cead3254d525778f93dd15a11da6965",
        "tdd": "16c25987c23bc466376a0a3e03acf84980e42b5026fed6a95de906baa23250c4",
        "sweep_tlre": "bfdc41becd60b6784710cda417f82ffcb3ba8f1406fa5406d1ce87f85cee1881",
        "sweep_td": "2e59170041800d5c592079fefff438881208b17154f3ac45f15f1eeb11732d67",
    },
}
# `validate-deferral` stdout on a lossy desk config, seeds 31 and 32
VALIDATE_DEFERRAL_DIGEST = "13a5ac6ee6a9057a6fb10770cfb0aae117f4de0c459b254f5d803f12ee44c04c"


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
        for name, argv in (
            ("sweep_tlre", ["--param", "tlre", "--range=0:200us", "--step", "10us"]),
            ("sweep_td", ["--param", "td", "--range=-300us:300us", "--step", "25us",
                          "--tlre", "30us"]),
        ):
            out = tmp_path / f"{name}.csv"
            assert main(["sweep", "--log", str(log), *argv, "--out", str(out)]) == 0
            digests[name] = _sha256(out.read_text())
        capsys.readouterr()
        assert digests == FENCE_DIGESTS[view]

    def test_validate_deferral_stdout_matches_pinned_digest(self, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text(
            "packets = 400\nperiod = 4ms\nfull_trace = false\nloss_prob = 0.3\n"
            "retry_limit = 2\nburst_mean = 3\nburst_cap = 12\ngap_mean = 2.8ms\n"
            "gap_cap = 280ms\nA.interferers = 1\nB.interferers = 2\n"
        )
        argv = ["validate-deferral", str(config), "--td-list=-150us,0,100us", "--seeds", "31,32",
                "--tlre", "30us", "--tol-e", "0.004", "--tol-latency", "0.05"]
        assert main(argv) == 1  # the 100 us row fails its tolerance
        assert _sha256(capsys.readouterr().out) == VALIDATE_DEFERRAL_DIGEST


@pytest.fixture
def no_packets_run() -> RunLog:
    return make_run([])


@pytest.fixture
def partly_traced_run() -> RunLog:
    """Full-trace view, with traces of one and of three attempts beside
    copies that carry none."""
    three = copy_from_starts(1_000_000, [1_000_000, 1_100_000, 1_200_000], lost=False)
    packets = [
        _traced_pair(0, 1, b=make_success_copy(0, 500_000)),
        _traced_pair(1_000_000, 2, b=three),
        PacketRecord(3, {
            CH_A: make_lost_copy(2_000_000, 2_900_000, 21),
            CH_B: make_success_copy(2_000_000, 2_500_000),
        }),
    ]
    return make_run(packets, view=VIEW_FULL_TRACE)


@pytest.fixture
def three_channel_run() -> RunLog:
    """Three channels whose copies carry traces of 1 to 3 attempts."""
    channels = (CH_A, CH_B, ChannelId(2, "C"))
    packets = [
        PacketRecord(i + 1, {
            channel: copy_from_starts(
                i * 1_000_000, [i * 1_000_000 + 1_000 * (a + j) for a in range(1 + (i + j) % 3)],
                lost=(i + j) % 4 == 3,
            )
            for j, channel in enumerate(channels)
        })
        for i in range(4)
    ]
    return make_run(packets, view=VIEW_FULL_TRACE, channels=channels)


class TestColumns:
    @pytest.mark.parametrize(
        "name",
        ["traced_run", "adapter_run", "no_packets_run", "partly_traced_run", "three_channel_run"],
    )
    def test_from_packets_roundtrip(self, name, request):
        run = request.getfixturevalue(name)
        assert RunLog.from_packets(run.meta, run.packets) == run

    def test_equality_compares_array_values(self, adapter_run):
        same = replace(adapter_run, end=adapter_run.end.copy())
        assert same.end is not adapter_run.end and same == adapter_run
        bumped = adapter_run.end.copy()
        bumped[1, 7] += 1
        assert replace(adapter_run, end=bumped) != adapter_run

    def test_equality_with_another_type_is_left_to_it(self, traced_run):
        assert traced_run.__eq__(5) is NotImplemented
        assert (traced_run == 5) is False
        assert (traced_run != traced_run.trace) is True

    def test_columns_are_read_only(self, traced_run):
        with pytest.raises(ValueError):
            traced_run.end[0, 0] = 0
        with pytest.raises(ValueError):
            traced_run.trace.start[0] = 0

    def test_from_packets_needs_every_copy(self):
        p = PacketRecord(index=1, copies={CH_A: make_success_copy(0, 400_000)})
        with pytest.raises(InvalidRunError, match="missing channel copies"):
            make_run([p])

    @pytest.mark.parametrize(
        "edit, what",
        [
            (lambda b: replace(b, final_data_ns=0), "duration must not be 0"),
            (lambda b: replace(b, final_ack_ns=0), "duration must not be 0"),
            (
                lambda b: replace(b, trace=(replace(b.trace[0], ack_ns=0),)),
                "duration must not be 0",
            ),
            (lambda b: replace(b, trace=()), "trace must not be empty"),
        ],
        ids=["Td", "Ta", "trace-Ta", "empty-trace"],
    )
    def test_from_packets_refuses_what_no_column_holds(self, edit, what):
        """A run stores 0 and no attempt rows for a duration or trace that a
        copy does not carry, so a carried 0 or an empty trace would come
        back from ``packets`` as absent; ``from_packets`` refuses them."""
        packets = [_traced_pair(i * 1_000_000, i + 1) for i in range(3)]
        make_run(packets, view=VIEW_FULL_TRACE)  # accepted before the edit
        b = edit(packets[1].copies[CH_B])
        packets[1] = replace(packets[1], copies={**packets[1].copies, CH_B: b})
        with pytest.raises(InvalidRunError, match=f"^packet 2, channel B: a carried {what}$"):
            make_run(packets, view=VIEW_FULL_TRACE)


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

    @pytest.mark.parametrize(
        "line, edit, message",
        [
            (1, lambda t: t[:-1] + ',"seed":99}', "repeated key 'seed'"),
            (3, lambda t: t.replace('"w":', '"w":7,"w":', 1), "repeated key 'w'"),
            (3, lambda t: t.replace('"ok":', '"ok":0,"ok":', 1), "repeated key 'ok'"),
            (3, lambda t: t[:-1] + ',"note":"x"}', "unknown packet key 'note'"),
            (3, lambda t: t.replace('"l":', '"zzz":5,"l":', 1), "unknown copy key 'zzz'"),
            (3, lambda t: t.replace('"tW":', '"q":1,"tW":', 1), "unknown trace key 'q'"),
        ],
    )
    def test_repeated_or_unknown_key_names_the_record(
        self, traced_run, line, edit, message, tmp_path, capsys
    ):
        buf = io.StringIO()
        encode_log(traced_run, buf)
        lines = buf.getvalue().splitlines()
        lines[line - 1] = edit(lines[line - 1])
        text = "\n".join(lines) + "\n"
        for validate in (True, False):
            with pytest.raises(LogFormatError) as exc:
                decode_log(io.StringIO(text), validate=validate)
            assert str(exc.value) == f"record {line}: {message}"
        path = tmp_path / "run.jsonl"
        path.write_text(text)
        capsys.readouterr()
        assert main(["analyze", "--log", str(path), "--mode", "rda"]) == 2
        assert capsys.readouterr().err == f"error: record {line}: {message}\n"

    def test_bad_header_phy_names_the_channel(self, adapter_run):
        buf = io.StringIO()
        encode_log(adapter_run, buf)
        lines = buf.getvalue().splitlines()
        header = json.loads(lines[0])
        header["channels"][1]["phy"]["retry_limit"] = 0
        lines[0] = json.dumps(header)
        message = "record 1: bad meta header: channel B: retry_limit must be >= 1"
        with pytest.raises(LogFormatError, match=f"^{message}$"):
            decode_log(io.StringIO("\n".join(lines)))

    @pytest.mark.parametrize(
        "path, value, message",
        [
            (("epsilon",), 2**70, "header key 'epsilon' must be an int64"),
            (("t_m",), 4.0e6, "header key 't_m' must be an int64"),
            (("seed",), "x", "header key 'seed' must be an integer"),
            (("seed",), 1.5, "header key 'seed' must be an integer"),
            (("seed",), True, "header key 'seed' must be an integer"),
            (
                ("channels", 0, "interferers"),
                -5,
                "bad meta header: channel A: interferers must be >= 0",
            ),
            (("channels", 0, "interferers"), "lots", "header key 'A.interferers' must be an int64"),
            (("channels", 1, "seed_salt"), 7, "header key 'B.seed_salt' must be a string"),
            (("channels", 0, "ch"), 5, "header key 'channels[0].ch' must be a string"),
            (("bogus",), 1, "unknown header key 'bogus'"),
            (("channels", 1, "phy", "bogus"), 1, "unknown header key 'B.phy.bogus'"),
            (("channels", 0, "interferers"), None, "header key 'A.interferers' is missing"),
            (
                ("channels", 0, "phy", "data_frame_schedule"),
                "null",
                "header key 'A.phy.data_frame_schedule' must be a list of int64s",
            ),
            (
                ("channels", 0, "phy", "data_frame_schedule"),
                [],
                "bad meta header: channel A: data_frame_schedule_ns must not be empty",
            ),
            (("version",), True, "header key 'version' must be 1"),
            (("version",), 1.0, "header key 'version' must be 1"),
            (("epsilon",), -1, "bad meta header: request skew epsilon must be >= 0"),
            (
                ("channels", 0, "phy", "data_frame_schedule"),
                [300_000, 0],
                "bad meta header: channel A: scheduled frame durations must be positive",
            ),
            (("view",), "bogus", "bad meta header: unknown view 'bogus'"),
            (("channels", 1), None, "bad meta header: a redundant link needs at least two channels"),
            (("channels", 1, "ch"), "A", "bad meta header: channel labels and indices must be unique"),
            (("channels", 0, "index"), 2, "bad meta header: channels must be listed in index order"),
            (("channels",), {}, "header key 'channels' must be a list"),
        ],
        ids=lambda arg: ".".join(map(str, arg)) if type(arg) is tuple else None,
    )
    def test_bad_header_value_names_the_key(self, adapter_run, path, value, message):
        """``value`` None deletes the key, "null" sets it to JSON null."""
        buf = io.StringIO()
        encode_log(adapter_run, buf)
        lines = buf.getvalue().splitlines()
        header = json.loads(lines[0])
        parent = header
        for key in path[:-1]:
            parent = parent[key]
        if value is None:
            del parent[path[-1]]
        else:
            parent[path[-1]] = None if value == "null" else value
        lines[0] = json.dumps(header)
        for validate in (True, False):
            with pytest.raises(LogFormatError) as exc:
                decode_log(io.StringIO("\n".join(lines)), validate=validate)
            assert str(exc.value) == f"record 1: {message}" and exc.value.record_index == 1

    def test_empty_input_has_no_header(self):
        with pytest.raises(LogFormatError, match="^empty input, expected a meta header$") as exc:
            decode_log(io.StringIO(""))
        assert exc.value.record_index is None

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
        """A header that decodes is the canonical one: no value in it was
        dropped, defaulted or retyped."""
        try:
            run = decode_log(io.StringIO(text))
        except LogFormatError:
            return
        assert json.loads(text.split("\n", 1)[0]) == _meta_to_dict(run.meta)

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
        # a broken invariant names its packet, and the channel of a copy check
        location = re.compile(r"packet [1-9][0-9]*(, channel .+?)?: ")
        assert errors[0] is None or errors[0].startswith("meta says ") or location.match(errors[0])


# --- block decoding ------------------------------------------------------------
#
# Edits of one packet line (index ``k``, choice ``c``) of an encoded log.
# Each returns the new text and whether it is still in the encoder's exact
# layout, which the block decoder must accept.

# a JSON string (skipped whole, so no label is edited) or a number field
_NUMBER_TOKEN = re.compile(r'"(?:[^"\\]|\\.)*"|(?<=:)(-?[0-9]+)')
_DURATION_KEY = re.compile(r'"T[da]":')
_OK_KEY = re.compile(r'"ok":')
_NUMBERS = (
    ("-0", True), ("0", True), (str(10**18 - 1), True), (str(-(10**18 - 1)), True),
    ("007", False), ("-00", False), ("1234567890123456789", False),
    ("-1234567890123456789", False), (str(2**63 - 1), False), (str(2**63), False),
    (str(-(2**63)), False), ("1e3", False), ("1.5", False),
)


def _untraced_run(labels: tuple[str, ...]) -> RunLog:
    """One full-trace packet without traces on channels labelled ``labels``,
    every number field 0."""
    channels = tuple(ChannelId(j, label) for j, label in enumerate(labels))
    meta = RunMeta(
        n_packets=1,
        period_ns=1_000_000,
        seed=0,
        view=VIEW_FULL_TRACE,
        channels=tuple(ChannelMeta(channel, PhyParams()) for channel in channels),
    )
    zero = CopyRecord(False, 0, 0, 0, None, None)
    return RunLog.from_packets(meta, [PacketRecord(0, dict.fromkeys(channels, zero))])


def _set_number(lines, k, c):
    """Set a number of line ``k`` to a value of ``_NUMBERS``; a frame
    duration takes only those that are not canonical non-positive numbers
    (``TestMalformedDurations`` edits those). A trace entry's ``ok`` stays
    in the layout only at its own value, 1 after a ``Ta`` and else 0."""
    value, canonical = _NUMBERS[c % len(_NUMBERS)]
    any_field = not canonical or int(value) > 0
    tokens = [
        token
        for token in _NUMBER_TOKEN.finditer(lines[k])
        if token[1] and (any_field or not _DURATION_KEY.match(lines[k], token.start(1) - 5))
    ]
    token = tokens[c % len(tokens)]
    if _OK_KEY.match(lines[k], token.start(1) - 5):
        canonical = value == token[1]
    lines[k] = lines[k][: token.start(1)] + value + lines[k][token.end(1) :]
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


@contextmanager
def _block_paths():
    """The path that decoded each block, in order: "fixed" (the fixed-layout
    parse), "general" (the block grammar) or "lines" (line by line)."""
    paths = []

    def recorded(path, decode):
        def wrapper(*args):
            paths.append(path)
            return decode(*args)

        return wrapper

    with mock.patch.object(
        BlockParser, "_parse_fixed", recorded("fixed", BlockParser._parse_fixed)
    ), mock.patch.object(
        BlockParser, "_parse_general", recorded("general", BlockParser._parse_general)
    ), mock.patch.object(trace, "_decode_lines", recorded("lines", trace._decode_lines)):
        yield paths


def _decoded_three_ways(text: str, block: int, validate: bool):
    """(decoder outcome, the path of each block, outcome with the
    fixed-layout check never passing, outcome of the per-line helper over
    all lines)."""
    with mock.patch.object(trace, "_DECODE_BLOCK", block):
        with _block_paths() as paths:
            outcome = _outcome(text, validate)
        no_fixed = mock.patch.object(BlockParser, "_fixed_lines", return_value=None)
        with no_fixed, _block_paths() as unfixed:
            general = _outcome(text, validate)
        assert "fixed" not in unfixed
        with mock.patch.object(BlockParser, "parse", return_value=None):
            reference = _outcome(text, validate)
    return outcome, paths, general, reference


def _fixed_layout_paths(text: str, block: int) -> list[str]:
    """The path each block of a log should take: "fixed" where every copy
    of the block carries ``Td`` and ``Ta`` and no trace, else "general"."""
    body = io.StringIO(text)
    m = len(json.loads(body.readline())["channels"])
    return [
        "fixed" if chunk.count('"Td":') == chunk.count('"Ta":') == m * chunk.count("\n")
        and '"trace":' not in chunk else "general"
        for chunk in line_blocks(body, block)
    ]


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
            outcome, paths, general, reference = _decoded_three_ways(text, 3000, validate)
            assert outcome == general == reference
            assert ("lines" not in paths) == canonical

    @pytest.mark.parametrize(
        "edit, choice",
        [("number", c) for c in range(len(_NUMBERS))]
        + [(edit, c) for edit in sorted(LINE_EDITS) if edit != "number" for c in (0, 1)],
    )
    def test_adapter_edits_decode_three_ways_alike(self, edit, choice, adapter_run):
        buf = io.StringIO()
        encode_log(adapter_run, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        text, canonical = LINE_EDITS[edit](lines, 1 + choice * 57, choice)
        for validate in (False, True):
            outcome, paths, general, reference = _decoded_three_ways(text, 3000, validate)
            assert outcome == general == reference
            assert ("lines" not in paths) == canonical
            # no copy is lost, so every block in the layout has the fixed one
            assert "general" not in paths
            assert set(paths) == {"fixed"} or not canonical

    @settings(max_examples=300, deadline=None)
    @given(
        run=encodable_runs(),
        edit=st.sampled_from(sorted(LINE_EDITS)),
        line=st.integers(min_value=1),
        choice=st.integers(min_value=0, max_value=100),
        block=st.sampled_from((1, 200, 1 << 16)),
    )
    # the second number token of the line is the digit of the label "a:1"
    # unless the edit skips strings
    @example(run=_untraced_run(("a:1", "A", "B")), edit="number", line=1, choice=1, block=1)
    def test_random_logs_decode_as_line_by_line(self, run, edit, line, choice, block):
        buf = io.StringIO()
        encode_log(run, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        text, canonical = LINE_EDITS[edit](lines, 1 + line % (len(lines) - 1), choice)
        for validate in (False, True):
            outcome, paths, general, reference = _decoded_three_ways(text, block, validate)
            assert outcome == general == reference
            assert ("lines" not in paths) == canonical
        if text == buf.getvalue():
            assert _outcome(text, validate=False) == run

    @settings(max_examples=100, deadline=None)
    @given(run=encodable_runs(fixed_layout=True), block=st.sampled_from((1, 200, 1 << 16)))
    def test_random_fixed_layout_logs_take_the_fixed_path(self, run, block):
        text = _encoded(run, trace._ENCODE_BLOCK)
        outcome, paths, general, reference = _decoded_three_ways(text, block, validate=False)
        assert outcome == general == reference == run
        assert paths == ["fixed"] * len(paths) and paths

    @pytest.mark.parametrize("labels", [("1", "-2"), ("a:1", "[x]", "9-"), ('q"5', "]", "0:[")])
    def test_labels_and_values_the_number_scan_could_misread(self, labels):
        run = _fixed_layout_run(labels)
        text = _encoded(run, trace._ENCODE_BLOCK)
        assert str(10**18 - 1) in text and str(-(10**18 - 1)) in text
        for block in (1, 200, 1 << 16):
            outcome, paths, general, reference = _decoded_three_ways(text, block, False)
            assert outcome == general == reference == run
            assert paths == ["fixed"] * len(paths) and paths

    @pytest.mark.parametrize("block", [1000, 1 << 16])
    @pytest.mark.parametrize("name", ["adapter_run", "lossy_adapter"])
    def test_adapter_logs_decode_three_ways_alike(self, name, block, request):
        if name == "lossy_adapter":
            run = generate_run(lossy_config(300, seed=4, full_trace=False))
        else:
            run = request.getfixturevalue(name)
        text = _encoded(run, trace._ENCODE_BLOCK)
        for validate in (False, True):
            outcome, paths, general, reference = _decoded_three_ways(text, block, validate)
            assert outcome == general == reference == run
            assert paths == _fixed_layout_paths(text, block)
        if name == "adapter_run":
            assert set(paths) == {"fixed"}
        else:  # lost copies carry no final durations
            assert set(paths) == ({"fixed", "general"} if block == 1000 else {"general"})

    def test_lost_copy_mid_block_sends_only_its_block_to_the_grammar(self, adapter_run):
        lines = _encoded(adapter_run, trace._ENCODE_BLOCK).splitlines(keepends=True)
        blocks = list(line_blocks(io.StringIO("".join(lines[1:])), 1 << 16))
        assert len(blocks) >= 3
        k = 1 + blocks[0].count("\n") + blocks[1].count("\n") // 2  # mid-second block
        lines[k] = re.sub(r'"l":0(.*?),"Td":-?[0-9]+,"Ta":-?[0-9]+', r'"l":1\1', lines[k], count=1)
        assert lines[k].count('"Td"') == 1
        text = "".join(lines)
        for validate in (False, True):
            outcome, paths, general, reference = _decoded_three_ways(text, 1 << 16, validate)
            assert outcome == general == reference
            assert paths == ["fixed", "general"] + ["fixed"] * (len(blocks) - 2)

    @pytest.mark.parametrize("name", ["adapter_run", "traced_run"])
    def test_lost_copy_that_carries_ta_is_refused_alike(self, name, request):
        """Packet 40's copy on B, delivered, is marked lost and keeps its
        ``Td`` and ``Ta``: the log decodes, and validation refuses the copy
        in either view with one message, whichever decoder reads its block.
        The adapter-view copy used to validate."""
        lines = _encoded(request.getfixturevalue(name), trace._ENCODE_BLOCK).splitlines(True)
        assert lines[40].count('"ch":"B","l":0,') == 1 and '"Ta"' in lines[40]
        lines[40] = lines[40].replace('"ch":"B","l":0,', '"ch":"B","l":1,')
        text = "".join(lines)
        for validate in (False, True):
            outcome, paths, general, reference = _decoded_three_ways(text, 3000, validate)
            assert outcome == general == reference
            assert paths == _fixed_layout_paths(text, 3000)
        assert outcome == ("packet 40, channel B: lost copies carry no ACK duration", None)

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


    @pytest.mark.parametrize("block", [1, 200, 1 << 16])
    def test_key_letter_labels_decode_as_line_by_line(self, block):
        run = _key_letter_run()
        text = encode_log_spec(run)
        outcome, paths, general, reference = _decoded_three_ways(text, block, validate=False)
        assert "lines" not in paths
        assert outcome == general == reference == run

    @pytest.mark.parametrize("block", [200, 1 << 16])
    def test_malformed_line_after_canonical_blocks_names_its_line(self, traced_run, block):
        buf = io.StringIO()
        encode_log(traced_run, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        lines[700] = lines[700][:-2] + "\n"  # line 701 loses its closing brace
        with mock.patch.object(trace, "_DECODE_BLOCK", block):
            with mock.patch.object(trace, "_decode_lines", wraps=trace._decode_lines) as per_line:
                with pytest.raises(LogFormatError) as exc:
                    decode_log(io.StringIO("".join(lines)))
        assert exc.value.record_index == 701
        assert per_line.call_count == 1  # the blocks before it were canonical

    @pytest.mark.parametrize("blank", [False, True])
    @pytest.mark.parametrize("block", [200, 1 << 16])
    def test_malformed_line_after_a_line_by_line_block_names_its_line(
        self, traced_run, block, blank
    ):
        """Lines are counted the same way after a block decoded line by line
        as after a canonical one, blank lines included."""
        buf = io.StringIO()
        encode_log(traced_run, buf)
        lines = buf.getvalue().splitlines(keepends=True)
        lines[1] = lines[1].replace('"i":', '"i": ', 1)  # valid JSON, not the layout
        lines[700] = lines[700][:-2] + "\n"  # line 701 loses its closing brace
        lines[2:2] = ["\n"] * blank  # a blank line 3 makes the malformed line 702
        assert len("".join(lines[1:700])) > 2 * block  # which is not in the first block
        with mock.patch.object(trace, "_DECODE_BLOCK", block):
            with mock.patch.object(trace, "_decode_lines", wraps=trace._decode_lines) as per_line:
                with pytest.raises(LogFormatError) as exc:
                    decode_log(io.StringIO("".join(lines)))
        assert exc.value.record_index == 701 + blank
        # the first block and the malformed line's; at 200 characters the
        # first block is line 2 alone, so the blank line's block is a third
        assert per_line.call_count == 2 + (blank and block == 200)


def _slots(text: str) -> list[re.Match]:
    """The number tokens after a ':' (some inside labels)."""
    return list(re.finditer(r"(?<=:)-?[0-9]+", text))


def _spliced(text: str, start: int, stop: int, new: str) -> str:
    return text[:start] + new + text[stop:]


def _at_slot(new):
    """An edit that replaces a drawn number token by ``new(token)``."""

    def edit(text, draw):
        slot = draw(st.sampled_from(_slots(text)))
        return _spliced(text, slot.start(), slot.end(), new(slot.group()))

    return edit


def _inserted(piece):
    """An edit that inserts ``piece`` (a string, or a strategy) at a drawn
    position."""

    def edit(text, draw):
        at = draw(st.integers(0, len(text)))
        return _spliced(text, at, at, piece if isinstance(piece, str) else draw(piece))

    return edit


def _digit_removed(text, draw):
    at = draw(st.sampled_from([k for k, c in enumerate(text) if c.isdigit()]))
    return _spliced(text, at, at + 1, "")


def _number_moved(text, draw):
    """A number token cut out of its slot and put back at a drawn position:
    as many tokens and digits as before."""
    slot = draw(st.sampled_from(_slots(text)))
    text = _spliced(text, slot.start(), slot.end(), "")
    at = draw(st.integers(0, len(text)))
    return _spliced(text, at, at, slot.group())


def _duration_zeroed(text, draw):
    slot = draw(st.sampled_from(list(re.finditer(r'(?<="T[da]":)[0-9]+', text))))
    return _spliced(text, slot.start(), slot.end(), "0")


def _newline_dropped(text, draw):
    at = draw(st.sampled_from([k for k, c in enumerate(text) if c == "\n"]))
    return _spliced(text, at, at + 1, "")


def _labels_swapped(text, draw):
    """The first two copies of a drawn line with their labels exchanged: each
    label still opens one copy per line."""
    lines = text.splitlines(keepends=True)
    k = draw(st.integers(0, len(lines) - 1))
    heads = list(re.finditer(r'\{"ch":("(?:[^"\\]|\\.)*"),', lines[k]))
    a, b = heads[0], heads[1]
    line = lines[k]
    lines[k] = "".join(
        (line[: a.start(1)], b.group(1), line[a.end(1) : b.start(1)], a.group(1), line[b.end(1) :])
    )
    return "".join(lines)


_BLOCK_EDITS = {
    "none": lambda text, draw: text,
    "digit-in": _inserted(st.sampled_from("0123456789")),
    "digit-out": _digit_removed,
    "leading-zero": _at_slot(lambda t: t.replace("-", "-0") if t[0] == "-" else "0" + t),
    "minus": _at_slot(lambda t: "-" + t),
    "minus-zero": _at_slot(lambda t: "-0"),
    "double-minus": _at_slot(lambda t: "--" + t),
    "lone-minus": _inserted("-"),
    "minus-at-end": lambda text, draw: text + "-",
    "empty-slot": _at_slot(lambda t: ""),
    "moved-number": _number_moved,
    "19-digits": _at_slot(lambda t: str(10**18)),
    "20-digits": _at_slot(lambda t: "-" + "9" * 20),
    "2^63": _at_slot(lambda t: str(1 << 63)),
    "-2^63": _at_slot(lambda t: str(-(1 << 63))),
    "duration-zero": _duration_zeroed,
    "newline-dropped": _newline_dropped,
    "nul": _inserted("\0"),
    "non-ascii": _inserted("é"),
    "labels-swapped": _labels_swapped,
}


def _parsed(labels, text: str):
    """(rows, path) of ``text`` by a BlockParser for ``labels``; the path is
    "fixed", "general" or None (neither: line by line)."""
    with _block_paths() as paths:
        rows = BlockParser(labels).parse(text)
    return rows, paths[0] if paths else None


def _check_agrees_with_spec(labels, text: str) -> bool:
    """Whether ``text`` takes the fixed path, after asserting that it does iff
    it matches the fixed-layout grammar, and that its rows are then those of
    the general grammar's parse."""
    rows, path = _parsed(labels, text)
    fixed = fixed_layout_spec(labels).fullmatch(text) is not None
    assert (path == "fixed") == fixed
    if fixed:
        with mock.patch.object(BlockParser, "_fixed_lines", return_value=None):
            general, path = _parsed(labels, text)
        assert path == "general"
        for ours, theirs in zip(rows, general, strict=True):
            assert ours.dtype == theirs.dtype and np.array_equal(ours, theirs)
    return fixed


class TestFixedLayoutCheck:
    """A block takes the fixed path iff it matches the fixed-layout grammar
    (``helpers.fixed_layout_spec``), which the check replaced."""

    @settings(max_examples=400, deadline=None)
    @given(
        run=encodable_runs(fixed_layout=True),
        edit=st.sampled_from(sorted(_BLOCK_EDITS)),
        data=st.data(),
    )
    def test_edited_blocks_take_the_fixed_path_iff_the_grammar_matches(self, run, edit, data):
        labels = [channel.label for channel in run.channels]
        text = encode_log_spec(run).split("\n", 1)[1]
        assert _check_agrees_with_spec(labels, text)
        edited = _BLOCK_EDITS[edit](text, lambda strategy: data.draw(strategy, label=edit))
        fixed = _check_agrees_with_spec(labels, edited)
        if edit == "none":
            assert fixed

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"l":0,', '"l":-,'),  # np.fromstring reads a lone '-' as 0
            ('"i":1,', '"i":1-,'),
            ('"l":0,', '"l":0-0,'),  # which it refuses with an error
            ('"l":0,', '"l":--0,'),
            ('"t_T":0,', '"t_T"-:0,'),  # and joins a '-' to the next token
            ('"copies":', '"copies":-'),
        ],
    )
    def test_minus_signs_np_fromstring_would_misread(self, old, new, adapter_run):
        text = encode_log_spec(adapter_run).split("\n", 1)[1]
        assert old in text
        assert not _check_agrees_with_spec(("A", "B"), text.replace(old, new, 1))

    def test_minus_at_the_end(self, adapter_run):
        text = encode_log_spec(adapter_run).split("\n", 1)[1]
        assert not _check_agrees_with_spec(("A", "B"), text + "-")

    @pytest.mark.parametrize(
        "old, new",
        [
            ('"copies"', '"cop7ies"'),  # a digit between two numbers' separators
            ('"t_T"', '"t_7T"'),
            ('"ch":"A"', '"ch":"A7"'),
            ('"l":0,"t_T"', '"l":,"t_T7"'),  # and an empty number beside it
            ('"ch":"A","l":0,', '"ch":"A0","l":,'),
            ('"i":1,"copies"', '"i":,"cop1ies"'),
        ],
    )
    def test_digits_outside_numbers(self, old, new, adapter_run):
        """The same tokens and digits as the block, in the wrong places."""
        text = encode_log_spec(adapter_run).split("\n", 1)[1]
        assert old in text
        assert not _check_agrees_with_spec(("A", "B"), text.replace(old, new, 1))

    @pytest.mark.parametrize(
        "number, fixed",
        [("-0", True), ("0", True), ("00", False), ("-00", False), ("05", False),
         (str(10**18 - 1), True), (str(-(10**18 - 1)), True), (str(10**18), False),
         (str(1 << 63), False), (str(-(1 << 63)), False), ("9" * 25, False)],
    )
    def test_number_forms(self, number, fixed, adapter_run):
        text = encode_log_spec(adapter_run).split("\n", 1)[1]
        text = text.replace('"l":0,', f'"l":{number},', 1)
        assert _check_agrees_with_spec(("A", "B"), text) == fixed

    @pytest.mark.parametrize("labels", [("1", "-2"), ("a:1", "[x]", "9-")])
    def test_swapped_disturbing_labels(self, labels):
        """Such labels are cut out before the check, each to a mark of its
        own: a block whose lines open their copies with other labels, each
        label still once per line, is not in the layout."""
        text = _encoded(_fixed_layout_run(labels), trace._ENCODE_BLOCK).split("\n", 1)[1]
        assert _check_agrees_with_spec(labels, text)
        lines = text.splitlines(keepends=True)
        first, second = (json.dumps(label) for label in labels[:2])
        lines[1] = lines[1].replace(first, "\0").replace(second, first).replace("\0", second)
        assert not _check_agrees_with_spec(labels, "".join(lines))
        lines[2] = lines[2].replace(first, "\0").replace(second, first).replace("\0", second)
        assert not _check_agrees_with_spec(labels, "".join(lines))

    def test_other_layouts_stop_at_the_first_line(self, traced_run):
        """A block out of the fixed layout is refused before any pass over
        the whole block."""
        text = encode_log_spec(traced_run).split("\n", 1)[1]
        passes = []

        class Block(bytes):
            def translate(self, *args):
                passes.append("translate")
                return super().translate(*args)

        data = Block(text.encode("ascii"))
        assert BlockParser(("A", "B"))._fixed_lines(data) is None
        assert passes == []


_MALFORMED_EDITS = {
    "Td": (lambda c: c.update(Td=0), "field 'Td' must be positive"),
    "Ta": (lambda c: c.update(Ta=-1), "field 'Ta' must be positive"),
    # the example of a line that used to decode and validate
    "trace-Td": (lambda c: c["trace"][0].update(Td=-5, Ta=0), "trace field 'Td' must be positive"),
    "trace-Ta": (lambda c: c["trace"][-1].update(Ta=0), "trace field 'Ta' must be positive"),
    "empty-trace": (lambda c: c.update(trace=[]), "'trace' must not be empty"),
}


class TestMalformedDurations:
    """A frame duration that a line carries is a positive int64 and a trace
    holds at least one entry, since a run stores 0 and no rows for what a
    copy does not carry. A line that breaks either rule leaves the block
    grammars and raises the same error, naming its record, on all three
    decoder paths. Such lines used to decode: a trace entry's ``Td`` and
    ``Ta`` were never checked, and a copy's ``Td`` of 0 failed validation
    only."""

    @pytest.mark.parametrize(
        "name, edit",
        [("traced_run", edit) for edit in _MALFORMED_EDITS]
        + [("adapter_run", edit) for edit in ("Td", "Ta", "empty-trace")],
    )
    def test_line_names_its_record(self, name, edit, request):
        lines = encode_log_spec(request.getfixturevalue(name)).splitlines(keepends=True)
        change, message = _MALFORMED_EDITS[edit]
        record = json.loads(lines[2])
        change(record["copies"][1])
        lines[2] = json.dumps(record, separators=(",", ":")) + "\n"
        for block in (1, 1 << 16):
            for validate in (False, True):
                outcome, paths, general, reference = _decoded_three_ways(
                    "".join(lines), block, validate
                )
                assert outcome == general == reference == (f"record 3: {message}", 3)
                assert "lines" in paths

    @settings(max_examples=100, deadline=None)
    @given(
        run=st.booleans().flatmap(lambda fixed: encodable_runs(fixed_layout=fixed)),
        value=NONPOSITIVE_DURATIONS,
        block=st.sampled_from((1, 200, 1 << 16)),
        data=st.data(),
    )
    def test_random_lines_name_their_record(self, run, value, block, data):
        """A non-positive ``Td`` or ``Ta`` of a copy or a trace entry, or an
        empty trace, in one line of a log in the encoder's layout."""
        lines = encode_log_spec(run).splitlines(keepends=True)
        k = data.draw(st.integers(min_value=1, max_value=len(lines) - 1), label="line")
        record = json.loads(lines[k])
        slots = []  # (object, key, message) of each field the edit may set
        for copy in record["copies"]:
            entries = copy.get("trace", [])
            slots += [(copy, key, "field") for key in ("Td", "Ta") if key in copy]
            slots += [(e, key, "trace field") for e in entries for key in ("Td", "Ta") if key in e]
            slots.append((copy, "trace", None))
        target, key, what = data.draw(st.sampled_from(slots), label="slot")
        target[key] = value if what else []
        message = f"{what} {key!r} must be positive" if what else "'trace' must not be empty"
        lines[k] = json.dumps(record, separators=(",", ":")) + "\n"
        for validate in (False, True):
            outcome, paths, general, reference = _decoded_three_ways(
                "".join(lines), block, validate
            )
            assert outcome == general == reference == (f"record {k + 1}: {message}", k + 1)


_OUTCOME_MESSAGE = "an attempt carries an ACK duration iff it succeeded"


class TestAttemptOutcome:
    """An attempt succeeded iff it carries an ACK duration, so a trace
    entry's ``ok`` is nonzero iff the entry carries ``Ta``. A line that
    breaks this leaves the block grammar, which takes only ``"ok":0``
    without ``Ta`` and ``"Ta":P,"ok":1``, and fails naming its record on
    all three decoder paths; any other nonzero ``ok`` beside ``Ta``
    decodes as 1 does."""

    @pytest.mark.parametrize(
        "edit, decodes",
        [
            (lambda failed, success: failed.update(ok=1), False),
            (lambda failed, success: failed.update(ok=-3), False),
            (lambda failed, success: failed.update(Ta=24_000), False),
            (lambda failed, success: success.update(ok=0), False),
            (lambda failed, success: success.pop("Ta"), False),
            (lambda failed, success: success.update(ok=2), True),
        ],
        ids=["failed-ok-1", "failed-ok-neg", "failed-Ta", "success-ok-0", "success-no-Ta",
             "success-ok-2"],
    )
    def test_line_names_its_record(self, edit, decodes, traced_run):
        lines = encode_log_spec(traced_run).splitlines(keepends=True)
        k = next(k for k, line in enumerate(lines) if k and '"ok":0' in line)
        record = json.loads(lines[k])
        entries = [e for c in record["copies"] for e in c.get("trace", ())]
        edit(next(e for e in entries if e["ok"] == 0), next(e for e in entries if e["ok"] == 1))
        lines[k] = json.dumps(record, separators=(",", ":")) + "\n"
        expected = traced_run if decodes else (f"record {k + 1}: {_OUTCOME_MESSAGE}", k + 1)
        for block in (1, 1 << 16):
            for validate in (False, True):
                outcome, paths, general, reference = _decoded_three_ways(
                    "".join(lines), block, validate
                )
                assert outcome == general == reference == expected
                assert "lines" in paths

    @settings(max_examples=50, deadline=None)
    @given(
        run=encodable_runs(),
        ok=st.integers(min_value=-2, max_value=2),
        block=st.sampled_from((1, 200, 1 << 16)),
        data=st.data(),
    )
    def test_random_entries_name_their_record(self, run, ok, block, data):
        """Any ``ok`` in one trace entry of a log in the encoder's layout."""
        text = encode_log_spec(run)
        lines = text.splitlines(keepends=True)
        records = [json.loads(line) for line in lines]
        entries = [
            (k, e) for k in range(1, len(lines))
            for c in records[k]["copies"] for e in c.get("trace", ())
        ]
        if not entries:
            return
        k, entry = data.draw(st.sampled_from(entries), label="entry")
        entry["ok"] = ok
        lines[k] = json.dumps(records[k], separators=(",", ":")) + "\n"
        for validate in (False, True):
            expected = _outcome(text, validate)
            if (ok != 0) != ("Ta" in entry):
                expected = (f"record {k + 1}: {_OUTCOME_MESSAGE}", k + 1)
            outcome, paths, general, reference = _decoded_three_ways(
                "".join(lines), block, validate
            )
            assert outcome == general == reference == expected


class TestRealDeferral:
    """ROADMAP items 3(b) and 3(d) over the config space."""

    @settings(max_examples=20, deadline=None)
    @given(config=sim_configs(), data=st.data())
    def test_deferred_run_shifts_only_requests_and_round_trips(self, config, data):
        """3(b): a really-deferred run has its base run's loss flags,
        attempt counts and final durations; the undeferred channel is
        bit-identical, and the deferred channel's requests trail by |T_D|.
        3(d): both runs, in both views, decode to themselves without a
        block falling to the line decoder, and a block takes the fixed
        path iff every copy in it carries both durations and no trace."""
        period = config.period_ns
        deferral = config.deferral_ns or data.draw(
            st.integers(min_value=1 - period, max_value=period - 1).filter(bool), label="T_D"
        )
        block = data.draw(st.sampled_from((1000, 1 << 16)), label="block")
        j = 1 if deferral > 0 else 0  # the deferred channel
        for full_trace in (True, False):
            # one family per run, so that each run simulates both channels;
            # a family's base run hands out its channels' columns
            families = [
                RunFamily(replace(config, deferral_ns=d, emit_full_trace=full_trace))
                for d in (0, deferral)
            ]
            base, deferred = (generate_run(f.base_config, f) for f in families)
            for name in ("lost", "attempts", "td", "ta"):
                assert np.array_equal(getattr(deferred, name), getattr(base, name))
            assert np.array_equal(deferred.req[j], base.req[j] + abs(deferral))
            undeferred = (f._reused(f.base_config)[1 - j] for f in reversed(families))
            for ours, theirs in zip(*undeferred):
                assert (ours is None) == (theirs is None)
                for name in ours or ():
                    assert np.array_equal(ours[name], theirs[name])
                    assert ours[name].dtype == theirs[name].dtype
            for run in (base, deferred):
                text = _encoded(run, trace._ENCODE_BLOCK)
                with mock.patch.object(trace, "_DECODE_BLOCK", block), _block_paths() as paths:
                    assert decode_log(io.StringIO(text)) == run
                assert paths == _fixed_layout_paths(text, block)


def _run_bytes(run: RunLog) -> int:
    arrays = [run.index, *(getattr(run, name) for name in trace.COPY_COLUMNS)]
    if run.trace is not None:
        arrays += [getattr(run.trace, f.name) for f in fields(run.trace)]
    return sum(a.nbytes for a in arrays)


class TestEncodeMemory:
    def test_transient_is_a_few_blocks_of_text(self, tmp_path):
        """``write_log`` formats ``_ENCODE_BLOCK`` packets at a time, so
        beside the run it allocates a few times the largest block's text:
        the block's byte matrix, the matrix without its NULs and the text.
        With a row per copy, which also holds the copy's first trace entry,
        a traced run allocates 5.6x that text here; a row per copy and per
        trace entry allocated 7.5x, and formatting the whole run at once
        would allocate such a multiple of the whole log."""
        run = generate_run(desk_config(3 * trace._ENCODE_BLOCK + 500, seed=5, full_trace=True))
        path = tmp_path / "run.jsonl"
        write_log(run, path)  # one-time allocations out of the way
        lines = path.read_text().splitlines(keepends=True)[1:]
        step = trace._ENCODE_BLOCK
        block = max(len("".join(lines[lo : lo + step])) for lo in range(0, len(lines), step))
        del lines
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            write_log(run, path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before <= 6.5 * block


class TestLineBlocks:
    @pytest.mark.parametrize("size", [1, 2, 3, 5, 1 << 18])
    @pytest.mark.parametrize(
        "text",
        ["", "a\nbb\nccc", "\n\na\n\n\nbcd\n\n", "a\n" + "z" * ((1 << 18) + 5) + "\nbb\nc\n"],
        ids=["empty", "no-final-newline", "blank-lines", "long-line"],
    )
    def test_blocks_are_whole_lines(self, text, size):
        """The blocks join to the input and each ends at a line end, except
        perhaps the last; past its first ``size`` characters a block holds
        only the rest of one line."""
        blocks = list(line_blocks(io.StringIO(text), size))
        assert "".join(blocks) == text
        assert all(blocks) and all(block.endswith("\n") for block in blocks[:-1])
        assert [line for block in blocks for line in block.splitlines(keepends=True)] == (
            text.splitlines(keepends=True)
        )
        assert all("\n" not in block[size:-1] for block in blocks)

    def test_reader_keeps_one_block(self, traced_run, tmp_path):
        """Between blocks the reader keeps about the block it yielded:
        reading a chunk and then the rest of its last line holds nothing
        else. Cutting each chunk at its last newline and carrying the tail
        held 3x the block, from a file as :func:`read_log` reads it."""
        lines = _encoded(traced_run, trace._ENCODE_BLOCK).splitlines(keepends=True)
        path = tmp_path / "run.jsonl"
        path.write_text("".join(lines[1:]) * 4)  # more than three blocks
        with open(path, encoding="utf-8", errors="surrogateescape") as source:
            blocks = line_blocks(source, trace._DECODE_BLOCK)
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                next(blocks)
                block = next(blocks)
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
        assert len(block) > trace._DECODE_BLOCK
        assert held <= 1.5 * len(block)


class TestDecodeMemory:
    def test_peak_grows_only_by_the_run(self, tmp_path):
        """Packet lines are parsed a block at a time, so 4x the packets
        raise the peak of ``read_log`` by the larger run and what is held
        beside it, not by the log's text. Blocks of 2^14 characters keep
        the text's share small at these sizes. The attempt columns grow per
        channel straight from the blocks, and validation holds about a third
        of the run beside it, so the growth is about 1.3x the run's in both
        views; the margin allows 1.5x. Collecting the raw attempt rows
        first and validating with whole-run temporaries grew the peak by
        1.85x with traces. Reading a whole log at once grew it by 5.8x
        (adapter) and 5.0x (traced), at the decoder's usual block size.
        The decode is pinned to one process, whose peak this bounds; the
        16000-packet traced log is larger than ``_FORK_BYTES``."""

        def peak_and_run(n, full_trace):
            path = tmp_path / f"{n}-{full_trace}.jsonl"
            write_log(generate_run(desk_config(n, seed=5, full_trace=full_trace)), path)
            tracemalloc.start()
            try:
                with (
                    mock.patch.object(trace, "_DECODE_BLOCK", 1 << 14),
                    mock.patch.object(trace, "_FORK_BYTES", 1 << 62),
                ):
                    run = read_log(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            return peak, _run_bytes(run)

        for full_trace in (False, True):
            peak_and_run(100, full_trace)  # one-time allocations out of the way
            # both logs span several blocks
            (peak, size), (peak_4n, size_4n) = (
                peak_and_run(n, full_trace) for n in (4000, 16000)
            )
            assert peak_4n - peak <= 1.5 * (size_4n - size)

    def test_a_split_read_peaks_no_higher_than_a_serial_one(self, tmp_path):
        """The parent of a split read loads the child's blocks one at a time,
        each smaller than the text and parse transients of a block of its
        own half, so its peak is at most the serial read's. Sending the
        child's half as one pickle through a pipe made the parent hold the
        pickle and its unpickled copy at once (``ru_maxrss`` 61.5 against
        54.6 MB on the benchmark's traced log)."""
        path = tmp_path / "run.jsonl"
        write_log(generate_run(desk_config(16000, seed=5, full_trace=True)), path)
        assert path.stat().st_size > trace._FORK_BYTES

        def peak(fork_bytes):
            tracemalloc.start()
            try:
                with (
                    mock.patch.object(trace, "_FORK_BYTES", fork_bytes),
                    mock.patch.object(trace, "_forked", wraps=trace._forked) as forked,
                ):
                    read_log(path)
                return tracemalloc.get_traced_memory()[1], forked.call_count
            finally:
                tracemalloc.stop()

        peak(trace._FORK_BYTES), peak(1 << 62)  # one-time allocations out of the way
        (split, forks), (serial, no_forks) = peak(trace._FORK_BYTES), peak(1 << 62)
        assert (forks, no_forks) == (1, 0)
        assert split <= serial

    def test_validation_holds_less_than_half_the_run_beside_it(self):
        """Each check's mask is reduced as soon as it is built and its
        operands are built just before it, so ``validate_run`` on a traced
        run allocates about a third of the run's bytes at its peak; the
        bound is half. Keeping every check's mask and the per-row copy
        index allocated the run's size again (0.99x here)."""
        run = generate_run(desk_config(4000, seed=5, full_trace=True))
        validate_run(run)  # one-time allocations out of the way
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            validate_run(run)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - before < 0.5 * _run_bytes(run)

    def test_first_capacity_is_bounded_by_the_file(self, traced_run, tmp_path):
        """From a file, the decoder makes room for the header's count at
        once, but for no more packets than the bytes after the header hold
        lines of one-digit numbers, and for no fewer lines than it holds; a
        stream of unknown size gets ``_FIRST_CAPACITY`` at most."""
        lines = _encoded(traced_run, trace._ENCODE_BLOCK).splitlines(keepends=True)
        header = json.loads(lines[0])
        copies = ",".join(
            '{"ch":%s,"l":0,"t_T":0,"t_X":0,"w":0}' % json.dumps(c.label)
            for c in traced_run.channels
        )
        shortest = '{"i":1,"copies":[%s]}\n' % copies
        n, path = header["n"], tmp_path / "run.jsonl"
        for claimed, packet_lines, fits in [
            (n, lines[1:], n),
            (3, lines[1:], 3),
            (10**15, lines[1:], len("".join(lines[1:])) // (len(shortest) - 1)),
            (10**15, [shortest] * 5, 5),
            (10**15, [], 0),
        ]:
            header["n"] = claimed
            first = json.dumps(header) + "\n"
            path.write_text(first + "".join(packet_lines))
            meta = trace._decode_meta(first)
            with open(path) as source:
                assert trace._first_capacity(source, source.readline(), meta) == fits
            source = io.StringIO(first + "".join(packet_lines))
            assert trace._first_capacity(source, source.readline(), meta) == min(
                claimed, trace._FIRST_CAPACITY
            )

    def test_growth_stops_at_the_header_count(self):
        """From a stream the columns grow by doubling, but no further than
        the header's count while the packets decoded fit in it: 100 packets
        of room become 200, then 300, not 400. Without the cap a 10^6-packet
        log read from a stream grows to 2^20 packets and is copied once more
        at the end."""
        run = generate_run(desk_config(300, seed=5, full_trace=False))
        text = _encoded(run, trace._ENCODE_BLOCK)
        with (
            mock.patch.object(trace, "_FIRST_CAPACITY", 100),
            mock.patch.object(trace, "_DECODE_BLOCK", 1 << 12),  # blocks of about 30 packets
            mock.patch.object(trace, "_extended", wraps=trace._extended) as extended,
        ):
            assert decode_log(io.StringIO(text)) == run
        # an adapter log has no attempt rows, so every growth is of the
        # packet columns
        assert {call.args[2] for call in extended.call_args_list} == {200, 300}

    def test_a_right_header_allocates_the_copy_columns_once(self, traced_run, tmp_path):
        """A file whose header count is right is decoded into columns sized
        once, whatever ``_FIRST_CAPACITY`` is; with a count that is too
        large, the columns the run keeps are trimmed copies."""
        path = tmp_path / "run.jsonl"
        write_log(traced_run, path)
        grown = []

        def extended(a, count, size):
            grown.append(a.dtype)
            return extend(a, count, size)

        extend = trace._extended
        with mock.patch.object(trace, "_FIRST_CAPACITY", 5), mock.patch.object(
            trace, "_extended", extended
        ):
            assert read_log(path) == traced_run
        assert bool not in grown  # the loss flags, one of the copy columns


_EDIT_CASES = [("number", c) for c in range(len(_NUMBERS))] + [
    (edit, c) for edit in sorted(LINE_EDITS) if edit != "number" for c in (0, 1)
]


def _read(path, validate: bool = True, split: bool = True):
    """(outcome of ``read_log``, as ``_outcome`` gives it, and the number of
    children it forked), with the split allowed at any size or never.
    Blocks of 3000 characters make each half of a small log several
    blocks."""
    with (
        mock.patch.object(trace, "_FORK_BYTES", 0 if split else 1 << 62),
        mock.patch.object(trace, "_DECODE_BLOCK", 3000),
        mock.patch.object(trace, "_forked", wraps=trace._forked) as forked,
    ):
        try:
            outcome = read_log(path, validate=validate)
        except LogFormatError as exc:
            outcome = str(exc), exc.record_index
    return outcome, forked.call_count


@contextmanager
def _in_the_child(before, owner=BlockParser, name="parse"):
    """``owner.name``, ``BlockParser.parse`` unless given, calls ``before()``
    first in a forked child, and only does its own work in this process."""
    parent, method = os.getpid(), getattr(owner, name)

    def child_method(self, *args):
        if os.getpid() != parent:
            before()
        return method(self, *args)

    with mock.patch.object(owner, name, child_method):
        yield


class TestSplitDecode:
    """``read_log`` parses a large file's packet lines on two processes, a
    forked child taking the half after the first newline past the byte
    middle; the outcome is the serial decode's, error and line included."""

    @pytest.mark.parametrize("name", ["traced_run", "adapter_run"])
    def test_round_trips_in_both_views(self, name, request, tmp_path):
        """Each half is whole lines, so no block of an encoded log, the
        child's included, is decoded line by line: those are decoded here."""
        run = request.getfixturevalue(name)
        path = tmp_path / "run.jsonl"
        write_log(run, path)
        per_line = AssertionError("a canonical log was decoded line by line")
        with mock.patch.object(trace, "_decode_lines", side_effect=per_line):
            assert _read(path) == (run, 1)
            assert _read(path, split=False) == (run, 0)

    @pytest.mark.parametrize("edit, choice", _EDIT_CASES)
    def test_edited_logs_read_split_as_serially(self, edit, choice, traced_run, tmp_path):
        """The edits of ``_decoded_three_ways``, on a line of the first half
        and on one of the second, written to a file."""
        lines = _encoded(traced_run, trace._ENCODE_BLOCK).splitlines(keepends=True)
        path = tmp_path / "run.jsonl"
        for k in (1 + choice * 57, len(lines) - 1 - choice * 57):
            text, _ = LINE_EDITS[edit](list(lines), k, choice)
            path.write_bytes(text.encode())
            for validate in (False, True):
                serial, _ = _read(path, validate, split=False)
                assert _read(path, validate) == (serial, 1)

    @pytest.mark.parametrize("newline", [b"\n", b"\r\n", b"\r"])
    def test_line_endings_and_non_utf8_bytes_in_either_half(self, newline, adapter_run, tmp_path):
        """A cut after a newline byte never splits a CRLF or a UTF-8
        sequence; a file without a newline byte is not split."""
        path = tmp_path / "run.jsonl"
        write_log(adapter_run, path)
        lines = path.read_bytes().split(b"\n")[:-1]
        forks = int(b"\n" in newline)
        path.write_bytes(b"".join(line + newline for line in lines))
        assert _read(path) == (adapter_run, forks)
        for k in (3, len(lines) - 3):
            edited = list(lines)
            edited[k] = edited[k][:40] + b"\xff" + edited[k][41:]
            path.write_bytes(b"".join(line + newline for line in edited))
            serial, _ = _read(path, split=False)
            assert serial == ("record %d: byte 0xff at column 41 is not valid UTF-8" % (k + 1), k + 1)
            assert _read(path) == (serial, forks)

    def test_the_first_format_error_in_file_order_wins(self, traced_run, tmp_path):
        """With an error in each half, the first half's is raised; with one in
        the second half only, at its own line number."""
        lines = _encoded(traced_run, trace._ENCODE_BLOCK).splitlines(keepends=True)
        path = tmp_path / "run.jsonl"
        late = len(lines) - 5
        for early in (5, None):
            edited = list(lines)
            edited[late] = "{" + edited[late]
            if early is not None:
                edited[early] = edited[early].replace('"copies"', '"copy"')
            path.write_text("".join(edited))
            outcome, forks = _read(path)
            assert forks == 1 and outcome == _read(path, split=False)[0]
            assert outcome[1] == (late if early is None else early) + 1

    def test_a_failed_childs_half_is_parsed_by_the_parent(self, traced_run, tmp_path):
        lines = _encoded(traced_run, trace._ENCODE_BLOCK).splitlines(keepends=True)
        path = tmp_path / "run.jsonl"
        path.write_text("".join(lines))
        late = list(lines)
        late[-3] = late[-3].replace('"copies"', '"copy"')

        def fail():
            raise MemoryError

        with _in_the_child(fail):
            assert _read(path) == (traced_run, 1)
            path.write_text("".join(late))
            assert _read(path) == (_read(path, split=False)[0], 1)
            assert _read(path)[0][1] == len(lines) - 2

    @pytest.mark.parametrize(
        "module, name, code",
        [(os, "fork", errno.EAGAIN), (tempfile, "TemporaryFile", errno.ENOSPC)],
        ids=["fork-EAGAIN", "spill-ENOSPC"],
    )
    def test_no_child_or_spill_file_decodes_serially(
        self, module, name, code, traced_run, tmp_path
    ):
        """A fork or a temp file that fails leaves no child: the file is
        decoded here from the start of its packet lines, with no half read
        apart, and an error in the second half is the serial one."""
        lines = _encoded(traced_run, trace._ENCODE_BLOCK).splitlines(keepends=True)
        late = list(lines)
        late[-3] = late[-3].replace('"copies"', '"copy"')
        path = tmp_path / "run.jsonl"
        for text in lines, late:
            path.write_text("".join(text))
            serial, _ = _read(path, split=False)
            with (
                mock.patch.object(module, name, side_effect=OSError(code, os.strerror(code))),
                mock.patch.object(os, "fork", wraps=os.fork) as fork,
                mock.patch.object(trace, "_ByteRange", side_effect=AssertionError("a half read")),
            ):
                assert _read(path)[0] == serial
            assert fork.call_count == (module is os)  # the failed fork, if any
        assert serial[1] == len(lines) - 2

    def test_without_fork_the_decode_is_serial(self, traced_run, tmp_path, monkeypatch):
        path = tmp_path / "run.jsonl"
        write_log(traced_run, path)
        monkeypatch.delattr(os, "fork")
        assert _read(path) == (traced_run, 0)

    def test_only_the_file_read_log_opens_is_split(self, adapter_run, tmp_path):
        """``decode_log`` decodes any source serially. A file opened with
        ``newline=""`` ends a line at a lone CR without translating it, and
        ``read_log`` alone knows how its file is read."""
        path = tmp_path / "run.jsonl"
        write_log(adapter_run, path)
        lines = path.read_bytes().split(b"\n")
        k = len(lines) - 5
        lines[k] = lines[k].replace(b'"w":', b'\r"w":')
        path.write_bytes(b"\n".join(lines))
        outcomes = []
        with (
            mock.patch.object(trace, "_FORK_BYTES", 0),
            mock.patch.object(trace, "_forked", wraps=trace._forked) as forked,
        ):
            for newline in ("", None):
                with open(path, newline=newline) as source:
                    try:
                        outcomes.append(decode_log(source))
                    except LogFormatError as exc:
                        outcomes.append((str(exc), exc.record_index))
            assert decode_log(io.StringIO(path.read_bytes().decode())) == adapter_run
        assert forked.call_count == 0
        # the CR inside a line is JSON whitespace, or it ends the line
        assert outcomes == [adapter_run, _read(path, split=False)[0]]
        assert outcomes[1][1] == k + 1

    def test_an_error_in_the_first_half_kills_and_reaps_the_child(self, traced_run, tmp_path):
        """The child sleeps before it parses, so only a kill ends it as the
        parent's error leaves ``read_log``; then no child is left to reap."""
        lines = _encoded(traced_run, trace._ENCODE_BLOCK).splitlines(keepends=True)
        lines[2] = "{" + lines[2]
        path = tmp_path / "run.jsonl"
        path.write_text("".join(lines))
        with (
            _in_the_child(lambda: time.sleep(5)),
            mock.patch.object(trace, "_FORK_BYTES", 0),
            _killed_child() as children,
            pytest.raises(LogFormatError, match="record 3: invalid JSON"),
        ):
            read_log(path)
        assert len(children) == 1


@contextmanager
def _killed_child():
    """The pids that ``os.fork`` returns in the body; once it has left, each
    must have been reaped once, killed by SIGKILL, and be gone."""
    pids, reaped = [], []
    fork, waitpid = os.fork, os.waitpid

    def forked():
        pids.append(fork())
        return pids[-1]

    def waited(pid, options):
        reaped.append(waitpid(pid, options))
        return reaped[-1]

    with mock.patch.object(os, "fork", forked), mock.patch.object(os, "waitpid", waited):
        yield pids
    assert [(p, os.WIFSIGNALED(s) and os.WTERMSIG(s)) for p, s in reaped] == [
        (pid, signal.SIGKILL) for pid in pids
    ]
    for pid in pids:
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)


def _written(run: RunLog, path, block: int, cut=None) -> tuple[bytes, int]:
    """(bytes that ``write_log`` writes, children it forked), with blocks of
    ``block`` packets, split at any size, at block ``cut`` if given."""
    with (
        mock.patch.object(trace, "_FORK_BYTES", 0),
        mock.patch.object(trace, "_ENCODE_BLOCK", block),
        mock.patch.object(trace, "_forked", wraps=trace._forked) as forked,
        mock.patch.object(
            trace, "_block_cut", (lambda sink, first, blocks: cut) if cut else trace._block_cut
        ),
    ):
        write_log(run, path)
    return path.read_bytes(), forked.call_count


class TestSplitEncode:
    """``write_log`` formats a large run's packet lines on two processes, a
    forked child taking the blocks after ``_block_cut`` into a temp file
    that is appended after the parent's; the bytes are the serial encode's."""

    @pytest.mark.parametrize("name", ["traced_run", "adapter_run", "key_letters"])
    def test_every_cut_writes_the_serial_bytes(self, name, request, tmp_path):
        """Blocks of 100 packets (1 for the five-packet six-channel run),
        cut at each block boundary and where ``_block_cut`` puts it."""
        run = _key_letter_run() if name == "key_letters" else request.getfixturevalue(name)
        block = 1 if name == "key_letters" else 100
        serial = _encoded(run, block).encode()
        blocks = -(-len(run.index) // block)
        assert blocks >= 5
        for cut in [None, *range(1, blocks)]:
            assert _written(run, tmp_path / "run.jsonl", block, cut) == (serial, 1)

    def test_below_the_threshold_or_without_fork_the_encode_is_serial(
        self, traced_run, tmp_path, monkeypatch
    ):
        """Split iff the first block's length times the blocks that the
        parent formats after the fork reaches ``_FORK_BYTES``: of 7 blocks,
        block 0 before the fork, 1 to 3 after it, and 4 to 6 in the child.
        Without ``os.fork``, never."""
        serial = _encoded(traced_run, 120)
        lines = serial.splitlines(keepends=True)
        estimate = len("".join(lines[1:121])) * 3
        path = tmp_path / "run.jsonl"
        for fork_bytes, forks in ((estimate, 1), (estimate + 1, 0)):
            with (
                mock.patch.object(trace, "_FORK_BYTES", fork_bytes),
                mock.patch.object(trace, "_ENCODE_BLOCK", 120),
                mock.patch.object(trace, "_forked", wraps=trace._forked) as forked,
            ):
                write_log(traced_run, path)
            assert (path.read_text(), forked.call_count) == (serial, forks)
        monkeypatch.delattr(os, "fork")
        assert _written(traced_run, path, 120) == (serial.encode(), 0)

    def test_only_the_file_write_log_opens_is_split(self, traced_run, tmp_path):
        """A stream, or a text file the caller opened (which may translate
        newlines), is written serially."""
        serial = _encoded(traced_run, 100)
        path = tmp_path / "run.jsonl"
        with (
            mock.patch.object(trace, "_FORK_BYTES", 0),
            mock.patch.object(trace, "_ENCODE_BLOCK", 100),
            mock.patch.object(trace, "_forked", wraps=trace._forked) as forked,
        ):
            buffer = io.StringIO()
            encode_log(traced_run, buffer)
            with open(path, "w", newline="\r\n") as sink:
                encode_log(traced_run, sink)
        assert forked.call_count == 0
        assert buffer.getvalue() == serial
        assert path.read_bytes() == serial.replace("\n", "\r\n").encode()

    def test_a_failed_childs_blocks_are_formatted_by_the_parent(self, traced_run, tmp_path):
        def fail():
            raise MemoryError

        with _in_the_child(fail, BlockFormatter, "format"):
            assert _written(traced_run, tmp_path / "run.jsonl", 100) == (
                _encoded(traced_run, 100).encode(), 1
            )

    @pytest.mark.parametrize(
        "module, name, code",
        [(os, "fork", errno.EAGAIN), (tempfile, "TemporaryFile", errno.ENOSPC)],
        ids=["fork-EAGAIN", "spill-ENOSPC"],
    )
    def test_no_child_or_spill_file_encodes_serially(
        self, module, name, code, traced_run, tmp_path
    ):
        with mock.patch.object(module, name, side_effect=OSError(code, os.strerror(code))):
            assert _written(traced_run, tmp_path / "run.jsonl", 100) == (
                _encoded(traced_run, 100).encode(), 1
            )

    def test_an_error_in_the_parents_blocks_kills_and_reaps_the_child(self, traced_run, tmp_path):
        """The child sleeps before it formats, so only a kill ends it as the
        parent's error leaves ``write_log``, which leaves no temp file."""
        format_, calls = BlockFormatter.format, []

        def parent_format(self, *args):
            calls.append(None)
            if len(calls) == 2:  # the parent's second block, after the fork
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return format_(self, *args)

        with (
            mock.patch.object(BlockFormatter, "format", parent_format),
            _in_the_child(lambda: time.sleep(5), BlockFormatter, "format"),
            _killed_child() as children,
            pytest.raises(OSError, match="No space left on device"),
        ):
            _written(traced_run, tmp_path / "run.jsonl", 100)
        assert len(children) == 1
        assert list(tmp_path.iterdir()) == []


def _key_letter_run() -> RunLog:
    """Six channels labelled with the last letters of the log's keys. Traces
    are absent or one to three entries, some without an ACK; copies have a
    final DATA and ACK duration, only a DATA duration, or neither."""
    channels = tuple(ChannelId(j, label) for j, label in enumerate(("W", "d", "a", "k", "i", "l")))
    packets = []
    for p in range(5):
        copies = {}
        for j, channel in enumerate(channels):
            kind = (p + j) % 5  # 0 and 4: no trace
            trace = None if kind in (0, 4) else tuple(
                AttemptTrace(
                    start_ns=1000 * (p + k),
                    data_ns=7 + k,
                    ack_ns=None if (k + j) % 2 else 9,
                )
                for k in range(kind)
            )
            copies[channel] = CopyRecord(
                lost=j % 2 == 1,
                request_ns=100 * p,
                end_ns=100 * p + 50 + j,
                attempts=max(kind, 1),
                final_data_ns=5 + j if j % 3 != 2 else None,
                final_ack_ns=6 if j % 3 == 0 else None,
                trace=trace,
            )
        packets.append(PacketRecord(p + 1, copies))
    meta = RunMeta(
        n_packets=5,
        period_ns=1_000_000,
        seed=0,
        view=VIEW_FULL_TRACE,
        channels=tuple(ChannelMeta(channel, PhyParams()) for channel in channels),
    )
    return RunLog.from_packets(meta, packets)


def _encoded(run: RunLog, block: int) -> str:
    buf = io.StringIO()
    with mock.patch.object(trace, "_ENCODE_BLOCK", block):
        encode_log(run, buf)
    return buf.getvalue()


_INT64_EDGES = (-(1 << 63), (1 << 63) - 1, 0, -1)
_DURATION_EDGES = (1, (1 << 63) - 1)  # a carried frame duration is positive


def _int64_edge_run(view: str) -> RunLog:
    """Three channels whose every number field holds each of ``_INT64_EDGES``
    once per four packets, and every frame duration each of
    ``_DURATION_EDGES`` once per two. In the full-trace view the first
    channel's traces are four entries (one without an ACK), and the other
    channels carry none."""
    channels = tuple(ChannelId(j, label) for j, label in enumerate(("A", 'q"5', "\u00e9")))

    def edge(k: int) -> int:
        return _INT64_EDGES[k % len(_INT64_EDGES)]

    def duration(k: int) -> int:
        return _DURATION_EDGES[k % len(_DURATION_EDGES)]

    packets = []
    for p in range(4):
        copies = {}
        for j, channel in enumerate(channels):
            trace = None
            if view == VIEW_FULL_TRACE and j == 0:
                trace = tuple(
                    AttemptTrace(
                        start_ns=edge(p + k),
                        data_ns=duration(p + k + 1),
                        ack_ns=None if k == 1 else duration(p + k + 2),
                    )
                    for k in range(4)
                )
            copies[channel] = CopyRecord(
                lost=(p + j) % 2 == 1,
                request_ns=edge(p + j),
                end_ns=edge(p + j + 1),
                attempts=edge(p + j + 2),
                final_data_ns=duration(p + j + 3) if j != 1 else None,
                final_ack_ns=duration(p + j) if j != 2 else None,
                trace=trace,
            )
        packets.append(PacketRecord(edge(p), copies))
    meta = RunMeta(
        n_packets=4,
        period_ns=1_000_000,
        seed=0,
        view=view,
        channels=tuple(ChannelMeta(channel, PhyParams()) for channel in channels),
    )
    return RunLog.from_packets(meta, packets)


def _fixed_layout_run(labels: tuple[str, ...]) -> RunLog:
    """An adapter-view run on channels labelled ``labels`` in which every
    copy has both final durations; every number field holds 0, -1, 7 and
    +-(10^18 - 1), and every frame duration 1, 7 and 10^18 - 1."""
    values = (0, -1, 10**18 - 1, -(10**18 - 1), 7)
    durations = (1, 7, 10**18 - 1)
    channels = tuple(ChannelId(j, label) for j, label in enumerate(labels))
    packets = []
    for p in range(len(values)):

        def value(k: int) -> int:
            return values[(p + k) % len(values)]

        copies = {
            channel: CopyRecord(
                lost=(p + j) % 2 == 1,
                request_ns=value(j),
                end_ns=value(j + 1),
                attempts=value(j + 2),
                final_data_ns=durations[(p + j) % len(durations)],
                final_ack_ns=durations[(p + j + 1) % len(durations)],
            )
            for j, channel in enumerate(channels)
        }
        packets.append(PacketRecord(value(0), copies))
    meta = RunMeta(
        n_packets=len(packets),
        period_ns=1_000_000,
        seed=0,
        view=VIEW_ADAPTER,
        channels=tuple(ChannelMeta(channel, PhyParams()) for channel in channels),
    )
    return RunLog.from_packets(meta, packets)


class TestBlockEncoder:
    @settings(max_examples=200, deadline=None)
    @given(run=encodable_runs())
    def test_random_runs_encode_as_the_spec(self, run):
        expected = encode_log_spec(run)
        for block in (1, 3, trace._ENCODE_BLOCK):
            assert _encoded(run, block) == expected

    @pytest.mark.parametrize("view", [VIEW_FULL_TRACE, VIEW_ADAPTER])
    def test_int64_extremes_in_every_field(self, view):
        run = _int64_edge_run(view)
        values, durations = [run.index, run.req, run.end, run.attempts], [run.td, run.ta]
        if view == VIEW_FULL_TRACE:
            assert run.trace.lengths().tolist() == [4] * 4 + [0] * 8
            values.append(run.trace.start)
            durations += [run.trace.data, run.trace.ack]
        else:
            assert run.trace is None
        for column in values:
            assert set(_INT64_EDGES) <= set(column.ravel().tolist())
        for column in durations:
            assert set(_DURATION_EDGES) <= set(column.ravel().tolist())
        expected = encode_log_spec(run)
        assert str((1 << 63) - 1) in expected and str(-(1 << 63)) in expected
        for block in (1, 3, trace._ENCODE_BLOCK):
            text = _encoded(run, block)
            assert text == expected
            assert decode_log(io.StringIO(text), validate=False) == run

    @pytest.mark.parametrize(
        "name, blocks",
        [("traced_run", (1, 7)), ("adapter_run", (1, 7)), ("mixed_trace_run", (1, 2, 3))],
        ids=["traced_run", "adapter_run", "mixed_trace_run"],
    )
    def test_simulated_runs_encode_as_the_spec(self, name, blocks, request):
        """The mixed run pins the closers where a copy's row and its later
        entries' rows meet: ``},`` after an entry that another follows,
        ``}]}`` after a trace's last entry, ``}`` after an untraced copy and
        ``]}\n`` after a line's last copy, in blocks with and without
        traces."""
        run = request.getfixturevalue(name)
        expected = encode_log_spec(run)
        for block in (*blocks, trace._ENCODE_BLOCK):
            assert _encoded(run, block) == expected
        assert decode_log(io.StringIO(expected), validate=False) == run

    @pytest.fixture
    def mixed_trace_run(self) -> RunLog:
        """A full-trace run whose packets hold every pair of four kinds of
        copy on the first and the last channel: untraced, a one-entry trace,
        a three-entry trace, and a lost copy whose last entry has no ACK."""
        kinds = [
            lambda req: make_success_copy(req, req + 334_000),
            lambda req: copy_from_starts(req, [req + 50_000], lost=False),
            lambda req: copy_from_starts(req, [req + 50_000 * k for k in (1, 9, 17)], lost=False),
            lambda req: copy_from_starts(req, [req + 50_000 * k for k in (1, 9)], lost=True),
        ]
        packets = [
            PacketRecord(p + 1, {CH_A: a(p * 10**7), CH_B: b(p * 10**7)})
            for p, (a, b) in enumerate((a, b) for a in kinds for b in kinds)
        ]
        return make_run(packets, view=VIEW_FULL_TRACE)


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

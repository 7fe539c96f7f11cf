"""A committed catalogue of source mutations, each with the tests that must
catch it.

    python3 scripts/mutants.py [NAME ...]

Run it from anywhere; it works on a copy of the ``src/`` and ``tests/`` next
to this script (and ``pyproject.toml``), in a temporary directory that it
removes at the end. For each entry of ``MUTANTS`` (or each one named) it
replaces the entry's snippet, which must occur exactly once in its file,
runs the entry's tests with ``python -m pytest -x --assert=plain`` (a
rewritten ``==`` of two long texts that differ spends minutes on its diff)
and puts the file back.
It prints one line per entry: ``killed`` (a test failed), ``survived`` (all
passed), ``stale`` (the snippet does not occur exactly once, so the entry
must follow the code it names) or ``error`` (pytest could not run the
tests, for example a test id that no longer exists), with the seconds it
took; then the counts, and it exits 1 unless every entry was killed. It
uses the standard library only, and runs the tests of the copy with the
interpreter that runs it; bytecode is not written, so a mutant is always
compiled afresh.

An entry records a mutation made to show that a check is tested: a
comparison flipped, a mask or a bound dropped. When a refactor moves or
rewrites the code an entry names, the entry is updated in the same change.
``EQUIVALENT`` lists the mutations that leave the program's behaviour as it
is, each with its reason. They are not run, so they never count as
survivors; one whose snippet does not occur exactly once is printed and
counted as ``stale``.
"""
from __future__ import annotations

import argparse
import os
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT_S = 600


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to the repository root
    snippet: str  # must occur exactly once in ``file``
    replacement: str
    tests: tuple[str, ...]  # pytest node ids, one of which must fail


_GATE = "src/prpwifi/logblocks.py"
_BLOCK_TESTS = "tests/test_trace.py::TestFixedLayoutCheck"
_PROPERTY = f"{_BLOCK_TESTS}::test_edited_blocks_take_the_fixed_path_iff_the_grammar_matches"
_MAC = "src/prpwifi/sim.py"
_GAP_JUMP = "tests/test_sim.py::TestGapJump::test_equals_scalar_acquire"
_SPLIT = "tests/test_trace.py::TestSplitDecode"
_SPLIT_ENCODE = "tests/test_trace.py::TestSplitEncode"
_ENCODER_SPEC = "tests/test_trace.py::TestBlockEncoder::test_simulated_runs_encode_as_the_spec"
_LAST_FRAMES = "tests/test_trace.py::TestValidation::test_traced_copy_carries_its_last_attempts_frames"
_DEFECTS = "tests/test_trace.py::TestValidation::test_defects_in_generated_runs_fail_as_the_per_packet_spec"
_NO_LINES = "tests/test_trace.py::TestBlockDecoder::test_simulated_logs_never_decode_line_by_line"

MUTANTS = (
    # the fixed-layout check of logblocks.BlockParser, one entry per test
    Mutant(
        "gate: no first-line exit",
        _GATE,
        "if data and first.translate(None, _SIGNED_DIGITS) != skeleton:",
        "if False:",
        (f"{_BLOCK_TESTS}::test_other_layouts_stop_at_the_first_line",),
    ),
    Mutant(
        "gate: skeleton length only",
        _GATE,
        "if rest != skeleton * k:",
        "if len(rest) != len(skeleton) * k:",
        (_PROPERTY,),
    ),
    Mutant(
        "gate: empty numbers allowed",
        _GATE,
        "if ((u[:-1] == _COLON) & ((after == _COMMA) | (after == _BRACE))).any():",
        "if False:",
        (f"{_BLOCK_TESTS}::test_digits_outside_numbers",),
    ),
    Mutant(
        "gate: tokens cut at ':' only",
        _GATE,
        "tokens = data.translate(_BOUNDS_TO_SPACE, _NOT_NUMBER_OR_BOUND)",
        "tokens = data.translate(_COLON_TO_SPACE, _NOT_NUMBER)",
        (f"{_BLOCK_TESTS}::test_digits_outside_numbers",),
    ),
    Mutant(
        "gate: '-' may follow a digit",
        _GATE,
        "if (minus[1:] & digit[:-1]).any() or (minus[:-1] & ~digit[1:]).any():",
        "if (minus[:-1] & ~digit[1:]).any():",
        (f"{_BLOCK_TESTS}::test_minus_signs_np_fromstring_would_misread",),
    ),
    Mutant(
        "gate: '-' need not precede a digit",
        _GATE,
        "if (minus[1:] & digit[:-1]).any() or (minus[:-1] & ~digit[1:]).any():",
        "if (minus[1:] & digit[:-1]).any():",
        (f"{_BLOCK_TESTS}::test_minus_signs_np_fromstring_would_misread",),
    ),
    Mutant(
        "gate: leading zeros allowed",
        _GATE,
        "if ((t[1:-1] == _ZERO) & ~digit[:-2] & digit[2:]).any():",
        "if False:",
        (f"{_BLOCK_TESTS}::test_number_forms",),
    ),
    Mutant(
        "gate: no token count",
        _GATE,
        "if len(values) != k * self._fixed_width:",
        "if len(values) < k * self._fixed_width:",
        (f"{_BLOCK_TESTS}::test_digits_outside_numbers",),
    ),
    Mutant(
        "gate: no lower bound",
        _GATE,
        "if values.min(initial=0) <= -_LIMIT or values.max(initial=0) >= _LIMIT:",
        "if values.max(initial=0) >= _LIMIT:",
        (f"{_BLOCK_TESTS}::test_number_forms",),
    ),
    Mutant(
        "gate: no upper bound",
        _GATE,
        "if values.min(initial=0) <= -_LIMIT or values.max(initial=0) >= _LIMIT:",
        "if values.min(initial=0) <= -_LIMIT:",
        (f"{_BLOCK_TESTS}::test_number_forms",),
    ),
    Mutant(
        "gate: a zero duration allowed",
        _GATE,
        "for c in (td, td + 1)) <= 0:",
        "for c in (td, td + 1)) < 0:",
        ("tests/test_trace.py::TestMalformedDurations::test_line_names_its_record",),
    ),
    Mutant(
        "gate: one mark for all labels",
        _GATE,
        "self._marks.append((head, chr(0x10000 + j).encode()))",
        'self._marks.append((head, b"{"))',
        (f"{_BLOCK_TESTS}::test_swapped_disturbing_labels",),
    ),
    Mutant(
        "gate: never passes (ROADMAP item 3(d))",
        _GATE,
        "        if (lines := self._fixed_lines(data)) is not None:",
        "        if (lines := None) is not None:",
        ("tests/test_trace.py::TestRealDeferral",),
    ),
    # ROADMAP item 9's list: the oracle, the leads, validation, the decoder
    Mutant(
        "oracle: '>=' for '>'",
        "src/prpwifi/metrics.py",
        "np.repeat(others, np.diff(rows)) > t_lre_ns + c",
        "np.repeat(others, np.diff(rows)) >= t_lre_ns + c",
        ("tests/test_metrics.py::TestOracleSummary",),
    ),
    Mutant(
        "oracle: the displacement's signs swapped",
        "src/prpwifi/metrics.py",
        "return t_d, (t_d, -t_d)",
        "return t_d, (-t_d, t_d)",
        ("tests/test_metrics.py::TestOracleSummary",),
    ),
    Mutant(
        "displaced: the other channel deferred",
        "src/prpwifi/da.py",
        "deferred = second if t_d_ns > 0 else first",
        "deferred = first if t_d_ns > 0 else second",
        ("tests/test_da.py::TestTddFlags",),
    ),
    Mutant(
        "oracle_saved_attempts: attempts numbered from 1",
        "src/prpwifi/da.py",
        "(k for k, a in enumerate(copy.trace) if",
        "(k for k, a in enumerate(copy.trace, start=1) if",
        ("tests/test_da.py::TestOracle::test_kept_attempts_are_counted_by_position",),
    ),
    Mutant(
        "_other_ends: lost copies count",
        "src/prpwifi/metrics.py",
        "ends = list(np.where(run.lost, _ALWAYS, run.end))",
        "ends = list(run.end)",
        ("tests/test_metrics.py::TestOracleSummary",),
    ),
    Mutant(
        "_leads: no policy mask",
        "src/prpwifi/metrics.py",
        "lead[run.lost] = -_ALWAYS",
        "pass",
        ("tests/test_metrics.py::TestNplexReport::test_vector_path_equals_reference",),
    ),
    # each analysis rule once: the sweep CSV's column table, the parameter
    # check where a report's parameters are resolved, and the CLI's one emitter
    Mutant(
        "sweep CSV: two columns' values swapped",
        "src/prpwifi/metrics.py",
        '("theta_hat", lambda r: _sig4(r.link.load_vs_pow)),\n'
        '    ("Theta_hat", lambda r: _sig4(r.link.load_vs_simplex)),',
        '("theta_hat", lambda r: _sig4(r.link.load_vs_simplex)),\n'
        '    ("Theta_hat", lambda r: _sig4(r.link.load_vs_pow)),',
        ("tests/test_trace.py::TestByteIdentity::test_outputs_match_pinned_digests",),
    ),
    Mutant(
        "_resolve: parameters not checked",
        "src/prpwifi/metrics.py",
        "    params.validate()\n    t_d, recorded",
        "    t_d, recorded",
        (
            "tests/test_metrics.py::TestOracleSummary::"
            "test_negative_reaction_latency_is_refused_as_reports_refuse_it",
        ),
    ),
    Mutant(
        "_emit: the output file ignored",
        "src/prpwifi/cli.py",
        "    if out:\n        write_atomic(out, write)",
        "    if False:\n        write_atomic(out, write)",
        ("tests/test_cli.py::TestSweepCommand::test_td_zero_row_matches_rda_row",),
    ),
    Mutant(
        "validate_run: searchsorted side",
        "src/prpwifi/trace.py",
        'flags[np.searchsorted(t.offsets, bad_rows, side="right") - 1] = True',
        'flags[np.searchsorted(t.offsets, bad_rows, side="left") - 1] = True',
        (_DEFECTS,),
    ),
    Mutant(
        "validate_run: a lost copy may carry Ta",
        "src/prpwifi/trace.py",
        'check(lost & (run.ta != 0), "lost copies carry no ACK duration")',
        "pass",
        (
            "tests/test_trace.py::TestBlockDecoder::test_lost_copy_that_carries_ta_is_refused_alike",
            "tests/test_trace.py::TestValidation::test_lost_copy_carries_no_ack_duration",
        ),
    ),
    # validate_run's row masks, widened by a trace's first row: a mask
    # dropped fails every generated run, conftest's included
    Mutant(
        "validate_run: a trace's second start not compared",
        "src/prpwifi/trace.py",
        "(t.start[1:] <= t.start[:-1]) & ~bounds[1:-1]",
        "(t.start[1:] <= t.start[:-1]) & ~(bounds[1:-1] | bounds[:-2])",
        (_LAST_FRAMES,),
    ),
    Mutant(
        "validate_run: a trace's first attempt may succeed",
        "src/prpwifi/trace.py",
        "copies_of(np.flatnonzero((t.ack != 0) & ~bounds[1:]))",
        "copies_of(np.flatnonzero((t.ack != 0) & ~(bounds[1:] | bounds[:-1])))",
        (_LAST_FRAMES,),
    ),
    Mutant(
        "decoder: first capacity beyond the file",
        "src/prpwifi/trace.py",
        "return min(meta.n_packets, max(rest, 0) // shortest)",
        "return meta.n_packets",
        ("tests/test_trace.py::TestDecodeMemory::test_first_capacity_is_bounded_by_the_file",),
    ),
    Mutant(
        "decoder: slack kept past the count",
        "src/prpwifi/trace.py",
        "a if a.shape[-1] == count else a[..., :count].copy() for a in (index, lost, ints)",
        "a if a.shape[-1] == count else a[..., :count] for a in (index, lost, ints)",
        ("tests/test_trace.py::TestCodec::test_decoded_columns_hold_no_slack",),
    ),
    Mutant(
        "decoder: growth past the header's count",
        "src/prpwifi/trace.py",
        "if stop <= meta.n_packets:\n                size = min(size, meta.n_packets)",
        "pass",
        ("tests/test_trace.py::TestDecodeMemory::test_growth_stops_at_the_header_count",),
    ),
    # the packet-row form: _packet_rows, which encode_log, RunLog.packets
    # and export_csv read, and from_packets' one block of rows for _from_rows
    Mutant(
        "_packet_rows: a copy's attempt rows all its first",
        "src/prpwifi/trace.py",
        "    rows += np.arange(len(rows))\n",
        "",
        (_ENCODER_SPEC, "tests/test_trace.py::TestColumns::test_from_packets_roundtrip"),
    ),
    Mutant(
        "_packet_rows: hi not clipped to the run",
        "src/prpwifi/trace.py",
        "hi, m = min(hi, len(run.index)), len(run.channels)",
        "m = len(run.channels)",
        ("tests/test_trace.py::TestByteIdentity::test_outputs_match_pinned_digests",),
    ),
    Mutant(
        "export_csv: block stride off by one",
        "src/prpwifi/trace.py",
        "for lo in range(0, len(run.index), _ENCODE_BLOCK):",
        "for lo in range(0, len(run.index), _ENCODE_BLOCK + 1):",
        ("tests/test_trace.py::TestCsvExport::test_blocks_write_the_rows_of_every_packet",),
    ),
    Mutant(
        "from_packets: attempts in channel-major order",
        "src/prpwifi/trace.py",
        "for c in copies if c.trace for a in c.trace",
        "for j in range(len(channels)) for c in copies[j :: len(channels)]"
        " if c.trace for a in c.trace",
        ("tests/test_trace.py::TestColumns::test_from_packets_roundtrip",),
    ),
    # the split decode of read_log: the cut, the order of the halves, a
    # failed child's half and the kill of a child left early
    Mutant(
        "split: the cut one byte before the newline",
        "src/prpwifi/trace.py",
        "cut = middle + len(source.buffer.readline())",
        "cut = middle + len(source.buffer.readline()) - 1",
        (
            f"{_SPLIT}::test_round_trips_in_both_views",
            f"{_SPLIT}::test_line_endings_and_non_utf8_bytes_in_either_half",
        ),
    ),
    Mutant(
        "split: the child's blocks first",
        "src/prpwifi/trace.py",
        "        yield from _ByteRange(source.fileno(), start, cut).blocks()\n"
        "        if (spill := reaped()) is None:\n"
        "            yield from _ByteRange(source.fileno(), cut, stop).blocks()\n"
        "        else:\n"
        "            yield from iter(lambda: pickle.load(spill), None)\n",
        "        if (spill := reaped()) is None:\n"
        "            yield from _ByteRange(source.fileno(), cut, stop).blocks()\n"
        "        else:\n"
        "            yield from iter(lambda: pickle.load(spill), None)\n"
        "        yield from _ByteRange(source.fileno(), start, cut).blocks()\n",
        (f"{_SPLIT}::test_round_trips_in_both_views",),
    ),
    Mutant(
        "split: a failed child's half not parsed",
        "src/prpwifi/trace.py",
        "yield from _ByteRange(source.fileno(), cut, stop).blocks()",
        "pass",
        (f"{_SPLIT}::test_a_failed_childs_half_is_parsed_by_the_parent",),
    ),
    Mutant(
        "split: a failed fork or spill file is an error",
        "src/prpwifi/trace.py",
        "except OSError:  # no temp file, or no process to fork",
        "except ZeroDivisionError:",
        (f"{_SPLIT}::test_no_child_or_spill_file_decodes_serially",),
    ),
    Mutant(
        "split: a child left early is not killed",
        "src/prpwifi/trace.py",
        "os.kill(pid, signal.SIGKILL)",
        "pass",
        (f"{_SPLIT}::test_an_error_in_the_first_half_kills_and_reaps_the_child",),
    ),
    # the split encode of write_log, through the same fork helper: the cut,
    # the order of the halves, a failed child's blocks, the kill, the flush
    # of the parent's text before the append and the threshold's estimate
    Mutant(
        "encode split: the parent's half without block 0",
        "src/prpwifi/trace.py",
        "cut = (blocks + 1) // 2",
        "cut = blocks // 2",
        (f"{_SPLIT_ENCODE}::test_below_the_threshold_or_without_fork_the_encode_is_serial",),
    ),
    Mutant(
        "encode split: the child's blocks from one block early",
        "src/prpwifi/trace.py",
        "        for lo in starts[cut:]:\n            spill.write(text(lo).encode())",
        "        for lo in starts[cut - 1:]:\n            spill.write(text(lo).encode())",
        (f"{_SPLIT_ENCODE}::test_every_cut_writes_the_serial_bytes",),
    ),
    Mutant(
        "encode split: the child's blocks first",
        "src/prpwifi/trace.py",
        "        for lo in starts[1:cut]:\n"
        "            sink.write(text(lo))\n"
        "        if reaped is None or (spill := reaped()) is None:\n"
        "            for lo in starts[cut:]:\n"
        "                sink.write(text(lo))\n"
        "        else:\n"
        "            sink.flush()\n"
        "            shutil.copyfileobj(spill, sink.buffer)\n",
        "        if reaped is None or (spill := reaped()) is None:\n"
        "            for lo in starts[cut:]:\n"
        "                sink.write(text(lo))\n"
        "        else:\n"
        "            sink.flush()\n"
        "            shutil.copyfileobj(spill, sink.buffer)\n"
        "        for lo in starts[1:cut]:\n"
        "            sink.write(text(lo))\n",
        (f"{_SPLIT_ENCODE}::test_every_cut_writes_the_serial_bytes",),
    ),
    Mutant(
        "encode split: a failed child's blocks not formatted",
        "src/prpwifi/trace.py",
        "            for lo in starts[cut:]:\n                sink.write(text(lo))",
        "            pass",
        (f"{_SPLIT_ENCODE}::test_a_failed_childs_blocks_are_formatted_by_the_parent",),
    ),
    Mutant(
        "encode split: a child left early is not killed",
        "src/prpwifi/trace.py",
        "os.kill(pid, signal.SIGKILL)",
        "pass",
        (f"{_SPLIT_ENCODE}::test_an_error_in_the_parents_blocks_kills_and_reaps_the_child",),
    ),
    Mutant(
        "encode split: the parent's text not flushed before the append",
        "src/prpwifi/trace.py",
        "            sink.flush()\n",
        "",
        (f"{_SPLIT_ENCODE}::test_every_cut_writes_the_serial_bytes",),
    ),
    Mutant(
        "encode split: the threshold on the first block alone",
        "src/prpwifi/trace.py",
        "first * (cut - 1) >= _FORK_BYTES",
        "first >= _FORK_BYTES",
        (f"{_SPLIT_ENCODE}::test_below_the_threshold_or_without_fork_the_encode_is_serial",),
    ),
    # the general grammar: a simulated log that it refuses is decoded line
    # by line
    Mutant(
        "grammar: an entry's \"ok\":1 and \"ok\":0 swapped",
        _GATE,
        ''',"Ta":P,"ok":1|,"ok":0)''',
        ''',"Ta":P,"ok":0|,"ok":1)''',
        (_NO_LINES,),
    ),
    Mutant(
        "grammar: a copy's Td and Ta groups swapped",
        _GATE,
        '''(?:,"Td":P)?+(?:,"Ta":P)?+''',
        '''(?:,"Ta":P)?+(?:,"Td":P)?+''',
        (_NO_LINES,),
    ),
    # BlockFormatter's fields: a literal then its number, which shows on
    # the rows of any of the field's literals
    Mutant(
        "formatter: a field's digits laid before its literal",
        _GATE,
        "        q, shown, negative = number\n        at += size\n",
        "        q, shown, negative = number\n"
        "        span = matrix[at : at + size + signed + digits]\n"
        "        span[:] = np.roll(span, signed + digits, axis=0)\n",
        (_ENCODER_SPEC,),
    ),
    Mutant(
        "formatter: the sign column dropped",
        _GATE,
        "signed, digits = negative.any(), len(str(magnitude.max()))",
        "signed, digits = False, len(str(magnitude.max()))",
        ("tests/test_trace.py::TestBlockEncoder::test_int64_extremes_in_every_field",),
    ),
    Mutant(
        "formatter: a choice field's number shown only on its first choice's rows",
        _GATE,
        "shown = np.logical_or.reduce([s for _, s in choices])",
        "shown = choices[0][1]",
        (_ENCODER_SPEC,),
    ),
    # BlockFormatter's closers of a traced block's rows
    Mutant(
        "formatter: '},' and '}]}' swapped",
        "src/prpwifi/logblocks.py",
        '(b"},", entry & ~ends), (b"}]}", entry & ends)',
        '(b"}]}", entry & ~ends), (b"},", entry & ends)',
        (_ENCODER_SPEC,),
    ),
    Mutant(
        "formatter: an untraced copy in a traced block left open",
        "src/prpwifi/logblocks.py",
        'closers = [(b"}", ~entry), ',
        "closers = [",
        (_ENCODER_SPEC,),
    ),
    # the media of a run family: one horizon per config, each medium kept
    # for the family's planned runs, which run the busiest channel's first
    Mutant(
        "family: never keeps a medium",
        "src/prpwifi/sim.py",
        "if self._uses[j] > 0:",
        "if False:",
        (
            "tests/test_sim.py::TestRunFamily::test_runs_outside_the_plan_are_exact",
            "tests/test_cli.py::TestBenchmarkHooks",
        ),
    ),
    Mutant(
        "family: the order reversed",
        "src/prpwifi/sim.py",
        "self.order = sorted(range(len(moved)), key=lambda i: moved[i][quieter])",
        "self.order = sorted(range(len(moved)), key=lambda i: moved[i][quieter])[::-1]",
        ("tests/test_cli.py::TestBenchmarkHooks::test_validate_deferral_drops_the_busier_medium_first",),
    ),
    Mutant(
        "medium: a deferred channel's horizon adds its offset again",
        "src/prpwifi/sim.py",
        "horizon = (config.n_packets - 1) * config.period_ns + config.interference_margin_ns",
        "horizon = (config.n_packets - 1) * config.period_ns + config.interference_margin_ns"
        " + abs(config.deferral_ns)",
        ("tests/test_sim.py::TestRealDeferral::test_deferred_channel_extends_base_interference",),
    ),
    # the MAC: the gap jump against the scalar _acquire, round 0's service
    # times queue and the scalar replay's early stop
    Mutant(
        "_acquire: an attempt must end before the next busy interval",
        _MAC,
        "if ready + span <= next_busy:",
        "if ready + span < next_busy:",
        (_GAP_JUMP,),
    ),
    Mutant(
        "_acquire_lanes: an attempt that ends at a busy start is late",
        _MAC,
        "late = ready + span > starts[j]",
        "late = ready + span >= starts[j]",
        (_GAP_JUMP,),
    ),
    Mutant(
        "_acquire_lanes: the partial gap counts without DIFS",
        _MAC,
        "pending -= np.clip((starts[k - 1] - t - difs) // slot, 0, pending)",
        "pending -= np.clip((starts[k - 1] - t) // slot, 0, pending)",
        (_GAP_JUMP,),
    ),
    Mutant(
        "_acquire_lanes: the first fitting gap searched from the right",
        _MAC,
        "gaps[np.searchsorted(gaps, (j[x] + 1).astype(gaps.dtype))]",
        'gaps[np.searchsorted(gaps, (j[x] + 1).astype(gaps.dtype), side="right")]',
        (_GAP_JUMP,),
    ),
    Mutant(
        "_acquire_lanes: the key cap without its + 1",
        _MAC,
        "key = np.minimum(before + pending, ticks[-1] + 1).astype(ticks.dtype)",
        "key = np.minimum(before + pending, ticks[-1]).astype(ticks.dtype)",
        (_GAP_JUMP,),
    ),
    Mutant(
        "_gap_table: a gap of exactly DIFS plus the span does not fit",
        _MAC,
        "at.append(np.flatnonzero(gaps >= difs + span) + lo)",
        "at.append(np.flatnonzero(gaps > difs + span) + lo)",
        (_GAP_JUMP,),
    ),
    Mutant(
        "_gap_table: a gap shorter than DIFS ticks below 0",
        _MAC,
        "np.maximum(gaps, 0, out=gaps)",
        "pass",
        (_GAP_JUMP,),
    ),
    Mutant(
        "round 0: a copy requested as its predecessor's bound ends is queued",
        _MAC,
        "np.flatnonzero(np.append(free_at, bound[:-1]) <= req)",
        "np.flatnonzero(np.append(free_at, bound[:-1]) < req)",
        ("tests/test_sim.py::TestBatchedMac::test_round_0_leaves_out_copies_the_service_times_queue",),
    ),
    Mutant(
        "replay: no early stop",
        _MAC,
        "if t == t_in_mv[c]:",
        "if False:",
        ("tests/test_sim.py::TestBatchedMac::test_scalar_replays_on_the_bench_config",),
    ),
)


@dataclass(frozen=True)
class Equivalent:
    """A mutation that no test can catch, because the program behaves the
    same with it; it is listed, not run, so that it is neither tried again
    nor counted as a survivor."""

    name: str
    file: str
    snippet: str  # must occur exactly once in ``file``
    replacement: str
    reason: str


EQUIVALENT = (
    Equivalent(
        "_acquire: an interval ending at t is entered",
        _MAC,
        "while k < n and ends[k] <= t:",
        "while k < n and ends[k] < t:",
        "an interval that ends at t is entered and left at t, so the time and"
        " the pending count are those of skipping it",
    ),
    Equivalent(
        "_acquire_lanes: the start gap searched from the left",
        _MAC,
        'k = np.searchsorted(ends, t, side="right")',
        'k = np.searchsorted(ends, t, side="left")',
        "as in _acquire: an interval that ends at t is entered and left at t",
    ),
    Equivalent(
        "_ordinals: a draw equal to loss_prob fails",
        _MAC,
        "ok = u >= loss_prob",
        "ok = u > loss_prob",
        "differs only on a draw exactly equal to loss_prob: a 53-bit draw from"
        " [0, 1) meets a given value with probability 2^-53",
    ),
    Equivalent(
        "replay: compared against req",
        _MAC,
        "if t == t_in_mv[c]:",
        "if t == req_mv[c]:",
        "a copy whose replay starts at its request has a predecessor ending by"
        " then, so round 0 timed it from its request and t_in equals req there;"
        " the replay only goes on past copies it could have stopped at",
    ),
    Equivalent(
        "rounds: every off copy a head",
        _MAC,
        "heads = np.flatnonzero(off & ~np.append(False, off[:-1]))",
        "heads = np.flatnonzero(off)",
        "a copy behind an off predecessor is timed from too early a time, so"
        " it stays off and the replay, which runs until a copy's time is the"
        " one it was timed from, makes it exact; only the work changes",
    ),
)


def _current(entry: Mutant | Equivalent, root: Path) -> bool:
    return (root / entry.file).read_text().count(entry.snippet) == 1


def _run(mutant: Mutant, work: Path) -> str:
    if not _current(mutant, work):
        return "stale"
    path = work / mutant.file
    source = path.read_text()
    path.write_text(source.replace(mutant.snippet, mutant.replacement))
    try:
        tests = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "--assert=plain", "-p", "no:cacheprovider",
             *mutant.tests],
            cwd=work, capture_output=True, timeout=TIMEOUT_S,
            env={**os.environ, "PYTHONPATH": str(work / "src"), "PYTHONDONTWRITEBYTECODE": "1"},
        )
    except subprocess.TimeoutExpired:
        return f"error (over {TIMEOUT_S} s)"
    finally:
        path.write_text(source)
    return {0: "survived", 1: "killed"}.get(tests.returncode, f"error (pytest exit {tests.returncode})")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("names", nargs="*", help="entries to run (default: all)")
    args = parser.parse_args(argv)
    unknown = set(args.names) - {m.name for m in MUTANTS}
    if unknown:
        parser.error(f"no such entries: {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not args.names or m.name in args.names]
    counts: dict[str, int] = {}
    started = time.perf_counter()
    with tempfile.TemporaryDirectory() as directory:
        work = Path(directory)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, work / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(source, work / name)
        for mutant in chosen:
            began = time.perf_counter()
            status = _run(mutant, work)
            counts[status.split()[0]] = counts.get(status.split()[0], 0) + 1
            print(f"{status:<10} {time.perf_counter() - began:6.1f} s  {mutant.name}", flush=True)
    for equivalent in EQUIVALENT:
        if not _current(equivalent, ROOT):
            counts["stale"] = counts.get("stale", 0) + 1
            print(f"{'stale':<10} {'':>8}  {equivalent.name} (equivalent)")
    summary = ", ".join(f"{status} {count}" for status, count in sorted(counts.items()))
    print(f"{len(chosen)} entries in {time.perf_counter() - started:.0f} s: {summary};"
          f" {len(EQUIVALENT)} equivalents not run")
    return 0 if counts == {"killed": len(chosen)} else 1


if __name__ == "__main__":
    sys.exit(main())

"""Run-log packet lines in the exact layout of ``encode_log``, in blocks.

``encode_log`` writes every packet line the same way: keys in a fixed
order, no whitespace, the channels in header order, ASCII only. This
module owns that layout in both directions.

:class:`BlockFormatter` writes a block of packet lines from one byte
matrix: every copy and every trace entry is a row, every literal and
number a fixed range of columns, and the parts a row lacks stay NUL and
are dropped when the matrix is read out.

:class:`BlockParser` checks a block of whole lines in that layout with a
regex and parses its numbers with numpy instead of one ``json.loads`` per
line. Numbers in the grammar have at most 18 digits, so every value fits
an int64. A block in which every copy carries both final durations and no
trace has the same numbers in the same order on every line, so a reshape
places them. In any other block the grammar's fixed key order lets the key
sequence alone tell which numbers are the packet index, copy fields or
trace entry fields. Blocks in any other layout are left to the
line-by-line decoder of :mod:`prpwifi.trace`.
"""
from __future__ import annotations

import json
import re
from functools import cache
from typing import IO, Iterator, Sequence

import numpy as np

_NUMBER = r"-?+(?:0|[1-9][0-9]{0,17}+)"
_ENTRY = r'\{"tW":N,"Td":N(?:,"Ta":N)?+,"ok":N\}'.replace("N", _NUMBER)
# a copy entry after its '{"ch":<label>'
_COPY_REST = (
    r',"l":N,"t_T":N,"t_X":N,"w":N(?:,"Td":N)?+(?:,"Ta":N)?+'
    r'(?:,"trace":\[(?:E(?:,E)*+)?+\])?+\}'
).replace("E", _ENTRY).replace("N", _NUMBER)
# the same for a copy with both final durations and no trace
_FIXED_REST = r',"l":N,"t_T":N,"t_X":N,"w":N,"Td":N,"Ta":N\}'.replace("N", _NUMBER)
# bytes other than digits and '-' become spaces, leaving only the numbers
_NUMBERS_ONLY = bytes(c if chr(c) in "-0123456789" else ord(" ") for c in range(256))
# label bytes that the parse would take for numbers, keys or brackets
_DISTURBING = frozenset(b"-0123456789:[]")


def line_blocks(source: IO[str], size: int) -> Iterator[str]:
    """The rest of ``source`` in blocks of whole lines of about ``size``
    characters (a longer line is a block of its own); only the last block
    may lack a final newline."""
    pending: list[str] = []
    while chunk := source.read(size):
        cut = chunk.rfind("\n") + 1
        if cut:
            yield "".join([*pending, chunk[:cut]])
            pending = [chunk[cut:]]
        else:
            pending.append(chunk)
    if rest := "".join(pending):
        yield rest


@cache
def _key_columns(fields: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
    """Per key byte (the last of a field's name), the field's column in a
    row laid out as ``fields`` and its presence column (0 if it has none)."""
    value, present = np.zeros(256, dtype=np.intp), np.zeros(256, dtype=np.intp)
    for column, name in enumerate(fields):
        (present if name in fields[:column] else value)[ord(name[-1])] = column
    return value, present


def _field_rows(key: np.ndarray, values: np.ndarray, fields: tuple[str, ...]) -> np.ndarray:
    """Rows laid out as ``fields`` from numbers in file order and the last
    byte of each one's key. A row starts at its first field; an optional
    field also sets its presence flag."""
    value_column, presence_column = _key_columns(fields)
    width = len(fields)
    first = key == ord(fields[0][-1])
    row_base = (np.cumsum(first) - 1) * width
    rows = np.zeros(np.count_nonzero(first) * width, dtype=np.int64)
    # presence flags first: the other keys flag column 0, which every row's
    # first field then overwrites
    rows[row_base + presence_column.take(key)] = 1
    rows[row_base + value_column.take(key)] = values
    return rows.reshape(-1, width)


class BlockParser:
    """Parser of blocks of packet lines written by ``encode_log`` for a run
    with channels labelled ``labels``.

    Rows come out laid out as ``copy_fields`` and ``attempt_fields``, the
    JSON keys of a copy and of a trace entry in row order; a repeated key
    is the presence flag of the optional field before it.
    """

    def __init__(
        self,
        labels: Sequence[str],
        copy_fields: tuple[str, ...],
        attempt_fields: tuple[str, ...],
    ):
        def grammar(copy_rest: str) -> re.Pattern:
            copies = ",".join(
                r'\{"ch":' + re.escape(json.dumps(label)) + copy_rest for label in labels
            )
            return re.compile(r'(?:\{"i":%s,"copies":\[%s\]\}\n)*+' % (_NUMBER, copies))

        self._grammar = grammar(_COPY_REST)
        self._fixed = grammar(_FIXED_REST)
        encoded = [json.dumps(label).encode() for label in labels]
        self._heads = [b'{"ch":%s,' % e for e in encoded if _DISTURBING.intersection(e)]
        self._copy_fields = copy_fields
        self._attempt_fields = attempt_fields
        # the columns of a fixed-layout copy's numbers: each key's first field
        self._fixed_columns = [copy_fields.index(name) for name in dict.fromkeys(copy_fields)]
        self._fixed_width = 1 + len(labels) * len(self._fixed_columns)  # numbers per line

    def parse(self, text: str) -> tuple[np.ndarray, ...] | None:
        """(packet indices, copy rows, trace lengths, attempt rows) of a
        block of whole lines in file order, or None if the block is not in
        the encoder's layout. A trace length is -1 where a copy has no
        trace."""
        if self._fixed.fullmatch(text) is not None:
            parse = self._parse_fixed
        elif self._grammar.fullmatch(text) is not None:
            parse = self._parse_general
        else:
            return None
        # cut out the labels holding digits, '-', ':' or brackets, so that
        # every such byte left belongs to the layout
        data = text.encode("ascii")
        for head in self._heads:
            data = data.replace(head, b"{")
        return parse(data)

    def _parse_fixed(self, data: bytes) -> tuple[np.ndarray, ...]:
        """Every copy has the same keys, so each line is the index and then
        one number per key of each copy; the presence flags are all set."""
        values = np.fromstring(data.translate(_NUMBERS_ONLY), dtype=np.int64, sep=" ")
        lines = values.reshape(-1, self._fixed_width)
        fields = lines[:, 1:].reshape(-1, len(self._fixed_columns))
        copies = np.ones((len(fields), len(self._copy_fields)), dtype=np.int64)
        copies[:, self._fixed_columns] = fields
        lengths = np.full(len(copies), -1, dtype=np.int64)
        attempts = np.empty((0, len(self._attempt_fields)), dtype=np.int64)
        return lines[:, 0], copies, lengths, attempts

    def _parse_general(self, data: bytes) -> tuple[np.ndarray, ...]:
        """Each number's field is read from the last byte of the key before
        it, and its section (packet index, copy or trace entry) from the
        keys before it, whose order the grammar fixes: ``i`` is the index,
        ``tW`` and ``ok`` belong to entries, and a ``Td`` (or ``Ta``) is
        an entry's iff the key one (or two) before it is ``tW``.
        """
        u = np.frombuffer(data, dtype=np.uint8)
        colons = np.flatnonzero(u == ord(":"))
        after = u[colons + 1]
        opens = colons[after == ord("[")]  # of '"copies":[' and '"trace":['
        colons = colons[(after != ord("[")) & (after != ord('"'))]  # the rest precede numbers
        key = u[colons - 2]
        values = np.fromstring(data.translate(_NUMBERS_ONLY), dtype=np.int64, sep=" ")

        in_index = key == ord("i")
        tw = key == ord("W")
        in_trace = tw | (key == ord("k"))
        in_trace[1:] |= tw[:-1] & (key[1:] == ord("d"))
        in_trace[2:] |= tw[:-2] & (key[2:] == ord("a"))
        in_copy = ~(in_trace | in_index)
        copies = _field_rows(key[in_copy], values[in_copy], self._copy_fields)
        attempts = _field_rows(key[in_trace], values[in_trace], self._attempt_fields)

        lengths = np.full(len(copies), -1, dtype=np.int64)
        # a copy's trace opens with '"trace":[' (the key ends in 'e', unlike
        # '"copies":['), so an empty trace counts as present
        traces = opens[u[opens - 2] == ord("e")]
        if len(traces):
            is_loss = key == ord("l")
            traced = np.searchsorted(colons[is_loss], traces) - 1
            copy_of = np.cumsum(is_loss) - 1  # the copy of each number
            lengths[traced] = np.bincount(copy_of[tw], minlength=len(copies))[traced]
        return values[in_index], copies, lengths, attempts


_TEN = np.uint64(10)


class BlockFormatter:
    """Formatter of blocks of packet lines in the layout of ``encode_log``
    for a run with channels labelled ``labels``; the inverse of
    :class:`BlockParser`."""

    def __init__(self, labels: Sequence[str]):
        # json.dumps escapes every control and non-ASCII character, so no
        # line holds a NUL byte, and NUL can pad the byte matrix
        encoded = [json.dumps(label).encode() for label in labels]
        self._heads = [b',"copies":[{"ch":%s,"l":' % encoded[0]]
        self._heads += [b',{"ch":%s,"l":' % e for e in encoded[1:]]

    def format(
        self,
        index: np.ndarray,
        copies: Sequence[np.ndarray],
        lengths: np.ndarray,
        attempts: Sequence[np.ndarray],
    ) -> str:
        """Text of a block of packet lines from the arrays that
        :meth:`BlockParser.parse` returns, as columns: the packet indices,
        the packet-major copy columns in copy row order, the trace length
        per copy (-1 where a copy has no trace) and the attempt columns of
        the traced copies in attempt row order.

        Each copy and each trace entry is one row, in output order: a
        copy's row is followed by its entries' rows.
        """
        lost, req, end, w, td, has_td, ta, has_ta = copies
        start, data, ack, has_ack, ok = attempts
        m = len(self._heads)
        span = np.maximum(lengths, 0) + 1  # rows of a copy: its own and its entries'
        copy_row = np.cumsum(span) - span
        rows = len(lengths) + len(start)
        entry = np.ones(rows, dtype=bool)
        entry[copy_row] = False
        entry_row, copy = np.flatnonzero(entry), ~entry
        channel = [np.zeros(rows, dtype=bool) for _ in range(m)]
        for j, on_channel in enumerate(channel):
            on_channel[copy_row[j::m]] = True

        def per_row(copy_values, entry_values=0):
            values = np.zeros(rows, dtype=np.int64)
            values[copy_row] = copy_values
            values[entry_row] = entry_values
            return values

        index_row = np.zeros(rows, dtype=np.int64)
        index_row[copy_row[::m]] = index
        # an entry's fields take the columns of copy fields: tW those of
        # t_T, Td of t_X, Ta of Td, and ok of Ta
        td_shown = per_row(has_td, has_ack).astype(bool)
        ta_shown = per_row(has_ta, 1).astype(bool)
        traced = np.repeat(lengths >= 0, span)  # the row's copy carries a trace
        ends = np.zeros(rows, dtype=bool)  # the last row of a copy
        ends[copy_row + span - 1] = True
        return _render(
            [
                [(b'{"i":', channel[0])],
                (index_row, channel[0]),
                list(zip(self._heads, channel)),
                (per_row(lost), copy),
                [(b',"t_T":', copy), (b'{"tW":', entry)],
                (per_row(req, start), np.ones(rows, dtype=bool)),
                [(b',"t_X":', copy), (b',"Td":', entry)],
                (per_row(end, data), np.ones(rows, dtype=bool)),
                [(b',"w":', copy)],
                (per_row(w), copy),
                [(b',"Td":', copy & td_shown), (b',"Ta":', entry & td_shown)],
                (per_row(td, ack) * td_shown, td_shown),
                [(b',"Ta":', copy & ta_shown), (b',"ok":', entry)],
                (per_row(ta, ok) * ta_shown, ta_shown),
                [(b',"trace":[', copy & traced), (b"},", entry & ~ends), (b"}", entry & ends)],
                [(b"]}", ends & traced), (b"}", ends & ~traced)],
                [(b"]}\n", ends & channel[-1][copy_row].repeat(span))],
            ],
            rows,
        )


def _render(fields: list, rows: int) -> str:
    """Text of ``rows`` rows, each the concatenation of ``fields``. A field
    is a list of (literal, the rows that show it) pairs, or a pair of int64
    values and the rows that show them; a value not shown must be 0.

    Every field has a fixed range of columns in a byte matrix whose rows
    are NUL where they show nothing. Numbers are right-aligned, their sign
    in the first column of the range. The rows without their NULs are the
    text.
    """
    laid, width = [], 0
    for field in fields:
        if isinstance(field, list):
            field = [(text, shown) for text, shown in field if shown.any()]
            size = max((len(text) for text, _ in field), default=0)
        elif field[1].any():
            values, shown = field
            negative = values < 0
            magnitude = np.where(negative, -values, values).view(np.uint64)  # INT64_MIN too
            digits = len(str(magnitude.max()))
            size = negative.any() + digits
            field = (magnitude, shown, negative, digits)
        else:
            continue
        width += size
        laid.append((width, size, field))

    matrix = np.zeros((width, rows), dtype=np.uint8)
    tens = np.empty(rows, dtype=np.uint8)
    for stop, size, field in laid:
        if isinstance(field, list):
            for text, shown in field:
                code = np.frombuffer(text.ljust(size, b"\0"), dtype=np.uint8)
                matrix[stop - size : stop] += code[:, None] * shown.view(np.uint8)
            continue
        q, shown, negative, digits = field
        if size > digits:
            matrix[stop - size] = negative.view(np.uint8) * np.uint8(ord("-"))
        for col in range(stop - 1, stop - 1 - digits, -1):
            # the digit q - 10 * (q // 10) is below 256, so the low bytes give it
            nxt = q // _TEN
            np.copyto(matrix[col], q, casting="unsafe")
            np.copyto(tens, nxt, casting="unsafe")
            tens *= 10
            matrix[col] -= tens
            show = shown if col == stop - 1 else q != 0  # no leading zeros
            matrix[col] += show.view(np.uint8) * np.uint8(ord("0"))
            q = nxt
    return matrix.T.tobytes().translate(None, b"\0").decode("ascii")

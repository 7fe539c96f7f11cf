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
line: every number follows a ``:``, so one ``bytes.translate`` leaves
just the numbers for ``np.fromstring``. Numbers in the grammar have at
most 18 digits, so every value fits an int64. A block in which every copy
carries both final durations and no trace has the same numbers in the
same order on every line, so a reshape places them. In any other block
the key before each number names its column in a table with a row per
copy and per trace entry, the layout :class:`BlockFormatter` writes, and
the keys that open a row count the rows. Blocks in any other layout are
left to the line-by-line decoder of :mod:`prpwifi.trace`.
"""
from __future__ import annotations

import json
import re
from typing import IO, Iterator, Sequence

import numpy as np

# The keys of a copy's and of a trace entry's fields in row order; a
# repeated key is the presence flag of the optional field before it.
COPY_KEYS = ("l", "t_T", "t_X", "w", "Td", "Td", "Ta", "Ta")
ENTRY_KEYS = ("tW", "Td", "Ta", "Ta", "ok")

_NUMBER = r"-?+(?:0|[1-9][0-9]{0,17}+)"
_ENTRY = r'\{"tW":N,"Td":N(?:,"Ta":N)?+,"ok":N\}'.replace("N", _NUMBER)
# a copy entry after its '{"ch":<label>'
_COPY_REST = (
    r',"l":N,"t_T":N,"t_X":N,"w":N(?:,"Td":N)?+(?:,"Ta":N)?+'
    r'(?:,"trace":\[(?:E(?:,E)*+)?+\])?+\}'
).replace("E", _ENTRY).replace("N", _NUMBER)
# the same for a copy with both final durations and no trace
_FIXED_REST = r',"l":N,"t_T":N,"t_X":N,"w":N,"Td":N,"Ta":N\}'.replace("N", _NUMBER)
# every number in the layout follows a ':', so deleting all bytes but
# digits, '-' and ':', and turning ':' into a space, leaves the numbers
_COLON_TO_SPACE = bytes.maketrans(b":", b" ")
_NOT_NUMBER = bytes(c for c in range(256) if chr(c) not in "-0123456789:")
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


def _numbers(data: bytes) -> np.ndarray:
    """The numbers of a block in the layout, in file order."""
    return np.fromstring(data.translate(_COLON_TO_SPACE, _NOT_NUMBER), dtype=np.int64, sep=" ")


class BlockParser:
    """Parser of blocks of packet lines written by ``encode_log`` for a run
    with channels labelled ``labels``; rows come out laid out as
    ``COPY_KEYS`` and ``ENTRY_KEYS``."""

    def __init__(self, labels: Sequence[str]):
        def grammar(copy_rest: str) -> re.Pattern:
            copies = ",".join(
                r'\{"ch":' + re.escape(json.dumps(label)) + copy_rest for label in labels
            )
            return re.compile(r'(?:\{"i":%s,"copies":\[%s\]\}\n)*+' % (_NUMBER, copies))

        self._grammar = grammar(_COPY_REST)
        self._fixed = grammar(_FIXED_REST)
        encoded = [json.dumps(label).encode() for label in labels]
        self._heads = [b'{"ch":%s,' % e for e in encoded if _DISTURBING.intersection(e)]
        self._m = len(labels)
        # the columns of a fixed-layout copy's numbers: each key's first field
        self._fixed_columns = [COPY_KEYS.index(name) for name in dict.fromkeys(COPY_KEYS)]
        self._fixed_width = 1 + len(labels) * len(self._fixed_columns)  # numbers per line

        # A general block becomes one table with a row per copy and per
        # trace entry in file order. A row holds the copy fields, then the
        # entry fields a copy lacks, the packet index (on a line's first
        # copy), a copy's trace flag, a copy flag and a column for what is
        # dropped; a key names one column in both kinds of row.
        fields = COPY_KEYS + tuple(n for n in ENTRY_KEYS if n not in COPY_KEYS)
        index, traced, is_copy, dropped = range(len(fields), len(fields) + 4)
        width = dropped + 1
        # Per key byte (a key's last byte): ``step`` is the row width at the
        # keys that open a row (a copy's first field, an entry's first), so
        # the running sum of the steps at a key of a row is the start of the
        # next row; ``value`` and ``flag`` are the columns of the key's
        # number and of its presence flag, counted from there. The index,
        # '"copies"' and '"ch"' come before their copy's first field, where
        # the sum is the start of the copy's own row.
        step = np.zeros(256, dtype=np.intp)
        step[[ord(COPY_KEYS[0][-1]), ord(ENTRY_KEYS[0][-1])]] = width
        value = np.full(256, dropped - width, dtype=np.intp)
        flag = np.full(256, dropped - width, dtype=np.intp)
        for column, name in enumerate(fields):
            (flag if name in fields[:column] else value)[ord(name[-1])] = column - width
        flag[ord(COPY_KEYS[0][-1])] = is_copy - width
        flag[ord("e")] = traced - width  # '"trace":[', even when empty
        value[ord("i")], flag[ord("i")] = index, dropped
        for key in b"sh":  # '"copies":[' and '"ch":<label>'
            value[key] = flag[key] = dropped
        self._step, self._value, self._flag = step, value, flag
        self._numbered = np.ones(256, dtype=bool)  # the keys before a number
        self._numbered[list(b"seh")] = False
        self._width, self._index, self._traced, self._is_copy = width, index, traced, is_copy
        # a repeated attempt field is the presence flag, the last column of its name
        first = {name: fields.index(name) for name in fields}
        last = {name: column for column, name in enumerate(fields)}
        self._attempt_columns = [
            (last if name in ENTRY_KEYS[:k] else first)[name]
            for k, name in enumerate(ENTRY_KEYS)
        ]

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
        lines = _numbers(data).reshape(-1, self._fixed_width)
        fields = lines[:, 1:].reshape(-1, len(self._fixed_columns))
        copies = np.ones((len(fields), len(COPY_KEYS)), dtype=np.int64)
        copies[:, self._fixed_columns] = fields
        lengths = np.full(len(copies), -1, dtype=np.int64)
        attempts = np.empty((0, len(ENTRY_KEYS)), dtype=np.int64)
        return lines[:, 0], copies, lengths, attempts

    def _parse_general(self, data: bytes) -> tuple[np.ndarray, ...]:
        """Each colon's key is read from its last byte, two before the
        colon, and every colon but those of ``"copies"``, ``"ch"`` and
        ``"trace"`` precedes a number. The keys that open a row number the
        rows, so two scatters place every number and presence flag in the
        table; the copy rows and the entry rows are then taken apart.
        """
        u = np.frombuffer(data, dtype=np.uint8)
        key = u[np.flatnonzero(u == ord(":")) - 2]
        start = np.cumsum(self._step.take(key))
        table = np.zeros(start[-1], dtype=np.int64)  # the last key is in the last row
        table[start + self._flag.take(key)] = 1
        at = start + self._value.take(key)
        table[at[self._numbered.take(key)]] = _numbers(data)
        table = table.reshape(-1, self._width)

        is_copy = table[:, self._is_copy].astype(bool)
        copies = table[is_copy]
        attempts = table[~is_copy].take(self._attempt_columns, axis=1)
        # the rows between a copy's row and the next copy's are its trace
        # entries; a copy without a trace has none and length -1
        first = np.flatnonzero(is_copy)
        lengths = copies[:, self._traced] - 2
        lengths[:-1] += first[1:]
        lengths[-1] += len(table)
        lengths -= first
        return copies[:: self._m, self._index], copies[:, : len(COPY_KEYS)], lengths, attempts


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

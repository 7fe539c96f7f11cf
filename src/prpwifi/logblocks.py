"""Run-log packet lines in the exact layout of ``encode_log``, in blocks.

``encode_log`` writes every packet line the same way: keys in a fixed
order, no whitespace, the channels in header order, ASCII only. This
module owns that layout in both directions.

:class:`BlockFormatter` writes a block of packet lines from one byte
matrix: a row per copy, holding its first trace entry too, and per later
entry; every literal and number a fixed range of columns. The parts a
row lacks stay NUL and are dropped when the matrix is read out.

:class:`BlockParser` checks a block of whole lines in that layout with a
regex and parses its numbers with numpy instead of one ``json.loads`` per
line: every number follows a ``:``, so one ``bytes.translate`` leaves
just the numbers for ``np.fromstring``. Numbers in the grammar have at
most 18 digits, so every value fits an int64, and a frame duration is
positive, so 0 is free to stand for one that a copy does not carry. A
block in which every copy carries both final durations and no trace has
the same numbers in the same order on every line, so a reshape places
them. In any other block the key before each number names its column in
a table with a row per copy and per trace entry, and the keys that open
a row count the rows. Blocks in any other layout, including lines that
break those rules, are left to the line-by-line decoder of
:mod:`prpwifi.trace`.

:func:`line_blocks` cuts a log into blocks of whole lines: a fixed number
of characters, then the rest of the line they end in.
"""
from __future__ import annotations

import json
import re
from typing import IO, Iterator, Sequence

import numpy as np

# The keys of a copy's and of a trace entry's fields in row order; an
# absent Td or Ta is 0 in its row, and a copy without a trace has no
# entry rows. A trace entry ends with "ok": 1 after a Ta, else 0; its row
# does not hold it.
COPY_KEYS = ("l", "t_T", "t_X", "w", "Td", "Ta")
ENTRY_KEYS = ("tW", "Td", "Ta")

_POSITIVE = r"[1-9][0-9]{0,17}+"
_NUMBER = r"-?+(?:0|%s)" % _POSITIVE
# frame durations (P) are positive
_ENTRY = r'\{"tW":N,"Td":P(?:,"Ta":P,"ok":1|,"ok":0)\}'
# a copy entry after its '{"ch":<label>'; a trace holds at least one entry
_COPY_REST = (
    r',"l":N,"t_T":N,"t_X":N,"w":N(?:,"Td":P)?+(?:,"Ta":P)?+(?:,"trace":\[E(?:,E)*+\])?+\}'
).replace("E", _ENTRY).replace("P", _POSITIVE).replace("N", _NUMBER)
# the same for a copy with both final durations and no trace
_FIXED_REST = (
    r',"l":N,"t_T":N,"t_X":N,"w":N,"Td":P,"Ta":P\}'
).replace("P", _POSITIVE).replace("N", _NUMBER)
# every number in the layout follows a ':', so deleting all bytes but
# digits, '-' and ':', and turning ':' into a space, leaves the numbers
_COLON_TO_SPACE = bytes.maketrans(b":", b" ")
_NOT_NUMBER = bytes(c for c in range(256) if chr(c) not in "-0123456789:")
# label bytes that the parse would take for numbers, keys or brackets
_DISTURBING = frozenset(b"-0123456789:[]")


def line_blocks(source: IO[str], size: int) -> Iterator[str]:
    """The rest of ``source`` in blocks of whole lines: ``size`` characters,
    then the rest of the line they end in. Only the last block may lack a
    final newline."""
    while block := source.read(size):
        block += source.readline()
        yield block


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
        self._fixed_width = 1 + len(labels) * len(COPY_KEYS)  # numbers per line

        # A general block becomes one table with a row per copy and per
        # trace entry in file order. A row holds the copy fields, then the
        # entry fields a copy lacks, then the packet index (on a line's
        # first copy); a key names one column in both kinds of row.
        fields = COPY_KEYS + tuple(n for n in (*ENTRY_KEYS, "ok") if n not in COPY_KEYS)
        self._width = width = len(fields) + 1
        # Per key byte (a key's last byte): ``step`` is the row width at the
        # keys that open a row (a copy's first field, an entry's first), so
        # the running sum of the steps at a key of a row is the start of the
        # next row; ``value`` is the column of the key's number, counted
        # from there. The index comes before its copy's first field, where
        # the sum is the start of the copy's own row.
        self._opens_copy = ord(COPY_KEYS[0][-1])
        step = np.zeros(256, dtype=np.intp)
        step[[self._opens_copy, ord(ENTRY_KEYS[0][-1])]] = width
        value = np.zeros(256, dtype=np.intp)
        for column, name in enumerate(fields):
            value[ord(name[-1])] = column - width
        value[ord("i")] = len(fields)
        self._step, self._value = step, value
        # the keys before a number: all but '"copies"', '"trace"' and '"ch"'
        self._numbered = np.ones(256, dtype=bool)
        self._numbered[list(b"seh")] = False
        self._attempt_columns = [fields.index(name) for name in ENTRY_KEYS]

    def parse(self, text: str) -> tuple[np.ndarray, ...] | None:
        """(packet indices, copy rows, trace lengths, attempt rows) of a
        block of whole lines in file order, or None if the block is not in
        the encoder's layout. A trace length is 0 where a copy has no
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
        one number per key of each copy."""
        lines = _numbers(data).reshape(-1, self._fixed_width)
        copies = lines[:, 1:].reshape(-1, len(COPY_KEYS))
        lengths = np.zeros(len(copies), dtype=np.int64)
        attempts = np.empty((0, len(ENTRY_KEYS)), dtype=np.int64)
        return lines[:, 0], copies, lengths, attempts

    def _parse_general(self, data: bytes) -> tuple[np.ndarray, ...]:
        """Each colon's key is read from its last byte, two before the
        colon, and every colon but those of ``"copies"``, ``"ch"`` and
        ``"trace"`` precedes a number. The keys that open a row number the
        rows and tell copies from entries, so one scatter places every
        number in the table; the copy rows and the entry rows are then
        taken apart.
        """
        u = np.frombuffer(data, dtype=np.uint8)
        key = u[np.flatnonzero(u == ord(":")) - 2]
        step = self._step.take(key)
        start = np.cumsum(step)
        table = np.zeros(start[-1], dtype=np.int64)  # the last key is in the last row
        at = start + self._value.take(key)
        table[at[self._numbered.take(key)]] = _numbers(data)
        table = table.reshape(-1, self._width)

        is_copy = key[step > 0] == self._opens_copy
        copies = table[is_copy]
        attempts = table[~is_copy].take(self._attempt_columns, axis=1)
        # the rows between a copy's row and the next copy's are its trace
        # entries
        lengths = np.diff(np.flatnonzero(is_copy), append=len(table)) - 1
        return copies[:: self._m, -1], copies[:, : len(COPY_KEYS)], lengths, attempts


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
        per copy (0 where a copy has no trace) and the attempt columns of
        the traced copies in attempt row order. A duration of 0 is not
        shown.

        Each copy is one row, with its first trace entry in columns after
        the copy's fields, and is followed by a row of its own for each
        later entry, which shows only the entry columns.
        """
        start, data, ack = attempts
        m = len(self._heads)
        span = np.maximum(lengths, 1)  # rows of a copy: its own and its later entries'
        copy_row = np.cumsum(span) - span
        rows = len(lengths) + len(start) - np.count_nonzero(lengths)
        copy = np.zeros(rows, dtype=bool)
        copy[copy_row] = True
        channel = [np.zeros(rows, dtype=bool) for _ in range(m)]
        for j, on_channel in enumerate(channel):
            on_channel[copy_row[j::m]] = True

        def per_row(values, at):
            spread = np.zeros(rows, dtype=np.int64)
            spread[at] = values
            return spread

        lost, req, end, w, td, ta = (per_row(c, copy_row) for c in copies)
        td_shown, ta_shown = td != 0, ta != 0
        fields = [
            [(b'{"i":', channel[0])],
            (per_row(index, copy_row[::m]), channel[0]),
            list(zip(self._heads, channel)),
            (lost, copy),
            [(b',"t_T":', copy)],
            (req, copy),
            [(b',"t_X":', copy)],
            (end, copy),
            [(b',"w":', copy)],
            (w, copy),
            [(b',"Td":', td_shown)],
            (td, td_shown),
            [(b',"Ta":', ta_shown)],
            (ta, ta_shown),
        ]
        closers = [(b"}", copy)]
        if len(start):  # the entry columns, only for a block with traces
            entry = np.ones(rows, dtype=bool)
            entry[copy_row] = lengths > 0
            entry_row = np.flatnonzero(entry)
            ends = np.append(copy[1:], True)  # the last row of a copy
            ack = per_row(ack, entry_row)
            ack_shown = ack != 0
            fields += [
                [(b',"trace":[', copy & entry)],
                [(b'{"tW":', entry)],
                (per_row(start, entry_row), entry),
                [(b',"Td":', entry)],
                (per_row(data, entry_row), entry),
                [(b',"Ta":', ack_shown)],
                (ack, ack_shown),
                [(b',"ok":', entry)],
                (ack_shown.astype(np.int64), entry),
            ]
            closers = [(b"}", ~entry), (b"},", entry & ~ends), (b"}]}", entry & ends)]
        line_end = np.append(channel[0][1:], True)  # the last row of a line
        return _render([*fields, closers, [(b"]}\n", line_end)]], rows)


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

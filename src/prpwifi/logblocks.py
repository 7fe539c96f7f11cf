"""Run-log packet lines in the exact layout of ``encode_log``, in blocks.

``encode_log`` writes every packet line the same way: keys in a fixed
order, no whitespace, the channels in header order, ASCII only. This
module owns that layout in both directions.

:class:`BlockFormatter` writes a block of packet lines from one byte
matrix: a row per copy, holding its first trace entry too, and per later
entry; each field, a literal and any number after it, a fixed range of
columns. The parts a row lacks stay NUL and are dropped when the matrix
is read out.

:class:`BlockParser` parses a block of whole lines in that layout with
numpy instead of one ``json.loads`` per line: every number follows a
``:``, so one ``bytes.translate`` leaves just the numbers for
``np.fromstring``. Numbers in the layout have at most 18 digits, so every
value fits an int64, and a frame duration is positive, so 0 is free to
stand for one that a copy does not carry. A block in which every copy
carries both final durations and no trace is one line repeated with other
numbers: it is checked against that line's skeleton and its numbers'
digits, with no regex, and a reshape places the numbers. Any other block
is checked by a regex; there the key before each number names its column
in a table with a row per copy and per trace entry, and the keys that open
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
# every number in the layout follows a ':', so deleting all bytes but
# digits, '-' and ':', and turning ':' into a space, leaves the numbers
_COLON_TO_SPACE = bytes.maketrans(b":", b" ")
_NOT_NUMBER = bytes(c for c in range(256) if chr(c) not in "-0123456789:")
# ... and precedes a ',' or '}': with those as spaces too, each token is
# what lies between two of them, so no digits outside a number join it
_BOUNDS_TO_SPACE = bytes.maketrans(b":,}", b"   ")
_NOT_NUMBER_OR_BOUND = bytes(c for c in range(256) if chr(c) not in "-0123456789:,}")
_SIGNED_DIGITS = b"-0123456789"
_LIMIT = 10**18  # numbers have at most 18 digits
_COLON, _COMMA, _BRACE, _MINUS, _ZERO = b":,}-0"
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
        copies = ",".join(
            r'\{"ch":' + re.escape(json.dumps(label)) + _COPY_REST for label in labels
        )
        self._grammar = re.compile(r'(?:\{"i":%s,"copies":\[%s\]\}\n)*+' % (_NUMBER, copies))
        # each head of a label holding a disturbing byte becomes a mark of
        # its own: a code point past ASCII, which no checked block holds
        encoded = [json.dumps(label).encode() for label in labels]
        self._marks, heads = [], []
        for j, e in enumerate(encoded):
            head = b'{"ch":%s,' % e
            if _DISTURBING.intersection(e):
                self._marks.append((head, chr(0x10000 + j).encode()))
                head = self._marks[-1][1]
            heads.append(head)
        # a fixed-layout line without its numbers
        fields = b",".join(b'"%s":' % key.encode() for key in COPY_KEYS)
        copies = b",".join(head + fields + b"}" for head in heads)
        self._skeleton = b'{"i":,"copies":[%s]}\n' % copies
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
        if not text.isascii():
            return None
        # cut out the labels holding digits, '-', ':' or brackets, so that
        # every such byte left belongs to the layout
        data = text.encode("ascii")
        for head, mark in self._marks:
            data = data.replace(head, mark)
        if (lines := self._fixed_lines(data)) is not None:
            return self._parse_fixed(lines)
        if self._grammar.fullmatch(text) is None:
            return None
        return self._parse_general(data)

    def _fixed_lines(self, data: bytes) -> np.ndarray | None:
        """The numbers of a block in the fixed layout, a row per line, or
        None if the block is in another layout.

        Without its digits and '-', such a block is the skeleton repeated
        once per line. Each ':' before a number is then followed by ',' or
        '}' there, and in the block it must be followed by the number
        itself: so no number is empty, and with those three bytes as
        separators, every token is a number's, else there are more tokens
        than numbers. A token is a number in the form of ``_NUMBER`` when
        a '-' only opens it and precedes a digit, it has no leading zero
        and it is below 10^18 in size. ``np.fromstring`` does not refuse
        the rest: it joins a '-' to the next token, and reads a lone '-' as
        0, which at the end of the block is one number too many.
        """
        skeleton = self._skeleton
        first = data[: data.find(b"\n") + 1]
        if data and first.translate(None, _SIGNED_DIGITS) != skeleton:
            return None  # a block out of the layout mostly stops here
        rest = data.translate(None, _SIGNED_DIGITS)
        k = len(rest) // len(skeleton)
        if rest != skeleton * k:
            return None
        u = np.frombuffer(data, dtype=np.uint8)
        after = u[1:]
        if ((u[:-1] == _COLON) & ((after == _COMMA) | (after == _BRACE))).any():
            return None  # an empty number
        tokens = data.translate(_BOUNDS_TO_SPACE, _NOT_NUMBER_OR_BOUND)
        t = np.frombuffer(tokens, dtype=np.uint8)  # spaces, '-' and digits
        digit = t >= _ZERO
        if _MINUS in tokens:
            minus = t == _MINUS
            if (minus[1:] & digit[:-1]).any() or (minus[:-1] & ~digit[1:]).any():
                return None
        if ((t[1:-1] == _ZERO) & ~digit[:-2] & digit[2:]).any():
            return None  # a leading zero
        values = np.fromstring(tokens, dtype=np.int64, sep=" ")
        if len(values) != k * self._fixed_width:
            return None
        if values.min(initial=0) <= -_LIMIT or values.max(initial=0) >= _LIMIT:
            return None
        lines = values.reshape(k, self._fixed_width)
        td = 1 + COPY_KEYS.index("Td")  # the columns of the copies' Td and Ta
        if min(lines[:, c :: len(COPY_KEYS)].min(initial=1) for c in (td, td + 1)) <= 0:
            return None
        return lines

    def _parse_fixed(self, lines: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every copy has the same keys, so each line is the index and then
        one number per key of each copy."""
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
        self._keys = [b',"%s":' % key.encode() for key in COPY_KEYS]
        # a copy's head: its label, then the key of its first field
        self._heads = [b',"copies":[{"ch":%s' % encoded[0] + self._keys[0]]
        self._heads += [b',{"ch":%s' % e + self._keys[0] for e in encoded[1:]]

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

        values = [per_row(c, copy_row) for c in copies]
        shown = [v != 0 if key in ("Td", "Ta") else copy for key, v in zip(COPY_KEYS, values)]
        fields = [
            ([(b'{"i":', channel[0])], per_row(index, copy_row[::m])),
            (list(zip(self._heads, channel)), values[0]),
            *(([(key, on)], v) for key, on, v in zip(self._keys[1:], shown[1:], values[1:])),
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
                ([(b',"trace":[', copy & entry)], None),
                ([(b'{"tW":', entry)], per_row(start, entry_row)),
                ([(b',"Td":', entry)], per_row(data, entry_row)),
                ([(b',"Ta":', ack_shown)], ack),
                ([(b',"ok":', entry)], ack_shown.astype(np.int64)),
            ]
            closers = [(b"}", ~entry), (b"},", entry & ~ends), (b"}]}", entry & ends)]
        line_end = np.append(channel[0][1:], True)  # the last row of a line
        return _render([*fields, (closers, None), ([(b"]}\n", line_end)], None)], rows)


def _render(fields: list, rows: int) -> str:
    """Text of ``rows`` rows, each the concatenation of ``fields``. A field
    is a list of (literal, the rows that show it) choices, then int64
    values or None; the values are shown on the rows that show one of the
    field's literals, and a value not shown must be 0.

    Every field has a fixed range of columns in a byte matrix whose rows
    are NUL where they show nothing: its literal's, then its number's,
    right-aligned after a sign column if any value is negative. The rows
    without their NULs are the text.
    """
    laid, width = [], 0
    for choices, values in fields:
        choices = [(text, shown) for text, shown in choices if shown.any()]
        if not choices:
            continue
        size = max(len(text) for text, _ in choices)
        number, signed, digits = None, 0, 0
        if values is not None:
            negative = values < 0
            magnitude = np.where(negative, -values, values).view(np.uint64)  # INT64_MIN too
            shown = np.logical_or.reduce([s for _, s in choices])
            number = (magnitude, shown, negative)
            signed, digits = negative.any(), len(str(magnitude.max()))
        laid.append((width, size, choices, number, signed, digits))
        width += size + signed + digits

    matrix = np.zeros((width, rows), dtype=np.uint8)
    tens = np.empty(rows, dtype=np.uint8)
    for at, size, choices, number, signed, digits in laid:
        for text, shown in choices:
            code = np.frombuffer(text.ljust(size, b"\0"), dtype=np.uint8)
            matrix[at : at + size] += code[:, None] * shown.view(np.uint8)
        if number is None:
            continue
        q, shown, negative = number
        at += size
        if signed:
            matrix[at] = negative.view(np.uint8) * np.uint8(ord("-"))
        last = at + signed + digits - 1
        for col in range(last, last - digits, -1):
            # the digit q - 10 * (q // 10) is below 256, so the low bytes give it
            nxt = q // _TEN
            np.copyto(matrix[col], q, casting="unsafe")
            np.copyto(tens, nxt, casting="unsafe")
            tens *= 10
            matrix[col] -= tens
            show = shown if col == last else q != 0  # no leading zeros
            matrix[col] += show.view(np.uint8) * np.uint8(ord("0"))
            q = nxt
    return matrix.T.tobytes().translate(None, b"\0").decode("ascii")

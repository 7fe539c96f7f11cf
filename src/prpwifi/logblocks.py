"""Block parsing of run-log packet lines in the exact layout of ``encode_log``.

``encode_log`` writes every packet line the same way: keys in a fixed
order, no whitespace, the channels in header order, ASCII only. A block of
whole lines in that layout is checked by one regex, and its numbers are
parsed by numpy instead of one ``json.loads`` per line. Numbers in the
grammar have at most 18 digits, so every value fits an int64. Blocks in
any other layout are left to the line-by-line decoder of
:mod:`prpwifi.trace`.
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
    first = key == ord(fields[0][-1])
    row_of = np.cumsum(first) - 1
    rows = np.zeros((np.count_nonzero(first), len(fields)), dtype=np.int64)
    rows[row_of, value_column[key]] = values
    optional = presence_column[key] > 0
    rows[row_of[optional], presence_column[key[optional]]] = 1
    return rows


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
        copies = ",".join(
            r'\{"ch":' + re.escape(json.dumps(label)) + _COPY_REST for label in labels
        )
        self._grammar = re.compile(r'(?:\{"i":%s,"copies":\[%s\]\}\n)*+' % (_NUMBER, copies))
        encoded = [json.dumps(label).encode() for label in labels]
        self._heads = [b'{"ch":%s,' % e for e in encoded if _DISTURBING.intersection(e)]
        self._copy_fields = copy_fields
        self._attempt_fields = attempt_fields

    def parse(self, text: str) -> tuple[np.ndarray, ...] | None:
        """(packet indices, copy rows, trace lengths, attempt rows) of a
        block of whole lines in file order, or None if the block is not in
        the encoder's layout. A trace length is -1 where a copy has no
        trace.

        Each number's field is read from the last byte of the key before
        it and from its bracket depth: 0 for the packet index, 1 for copy
        fields, 2 for trace entries.
        """
        if self._grammar.fullmatch(text) is None:
            return None
        data = text.encode("ascii")
        for head in self._heads:
            data = data.replace(head, b"{")
        u = np.frombuffer(data, dtype=np.uint8)
        colons = np.flatnonzero(u == ord(":"))
        after = u[colons + 1]
        colons = colons[(after != ord("[")) & (after != ord('"'))]  # the rest precede numbers
        starts = colons + 1
        key = u[colons - 2]
        opens = np.flatnonzero(u == ord("["))
        closes = np.flatnonzero(u == ord("]"))
        depth = np.searchsorted(opens, starts) - np.searchsorted(closes, starts)
        values = np.fromstring(data.translate(_NUMBERS_ONLY), dtype=np.int64, sep=" ")

        in_copy, in_trace = depth == 1, depth == 2
        copies = _field_rows(key[in_copy], values[in_copy], self._copy_fields)
        copies[:, 0] = copies[:, 0] != 0  # loss flag
        attempts = _field_rows(key[in_trace], values[in_trace], self._attempt_fields)
        attempts[:, -1] = attempts[:, -1] != 0  # outcome flag

        # a copy's trace opens with '"trace":[' (the key ends in 'e', unlike
        # '"copies":['), so an empty trace counts as present
        copy_starts = starts[in_copy & (key == ord("l"))]
        traced = np.searchsorted(copy_starts, opens[u[opens - 3] == ord("e")]) - 1
        trace_lengths = np.bincount(
            np.searchsorted(copy_starts, starts[in_trace & (key == ord("W"))]) - 1,
            minlength=len(copy_starts),
        )
        lengths = np.full(len(copy_starts), -1, dtype=np.int64)
        lengths[traced] = trace_lengths[traced]
        return values[depth == 0], copies, lengths, attempts

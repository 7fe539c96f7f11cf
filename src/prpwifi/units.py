"""Duration parsing.

All simulator and analysis code keeps time as integer nanoseconds; durations
are parsed only at the boundaries (config files, CLI flags).
"""
from __future__ import annotations

import re
from fractions import Fraction

_SUFFIXES = {
    "ns": 1,
    "us": 1_000,
    "ms": 1_000_000,
    "s": 1_000_000_000,
}

_DURATION_RE = re.compile(r"^([+-]?[0-9]+(?:\.[0-9]+)?)\s*(ns|us|ms|s)?$")


def parse_duration_ns(text: str) -> int:
    """Parse a duration like ``100us``, ``-50 us``, ``1.5ms`` or ``250`` (ns).

    A bare number is taken as nanoseconds. The result is an integer; values
    that do not land on a whole nanosecond are rejected.
    """
    m = _DURATION_RE.match(text.strip())
    if m is None:
        raise ValueError(f"invalid duration: {text!r}")
    number, suffix = m.groups()
    value = Fraction(number) * _SUFFIXES[suffix or "ns"]
    if value.denominator != 1:
        raise ValueError(f"duration {text!r} is not a whole number of ns")
    return int(value)

"""Duration parsing and formatting helpers.

All simulator and analysis code keeps time as integer nanoseconds; these
helpers exist only at the boundaries (config files, CLI flags, reports).
"""
from __future__ import annotations

import re

NS_PER_US = 1_000
NS_PER_MS = 1_000_000
NS_PER_S = 1_000_000_000

_SUFFIXES = {
    "ns": 1,
    "us": NS_PER_US,
    "ms": NS_PER_MS,
    "s": NS_PER_S,
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
    scale = _SUFFIXES[suffix or "ns"]
    if "." in number:
        value = float(number) * scale
        if abs(value - round(value)) > 1e-6:
            raise ValueError(f"duration {text!r} is not a whole number of ns")
        return round(value)
    return int(number) * scale


def ns_to_us(value_ns: int | float) -> float:
    return value_ns / NS_PER_US


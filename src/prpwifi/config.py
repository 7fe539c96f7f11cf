"""Key=value simulation config files.

Format: one ``key = value`` pair per line, ``#`` starts a comment. Durations
take ns/us/ms/s suffixes (bare numbers are ns). Channel-specific keys are
prefixed with the channel label (``B.interferers = 2``); unprefixed channel
keys set the default for every channel, and a prefixed key overrides it.
A later line overrides an earlier one with the same key. A key left unset
keeps the default of the dataclass field it fills.

Run-level keys:
    channels            comma-separated labels, default ``A,B``
    packets             number of packets (required)
    period              generation period
    seed                master seed
    full_trace          record per-attempt traces
    deferral            signed request displacement (positive defers the
                        second channel, negative the first)
    margin              interference horizon margin past the last request

Per-channel (or global default) keys:
    sifs ack_timeout slot difs data_frame ack_frame   durations
    data_frame_schedule                               comma durations
    cw_min cw_max retry_limit                         integers
    loss_prob                                         float in [0, 1]
    interferers burst_cap                             integers
    payload_airtime burst_spacing gap_mean gap_cap    durations
    burst_mean                                        float
    seed_salt                                         string
"""
from __future__ import annotations

import os
from dataclasses import replace

from .sim import ChannelSetup, SimConfig
from .trace import PHY_HEADER, ChannelId
from .units import parse_duration_ns


class ConfigError(ValueError):
    """Bad configuration file content."""


def _parse_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"expected a boolean, got {value!r}")


def _labels(value: str) -> tuple[str, ...]:
    labels = tuple(label.strip() for label in value.split(",") if label.strip())
    if len(labels) != len(set(labels)):
        raise ValueError("duplicate channel labels")
    return labels


def _durations(value: str) -> tuple[int, ...]:
    return tuple(parse_duration_ns(part) for part in value.split(","))


# every key as (part, field, parser): part None is the SimConfig itself, any
# other part is that field of ChannelSetup (field None: the value itself)
_KEYS = {
    "channels": (None, "channels", _labels),
    "packets": (None, "n_packets", int),
    "period": (None, "period_ns", parse_duration_ns),
    "seed": (None, "seed", int),
    "full_trace": (None, "emit_full_trace", _parse_bool),
    "deferral": (None, "deferral_ns", parse_duration_ns),
    "margin": (None, "interference_margin_ns", parse_duration_ns),
    **{
        key: ("phy", field, _durations if field == "data_frame_schedule_ns"
              else parse_duration_ns if field.endswith("_ns") else int)
        for key, field, _ in PHY_HEADER.keys
    },
    "loss_prob": ("loss_prob", None, float),
    "interferers": ("interference", "interferer_count", int),
    "burst_cap": ("interference", "burst_len_cap", int),
    "payload_airtime": ("interference", "payload_airtime_ns", parse_duration_ns),
    "burst_spacing": ("interference", "intra_burst_spacing_ns", parse_duration_ns),
    "gap_mean": ("interference", "gap_mean_ns", parse_duration_ns),
    "gap_cap": ("interference", "gap_cap_ns", parse_duration_ns),
    "burst_mean": ("interference", "burst_len_mean", float),
    "seed_salt": ("seed_salt", None, str),
}


def parse_config(text: str, source: str = "<config>") -> SimConfig:
    run: dict = {}
    defaults: dict = {}
    per_channel: dict[str, dict] = {}
    first_use: dict[str, str] = {}  # per channel label, its first line's error
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        where = f"{source}:{lineno}"
        if "=" not in line:
            raise ConfigError(f"{where}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        label, dot, name = key.rpartition(".")
        if name not in _KEYS or (dot and _KEYS[name][0] is None):
            raise ConfigError(f"{where}: unknown {'channel key' if dot else 'key'} {name!r}")
        part, field, parse = _KEYS[name]
        try:
            parsed = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {key}: {exc}") from None
        if part is None:
            run[field] = parsed
        elif dot:
            first_use.setdefault(label, f"{where}: unknown channel {label!r} in {key!r}")
            per_channel.setdefault(label, {})[part, field] = parsed
        else:
            defaults[part, field] = parsed

    labels = run.pop("channels", ("A", "B"))
    for label, error in first_use.items():
        if label not in labels:
            raise ConfigError(error)
    if "n_packets" not in run:
        raise ConfigError(f"{source}: 'packets' is required")
    try:
        config = SimConfig(
            channels=tuple(
                _channel(index, label, {**defaults, **per_channel.get(label, {})})
                for index, label in enumerate(labels)
            ),
            **run,
        )
        config.validate()
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return config


def _channel(index: int, label: str, values: dict) -> ChannelSetup:
    setup = ChannelSetup(channel=ChannelId(index=index, label=label))
    parts = {}
    for (part, field), value in values.items():
        parts[part] = value if field is None else replace(
            parts.get(part, getattr(setup, part)), **{field: value}
        )
    return replace(setup, **parts)


def load_config(path: str | os.PathLike) -> SimConfig:
    path = os.fspath(path)
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the text before the bad byte, with a stand-in for it
        lines = (data[: exc.start].decode("utf-8") + "?").splitlines()
        raise ConfigError(
            f"{path}:{len(lines)}: byte 0x{data[exc.start]:02x} at column "
            f"{len(lines[-1])} is not valid UTF-8"
        ) from None
    return parse_config(text, source=path)

"""Key=value simulation config files.

Format: one ``key = value`` pair per line, ``#`` starts a comment. Durations
take ns/us/ms/s suffixes (bare numbers are ns). Channel-specific keys are
prefixed with the channel label (``B.interferers = 2``); unprefixed PHY,
error and interference keys set the default for every channel.

Run-level keys:
    channels            comma-separated labels, default ``A,B``
    packets             number of packets (required)
    period              generation period, default ``100ms``
    seed                master seed, default 1
    full_trace          record per-attempt traces, default true
    deferral            signed request displacement, default 0 (positive
                        defers the second channel)
    deferral_primary    optional label of the non-deferred channel
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

from .sim import (
    ChannelSetup,
    Deferral,
    ErrorModel,
    InterferenceParams,
    SimConfig,
)
from .trace import PHY_KEYS, ChannelId, PhyParams
from .units import parse_duration_ns


class ConfigError(ValueError):
    """Bad configuration file content."""


_RUN_KEYS = {
    "channels",
    "packets",
    "period",
    "seed",
    "full_trace",
    "deferral",
    "deferral_primary",
    "margin",
}

_INTF_DURATIONS = {
    "payload_airtime": "payload_airtime_ns",
    "burst_spacing": "intra_burst_spacing_ns",
    "gap_mean": "gap_mean_ns",
    "gap_cap": "gap_cap_ns",
}
_INTF_INTS = {"interferers": "interferer_count", "burst_cap": "burst_len_cap"}

_CHANNEL_KEYS = (
    set(PHY_KEYS)
    | set(_INTF_DURATIONS)
    | set(_INTF_INTS)
    | {"data_frame_schedule", "loss_prob", "burst_mean", "seed_salt"}
)


def _parse_bool(value: str, key: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigError(f"{key}: expected a boolean, got {value!r}")


def _pairs(text: str, source: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value'")
        key, value = line.split("=", 1)
        yield lineno, key.strip(), value.strip()


def parse_config(text: str, source: str = "<config>") -> SimConfig:
    run_values: dict[str, str] = {}
    defaults: dict[str, str] = {}
    per_channel: dict[str, dict[str, str]] = {}

    entries = []
    for lineno, key, value in _pairs(text, source):
        entries.append((lineno, key, value))
        if key == "channels":
            run_values[key] = value

    labels = [
        label.strip()
        for label in run_values.get("channels", "A,B").split(",")
        if label.strip()
    ]
    if len(labels) != len(set(labels)):
        raise ConfigError(f"{source}: duplicate channel labels")

    for lineno, key, value in entries:
        where = f"{source}:{lineno}"
        if "." in key:
            label, subkey = key.split(".", 1)
            if label not in labels:
                raise ConfigError(f"{where}: unknown channel {label!r} in {key!r}")
            if subkey not in _CHANNEL_KEYS:
                raise ConfigError(f"{where}: unknown channel key {subkey!r}")
            per_channel.setdefault(label, {})[subkey] = value
        elif key in _RUN_KEYS:
            run_values[key] = value
        elif key in _CHANNEL_KEYS:
            defaults[key] = value
        else:
            raise ConfigError(f"{where}: unknown key {key!r}")

    if "packets" not in run_values:
        raise ConfigError(f"{source}: 'packets' is required")

    try:
        channels = tuple(
            _build_channel(index, label, defaults, per_channel.get(label, {}))
            for index, label in enumerate(labels)
        )
        deferral = None
        if "deferral" in run_values:
            offset = parse_duration_ns(run_values["deferral"])
            if offset != 0:
                deferral = Deferral(
                    offset_ns=offset, primary=run_values.get("deferral_primary")
                )
        config = SimConfig(
            channels=channels,
            n_packets=int(run_values["packets"]),
            period_ns=parse_duration_ns(run_values.get("period", "100ms")),
            seed=int(run_values.get("seed", "1")),
            deferral=deferral,
            emit_full_trace=_parse_bool(
                run_values.get("full_trace", "true"), "full_trace"
            ),
        )
        if "margin" in run_values:
            config = replace(
                config, interference_margin_ns=parse_duration_ns(run_values["margin"])
            )
        config.validate()
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return config


def _build_channel(
    index: int, label: str, defaults: dict[str, str], overrides: dict[str, str]
) -> ChannelSetup:
    values = dict(defaults)
    values.update(overrides)

    phy_kwargs = {}
    for key, field in PHY_KEYS.items():
        if key in values:
            parse = parse_duration_ns if field.endswith("_ns") else int
            phy_kwargs[field] = parse(values[key])
    if "data_frame_schedule" in values:
        phy_kwargs["data_frame_schedule_ns"] = tuple(
            parse_duration_ns(part) for part in values["data_frame_schedule"].split(",")
        )

    intf_kwargs = {}
    for key, field in _INTF_DURATIONS.items():
        if key in values:
            intf_kwargs[field] = parse_duration_ns(values[key])
    for key, field in _INTF_INTS.items():
        if key in values:
            intf_kwargs[field] = int(values[key])
    if "burst_mean" in values:
        intf_kwargs["burst_len_mean"] = float(values["burst_mean"])

    errors = ErrorModel(attempt_loss_prob=float(values.get("loss_prob", "0")))
    return ChannelSetup(
        channel=ChannelId(index=index, label=label),
        phy=PhyParams(**phy_kwargs),
        interference=InterferenceParams(**intf_kwargs),
        errors=errors,
        seed_salt=values.get("seed_salt", ""),
    )


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

"""Spans around the public functions of each prpwifi layer, placed from outside.

The traced run replaces the module attributes that callers look up (for
example ``prpwifi.cli.generate_run`` or ``prpwifi.sim.interference_arrays``)
with wrappers that record a span per call, and restores them afterwards.
Nothing under ``src/`` is edited. Each CLI call is one root span (``cli``);
a layer's self time is its spans' duration minus that of their direct
children. Garbage-collector passes are timed through ``gc.callbacks``.
"""
from __future__ import annotations

import gc
import importlib
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# (module the caller looks the name up in, attribute, span name). One span
# name may be patched in several modules: ``validate_run`` is imported into
# ``sim`` and called as a global inside ``trace``.
PATCH_POINTS = (
    ("prpwifi.cli", "generate_run", "sim.generate_run"),
    ("prpwifi.sim", "interference_arrays", "sim.interference"),
    ("prpwifi.sim", "validate_run", "trace.validate"),
    ("prpwifi.trace", "validate_run", "trace.validate"),
    ("prpwifi.trace", "encode_log", "trace.encode"),
    ("prpwifi.trace", "decode_log", "trace.decode"),
    ("prpwifi.cli", "compute_report", "metrics.compute_report"),
    ("prpwifi.cli", "sweep", "metrics.sweep"),
    ("prpwifi.metrics", "latency_stats", "metrics.latency_stats"),
)

CLI_SPAN = "cli"  # the root span of each CLI call


def _generate_run_copies(args, kwargs) -> int:
    config = args[0] if args else kwargs["config"]
    return config.n_packets * len(config.channels)


def _sweep_points(args, kwargs) -> int:
    return len(args[1] if len(args) > 1 else kwargs["grid"])


# Work units a span records next to its duration (copies simulated, grid
# points evaluated), read from the call's arguments.
WORK_OF = {"sim.generate_run": _generate_run_copies, "metrics.sweep": _sweep_points}


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = 0.0
    work: int = 0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Recorder:
    """Spans and GC passes of one traced op, kept in memory.

    ``absent`` holds the span names whose patch point no longer exists in
    the program; their layer metrics are reported missing, never as zero.
    """

    spans: list[Span] = field(default_factory=list)
    stack: list[int] = field(default_factory=list)
    absent: set[str] = field(default_factory=set)
    gc_seconds: float = 0.0
    gc_collections: int = 0
    _gc_started: float = 0.0

    def enter(self, name: str, work: int = 0) -> int:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent, work=work))
        self.stack.append(len(self.spans) - 1)
        return self.stack[-1]

    def leave(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self.stack.pop()

    def on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._gc_started = time.perf_counter()
        else:
            self.gc_seconds += time.perf_counter() - self._gc_started
            self.gc_collections += 1

    def calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)

    def work(self, name: str) -> int:
        return sum(s.work for s in self.spans if s.name == name)

    def self_time(self, name: str) -> float:
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.seconds
        return sum(
            s.seconds - child_time[i] for i, s in enumerate(self.spans) if s.name == name
        )


def _wrap(recorder: Recorder, name: str, fn):
    work_of = WORK_OF.get(name)

    def wrapper(*args, **kwargs):
        index = recorder.enter(name, work_of(args, kwargs) if work_of else 0)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.leave(index)

    return wrapper


@contextmanager
def recording():
    """Patch every point for the duration of one op and yield its recorder;
    untraced ops run with the program's own attributes in place."""
    recorder = Recorder()
    saved = []
    try:
        for module_name, attr, name in PATCH_POINTS:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if not callable(original):
                recorder.absent.add(name)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, _wrap(recorder, name, original))
        gc.callbacks.append(recorder.on_gc)
        yield recorder
    finally:
        if recorder.on_gc in gc.callbacks:
            gc.callbacks.remove(recorder.on_gc)
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


# Per-layer metric -> (unit, span names it is computed from). A metric whose
# span never fired on a workload that is expected to call it is missing.
LAYER_METRICS = {
    "sim.generate_run_s": ("s", ("sim.generate_run",)),
    "sim.self_s": ("s", ("sim.generate_run", "sim.interference", "trace.validate")),
    "sim.copy_us": ("us", ("sim.generate_run", "sim.interference", "trace.validate")),
    "sim.interference_s": ("s", ("sim.interference",)),
    "sim.channel_sims": ("count", ("sim.interference",)),
    "trace.encode_s": ("s", ("trace.encode",)),
    "trace.log_mb": ("MB", ("trace.encode",)),
    "trace.decode_self_s": ("s", ("trace.decode", "trace.validate")),
    "trace.validate_s": ("s", ("trace.validate",)),
    "trace.validate_calls": ("count", ("trace.validate",)),
    "metrics.compute_report_s": ("s", ("metrics.compute_report",)),
    "metrics.sweep_s": ("s", ("metrics.sweep",)),
    "metrics.sweep_point_ms": ("ms", ("metrics.sweep",)),
    "metrics.latency_stats_s": ("s", ("metrics.latency_stats",)),
    "metrics.latency_stats_calls": ("count", ("metrics.latency_stats",)),
    "cli.self_s": ("s", tuple(sorted({name for _, _, name in PATCH_POINTS}))),
    "py.gc_s": ("s", ()),
    "py.gc_collections": ("count", ()),
}


def layer_values(rec: Recorder, log_bytes: int) -> dict[str, float]:
    """Per-layer values of one traced op (``log_bytes``: log files it wrote)."""
    copies = rec.work("sim.generate_run")
    points = rec.work("metrics.sweep")
    sim_self = rec.self_time("sim.generate_run")
    sweep_s = rec.total("metrics.sweep")
    return {
        "sim.generate_run_s": rec.total("sim.generate_run"),
        "sim.self_s": sim_self,
        "sim.copy_us": sim_self / copies * 1e6 if copies else 0.0,
        "sim.interference_s": rec.total("sim.interference"),
        "sim.channel_sims": rec.calls("sim.interference"),
        "trace.encode_s": rec.total("trace.encode"),
        "trace.log_mb": log_bytes / 1e6,
        "trace.decode_self_s": rec.self_time("trace.decode"),
        "trace.validate_s": rec.total("trace.validate"),
        "trace.validate_calls": rec.calls("trace.validate"),
        "metrics.compute_report_s": rec.total("metrics.compute_report"),
        "metrics.sweep_s": sweep_s,
        "metrics.sweep_point_ms": sweep_s / points * 1e3 if points else 0.0,
        "metrics.latency_stats_s": rec.total("metrics.latency_stats"),
        "metrics.latency_stats_calls": rec.calls("metrics.latency_stats"),
        "cli.self_s": rec.self_time(CLI_SPAN),
        "py.gc_s": rec.gc_seconds,
        "py.gc_collections": rec.gc_collections,
    }


def missing_metrics(rec: Recorder, expected: frozenset[str]) -> set[str]:
    """Metrics that cannot be reported: a span they need has no patch point,
    or a span the workload must call never fired."""
    gone = rec.absent | {name for name in expected if rec.calls(name) == 0}
    return {m for m, (_, needs) in LAYER_METRICS.items() if gone.intersection(needs)}

"""Span tracing at the layer boundaries of ``mimo_dmt``, from outside the package.

While a :class:`Tracer` is installed it replaces each boundary name listed in
:data:`BOUNDARIES` (a module attribute such as ``mimo_dmt.simulate.eig_ascending``)
with a timing wrapper, and it puts the originals back when it is removed.
Each call through a wrapper records one :class:`Span`: name, thread, parent
span, start, end, and work counts derived from the call's inputs.

A boundary name that the package no longer has is skipped and reported by
:attr:`Tracer.absent`; the metrics of its layer then read 0.
"""
from __future__ import annotations

import importlib
import inspect
import math
import os
import statistics
import threading
import time
import warnings
from dataclasses import dataclass, field

# run_sweep fits its slope over the SNR points with at least this many
# outage events (see its docstring).
FIT_MIN_EVENTS = 20
# Uniform doubles drawn per trial: real and imaginary parts of the channel
# and of the estimation error, each n x m.
DOUBLES_PER_ENTRY = 4
BYTES_PER_DOUBLE = 8


@dataclass(eq=False)
class Span:
    name: str
    thread: int
    parent: "Span | None"
    start: float
    end: float = math.nan
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _sample_counts(args, result):
    cfg, trials = args["cfg"], int(args["count"])
    doubles = trials * DOUBLES_PER_ENTRY * cfg.n_rx * cfg.m_tx
    return {"trials": trials, "bytes": doubles * BYTES_PER_DOUBLE}


def _eig_counts(args, result):
    shape = getattr(args["x"], "shape", ())
    return {"matrices": math.prod(shape[:-2])}


def _grid_counts(args, result):
    from mimo_dmt.tradeoff import diversity_boost

    cfg, step = args["cfg"], float(args["step"])
    n = cfg.n_rx
    v_max = args["v_max"]
    if v_max is None:
        v_max = diversity_boost(cfg, n) + 1.0
    # Grid points per axis, and the non-increasing n-tuples drawn from them.
    g = math.floor(v_max / step + 1e-12) + 1
    return {"patterns": math.comb(g + n - 1, n), "probes": len(args["r_probes"])}


def _write_counts(args, result):
    return {"rows": len(args["rows"]), "bytes": os.path.getsize(args["path"])}


def _sweep_counts(args, result):
    events = [round(p * result.trials) for p in result.p_out]
    return {"events": sum(events),
            "fit_points": sum(e >= FIT_MIN_EVENTS for e in events)}


@dataclass(frozen=True)
class Boundary:
    module: str
    attr: str
    counts: object = None          # (bound arguments, result) -> dict
    catch_warnings: bool = False   # count the warnings the call emits

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


#: Boundary names, as ``module.attribute`` of the package.  The ``cli.cmd_*``
#: names are the report commands; they separate the reports layer's own time
#: from the command line's.
BOUNDARIES = (
    Boundary("simulate", "sample_channel_block", _sample_counts),
    Boundary("simulate", "eig_ascending", _eig_counts),
    Boundary("simulate", "calibrate_kappa", catch_warnings=True),
    Boundary("reports", "run_sweep", _sweep_counts),
    Boundary("reports", "grid_oracle_curve", _grid_counts),
    Boundary("reports", "compute_dmt_curve"),
    Boundary("reports", "eval_dmt"),
    Boundary("reports", "write_dataset", _write_counts),
    Boundary("cli", "cmd_curve"),
    Boundary("cli", "cmd_oracle_check"),
    Boundary("cli", "cmd_simulate"),
    Boundary("cli", "cmd_figures"),
    Boundary("cli", "main"),
)
_REPORT_COMMANDS = tuple(b.name for b in BOUNDARIES if b.attr.startswith("cmd_"))


class Tracer:
    """Records spans through wrappers around :data:`BOUNDARIES`.

    Use as a context manager around one workload pass; read :attr:`spans`
    afterwards.  Spans started on a thread with no open span of its own
    (a sweep worker) take as parent the innermost open span of the thread
    that installed the tracer.
    """

    def __init__(self, boundaries=BOUNDARIES):
        self.spans: list[Span] = []
        self.absent: list[str] = []
        self._installed: list[tuple[object, str, object, object]] = []
        self._local = threading.local()
        self._main_stack: list[Span] = []
        self._main_thread = threading.get_ident()
        for b in boundaries:
            try:
                module = importlib.import_module(f"mimo_dmt.{b.module}")
            except ModuleNotFoundError:
                module = None
            original = getattr(module, b.attr, None)
            if original is None:
                self.absent.append(b.name)
                continue
            self._installed.append((module, b.attr, original,
                                    self._wrap(b, original)))

    def __enter__(self):
        self.spans = []
        for module, attr, _, wrapper in self._installed:
            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for module, attr, original, _ in self._installed:
            setattr(module, attr, original)
        return False

    def _stack(self) -> list[Span]:
        if threading.get_ident() == self._main_thread:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, boundary: Boundary, original):
        signature = inspect.signature(original) if boundary.counts else None
        name = boundary.name

        def wrapper(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._main_stack[-1] if self._main_stack else None
            span = Span(name, threading.get_ident(), parent, 0.0)
            self.spans.append(span)
            stack.append(span)
            caught = None
            span.start = time.perf_counter()
            try:
                if boundary.catch_warnings:
                    with warnings.catch_warnings(record=True) as caught:
                        warnings.simplefilter("always")
                        result = original(*args, **kwargs)
                else:
                    result = original(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.counts = boundary.counts(bound.arguments, result)
            if caught is not None:
                span.counts = {"warnings": len(caught)}
            return result

        return wrapper


def _covered(intervals, lo, hi) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(id(s.parent), []).append((s.start, s.end))
    return [s.duration - _covered(children.get(id(s), ()), s.start, s.end)
            for s in spans]


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one traced pass."""
    own = self_times(spans)

    def of(*names):
        return [s for s in spans if s.name in names]

    def busy(*names):
        return sum(s.duration for s in of(*names))

    def total(key, *names):
        return sum(s.counts.get(key, 0) for s in of(*names))

    def self_sum(*names):
        return sum(t for s, t in zip(spans, own) if s.name in names)

    sample, eig = "simulate.sample_channel_block", "simulate.eig_ascending"
    calibrate, sweep = "simulate.calibrate_kappa", "reports.run_sweep"
    grid, write = "reports.grid_oracle_curve", "reports.write_dataset"
    curve, evaluate = "reports.compute_dmt_curve", "reports.eval_dmt"

    sweep_s = busy(sweep)
    worker_threads = {s.thread for s in of(sample, eig)}
    worker_busy = busy(sample, eig)
    return {
        "channel.sample.calls": len(of(sample)),
        "channel.sample.trials": total("trials", sample),
        "channel.sample.busy_s": busy(sample),
        "channel.sample.bytes_computed": total("bytes", sample),
        "channel.eig.calls": len(of(eig)),
        "channel.eig.matrices": total("matrices", eig),
        "channel.eig.busy_s": busy(eig),
        "simulate.calibrate.calls": len(of(calibrate)),
        "simulate.calibrate.busy_s": busy(calibrate),
        "simulate.calibrate.target_missed": total("warnings", calibrate),
        "simulate.sweep.self_s": self_sum(sweep),
        "simulate.sweep.outage_events": total("events", sweep),
        "simulate.sweep.fit_points": total("fit_points", sweep),
        "simulate.worker_busy_ratio": (
            worker_busy / (len(worker_threads) * sweep_s)
            if sweep_s and worker_threads else 0.0),
        "oracle.grid.calls": len(of(grid)),
        "oracle.grid.busy_s": busy(grid),
        "oracle.grid.patterns_computed": total("patterns", grid),
        "oracle.probes": total("probes", grid),
        "tradeoff.curve_calls": len(of(curve)),
        "tradeoff.eval_calls": len(of(evaluate)),
        "tradeoff.busy_s": busy(curve, evaluate),
        "reports.write.calls": len(of(write)),
        "reports.write.rows": total("rows", write),
        "reports.write.bytes": total("bytes", write),
        "reports.write.busy_s": busy(write),
        "reports.self_s": self_sum(*_REPORT_COMMANDS),
        "cli.self_s": self_sum("cli.main"),
    }


def median_metrics(per_pass: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over passes."""
    return {k: statistics.median(p[k] for p in per_pass) for k in per_pass[0]}

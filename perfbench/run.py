"""Benchmark of the ``mimo-dmt`` command line, driven in-process.

Run from the repository root:

    python3 perfbench/run.py --workload sweep_mimo --seed 1 --seconds 24 --trace 0

The workload (see ``workloads.py``) is built from ``--seed`` and run as
repeated passes of ``mimo_dmt.cli.main`` calls, a closed loop with one
client, until ``--seconds`` of passes are done; every pass's outputs are
checked.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, where ``attempted`` and
``failed`` count output checks.  The line before it records the seed, the
commit, library versions, thread settings, the workload's SNR grid, and
every raw time measured.

All reported times are scaled to a fixed machine speed.  The host this runs
on changes speed by up to a quarter within minutes, so a fixed reference
task that does not use the package (:class:`Reference`) is timed before and
after every pass and every import; each raw time ``t`` is reported as
``t * REF_S / r``, with ``r`` the mean of the two reference times around it.
On a machine where the reference task takes ``REF_S`` the reported times are
the wall times.

``--trace 0`` reports the end-to-end metrics, with tracing off:

* ``setup_s``: cold import of ``mimo_dmt`` and ``mimo_dmt.cli`` in a fresh
  interpreter, median of several;
* ``wall_s``: median time of one pass;
* ``items_per_s``: work items per second of pass time: Monte Carlo trials
  (sweeps), oracle probes (``oracle_check``) or dataset rows written and
  read back (``report_tables``);
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` reports the per-layer metrics of ``tracing.py``, as medians
over traced passes.  Untraced and traced passes alternate, and
``trace.overhead_s`` is the difference of their median pass times.

BLAS and OpenMP pools are pinned to one thread, so the only parallelism is
the sweep's own ``--workers``.  The benchmark exits with code 2, printing
no result, when the package source is not beside it.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench-work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
IMPORT_TIMEOUT_S = 60
#: Duration of the reference task at the speed that reported times assume
#: (about its duration on a 2-core Haswell-class cloud VM).
REF_S = 0.1
_IMPORT_CODE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mimo_dmt, mimo_dmt.cli; "
                "print(time.perf_counter() - t)")


class Reference:
    """A fixed task that does not use the package, timed to gauge the host's
    current speed: streaming NumPy arithmetic, a batch of small eigenvalue
    problems, and an interpreted loop, like the workloads' own mix."""

    def __init__(self):
        import numpy as np

        rng = np.random.default_rng(0)
        self._np = np
        self._data = rng.random(1_000_000)
        m = rng.standard_normal((20_000, 2, 2))
        self._gram = m @ np.swapaxes(m, -1, -2)

    def seconds(self) -> float:
        np = self._np
        t0 = time.perf_counter()
        for _ in range(6):
            np.sort(self._data)
            np.exp(self._data).sum()
        np.linalg.eigvalsh(self._gram)
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - t0


def _scaled(raw: list[float], refs: list[float]) -> list[float]:
    """Raw times scaled by the reference times before and after each."""
    return [t * REF_S / ((a + b) / 2) for t, a, b in zip(raw, refs, refs[1:])]


def _metric_units(trace: int) -> dict[str, str]:
    """Name -> unit of the metrics ``BENCHMARK.json`` lists for a trace mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def _setup_times(repeats: int, reference: Reference):
    """Raw times of cold package imports in fresh interpreters, and the
    reference times around them."""
    times, refs = [], [reference.seconds()]
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", _IMPORT_CODE, str(SRC)], cwd=ROOT,
            capture_output=True, text=True, check=True, timeout=IMPORT_TIMEOUT_S)
        times.append(float(out.stdout))
        refs.append(reference.seconds())
    return times, refs


def _measure(workload, cli, seconds, reference, tracers=(None,)):
    """Run rounds of passes, one pass per entry of ``tracers`` (``None`` runs
    untraced), until ``seconds`` are spent and at least two passes are done.

    Returns the raw time of each pass, the reference times around them, the
    entry of ``tracers`` each pass ran under, the items completed, and the
    layer metrics of each traced pass.
    """
    from tracing import layer_metrics

    walls, refs, entries, items, layers = [], [reference.seconds()], [], 0, []
    start = time.perf_counter()
    while True:
        for entry, tracer in enumerate(tracers):
            with tracer or contextlib.nullcontext():
                t0 = time.perf_counter()
                items += workload.run_pass(cli)
                walls.append(time.perf_counter() - t0)
            refs.append(reference.seconds())
            entries.append(entry)
            if tracer is not None:
                layers.append(layer_metrics(tracer.spans))
            workload.check_pass()
        spent = time.perf_counter() - start
        if len(walls) >= 2 and spent + spent * len(tracers) / len(walls) > seconds:
            return walls, refs, entries, items, layers


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = out.stdout.split()
    if out.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _record(workload_name, seed, trace, workload, raw) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "commit": _git_commit(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("openblas configuration") or
        f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "snr_grid_db": workload.snr_grid_db,
        "ref_s": REF_S,
        "raw": raw,
    }


def remove_workdir(workdir: Path) -> None:
    """Delete a run's output directory, and the shared parent once empty."""
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        WORKDIR.rmdir()
    except OSError:
        pass  # another run still has its directory there


def run(workload_name, seed, seconds, trace, tiny=False) -> tuple[dict, dict]:
    """Run one benchmark; return (result, record)."""
    import mimo_dmt.cli as cli
    from tracing import Tracer, median_metrics
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported {cli.__file__}, not the package in {SRC}")
    kind = WORKLOADS[workload_name]
    workdir = WORKDIR / f"{workload_name}-{os.getpid()}"
    units = _metric_units(trace)
    reference = Reference()
    try:
        # Warm-up: load the lazily imported parts of NumPy and SciPy.
        kind(seed, workdir / "warmup", tiny=True).run_pass(cli)
        reference.seconds()
        workload = kind(seed, workdir, tiny=tiny)
        if trace:
            # Untraced and traced passes alternate, so drifts in machine
            # speed fall on both sides of trace.overhead_s alike.
            tracer = Tracer()
            walls, refs, entries, _, layers = _measure(
                workload, cli, seconds, reference, (None, tracer))
            scaled = _scaled(walls, refs)
            plain = [t for t, e in zip(scaled, entries) if e == 0]
            traced = [t for t, e in zip(scaled, entries) if e == 1]
            factors = [t / w for t, w, e in zip(scaled, walls, entries) if e == 1]
            metrics = median_metrics([
                {k: v * f if units[k] == "s" else v for k, v in layer.items()}
                for layer, f in zip(layers, factors)])
            metrics.update(workload.layer_stats())
            metrics["trace.wall_s"] = statistics.median(traced)
            metrics["trace.overhead_s"] = (statistics.median(traced)
                                           - statistics.median(plain))
            metrics["trace.absent_layers"] = len(tracer.absent)
            metrics["fail_ratio"] = workload.failed / workload.attempted
            for name in tracer.absent:
                print(f"layer absent: {name}", file=sys.stderr)
            raw = {"pass_s": walls, "pass_traced": entries, "ref_s": refs}
        else:
            setup, setup_refs = _setup_times(1 if tiny else SETUP_REPEATS,
                                             reference)
            walls, refs, _, items, _ = _measure(workload, cli, seconds, reference)
            scaled = _scaled(walls, refs)
            metrics = {
                "setup_s": statistics.median(_scaled(setup, setup_refs)),
                "wall_s": statistics.median(scaled),
                "items_per_s": items / sum(scaled),
                "peak_rss_mb":
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            }
            raw = {"setup_s": setup, "setup_ref_s": setup_refs,
                   "pass_s": walls, "ref_s": refs}
    finally:
        remove_workdir(workdir)
    result = {
        "correct": workload.failed == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    return result, _record(workload_name, seed, trace, workload, raw)


def main(argv=None) -> int:
    if not (SRC / "mimo_dmt" / "__init__.py").is_file():
        print(f"package source not found at {SRC / 'mimo_dmt'}", file=sys.stderr)
        return 2
    # Set before NumPy is first imported, which the workloads module does.
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result, record = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

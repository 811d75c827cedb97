"""Fast self-test of the benchmark harness, at tiny workload sizes.

Run from the repository root (about half a minute on two cores):

    python3 perfbench/selftest.py

For every workload it checks that a run in each trace mode passes its output
checks and emits exactly the metrics ``BENCHMARK.json`` names, each with its
unit and a finite value; that truncating the output files makes the fail
ratio positive; and that a boundary the package lacks is reported absent.
Exits 1 on the first failed expectation.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
from pathlib import Path

import run


def _expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"FAIL: {message}", file=sys.stderr)
        sys.exit(1)


def _check_metrics(name: str, trace: int, result: dict, want: dict) -> None:
    label = f"{name} --trace {trace}"
    _expect(result["correct"] and result["failed"] == 0,
            f"{label}: {result['failed']} of {result['attempted']} checks failed")
    _expect(result["attempted"] >= 1, f"{label}: no checks attempted")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    _expect(got == want, f"{label}: metrics {got} differ from BENCHMARK.json {want}")
    for key, metric in result["metrics"].items():
        value = metric["value"]
        _expect(isinstance(value, (int, float)) and not isinstance(value, bool)
                and math.isfinite(value), f"{label}: {key} = {value!r}")


def _check_corruption(kind, cli, workdir: Path) -> None:
    workload = kind(seed=7, workdir=workdir, tiny=True)
    workload.run_pass(cli)
    workload.check_pass()
    _expect(workload.failed == 0, f"{kind.name}: clean outputs failed a check")
    for _, path in workload.commands:
        data = path.read_bytes()
        path.write_bytes(data[:len(data) // 2])
    with contextlib.redirect_stderr(io.StringIO()):  # the expected tracebacks
        workload.check_pass()
    _expect(workload.failed / workload.attempted > 0,
            f"{kind.name}: truncated outputs passed every check")


def main() -> int:
    if not (run.SRC / "mimo_dmt" / "__init__.py").is_file():
        print(f"package source not found at {run.SRC}", file=sys.stderr)
        return 2
    for var in run.THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(run.SRC))
    import mimo_dmt.cli as cli
    from tracing import BOUNDARIES, Boundary, Tracer
    from workloads import WORKLOADS

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    _expect({w["name"] for w in spec["workloads"]} <= set(WORKLOADS),
            "BENCHMARK.json names a workload that workloads.py lacks")

    workdir = run.WORKDIR / f"selftest-{os.getpid()}"
    try:
        for name, kind in WORKLOADS.items():
            for trace in (0, 1):
                result, record = run.run(name, seed=7, seconds=0.1, trace=trace,
                                         tiny=True)
                _check_metrics(name, trace, result, want[trace])
                _expect(record["seed"] == 7 and record["numpy"],
                        f"{name}: incomplete run record {record}")
            _check_corruption(kind, cli, workdir / name)
            print(f"ok {name}")
    finally:
        run.remove_workdir(workdir)

    tracer = Tracer(BOUNDARIES + (Boundary("simulate", "no_such_layer"),))
    _expect(tracer.absent == ["simulate.no_such_layer"],
            f"absent boundaries reported as {tracer.absent}")
    print("ok absent layer")
    return 0


if __name__ == "__main__":
    sys.exit(main())

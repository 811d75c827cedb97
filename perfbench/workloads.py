"""The benchmark's workloads: fixed lists of ``mimo_dmt.cli.main`` calls.

Each workload builds its command lines from the benchmark seed, runs them
in-process as one *pass*, and checks the files they wrote.  A check is one
pass/fail verdict; a command that raises or exits non-zero fails its check.
``tiny=True`` gives the same workload at sizes small enough for a self-test.

Only flags the package keeps are passed: no ``--grid-step``, ``--vmax`` or
``--kappa-mode``.
"""
from __future__ import annotations

import random
import sys
import traceback
from pathlib import Path

import numpy as np

from mimo_dmt import reports


def _call(cli, argv) -> object:
    """Exit code of ``cli.main(argv)``; the exception name if it raised."""
    try:
        return cli.main(argv)
    except SystemExit as exc:
        return exc.code
    except Exception as exc:  # a failed command is a failed check, not a crash
        traceback.print_exc(file=sys.stderr)
        return type(exc).__name__


def _checked(fn, *args) -> bool:
    """Verdict of check ``fn``; an output that cannot be parsed fails it."""
    try:
        return bool(fn(*args))
    except Exception:  # a malformed output is a failed check, not a crash
        traceback.print_exc(file=sys.stderr)
        return False


def _read(path):
    """Rows of a dataset file; ``None`` if it cannot be read."""
    try:
        return reports.read_dataset(path)
    except Exception:  # an unreadable output fails its checks, not the run
        traceback.print_exc(file=sys.stderr)
        return None


class Workload:
    """One pass = every command in :attr:`commands`, each writing one file."""

    name = ""
    #: SNR grid of a sweep workload, in dB.
    snr_grid_db: list | None = None

    def __init__(self, seed: int, workdir: Path):
        self.rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.commands: list[tuple[list[str], Path]] = []
        self.codes: list[object] = []
        self.attempted = 0
        self.failed = 0

    def _add(self, argv: list[str], fmt: str = "csv") -> None:
        path = self.workdir / f"out{len(self.commands)}.{fmt}"
        self.commands.append(
            ([str(a) for a in argv] + ["--out", str(path), "--format", fmt], path))

    def run_pass(self, cli) -> int:
        """Run every command once; return the work items completed."""
        self.codes = [_call(cli, argv) for argv, _ in self.commands]
        return sum(self._items(i) for i, code in enumerate(self.codes) if code == 0)

    def _items(self, index: int) -> int:
        raise NotImplementedError

    def check_pass(self) -> None:
        """Check the outputs of the last pass and add up the verdicts."""
        verdicts = [code == 0 for code in self.codes]
        verdicts += self._check_outputs()
        self.attempted += len(verdicts)
        self.failed += verdicts.count(False)

    def _check_outputs(self) -> list[bool]:
        raise NotImplementedError

    def layer_stats(self) -> dict[str, float]:
        """Layer metrics read from the outputs rather than from spans."""
        return {"oracle.gap_max": 0.0, "oracle.probes_failed": 0}


def _sweep_counts_whole(path, trials: int, points: int) -> bool:
    """Each ``p_out * trials`` is a whole number in ``[0, trials]``."""
    p_out = [row for row in reports.read_dataset(path) if row.series == "p_out"]
    if len(p_out) != points:
        return False
    for row in p_out:
        events = row.y * trials
        if row.aux_k != trials or abs(events - round(events)) > 1e-6:
            return False
        if not 0 <= round(events) <= trials:
            return False
    return True


def _slope(path) -> float:
    (summary,) = [row for row in reports.read_dataset(path)
                  if row.series == "summary"]
    return summary.y


class _Sweep(Workload):
    def _sweep_argv(self, m, n, alpha, r, workers):
        start, stop, points = self.snr
        return ["simulate", "--m", m, "--n", n, "--alpha", alpha, "--r", r,
                "--t", "0.9", "--rho-start-db", start, "--rho-stop-db", stop,
                "--rho-points", points, "--trials", self.trials,
                "--seed", self.cli_seed, "--workers", workers]

    def _set_grid(self, start, stop, points):
        self.snr = (start, stop, points)
        self.snr_grid_db = [float(x) for x in np.linspace(start, stop, points)]

    def _items(self, index: int) -> int:
        return self.trials * self.snr[2]

    def _counts_whole(self, path) -> bool:
        return _checked(_sweep_counts_whole, path, self.trials, self.snr[2])


class SweepSimo(_Sweep):
    name = "sweep_simo"
    #: The higher-quality estimate must steepen the fitted slope by this much.
    MIN_SLOPE_GAP = 0.3

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.cli_seed = self.rng.randrange(1, 2**31)
        self.trials = 100_000 if tiny else 1_000_000
        self._set_grid(10, 50, 6)
        for alpha in ("0", "0.5"):
            self._add(self._sweep_argv(1, 2, alpha, 0.5, 1))

    def _check_outputs(self):
        def gap_ok(low, high):
            return _slope(low) - _slope(high) >= self.MIN_SLOPE_GAP

        paths = [path for _, path in self.commands]
        return [self._counts_whole(p) for p in paths] + [_checked(gap_ok, *paths)]


class SweepMimo(_Sweep):
    name = "sweep_mimo"

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        self.cli_seed = self.rng.randrange(1, 2**31)
        # 4 spans of 65,536 trials per SNR point: whole spans for 2 workers.
        self.trials = 8_192 if tiny else 262_144
        self._set_grid(10, 40, 7)
        self._add(self._sweep_argv(2, 2, "0.5", "1.0", 2))
        self.first_output = None

    def _check_outputs(self):
        (path,) = [p for _, p in self.commands]
        whole = self._counts_whole(path)
        if self.first_output is None:
            self.first_output = path.read_bytes()
            return [whole]
        # Same seed, same rows: every later pass must repeat the first.
        return [whole, path.read_bytes() == self.first_output]


class OracleCheck(Workload):
    name = "oracle_check"
    LINKS = [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2), (4, 2), (3, 3)]
    ALPHAS = [0.0, 0.1, 1.0 / 3.0, 0.5, 1.0]
    R_STEP = 0.05

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        links = self.LINKS[:4] if tiny else self.LINKS
        alphas = self.ALPHAS[::2] if tiny else self.ALPHAS
        cases = [(m, n, a) for m, n in links for a in alphas]
        self.rng.shuffle(cases)
        self.probes = []
        for m, n, alpha in cases:
            self._add(["oracle-check", "--m", m, "--n", n, "--alpha", repr(alpha),
                       "--r-step", self.R_STEP])
            self.probes.append(round(n / self.R_STEP))
        self.gaps: list[float] = []
        self.gap_failures = 0

    def _items(self, index):
        return self.probes[index]

    def _check_outputs(self):
        self.gaps, self.gap_failures = [], 0

        def rows_ok(path, probes):
            rows = reports.read_dataset(path)
            gaps = [row for row in rows if row.series == "gap"]
            self.gaps += [row.y for row in gaps]
            self.gap_failures += sum(row.aux_note == "fail" for row in gaps)
            return len(rows) == 3 * probes and len(gaps) == probes

        return [_checked(rows_ok, path, probes)
                for (_, path), probes in zip(self.commands, self.probes)]

    def layer_stats(self):
        return {"oracle.gap_max": max(self.gaps, default=0.0),
                "oracle.probes_failed": self.gap_failures}


class ReportTables(Workload):
    name = "report_tables"
    #: Criterion 01: the two segments of the 2x2 curve at these qualities.
    CRITERION_01_ALPHAS = [0.1, 1.0 / 3.0, 0.5]
    FIGURES = [2, 3, 4, 5]

    def __init__(self, seed, workdir, tiny=False):
        super().__init__(seed, workdir)
        m_max = 2 if tiny else 5
        extra = self.rng.sample(
            [k / 100 for k in range(101) if k not in (10, 50)], 2)
        alphas = ",".join(repr(a) for a in self.CRITERION_01_ALPHAS + extra)
        links = [(m, n) for m in range(1, m_max + 1) for n in range(1, m + 1)]
        self.rng.shuffle(links)
        self.link_2x2 = []
        for m, n in links:
            for fmt in ("csv", "json"):
                if (m, n) == (2, 2):
                    self.link_2x2.append(len(self.commands))
                self._add(["curve", "--m", m, "--n", n, "--alpha-list", alphas,
                           "--r-step", "0.05"], fmt)
        for fig in self.FIGURES[:2] if tiny else self.FIGURES:
            for fmt in ("csv", "json"):
                self._add(["figures", "--fig", fig], fmt)
        self.rows: list = []

    def run_pass(self, cli):
        self.codes = [_call(cli, argv) for argv, _ in self.commands]
        # Reading the tables back is part of the pass; the checks reuse the rows.
        self.rows = [_read(path) if code == 0 else None
                     for code, (_, path) in zip(self.codes, self.commands)]
        return sum(len(rows) for rows in self.rows if rows is not None)

    def _check_outputs(self):
        copy = self.workdir / "roundtrip"

        def round_trip(rows, path):
            reports.write_dataset(rows, copy, path.suffix[1:])
            return copy.read_bytes() == path.read_bytes()

        def criterion_01(rows):
            for a in self.CRITERION_01_ALPHAS:
                series = {(row.x, row.y) for row in rows
                          if row.series == f"segments[alpha={a:g}]"}
                want = [(0.0, 16 * a + 4), (1 + a, 13 * a + 1),
                        (1 + a, 1 + a), (2.0, 2 * a)]
                for x, y in want:
                    if not any(abs(x - gx) <= 1e-12 and abs(y - gy) <= 1e-12
                               for gx, gy in series):
                        return False
            return True

        verdicts = [_checked(round_trip, rows, path)
                    for rows, (_, path) in zip(self.rows, self.commands)]
        verdicts += [_checked(criterion_01, self.rows[i]) for i in self.link_2x2]
        return verdicts


WORKLOADS = {w.name: w for w in (SweepSimo, SweepMimo, OracleCheck, ReportTables)}

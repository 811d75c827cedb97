"""Tests for the command-line interface."""
import json
import math
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import mimo_dmt
from mimo_dmt import cli, reports
from mimo_dmt.cli import DEFAULT_SEED, main
from mimo_dmt.reports import read_dataset


README = Path(__file__).resolve().parent.parent / "README.md"


def readme_blocks(lang):
    """The fenced ``lang`` code blocks of the README, in order."""
    return re.findall(rf"^```{lang}\n(.*?)^```", README.read_text(),
                      flags=re.M | re.S)


def series_map(rows, name):
    return {row.x: row.y for row in rows if row.series == name}


def run_fresh(args, cwd=None, text=True):
    """Run ``python <args>`` in a fresh interpreter that imports this
    package's source."""
    env = dict(os.environ)
    src = str(Path(mimo_dmt.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=text, timeout=120)


class TestCurveCommand:
    def test_basic_run(self, tmp_path):
        out = tmp_path / "curve.json"
        code = main([
            "curve", "--m", "2", "--n", "2", "--alpha", "0.5",
            "--r-step", "0.25", "--out", str(out), "--format", "json",
        ])
        assert code == 0
        rows = read_dataset(out)
        d_o = series_map(rows, "d_O[alpha=0.5]")
        assert d_o[0.0] == pytest.approx(12.0, rel=1e-12)
        assert d_o[2.0] == pytest.approx(1.0, rel=1e-12)

    def test_alpha_list(self, tmp_path):
        out = tmp_path / "curve.csv"
        code = main([
            "curve", "--m", "2", "--n", "2", "--alpha-list", "0,0.5,1",
            "--r-step", "0.5", "--out", str(out),
        ])
        assert code == 0
        rows = read_dataset(out)
        names = {row.series for row in rows}
        for tag in ("alpha=0", "alpha=0.5", "alpha=1"):
            assert any(tag in s for s in names), tag

    def test_missing_required_flag(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["curve", "--m", "2", "--n", "2", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2


class TestOracleCheckCommand:
    def test_scalar_pass(self, tmp_path):
        out = tmp_path / "oracle.csv"
        code = main([
            "oracle-check", "--m", "1", "--n", "1", "--alpha", "0",
            "--r-step", "0.25", "--out", str(out),
        ])
        assert code == 0
        rows = read_dataset(out)
        gaps = [row for row in rows if row.series == "gap"]
        assert gaps and all(row.aux_note == "pass" for row in gaps)


class TestSimulateCommand:
    def test_zero_trials_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main([
                "simulate", "--m", "1", "--n", "1", "--alpha", "0",
                "--r", "0.5", "--trials", "0", "--out", str(tmp_path / "s.csv"),
            ])
        assert exc.value.code == 2

    def test_small_run(self, tmp_path):
        out = tmp_path / "sim.csv"
        code = main([
            "simulate", "--m", "1", "--n", "1", "--alpha", "0",
            "--r", "0.5", "--rho-start-db", "10", "--rho-stop-db", "30",
            "--rho-points", "3", "--trials", "2000", "--t", "0",
            "--seed", "5", "--out", str(out),
        ])
        assert code == 0
        rows = read_dataset(out)
        p_rows = [row for row in rows if row.series == "p_out"]
        assert len(p_rows) == 3
        assert [row.x for row in p_rows] == [10.0, 100.0, 1000.0]
        assert all(0.0 <= row.y <= 1.0 for row in p_rows)
        summary = [row for row in rows if row.series == "summary"]
        assert len(summary) == 1

    def test_worker_count_does_not_change_dataset(self, tmp_path):
        args = [
            "simulate", "--m", "2", "--n", "2", "--alpha", "0.5",
            "--r", "1.0", "--rho-start-db", "10", "--rho-stop-db", "30",
            "--rho-points", "2", "--trials", "4000", "--t", "0.9",
            "--seed", "42",
        ]
        out1 = tmp_path / "w1.csv"
        out2 = tmp_path / "w2.csv"
        assert main(args + ["--workers", "1", "--out", str(out1)]) == 0
        assert main(args + ["--workers", "2", "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()

    def test_default_seed_documented_constant(self, tmp_path):
        assert DEFAULT_SEED == 1729
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        base = [
            "simulate", "--m", "1", "--n", "1", "--alpha", "0", "--r", "0.5",
            "--rho-start-db", "10", "--rho-stop-db", "30", "--rho-points", "2",
            "--trials", "1000", "--t", "0",
        ]
        assert main(base + ["--out", str(out_a)]) == 0
        assert main(base + ["--seed", str(DEFAULT_SEED), "--out", str(out_b)]) == 0
        assert out_a.read_text() == out_b.read_text()


class TestFiguresCommand:
    @pytest.mark.parametrize("fig", ["2", "3", "4", "5"])
    def test_each_figure_emits(self, fig, tmp_path):
        out = tmp_path / f"fig{fig}.csv"
        assert main(["figures", "--fig", fig, "--out", str(out)]) == 0
        rows = read_dataset(out)
        assert rows
        for row in rows:
            assert math.isfinite(row.x)

    def test_bad_fig_rejected(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["figures", "--fig", "9", "--out", str(tmp_path / "f.csv")])
        assert exc.value.code == 2


@pytest.mark.skipif(not os.path.exists("/dev/stdout"), reason="needs /dev/stdout")
class TestNonRegularOutputs:
    """A device or a pipe takes the bytes as they are: it is not cut to
    length as a regular output file is."""

    CURVE = ["curve", "--m", "2", "--n", "2", "--alpha", "0.5", "--r-step", "0.25"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dev_null(self, fmt):
        assert main(self.CURVE + ["--format", fmt, "--out", "/dev/null"]) == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_dev_stdout_into_pipe_matches_file(self, fmt, tmp_path):
        out = tmp_path / f"curve.{fmt}"
        assert main(self.CURVE + ["--format", fmt, "--out", str(out)]) == 0
        done = run_fresh(["-m", "mimo_dmt", *self.CURVE, "--format", fmt,
                          "--out", "/dev/stdout"], text=False)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout == out.read_bytes()


class TestUsageErrors:
    SIM = ["simulate", "--m", "1", "--n", "1", "--alpha", "0", "--r", "0.5",
           "--trials", "1000"]
    LOW_SNR = ["simulate", "--m", "2", "--n", "2", "--r", "1", "--rho-points",
               "2", "--trials", "1000"]

    @pytest.mark.parametrize("argv,out_name", [
        (SIM + ["--t", "1.5"], "s.csv"),
        (SIM + ["--rho-points", "1"], "s.csv"),
        (["curve", "--m", "2", "--n", "2", "--alpha-list", ","], "c.csv"),
        (["oracle-check", "--m", "7", "--n", "7", "--alpha", "0.1"], "o.csv"),
        (["figures", "--fig", "2"], "nodir/f.csv"),
        (["figures", "--fig", "9"], "f.csv"),
        (["curve", "--m", "6", "--n", "6", "--alpha", "0.1", "--r-step", "1e-9"],
         "c.csv"),
        (["oracle-check", "--m", "6", "--n", "6", "--alpha", "0.1", "--r-step", "1e-9"],
         "o.csv"),
        # 3100 dB has no finite SNR; NumPy once warned of the overflow and
        # the sweep wrote p_out 0 at an infinite point.
        (SIM + ["--rho-stop-db", "3100", "--rho-points", "2"], "s.csv"),
        # A negative seed once warned of an invalid cast and aliased 2**64 - 1.
        (SIM + ["--seed=-1"], "s.csv"),
        # Kappa's quadrature covers at most six receive antennas under damping.
        (["simulate", "--m", "7", "--n", "7", "--alpha", "0.5", "--r", "1",
          "--trials", "1000"], "s.csv"),
        # At -3000 dB kappa passes the largest float, and at -1000 dB with
        # alpha 4 the error variance rho ** -alpha does, even at t = 0.
        (LOW_SNR + ["--alpha", "1", "--rho-start-db", "-3000",
                    "--rho-stop-db", "-2900"], "s.csv"),
        (LOW_SNR + ["--alpha", "4", "--t", "0", "--rho-start-db", "-1000",
                    "--rho-stop-db", "-900"], "s.csv"),
        # At -3233 dB, the smallest subnormal, kappa * rho / m underflows
        # to 0, and a span once failed on its log with "math domain error".
        (LOW_SNR + ["--alpha", "0", "--rho-start-db", "-3233",
                    "--rho-stop-db", "-3200"], "s.csv"),
        # On 1300 transmit antennas kappa's rule overflows, and it once let
        # RuntimeWarnings out before its error.
        (["simulate", "--m", "1300", "--n", "2", "--alpha", "0.5", "--r", "1",
          "--trials", "1000", "--t", "0.2"], "s.csv"),
    ], ids=["t", "rho-points", "alpha-list", "oracle-size", "out-dir", "fig",
            "curve-r-step", "oracle-r-step", "rho-overflow", "seed-negative",
            "simulate-size", "kappa-overflow", "error-variance-overflow",
            "power-underflow", "many-tx"])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_bad_input_exits_2_with_one_line(self, argv, out_name, tmp_path, capsys):
        # Exit code 1 is reserved for an oracle-check disagreement.  The
        # error comes under the usage line of the subcommand that was run.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / out_name)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mimo-dmt {argv[0]} "), err
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1

    def test_missing_out_dir_fails_before_running(self, tmp_path, monkeypatch):
        def sweep_ran(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(reports, "run_sweep", sweep_ran)
        with pytest.raises(SystemExit) as exc:
            main(self.SIM + ["--out", str(tmp_path / "nodir" / "s.csv")])
        assert exc.value.code == 2

    def test_directory_out_fails_before_running(self, tmp_path, monkeypatch, capsys):
        def sweep_ran(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(reports, "run_sweep", sweep_ran)
        with pytest.raises(SystemExit) as exc:
            main(self.SIM + ["--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "is a directory" in capsys.readouterr().err

    ORACLE = ["oracle-check", "--m", "2", "--n", "2", "--alpha", "0.5"]
    CURVE = ["curve", "--m", "2", "--n", "2", "--alpha", "0.5"]
    FIGURE = ["figures", "--fig", "2"]

    @pytest.mark.parametrize("argv", [ORACLE, SIM, CURVE, FIGURE],
                             ids=["oracle-check", "simulate", "curve", "figures"])
    def test_unopenable_out_fails_before_running(self, argv, tmp_path, monkeypatch,
                                                 capsys):
        # A 300-byte name cannot be opened (ENAMETOOLONG); that is a usage
        # error, not the exit code 1 of a disagreement.
        def ran(*args, **kwargs):
            raise AssertionError("the run started before the output was opened")

        for name in ("exact_oracle_curve", "run_sweep", "compute_dmt_curve"):
            monkeypatch.setattr(reports, name, ran)
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / ("x" * 296 + ".csv"))])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(f"usage: mimo-dmt {argv[0]} "), err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if "error:" in line]
        assert "cannot open output path" in line

    @pytest.mark.parametrize("existing", [False, True], ids=["fresh", "existing"])
    @pytest.mark.parametrize("failure", [ValueError, RuntimeError])
    def test_failed_run_leaves_no_file_of_its_own(self, existing, failure, tmp_path,
                                                   monkeypatch):
        # A file the run created is removed; one that was there keeps its
        # bytes and inode.
        out = tmp_path / "o.csv"
        if existing:
            out.write_bytes(b"kept\n")
            inode = out.stat().st_ino

        def fails(*args, **kwargs):
            raise failure("the oracle failed")

        monkeypatch.setattr(reports, "exact_oracle_curve", fails)
        with pytest.raises(SystemExit if failure is ValueError else failure):
            main(self.ORACLE + ["--out", str(out)])
        if existing:
            assert out.read_bytes() == b"kept\n"
            assert out.stat().st_ino == inode
        else:
            assert not out.exists()

    def test_output_is_opened_once_and_never_stat(self, tmp_path, monkeypatch):
        # Opening the output takes over the checks of its path: a run opens
        # a fresh output once, an existing one twice (the first open asks
        # for a new file), and stats no path.
        calls = []
        real_open, real_stat = os.open, os.stat

        def spy_open(*args, **kwargs):
            calls.append("open")
            return real_open(*args, **kwargs)

        def spy_stat(*args, **kwargs):
            calls.append("stat")
            return real_stat(*args, **kwargs)

        out = tmp_path / "o.csv"
        monkeypatch.setattr(os, "open", spy_open)
        monkeypatch.setattr(os, "stat", spy_stat)
        for want in (["open"], ["open", "open"]):
            calls.clear()
            assert main(self.ORACLE + ["--out", str(out)]) == 0
            assert calls == want
        monkeypatch.undo()
        assert read_dataset(out)


class TestTracedNames:
    """``main`` reaches each report command as ``cli.cmd_*`` and the writer
    as ``reports.write_dataset``, module attributes that a tracer can patch.
    A rename, or a name bound by a direct import, would leave that layer's
    counts at 0."""

    COMMANDS = [
        ("cmd_curve", ["curve", "--m", "2", "--n", "2", "--alpha", "0.5"]),
        ("cmd_oracle_check", ["oracle-check", "--m", "2", "--n", "2", "--alpha", "0.5"]),
        ("cmd_simulate", ["simulate", "--m", "1", "--n", "1", "--alpha", "0",
                          "--r", "0.5", "--trials", "1000", "--rho-points", "2"]),
        ("cmd_figures", ["figures", "--fig", "5"]),
    ]

    @pytest.mark.parametrize("name,argv", COMMANDS, ids=[c[1][0] for c in COMMANDS])
    def test_main_writes_the_rows_the_command_returned(self, name, argv, tmp_path,
                                                       monkeypatch):
        command, write = getattr(cli, name), reports.write_dataset
        returned, written = [], []

        def spy_command(**kwargs):
            returned.append(command(**kwargs))
            return returned[-1]

        def spy_write(rows, path, fmt):
            written.append(rows)
            return write(rows, path, fmt)

        monkeypatch.setattr(cli, name, spy_command)
        monkeypatch.setattr(reports, "write_dataset", spy_write)
        out = tmp_path / "out.csv"
        assert main(argv + ["--out", str(out)]) == 0
        assert len(returned) == 1 and len(written) == 1
        rows = returned[0][0] if name == "cmd_oracle_check" else returned[0]
        assert written[0] is rows
        assert read_dataset(out) == rows


class TestTopLevel:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_no_command_shows_usage(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_module_entry_point_runs_clean(self):
        # ``python -m mimo_dmt`` must start without the RuntimeWarning that
        # running a submodule already imported by the package would raise.
        done = run_fresh(["-W", "error::RuntimeWarning", "-m", "mimo_dmt", "--help"])
        assert done.returncode == 0, done.stderr
        assert "simulate" in done.stdout


COLD_RUN = """
import json, sys
import mimo_dmt, mimo_dmt.cli
from mimo_dmt.cli import main

codes = [main(argv + ["--out", f"{i}.csv"]) for i, argv in enumerate([
    ["curve", "--m", "3", "--n", "2", "--alpha", "0.5"],
    ["oracle-check", "--m", "3", "--n", "2", "--alpha", "0.5"],
    ["figures", "--fig", "2"],
])]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes.append(main(["simulate", "--m", "2", "--n", "2", "--alpha", "0.5",
                   "--r", "1", "--trials", "2000", "--rho-points", "2",
                   "--workers", "2", "--out", "sim.csv"]))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""


DAMPED_SWEEPS = """
import json, sys
from mimo_dmt.channel import ChannelConfig
from mimo_dmt.simulate import PowerPolicy, run_sweep

for m, n, t in [(2, 2, 0.9), (3, 3, 0.9), (3, 2, 0.5)]:
    run_sweep(ChannelConfig(m, n, 0.5), 1.0, [10.0, 1000.0], 1000,
              PowerPolicy(t=t), seed=1)
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


class TestProcessCost:
    def test_damped_sweeps_load_no_scipy_linalg(self):
        # Kappa's rule takes its nodes from NumPy's eigvalsh; SciPy's
        # roots_jacobi would load scipy.linalg, several MiB resident.  3x2
        # at t 0.5 meets a_j = 1, SciPy's Legendre route.
        done = run_fresh(["-c", DAMPED_SWEEPS])
        assert done.returncode == 0, done.stderr
        scipy = json.loads(done.stdout)
        assert "scipy.special" in scipy
        assert "scipy.linalg" not in scipy

    def test_cold_import_and_non_sampling_commands_load_no_scipy(self, tmp_path):
        # SciPy serves only the sweep, and is imported on its first use.
        done = run_fresh(["-c", COLD_RUN], cwd=tmp_path)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["scipy"] == []
        assert result["codes"] == [0, 0, 0, 0]

    def test_reused_parser_matches_fresh_processes(self, tmp_path, capsys):
        # main reuses one parser per process; every command must behave as
        # in a process of its own.
        commands = [
            ["curve", "--m", "2", "--n", "2", "--alpha", "0.5", "--alpha-list", "1"],
            ["curve", "--m", "2", "--n", "2", "--alpha-list", "0,0.5,1",
             "--r-step", "0.25"],
            ["oracle-check", "--m", "3", "--n", "2", "--alpha", "0.1"],
            ["figures", "--fig", "3", "--format", "json"],
            ["simulate", "--m", "2", "--n", "1", "--alpha", "0.5", "--r", "0.5",
             "--trials", "2000", "--rho-points", "3"],
        ]
        codes = []
        for i, argv in enumerate(commands):
            here, fresh = tmp_path / f"here{i}", tmp_path / f"fresh{i}"
            try:
                codes.append(main(argv + ["--out", str(here)]))
            except SystemExit as exc:
                codes.append(exc.code)
            err = capsys.readouterr().err
            done = run_fresh(["-m", "mimo_dmt", *argv, "--out", str(fresh)])
            assert (codes[-1], err) == (done.returncode, done.stderr), argv
            assert here.is_file() == fresh.is_file(), argv
            if here.is_file():
                assert here.read_bytes() == fresh.read_bytes(), argv
        assert codes == [2, 0, 0, 0, 0]
        assert cli._build_parser() is cli._build_parser()


class TestReadmeExamples:
    """The README's examples run as written: each ``mimo-dmt`` line through
    ``main``, with its output file moved into a temporary directory, and the
    library example as a script."""

    COMMANDS = [
        shlex.split(line, comments=True)[1:]
        for block in readme_blocks("sh")
        for line in block.replace("\\\n", " ").splitlines()
        if line.startswith("mimo-dmt ")
    ]

    def test_every_command_documented(self):
        assert sorted({argv[0] for argv in self.COMMANDS}) == [
            "curve", "figures", "oracle-check", "simulate"]

    @pytest.mark.parametrize("argv", COMMANDS, ids=" ".join)
    def test_command_runs(self, argv, tmp_path):
        out = argv.index("--out") + 1
        argv = argv[:out] + [str(tmp_path / argv[out])] + argv[out + 1:]
        assert main(argv) == 0
        assert read_dataset(argv[out])

    def test_library_example_runs(self, capsys):
        (example,) = [block for block in readme_blocks("python")
                      if "compute_dmt_curve" in block]
        exec(compile(example, str(README), "exec"), {})
        printed = capsys.readouterr().out.splitlines()
        assert len(printed) == example.count("print(")

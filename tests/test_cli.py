"""Tests for the command-line interface."""
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mimo_dmt
from mimo_dmt import cli, reports
from mimo_dmt.cli import DEFAULT_SEED, main
from mimo_dmt.reports import read_dataset


def series_map(rows, name):
    return {row.x: row.y for row in rows if row.series == name}


def run_fresh(args, cwd=None):
    """Run ``python <args>`` in a fresh interpreter that imports this
    package's source."""
    env = dict(os.environ)
    src = str(Path(mimo_dmt.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], env=env, cwd=cwd,
                          capture_output=True, text=True, timeout=120)


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


class TestUsageErrors:
    SIM = ["simulate", "--m", "1", "--n", "1", "--alpha", "0", "--r", "0.5",
           "--trials", "1000"]

    @pytest.mark.parametrize("argv,out_name", [
        (SIM + ["--t", "1.5"], "s.csv"),
        (SIM + ["--rho-points", "1"], "s.csv"),
        (["curve", "--m", "2", "--n", "2", "--alpha-list", ","], "c.csv"),
        (["oracle-check", "--m", "7", "--n", "7", "--alpha", "0.1"], "o.csv"),
        (["figures", "--fig", "2"], "nodir/f.csv"),
    ], ids=["t", "rho-points", "alpha-list", "oracle-size", "out-dir"])
    def test_bad_input_exits_2_with_one_line(self, argv, out_name, tmp_path, capsys):
        # Exit code 1 is reserved for an oracle-check disagreement.
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / out_name)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
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


class TestProcessCost:
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

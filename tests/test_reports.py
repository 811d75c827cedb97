"""Tests for dataset emission: round-tripping and report commands."""
import hashlib
import json
import math

import numpy as np
import pytest

from mimo_dmt import reports
from mimo_dmt.channel import ChannelConfig
from mimo_dmt.reports import (
    Row,
    cmd_curve,
    cmd_figures,
    cmd_oracle_check,
    cmd_simulate,
    read_dataset,
    write_dataset,
)
from mimo_dmt.simulate import PowerPolicy

INF = math.inf


def rows_by_series(rows, name):
    return [row for row in rows if row.series == name]


class TestRoundTrip:
    SAMPLE = [
        Row("alpha", 0.0, 4.0, None, None),
        Row("alpha", 1.0 / 3.0, 0.1 + 0.2, 2, "left"),
        Row("beta", 1.3000000000000001, 7.9, 1, None),
        Row("beta", 2.0, INF, None, "value"),
        Row("gamma", -1.5, float("nan"), 3, "note"),
    ]

    def _check(self, loaded):
        assert len(loaded) == len(self.SAMPLE)
        for got, want in zip(loaded, self.SAMPLE):
            assert got.series == want.series
            assert got.aux_k == want.aux_k
            assert got.aux_note == want.aux_note
            for a, b in ((got.x, want.x), (got.y, want.y)):
                if math.isnan(b):
                    assert math.isnan(a)
                else:
                    # bit-for-bit equality, infinities included
                    assert a == b

    def test_csv(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset(self.SAMPLE, path, "csv")
        self._check(read_dataset(path))

    def test_json(self, tmp_path):
        path = tmp_path / "data.json"
        write_dataset(self.SAMPLE, path, "json")
        self._check(read_dataset(path))
        # no native Infinity token in the serialized file
        text = path.read_text()
        assert "Infinity" not in text
        json.loads(text)  # strictly valid JSON

    def test_csv_infinity_token(self, tmp_path):
        path = tmp_path / "data.csv"
        write_dataset([Row("s", 0.0, INF, None, None)], path, "csv")
        assert "inf" in path.read_text()


class TestCmdCurve:
    def test_single_line_config(self, tmp_path):
        rows = cmd_curve(
            cfgs=[ChannelConfig(3, 3, 0.5)],
            r_grid=list(np.linspace(0.0, 3.0, 7)),
            out=str(tmp_path / "c.csv"), fmt="csv")
        segs = rows_by_series(rows, "segments[alpha=0.5]")
        assert len(segs) == 2  # one segment: left + right endpoint rows
        d0 = [row for row in rows_by_series(rows, "d_O[alpha=0.5]") if row.x == 0.0]
        assert d0[0].y == pytest.approx(49.5, rel=1e-12)
        assert (tmp_path / "c.csv").exists()

    def test_jump_rows(self, tmp_path):
        rows = cmd_curve(
            cfgs=[ChannelConfig(4, 2, 0.1)],
            r_grid=list(np.linspace(0.0, 2.0, 21)),
            out=str(tmp_path / "c.csv"), fmt="csv")
        jump = [row for row in rows_by_series(rows, "d_O[alpha=0.1]")
                if abs(row.x - 1.3) < 1e-9]
        notes = {row.aux_note: row.y for row in jump}
        assert set(notes) == {"limit", "value"}
        assert notes["limit"] == pytest.approx(7.9, rel=1e-12)
        assert notes["value"] == pytest.approx(3.9, rel=1e-12)

    def test_jump_rows_at_rate_just_below_boundary(self):
        # On the 4x4 link at alpha = 0.1 the grid rate 1.9 sits one ulp below
        # the computed boundary 1.9000000000000001; both rows must describe
        # the jump there, not repeat the limit.
        rows = cmd_curve(cfgs=[ChannelConfig(4, 4, 0.1)],
                         r_grid=[round(0.05 * i, 10) for i in range(81)])
        jump = [row for row in rows_by_series(rows, "d_O[alpha=0.1]")
                if row.x == 1.9]
        notes = {row.aux_note: row.y for row in jump}
        assert set(notes) == {"limit", "value"}
        assert notes["limit"] == pytest.approx(28.3, rel=1e-12)
        assert notes["value"] == pytest.approx(17.1, rel=1e-12)

    def test_overlay_minimum_is_the_curve(self):
        # The d_k rows are read where the d_O rows are, at the jump itself
        # for a rate within 1e-9 of one, so at every rate their minimum is
        # the curve's attained value.  On the 4x4 link at alpha = 0.1 the
        # grid rates 1.9 and 3.3 each lie one ulp from a jump.
        rows = cmd_curve(cfgs=[ChannelConfig(4, 4, 0.1)],
                         r_grid=[round(0.05 * i, 10) for i in range(81)])
        value = {row.x: row.y for row in rows_by_series(rows, "d_O[alpha=0.1]")
                 if row.aux_note != "limit"}
        overlay = {}
        for k in range(1, 5):
            for row in rows_by_series(rows, f"d_k[k={k},alpha=0.1]"):
                overlay[row.x] = min(overlay.get(row.x, INF), row.y)
        assert len(value) == 81
        assert overlay.keys() == value.keys()
        for x, y in value.items():
            assert overlay[x] == pytest.approx(y, rel=1e-12, abs=1e-12), x

    def test_baseline_reduction_corners(self, tmp_path):
        rows = cmd_curve(
            cfgs=[ChannelConfig(2, 2, 0.0)],
            r_grid=[0.0, 0.5, 1.0, 1.5, 2.0],
            out=str(tmp_path / "c.json"), fmt="json")
        d_o = rows_by_series(rows, "d_O[alpha=0]")
        got = {(row.x, row.y) for row in d_o}
        assert {(0.0, 4.0), (1.0, 1.0), (2.0, 0.0)} <= got
        # the curve is continuous at alpha=0: no jump annotations
        assert not any(row.aux_note in ("limit", "value") for row in d_o)

    def test_subset_overlays(self, tmp_path):
        rows = cmd_curve(
            cfgs=[ChannelConfig(4, 2, 0.1)],
            r_grid=[0.0, 1.0, 2.0],
            out=str(tmp_path / "c.csv"), fmt="csv")
        d1 = rows_by_series(rows, "d_k[k=1,alpha=0.1]")
        d2 = rows_by_series(rows, "d_k[k=2,alpha=0.1]")
        assert {row.x for row in d1} == {0.0, 1.0, 2.0}
        by_x1 = {row.x: row.y for row in d1}
        assert by_x1[0.0] == INF  # below its reachability edge
        assert by_x1[2.0] == pytest.approx(1.8, rel=1e-12)
        # k=2 piece falls from (0, 14.4) with slope -(2k'-1+M-N) = -5
        by_x2 = {row.x: row.y for row in d2}
        assert by_x2[1.0] == pytest.approx(9.4, rel=1e-12)

    def test_multiple_alphas(self, tmp_path):
        rows = cmd_curve(
            cfgs=[ChannelConfig(2, 2, alpha) for alpha in (0.1, 0.5)],
            r_grid=[0.0, 1.0, 2.0],
            out=str(tmp_path / "c.csv"), fmt="csv")
        assert rows_by_series(rows, "d_O[alpha=0.1]")
        assert rows_by_series(rows, "d_O[alpha=0.5]")

    def test_rejects_out_of_range_grid(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_curve(
                cfgs=[ChannelConfig(2, 2, 0.5)],
                r_grid=[0.0, 2.5],
                out=str(tmp_path / "c.csv"), fmt="csv")


class TestCmdOracleCheck:
    def test_scalar_case(self, tmp_path):
        rows, ok = cmd_oracle_check(
            cfg=ChannelConfig(1, 1, 0.0), r_grid=[0.5],
            out=str(tmp_path / "o.csv"), fmt="csv")
        assert ok
        cf = rows_by_series(rows, "closed_form")[0]
        assert cf.y == pytest.approx(0.5, rel=1e-12)
        eo = rows_by_series(rows, "exact_oracle")[0]
        assert abs(eo.y - 0.5) <= 1e-12
        gap = rows_by_series(rows, "gap")[0]
        assert gap.aux_note == "pass"

    def test_two_by_two_with_jump(self, tmp_path):
        rows, ok = cmd_oracle_check(
            cfg=ChannelConfig(2, 2, 0.5),
            r_grid=[round(0.05 * i, 10) for i in range(1, 41)],
            out=str(tmp_path / "o.csv"), fmt="csv")
        assert ok
        gaps = rows_by_series(rows, "gap")
        assert all(row.aux_note == "pass" for row in gaps)
        assert max(row.y for row in gaps) <= 1e-9
        # the probe at the discontinuity is compared to the left limit and
        # visibly marked as such
        cf_jump = [row for row in rows_by_series(rows, "closed_form")
                   if abs(row.x - 1.5) < 1e-9][0]
        assert cf_jump.aux_note == "left_limit"
        assert cf_jump.y == pytest.approx(7.5, rel=1e-12)

    def test_three_by_three_segment_region(self, tmp_path):
        rows, ok = cmd_oracle_check(
            cfg=ChannelConfig(3, 3, 1.0 / 3.0), r_grid=[2.2],
            out=str(tmp_path / "o.csv"), fmt="csv")
        assert ok
        cf = rows_by_series(rows, "closed_form")[0]
        assert cf.y == pytest.approx(25.0, rel=1e-12)

    def test_failure_reported(self, tmp_path, monkeypatch):
        # An oracle that misses the closed form by more than float
        # precision makes rows fail and flips ok.
        monkeypatch.setattr(reports, "exact_oracle_curve",
                            lambda cfg, r_probes: ([100.0] * len(r_probes),) * 2)
        rows, ok = cmd_oracle_check(
            cfg=ChannelConfig(2, 2, 0.5), r_grid=[0.4],
            out=str(tmp_path / "o.csv"), fmt="csv")
        assert not ok
        assert rows_by_series(rows, "gap")[0].aux_note == "fail"

    def test_attained_value_checked_at_jump(self, tmp_path, monkeypatch):
        # On the 2x2 link at alpha = 0.5 the curve drops from 7.5 to 1.5 at
        # r = 1.5: an oracle that gets the left limit right but the attained
        # value wrong fails that probe.
        monkeypatch.setattr(reports, "exact_oracle_curve",
                            lambda cfg, r_probes: ([7.5], [2.0]))
        rows, ok = cmd_oracle_check(
            cfg=ChannelConfig(2, 2, 0.5), r_grid=[1.5],
            out=str(tmp_path / "o.csv"), fmt="csv")
        assert not ok
        assert rows_by_series(rows, "gap")[0].y == pytest.approx(0.5)


class TestCmdSimulate:
    def _run(self, tmp_path):
        return cmd_simulate(
            cfg=ChannelConfig(1, 1, 0.0), r=0.5, rho_grid=[10.0, 100.0, 1000.0],
            trials=2000, policy=PowerPolicy(t=0.0), seed=1729, workers=1,
            out=str(tmp_path / "s.csv"), fmt="csv")

    def test_rows_and_summary(self, tmp_path):
        rows = self._run(tmp_path)
        p_rows = rows_by_series(rows, "p_out")
        assert [row.x for row in p_rows] == [10.0, 100.0, 1000.0]
        assert all(row.aux_k == 2000 for row in p_rows)
        assert len(rows_by_series(rows, "ci")) == 3
        summary = rows_by_series(rows, "summary")[0]
        assert summary.x == 0.0  # t
        assert summary.aux_note == "calibrated"
        assert math.isfinite(summary.y)

    def test_deterministic(self, tmp_path):
        a = self._run(tmp_path)
        b = self._run(tmp_path)
        assert a == b


class TestCmdFigures:
    def test_fig4_series_values(self, tmp_path):
        rows = cmd_figures(fig=4, out=str(tmp_path / "f4.csv"), fmt="csv")
        at = {}
        for name in ("no_csit", "rate_adaptation", "power_adaptation", "gap_power_minus_rate"):
            series = rows_by_series(rows, name)
            assert series, name
            at[name] = {round(row.x, 6): row.y for row in series}
        # K=4 at r=1: no feedback 0, rate adaptation 4*alpha,
        # power adaptation 16*alpha, gap 12*alpha.
        assert at["no_csit"][0.5] == pytest.approx(0.0, abs=1e-12)
        assert at["rate_adaptation"][0.5] == pytest.approx(2.0, rel=1e-12)
        assert at["power_adaptation"][0.5] == pytest.approx(8.0, rel=1e-12)
        assert at["gap_power_minus_rate"][0.5] == pytest.approx(6.0, rel=1e-12)

    def test_fig5_branches(self, tmp_path):
        rows = cmd_figures(fig=5, out=str(tmp_path / "f5.csv"), fmt="csv")
        series = rows_by_series(rows, "d_full_rate")
        by_x = {row.x: row for row in series}
        assert by_x[0.2].y == pytest.approx(18.8, rel=1e-12)
        assert by_x[0.2].aux_k == 2
        assert by_x[0.3].y == pytest.approx(61.5, rel=1e-12)
        assert by_x[0.3].aux_k == 3
        # bracket probes around the two branch-change points
        lo = 1.0 / 6.0
        assert by_x[lo - 1e-9].aux_k == 1
        assert by_x[lo + 1e-9].aux_k == 2
        assert by_x[0.25 - 1e-9].aux_k == 2
        assert by_x[0.25].aux_k == 3

    def test_fig2_and_fig3_datasets(self, tmp_path):
        rows2 = cmd_figures(fig=2, out=str(tmp_path / "f2.csv"), fmt="csv")
        names = {row.series for row in rows2}
        assert any("alpha=0.5" in s and s.startswith("d_O") for s in names)
        assert any("alpha=1" in s and s.startswith("d_O") for s in names)
        rows3 = cmd_figures(fig=3, out=str(tmp_path / "f3.json"), fmt="json")
        names3 = {row.series for row in rows3}
        assert "d_k[k=1,alpha=0.1]" in names3
        assert "d_k[k=2,alpha=0.1]" in names3
        loaded = read_dataset(tmp_path / "f3.json")
        assert len(loaded) == len(rows3)

    def test_unknown_fig_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            cmd_figures(fig=7, out=str(tmp_path / "f.csv"), fmt="csv")

    # SHA-256 of each canned dataset file.  Any change to these bytes is a
    # change to a published result and must be made on purpose.
    FIGURE_SHA256 = {
        (2, "csv"): "6fce86264054bb34fd5194536b995de7d97fbc1f69d69c6960f1fe8953ae4dc5",
        (3, "csv"): "1a9f40ca4edec5749da0c499381ca4b07afcb5887f871fbdeea08739019a6cb1",
        (4, "csv"): "15c569f7a97268716e24561f8cd455c85f9456b46b095d7f7d815049128ab213",
        (5, "csv"): "45720dda2e6bae6db476c3974b694e78c104ac16228ef1d8e0fd7607247cb392",
        (2, "json"): "7b1af0c19fec90d0ab291cb7771c93edab26f170aa188349a482bbb09d790cc2",
        (3, "json"): "4944295a66f35183c5dd2fbe2511b21a7f1bb1e14f57c6aded3e68235c70f0e5",
        (4, "json"): "a6cefada525ab3d51d5a864eb30a314ea9e814dd213ba4dd5c4b7f65f7c3d145",
        (5, "json"): "da898959b1e8143e10387d393b89a7ec83b39b6cc4e6c88b8da7363eedebfc95",
    }

    @pytest.mark.parametrize("fig,fmt", sorted(FIGURE_SHA256))
    def test_dataset_bytes_stable(self, fig, fmt, tmp_path):
        path = tmp_path / f"fig{fig}.{fmt}"
        cmd_figures(fig=fig, out=str(path), fmt=fmt)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.FIGURE_SHA256[(fig, fmt)]

    # SHA-256 of the ``simulate`` csv at the criterion-10 settings (alpha
    # 0.5, r 1, rho 10/100/1000, 20,000 trials, t 0.9, seed 1000) per link.
    # They pin every outage count: a change to these bytes changes a Monte
    # Carlo result and must be made on purpose.
    SIMULATE_SHA256 = {
        (1, 1): "4e9a01f643c43a4e9c57972e720bb2c1e49886d05dd42821ca7f5ee6e6e5a25b",
        (2, 1): "1bbc707e1655d22489e583860d75435d3ba45ebbf9a7fb2adde04a5f1b07f81f",
        (2, 2): "64e6673b6168bff5a4f968147f558efada203e31c96ae75cb3a2da3eccc91405",
        (3, 2): "3ad57c60ef65d22db29e549c495acc10ebe8edf084c0d1c080aef1d9c41141b3",
        (3, 3): "55651306a042e2b52224de9a7792db44e2a3460f5f6af55d27f06ab165391ad8",
    }

    @pytest.mark.parametrize("m,n", sorted(SIMULATE_SHA256))
    def test_simulate_bytes_stable(self, m, n, tmp_path):
        path = tmp_path / f"sim{m}{n}.csv"
        cmd_simulate(cfg=ChannelConfig(m, n, 0.5), r=1.0,
                     rho_grid=[10.0, 100.0, 1000.0], trials=20_000,
                     policy=PowerPolicy(t=0.9), seed=1000, out=str(path),
                     fmt="csv")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.SIMULATE_SHA256[(m, n)]

"""Tests for dataset emission: round-tripping and report commands."""
import builtins
import csv
import errno
import hashlib
import io
import json
import math
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

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


class TestRow:
    def test_field_order_and_defaults(self):
        assert Row._fields == ("series", "x", "y", "aux_k", "aux_note")
        row = Row("s", 1.0, 2.0)
        assert row.aux_k is None and row.aux_note is None
        assert Row(series="s", y=2.0, x=1.0, aux_note="n") == ("s", 1.0, 2.0, None, "n")

    def test_equality_and_hash(self):
        row = Row("s", 0.5, INF, 3, "note")
        same = Row("s", 0.5, INF, 3, "note")
        assert row == same and hash(row) == hash(same)
        # A row equals, and hashes like, the plain tuple of its fields.
        assert row == ("s", 0.5, INF, 3, "note")
        assert hash(row) == hash(("s", 0.5, INF, 3, "note"))
        assert row != Row("s", 0.5, INF, 3, None)
        assert len({row, same, Row("t", 0.5, INF, 3, "note")}) == 2

    def test_fields_cannot_be_assigned(self):
        row = Row("s", 0.5, 1.5)
        with pytest.raises(AttributeError):
            row.x = 2.0
        with pytest.raises(AttributeError):
            row.extra = 1


def per_row_write_dataset(rows, path, fmt):
    """Reference writer: the dataset writer as it was when rows were frozen
    dataclasses, one ``writerow`` call per row and a branch per non-finite
    float."""

    def float_token(value):
        value = float(value)
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return "%.17g" % value

    def json_number(value):
        value = float(value)
        return value if math.isfinite(value) else float_token(value)

    if fmt == "csv":
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(("series", "x", "y", "aux_k", "aux_note"))
            for row in rows:
                writer.writerow([
                    row.series,
                    float_token(row.x),
                    float_token(row.y),
                    "" if row.aux_k is None else str(int(row.aux_k)),
                    "" if row.aux_note is None else row.aux_note,
                ])
    else:
        payload = {
            "rows": [
                {
                    "series": row.series,
                    "x": json_number(row.x),
                    "y": json_number(row.y),
                    "aux_k": None if row.aux_k is None else int(row.aux_k),
                    "aux_note": row.aux_note,
                }
                for row in rows
            ]
        }
        with path.open("w") as handle:
            json.dump(payload, handle, allow_nan=False, indent=1)
            handle.write("\n")


# Text with the characters a CSV writer must quote or escape, and non-ASCII.
texts = st.one_of(
    st.text(),
    st.sampled_from(["", "a,b", 'say "hi"', "two\nlines", "cr\rlf\r\n",
                     " lead", "d_k[k=2,alpha=0.5]", "\u03b1 = \u00bd", "\u2212\u221e"]),
)
numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, INF, -INF, math.nan, -math.nan, 5e-324,
                     2.2250738585072014e-308, 1e308, -1.7976931348623157e308,
                     np.float64(-np.nan), np.float32(np.inf)]),
    st.floats(width=32).map(np.float32),
    st.floats().map(np.float64),
    st.integers(-10 ** 300, 10 ** 300),
    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64),
    st.booleans(),
)
rows_strategy = st.lists(st.builds(
    Row,
    series=texts,
    x=numbers,
    y=numbers,
    aux_k=st.one_of(st.none(), st.integers(-10 ** 20, 10 ** 20),
                    st.integers(-2 ** 63, 2 ** 63 - 1).map(np.int64)),
    aux_note=st.one_of(st.none(), texts),
), max_size=12)


class TestWriterBytes:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(rows=rows_strategy)
    @settings(max_examples=150,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_bytes_as_per_row_writer(self, fmt, rows, tmp_path):
        # Each example overwrites both files.
        got, want = tmp_path / f"got.{fmt}", tmp_path / f"want.{fmt}"
        write_dataset(rows, got, fmt)
        per_row_write_dataset(rows, want, fmt)
        assert got.read_bytes() == want.read_bytes()


def writerows_csv(rows, path):
    """Reference: the CSV writer as it was before each row became one ``%``
    format, ``csv.writer.writerows`` over ``"%.17g"`` floats."""
    with path.open("w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(Row._fields)
        writer.writerows(
            (series, "%.17g" % x, "%.17g" % y,
             "" if aux_k is None else str(int(aux_k)),
             "" if aux_note is None else aux_note)
            for series, x, y, aux_k, aux_note in rows)


# No NUL: Python 3.10's csv reader refuses it.  No lone surrogate (category
# Cs): UTF-8 cannot encode one, so neither writer can write it
# (test_lone_surrogate_raises_as_in_writerows).
csv_texts = st.one_of(
    st.none(),
    st.text(st.characters(exclude_characters="\x00", exclude_categories=("Cs",))),
    st.sampled_from(["", ",", '"', "\r", "\n", "\r\n", " lead", "trail ", " ",
                     'say "hi", twice', "d_k[k=2,alpha=0.5]", "α = ½",
                     "−∞"]),
)
csv_numbers = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, INF, -INF, math.nan, 5e-324, -5e-324, 1e308,
                     -1e308]),
)
csv_rows = st.lists(st.builds(
    Row,
    series=csv_texts,
    x=csv_numbers,
    y=csv_numbers,
    aux_k=st.one_of(st.none(), st.just(0), st.integers(-10 ** 9, 10 ** 9)),
    aux_note=csv_texts,
), max_size=20)


class TestCsvRowFormat:
    @given(rows=csv_rows)
    @example(rows=[Row(None, -0.0, 5e-324, 0, None),
                   Row("", INF, -INF, -3, ""),
                   Row(" a, b ", math.nan, 1e308, None, 'say "hi"\r\né')])
    @settings(max_examples=200,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_same_bytes_as_writerows_and_reads_back(self, rows, tmp_path):
        got, want = tmp_path / "got.csv", tmp_path / "want.csv"
        write_dataset(rows, got, "csv")
        writerows_csv(rows, want)
        assert got.read_bytes() == want.read_bytes()
        back = read_dataset(got)
        assert len(back) == len(rows)
        for row, written in zip(back, rows):
            # None and the empty text are both the empty field.
            assert row.series == (written.series or "")
            assert row.aux_note == (written.aux_note or None)
            assert row.aux_k == written.aux_k
            for value, want_value in ((row.x, written.x), (row.y, written.y)):
                if math.isnan(want_value):
                    assert math.isnan(value)
                else:
                    assert value == want_value
                    assert math.copysign(1.0, value) == math.copysign(1.0, want_value)

    @pytest.mark.parametrize("field", ["series", "aux_note"])
    def test_lone_surrogate_raises_as_in_writerows(self, field, tmp_path):
        row = Row("s", 0.5, 1.5)._replace(**{field: "a\ud800"})
        with pytest.raises(UnicodeEncodeError):
            writerows_csv([row], tmp_path / "want.csv")
        with pytest.raises(UnicodeEncodeError):
            write_dataset([row], tmp_path / "got.csv", "csv")


# A dataset much longer than SHORT, with quoted text and non-finite values.
LONG = [Row('long, "quoted" series', i / 3.0, INF if i % 7 == 0 else -i / 7.0,
            i, "note") for i in range(40)]
SHORT = [Row("s", 0.5, 1.5)]


class _SpyFile(io.RawIOBase):
    """A raw file over ``fd`` that records the bytes of ``path`` before each
    write, which is what a run killed at that write would leave, and fails
    every write from number ``fail_at`` on with ENOSPC."""

    def __init__(self, fd, path, fail_at=None):
        super().__init__()
        self.fd, self.path, self.fail_at = fd, path, fail_at
        self.seen, self.written = [], 0

    def writable(self):
        return True

    def write(self, data):
        self.seen.append(self.path.read_bytes())
        if self.fail_at is not None and len(self.seen) > self.fail_at:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        done = os.write(self.fd, data)
        self.written += done
        return done


def spy_on_writes(monkeypatch, path, fail_at=None):
    """Make ``write_dataset`` write through a :class:`_SpyFile` with a small
    buffer, so a dataset reaches the file in many writes."""
    spies = []

    def spy_open(fd, mode, newline=None, closefd=True):
        spies.append(_SpyFile(fd, path, fail_at))
        return io.TextIOWrapper(io.BufferedWriter(spies[-1], buffer_size=64),
                                newline=newline, write_through=True)

    monkeypatch.setattr(reports, "open", spy_open, raising=False)
    return spies


class TestRewriteInPlace:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @given(old=rows_strategy, new=rows_strategy)
    @example(old=LONG, new=SHORT)  # the rewrite is shorter
    @example(old=SHORT, new=LONG)  # the rewrite is longer
    @example(old=LONG, new=[])  # the rewrite is empty
    @settings(max_examples=100,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_rewrite_equals_fresh_write(self, fmt, old, new, tmp_path):
        target, fresh = tmp_path / f"target.{fmt}", tmp_path / f"fresh.{fmt}"
        write_dataset(old, target, fmt)
        write_dataset(new, target, fmt)
        fresh.unlink(missing_ok=True)
        write_dataset(new, fresh, fmt)
        assert target.read_bytes() == fresh.read_bytes()

    def test_csv_write_that_raises_leaves_no_stale_tail(self, tmp_path):
        target, fresh = tmp_path / "target.csv", tmp_path / "fresh.csv"
        write_dataset(LONG, target, "csv")
        write_dataset(SHORT, fresh, "csv")
        # The last row cannot be formatted, so the write raises part way:
        # the rows before it are written and the old tail is cut.
        with pytest.raises(TypeError):
            write_dataset(SHORT + [Row("bad", "not a number", 0.0)], target, "csv")
        assert target.read_bytes() == fresh.read_bytes()

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_kill_at_any_write_leaves_a_prefix(self, fmt, tmp_path, monkeypatch):
        target, fresh = tmp_path / f"target.{fmt}", tmp_path / f"fresh.{fmt}"
        write_dataset(LONG, target, fmt)
        write_dataset(LONG[:10], fresh, fmt)
        want = fresh.read_bytes()
        spies = spy_on_writes(monkeypatch, target)
        write_dataset(LONG[:10], target, fmt)
        monkeypatch.undo()
        assert target.read_bytes() == want
        (spy,) = spies
        assert len(spy.seen) > 10
        for before in spy.seen:
            assert want.startswith(before), before

    @pytest.mark.parametrize("fail_at", [0, 3])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_write_that_fails_leaves_what_reached_the_file(
            self, fmt, fail_at, tmp_path, monkeypatch):
        # A full disk fails the flush on close as well, so the file is cut
        # where the writes ended, not where the text layer thinks it is.
        target, fresh = tmp_path / f"target.{fmt}", tmp_path / f"fresh.{fmt}"
        write_dataset(LONG, target, fmt)
        write_dataset(LONG[:10], fresh, fmt)
        spies = spy_on_writes(monkeypatch, target, fail_at=fail_at)
        with pytest.raises(OSError) as err:
            write_dataset(LONG[:10], target, fmt)
        monkeypatch.undo()
        assert err.value.errno == errno.ENOSPC
        got = target.read_bytes()
        assert len(got) == spies[0].written < len(fresh.read_bytes())
        assert fresh.read_bytes().startswith(got)

    def test_json_that_cannot_be_built_leaves_the_file_alone(self, tmp_path):
        target = tmp_path / "target.json"
        write_dataset(LONG, target, "json")
        before = target.read_bytes()
        with pytest.raises(ValueError):
            write_dataset(SHORT + [Row("bad", "not a number", 0.0)], target, "json")
        assert target.read_bytes() == before

    def test_rewrite_keeps_inode_and_mode(self, tmp_path):
        path = tmp_path / "d.csv"
        write_dataset(LONG, path, "csv")
        path.chmod(0o640)
        before = path.stat()
        write_dataset(SHORT, path, "csv")
        after = path.stat()
        assert after.st_ino == before.st_ino
        assert stat.S_IMODE(after.st_mode) == 0o640
        assert read_dataset(path) == SHORT

    @pytest.mark.parametrize("umask", [0o022, 0o027, 0o077], ids=oct)
    def test_new_file_mode_follows_umask(self, umask, tmp_path):
        path = tmp_path / "d.csv"
        previous = os.umask(umask)
        try:
            write_dataset(SHORT, path, "csv")
        finally:
            os.umask(previous)
        assert stat.S_IMODE(path.stat().st_mode) == 0o666 & ~umask

    def test_unknown_format_touches_nothing(self, tmp_path):
        existing, missing = tmp_path / "d.csv", tmp_path / "new.xml"
        write_dataset(LONG, existing, "csv")
        before = existing.read_bytes()
        with pytest.raises(ValueError, match="unknown dataset format"):
            write_dataset(SHORT, existing, "xml")
        assert existing.read_bytes() == before
        with pytest.raises(ValueError, match="unknown dataset format"):
            write_dataset(SHORT, missing, "xml")
        assert not missing.exists()

    def test_never_truncates_to_zero(self, tmp_path, monkeypatch):
        # On ext4 a truncate to zero makes each rewrite of a file that holds
        # data several times slower; a regular file is cut to one byte
        # before writing and to length after instead.
        paths = [tmp_path / "d.csv", tmp_path / "d.json"]
        for path in paths:
            path.write_text("stale\n" * 1000)
        calls, cuts = [], []
        real_os_open, real_open = os.open, io.open
        real_ftruncate = os.ftruncate

        def spy_os_open(path, flags, *args, **kwargs):
            calls.append(("os.open", path, flags))
            return real_os_open(path, flags, *args, **kwargs)

        def spy_ftruncate(fd, length):
            cuts.append(length)
            return real_ftruncate(fd, length)

        def spy_open(file, mode="r", *args, **kwargs):
            calls.append(("open", file, mode))
            return real_open(file, mode, *args, **kwargs)

        monkeypatch.setattr(os, "open", spy_os_open)
        monkeypatch.setattr(os, "ftruncate", spy_ftruncate)
        monkeypatch.setattr(io, "open", spy_open)  # what Path.open calls
        monkeypatch.setattr(builtins, "open", spy_open)
        for path in paths:
            write_dataset(SHORT, path, path.suffix[1:])
        monkeypatch.undo()
        assert [kind for kind, _, _ in calls].count("os.open") == len(paths)
        assert cuts and min(cuts) >= 1, cuts
        for kind, target, how in calls:
            if kind == "os.open":
                assert not how & os.O_TRUNC, target
            else:
                assert isinstance(target, int) or "w" not in how, (target, how)
        for path in paths:
            assert read_dataset(path) == SHORT


class TestCmdCurve:
    def test_single_line_config(self):
        rows = cmd_curve(
            cfgs=[ChannelConfig(3, 3, 0.5)],
            r_grid=list(np.linspace(0.0, 3.0, 7)))
        segs = rows_by_series(rows, "segments[alpha=0.5]")
        assert len(segs) == 2  # one segment: left + right endpoint rows
        d0 = [row for row in rows_by_series(rows, "d_O[alpha=0.5]") if row.x == 0.0]
        assert d0[0].y == pytest.approx(49.5, rel=1e-12)

    def test_jump_rows(self):
        rows = cmd_curve(
            cfgs=[ChannelConfig(4, 2, 0.1)],
            r_grid=list(np.linspace(0.0, 2.0, 21)))
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

    def test_baseline_reduction_corners(self):
        rows = cmd_curve(
            cfgs=[ChannelConfig(2, 2, 0.0)],
            r_grid=[0.0, 0.5, 1.0, 1.5, 2.0])
        d_o = rows_by_series(rows, "d_O[alpha=0]")
        got = {(row.x, row.y) for row in d_o}
        assert {(0.0, 4.0), (1.0, 1.0), (2.0, 0.0)} <= got
        # the curve is continuous at alpha=0: no jump annotations
        assert not any(row.aux_note in ("limit", "value") for row in d_o)

    def test_subset_overlays(self):
        rows = cmd_curve(
            cfgs=[ChannelConfig(4, 2, 0.1)],
            r_grid=[0.0, 1.0, 2.0])
        d1 = rows_by_series(rows, "d_k[k=1,alpha=0.1]")
        d2 = rows_by_series(rows, "d_k[k=2,alpha=0.1]")
        assert {row.x for row in d1} == {0.0, 1.0, 2.0}
        by_x1 = {row.x: row.y for row in d1}
        assert by_x1[0.0] == INF  # below its reachability edge
        assert by_x1[2.0] == pytest.approx(1.8, rel=1e-12)
        # k=2 piece falls from (0, 14.4) with slope -(2k'-1+M-N) = -5
        by_x2 = {row.x: row.y for row in d2}
        assert by_x2[1.0] == pytest.approx(9.4, rel=1e-12)

    def test_multiple_alphas(self):
        rows = cmd_curve(
            cfgs=[ChannelConfig(2, 2, alpha) for alpha in (0.1, 0.5)],
            r_grid=[0.0, 1.0, 2.0])
        assert rows_by_series(rows, "d_O[alpha=0.1]")
        assert rows_by_series(rows, "d_O[alpha=0.5]")

    def test_rejects_out_of_range_grid(self):
        with pytest.raises(ValueError):
            cmd_curve(
                cfgs=[ChannelConfig(2, 2, 0.5)],
                r_grid=[0.0, 2.5])


class TestCmdOracleCheck:
    def test_scalar_case(self):
        rows, ok = cmd_oracle_check(
            cfg=ChannelConfig(1, 1, 0.0), r_grid=[0.5])
        assert ok
        cf = rows_by_series(rows, "closed_form")[0]
        assert cf.y == pytest.approx(0.5, rel=1e-12)
        eo = rows_by_series(rows, "exact_oracle")[0]
        assert abs(eo.y - 0.5) <= 1e-12
        gap = rows_by_series(rows, "gap")[0]
        assert gap.aux_note == "pass"

    def test_two_by_two_with_jump(self):
        rows, ok = cmd_oracle_check(
            cfg=ChannelConfig(2, 2, 0.5),
            r_grid=[round(0.05 * i, 10) for i in range(1, 41)])
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

    def test_three_by_three_segment_region(self):
        rows, ok = cmd_oracle_check(
            cfg=ChannelConfig(3, 3, 1.0 / 3.0), r_grid=[2.2])
        assert ok
        cf = rows_by_series(rows, "closed_form")[0]
        assert cf.y == pytest.approx(25.0, rel=1e-12)

    def test_failure_reported(self, monkeypatch):
        # An oracle that misses the closed form by more than float
        # precision makes rows fail and flips ok.
        monkeypatch.setattr(reports, "exact_oracle_curve",
                            lambda cfg, r_probes: ([100.0] * len(r_probes),) * 2)
        rows, ok = cmd_oracle_check(
            cfg=ChannelConfig(2, 2, 0.5), r_grid=[0.4])
        assert not ok
        assert rows_by_series(rows, "gap")[0].aux_note == "fail"

    def test_attained_value_checked_at_jump(self, monkeypatch):
        # On the 2x2 link at alpha = 0.5 the curve drops from 7.5 to 1.5 at
        # r = 1.5: an oracle that gets the left limit right but the attained
        # value wrong fails that probe.
        monkeypatch.setattr(reports, "exact_oracle_curve",
                            lambda cfg, r_probes: ([7.5], [2.0]))
        rows, ok = cmd_oracle_check(
            cfg=ChannelConfig(2, 2, 0.5), r_grid=[1.5])
        assert not ok
        assert rows_by_series(rows, "gap")[0].y == pytest.approx(0.5)


class TestCmdSimulate:
    def _run(self):
        return cmd_simulate(
            cfg=ChannelConfig(1, 1, 0.0), r=0.5, rho_grid=[10.0, 100.0, 1000.0],
            trials=2000, policy=PowerPolicy(t=0.0), seed=1729, workers=1)

    def test_rows_and_summary(self):
        rows = self._run()
        p_rows = rows_by_series(rows, "p_out")
        assert [row.x for row in p_rows] == [10.0, 100.0, 1000.0]
        assert all(row.aux_k == 2000 for row in p_rows)
        assert len(rows_by_series(rows, "ci")) == 3
        summary = rows_by_series(rows, "summary")[0]
        assert summary.x == 0.0  # t
        assert summary.aux_note == "calibrated"
        assert math.isfinite(summary.y)

    def test_deterministic(self):
        a = self._run()
        b = self._run()
        assert a == b


class TestCmdFigures:
    def test_fig4_series_values(self):
        rows = cmd_figures(fig=4)
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

    def test_fig5_branches(self):
        rows = cmd_figures(fig=5)
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
        rows2 = cmd_figures(fig=2)
        names = {row.series for row in rows2}
        assert any("alpha=0.5" in s and s.startswith("d_O") for s in names)
        assert any("alpha=1" in s and s.startswith("d_O") for s in names)
        rows3 = cmd_figures(fig=3)
        write_dataset(rows3, tmp_path / "f3.json", "json")
        names3 = {row.series for row in rows3}
        assert "d_k[k=1,alpha=0.1]" in names3
        assert "d_k[k=2,alpha=0.1]" in names3
        loaded = read_dataset(tmp_path / "f3.json")
        assert len(loaded) == len(rows3)

    def test_unknown_fig_rejected(self):
        with pytest.raises(ValueError):
            cmd_figures(fig=7)

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
        write_dataset(cmd_figures(fig=fig), path, fmt)
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.FIGURE_SHA256[(fig, fmt)]

    # SHA-256 of the ``simulate`` csv at the criterion-10 settings (alpha
    # 0.5, r 1, rho 10/100/1000, 20,000 trials, t 0.9, seed 1000) per link.
    # They pin every outage count: a change to these bytes changes a Monte
    # Carlo result and must be made on purpose.
    SIMULATE_SHA256 = {
        (1, 1): "252d159c619ddb2f234cf5081ae2a671bead32c80f1f258d33d87d8b68d566a5",
        (2, 1): "57592fa1268eb895a86385fbf0e347579c952bff5464265039efe055a8ac7e53",
        (2, 2): "937815741b6c56d4b51aac931ecf3bbe1f5bcbcd90c2903e1bdf6ba0d3b42d2c",
        (3, 2): "3ac1d39a15342d5ffc1bd64ab579972b782e8b849d7cc711ff4ff41d6dccf30c",
        (3, 3): "87dc0963d99b4f8d2c1e0ef9d6d2b8733898082914c59d47801d32078a08e37c",
        (4, 4): "ab9edc598a31c1ecf1c8ab24557515c18007dd1feddc0e75e3e59afa856508e8",
        (6, 6): "3b682f2e10a2f8625221e534054f558725866bbde0add9b1c37d1b86f479b728",
    }

    @pytest.mark.parametrize("m,n", sorted(SIMULATE_SHA256))
    def test_simulate_bytes_stable(self, m, n, tmp_path):
        path = tmp_path / f"sim{m}{n}.csv"
        rows = cmd_simulate(cfg=ChannelConfig(m, n, 0.5), r=1.0,
                            rho_grid=[10.0, 100.0, 1000.0], trials=20_000,
                            policy=PowerPolicy(t=0.9), seed=1000)
        write_dataset(rows, path, "csv")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        assert digest == self.SIMULATE_SHA256[(m, n)]

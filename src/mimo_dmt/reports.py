"""Tabular report builders shared by the command-line tool.

Every builder returns a flat list of :class:`Row` named tuples
``(series, x, y, aux_k, aux_note)``, so a row equals the plain tuple of its
fields, and writes nothing: the command line writes the rows a command
returns with :func:`write_dataset`.  Two on-disk formats are supported, CSV
and JSON; both serialize non-finite numbers as the lowercase tokens ``inf``,
``-inf`` and ``nan`` so the files stay strictly valid for their format and
round-trip bit-for-bit.  A CSV row is written with one ``%`` format, its
text fields quoted exactly as ``csv.writer`` quotes them.
The command line opens its output before a run and hands the writer the
open descriptor.  An existing output file is rewritten in place, cut to one
byte before the write rather than to zero, and to the bytes written after
it; a pipe or device gets the bytes as they are.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple

import contextlib
import csv
import io
import json
import os
import stat

import numpy as np

from .channel import ChannelConfig
from .oracle import exact_oracle_curve
from .simulate import PowerPolicy, run_sweep
from .tradeoff import (
    active_indices,
    baseline_no_csit,
    baseline_rate_adaptation,
    compute_dmt_curve,
    eval_dmt,
    eval_dmt_jump,
    subset_diversity,
)

__all__ = [
    "Row",
    "cmd_curve",
    "cmd_figures",
    "cmd_oracle_check",
    "cmd_simulate",
    "read_dataset",
    "write_dataset",
]

# Relative agreement the closed form and the exact oracle must reach.
_ORACLE_TOL = 1e-9


class Row(NamedTuple):
    """One dataset point: a named series, an (x, y) pair, and annotations.

    A named tuple, so it equals the plain tuple of its five fields."""

    series: str
    x: float
    y: float
    aux_k: Optional[int] = None
    aux_note: Optional[str] = None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _json_number(value: float):
    value = float(value)
    return value if np.isfinite(value) else "%.17g" % value


@contextlib.contextmanager
def _rewritten(path, newline):
    """Write to ``path`` as text, and rewrite a regular file in place.

    ``path`` is opened, and closed afterwards, unless it is already an open
    descriptor.  The file is cut to one byte, not to zero, before the body
    writes, and to the bytes that reached it afterwards, also when a write
    raises.  On ext4 (with ``auto_da_alloc`` and ``discard``) a truncate to
    zero made each rewrite of a file that holds data several times slower.
    A pipe or device is never cut."""
    opened = not isinstance(path, int)
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0),
                 0o666) if opened else path
    try:
        info = os.fstat(fd)
        regular = stat.S_ISREG(info.st_mode)
        if regular and info.st_size > 1:
            os.ftruncate(fd, 1)
        try:
            with open(fd, "w", newline=newline, closefd=False) as handle:
                yield handle
        finally:
            if regular:
                # Where the writes ended, without flushing again: after a
                # failed write a flush would fail too.
                os.ftruncate(fd, os.lseek(fd, 0, os.SEEK_CUR))
    finally:
        if opened:
            os.close(fd)


class _CsvFields(dict):
    """Each distinct text as ``csv.writer`` writes it as a field, and
    ``None`` as the empty field.  The writer quotes each new text once, in
    a row with a second, empty field, since it quotes a row's lone empty
    field."""

    def __init__(self):
        super().__init__({None: ""})
        self._buffer = io.StringIO()
        self._writer = csv.writer(self._buffer)

    def __missing__(self, text):
        self._buffer.seek(0)
        self._buffer.truncate()
        self._writer.writerow((text, ""))
        field = self[text] = self._buffer.getvalue()[:-3]  # less ",\r\n"
        return field


def write_dataset(rows: Sequence[Row], path, fmt: str) -> None:
    """Write ``rows`` to ``path`` as ``fmt`` ("csv" or "json").

    ``path`` is a file path, or a descriptor open for writing at offset 0,
    which is written and left open: the command line opens its output
    before the run and hands the descriptor here.

    A CSV row is one ``%`` format: ``"%.17g"`` for x and y, which
    round-trips every finite float and spells the others inf, -inf and nan,
    and the series and note quoted as ``csv.writer`` quotes them, decided
    once per distinct text and call.  The bytes equal those of
    ``csv.writer.writerows`` over the same fields.

    A regular file is rewritten in place, keeping its inode and mode.  It
    ends where the writes ended, also when a write raises, so a row that
    cannot be formatted leaves the rows before it.  A run killed part way
    leaves a short file, as a truncate to zero would, except that its first
    byte may be the old file's.  A pipe or device (such as ``/dev/stdout``
    or ``/dev/null``) gets the bytes as they are.
    """
    if fmt == "csv":
        field = _CsvFields()
        with _rewritten(path, "") as handle:
            handle.write("series,x,y,aux_k,aux_note\r\n")
            handle.writelines(
                "%s,%.17g,%.17g,%s,%s\r\n"
                % (field[series], x, y, "" if aux_k is None else int(aux_k),
                   field[aux_note])
                for series, x, y, aux_k, aux_note in rows)
    elif fmt == "json":
        payload = {
            "rows": [
                {
                    "series": row.series,
                    "x": _json_number(row.x),
                    "y": _json_number(row.y),
                    "aux_k": None if row.aux_k is None else int(row.aux_k),
                    "aux_note": row.aux_note,
                }
                for row in rows
            ]
        }
        with _rewritten(path, None) as handle:
            json.dump(payload, handle, allow_nan=False, indent=1)
            handle.write("\n")
    else:
        raise ValueError(f"unknown dataset format: {fmt!r}")


def read_dataset(path) -> List[Row]:
    """Read a dataset written by :func:`write_dataset`, inferring the format
    from the file extension."""
    path = Path(path)
    rows: List[Row] = []
    if path.suffix.lower() == ".json":
        with path.open() as handle:
            payload = json.load(handle)
        for item in payload["rows"]:
            rows.append(
                Row(
                    series=item["series"],
                    x=float(item["x"]),
                    y=float(item["y"]),
                    aux_k=None if item["aux_k"] is None else int(item["aux_k"]),
                    aux_note=item["aux_note"],
                )
            )
    else:
        with path.open(newline="") as handle:
            reader = csv.DictReader(handle)
            for item in reader:
                rows.append(
                    Row(
                        series=item["series"],
                        x=float(item["x"]),
                        y=float(item["y"]),
                        aux_k=None if item["aux_k"] == "" else int(item["aux_k"]),
                        aux_note=None if item["aux_note"] == "" else item["aux_note"],
                    )
                )
    return rows


# ---------------------------------------------------------------------------
# curve reports
# ---------------------------------------------------------------------------


def _format_alpha(alpha: float) -> str:
    return "%g" % float(alpha)


def cmd_curve(*, cfgs: Sequence[ChannelConfig], r_grid: Sequence[float]) -> List[Row]:
    """Tabulate the tradeoff curve, its segments, and the per-subset overlays
    for each link configuration, one series label per estimate-quality
    exponent.  A rate outside ``[0, n]`` for a link with ``n`` receive
    antennas is a ``ValueError``."""
    grid = [float(r) for r in r_grid]
    rows: List[Row] = []
    for cfg in cfgs:
        n = cfg.n_rx
        for r in grid:
            if not (0.0 <= r <= n):
                raise ValueError(f"rate {r!r} outside the multiplexing range [0, {n}]")
        label = _format_alpha(cfg.alpha)
        curve = compute_dmt_curve(cfg)
        seg_name = f"segments[alpha={label}]"
        for seg in curve:
            rows.append(Row(seg_name, seg.r_left, seg.d_left, seg.k, None))
            rows.append(Row(seg_name, seg.r_right, seg.d_right, seg.k, None))
        full_name = f"d_O[alpha={label}]"
        # A rate within 1e-9 of a jump is read at the jump itself, by the
        # curve and by the overlays alike, so that their minimum is the
        # curve's attained value.
        read_at = []
        for r in grid:
            jump = eval_dmt_jump(curve, r)
            if jump is None:
                rows.append(Row(full_name, r, eval_dmt(curve, r), None, None))
                read_at.append(r)
            else:
                boundary, limit, value = jump
                rows.append(Row(full_name, r, limit, None, "limit"))
                rows.append(Row(full_name, r, value, None, "value"))
                read_at.append(boundary)
        for k in range(1, n + 1):
            sub_name = f"d_k[k={k},alpha={label}]"
            for r, r_at in zip(grid, read_at):
                rows.append(Row(sub_name, r, subset_diversity(cfg, k, r_at), k, None))
    return rows


# ---------------------------------------------------------------------------
# oracle cross-check report
# ---------------------------------------------------------------------------


def cmd_oracle_check(*, cfg: ChannelConfig,
                     r_grid: Sequence[float]) -> Tuple[List[Row], bool]:
    """Compare the closed-form curve against the exact vertex-enumeration
    oracle at each probe rate and flag any disagreement beyond float
    precision: ``1e-9 * max(1, |d|)``."""
    probes = [float(r) for r in r_grid]
    curve = compute_dmt_curve(cfg)
    jumps = [eval_dmt_jump(curve, r) for r in probes]
    # The closed form reads a probe this close to a jump at the jump itself,
    # so the oracle is asked there too.
    rates = [r if jump is None else jump[0] for r, jump in zip(probes, jumps)]
    # Plain floats, so that each gap and verdict is float arithmetic.
    left_limit, attained = np.asarray(exact_oracle_curve(cfg, rates)).tolist()
    rows: List[Row] = []
    ok = True
    for r, jump, oracle_limit, oracle_value in zip(probes, jumps, left_limit, attained):
        if jump is None:
            cf_y = eval_dmt(curve, r)
            note = None
            gap = abs(cf_y - oracle_limit)
        else:
            # At a discontinuity the oracle's strict outage condition sees
            # the approach-from-below optimum, so that is the value the row
            # reports; the attained value must agree as well.
            _, cf_y, cf_value = jump
            note = "left_limit"
            gap = max(abs(cf_y - oracle_limit), abs(cf_value - oracle_value))
        passed = gap <= _ORACLE_TOL * max(1.0, abs(cf_y))
        ok = ok and passed
        rows.append(Row("closed_form", r, cf_y, None, note))
        rows.append(Row("exact_oracle", r, oracle_limit, None, None))
        rows.append(Row("gap", r, gap, None, "pass" if passed else "fail"))
    return rows, ok


# ---------------------------------------------------------------------------
# simulation report
# ---------------------------------------------------------------------------


def cmd_simulate(*, cfg: ChannelConfig, r: float, rho_grid: Sequence[float],
                 trials: int, policy: PowerPolicy, seed: int,
                 workers: int = 1) -> List[Row]:
    """Run the outage sweep and tabulate probabilities, confidence intervals,
    and the fitted high-SNR slope."""
    sweep = run_sweep(cfg, r, list(rho_grid), trials, policy, seed=seed,
                      workers=workers)
    rows: List[Row] = []
    for rho, p in zip(sweep.rho_grid, sweep.p_out):
        rows.append(Row("p_out", float(rho), float(p), trials, None))
    for rho, half in zip(sweep.rho_grid, sweep.ci_half_width):
        rows.append(Row("ci", float(rho), float(half), trials, None))
    rows.append(Row("summary", float(policy.t), float(sweep.fitted_slope), None,
                    "calibrated"))
    return rows


# ---------------------------------------------------------------------------
# canned figures
# ---------------------------------------------------------------------------


def _figure_curve_family() -> List[Row]:
    # 2x2 link: full curve for several estimate qualities, jump rows included.
    return cmd_curve(
        cfgs=[ChannelConfig(2, 2, alpha) for alpha in (0.0, 0.5, 1.0)],
        r_grid=np.linspace(0.0, 2.0, 81),
    )


def _figure_subset_overlays() -> List[Row]:
    # Asymmetric link: the per-subset pieces that assemble the full curve.
    return cmd_curve(
        cfgs=[ChannelConfig(4, 2, 0.1)],
        r_grid=np.linspace(0.0, 2.0, 81),
    )


def _figure_policy_comparison() -> List[Row]:
    # Single-receive-antenna link at full rate: compare no feedback, rate
    # adaptation, and power adaptation as the estimate quality grows.
    rows: List[Row] = []
    for alpha in np.linspace(0.0, 1.0, 21):
        a = float(alpha)
        cfg = ChannelConfig(4, 1, a)
        no_csit = eval_dmt(baseline_no_csit(cfg), 1.0)
        rate = eval_dmt(baseline_rate_adaptation(cfg), 1.0)
        power = eval_dmt(compute_dmt_curve(cfg), 1.0)
        rows.append(Row("no_csit", a, no_csit, None, None))
        rows.append(Row("rate_adaptation", a, rate, None, None))
        rows.append(Row("power_adaptation", a, power, None, None))
        rows.append(Row("gap_power_minus_rate", a, power - rate, None, None))
    return rows


def _figure_full_rate_quality() -> List[Row]:
    # Larger link at maximum multiplexing rate: the achieved reliability as a
    # function of the estimate quality, annotated with the surviving subset
    # size, with probes bracketing the two branch-change points.
    base = [round(0.05 * i, 10) for i in range(21)]
    lo = 1.0 / 6.0
    extra = [lo - 1e-9, lo + 1e-9, 0.25 - 1e-9]
    alphas = sorted(set(base + extra))
    rows: List[Row] = []
    for a in alphas:
        cfg = ChannelConfig(5, 3, float(a))
        curve = compute_dmt_curve(cfg)
        active, _ = active_indices(cfg)
        rows.append(Row("d_full_rate", float(a), eval_dmt(curve, 3.0), active[0], None))
    return rows


_FIGURES = {
    2: _figure_curve_family,
    3: _figure_subset_overlays,
    4: _figure_policy_comparison,
    5: _figure_full_rate_quality,
}


def cmd_figures(*, fig: int) -> List[Row]:
    """Build one of the canned datasets by figure id."""
    builder = _FIGURES.get(fig)
    if builder is None:
        raise ValueError(f"unknown figure id: {fig!r}")
    return builder()

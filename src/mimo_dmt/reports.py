"""Tabular report builders shared by the command-line tool.

Every builder returns a flat list of ``(series, x, y, aux_k, aux_note)`` rows
and optionally writes them to disk.  Two on-disk formats are supported, CSV
and JSON; both serialize non-finite numbers as the lowercase tokens ``inf``,
``-inf`` and ``nan`` so the files stay strictly valid for their format and
round-trip bit-for-bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Tuple

import csv
import json

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

_FIELDS = ("series", "x", "y", "aux_k", "aux_note")
# Relative agreement the closed form and the exact oracle must reach.
_ORACLE_TOL = 1e-9


@dataclass(frozen=True)
class Row:
    """One dataset point: a named series, an (x, y) pair, and annotations."""

    series: str
    x: float
    y: float
    aux_k: Optional[int] = None
    aux_note: Optional[str] = None


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def _float_token(value: float) -> str:
    value = float(value)
    if math.isnan(value):
        return "nan"
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    return "%.17g" % value


def _json_number(value: float):
    value = float(value)
    return value if math.isfinite(value) else _float_token(value)


def write_dataset(rows: Sequence[Row], path, fmt: str) -> None:
    """Write ``rows`` to ``path`` as ``fmt`` ("csv" or "json")."""
    path = Path(path)
    if fmt == "csv":
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(_FIELDS)
            for row in rows:
                writer.writerow([
                    row.series,
                    _float_token(row.x),
                    _float_token(row.y),
                    "" if row.aux_k is None else str(int(row.aux_k)),
                    "" if row.aux_note is None else row.aux_note,
                ])
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
        with path.open("w") as handle:
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


def _maybe_write(rows: Sequence[Row], out, fmt: str) -> None:
    if out is not None:
        write_dataset(rows, out, fmt)


# ---------------------------------------------------------------------------
# curve reports
# ---------------------------------------------------------------------------


def _format_alpha(alpha: float) -> str:
    return "%g" % float(alpha)


def _curve_rows(cfg: ChannelConfig, alphas: Sequence[float], r_grid: Sequence[float]) -> List[Row]:
    n = cfg.n_rx
    grid = [float(r) for r in r_grid]
    for r in grid:
        if not (0.0 <= r <= n):
            raise ValueError(f"rate {r!r} outside the multiplexing range [0, {n}]")
    rows: List[Row] = []
    for alpha in alphas:
        sub = ChannelConfig(cfg.m_tx, cfg.n_rx, float(alpha))
        label = _format_alpha(alpha)
        curve = compute_dmt_curve(sub)
        seg_name = f"segments[alpha={label}]"
        for seg in curve.segments:
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
                rows.append(Row(sub_name, r, subset_diversity(sub, k, r_at), k, None))
    return rows


def cmd_curve(*, cfg: ChannelConfig, alpha_list: Sequence[float],
              r_grid: Sequence[float], out=None, fmt: str = "csv") -> List[Row]:
    """Tabulate the tradeoff curve, its segments, and the per-subset overlays
    for each requested estimate-quality exponent."""
    rows = _curve_rows(cfg, list(alpha_list), list(r_grid))
    _maybe_write(rows, out, fmt)
    return rows


# ---------------------------------------------------------------------------
# oracle cross-check report
# ---------------------------------------------------------------------------


def cmd_oracle_check(*, cfg: ChannelConfig, r_grid: Sequence[float],
                     out=None, fmt: str = "csv") -> Tuple[List[Row], bool]:
    """Compare the closed-form curve against the exact vertex-enumeration
    oracle at each probe rate and flag any disagreement beyond float
    precision: ``1e-9 * max(1, |d|)``."""
    probes = [float(r) for r in r_grid]
    curve = compute_dmt_curve(cfg)
    jumps = [eval_dmt_jump(curve, r) for r in probes]
    # The closed form reads a probe this close to a jump at the jump itself,
    # so the oracle is asked there too.
    rates = [r if jump is None else jump[0] for r, jump in zip(probes, jumps)]
    left_limit, attained = exact_oracle_curve(cfg, rates)
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
        passed = bool(gap <= _ORACLE_TOL * max(1.0, abs(cf_y)))
        ok = ok and passed
        rows.append(Row("closed_form", r, cf_y, None, note))
        rows.append(Row("exact_oracle", r, float(oracle_limit), None, None))
        rows.append(Row("gap", r, gap, None, "pass" if passed else "fail"))
    _maybe_write(rows, out, fmt)
    return rows, ok


# ---------------------------------------------------------------------------
# simulation report
# ---------------------------------------------------------------------------


def cmd_simulate(*, cfg: ChannelConfig, r: float, rho_grid: Sequence[float],
                 trials: int, policy: PowerPolicy, seed: int, workers: int = 1,
                 out=None, fmt: str = "csv") -> List[Row]:
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
                    "calibrated" if policy.kappa is None else "set"))
    _maybe_write(rows, out, fmt)
    return rows


# ---------------------------------------------------------------------------
# canned figures
# ---------------------------------------------------------------------------


def _figure_curve_family() -> List[Row]:
    # 2x2 link: full curve for several estimate qualities, jump rows included.
    return _curve_rows(
        ChannelConfig(2, 2, 0.0),
        [0.0, 0.5, 1.0],
        list(np.linspace(0.0, 2.0, 81)),
    )


def _figure_subset_overlays() -> List[Row]:
    # Asymmetric link: the per-subset pieces that assemble the full curve.
    return _curve_rows(
        ChannelConfig(4, 2, 0.1),
        [0.1],
        list(np.linspace(0.0, 2.0, 81)),
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


def cmd_figures(*, fig: int, out=None, fmt: str = "csv") -> List[Row]:
    """Build one of the canned datasets by figure id."""
    builder = _FIGURES.get(fig)
    if builder is None:
        raise ValueError(f"unknown figure id: {fig!r}")
    rows = builder()
    _maybe_write(rows, out, fmt)
    return rows

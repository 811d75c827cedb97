"""Command-line interface for the tradeoff library.

Four subcommands mirror the report builders: ``curve`` tabulates the
closed-form tradeoff, ``oracle-check`` cross-validates it against the exact
vertex-enumeration oracle, ``simulate`` runs the finite-SNR outage sweep, and
``figures`` emits the canned datasets.  All randomized work defaults to the
documented seed below so runs are reproducible by default.

Exit codes: 0 on success, 1 when ``oracle-check`` finds a disagreement, and
2 for a usage error (bad flags or values, or an unwritable output path).
"""

from __future__ import annotations

import argparse
import functools
from pathlib import Path
from typing import List, Optional, Sequence

import numpy as np

from .channel import ChannelConfig
from .reports import cmd_curve, cmd_figures, cmd_oracle_check, cmd_simulate
from .simulate import PowerPolicy

__all__ = ["DEFAULT_SEED", "main"]

DEFAULT_SEED = 1729


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from exc
    if not value > 0.0:
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _alpha_values(args: argparse.Namespace) -> List[float]:
    if args.alpha_list is None:
        return [float(args.alpha)]
    alphas = [float(tok) for tok in args.alpha_list.split(",") if tok.strip()]
    if not alphas:
        raise ValueError(f"--alpha-list needs at least one value, got {args.alpha_list!r}")
    return alphas


def _rate_grid(n: int, step: float, include_zero: bool = True) -> List[float]:
    count = int(round(n / step))
    grid = [round(i * step, 10) for i in range(count + 1)]
    grid = [g for g in grid if g <= n]
    if not grid or abs(grid[-1] - n) > 1e-12:
        grid.append(float(n))
    if not include_zero:
        grid = [g for g in grid if g > 0.0]
    return grid


def _add_link_flags(parser: argparse.ArgumentParser, *, alpha_choice: bool) -> None:
    parser.add_argument("--m", type=_positive_int, required=True,
                        help="number of transmit antennas")
    parser.add_argument("--n", type=_positive_int, required=True,
                        help="number of receive antennas")
    if alpha_choice:
        group = parser.add_mutually_exclusive_group(required=True)
        group.add_argument("--alpha", type=float,
                           help="estimate-quality exponent")
        group.add_argument("--alpha-list",
                           help="comma-separated estimate-quality exponents")
    else:
        parser.add_argument("--alpha", type=float, required=True,
                            help="estimate-quality exponent")


def _add_output_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", required=True, help="output file path")
    parser.add_argument("--format", choices=("csv", "json"), default="csv",
                        help="output format (default: csv)")


def _run_curve(args: argparse.Namespace) -> int:
    alphas = _alpha_values(args)
    cfg = ChannelConfig(args.m, args.n, alphas[0])
    cmd_curve(cfg=cfg, alpha_list=alphas, r_grid=_rate_grid(cfg.n_rx, args.r_step),
              out=args.out, fmt=args.format)
    return 0


def _run_oracle_check(args: argparse.Namespace) -> int:
    cfg = ChannelConfig(args.m, args.n, args.alpha)
    _, ok = cmd_oracle_check(
        cfg=cfg, r_grid=_rate_grid(cfg.n_rx, args.r_step, include_zero=False),
        out=args.out, fmt=args.format)
    return 0 if ok else 1


def _run_simulate(args: argparse.Namespace) -> int:
    cfg = ChannelConfig(args.m, args.n, args.alpha)
    db_grid = np.linspace(args.rho_start_db, args.rho_stop_db, args.rho_points)
    rho_grid = [10.0 ** (db / 10.0) for db in db_grid]
    cmd_simulate(cfg=cfg, r=args.r, rho_grid=rho_grid, trials=args.trials,
                 policy=PowerPolicy(t=args.t), seed=args.seed,
                 workers=args.workers, out=args.out, fmt=args.format)
    return 0


def _run_figures(args: argparse.Namespace) -> int:
    cmd_figures(fig=args.fig, out=args.out, fmt=args.format)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and reused after:
    ``parse_args`` leaves it unchanged, and building it costs more than
    parsing."""
    parser = argparse.ArgumentParser(
        prog="mimo-dmt",
        description="Diversity-multiplexing tradeoff tools for fading links "
                    "with an imperfect transmitter-side channel estimate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    curve = sub.add_parser("curve", help="tabulate the closed-form tradeoff curve")
    _add_link_flags(curve, alpha_choice=True)
    curve.add_argument("--r-step", type=_positive_float, default=0.05,
                       help="spacing of the multiplexing-rate grid (default: 0.05)")
    _add_output_flags(curve)
    curve.set_defaults(handler=_run_curve)

    oracle = sub.add_parser(
        "oracle-check",
        help="cross-validate the closed form against the exact oracle",
    )
    _add_link_flags(oracle, alpha_choice=False)
    oracle.add_argument("--r-step", type=_positive_float, default=0.1,
                        help="spacing of the probe-rate grid (default: 0.1)")
    _add_output_flags(oracle)
    oracle.set_defaults(handler=_run_oracle_check)

    sim = sub.add_parser("simulate", help="Monte Carlo outage sweep over SNR")
    _add_link_flags(sim, alpha_choice=False)
    sim.add_argument("--r", type=float, required=True, help="multiplexing rate")
    sim.add_argument("--rho-start-db", type=float, default=10.0,
                     help="first SNR point in dB (default: 10)")
    sim.add_argument("--rho-stop-db", type=float, default=40.0,
                     help="last SNR point in dB (default: 40)")
    sim.add_argument("--rho-points", type=_positive_int, default=7,
                     help="number of SNR points (default: 7)")
    sim.add_argument("--trials", type=_positive_int, required=True,
                     help="Monte Carlo trials per SNR point")
    sim.add_argument("--t", type=float, default=0.9,
                     help="power-adaptation damping exponent (default: 0.9)")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"random seed (default: {DEFAULT_SEED})")
    sim.add_argument("--workers", type=_positive_int, default=1,
                     help="worker threads for the sweep (default: 1)")
    _add_output_flags(sim)
    sim.set_defaults(handler=_run_simulate)

    figures = sub.add_parser("figures", help="emit a canned dataset by id")
    figures.add_argument("--fig", type=int, choices=(2, 3, 4, 5), required=True,
                         help="figure id")
    _add_output_flags(figures)
    figures.set_defaults(handler=_run_figures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    out_dir = Path(args.out).parent
    if not out_dir.is_dir():
        parser.error(f"output directory {str(out_dir)!r} does not exist")
    try:
        return args.handler(args)
    except (ValueError, OSError) as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())

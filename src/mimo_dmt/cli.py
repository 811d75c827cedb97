"""Command-line interface for the tradeoff library.

Four subcommands mirror the report builders: ``curve`` tabulates the
closed-form tradeoff, ``oracle-check`` cross-validates it against the exact
vertex-enumeration oracle, ``simulate`` runs the finite-SNR outage sweep, and
``figures`` emits the canned datasets.  Each builder returns its rows, and
:func:`main` writes them to ``--out``: it is the one place a dataset is
written.  All randomized work defaults to the documented seed below so runs
are reproducible by default.

Exit codes: 0 on success, 1 when ``oracle-check`` finds a disagreement, and
2 for a usage error (bad flags or values, or an output path that cannot be
opened for writing), reported under the subcommand's usage line.  The output
is opened, or created, before the run; a run that fails removes a file it
created and leaves an existing one as it was.
"""

from __future__ import annotations

import argparse
import functools
import os
from typing import List, Optional, Sequence, Tuple

import numpy as np

from . import reports
from .channel import ChannelConfig
from .reports import Row, cmd_curve, cmd_figures, cmd_oracle_check, cmd_simulate
from .simulate import PowerPolicy

__all__ = ["DEFAULT_SEED", "main"]

DEFAULT_SEED = 1729
# Most rates a ``--r-step`` grid may hold: a finer grid would exhaust memory
# long before its run ends.
_MAX_RATES = 100_000


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
    if n / step + 1 > _MAX_RATES:
        raise ValueError(f"--r-step {step:g} asks for {n / step + 1:.3g} rates on "
                         f"[0, {n}]; at most {_MAX_RATES:,} are allowed")
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


def _run_curve(args: argparse.Namespace) -> Tuple[List[Row], int]:
    cfgs = [ChannelConfig(args.m, args.n, alpha) for alpha in _alpha_values(args)]
    return cmd_curve(cfgs=cfgs, r_grid=_rate_grid(cfgs[0].n_rx, args.r_step)), 0


def _run_oracle_check(args: argparse.Namespace) -> Tuple[List[Row], int]:
    cfg = ChannelConfig(args.m, args.n, args.alpha)
    rows, ok = cmd_oracle_check(
        cfg=cfg, r_grid=_rate_grid(cfg.n_rx, args.r_step, include_zero=False))
    return rows, 0 if ok else 1


def _run_simulate(args: argparse.Namespace) -> Tuple[List[Row], int]:
    cfg = ChannelConfig(args.m, args.n, args.alpha)
    # A dB value past about 3080 has no finite SNR; the sweep rejects the
    # non-finite point, so NumPy need not warn of it.
    with np.errstate(over="ignore", invalid="ignore"):
        db_grid = np.linspace(args.rho_start_db, args.rho_stop_db, args.rho_points)
        rho_grid = [10.0 ** (db / 10.0) for db in db_grid]
    return cmd_simulate(cfg=cfg, r=args.r, rho_grid=rho_grid, trials=args.trials,
                        policy=PowerPolicy(t=args.t), seed=args.seed,
                        workers=args.workers), 0


def _run_figures(args: argparse.Namespace) -> Tuple[List[Row], int]:
    return cmd_figures(fig=args.fig), 0


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
    curve.set_defaults(handler=_run_curve, command_parser=curve)

    oracle = sub.add_parser(
        "oracle-check",
        help="cross-validate the closed form against the exact oracle",
    )
    _add_link_flags(oracle, alpha_choice=False)
    oracle.add_argument("--r-step", type=_positive_float, default=0.1,
                        help="spacing of the probe-rate grid (default: 0.1)")
    _add_output_flags(oracle)
    oracle.set_defaults(handler=_run_oracle_check, command_parser=oracle)

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
    sim.add_argument("--t", type=float, default=PowerPolicy.t,
                     help="power-adaptation damping exponent (default: %(default)s)")
    sim.add_argument("--seed", type=int, default=DEFAULT_SEED,
                     help=f"random seed (default: {DEFAULT_SEED})")
    sim.add_argument("--workers", type=_positive_int, default=1,
                     help="worker threads for the sweep (default: 1)")
    _add_output_flags(sim)
    sim.set_defaults(handler=_run_simulate, command_parser=sim)

    figures = sub.add_parser("figures", help="emit a canned dataset by id")
    figures.add_argument("--fig", type=int, choices=(2, 3, 4, 5), required=True,
                         help="figure id")
    _add_output_flags(figures)
    figures.set_defaults(handler=_run_figures, command_parser=figures)

    return parser


def _open_output(path: str) -> Tuple[int, bool]:
    """A descriptor open for writing on ``path``, and whether this call
    created the file.  An existing file is opened unchanged."""
    flags = os.O_WRONLY | os.O_CREAT | getattr(os, "O_BINARY", 0)
    try:
        return os.open(path, flags | os.O_EXCL, 0o666), True
    except FileExistsError:
        return os.open(path, flags, 0o666), False


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    # Errors found after parsing are reported under the subcommand's usage.
    error = args.command_parser.error
    # The output is opened before the run, so that a path that cannot be
    # written is a usage error that costs no computation.
    try:
        out, created = _open_output(args.out)
    except IsADirectoryError:
        error(f"output path {args.out!r} is a directory")
    except OSError as exc:
        error(f"cannot open output path {args.out!r}: {exc.strerror}")
    done = False
    try:
        rows, code = args.handler(args)
        reports.write_dataset(rows, out, args.format)
        done = True
        return code
    except (ValueError, OSError) as exc:
        error(str(exc))
    finally:
        os.close(out)
        # A failed run removes the file it created.  An existing file is
        # written only once the run has its rows, so a run that fails
        # before then leaves its bytes as they were.
        if created and not done:
            os.unlink(args.out)


if __name__ == "__main__":
    raise SystemExit(main())

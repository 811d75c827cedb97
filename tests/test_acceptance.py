"""Acceptance suite: one test per acceptance criterion, run at the stated
tolerance and budget.  Each test emits exactly one [criterion NN] PASS/FAIL
line; the -v test status line mirrors it."""
import math
import time
from unittest import mock

import numpy as np

from mimo_dmt import simulate
from mimo_dmt.channel import ChannelConfig, sample_channel_block
from mimo_dmt.oracle import exact_oracle_curve
from mimo_dmt.reports import cmd_simulate
from mimo_dmt.simulate import PowerPolicy, calibrate_kappa, run_sweep
from mimo_dmt.tradeoff import (
    active_indices,
    baseline_no_csit,
    compute_dmt_curve,
    eval_dmt,
    eval_dmt_jump,
)
from reference import dense_channel, gram_spectrum, reduced_quadrature_mean_weight


def _report(num, desc):
    def deco(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[criterion {num:02d}] FAIL: {desc}")
                raise
            print(f"[criterion {num:02d}] PASS: {desc}")
        wrapper.__name__ = fn.__name__
        return wrapper
    return deco


@_report(1, "2x2 worked example: symbolic segment endpoints at three alphas, < 1 ms")
def test_criterion_01_worked_example():
    compute_dmt_curve(ChannelConfig(2, 2, 0.5))  # warm up
    alphas = (0.1, 1.0 / 3.0, 0.5)
    start = time.perf_counter()
    curves = [compute_dmt_curve(ChannelConfig(2, 2, a)) for a in alphas]
    elapsed = time.perf_counter() - start
    for a, curve in zip(alphas, curves):
        s_hi, s_lo = curve
        for got, want in [
            (s_hi.r_left, 0.0), (s_hi.d_left, 16 * a + 4),
            (s_hi.r_right, 1 + a), (s_hi.d_right, 13 * a + 1),
            (s_lo.r_left, 1 + a), (s_lo.d_left, 1 + a),
            (s_lo.r_right, 2.0), (s_lo.d_right, 2 * a),
        ]:
            assert abs(got - want) <= 1e-12, (a, got, want)
    assert elapsed < 1e-3, f"took {elapsed * 1e3:.3f} ms"


@_report(2, "single-line regime matches its closed form on a 0.01 grid")
def test_criterion_02_single_line():
    curve = compute_dmt_curve(ChannelConfig(3, 3, 0.5))
    for r in np.arange(0.0, 3.0 + 1e-12, 0.01):
        want = 9 * (1 + 9 * 0.5) - 5 * r
        assert abs(eval_dmt(curve, float(r)) - want) <= 1e-12
    for kk in (1, 2, 4, 8):
        for a in (0.1, 0.5):
            c = compute_dmt_curve(ChannelConfig(kk, 1, a))
            for r in np.arange(0.0, 1.0 + 1e-12, 0.01):
                want = kk * (1 - float(r) + kk * a)
                assert abs(eval_dmt(c, float(r)) - want) <= 1e-12


@_report(3, "zero-quality feedback reduces to the classical baseline, < 1 s")
def test_criterion_03_baseline_reduction():
    start = time.perf_counter()
    for m in range(1, 6):
        for n in range(1, m + 1):
            cfg = ChannelConfig(m, n, 0.0)
            curve = compute_dmt_curve(cfg)
            base = baseline_no_csit(cfg)
            for r in np.arange(0.0, n + 1e-12, 0.01):
                r = float(min(r, n))
                assert abs(eval_dmt(curve, r) - eval_dmt(base, r)) <= 1e-12
    assert time.perf_counter() - start < 1.0


@_report(4, "exact oracle equals the closed form at every probe and both sides of every jump, < 10 s")
def test_criterion_04_oracle_equivalence():
    start = time.perf_counter()
    failures = []
    links = [(1, 1), (2, 1), (4, 1), (2, 2), (3, 2), (4, 2), (3, 3),
             (4, 4), (5, 3), (5, 4), (5, 5)]
    for m, n in links:
        for alpha in (0.0, 0.1, 1.0 / 3.0, 0.5, 1.0):
            cfg = ChannelConfig(m, n, alpha)
            curve = compute_dmt_curve(cfg)
            boundaries = [seg.r_right for seg in curve]
            rs = [round(0.05 * i, 10) for i in range(1, 20 * n + 1)] + boundaries
            limit, attained = exact_oracle_curve(cfg, rs)
            for r, got_limit, got_value in zip(rs, limit, attained):
                jump = eval_dmt_jump(curve, r)
                if jump is None:
                    checks = [(got_limit, eval_dmt(curve, r))]
                else:
                    checks = [(got_limit, jump[1]), (got_value, jump[2])]
                for got, want in checks:
                    if abs(got - want) > 1e-9 * max(1.0, abs(want)):
                        failures.append((m, n, alpha, r, got, want))
    assert not failures, failures[:10]
    assert time.perf_counter() - start < 10.0


@_report(5, "(5,3) full-rate diversity: active sets flip exactly at 1/6 and 1/4")
def test_criterion_05_cliff_structure():
    intervals = [
        ((0.01, 0.1, 1.0 / 6.0 - 1e-9), {1, 2, 3}),
        ((1.0 / 6.0 + 1e-9, 0.2, 0.25 - 1e-9), {2, 3}),
        ((0.25, 0.3, 0.4), {3}),
    ]
    for alphas, want in intervals:
        for a in alphas:
            active, _ = active_indices(ChannelConfig(5, 3, a))
            assert set(active) == want, (a, active)
    # the two branch changes produce upward jumps of d(N)
    def d_full(a):
        return eval_dmt(compute_dmt_curve(ChannelConfig(5, 3, a)), 3.0)
    assert d_full(1 / 6 + 1e-9) - d_full(1 / 6 - 1e-9) > 10.0
    assert d_full(0.25) - d_full(0.25 - 1e-9) > 26.0


@_report(6, "estimate-eigenvalue perturbation bound: zero violations on 1e5 draws, < 1 min")
def test_criterion_06_perturbation_bound_suite():
    start = time.perf_counter()
    per_cell = 11_112  # 9 cells -> 100_008 >= 1e5 triples
    total = 0
    seed = 600
    for rho in (10.0, 100.0, 1000.0):
        for alpha in (0.0, 0.5, 1.0):
            cfg = ChannelConfig(3, 2, alpha)
            seed += 1
            b, e = sample_channel_block(cfg, rho=rho, seed=seed, start=0, count=per_cell)
            h, e = dense_channel(b, cfg.m_tx), e[:, 0] + 1j * e[:, 1]
            a = gram_spectrum(h)
            b = gram_spectrum(h + e)
            c = gram_spectrum(e)
            eps = 1e-9 * np.maximum(1.0, b[:, -1])
            ok = b <= 2.0 * (a + c[:, -1:]) + eps[:, None]
            assert ok.all(), f"violations at rho={rho}, alpha={alpha}"
            total += per_cell
    assert total >= 100_000
    assert time.perf_counter() - start < 60.0


@_report(7, "power policy's kappa meets the average constraint to 1e-11, < 1 min")
def test_criterion_07_power_constraint():
    start = time.perf_counter()
    cfg = ChannelConfig(2, 2, 0.5)
    pol = PowerPolicy(t=0.9)
    # The mean power over the budget is kappa times the mean damped weight,
    # which an adaptive quadrature that shares no code with kappa's
    # Gauss–Jacobi rule computes afresh.
    kappa = calibrate_kappa(cfg, 1000.0, pol)
    ratio = kappa * reduced_quadrature_mean_weight()
    assert abs(ratio - 1.0) <= 1e-11, ratio
    assert time.perf_counter() - start < 60.0


@_report(8, "scalar outage probabilities match the closed form within 3 sigma")
def test_criterion_08_scalar_oracle():
    cfg = ChannelConfig(1, 1, 0.0)
    pol = PowerPolicy(t=0.0)
    rho_grid = [float(10.0 ** e) for e in np.linspace(1, 4, 6)]
    trials = 100_000
    sweep = run_sweep(cfg, 0.5, rho_grid, trials, pol, seed=800)
    for rho, p_hat in zip(rho_grid, sweep.p_out):
        p = 1.0 - math.exp(-(rho ** 0.5 - 1.0) / rho)
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(p_hat - p) <= 3 * sigma, (rho, p_hat, p)


@_report(9, "feedback quality steepens the fitted outage slope by >= 0.3, bit-reproducibly, < 15 min")
def test_criterion_09_finite_snr_ordering():
    start = time.perf_counter()
    rho_grid = [float(10.0 ** e) for e in np.linspace(1, 5, 6)]
    trials = 1_000_000
    pol = PowerPolicy(t=0.9)
    sweeps = {}
    for alpha in (0.0, 0.5):
        cfg = ChannelConfig(1, 2, alpha)
        sweeps[alpha] = run_sweep(cfg, 0.5, rho_grid, trials, pol, seed=900)
        again = run_sweep(cfg, 0.5, rho_grid, trials, pol, seed=900)
        assert sweeps[alpha].p_out == again.p_out, "not bit-reproducible"
        assert sweeps[alpha].fitted_slope == again.fitted_slope
    gap = sweeps[0.0].fitted_slope - sweeps[0.5].fitted_slope
    assert gap >= 0.3, f"slope gap {gap}"
    assert time.perf_counter() - start < 900.0


@_report(10, "simulate datasets are identical for any worker count")
def test_criterion_10_worker_determinism():
    def rows(workers):
        return cmd_simulate(
            cfg=ChannelConfig(2, 2, 0.5), r=1.0, rho_grid=[10.0, 100.0, 1000.0],
            trials=20_000, policy=PowerPolicy(t=0.9), seed=1000, workers=workers)
    one_span = rows(1)
    # Spans of 3,000 trials cut the sweep into seven, so the workers really
    # divide it.
    with mock.patch.object(simulate, "_TRIAL_CHUNK", 3000):
        rows_1 = rows(1)
        rows_3 = rows(3)
        rows_5 = rows(5)
    assert one_span == rows_1 == rows_3 == rows_5


@_report(11, "2x2 damped outage slope within 0.09 (r 1.2) and 0.06 (r 1.5) of d(r; alpha*t), < 1 min")
def test_criterion_11_damped_exponent():
    # At alpha 0.1 and t 0.5 plain sampling reaches the slope regime, so
    # the fitted slope reads the curve at alpha * t = 0.05, not the
    # paper's curve at alpha (1.0 and 0.7 at these rates).  The fit is
    # fixed before the run: the last four decades with >= 20 events.
    # Over seeds 1..20 the slope read 0.897 +- 0.020 at r 1.2 and 0.603 +-
    # 0.013 at r 1.5; each tolerance is the mean's offset plus 4 sd,
    # rounded up.  Seed 3 is the one ROADMAP item 9 measured with.
    start = time.perf_counter()
    rho_grid = [10.0 ** k for k in range(1, 11)]
    trials = 1 << 21
    target = compute_dmt_curve(ChannelConfig(2, 2, 0.05))
    for r, tol in ((1.2, 0.09), (1.5, 0.06)):
        sweep = run_sweep(ChannelConfig(2, 2, 0.1), r, rho_grid, trials,
                          PowerPolicy(t=0.5), seed=3, workers=2)
        fit = [(math.log(rho), math.log(p)) for rho, p in zip(rho_grid, sweep.p_out)
               if round(p * trials) >= 20][-4:]
        assert len(fit) == 4, sweep.p_out
        slope = -np.polyfit(*zip(*fit), 1)[0]
        d = eval_dmt(target, r)
        assert abs(slope - d) <= tol, (r, slope, d)
    assert time.perf_counter() - start < 60.0

"""Tests for power adaptation, constraint calibration, and outage sweeps."""
import math
import sys
import threading

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import quad
from scipy.special import gammainc, gammaln, logsumexp

from mimo_dmt import simulate
from mimo_dmt.channel import (
    ChannelConfig,
    _bit_generator,
    eigen_decay_weights,
    sample_channel_block,
    wishart_log_norm_const,
)
from mimo_dmt.simulate import (
    CAL_BATCH,
    OutageSweep,
    PowerPolicy,
    _count_outages_span,
    _damped_weight,
    _grid_kappas,
    _least_squares_slope,
    _log_is_weights,
    _mean_damped_weight,
    calibrate_kappa,
    run_sweep,
)

# Mean damped-eigenvalue-product weight E[prod b_n^{-t c_n}] for the 2x2
# channel estimate at t=0.9, rho=1e3, alpha=0.5 (so the per-entry variance
# is s = 1 + 1000^-0.5).  (checked independently: reduce the ordered-eigenvalue double
# integral by substituting b2 = b1(1+z) and integrating b1 analytically,
# then adaptive quadrature on z; two independent quadrature routes agree
# to 2e-14 relative.  The live recomputation below re-derives it.)
MEAN_WEIGHT_2X2_T09 = 16.97897080792607


def reduced_quadrature_mean_weight():
    s = 1.0 + 1000.0 ** -0.5
    integral, _ = quad(
        lambda z: z * z * (1 + z) ** -2.7 * (2 + z) ** -0.4,
        0.0, np.inf, limit=400, epsabs=0.0, epsrel=1e-10)
    return s ** -4.0 * math.gamma(0.4) * s ** 0.4 * integral


def scalar_mean_weight(m, t, sigma_sq):
    # N=1: b ~ Gamma(m, s), so E[b^{-t m}] = Gamma(m - t m)/Gamma(m) * s^{-t m}.
    s = 1.0 + sigma_sq
    return math.exp(gammaln(m - t * m) - gammaln(m)) * s ** (-t * m)


def rowwise_log_is_weights(cfg, s, t, batch, seed, stream):
    """Reference for ``simulate._log_is_weights``: the same draws, reduced
    trial by trial along each ``(batch, n)`` row with ``logsumexp``."""
    n, m = cfg.n_rx, cfg.m_tx
    c = eigen_decay_weights(m, n)
    g = (1.0 - t) * c
    beta = s / np.arange(n, 0, -1)
    rng = np.random.Generator(_bit_generator(seed, stream))
    boost = rng.gamma(g + 1.0, 1.0, size=(batch, n))
    logu = np.log1p(-rng.random((batch, n)))
    log_sp = np.log(boost) + logu / g + np.log(beta)
    log_b = np.logaddexp.accumulate(log_sp, axis=1)
    logp = (-wishart_log_norm_const(m, n) - m * n * math.log(s)
            + (m - n) * log_b.sum(axis=1)
            - np.exp(logsumexp(log_b, axis=1)) / s)
    for i in range(n - 1):
        for j in range(i + 1, n):
            logp += 2.0 * logsumexp(log_sp[:, i + 1:j + 1], axis=1)
    logq = ((g - 1.0) * log_sp - np.exp(log_sp) / beta
            - gammaln(g) - g * np.log(beta)).sum(axis=1)
    return logp - logq - (t * c * log_b).sum(axis=1)


def two_row_constant_power_outage(m, r, rho):
    """Exact outage probability of an ``m x 2`` link at constant power.

    At t = 0 the power is ``rho / m`` per antenna, so outage is
    ``(1 + P l1)(1 + P l2) < rho**r`` over the ascending Gram eigenvalues
    ``l1 <= l2``, with ``P = rho / m``.  Their joint density is
    ``(l1 l2)**(m-2) (l2 - l1)**2 exp(-l1 - l2) / ((m-1)! (m-2)!)``, so for
    a fixed ``l2`` the outage set is ``l1 <= min(l2, (rho**r / (1 + P l2)
    - 1) / P)``, and a nested ``quad`` integrates it.  The outer integrand
    has a kink where the two bounds meet, ``(1 + P l2)**2 = rho**r``.
    Nothing here comes from the package.  (checked independently: the
    Laguerre eigenvalue density, James 1964, with its normalizer from
    factorials)
    """
    power = rho / m
    target = rho ** r
    log_norm = math.lgamma(m) + math.lgamma(m - 1)

    def density(l1, l2):
        return math.exp((m - 2) * math.log(l1 * l2) - l1 - l2 - log_norm) * (l2 - l1) ** 2

    def inner(l2):
        top = min(l2, (target / (1.0 + power * l2) - 1.0) / power)
        if top <= 0.0:
            return 0.0
        return quad(density, 0.0, top, args=(l2,), epsabs=0.0, epsrel=1e-10)[0]

    kink = (math.sqrt(target) - 1.0) / power
    return quad(inner, 0.0, (target - 1.0) / power, points=[kink], epsabs=0.0,
                epsrel=1e-10, limit=200)[0]


class TestPowerPolicy:
    def test_defaults(self):
        assert PowerPolicy().t == 0.9

    @pytest.mark.parametrize("t", [1.0, 1.5, -0.1])
    def test_rejects_bad_t(self, t):
        with pytest.raises(ValueError):
            PowerPolicy(t=t)


class TestAdaptedPower:
    """The power ``kappa * p_bar * prod(b_n ** -(t * w_n))`` a sweep gives
    each trial: its kappa-free damped weight, times kappa and the budget."""

    def test_t_zero_constant_power(self):
        cfg = ChannelConfig(3, 2, 0.5)
        b = np.array([[0.3, 7.0], [1e-300, 1e300]])
        npt.assert_array_equal(_damped_weight(cfg, b, 0.0), [1.0, 1.0])

    def test_single_antenna_value(self):
        # Weight 2n-1+M-N = 2 for (2,1): weight = 1/4^(0.5*2) = 1/4.
        cfg = ChannelConfig(2, 1, 0.5)
        npt.assert_allclose(_damped_weight(cfg, np.array([[4.0]]), 0.5), [0.25],
                            rtol=1e-14)

    def test_unit_eigenvalues(self):
        cfg = ChannelConfig(2, 2, 0.5)
        npt.assert_array_equal(_damped_weight(cfg, np.ones((3, 2)), 0.7), 1.0)

    def test_general_value(self):
        # (2,2): weights (1,3); P = kappa*p_bar*(b1*b2^3)^(-t), row by row.
        cfg = ChannelConfig(2, 2, 0.1)
        b = np.array([[0.7, 2.2], [0.05, 9.0]])
        want = [0.5 * 10.0 * (0.7 * 2.2 ** 3) ** -0.9,
                0.5 * 10.0 * (0.05 * 9.0 ** 3) ** -0.9]
        npt.assert_allclose(0.5 * 10.0 * _damped_weight(cfg, b, 0.9), want,
                            rtol=1e-13)


class TestCalibrateKappa:
    def test_t_zero_exact_unity(self):
        # Constant power meets the average constraint with kappa = 1 exactly.
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.0)
        assert calibrate_kappa(cfg, 1000.0, pol, batch=10_000, seed=1) == 1.0

    def test_calibrated_matches_quadrature(self):
        # 1/kappa estimates the mean damped weight; compare to the frozen
        # quadrature value and to a live independent recomputation.
        live = reduced_quadrature_mean_weight()
        npt.assert_allclose(live, MEAN_WEIGHT_2X2_T09, atol=1e-8)
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.9)
        kappa = calibrate_kappa(cfg, 1000.0, pol, batch=200_000, seed=7)
        npt.assert_allclose(1.0 / kappa, MEAN_WEIGHT_2X2_T09, rtol=0.02)

    @pytest.mark.parametrize(
        "m,t,rho,alpha",
        [(1, 0.5, 1e4, 1.0), (2, 0.9, 100.0, 0.3)],
    )
    def test_single_rx_closed_form(self, m, t, rho, alpha):
        # N=1: the importance-sampled estimator is exact (zero variance),
        # so kappa matches Gamma(m-tm)/Gamma(m)*(1+sigma^2)^(-tm) tightly.
        cfg = ChannelConfig(m, 1, alpha)
        pol = PowerPolicy(t=t)
        kappa = calibrate_kappa(cfg, rho, pol, batch=10_000, seed=3)
        want = 1.0 / scalar_mean_weight(m, t, rho ** -alpha)
        npt.assert_allclose(kappa, want, rtol=1e-10)

    def test_rejects_small_batch(self):
        cfg = ChannelConfig(2, 2, 0.5)
        with pytest.raises(ValueError):
            calibrate_kappa(cfg, 1000.0, PowerPolicy(), batch=5000, seed=1)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 3), (4, 4)])
    @pytest.mark.parametrize("t", [0.5, 0.9])
    def test_mean_weight_scale_identity(self, m, n, t):
        # Target and proposal are scale families in s = 1 + rho^-alpha and
        # the decay weights sum to m*n, so on one stream the mean damped
        # weight scales exactly as s^(-t*m*n).  A sweep scales kappa by it.
        assert eigen_decay_weights(m, n).sum() == m * n
        cfg = ChannelConfig(m, n, 0.5)
        rho0, rho = 10.0, 1e4
        s0, s = 1.0 + rho0 ** -0.5, 1.0 + rho ** -0.5
        base, _ = _mean_damped_weight(cfg, rho0, t, 10_000, 41, 1)
        scaled, _ = _mean_damped_weight(cfg, rho, t, 10_000, 41, 1)
        npt.assert_allclose(scaled, (s / s0) ** (-t * m * n) * base,
                            rtol=1e-12)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3),
                                     (4, 4)])
    @pytest.mark.parametrize("seed", [1, 7, 1000, 1729])
    def test_weights_match_rowwise_reference(self, m, n, seed):
        # The calibration reduces across eigenvalue rows with logaddexp and
        # a plain sum of exponentials; the reference reduces each trial's
        # row with logsumexp.  The rounding differs, so the weights and
        # kappa = 1 / mean agree to tolerances set from float64 rounding.
        cfg = ChannelConfig(m, n, 0.5)
        for rho in (10.0, 1e3):
            for t in (0.5, 0.9):
                s = 1.0 + rho ** -cfg.alpha
                want = np.exp(rowwise_log_is_weights(cfg, s, t, 20_000, seed, 1))
                got = np.exp(_log_is_weights(cfg, s, t, 20_000, seed, 1))
                npt.assert_allclose(got, want, rtol=1e-13)
                mean, _ = _mean_damped_weight(cfg, rho, t, 20_000, seed, 1)
                npt.assert_allclose(1.0 / mean, 1.0 / float(want.mean()),
                                    rtol=1e-14)

    def test_heavy_tail_warning_near_one(self):
        # t close to 1 thickens the weight tail; a small batch cannot meet
        # the convergence target and the achieved error is reported.
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.99)
        with pytest.warns(UserWarning, match="relative error"):
            calibrate_kappa(cfg, 1000.0, pol, batch=10_000, seed=5)


class TestMeanPowerValidation:
    """The mean power under one seed's kappa, over the budget, is that kappa
    times the mean damped weight of a fresh batch: ``kappa_a / kappa_b``
    for a second seed's calibration."""

    def test_same_stream_identity(self):
        # A grid's kappa, scaled from its first point, equals the kappa
        # calibrated at each point on the same stream to within an ulp.
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.9)
        grid = [1000.0, 1e4, 1e5]
        kappas = _grid_kappas(cfg, grid, pol, seed=9)
        assert kappas[0] == calibrate_kappa(cfg, 1000.0, pol, batch=CAL_BATCH,
                                            seed=9)
        for rho, kappa in zip(grid, kappas):
            again = calibrate_kappa(cfg, rho, pol, batch=CAL_BATCH, seed=9)
            npt.assert_allclose(kappa / again, 1.0, rtol=1e-12)

    def test_fresh_batch_scalar(self):
        # (1,1) example: fresh-batch mean within 0.5% (exact for N=1).
        cfg = ChannelConfig(1, 1, 1.0)
        pol = PowerPolicy(t=0.5)
        kappa = calibrate_kappa(cfg, 1e4, pol, batch=10_000, seed=21)
        ratio = kappa / calibrate_kappa(cfg, 1e4, pol, batch=10_000, seed=22)
        assert 0.995 <= ratio <= 1.005

    def test_fresh_batch_two_by_two(self):
        # Power-constraint invariant at the default operating point.
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.9)
        kappa = calibrate_kappa(cfg, 1000.0, pol, batch=100_000, seed=31)
        ratio = kappa / calibrate_kappa(cfg, 1000.0, pol, batch=100_000, seed=32)
        assert 0.98 <= ratio <= 1.02


class TestOutageTrial:
    """Per-trial outage decisions of the sweep's span kernel."""

    def test_zero_rate_never_in_outage(self):
        for seed in (0, 1, 99):
            for m, n in [(1, 1), (2, 2), (3, 2)]:
                cfg = ChannelConfig(m, n, 0.5)
                got = _count_outages_span(cfg, [100.0], 0.0, 0.0, lambda: [1.0],
                                          seed, start=0, count=50)
                assert got == [0]

    def test_determinism(self):
        cfg = ChannelConfig(2, 2, 0.5)
        results = {tuple(_count_outages_span(cfg, [10.0], 1.5, 0.0,
                                             lambda: [1.0], 77, start=0,
                                             count=200))
                   for _ in range(3)}
        assert len(results) == 1

    def test_scalar_matches_direct_computation(self):
        # White-box scalar check: outage iff log2(1 + rho*|h|^2) < r*log2(rho),
        # trial by trial.
        cfg = ChannelConfig(1, 1, 0.0)
        rho, r, seed = 50.0, 0.5, 3
        h, _ = sample_channel_block(cfg, rho, seed, start=0, count=40)
        wants = set()
        for i in range(40):
            a = abs(h[i, 0, 0]) ** 2
            want = math.log2(1 + rho * a) < r * math.log2(rho)
            got = _count_outages_span(cfg, [rho], r, 0.0, lambda: [1.0], seed,
                                      start=i, count=1)
            assert got == [int(want)]
            wants.add(want)
        assert wants == {False, True}

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 2),
                                     (3, 3), (4, 4)])
    @pytest.mark.parametrize("rho,seed,alpha", [
        pytest.param(rho, seed, alpha, id=f"{rho}-{seed}"
                     + ("" if alpha == 0.5 else f"-alpha{alpha:g}"))
        for alpha in (0.5, 0.0, 4.0)
        for rho, seed in [(10.0, 5), (100.0, 6), (1e3, 7)]])
    def test_span_count_matches_eigvalsh_count(self, m, n, rho, seed, alpha):
        # The grid kernel against eigvalsh on the same draws, at each point
        # of a 3-point grid ending at rho: the error drawn at the first
        # point is rescaled to each point's variance, and the outage counts
        # must be equal, not merely close.  The draws are stored trial-last;
        # the reference forms each estimate from C-ordered copies of them.
        # Alpha 0 keeps the error at full size at every point (scale 1);
        # alpha 4 scales it by 1/4 and 1/16 after drawing it at a variance
        # of 0.026 to 2.6e-10.
        cfg = ChannelConfig(m, n, alpha)
        grid = [rho / 4, rho / 2, rho]
        r, start, count = 0.6 * n, 1000, 20_000
        h, e = sample_channel_block(cfg, grid[0], seed, start=start,
                                    count=count)

        def eigvalsh_gram(x):
            gram = x @ np.conj(np.swapaxes(x, -1, -2))
            return np.clip(np.linalg.eigvalsh(gram), 0.0, None)

        h, e = np.ascontiguousarray(h), np.ascontiguousarray(e)
        a = eigvalsh_gram(h)

        def outages(kappa, rho_g, weight):
            # The same product of two doubles the kernel forms.
            power = kappa * rho_g * weight
            capacity = np.log2(1.0 + (power / m)[:, None] * a).sum(axis=1)
            return int((capacity < r * math.log2(rho_g)).sum())

        kappas, want = [], []
        for rho_g in grid:
            ratio = math.sqrt(rho_g ** -cfg.alpha / grid[0] ** -cfg.alpha)
            weight = _damped_weight(cfg, eigvalsh_gram(h + ratio * e), 0.9)
            # Each point's kappa is the first of the steps 2**(k/8) at which
            # at most half the trials are in outage (the count falls as
            # kappa grows), so that many trials lie near the threshold.
            lo, hi = -512, 512
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if outages(2.0 ** (mid / 8), rho_g, weight) > count // 2:
                    lo = mid
                else:
                    hi = mid
            kappas.append(2.0 ** (hi / 8))
            want.append(outages(kappas[-1], rho_g, weight))
        assert all(count // 10 < w <= count // 2 for w in want)
        got = _count_outages_span(cfg, grid, r, 0.9, lambda: kappas, seed,
                                  start=start, count=count)
        assert got == want


class TestRunSweep:
    def test_simo_matches_closed_form(self):
        # (2,1), alpha=0, t=0: ||h||^2 is Gamma(2,1)-distributed, so
        # p_out = gammainc(2, 2(rho^r - 1)/rho).  Counts within 3 binomial
        # sigma; fitted slope within 0.1 of the slope fitted on the exact
        # probabilities.  (checked independently: scalar Rayleigh/Gamma outage oracle)
        cfg = ChannelConfig(2, 1, 0.0)
        pol = PowerPolicy(t=0.0)
        rho_grid = [10.0, 100.0, 1000.0]
        trials = 30_000
        sweep = run_sweep(cfg, 0.5, rho_grid, trials, pol, seed=11)
        exact = [float(gammainc(2, 2 * (r ** 0.5 - 1) / r)) for r in rho_grid]
        for p_hat, p in zip(sweep.p_out, exact):
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(p_hat - p) <= 3 * sigma, (p_hat, p)
        exact_slope = np.polyfit(np.log(rho_grid), np.log(exact), 1)[0]
        assert abs(sweep.fitted_slope - exact_slope) <= 0.1

    @pytest.mark.parametrize("m,r,lo_db", [(2, 1.0, 10), (2, 1.5, 10), (3, 1.0, 10),
                                           (3, 1.5, 10), (4, 1.0, 5), (4, 1.5, 10)])
    def test_two_row_constant_power_matches_quadrature(self, m, r, lo_db):
        # t = 0 on an m x 2 link: every count within 3 binomial sigma of the
        # nested quadrature at each point with at least 20 events, and at
        # least four such points per case.  Unlike the n = 1 checks, this
        # reads the two-row closed-form spectrum of a sampled channel.
        cfg = ChannelConfig(m, 2, 0.5)
        # Seven points over two decades; 4x2 at r = 1 falls below 20 events
        # past 20 dB, so its grid starts lower.
        rho_grid = list(np.logspace(lo_db / 10, lo_db / 10 + 2.0, 7))
        trials = 200_000
        sweep = run_sweep(cfg, r, rho_grid, trials, PowerPolicy(t=0.0), seed=20 + m)
        checked = 0
        for rho, p_hat in zip(rho_grid, sweep.p_out):
            if p_hat * trials < 20:
                continue
            p = two_row_constant_power_outage(m, r, rho)
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(p_hat - p) <= 3 * sigma, (rho, p_hat, p)
            checked += 1
        assert checked >= 4

    def test_sweep_fields(self):
        cfg = ChannelConfig(2, 1, 0.0)
        pol = PowerPolicy(t=0.0)
        sweep = run_sweep(cfg, 0.5, [10.0, 1000.0], 2000, pol, seed=1)
        assert isinstance(sweep, OutageSweep)
        assert sweep.trials == 2000
        assert len(sweep.p_out) == len(sweep.rho_grid) == len(sweep.ci_half_width) == 2
        assert all(0.0 <= p <= 1.0 for p in sweep.p_out)
        for p, ci in zip(sweep.p_out, sweep.ci_half_width):
            npt.assert_allclose(ci, 1.96 * math.sqrt(p * (1 - p) / 2000), rtol=1e-12)

    @pytest.mark.parametrize("points", [2, 3, 5, 7, 12])
    def test_slope_matches_polyfit(self, points):
        # The fitted slope is a closed form in Python floats, so no BLAS
        # kernel changes it; it agrees with np.polyfit's least squares.
        rng = np.random.default_rng(points)
        x = np.log(np.logspace(1, rng.uniform(2, 12), points))
        y = rng.uniform(-3, 0) * x + rng.normal(0, 0.3, points) - 1.0
        got = _least_squares_slope(x.tolist(), y.tolist())
        assert got == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12)

    def test_zero_rate_flags_undefined_slope(self):
        cfg = ChannelConfig(2, 1, 0.0)
        pol = PowerPolicy(t=0.0)
        sweep = run_sweep(cfg, 0.0, [10.0, 1000.0], 2000, pol, seed=1)
        assert sweep.p_out == [0.0, 0.0]
        assert math.isnan(sweep.fitted_slope)

    def test_partition_invariance(self, monkeypatch):
        # Same seed, different worker counts: bit-identical results.  Spans
        # of 1,500 trials make the workers really divide the sweep.
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 1500)
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.9)
        a = run_sweep(cfg, 1.0, [10.0, 1000.0], 5000, pol, seed=13, workers=1)
        b = run_sweep(cfg, 1.0, [10.0, 1000.0], 5000, pol, seed=13, workers=3)
        assert a.p_out == b.p_out
        assert math.isfinite(a.fitted_slope)
        assert a.fitted_slope == b.fitted_slope

    def test_handoff_under_thread_switching(self, monkeypatch):
        # More workers than cores wait on the kappas that the calling thread
        # calibrates, with the interpreter switching threads as often as it
        # can; the counts must still equal the one-worker sweep.
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.9)
        grid = [10.0, 100.0, 1000.0]
        want = run_sweep(cfg, 1.0, grid, 6000, pol, seed=37)
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 500)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = run_sweep(cfg, 1.0, grid, 6000, pol, seed=37, workers=6)
        finally:
            sys.setswitchinterval(interval)
        assert got.p_out == want.p_out

    def test_calibration_error_reaches_caller(self, monkeypatch):
        # The spans wait for the kappas that the calling thread calibrates;
        # when the calibration raises, the sweep must re-raise its error
        # instead of leaving the spans waiting.
        def fail(*args, **kwargs):
            raise RuntimeError("calibration failed")

        monkeypatch.setattr(simulate, "calibrate_kappa", fail)
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 1500)
        raised = []

        def sweep():
            try:
                run_sweep(ChannelConfig(2, 2, 0.5), 1.0, [10.0, 1000.0], 5000,
                          PowerPolicy(t=0.9), seed=3, workers=2)
            except RuntimeError as exc:
                raised.append(str(exc))

        runner = threading.Thread(target=sweep, daemon=True)
        runner.start()
        runner.join(timeout=120)
        assert not runner.is_alive(), "run_sweep hung after a failed calibration"
        assert raised == ["calibration failed"]

    def test_first_point_independent_of_grid(self):
        # Each point's draws and kappa come from the seed and the first
        # point alone, so adding a point in between changes neither end.
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.9)
        a = run_sweep(cfg, 1.0, [10.0, 1000.0], 5000, pol, seed=29)
        b = run_sweep(cfg, 1.0, [10.0, 100.0, 1000.0], 5000, pol, seed=29)
        assert a.p_out[0] == b.p_out[0]
        assert a.p_out[-1] == b.p_out[-1]

    def test_span_size_invariance(self, monkeypatch):
        # Each trial is counted on its own and spans add integers, so
        # cutting the trials into more spans changes no count.
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.9)
        grid = [10.0, 100.0, 1000.0]
        whole = run_sweep(cfg, 1.0, grid, 5000, pol, seed=31)
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 1500)
        for workers in (1, 3):
            cut = run_sweep(cfg, 1.0, grid, 5000, pol, seed=31, workers=workers)
            assert cut.p_out == whole.p_out

    def test_monotone_in_rho(self):
        cfg = ChannelConfig(2, 1, 0.3)
        pol = PowerPolicy(t=0.0)
        sweep = run_sweep(cfg, 0.6, [10.0, 100.0, 1000.0], 20_000, pol, seed=17)
        for i in range(len(sweep.p_out) - 1):
            slack = sweep.ci_half_width[i] + sweep.ci_half_width[i + 1]
            assert sweep.p_out[i + 1] <= sweep.p_out[i] + slack

    def test_monotone_in_rate(self):
        cfg = ChannelConfig(2, 1, 0.0)
        pol = PowerPolicy(t=0.0)
        lo = run_sweep(cfg, 0.3, [10.0, 1000.0], 20_000, pol, seed=19)
        hi = run_sweep(cfg, 0.6, [10.0, 1000.0], 20_000, pol, seed=19)
        for p_lo, p_hi, ci in zip(lo.p_out, hi.p_out, lo.ci_half_width):
            assert p_hi >= p_lo - ci

    def test_quality_ordering_of_slopes(self):
        # Better feedback gives a steeper (more negative) outage slope.
        cfg0 = ChannelConfig(2, 1, 0.0)
        cfg5 = ChannelConfig(2, 1, 0.5)
        pol = PowerPolicy(t=0.9)
        rho_grid = [10.0, 1000.0, 100_000.0]
        s0 = run_sweep(cfg0, 0.5, rho_grid, 100_000, pol, seed=23)
        s5 = run_sweep(cfg5, 0.5, rho_grid, 100_000, pol, seed=23)
        assert s5.fitted_slope <= s0.fitted_slope + 0.15

    def test_rejects_few_trials(self):
        cfg = ChannelConfig(2, 1, 0.0)
        with pytest.raises(ValueError):
            run_sweep(cfg, 0.5, [10.0, 1000.0], 500, PowerPolicy(t=0.0), seed=1)

    def test_rejects_narrow_grid(self):
        cfg = ChannelConfig(2, 1, 0.0)
        with pytest.raises(ValueError):
            run_sweep(cfg, 0.5, [10.0, 50.0], 2000, PowerPolicy(t=0.0), seed=1)

    @pytest.mark.parametrize("grid", [[10.0, math.nan, 1000.0],
                                      [10.0, 100.0, math.inf]])
    def test_rejects_nonfinite_points(self, grid):
        # Both grids once ran and reported p_out 0 at the bad point.
        cfg = ChannelConfig(2, 2, 0.5)
        with pytest.raises(ValueError, match="finite"):
            run_sweep(cfg, 1.0, grid, 2000, PowerPolicy(), seed=1)

"""Tests for power adaptation, the exact power normalizer, and outage sweeps."""
import math
import sys
import threading
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from scipy.integrate import dblquad, quad
from scipy.special import beta, gammainc, gammaln, hyp2f1

from mimo_dmt import simulate
from mimo_dmt.channel import (
    ChannelConfig,
    EstimateMinors,
    GramPolynomial,
    eigen_decay_weights,
    log_damped_weight,
    sample_channel_block,
)
from mimo_dmt.simulate import (
    OutageSweep,
    PowerPolicy,
    _count_outages_span,
    _least_squares_slope,
    _power_scales,
    calibrate_kappa,
    run_sweep,
)
from reference import (
    bidiagonal_spectrum,
    dense_channel,
    gram_spectrum,
    one_antenna_damped_outage,
    reduced_quadrature_mean_weight,
    spectrum_log_weight,
)

# Mean damped-eigenvalue-product weight E[prod b_n^{-t c_n}] for the 2x2
# channel estimate at t=0.9, rho=1e3, alpha=0.5 (so the per-entry variance
# is s = 1 + 1000^-0.5).  (checked independently: reduce the ordered-eigenvalue double
# integral by substituting b2 = b1(1+z) and integrating b1 analytically,
# then adaptive quadrature on z; two independent quadrature routes agree
# to 2e-14 relative.  The live recomputation below re-derives it.)
MEAN_WEIGHT_2X2_T09 = 16.97897080792607


def _damped_weight(cfg, b, t):
    """Kappa-free weight ``prod(b_n ** -(t * w_n))`` of a ``(trials, n_rx)``
    batch of ascending eigenvalues: the exponential of the reference's
    ``spectrum_log_weight``."""
    return np.exp(spectrum_log_weight(np.asarray(b, dtype=float), cfg.m_tx, t))


def scalar_mean_weight(m, t, sigma_sq):
    # N=1: b ~ Gamma(m, s), so E[b^{-t m}] = Gamma(m - t m)/Gamma(m) * s^{-t m}.
    s = 1.0 + sigma_sq
    return math.exp(gammaln(m - t * m) - gammaln(m)) * s ** (-t * m)


def two_row_mean_weight(m, t, sigma_sq):
    """Mean damped weight of an ``m x 2`` estimate in closed form.

    With decay weights ``c = (m - 1, m + 1)`` and ``p_i = (m - 2) - t c_i``,
    the Laguerre density of the ascending pair gives ``E[l1**(-t c_1)
    l2**(-t c_2)] = B(p_1 + 1, 3) Gamma(p_1 + p_2 + 4) 2F1(p_1 + 1, p_1 +
    p_2 + 4; p_1 + 4; -1) / ((m-1)! (m-2)!)``: put ``l1 = l2 u``, integrate
    ``l2`` as a gamma function, and ``u`` as Euler's integral for 2F1.  An
    estimate whose entries have variance ``s`` scales it by ``s**(-2 t m)``.
    """
    s = 1.0 + sigma_sq
    p1, p2 = (m - 2) - t * (m - 1), (m - 2) - t * (m + 1)
    return (s ** (-2.0 * t * m) * beta(p1 + 1.0, 3.0) * math.gamma(p1 + p2 + 4.0)
            * hyp2f1(p1 + 1.0, p1 + p2 + 4.0, p1 + 4.0, -1.0)
            / (math.factorial(m - 1) * math.factorial(m - 2)))


def three_row_mean_weight(m, t, sigma_sq):
    """Mean damped weight of an ``m x 3`` estimate by adaptive quadrature.

    The ascending eigenvalues ``l1 <= l2 <= l3`` of a unit-variance estimate
    have density ``prod l_i**(m-3) prod_{i<j} (l_j - l_i)**2 exp(-sum l) /
    prod_{i=1..3} (m-i)! (3-i)!``, and the weight is ``prod l_i**(-t c_i)``
    with ``c = (m - 2, m, m + 2)``.  Put ``l3 = y``, ``l2 = y v`` and ``l1 =
    y v u``: ``y`` integrates to ``Gamma(K) (1 + v + u v)**-K`` with ``K =
    3 (m - tm)``, and the square is left with ``u**(a-1) v**(b-1)
    (1-u)**2 (1-v)**2 (1-uv)**2 (1 + v + uv)**-K``, where ``a = p_1 + 1``
    and ``b = p_1 + p_2 + 4`` with ``p_i = (m - 3) - t c_i``: the Jacobian
    ``y**2 v`` and the gap ``(l2 - l1)**2`` add three powers of ``v``.
    Substituting ``u = w**(1/a)`` and ``v = z**(1/b)`` takes out both
    endpoint powers, and
    ``dblquad`` integrates what is left.  An estimate whose entries have
    variance ``s`` scales the mean by ``s**(-3 t m)``.
    """
    s = 1.0 + sigma_sq
    p = [(m - 3) - t * c for c in (m - 2, m, m + 2)]
    k = 3.0 * (m - t * m)
    a = p[0] + 1.0
    b = p[0] + p[1] + 4.0

    def f(z, w):
        u, v = w ** (1.0 / a), z ** (1.0 / b)
        return ((1 - u) * (1 - v) * (1 - u * v)) ** 2 * (1 + v + u * v) ** -k

    integral, _ = dblquad(f, 0.0, 1.0, 0.0, 1.0, epsabs=0.0, epsrel=1e-12)
    norm = math.factorial(m - 1) * math.factorial(m - 2) * 2 * math.factorial(m - 3)
    return s ** (-3.0 * t * m) * math.gamma(k) * integral / (a * b * norm)


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
    each trial: its kappa-free damped weight, the exponential of
    :func:`~mimo_dmt.channel.log_damped_weight` of its ``B``, times kappa
    and the budget.  With ``s_1 = 0``, ``B B^T`` is diagonal, and its
    eigenvalues are the squared diagonal entries."""

    def test_t_zero_constant_power(self):
        cfg = ChannelConfig(3, 2, 0.5)
        b = np.array([[math.sqrt(0.3), 1e-60], [0.0, 0.0], [math.sqrt(7.0), 1e60]])
        npt.assert_array_equal(np.exp(log_damped_weight(b, cfg.m_tx, 0.0)),
                               [1.0, 1.0])

    def test_single_antenna_value(self):
        # Weight 2n-1+M-N = 2 for (2,1): weight = 1/4^(0.5*2) = 1/4.
        npt.assert_allclose(np.exp(log_damped_weight(np.array([[2.0]]), 2, 0.5)),
                            [0.25], rtol=1e-14)

    def test_unit_eigenvalues(self):
        b = np.array([[1.0] * 3, [0.0] * 3, [1.0] * 3])
        npt.assert_array_equal(np.exp(log_damped_weight(b, 2, 0.7)), 1.0)

    def test_general_value(self):
        # (2,2): weights (1,3); P = kappa*p_bar*(b1*b2^3)^(-t), row by row.
        lam = np.array([[0.7, 2.2], [0.05, 9.0]])
        b = np.array([np.sqrt(lam[:, 0]), [0.0, 0.0], np.sqrt(lam[:, 1])])
        want = [0.5 * 10.0 * (0.7 * 2.2 ** 3) ** -0.9,
                0.5 * 10.0 * (0.05 * 9.0 ** 3) ** -0.9]
        npt.assert_allclose(0.5 * 10.0 * np.exp(log_damped_weight(b, 2, 0.9)),
                            want, rtol=1e-13)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (4, 4)])
    def test_weight_is_exp_of_span_log_weight(self, m, n):
        # The weight of an estimate spectrum that the tests' references
        # take (_damped_weight, of the dense spectrum of B B^T with
        # lambda_min = det / prod_{k>=2} lambda_k) against the exponential
        # of the log weight a span reads from B: 1 at t = 0, and within
        # 1e-13 relative (at most 7.2e-15 here).
        cfg = ChannelConfig(m, n, 0.5)
        b, _ = sample_channel_block(cfg, 10.0, 3, count=5000, error=False)
        kept = b.copy()
        lam = bidiagonal_spectrum(b, m)
        for t in (0.0, 0.4, 0.9):
            weight = np.exp(log_damped_weight(b, m, t))
            if t == 0.0:
                npt.assert_array_equal(weight, 1.0)
            npt.assert_allclose(_damped_weight(cfg, lam, t), weight, rtol=1e-13)
        # The weight leaves its input alone.
        npt.assert_array_equal(b, kept)


class TestCalibrateKappa:
    """Kappa, the reciprocal of the mean damped weight, against references
    that share no code with its Gauss–Jacobi quadrature."""

    def test_t_zero_exact_unity(self):
        # Constant power meets the average constraint with kappa = 1 exactly.
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.0)
        assert calibrate_kappa(cfg, 1000.0, pol) == 1.0

    def test_calibrated_matches_quadrature(self):
        # 1/kappa is the mean damped weight; compare to the frozen
        # quadrature value and to a live independent recomputation.
        live = reduced_quadrature_mean_weight()
        npt.assert_allclose(live, MEAN_WEIGHT_2X2_T09, atol=1e-8)
        cfg = ChannelConfig(2, 2, 0.5)
        pol = PowerPolicy(t=0.9)
        kappa = calibrate_kappa(cfg, 1000.0, pol)
        npt.assert_allclose(1.0 / kappa, MEAN_WEIGHT_2X2_T09, rtol=1e-11)

    @pytest.mark.parametrize(
        "m,t,rho,alpha",
        [(1, 0.5, 1e4, 1.0), (2, 0.9, 100.0, 0.3)],
    )
    def test_single_rx_closed_form(self, m, t, rho, alpha):
        # N=1: kappa is Gamma(m)/Gamma(m-tm)*(1+sigma^2)^(tm), with no rule.
        cfg = ChannelConfig(m, 1, alpha)
        pol = PowerPolicy(t=t)
        kappa = calibrate_kappa(cfg, rho, pol)
        want = 1.0 / scalar_mean_weight(m, t, rho ** -alpha)
        npt.assert_allclose(kappa, want, rtol=1e-13)

    @pytest.mark.parametrize("m", [2, 3, 4, 6])
    @pytest.mark.parametrize("t", [0.2, 0.5, 0.9, 0.99, 0.999])
    def test_two_row_closed_form(self, m, t):
        cfg = ChannelConfig(m, 2, 0.5)
        kappa = calibrate_kappa(cfg, 10.0, PowerPolicy(t=t))
        npt.assert_allclose(1.0 / kappa, two_row_mean_weight(m, t, 10.0 ** -0.5),
                            rtol=1e-11)

    @pytest.mark.parametrize("m", [3, 4, 5, 6])
    @pytest.mark.parametrize("t", [0.2, 0.5, 0.9, 0.99])
    def test_three_row_adaptive_quadrature(self, m, t):
        cfg = ChannelConfig(m, 3, 0.5)
        kappa = calibrate_kappa(cfg, 10.0, PowerPolicy(t=t))
        npt.assert_allclose(1.0 / kappa,
                            three_row_mean_weight(m, t, 10.0 ** -0.5),
                            rtol=1e-11)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 3), (4, 4)])
    @pytest.mark.parametrize("t", [0.5, 0.9])
    def test_mean_weight_scale_identity(self, m, n, t):
        # The estimate's entries have variance s = 1 + rho^-alpha and the
        # decay weights sum to m*n, so the mean damped weight scales as
        # s^(-t*m*n), and kappa as its reciprocal.  A sweep scales kappa
        # by it.
        assert eigen_decay_weights(m, n).sum() == m * n
        cfg = ChannelConfig(m, n, 0.5)
        pol = PowerPolicy(t=t)
        rho0, rho = 10.0, 1e4
        s0, s = 1.0 + rho0 ** -0.5, 1.0 + rho ** -0.5
        npt.assert_allclose(calibrate_kappa(cfg, rho, pol),
                            (s / s0) ** (t * m * n) * calibrate_kappa(cfg, rho0, pol),
                            rtol=1e-12)

    @pytest.mark.parametrize("m,n,t", [(7, 7, 0.9), (8, 7, 0.5), (12, 6, 0.2)])
    def test_rejects_links_past_the_quadrature(self, m, n, t):
        # Past six receive antennas the rule is not tried; on 12x6 at t 0.2
        # 32 points per axis do not settle it.  Either way no kappa is
        # returned that the rule does not vouch for.
        cfg = ChannelConfig(m, n, 0.5)
        with pytest.raises(ValueError, match="quadrature"):
            calibrate_kappa(cfg, 10.0, PowerPolicy(t=t))


def _rule_exponents():
    """Every ``a_j - 1`` that kappa's rule meets for n 2-6, m from n to
    n + 4 and t in {0.2, 0.5, 2/3, 0.75, 0.9, 0.99}, in the rule's own
    arithmetic (see ``simulate._log_mean_weight``)."""
    bs = set()
    for n in range(2, 7):
        j = np.arange(1, n)
        for m in range(n, n + 5):
            for t in (0.2, 0.5, 2 / 3, 0.75, 0.9, 0.99):
                p = (m - n) - t * eigen_decay_weights(m, n)
                a = 1.0 + np.cumsum(p)[:-1] + (j - 1) + j * (j - 1)
                bs.update(float(a_j - 1.0) for a_j in a)
    return sorted(bs)


class TestGaussJacobiRule:
    """Kappa's rule, from NumPy's ``eigvalsh``, against SciPy's."""

    @pytest.mark.parametrize("points", range(12, 33, 4))
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_matches_roots_jacobi_bit_for_bit(self, points):
        # b = 0 (a_j = 1, as on 3x2 at t 0.5) takes SciPy's Legendre route,
        # whose nodes and weights are symmetrised; the Jacobi route would
        # divide 0/0 there.
        from scipy.special import roots_jacobi

        bs = _rule_exponents()
        assert 0.0 in bs and len(bs) > 100
        for b in bs:
            x, w = simulate._gauss_jacobi(points, b)
            want_x, want_w = roots_jacobi(points, 0.0, b)
            assert x.tobytes() == want_x.tobytes(), b
            assert w.tobytes() == want_w.tobytes(), b


class TestMeanPowerValidation:
    """The power scales a sweep uses at its SNR points."""

    def test_same_stream_identity(self):
        # A span multiplies the weight of [B 0] by each point's scale, one
        # kappa for the grid.  The scale equals kappa_g * rho_g / (m *
        # s_g ** (1 + t m n)), with kappa computed at each point, to within
        # 1e-12: the estimate sqrt(s_g) [B 0] has weight s_g ** (-t m n)
        # times [B 0]'s, and the channel's Gram carries 1 / s_g.  At t = 0
        # the scale is rho_g / m, bit for bit.
        grid = [1000.0, 1e4, 1e5]
        for m, n in [(2, 2), (3, 2), (4, 4)]:
            cfg = ChannelConfig(m, n, 0.5)
            pol = PowerPolicy(t=0.9)
            for rho, scale in zip(grid, _power_scales(cfg, grid, pol)):
                s = 1.0 + rho ** -cfg.alpha
                want = (calibrate_kappa(cfg, rho, pol) * rho
                        / (m * s ** (1.0 + pol.t * m * n)))
                npt.assert_allclose(scale / want, 1.0, rtol=1e-12)
            assert (_power_scales(cfg, grid, PowerPolicy(t=0.0))
                    == [rho / m for rho in grid])


class TestOutageTrial:
    """Per-trial outage decisions of the sweep's span kernel."""

    def test_zero_rate_never_in_outage(self):
        for seed in (0, 1, 99):
            for m, n in [(1, 1), (2, 2), (3, 2)]:
                cfg = ChannelConfig(m, n, 0.5)
                got = _count_outages_span(cfg, [100.0], 0.0, 0.0, [1.0],
                                          seed, start=0, count=50)
                assert got == [0]

    def test_determinism(self):
        cfg = ChannelConfig(2, 2, 0.5)
        results = {tuple(_count_outages_span(cfg, [10.0], 1.5, 0.0,
                                             [1.0], 77, start=0,
                                             count=200))
                   for _ in range(3)}
        assert len(results) == 1

    def test_scalar_matches_direct_computation(self):
        # White-box scalar check: outage iff log2(1 + rho*|h|^2) < r*log2(rho),
        # trial by trial.
        cfg = ChannelConfig(1, 1, 0.0)
        rho, r, seed = 50.0, 0.5, 3
        b, _ = sample_channel_block(cfg, rho, seed, start=0, count=40)
        wants = set()
        for i in range(40):
            a = b[0, i] ** 2
            want = math.log2(1 + rho * a) < r * math.log2(rho)
            got = _count_outages_span(cfg, [rho], r, 0.0, [rho], seed,
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
        # of a 3-point grid ending at rho, in the coordinates a damped span
        # draws: with s = 1 + rho_g ** -alpha the estimate is sqrt(s) [B 0]
        # and the channel ([B 0] + sigma E) / sqrt(s), E of unit variance,
        # so that sigma E is the error drawn at the first point rescaled to
        # the point's deviation sigma.  The reference forms both densely
        # from C-ordered copies of the draws, and the outage counts must be
        # equal, not merely close.  Alpha 0 keeps the error at full size at
        # every point (scale 1); alpha 4 scales it by 1/4 and 1/16 after
        # drawing it at a variance of 0.026 to 2.6e-10.
        cfg = ChannelConfig(m, n, alpha)
        grid = [rho / 4, rho / 2, rho]
        r, start, count = 0.6 * n, 1000, 20_000
        b, e = sample_channel_block(cfg, grid[0], seed, start=start,
                                    count=count)

        h = dense_channel(b, m)
        e = np.ascontiguousarray(e[:, 0] + 1j * e[:, 1])

        def outages(kappa, rho_g, weight, a):
            # The capacity test as the paper states it, a sum of log2 over
            # the channel's eigenvalues a; the kernel compares det(I + P X
            # X^H) with rho_g ** r, with no logarithm.
            power = kappa * rho_g * weight
            capacity = np.log2(1.0 + (power / m)[:, None] * a).sum(axis=1)
            return int((capacity < r * math.log2(rho_g)).sum())

        scales, want = [], []
        for rho_g in grid:
            s = 1.0 + rho_g ** -cfg.alpha
            ratio = math.sqrt(rho_g ** -cfg.alpha / grid[0] ** -cfg.alpha)
            weight = _damped_weight(cfg, s * bidiagonal_spectrum(b, m), 0.9)
            a = gram_spectrum((h + ratio * e) / math.sqrt(s))
            # Each point's kappa is the first of the steps 2**(k/8) at which
            # at most half the trials are in outage (the count falls as
            # kappa grows), so that many trials lie near the threshold.
            lo, hi = -512, 512
            while hi - lo > 1:
                mid = (lo + hi) // 2
                if outages(2.0 ** (mid / 8), rho_g, weight, a) > count // 2:
                    lo = mid
                else:
                    hi = mid
            kappa = 2.0 ** (hi / 8)
            want.append(outages(kappa, rho_g, weight, a))
            # The span weighs [B 0], whose weight is s ** (t m n) times the
            # estimate's, and reads X X^H, s times the channel's Gram.
            scales.append(kappa * rho_g / (m * s ** (1.0 + 0.9 * m * n)))
        assert all(count // 10 < w <= count // 2 for w in want)
        got = _count_outages_span(cfg, grid, r, 0.9, scales, seed,
                                  start=start, count=count)
        assert got == want

    @staticmethod
    def _spy_span(monkeypatch):
        # Record, in order, each weight read and each estimate object
        # built, by name and trial count, and each capacity determinant
        # read, by its class and the scale c it is read at.
        events = []
        weight = simulate.log_damped_weight

        def spy_weight(b, m, t):
            events.append(("log_damped_weight", b.shape[1]))
            return weight(b, m, t)

        monkeypatch.setattr(simulate, "log_damped_weight", spy_weight)
        for cls in (EstimateMinors, GramPolynomial):
            def spy_init(self, b, e, init=cls.__init__, name=cls.__name__):
                events.append((name, len(e)))
                init(self, b, e)

            def spy_det(self, c, *args, det=cls.capacity_det, name=cls.__name__):
                events.append((name + ".capacity_det", c))
                return det(self, c, *args)

            monkeypatch.setattr(cls, "__init__", spy_init)
            monkeypatch.setattr(cls, "capacity_det", spy_det)
        return events

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 3)])
    def test_constant_power_reads_no_spectrum(self, m, n, monkeypatch):
        # At t = 0 the power is the constant rho / m: a span reads no
        # weight and builds no estimate object, and its counts equal the
        # capacity test on the dense spectrum of the same draws.
        events = self._spy_span(monkeypatch)
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 1500)
        cfg = ChannelConfig(m, n, 0.5)
        grid, r, trials, seed = [10.0, 100.0, 1000.0], 0.6 * n, 5000, 43
        sweep = run_sweep(cfg, r, grid, trials, PowerPolicy(t=0.0), seed,
                          workers=2)
        assert events == []
        b, _ = sample_channel_block(cfg, grid[0], seed, count=trials)
        a = gram_spectrum(dense_channel(b, m))
        for rho, p in zip(grid, sweep.p_out):
            capacity = np.log2(1.0 + rho / m * a).sum(axis=1)
            want = np.count_nonzero(capacity < r * math.log2(rho))
            assert round(p * trials) == want

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2), (3, 3)])
    def test_constant_power_skips_the_error_transform(self, m, n, monkeypatch):
        # At t = 0 no span reads the error: its uniforms are drawn, so the
        # Philox layout is kept, but their polar transform, one tangent per
        # complex entry, is not taken.  The counts equal those of spans
        # whose sampler takes it.
        calls = []
        tan = np.tan

        def spy(*args, **kwargs):
            calls.append(args[0].shape)
            return tan(*args, **kwargs)

        monkeypatch.setattr(np, "tan", spy)
        cfg = ChannelConfig(m, n, 0.5)

        def counts():
            return [_count_outages_span(cfg, [10.0, 100.0], 0.6 * n, 0.0,
                                        [10.0 / m, 100.0 / m], 43,
                                        start=start, count=700)
                    for start in (0, 700)]

        got = counts()
        assert calls == []
        monkeypatch.setattr(simulate, "sample_channel_block",
                            lambda *args, **kwargs: sample_channel_block(
                                *args, **{**kwargs, "error": True}))
        assert counts() == got
        assert calls == [(700,)] * (2 * n * m)
        assert sum(map(sum, got)) > 0

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (4, 2), (3, 3)])
    def test_damped_power_reads_one_estimate_spectrum_per_point(
            self, m, n, monkeypatch):
        # At t = 0.9 each span reads the estimate's log damped weight once,
        # from B's entries alone, before it builds one object of
        # polynomials in c, then each point's capacity determinant once
        # from it, at its error scale: no point reads an estimate spectrum.
        # One- and two-row links read the determinant from the minors and
        # the trace, with no GramPolynomial; three or more rows build one
        # per span.
        events = self._spy_span(monkeypatch)
        cfg = ChannelConfig(m, n, 0.5)
        grid = [10.0, 100.0, 1000.0]
        for start, count in [(0, 500), (500, 200)]:
            _count_outages_span(cfg, grid, 0.6 * n, 0.9, [1.0] * 3, 43,
                                start=start, count=count)
        name = "EstimateMinors" if n <= 2 else "GramPolynomial"
        assert events == [
            event for count in (500, 200)
            for event in [("log_damped_weight", count), (name, count)]
            + [(name + ".capacity_det", (grid[0] / rho) ** (cfg.alpha / 2))
               for rho in grid]]

    @staticmethod
    def _damped_span_peak(points):
        import tracemalloc

        cfg = ChannelConfig(2, 2, 0.5)
        grid = list(np.logspace(1.0, 4.0, points))
        scales = _power_scales(cfg, grid, PowerPolicy(t=0.9))
        _count_outages_span(cfg, grid, 1.0, 0.9, scales, 1, 0, 1000)
        tracemalloc.start()
        try:
            _count_outages_span(cfg, grid, 1.0, 0.9, scales, 1, 0, 32_768)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_damped_span_peak_memory(self):
        # One 2x2 span of 32,768 trials at t 0.9 on the 7-point grid peaks
        # at about 6.03 MB: the uniforms' buffer, which B and the error are
        # written into, the weight's row, read first, and the estimate's
        # minors.  A separate array for B adds 0.79 MB.
        assert self._damped_span_peak(7) <= 6.4e6

    def test_damped_span_peak_memory_does_not_grow_with_grid(self):
        # The same span on 50 points peaks where it does on 7: each point's
        # log weight is read into one reused row.  A table of every point's
        # log weights adds 0.26 MB a point (16.26 MB at 50 points).
        assert self._damped_span_peak(50) <= 6.4e6


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
        # reads the two-row minor sums of a sampled channel's determinant.
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

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("t", [0.5, 0.9])
    def test_one_antenna_damped_matches_quadrature(self, m, t):
        # A damped m x 1 sweep against the quadrature that conditions the
        # channel on its estimate (tests/reference.py), which shares no code
        # with the sweep: kappa is the closed form, and the channel's gain
        # given the estimate's is noncentral chi-squared.  Every count
        # within 3 binomial sigma at each point with at least 20 events,
        # and at least three such points per case.
        rho_grid = list(np.logspace(1.0, 4.0, 7))
        trials = 1_000_000
        sweep = run_sweep(ChannelConfig(m, 1, 0.5), 0.5, rho_grid, trials,
                          PowerPolicy(t=t), seed=5)
        checked = 0
        for rho, p_hat in zip(rho_grid, sweep.p_out):
            if p_hat * trials < 20:
                continue
            p = one_antenna_damped_outage(m, 0.5, t, 0.5, rho)
            sigma = math.sqrt(p * (1 - p) / trials)
            assert abs(p_hat - p) <= 3 * sigma, (rho, p_hat, p)
            checked += 1
        assert checked >= 3

    @pytest.mark.parametrize("m", [2, 4])
    @pytest.mark.parametrize("alpha", [0.0, 0.25, 0.5, 1.0])
    def test_one_antenna_reference_at_constant_power(self, m, alpha):
        # At t = 0 the reference's quadrature over the estimate must give
        # the closed form, P(Gamma(K) < K (rho**r - 1) / rho), whatever the
        # error variance, from 10 to 200 dB.  Past a noncentrality of about
        # 3.5e10 SciPy's chndtr reads NaN, and the reference raises: on 4x1
        # at alpha 1 and 200 dB it would meet 8e10.
        for db in range(10, 201, 10):
            rho = 10.0 ** (db / 10)
            if (m, alpha, db) == (4, 1.0, 200):
                with pytest.raises(ValueError, match="NaN"):
                    one_antenna_damped_outage(m, alpha, 0.0, 0.5, rho)
                continue
            want = gammainc(m, m * (rho ** 0.5 - 1.0) / rho)
            npt.assert_allclose(one_antenna_damped_outage(m, alpha, 0.0, 0.5, rho),
                                want, rtol=1e-8, err_msg=f"{db} dB")

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
        # More workers than cores run the spans, with the interpreter
        # switching threads as often as it can; the counts must still equal
        # the one-worker sweep.
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

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 3)])
    def test_constant_power_counts_do_not_depend_on_alpha(self, m, n, monkeypatch):
        # At t = 0 a span reads no estimate, and alpha only scales the
        # estimation error, so it must not reach the counts: p_out is
        # bit-identical across alpha, at one worker and at two.
        monkeypatch.setattr(simulate, "_TRIAL_CHUNK", 1500)
        grid, pol = [10.0, 100.0, 1000.0], PowerPolicy(t=0.0)
        sweeps = [run_sweep(ChannelConfig(m, n, alpha), 0.6 * n, grid, 5000, pol,
                            seed=47, workers=workers)
                  for alpha in (0.0, 0.5, 2.0) for workers in (1, 2)]
        assert all(sweep.p_out == sweeps[0].p_out for sweep in sweeps)
        assert sum(sweeps[0].p_out) > 0.0

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

    @pytest.mark.parametrize("kwargs,match", [
        pytest.param({name: value}, match, id=f"{name}={value}")
        for name, value, match in [
            ("workers", 0, "workers must be at least 1"),
            ("workers", -3, "workers must be at least 1"),
            ("workers", 2.5, "workers must be an integer"),
            ("trials", 2500.7, "trials must be an integer")]])
    def test_rejects_bad_counts(self, kwargs, match):
        # Each was once changed silently: workers <= 0 to one worker, a
        # fraction of a worker or trial truncated.
        args = {"trials": 2000, "workers": 1} | kwargs
        with pytest.raises(ValueError, match=match):
            run_sweep(ChannelConfig(2, 2, 0.5), 1.0, [10.0, 1000.0],
                      policy=PowerPolicy(t=0.0), seed=1, **args)

    def test_rejects_damped_links_past_six_receive_antennas(self, monkeypatch):
        # Kappa's quadrature covers n <= 6; a larger damped link fails
        # before any span draws, and at constant power it still runs.
        spans = []
        monkeypatch.setattr(simulate, "_count_outages_span",
                            lambda *args: spans.append(args))
        with pytest.raises(ValueError, match="at most 6 receive antennas"):
            run_sweep(ChannelConfig(7, 7, 0.5), 1.0, [10.0, 1000.0], 2000,
                      PowerPolicy(t=0.9), seed=1, workers=2)
        assert spans == []
        monkeypatch.undo()
        sweep = run_sweep(ChannelConfig(7, 7, 0.5), 1.0, [10.0, 1000.0], 2000,
                          PowerPolicy(t=0.0), seed=1)
        assert sweep.trials == 2000

    @pytest.mark.parametrize("m,n,t", [
        # The rule's weight integral 2 ** a / a overflows.
        (1300, 2, 0.2),
        # The rule's sum underflows to 0, which once failed on its log with
        # "math domain error".
        (700, 2, 0.2),
        (302, 3, 0.2),
        # Two rules agreed on a subnormal sum, 2.5e-323, and kappa came out
        # 1.54 times a 40-digit quadrature's.
        (2648, 2, 0.8),
    ])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_rejects_kappa_rule_out_of_float_range_before_any_span(
            self, m, n, t, monkeypatch):
        spans = []
        monkeypatch.setattr(simulate, "_count_outages_span",
                            lambda *args: spans.append(args))
        with pytest.raises(ValueError, match="leaves the float range"):
            run_sweep(ChannelConfig(m, n, 0.5), 1.0, [10.0, 1000.0], 2000,
                      PowerPolicy(t=t), seed=1, workers=2)
        assert spans == []

    def test_rejects_overflowing_threshold(self):
        # The outage threshold rho ** r must be a float at every point.
        with pytest.raises(ValueError, match="overflows"):
            run_sweep(ChannelConfig(2, 2, 0.5), 2.0, [10.0, 1e200], 2000,
                      PowerPolicy(t=0.0), seed=1)

    @pytest.mark.parametrize("alpha,t,grid,match", [
        # The error variance rho ** -alpha at the first point, even at
        # constant power, where no span reads the error.
        (4.0, 0.0, [1e-100, 1e-90], r"rho \*\* -alpha must be a finite float"),
        (4.0, 0.9, [1e-100, 1e-90], r"rho \*\* -alpha must be a finite float"),
        # Kappa, s ** (t m n) over the mean weight with s = 1 + 1e300.
        (1.0, 0.9, [1e-300, 1e-290], "kappa passes the largest float"),
        # The power scale kappa * rho / (m * s ** (1 + t m n)), by which a
        # damped span multiplies its weights, at the smallest subnormal.
        (0.0, 0.9, [5e-324, 1e-320],
         r"kappa \* rho / \(m \* s \*\* \(1 \+ t\*m\*n\)\) must be a positive float"),
    ])
    def test_rejects_overflow_at_low_snr_before_any_span(
            self, alpha, t, grid, match, monkeypatch):
        spans = []
        monkeypatch.setattr(simulate, "_count_outages_span",
                            lambda *args: spans.append(args))
        with pytest.raises(ValueError, match=match):
            run_sweep(ChannelConfig(2, 2, alpha), 1.0, grid, 2000,
                      PowerPolicy(t=t), seed=1, workers=2)
        assert spans == []

    def test_determinant_past_largest_float_is_no_outage(self):
        # At 1e100 each factor 1 + P a_i of a 4x4 trial is near 1e100, so
        # the product overflows to inf.  The log2 capacity, about 1300,
        # is far above r log2 rho, so no trial is in outage, and the
        # overflow raises no warning.  A damped 3x3 sweep at 1e308 takes
        # an LDL^H of I + P X X^H: most trials' pivots multiply past the
        # largest float, and two trials' powers are infinite, so their
        # entries overflow and the elimination meets inf - inf.
        sweeps = []
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            sweeps.append(run_sweep(ChannelConfig(4, 4, 0.5), 1.0, [10.0, 1e100],
                                    2000, PowerPolicy(t=0.0), seed=1))
            sweeps.append(run_sweep(ChannelConfig(3, 3, 0.5), 1.0, [10.0, 1e308],
                                    2000, PowerPolicy(t=0.9), seed=1))
        assert [sweep.p_out[-1] for sweep in sweeps] == [0.0, 0.0]

    @pytest.mark.parametrize("grid", [[10.0, math.nan, 1000.0],
                                      [10.0, 100.0, math.inf]])
    def test_rejects_nonfinite_points(self, grid):
        # Both grids once ran and reported p_out 0 at the bad point.
        cfg = ChannelConfig(2, 2, 0.5)
        with pytest.raises(ValueError, match="finite"):
            run_sweep(cfg, 1.0, grid, 2000, PowerPolicy(), seed=1)

"""Tests for channel sampling, eigenvalue extraction, and the perturbation bound."""
import decimal
import itertools
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import gammaln

from mimo_dmt import channel
from mimo_dmt.channel import (
    ChannelConfig,
    EstimateMinors,
    GramPolynomial,
    bidiagonal_minor_sums,
    eigen_decay_weights,
    log_damped_weight,
    sample_channel_block,
    wishart_log_norm_const,
)
from reference import (
    bidiagonal_spectrum,
    dense_channel,
    gram_spectrum,
    spectrum_log_weight,
)


def complex_error(e):
    """The sampler's error planes as one complex array."""
    return e[:, 0] + 1j * e[:, 1]


def planes(x):
    """A complex batch as the real planes that ``GramPolynomial`` takes."""
    return np.stack((x.real, x.imag), axis=-3)


def error_gram(x):
    """``x @ x^H`` for a complex batch ``x``, through the package's
    per-entry Gram of generic complex matrices: the error block of a
    :class:`GramPolynomial` with a zero channel, stored as the package
    stores a Gram matrix."""
    zero = np.zeros((2 * x.shape[-2] - 1, len(x)))
    return GramPolynomial(zero, planes(x))._c


def dense_gram(g, n):
    """The ``(count, n, n)`` Hermitian matrices of Gram entries ``g`` stored
    as the package stores them: the diagonal, then the real and imaginary
    part of each entry above it, row by row."""
    out = np.zeros((g.shape[1], n, n), dtype=complex)
    out[:, range(n), range(n)] = g[:n].T
    for p, (i, k) in enumerate(itertools.combinations(range(n), 2)):
        out[:, i, k] = g[n + 2 * p] + 1j * g[n + 2 * p + 1]
        out[:, k, i] = np.conj(out[:, i, k])
    return out


class TestChannelConfig:
    def test_orientation_swap(self):
        # Constructor canonicalizes so tx count >= rx count.
        cfg = ChannelConfig(2, 3, 0.5)
        assert cfg.m_tx == 3
        assert cfg.n_rx == 2

    def test_orientation_kept(self):
        cfg = ChannelConfig(4, 2, 0.1)
        assert cfg.m_tx == 4
        assert cfg.n_rx == 2

    @pytest.mark.parametrize("m,n", [(0, 1), (1, 0), (-1, 2), (2, -2)])
    def test_rejects_nonpositive_antennas(self, m, n):
        with pytest.raises(ValueError):
            ChannelConfig(m, n, 0.5)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            ChannelConfig(2, 2, -0.1)

    def test_rejects_nonfinite_alpha(self):
        with pytest.raises(ValueError):
            ChannelConfig(2, 2, float("nan"))
        with pytest.raises(ValueError):
            ChannelConfig(2, 2, float("inf"))

    @pytest.mark.parametrize("m,n", [(2.7, 2), (2, 2.5), (float("inf"), 1), (float("nan"), 1)])
    def test_rejects_nonintegral_antennas(self, m, n):
        # A fractional count is an error, not a smaller link.
        with pytest.raises(ValueError, match="must be an integer"):
            ChannelConfig(m, n, 0.1)

    def test_integral_floats_accepted(self):
        assert ChannelConfig(3.0, np.int64(2), 0.1) == ChannelConfig(3, 2, 0.1)

    def test_alpha_zero_allowed(self):
        cfg = ChannelConfig(3, 2, 0.0)
        assert cfg.alpha == 0.0

    def test_swapped_orientations_equal(self):
        assert ChannelConfig(2, 3, 0.5) == ChannelConfig(3, 2, 0.5)
        assert ChannelConfig(2, 3, 0.5) != ChannelConfig(3, 2, 0.25)

    def test_swapped_orientations_hash_equal(self):
        assert hash(ChannelConfig(2, 3, 0.5)) == hash(ChannelConfig(3, 2, 0.5))
        assert len({ChannelConfig(2, 3, 0.5), ChannelConfig(3, 2, 0.5)}) == 1

    def test_immutable(self):
        cfg = ChannelConfig(3, 2, 0.5)
        with pytest.raises(AttributeError):
            cfg.alpha = 1.0
        with pytest.raises(AttributeError):
            cfg.m_tx = 5
        assert (cfg.m_tx, cfg.n_rx, cfg.alpha) == (3, 2, 0.5)


class TestSampleChannel:
    def test_error_variance_follows_snr(self):
        # sigma_e^2 = rho^(-alpha): (4,4), rho=100, alpha=1 -> 0.01.  Each
        # |e|^2 is exponential, so 320,000 entries give a relative standard
        # error of 0.18%.
        cfg = ChannelConfig(4, 4, 1.0)
        _, e = sample_channel_block(cfg, rho=100.0, seed=0, count=20_000)
        npt.assert_allclose(np.mean(np.abs(complex_error(e)) ** 2), 0.01, rtol=0.01)

    def test_alpha_zero_unit_error_variance(self):
        # 80,000 entries: a relative standard error of 0.35%.
        cfg = ChannelConfig(2, 2, 0.0)
        _, e = sample_channel_block(cfg, rho=1000.0, seed=0, count=20_000)
        npt.assert_allclose(np.mean(np.abs(complex_error(e)) ** 2), 1.0, rtol=0.02)

    def test_shapes(self):
        cfg = ChannelConfig(4, 2, 0.3)
        b, e = sample_channel_block(cfg, rho=10.0, seed=5, count=1)
        assert b.shape == (3, 1)
        assert e.shape == (1, 2, 2, 4)
        assert b.dtype == e.dtype == np.float64

    def test_determinism(self):
        cfg = ChannelConfig(3, 3, 0.5)
        h1, e1 = sample_channel_block(cfg, rho=50.0, seed=123, count=1)
        h2, e2 = sample_channel_block(cfg, rho=50.0, seed=123, count=1)
        npt.assert_array_equal(h1, h2)
        npt.assert_array_equal(e1, e2)

    def test_seed_changes_draw(self):
        cfg = ChannelConfig(2, 2, 0.5)
        h1, _ = sample_channel_block(cfg, rho=50.0, seed=1, count=1)
        h2, _ = sample_channel_block(cfg, rho=50.0, seed=2, count=1)
        assert not np.array_equal(h1, h2)

    @pytest.mark.parametrize("seed", [2 ** 63, 2 ** 64 - 2])
    def test_large_seeds_keep_their_own_key(self, seed):
        # A key list holding a word >= 2**63 once became float64, so seeds
        # 2**63 and 2**63 + 1 drew the same trials.
        cfg = ChannelConfig(2, 2, 0.5)
        h1, e1 = sample_channel_block(cfg, rho=50.0, seed=seed, count=4)
        h2, e2 = sample_channel_block(cfg, rho=50.0, seed=seed + 1, count=4)
        assert not np.array_equal(h1, h2)
        assert not np.array_equal(e1, e2)

    def test_seed_key_unchanged_below_two_to_63(self):
        # Seeds that fit an int64 keep the key they had as a list.
        for seed in (0, 7, 1729, 2 ** 63 - 1):
            got = channel._bit_generator(seed).random_raw(8)
            want = np.random.Philox(key=[seed, 0]).random_raw(8)
            npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 - 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        # -1 once aliased 2**64 - 1 (and 2**65 - 1) after a warning of an
        # invalid cast.
        cfg = ChannelConfig(2, 2, 0.5)
        with pytest.raises(ValueError, match="seed must lie in"):
            sample_channel_block(cfg, rho=50.0, seed=seed, count=1)
        with pytest.raises(ValueError, match="seed must lie in"):
            channel._bit_generator(seed)

    # Links whose 3*n*m uniforms per trial fill whole Philox ticks (2x2)
    # or leave padding (1x1, 2x1, 3x2, 3x3), and 20x2, whose Gamma(20)
    # entry is drawn as two products of uniforms.
    LINKS = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (20, 2)]

    @staticmethod
    def _bidiagonal(m, n):
        """``(row of b, row of [B 0], column, gamma shape)`` of each entry
        of B, in the sampler's order ``d_1, s_1, d_2, ...``.  (checked
        independently: Dumitriu & Edelman 2002, Theorem 3.1 at beta = 2,
        where chi_{2k}**2 / 2 is Gamma(k))"""
        entries = [(2 * i, i, i, m - i) for i in range(n)]
        entries += [(2 * i + 1, i + 1, i, n - i - 1) for i in range(n - 1)]
        return entries

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 3), (20, 2)])
    def test_bidiagonal_entries_are_gamma(self, m, n):
        # Each squared diagonal entry B_ii**2 is Gamma(m - i + 1) and each
        # squared subdiagonal entry B_{i+1,i}**2 is Gamma(n - i), 1-based.
        # A fixed seed makes each KS p-value one fixed number.  A shape off
        # by one reads p < 1e-100 at 20,000 draws.
        b, _ = sample_channel_block(ChannelConfig(m, n, 0.5), rho=10.0, seed=31,
                                    count=20_000)
        for row, i, j, shape in self._bidiagonal(m, n):
            b_sq = b[row] ** 2
            assert stats.kstest(b_sq, stats.gamma(shape).cdf).pvalue > 1e-3, (i, j)

    def test_long_products_do_not_underflow(self):
        # 20x2's Gamma(20) entry passes the 18 uniforms whose product is
        # sure to stay a normal float, but a product of k uniforms reaches
        # zero only around k = 745.  On 1000x1 every plain product would
        # underflow; the entry must still be sqrt of a Gamma(1000) draw.
        b, _ = sample_channel_block(ChannelConfig(1000, 1, 0.5), rho=10.0, seed=5,
                                    count=2_000)
        b_sq = b[0] ** 2
        assert np.isfinite(b_sq).all()
        assert stats.kstest(b_sq, stats.gamma(1000).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("m,n", LINKS)
    def test_channel_zero_off_bidiagonal(self, m, n):
        # The sampler returns only B's 2n - 1 entries, each positive and
        # one contiguous row of trials; the dense channel [B 0] that the
        # tests build from them is zero everywhere else.
        b, _ = sample_channel_block(ChannelConfig(m, n, 0.5), rho=10.0, seed=8,
                                    count=5_000)
        assert b.shape == (2 * n - 1, 5_000)
        assert all(row.flags.c_contiguous for row in b)
        assert (b > 0.0).all()
        h = dense_channel(b, m)
        off = np.ones((n, m), dtype=bool)
        for row, i, j, _ in self._bidiagonal(m, n):
            off[i, j] = False
            assert np.array_equal(h[:, i, j], b[row])
        assert not h[:, off].any()

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 3)])
    def test_spectra_match_iid_reference(self, m, n):
        # The sweep reads the channel only through the spectra of h h^H and
        # (h + c e)(h + c e)^H.  Both must have the law they have for an iid
        # complex Gaussian channel with an independent error, drawn here with
        # NumPy's own generator.  Two-sample KS per eigenvalue index, on
        # 20,000 trials a side; c = 1 gives the estimate an error of
        # variance 0.5 beside the channel's 1.
        cfg = ChannelConfig(m, n, 0.5)
        count = 20_000
        b, e = sample_channel_block(cfg, rho=4.0, seed=12, count=count)
        h, e = dense_channel(b, m), complex_error(e)
        rng = np.random.default_rng(1200 + 10 * m + n)
        ref_h, ref_e = (
            (rng.standard_normal((count, n, m)) + 1j * rng.standard_normal((count, n, m)))
            * math.sqrt(0.5 * var) for var in (1.0, 0.5))

        def spectra(x):
            return np.linalg.eigvalsh(x @ np.conj(np.swapaxes(x, -1, -2)))

        for ours, ref in [(h, ref_h), (h + e, ref_h + ref_e)]:
            got, want = spectra(ours), spectra(ref)
            for k in range(n):
                assert stats.ks_2samp(got[:, k], want[:, k]).pvalue > 1e-3, k

    def test_error_moments(self):
        # Unit-variance complex entries scaled by rho**-alpha: the real and
        # imaginary parts each carry half the variance.  160,000 entries:
        # standard error of the mean ~ 0.0006 on sigma**2 = 0.1.
        cfg = ChannelConfig(2, 2, 0.5)
        _, e = sample_channel_block(cfg, rho=100.0, seed=77, start=0, count=40000)
        e = complex_error(e).reshape(-1)
        sigma_sq = 100.0 ** -0.5
        assert abs(e.real.mean()) < 0.005
        assert abs(e.imag.mean()) < 0.005
        npt.assert_allclose(e.real.var(), sigma_sq / 2, rtol=0.03)
        npt.assert_allclose(e.imag.var(), sigma_sq / 2, rtol=0.03)
        npt.assert_allclose(np.mean(np.abs(e) ** 2), sigma_sq, rtol=0.03)

    @pytest.mark.parametrize("m,n", LINKS)
    def test_block_partition_invariance(self, m, n):
        # Any contiguous partition of the trial index range is bit-identical
        # to one shot: trial i depends only on (seed, i).
        cfg = ChannelConfig(m, n, 0.4)
        whole = sample_channel_block(cfg, rho=30.0, seed=42, start=0, count=10)
        parts = [
            sample_channel_block(cfg, rho=30.0, seed=42, start=0, count=3),
            sample_channel_block(cfg, rho=30.0, seed=42, start=3, count=4),
            sample_channel_block(cfg, rho=30.0, seed=42, start=7, count=3),
        ]
        npt.assert_array_equal(whole[0], np.concatenate([b for b, _ in parts],
                                                        axis=1))
        npt.assert_array_equal(whole[1], np.concatenate([e for _, e in parts]))
        assert np.isfinite(whole[0]).all()

    @pytest.mark.parametrize("m,n", LINKS)
    def test_single_draw_matches_block_row(self, m, n):
        cfg = ChannelConfig(m, n, 0.5)
        b, e = sample_channel_block(cfg, rho=10.0, seed=3, start=0, count=4)
        b_one, e_one = sample_channel_block(cfg, rho=10.0, seed=3, start=2, count=1)
        npt.assert_array_equal(b_one[:, 0], b[:, 2])
        npt.assert_array_equal(e_one[0], e[2])

    @pytest.mark.parametrize("m,n", LINKS)
    def test_error_planes_are_trial_last(self, m, n):
        # Each plane of each error entry is one contiguous vector of trials.
        _, e = sample_channel_block(ChannelConfig(m, n, 0.5), rho=10.0, seed=9,
                                    count=50)
        for q, i, j in itertools.product(range(2), range(n), range(m)):
            assert e[:, q, i, j].flags.c_contiguous

    @pytest.mark.parametrize("m,n", LINKS)
    def test_untransformed_error_keeps_the_channel(self, m, n):
        # Without the error transform the error's uniforms are still drawn:
        # the channels are the same trials, and no error is returned.
        cfg = ChannelConfig(m, n, 0.5)
        h_ref, _ = sample_channel_block(cfg, rho=10.0, seed=9, start=3, count=50)
        h, e = sample_channel_block(cfg, rho=10.0, seed=9, start=3, count=50,
                                    error=False)
        assert e is None
        npt.assert_array_equal(h, h_ref)

    @pytest.mark.parametrize("start,count", [(2.9, 3), (2, 3.7), (2.9, 3.7),
                                             (float("nan"), 1), (0, float("inf"))])
    def test_rejects_nonintegral_range(self, start, count):
        # A fractional start or count is an error, not a truncated range.
        with pytest.raises(ValueError, match="must be an integer"):
            sample_channel_block(ChannelConfig(2, 2, 0.5), rho=10.0, seed=1,
                                 start=start, count=count)

    def test_integral_float_range_accepted(self):
        cfg = ChannelConfig(2, 2, 0.5)
        h, e = sample_channel_block(cfg, rho=10.0, seed=1, start=2.0, count=3.0)
        h_ref, e_ref = sample_channel_block(cfg, rho=10.0, seed=1, start=2, count=3)
        npt.assert_array_equal(h, h_ref)
        npt.assert_array_equal(e, e_ref)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 2), (3, 2)])
    def test_largest_uniform_gives_a_finite_error(self, m, n, monkeypatch):
        # Shifted up by half an ulp, the largest uniform, 1 - 2**-53, rounds
        # to 1.0, and the smallest, 0, becomes 2**-54.  Each is put in turn
        # in trial 1's first error entry, as its modulus uniform (real
        # plane) and as its phase uniform (imaginary plane): that entry must
        # be finite, and every other entry as drawn.
        cfg = ChannelConfig(m, n, 0.5)
        sigma = 10.0 ** -0.25
        h_ref, e_ref = sample_channel_block(cfg, rho=10.0, seed=4, count=3)
        r_ref = math.hypot(*e_ref[1, :, 0, 0])
        trial_one = 4 * -(-3 * n * m // 4)
        for plane, uniform in itertools.product((0, 1), (1.0 - 2.0 ** -53, 0.0)):
            h, e = sample_with_uniforms(
                monkeypatch, cfg, {trial_one + (1 + plane) * n * m: uniform},
                rho=10.0, seed=4, count=3)
            assert np.isfinite(e).all()
            npt.assert_array_equal(h, h_ref)
            changed = e != e_ref
            assert changed[1, :, 0, 0].any()
            changed[1, :, 0, 0] = False
            assert not changed.any()
            re, im = e[1, :, 0, 0]
            if plane == 1:
                # The phase is pi at either end of the uniforms.
                npt.assert_allclose(re, -r_ref, rtol=1e-14)
                assert abs(im) < 1e-15 * r_ref
            elif uniform:
                assert re == im == 0.0
            else:
                npt.assert_allclose(math.hypot(re, im),
                                    sigma * math.sqrt(54 * math.log(2)), rtol=1e-14)

    def test_error_law(self):
        # Each entry is circular complex Gaussian of variance sigma**2: the
        # real and imaginary parts are N(0, sigma**2 / 2), |z|**2 / sigma**2
        # is Exp(1), the phase is uniform, and the parts are uncorrelated.
        # 80,000 entries: the correlation's standard error is 0.0035.
        _, e = sample_channel_block(ChannelConfig(2, 2, 0.5), rho=100.0,
                                    seed=21, count=20_000)
        z = complex_error(e).reshape(-1)
        sigma_sq = 100.0 ** -0.5
        for part in (z.real, z.imag):
            assert stats.kstest(part, "norm", (0.0, math.sqrt(sigma_sq / 2))).pvalue > 1e-3
        assert stats.kstest(np.abs(z) ** 2 / sigma_sq, "expon").pvalue > 1e-3
        assert stats.kstest(np.angle(z), "uniform", (-math.pi, 2 * math.pi)).pvalue > 1e-3
        assert abs(np.corrcoef(z.real, z.imag)[0, 1]) < 0.015

    def test_error_matches_exact_polar_value(self, monkeypatch):
        # Each entry, recomputed at 50 digits from its own two shifted
        # uniforms, a in the real plane and v in the imaginary plane, is
        # r e^(i theta) with r = sqrt(-sigma**2 log a) and theta = 2 pi (v -
        # 1/2).  The rounded pi (v - 1/2), the tangent and the arithmetic
        # bound each part's error by about 8 u r, u = 2**-53 (4.84 u r at
        # most over 800,000 entries).  Trial 0 holds the extreme uniforms,
        # v = 1/4 and 3/4 where 1 - tau**2 cancels, and v = 1/2.
        cfg = ChannelConfig(3, 2, 0.7)
        rho, seed, count, nm = 31.6, 11, 400, 6
        top = 1.0 - 2.0 ** -53
        extremes = [(0.0, 0.25), (top, 0.75), (0.5, 0.0), (0.3, top),
                    (0.7, 0.5), (0.0, top)]
        replace = {}
        for k, (a, v) in enumerate(extremes):
            replace[nm + k], replace[2 * nm + k] = a, v
        _, e = sample_with_uniforms(monkeypatch, cfg, replace, rho=rho,
                                    seed=seed, count=count)
        # A trial's 18 uniforms fill five Philox ticks of four.
        u = np.random.Generator(channel._bit_generator(seed)).random((count, 20))
        for index, value in replace.items():
            u[0, index] = value
        u += 2.0 ** -54
        var = rho ** -cfg.alpha
        got = e.reshape(count, 2, nm)
        for trial, k in itertools.product(range(count), range(nm)):
            a, v = u[trial, nm + k], u[trial, 2 * nm + k]
            with decimal.localcontext() as ctx:
                ctx.prec = 50
                r, want = exact_polar(a, v, var)
                for part in range(2):
                    error = abs(decimal.Decimal(float(got[trial, part, k])) - want[part])
                    assert error <= 8 * decimal.Decimal(2.0 ** -53) * r, (trial, k, part)

    def test_sampler_runs_without_scipy(self):
        # The error transform is NumPy's log and tan: a fresh interpreter in
        # which any SciPy import raises still draws the error.
        code = ("import sys; sys.modules['scipy'] = None\n"
                "import numpy as np\n"
                "from mimo_dmt.channel import ChannelConfig, sample_channel_block\n"
                "_, e = sample_channel_block(ChannelConfig(3, 2, 0.5), 10.0, 1,"
                " count=100, error=True)\n"
                "assert e.shape == (100, 2, 2, 3) and np.isfinite(e).all()\n")
        env = dict(os.environ)
        src = str(Path(channel.__file__).resolve().parent.parent)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        done = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr


def sample_with_uniforms(monkeypatch, cfg, replace, **kwargs):
    """:func:`sample_channel_block` with some of the generator's uniforms
    replaced: ``replace`` maps an index into the block's draws, counted
    from its first trial's first uniform, to the uniform drawn there."""

    class Replaced(np.random.Generator):
        # Counts the uniforms drawn, which may come in several calls.
        drawn = 0

        def random(self, size=None, dtype=np.float64, out=None):
            u = super().random(size, dtype, out)
            flat = u.reshape(-1)
            for index, value in replace.items():
                if 0 <= index - self.drawn < flat.size:
                    flat[index - self.drawn] = value
            self.drawn += flat.size
            return u

    with monkeypatch.context() as patch:
        patch.setattr(np.random, "Generator", Replaced)
        return sample_channel_block(cfg, **kwargs)


PI_60 = decimal.Decimal("3.14159265358979323846264338327950288419716939937510582097494")


def exact_polar(a, v, var):
    """``(r, (Re, Im))`` of ``r e^(i theta)``, ``r = sqrt(-var log a)`` and
    ``theta = 2 pi (v - 1/2)``, as decimals in the caller's context, with
    the cosine and sine summed by their Taylor series."""
    d = decimal.Decimal
    r = (-d(var) * d(a).ln()).sqrt()
    x = 2 * PI_60 * (d(v) - d("0.5"))
    sums, term, k = [d(0), d(0)], d(1), 0
    while abs(term) > d("1e-55"):
        sums[k % 2] += term if k % 4 < 2 else -term
        k += 1
        term *= x / k
    return r, (r * sums[0], r * sums[1])


def exact_det(h, power):
    """``det(I + P h h^T)`` of one real matrix, in rational arithmetic, by
    Gaussian elimination of the positive definite matrix without pivoting."""
    rows = [[Fraction(float(x)) for x in row] for row in h]
    p = Fraction(float(power))
    n = len(rows)
    a = [[int(i == k) + p * sum(x * y for x, y in zip(rows[i], rows[k]))
          for k in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        det *= a[col][col]
        for row in range(col + 1, n):
            ratio = a[row][col] / a[col][col]
            for k in range(col, n):
                a[row][k] -= ratio * a[col][k]
    return det


class TestBidiagonalMinorSums:
    """``det(I + P B B^T) = 1 + P e_1 + ... + P**n e_n``, evaluated by
    Horner's rule as the sweep does."""

    @staticmethod
    def horner(coeffs, power):
        det = coeffs[-1] * power
        for coeff in coeffs[-2::-1]:
            det = (det + coeff) * power
        return det + 1.0

    @given(n=st.integers(1, 6), zero_columns=st.integers(0, 3),
           entries=st.lists(st.one_of(
               st.just(0.0),
               st.builds(lambda x, k: x * 10.0 ** k,
                         st.floats(1.0, 10.0), st.integers(-300, 149))),
               min_size=11, max_size=11),
           log_power=st.floats(0.0, 8.0))
    @settings(max_examples=300)
    def test_matches_exact_determinant(self, n, zero_columns, entries, log_power):
        # Entries of B from 1e-300 to 1e150, whose squares reach the ends of
        # the float range, with exact zeros among them; h = [B 0] has zero
        # columns past B.  A coefficient past the largest float reads inf,
        # or nan where it meets a zero entry.  With P >= 1 each partial sum
        # of Horner's rule is at most det / P**k, so the result is finite
        # wherever the determinant is.  Every coefficient is a sum of
        # products of squares, with no cancellation.  A term passes at most
        # one rounding per squared entry, three per row of the recursion
        # and two per coefficient in Horner's rule, so the relative error is
        # at most gamma_(6n), with u = 2**-53 (4.2 u at most on 3,000
        # random inputs).  What underflows is at most 2**-1074 * P times
        # the determinant.
        b = np.array(entries[:2 * n - 1])[:, np.newaxis]
        h = dense_channel(b, n + zero_columns)
        power = 10.0 ** log_power
        with np.errstate(over="ignore", invalid="ignore"):
            coeffs = bidiagonal_minor_sums(b)
            got = self.horner(coeffs[:, 0], power)
        assert coeffs.shape == (n, 1)
        want = exact_det(h[0], power)
        k = 6 * n
        bound = k * 2.0 ** -53 / (1 - k * 2.0 ** -53)
        if not math.isfinite(got):
            assert want >= (1 - bound) * Fraction(np.finfo(float).max)
        else:
            assert abs(Fraction(got) - want) <= bound * want

    @pytest.mark.parametrize("shape", [(5, 2, 2), (4, 5), (5,), (0, 5)])
    def test_rejects_other_shapes(self, shape):
        # The old dense (count, n, m) channel, an even row count, one row
        # and no rows are not B's 2n - 1 entries.
        with pytest.raises(ValueError, match="shape"):
            bidiagonal_minor_sums(np.ones(shape))


class TestEigAscending:
    """Gram matrices of generic complex matrices, summed entry by entry in
    real arithmetic (``channel._gram``).  The package forms such a Gram
    matrix only as :class:`GramPolynomial`'s error block, so each matrix is
    read as the error of a zero channel (:func:`error_gram`), and the
    entries are compared directly, not through a spectrum."""

    def test_known_spectrum(self):
        # Rows scaled orthonormal: m m^H = diag(3, 1).  (checked independently:
        # construct m = diag(sqrt(3), 1) V with V unitary; Gram = diag(3, 1).)
        v = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
        m = np.diag([math.sqrt(3.0), 1.0]) @ v[:2, :]
        gram = dense_gram(error_gram(m[np.newaxis] + 0j), 2)[0]
        npt.assert_allclose(gram, np.diag([3.0, 1.0]), atol=1e-12)

    def test_trace_and_det_identities(self):
        # Trace = ||m||_F^2; det = det(m m^H).  (checked independently:
        # linear-algebra identities, evaluated with numpy on a fixed draw.)
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        g = error_gram(m[np.newaxis])
        npt.assert_allclose(g[:3].sum(), np.linalg.norm(m) ** 2, rtol=1e-12)
        gram = m @ m.conj().T
        npt.assert_allclose(np.linalg.det(dense_gram(g, 3)[0]).real,
                            np.linalg.det(gram).real, rtol=1e-10)

    def test_batch_shape(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 2, 4)) + 1j * rng.normal(size=(6, 2, 4))
        g = error_gram(m)
        assert g.shape == (4, 6)
        single = error_gram(m[2:3])[:, 0]
        npt.assert_allclose(g[:, 2], single, rtol=1e-12)

    def test_rejects_nonfinite(self):
        m = np.array([[[1.0 + 0j, np.nan], [0.0, 1.0]]])
        with pytest.raises(ValueError):
            error_gram(m)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
    def test_rejects_nonfinite_in_batch(self, n, bad):
        # One non-finite entry anywhere in a batch is rejected.
        x = np.ones((5, n, 3), dtype=complex)
        x[3, n - 1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            error_gram(x)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (1, 5), (2, 2), (2, 3),
                                     (2, 5), (3, 3), (3, 5), (4, 4)])
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_per_entry_gram_matches_matmul_gram(self, n, m, scale):
        # The Gram matrix summed entry by entry in real arithmetic against
        # the Gram matrix formed by matmul.  The batch mixes generic draws
        # with a rank-1 input, orthogonal rows of equal norm and the zero
        # matrix.  Bound: 1e-13 times the largest diagonal entry, which is
        # no larger than lambda_max.
        rng = np.random.default_rng(100 * n + m)
        x = rng.normal(size=(400, n, m)) + 1j * rng.normal(size=(400, n, m))
        x[1, 1:] = (0.3 - 0.7j) * x[1, :1]
        if n >= 2:
            q = np.linalg.qr(x[2].T)[0]
            x[2] = 2.5 * q.T
        x[3] = 0.0
        x *= scale
        g = error_gram(x)
        got = dense_gram(g, n)
        want = x @ np.conj(np.swapaxes(x, -1, -2))
        assert g.shape == (n * n, 400)
        assert np.all(g[:n] >= 0.0)
        top = want[:, range(n), range(n)].real.max(axis=-1)
        assert np.all(np.abs(got - want).max(axis=(-2, -1)) <= 1e-13 * top)
        assert np.all(g[:, 3] == 0.0)
        if n >= 2:
            npt.assert_allclose(got[2], 6.25 * scale ** 2 * np.eye(n),
                                rtol=1e-13, atol=1e-13 * 6.25 * scale ** 2)

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 5), (3, 3), (4, 4)])
    def test_layout_invariance(self, n, m):
        # The same planes stored C-ordered and trial-last must give the same
        # Gram entries bit for bit; the sweep's draws are stored trial-last.
        rng = np.random.default_rng(10 * n + m)
        x = planes(rng.normal(size=(500, n, m)) + 1j * rng.normal(size=(500, n, m)))
        trial_last = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)),
                                 -1, 0)
        assert trial_last[:, 0, 0, 0].flags.c_contiguous
        zero = np.zeros((2 * n - 1, 500))
        c_ordered = GramPolynomial(zero, np.ascontiguousarray(x))._c
        assert np.array_equal(c_ordered, GramPolynomial(zero, trial_last)._c)

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 3)])
    def test_batch_size_invariance(self, m, n):
        # A trial's Gram entries must not depend on the size of the batch
        # it is drawn in.  40,000 trials lie above the 256 KiB at which
        # NumPy may reuse a temporary as an output, which can change the
        # loop a complex product runs through; 3,000 lie below it.
        cfg = ChannelConfig(m, n, 0.5)
        whole = sample_channel_block(cfg, 10.0, 4, start=0, count=40_000)
        parts = [sample_channel_block(cfg, 10.0, 4, start=s,
                                      count=min(3000, 40_000 - s))
                 for s in range(0, 40_000, 3000)]
        got = np.concatenate([error_gram(dense_channel(b, m) + complex_error(e))
                              for b, e in parts], axis=1)
        assert np.array_equal(got, error_gram(dense_channel(whole[0], m)
                                              + complex_error(whole[1])))


def bidiagonal(x):
    """The diagonal and subdiagonal of a dense batch ``x``, as the sampler
    returns ``B``'s entries: shape ``(2n - 1, count)``, in the order ``d_1,
    s_1, d_2, ...``.  ``dense_channel(bidiagonal(x), m)`` is ``x`` with
    every other entry zeroed."""
    n = x.shape[-2]
    b = np.empty((2 * n - 1, len(x)))
    b[0::2] = x[:, range(n), range(n)].T
    b[1::2] = x[:, range(1, n), range(n - 1)].T
    return b


def per_entry_blocks(h, e):
    """The blocks ``A = h h^H``, ``B = h e^H + e h^H`` and ``C = e e^H`` of
    a :class:`GramPolynomial`, each entry summed over every column of the
    complex-cast channel and of the error planes in real arithmetic, and
    stored as the package stores a Gram matrix."""
    count, n, m = h.shape
    x = np.stack((h, np.zeros_like(h)), axis=1)

    def dot(u, v, i, k):
        # Re(sum_j u_ij conj(v_kj)), column by column.
        out = u[:, 0, i, 0] * v[:, 0, k, 0] + u[:, 1, i, 0] * v[:, 1, k, 0]
        for j in range(1, m):
            out += u[:, 0, i, j] * v[:, 0, k, j] + u[:, 1, i, j] * v[:, 1, k, j]
        return out

    def cross(u, v, i, k):
        # Im(sum_j u_ij conj(v_kj)), column by column.
        out = u[:, 1, i, 0] * v[:, 0, k, 0] - u[:, 0, i, 0] * v[:, 1, k, 0]
        for j in range(1, m):
            out += u[:, 1, i, j] * v[:, 0, k, j] - u[:, 0, i, j] * v[:, 1, k, j]
        return out

    def gram(u, v):
        g = np.empty((n * n, count))
        for i in range(n):
            g[i] = dot(u, v, i, i)
        for p, (i, k) in enumerate(itertools.combinations(range(n), 2)):
            g[n + 2 * p] = dot(u, v, i, k)
            g[n + 2 * p + 1] = cross(u, v, i, k)
        return g

    return gram(x, x), gram(x, e) + gram(e, x), gram(e, e)


class TestGramPolynomial:
    """The Gram matrices of an outage sweep's ``X = h + c e``, read from
    ``A + c (B + c C)``, against ``X X^H`` formed directly, entry by entry,
    and the capacity determinants read from them."""

    @staticmethod
    def _pairs(n, m, kind, c, rng):
        shape = (300, n, m)
        h = dense_channel(bidiagonal(rng.normal(size=shape)), m)
        e = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if kind == "rank1":
            # Only B's first column, and error rows in the same proportion
            # as its entries: h + c e has rank 1.
            ratio = rng.normal(size=(300, n, 1))
            ratio[:, 0], ratio[:, 2:] = 1.0, 0.0
            h[:, :, 1:] = 0.0
            h[:, :, :1] = ratio * h[:, :1, :1]
            e = ratio * e[:, :1]
        elif kind == "zero_diagonal":
            h[:, range(n), range(n)] = 0.0
        elif kind == "zero":
            h[:100] = 0.0
            e[100:200] = 0.0
            h[200:] = e[200:] = 0.0
        elif kind == "cancel":
            # e near -h / c, so the estimate is tiny next to both terms.
            e = -h / c + 1e-6 * e
        return h, e

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 4), (2, 2), (2, 5), (3, 3),
                                     (3, 5), (4, 4), (6, 6)])
    @pytest.mark.parametrize("kind", ["gaussian", "rank1", "zero", "cancel",
                                      "zero_diagonal"])
    def test_matches_formed_estimate(self, n, m, kind):
        # Bidiagonal h against the estimate's Gram matrix formed by matmul.
        # Bound: 1e-13 * tr(A + c**2 C), the size of the two terms whose
        # sum is taken; a cancelling estimate can be far smaller than that.
        rng = np.random.default_rng(10 * n + m)
        for c in (1.0, 1e-3, 1e-12):
            unit_h, unit_e = self._pairs(n, m, kind, c, rng)
            for scale in (1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100):
                h, e = scale * unit_h, scale * unit_e
                g = GramPolynomial(bidiagonal(h), planes(e))._evaluate(c)
                got = dense_gram(g, n)
                x = h + c * e
                want = x @ np.conj(np.swapaxes(x, -1, -2))
                size = (np.sum(h ** 2, axis=(-2, -1))
                        + c * c * np.sum(np.abs(e) ** 2, axis=(-2, -1)))
                assert g.shape == (n * n, 300)
                gap = np.abs(got - want).max(axis=(-2, -1))
                assert np.all(gap <= 1e-13 * size), (c, scale)
                if kind == "zero":
                    assert np.all(g[:, 200:] == 0.0)

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 1), (2, 2), (4, 2), (3, 3),
                                     (4, 4)])
    def test_zero_scale_is_channel_spectrum(self, m, n):
        # At c = 0 the quadratic is h h^H exactly: the per-entry channel
        # block bit for bit, on trial-last draws, and within 1e-13 of the
        # largest diagonal entry of the dense reference.
        b, e = sample_channel_block(ChannelConfig(m, n, 0.5), 10.0, 2,
                                    count=3000)
        got = GramPolynomial(b, e)._evaluate(0.0)
        h = dense_channel(b, m)
        a, _, _ = per_entry_blocks(h, e)
        assert np.array_equal(got, a)
        want = h @ np.swapaxes(h, -1, -2)
        top = want[:, range(n), range(n)].max(axis=-1)
        gap = np.abs(dense_gram(got, n) - want).max(axis=(-2, -1))
        assert np.all(gap <= 1e-13 * top)

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 3)])
    def test_batch_size_invariance(self, m, n):
        # A trial's estimate Gram matrix must not depend on the size of the
        # batch it is drawn in, as in TestEigAscending.
        cfg = ChannelConfig(m, n, 0.5)
        whole = sample_channel_block(cfg, 10.0, 4, start=0, count=40_000)
        parts = [sample_channel_block(cfg, 10.0, 4, start=s,
                                      count=min(3000, 40_000 - s))
                 for s in range(0, 40_000, 3000)]
        for c in (1.0, 0.3):
            got = np.concatenate([GramPolynomial(b, e)._evaluate(c)
                                  for b, e in parts], axis=1)
            assert np.array_equal(got, GramPolynomial(*whole)._evaluate(c))

    def test_rank_deficient_clamped(self):
        # B's last column is zero, so h h^H = [[1, 2], [2, 4]] has rank 1,
        # and det(I + P h h^H) = 1 + 5 P; with error rows in proportion to
        # h's rows, h + c e has rank 1 too, and its determinant is 1 + P
        # tr.  The LDL^H's trailing pivots, 1 in exact arithmetic, are
        # floored at 1 where rounding leaves them below, and the result is
        # within TestCapacityDet's 4 n m u (1 + P S) of the exact one.
        b = np.array([[1.0], [2.0], [0.0]])
        det = GramPolynomial(b, np.zeros((1, 2, 2, 3))).capacity_det(
            0.0, np.ones(1), 3.0, np.empty(1))
        npt.assert_allclose(det, [16.0], rtol=1e-15)
        rng = np.random.default_rng(3)
        for n, m in ((2, 3), (3, 4), (4, 4)):
            h, e = self._pairs(n, m, "rank1", 0.7, rng)
            grams = GramPolynomial(bidiagonal(h), planes(e))
            trace = np.sum(np.abs(h + 0.7 * e) ** 2, axis=(-2, -1))
            size = np.sum((np.abs(h) + 0.7 * np.abs(e)) ** 2, axis=(-2, -1))
            for scale in (1e-3, 1.0, 1e3):
                got = grams.capacity_det(0.7, 1.0 / trace, scale, np.empty(300))
                bound = 4 * n * m * 2.0 ** -53 * (1.0 + scale * size / trace)
                assert np.all(got >= 1.0)
                assert np.all(np.abs(got - (1.0 + scale)) <= bound * (1.0 + scale))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rejects_nonfinite(self, n):
        # A non-finite entry of B or of either error plane, anywhere in
        # the batch, is rejected.
        b, e = np.ones((2 * n - 1, 5)), np.ones((5, 2, n, 3))
        for bad in (np.nan, np.inf, -np.inf):
            bad_b = b.copy()
            bad_b[2 * n - 2, 2] = bad
            with pytest.raises(ValueError, match="finite"):
                GramPolynomial(bad_b, e)
            for q in (0, 1):
                bad_e = e.copy()
                bad_e[2, q, n - 1, 1] = bad
                with pytest.raises(ValueError, match="finite"):
                    GramPolynomial(b, bad_e)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            GramPolynomial(np.ones((3, 4)), np.ones((4, 2, 2)))
        # One matrix is not a batch.
        with pytest.raises(ValueError, match="shape"):
            GramPolynomial(np.ones(3), np.ones((2, 2, 3)))
        # The old dense (count, n, m) channel, and B's entries for another
        # row count or another batch.
        e = np.ones((4, 2, 2, 3))
        for b in (np.ones((4, 2, 3)), np.ones((2, 4)), np.ones((3, 5))):
            with pytest.raises(ValueError, match="shape"):
                GramPolynomial(b, e)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_results_do_not_alias_scratch(self, n):
        # The sweep reads seven determinants from the same instance, each
        # through its scratch Gram; later calls must leave the blocks, and
        # so a repeated read, as they were.
        rng = np.random.default_rng(n)
        b = bidiagonal(rng.normal(size=(500, n, 4)))
        e = rng.normal(size=(500, 2, n, 4))
        grams = GramPolynomial(b, e)
        power = np.full(500, 0.7)

        def det(c):
            return grams.capacity_det(c, power, 2.0, np.empty(500))

        first = [det(c) for c in (0.0, 1.0)]
        for c in (0.5, 0.0, 2.0, 1e-3):
            det(c)
        for x, c in zip(first, (0.0, 1.0)):
            assert np.array_equal(x, det(c))


def exact_estimate(h, e, c):
    """Gram determinant and trace of one estimate ``X = h + c e``, with
    ``e`` as planes, in rational arithmetic.  The determinant sums
    ``|X_1j X_2k - X_1k X_2j|**2`` over the column pairs (Cauchy-Binet); a
    one-row Gram matrix is its trace."""
    c = Fraction(c)
    x = [[(Fraction(float(a)) + c * Fraction(float(b)), c * Fraction(float(d)))
          for a, b, d in zip(*rows)] for rows in zip(h, e[0], e[1])]
    tr = sum(a * a + b * b for row in x for a, b in row)
    if len(x) == 1:
        return tr, tr
    det = Fraction(0)
    for j, k in itertools.combinations(range(len(x[0])), 2):
        (a, ai), (b, bi) = x[0][j], x[1][k]
        (f, fi), (g, gi) = x[0][k], x[1][j]
        det += (a * b - ai * bi - f * g + fi * gi) ** 2
        det += (a * bi + ai * b - f * gi - fi * g) ** 2
    return det, tr


def estimate_sizes(h, e, c):
    """Sizes of the terms summed into an estimate's determinant and trace,
    in rational arithmetic.  With ``Y = |h| + c |e|`` entry by entry, the
    trace's is ``sum(Y**2)`` and the determinant's ``sum_{j<k} (Y_1j Y_2k +
    Y_1k Y_2j)**2``, which bounds every product the minors and their fold
    sum, whatever cancels."""
    y = [[Fraction(float(v)) for v in row]
         for row in np.abs(h) + c * np.hypot(e[0], e[1])]
    tr = sum(v * v for row in y for v in row)
    if len(y) == 1:
        return tr, tr
    det = sum((y[0][j] * y[1][k] + y[0][k] * y[1][j]) ** 2
              for j, k in itertools.combinations(range(len(y[0])), 2))
    return det, tr


def exact_pair(h, e, c):
    """Ascending eigenvalues of one estimate ``h + c e`` from its exact
    determinant and trace (:func:`exact_estimate`), as 60-digit decimals;
    one row has one."""
    det, tr = exact_estimate(h, e, c)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        det, tr = (decimal.Decimal(x.numerator) / x.denominator for x in (det, tr))
        if len(h) == 1:
            return [tr]
        if tr == 0:
            return [tr, tr]
        lam_max = tr / 2 * (1 + max(1 - 4 * det / (tr * tr), 0).sqrt())
        return [det / lam_max, lam_max]


def exact_log_weight(h, e, c, w, t):
    """The log damped weight ``-t * sum(w_i log lambda_i)`` of
    :func:`exact_pair`, in 60-digit arithmetic, with eigenvalues below the
    smallest normal float counted as that float."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        tiny = decimal.Decimal(float(np.finfo(float).tiny))
        return float(-decimal.Decimal(t) * sum(
            decimal.Decimal(float(w_i)) * max(x, tiny).ln()
            for w_i, x in zip(w, exact_pair(h, e, c))))


def exact_b_log_weight(b, m, t):
    """:func:`exact_log_weight` of ``B B^T`` for each trial of the
    bidiagonal entries ``b``, shape ``(2n - 1, count)``, with ``n <= 2``."""
    n = (len(b) + 1) // 2
    zero = np.zeros((2, n, m))
    w = eigen_decay_weights(m, n)
    return np.array([exact_log_weight(h_i, zero, 0.0, w, t)
                     for h_i in dense_channel(b, m)])


def log_weight_error_bound(b, m, t):
    """Bound on the error of :func:`log_damped_weight` for each trial of
    one- or two-row entries ``b``: 16 u of the terms it sums, ``c_1 (1 +
    sum_i |log d_i**2|)`` for ``log det`` and ``2 (1 + |log lambda_2|)``
    for ``lambda_2``, times ``t``.  The squares, the closed form's sum of
    non-negative terms, whose root loses at most a few u of ``lambda_2``
    to the difference ``a_11 - a_22``, and the logs each add a few u; the
    floor, a maximum, adds nothing.  ``lambda_2`` is the exact one, floored
    as the weight floors it."""
    n = (len(b) + 1) // 2
    tiny = np.finfo(float).tiny
    size = (1 + m - n) * (1.0 + np.abs(np.log(np.maximum(
        np.square(b[0::2]), tiny))).sum(axis=0))
    if n == 2:
        zero = np.zeros((2, n, m))
        lam = np.array([float(exact_pair(h_i, zero, 0.0)[1])
                        for h_i in dense_channel(b, m)])
        size += 2.0 * (1.0 + np.abs(np.log(np.maximum(lam, tiny))))
    return 16 * 2.0 ** -53 * t * size


def scaled_det_and_trace(minors, c):
    """The estimate's Gram determinant and trace that
    ``EstimateMinors.capacity_det`` reads at scale ``c``, as new rows in the
    batch's scaled units, and the exponent ``k`` such that the determinant
    is ``2**(2k)`` and the trace ``2**k`` times them.  One row's eigenvalue
    is both, with ``k = 0``."""
    out = np.empty(minors._scratch.shape[1])
    if minors._n == 1:
        lam = minors._one_row(c, out)
        return lam, lam.copy(), 0
    trace = 2.0 * minors._det_and_half_trace(c, out)
    return out, trace, minors._exponent


def weight_draws(n, kind, scale, rng, count=4):
    """``B``'s entries for the log damped weight, each 0 or within its
    domain [1e-60, 1e60] at ``scale`` from 1e-50 to 1e50: magnitudes of
    Gaussians at least 1e-3; ``rank1`` shrinks ``d_2`` by 1e-6, so that
    ``B B^T`` is nearly rank 1; ``wide`` ignores ``scale`` and puts each
    entry at ``10**U(-60, 60)``, or 0 with probability 1/8."""
    if kind == "wide":
        b = 10.0 ** rng.uniform(-60.0, 60.0, size=(2 * n - 1, count))
        b[rng.uniform(size=b.shape) < 0.125] = 0.0
        return b
    b = np.maximum(np.abs(rng.normal(size=(2 * n - 1, count))), 1e-3)
    if kind == "rank1" and n == 2:
        b[2] *= 1e-6
    return scale * b


class TestEstimateMinors:
    """One- and two-row estimates: the determinant and trace that the
    capacity determinant reads, from the minors, against exact rational
    arithmetic and against :class:`GramPolynomial`'s entries; and the log
    damped weight a span reads beside them at ``c = 0``, from ``B``'s
    entries alone (:func:`log_damped_weight`), against 60-digit arithmetic
    and the dense spectrum of ``B B^T``."""

    U = Fraction(1, 2 ** 53)

    @staticmethod
    def _draws(n, m, kind, c, scale, rng, count=4):
        # B's entries d1, s1, d2, in the sampler's order.
        b = np.abs(rng.normal(size=(2 * n - 1, count)))
        e = rng.normal(size=(count, 2, n, m))
        if kind == "cancel":
            # e near -h / c: the estimate is tiny next to both terms.
            e *= 1e-6
            e[:, 0] -= dense_channel(b, m) / c
        elif kind == "rank1" and n == 2:
            # A nearly rank-1 channel and a tiny error: the Gram matrix's
            # entries lose its small eigenvalue, the minors do not.
            b[2] *= 1e-6
            e *= 1e-8
        return scale * b, scale * e

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2),
           m=st.integers(1, 6),
           kind=st.sampled_from(["generic", "cancel", "rank1"]),
           c=st.sampled_from([1.0, 0.3, 1e-3]),
           scale=st.sampled_from([1e-100, 1e-10, 1.0, 1e10, 1e100]))
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_determinant_and_trace(self, seed, n, m, kind, c, scale):
        # The determinant that the capacity determinant reads lies within
        # 32 u of its terms' size of the exact determinant, and the trace
        # within 16 u of the trace's size.  Every product is correctly
        # rounded, so what cancels loses only what the terms' size allows,
        # the fold of the pairs past B included.  The per-batch power-of-two
        # scaling keeps the quartic determinant in range from 1e-100 to
        # 1e100.
        m = max(m, n)
        b, e = self._draws(n, m, kind, c, scale, np.random.default_rng(seed))
        got_det, got_tr, k = scaled_det_and_trace(EstimateMinors(b, e), c)
        assert got_det.shape == got_tr.shape == (4,)
        assert np.all(got_det >= 0.0) and np.all(got_tr >= 0.0)
        for det_i, tr_i, h_i, e_i in zip(got_det, got_tr, dense_channel(b, m), e):
            det, tr = exact_estimate(h_i, e_i, c)
            det_size, tr_size = estimate_sizes(h_i, e_i, c)
            got = Fraction(float(det_i)) * Fraction(2) ** (2 * k)
            trace = Fraction(float(tr_i)) * Fraction(2) ** k
            assert abs(got - det) <= 32 * self.U * det_size
            assert abs(trace - tr) <= 16 * self.U * tr_size

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2),
           m=st.integers(1, 6),
           scale=st.sampled_from([1e-50, 1e-10, 1.0, 1e10, 1e50]),
           t=st.sampled_from([0.3, 0.9]))
    @settings(max_examples=150, deadline=None)
    def test_log_weight_matches_formed_estimate(self, seed, n, m, scale, t):
        # On generic draws the log damped weight agrees with the one read
        # from the dense spectrum of B B^T within 32 u times t * sum(w) *
        # lambda_max / lambda_min (the eigenvalue errors) plus t * sum(w *
        # |log lambda|) (the logs' rounding).
        m = max(m, n)
        b = weight_draws(n, "generic", scale, np.random.default_rng(seed), 8)
        want = gram_spectrum(dense_channel(b, m))
        got = log_damped_weight(b, m, t)
        w = eigen_decay_weights(m, n)
        size = t * (w.sum() * want[:, -1] / want[:, 0]
                    + (w * np.abs(np.log(want))).sum(axis=1))
        ref = spectrum_log_weight(want, m, t)
        assert np.all(np.abs(got - ref) <= 32 * 2.0 ** -53 * size)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2),
           m=st.integers(1, 6),
           kind=st.sampled_from(["generic", "rank1", "wide"]),
           log_scale=st.floats(-50.0, 50.0),
           t=st.sampled_from([0.3, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_log_weight_matches_exact(self, seed, n, m, kind, log_scale, t):
        # The weight a span reads, from log det and the closed-form
        # lambda_max, against the 60-digit weight of the exact determinant
        # and trace, within log_weight_error_bound, over the function's
        # whole domain: each entry 0 or within [1e-60, 1e60].
        m = max(m, n)
        b = weight_draws(n, kind, 10.0 ** log_scale, np.random.default_rng(seed))
        got = log_damped_weight(b, m, t)
        want = exact_b_log_weight(b, m, t)
        bound = log_weight_error_bound(b, m, t)
        assert np.all(np.abs(got - want) <= bound), (got, want, bound)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_nearly_rank_one_weight_is_exact(self, m):
        # A nearly rank-1 B: its small eigenvalue is about 1e-12 of its
        # large one.  The weight from log det and lambda_max is within
        # 1e-13 of the exact weight; eigvalsh of the dense Gram matrix
        # misses the small eigenvalue, and the weight, by far more.
        t = 0.9
        b = weight_draws(2, "rank1", 1.0, np.random.default_rng(m), 40)
        exact = exact_b_log_weight(b, m, t)
        got = log_damped_weight(b, m, t)
        dense = spectrum_log_weight(gram_spectrum(dense_channel(b, m)), m, t)
        assert np.abs(got - exact).max() <= 1e-13
        assert np.abs(dense - exact).max() > 1e3 * np.abs(got - exact).max()

    def test_zero_estimate_has_zero_spectrum(self):
        # A zero trace gives a zero determinant and trace, not NaN, and a
        # zero B a weight with every eigenvalue at the smallest normal
        # float.
        b, e = np.zeros((3, 3)), np.zeros((3, 2, 2, 4))
        det, trace, _ = scaled_det_and_trace(EstimateMinors(b, e), 0.7)
        assert np.array_equal(det, np.zeros(3))
        assert np.array_equal(trace, np.zeros(3))
        log_tiny = math.log(np.finfo(float).tiny)
        npt.assert_allclose(log_damped_weight(b, 4, 0.9),
                            -0.9 * (3 + 5) * log_tiny, rtol=1e-15)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("scale", [1e-16, 1.0, 1e16])
    def test_weight_floors_eigenvalues_below_the_smallest_normal(self, n, scale):
        # An eigenvalue below the smallest normal float counts as that
        # float, whatever the scale of the batch: a zero B, one with d_n =
        # 0 (exactly rank-1 on two rows) and, on two rows, d1 = d2 = 1e-60
        # under s1 = 1e60, whose small eigenvalue is about 1e-360, beside
        # a generic B, which the floor leaves as it is.
        t = 0.9
        b = weight_draws(n, "generic", scale, np.random.default_rng(5))
        b[:, 1] = 0.0
        b[2 * n - 2, 2] = 0.0
        b[0::2, 3] = 1e-60
        if n == 2:
            b[1, 3] = 1e60
        got = log_damped_weight(b, 3, t)
        npt.assert_allclose(got, exact_b_log_weight(b, 3, t), rtol=1e-14)

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 1), (2, 2), (4, 2), (6, 2)])
    def test_sampled_draws_match_gram_polynomial(self, m, n):
        # On the sweep's own draws, the determinant and trace from the
        # minors within 1e-13 of their terms' size of those read from
        # GramPolynomial's entries at every scale a sweep reads; and the
        # log damped weight from B, within 1e-13 relative, the weight of
        # the dense spectrum of B B^T with lambda_min = det / lambda_max.
        b, e = sample_channel_block(ChannelConfig(m, n, 0.5), 10.0, 6, count=3000)
        minors, grams = EstimateMinors(b, e), GramPolynomial(b, e)
        for c in (1.0, 0.3, 1e-4):
            det, trace, k = scaled_det_and_trace(minors, c)
            g = grams._evaluate(c)
            npt.assert_allclose(np.ldexp(trace, k), g[:n].sum(axis=0), rtol=1e-13)
            if n == 2:
                want = g[0] * g[1] - g[2] ** 2 - g[3] ** 2
                gap = np.abs(np.ldexp(det, 2 * k) - want)
                assert np.all(gap <= 1e-13 * g[0] * g[1]), c
        for t in (0.4, 0.9):
            npt.assert_allclose(
                np.exp(log_damped_weight(b, m, t)),
                np.exp(spectrum_log_weight(bidiagonal_spectrum(b, m), m, t)),
                rtol=1e-13)

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["h diagonal", "error real", "error imag"])
    def test_rejects_nonfinite(self, n, bad, where):
        # A NaN or infinite draw raises, as in GramPolynomial, rather than
        # reading as a weight that counts no outage.
        b, e = self._draws(n, 3, "generic", 1.0, 1.0, np.random.default_rng(9))
        entries = ([(2 * i, None) for i in range(n)] if where == "h diagonal"
                   else [(0, 0), (n - 1, 2)])
        for i, j in entries:
            bad_b, bad_e = b.copy(), e.copy()
            if where == "h diagonal":
                bad_b[i, 2] = bad
            else:
                bad_e[2, int(where == "error imag"), i, j] = bad
            with pytest.raises(ValueError, match="matrix entries must be finite"):
                EstimateMinors(bad_b, bad_e)

    @pytest.mark.parametrize("n", [1, 2])
    def test_rejects_entries_whose_squares_overflow(self, n):
        # Past about 1.3e154 an entry's square overflows: it is rejected
        # too.  Below it, the entry is accepted.
        b, e = self._draws(n, 3, "generic", 1.0, 1.0, np.random.default_rng(9))
        b[0, 1] = 1e154
        EstimateMinors(b, e)
        b[0, 1] = 1.4e154
        with pytest.raises(ValueError, match="matrix entries must be finite"):
            EstimateMinors(b, e)

    def test_rejects_three_rows_and_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            EstimateMinors(np.ones((5, 4)), np.ones((4, 2, 3, 3)))
        with pytest.raises(ValueError, match="shape"):
            EstimateMinors(np.ones((3, 4)), np.ones((4, 2, 3)))
        # The old dense (count, n, m) channel, and B's entries for another
        # row count or another batch.
        e = np.ones((4, 2, 2, 3))
        for b in (np.ones((4, 2, 3)), np.ones((1, 4)), np.ones((3, 5))):
            with pytest.raises(ValueError, match="shape"):
                EstimateMinors(b, e)


class TestLogDampedWeight:
    """The log damped weight a span reads once per trial, from ``B``'s
    entries alone, at three rows and more (one real ``eigvalsh`` of the
    tridiagonal ``B B^T``), and what holds at any row count.  One and two
    rows are checked against exact arithmetic in
    :class:`TestEstimateMinors`."""

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (5, 3), (4, 4), (6, 4),
                                     (5, 5), (6, 6)])
    @pytest.mark.parametrize("scale", [1e-50, 1.0, 1e50])
    def test_three_rows_and_more_match_spectrum_reference(self, m, n, scale):
        # Against the weight of the dense spectrum of B B^T formed by
        # matmul, with lambda_min = det / prod_{k>=2} lambda_k, on the
        # sweep's draws scaled across the domain.  Both take lambda_k from
        # an eigvalsh, within a few u of lambda_max, so the bound is 32 u
        # times t * sum_{k>=2} 2 (k - 1) lambda_max / lambda_k (the
        # eigenvalue errors) plus t * sum(c_k |log lambda_k|) (the logs'
        # rounding).
        b, _ = sample_channel_block(ChannelConfig(m, n, 0.5), 10.0, 8,
                                    count=4000, error=False)
        b = b * scale
        lam = bidiagonal_spectrum(b, m)
        c = eigen_decay_weights(m, n)
        for t in (0.4, 0.9):
            got = log_damped_weight(b, m, t)
            want = spectrum_log_weight(lam, m, t)
            size = t * ((c[1:] - c[0]) * lam[:, -1:] / lam[:, 1:]).sum(axis=1)
            size += t * (c * np.abs(np.log(lam))).sum(axis=1)
            assert np.all(np.abs(got - want) <= 32 * 2.0 ** -53 * size), t

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_three_rows_and_more_floor_eigenvalues(self, n):
        # An eigenvalue below the smallest normal float counts as that
        # float, also where eigvalsh reads it as a tiny negative number: a
        # zero B reads -t * sum(c_k) * log(tiny), and a B with d_n = 0, or
        # with d_1 = d_2 = 0, has a zero lambda_1, which the reference
        # floors too.  Each log weight is within 1e-11 of the reference's.
        m, t = n + 1, 0.9
        b = weight_draws(n, "generic", 1.0, np.random.default_rng(n), 5)
        b[:, 1] = 0.0
        b[2 * n - 2, 2] = 0.0
        b[[0, 2], 3] = 0.0
        got = log_damped_weight(b, m, t)
        c = eigen_decay_weights(m, n)
        log_tiny = math.log(np.finfo(float).tiny)
        npt.assert_allclose(got[1], -t * c.sum() * log_tiny, rtol=1e-15)
        lam = gram_spectrum(dense_channel(b, m))
        lam[[2, 3], 0] = 0.0
        keep = [0, 2, 3]
        npt.assert_allclose(got[keep], spectrum_log_weight(lam[keep], m, t),
                            rtol=0.0, atol=1e-11)

    def test_mixed_scale_batch_reads_each_trial_alone(self):
        # A two-row B with d1 = s1 = 1 and d2 = 1e-60 reads the same weight
        # beside trials with entries 1e60 and 1e-60 as alone, and that
        # weight is exact: -t (log 1e-120 + 2 log lambda_max), lambda_max =
        # 2 to within 1e-120.  Each trial's weight is its own, whatever its
        # batch.
        t = 0.9
        b = np.array([[1.0, 1e60, 1e-60], [1.0, 1e60, 1e-60],
                      [1e-60, 1e60, 1e-60]])
        got = log_damped_weight(b, 2, t)
        for i in range(3):
            assert got[i] == log_damped_weight(b[:, i:i + 1].copy(), 2, t)[0]
        npt.assert_allclose(got[0], -t * (math.log(1e-120) + 2 * math.log(2.0)),
                            rtol=1e-15)
        npt.assert_allclose(got, exact_b_log_weight(b, 2, t), rtol=1e-15)

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 3), (6, 6)])
    def test_batch_size_invariance(self, m, n):
        # A trial's weight must not depend on the size of the batch it is
        # drawn in, on the closed form's rows or on eigvalsh's.
        cfg = ChannelConfig(m, n, 0.5)
        whole, _ = sample_channel_block(cfg, 10.0, 4, count=40_000, error=False)
        got = np.concatenate([
            log_damped_weight(sample_channel_block(
                cfg, 10.0, 4, start=s, count=min(3000, 40_000 - s),
                error=False)[0], m, 0.9)
            for s in range(0, 40_000, 3000)])
        assert np.array_equal(got, log_damped_weight(whole, m, 0.9))

    @pytest.mark.parametrize("shape", [(4, 3), (3,), (2, 2, 3)])
    def test_rejects_other_shapes(self, shape):
        # An even row count, one trial's entries and a dense batch are not
        # B's 2n - 1 entries as rows of trials.
        with pytest.raises(ValueError, match="shape"):
            log_damped_weight(np.ones(shape), 3, 0.9)


def exact_capacity_det(h, e, c, power):
    """``det(I + P X X^H)`` of one ``X = h + c e``, with ``e`` as planes,
    in rational arithmetic, by Gaussian elimination of the Hermitian
    positive definite matrix without pivoting; each entry is a pair of
    real and imaginary parts."""
    c = Fraction(c)
    re = [[Fraction(float(a)) + c * Fraction(float(b)) for a, b in zip(*rows)]
          for rows in zip(h, e[0])]
    im = [[c * Fraction(float(b)) for b in row] for row in e[1]]
    p = Fraction(float(power))
    n = len(re)
    a = [[(int(i == k) + p * sum(xr * yr + xi * yi for xr, xi, yr, yi
                                 in zip(re[i], im[i], re[k], im[k])),
           p * sum(xi * yr - xr * yi for xr, xi, yr, yi
                   in zip(re[i], im[i], re[k], im[k])))
          for k in range(n)] for i in range(n)]
    det = Fraction(1)
    for col in range(n):
        pivot = a[col][col][0]
        det *= pivot
        for row in range(col + 1, n):
            r_re, r_im = a[row][col][0] / pivot, a[row][col][1] / pivot
            for k in range(col, n):
                x_re, x_im = a[col][k]
                a[row][k] = (a[row][k][0] - (r_re * x_re - r_im * x_im),
                             a[row][k][1] - (r_re * x_im + r_im * x_re))
    return det


class TestCapacityDet:
    """``det(I + P X X^H)`` with ``X = h + c e``, the determinant a damped
    sweep reads at each point: from :class:`EstimateMinors`' determinant
    and trace on one or two rows, and from an LDL^H of
    :class:`GramPolynomial`'s entries on more, against the exact
    determinant."""

    U = Fraction(1, 2 ** 53)

    @staticmethod
    def _draws(n, m, kind, c, scale, rng, count=4):
        b = np.abs(rng.normal(size=(2 * n - 1, count)))
        e = rng.normal(size=(count, 2, n, m))
        if kind == "rank1":
            # Only B's first column, and an error whose second row is its
            # first in B's proportion s1 / d1: X has rank 1.
            b[2:] = 0.0
            if n > 1:
                e[:, :, 1] = (b[1] / b[0])[:, None, None] * e[:, :, 0]
            e[:, :, 2:] = 0.0
        elif kind == "zero":
            b[:] = 0.0
            e[:] = 0.0
        elif kind == "cancel":
            # e near -h / c: X is tiny next to both terms.
            e *= 1e-6
            e[:, 0] -= dense_channel(b, m) / c
        return scale * b, scale * e

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
           extra=st.integers(0, 2),
           kind=st.sampled_from(["generic", "rank1", "zero", "cancel"]),
           c=st.sampled_from([1.0, 0.3, 1e-3]),
           scale=st.sampled_from([1e-100, 1e-10, 1.0, 1e10, 1e100]),
           log_ps=st.floats(-4.0, 8.0))
    @settings(max_examples=150, deadline=None)
    def test_matches_exact_determinant(self, seed, n, extra, kind, c, scale, log_ps):
        # Entries from 1e-100 to 1e100, and each trial's power P = weight *
        # scale set so that P S = 10 ** log_ps, with S = sum((|h| + c
        # |e|)**2) the size of X X^H's terms.  The determinant is within 4
        # n m u (1 + P S) of the exact one, relative, with u = 2**-53: what
        # the entries' rounding, about u S each, leaves after P and the
        # pivots.  On 6,000 random inputs of these kinds the error was at
        # most 0.24 of that bound (0.98 u (1 + P S) on one row, 10.3 on
        # 6x6).  A zero X reads 1.
        m = n + extra
        b, e = self._draws(n, m, kind, c, scale, np.random.default_rng(seed))
        h = dense_channel(b, m)
        size = np.square(np.abs(h) + c * np.hypot(e[:, 0], e[:, 1])).sum(axis=(1, 2))
        weight = 1.0 / np.where(size > 0.0, size, 1.0)
        power_scale = 10.0 ** log_ps
        reader = (EstimateMinors if n <= 2 else GramPolynomial)(b, e)
        got = reader.capacity_det(c, weight, power_scale, np.empty(4))
        for got_i, h_i, e_i, w_i, size_i in zip(got, h, e, weight, size):
            power = w_i * power_scale
            want = exact_capacity_det(h_i, e_i, c, power)
            bound = 4 * n * m * self.U * (1 + Fraction(float(power)) * Fraction(float(size_i)))
            assert abs(Fraction(float(got_i)) - want) <= bound * want, (got_i, want)

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (3, 3), (6, 5)])
    def test_past_the_largest_float_is_never_finite(self, m, n):
        # A power past the largest float, an infinite weight or a finite
        # one whose product with the scale overflows, reads inf or NaN,
        # never a finite determinant that a sweep could count as an outage;
        # the LDL^H meets inf - inf and inf / inf there.  Under the caller's
        # errstate it warns of nothing, and the other trials keep their
        # values.
        b, e = sample_channel_block(ChannelConfig(m, n, 0.5), 10.0, 2, count=6)
        weight = np.array([1.0, np.inf, 1e300, 1e308, 0.5, np.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            reader = (EstimateMinors if n <= 2 else GramPolynomial)(b, e)
            with np.errstate(over="ignore", invalid="ignore"):
                got = reader.capacity_det(0.3, weight, 1e10, np.empty(6))
            want = reader.capacity_det(0.3, np.ones(6), 1e10, np.empty(6))
        assert not np.isfinite(got[1:4]).any() and not np.isfinite(got[5])
        assert got[0] == want[0] and np.isfinite(got[4]) and got[4] >= 1.0


class TestRealChannel:
    """The sweep's channel is real bidiagonal, and :class:`GramPolynomial`
    reads only its diagonal and subdiagonal.  Its blocks, and so the Gram
    matrices its capacity determinants read, must equal the per-entry sums
    over every column of the complex-cast operands
    (:func:`per_entry_blocks`) up to the sign of an exact zero, which
    ``np.array_equal`` does not tell apart."""

    @staticmethod
    def _real_b(kind, n, m, rng):
        b = bidiagonal(rng.normal(size=(200, n, m)))
        if kind == "zero_diagonal":
            b[0::2] = 0.0
        elif kind == "zero":
            b[:, 50:150] = 0.0
        elif kind == "rank1":
            # B's first column alone.
            b[2:] = 0.0
        return b

    @staticmethod
    def _assert_matches(b, e, cs):
        grams = GramPolynomial(b, e)
        blocks = per_entry_blocks(dense_channel(b, e.shape[-1]), e)
        for name, want in zip(("_a", "_b", "_c"), blocks):
            assert np.array_equal(getattr(grams, name), want), name
        a, cross, c_block = blocks
        for c in cs:
            want = (c_block * c + cross) * c + a
            assert np.array_equal(grams._evaluate(c), want), c

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4),
           m=st.integers(1, 6),
           kind=st.sampled_from(["bidiagonal", "zero_diagonal", "zero", "rank1"]),
           scale=st.sampled_from([1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100]),
           cs=st.lists(st.sampled_from([0.0, 1.0, 0.3, 1e-3, 1e-12, 7.5]),
                       min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_blocks_and_spectra_match_complex_path(self, seed, n, m, kind, scale, cs):
        m = max(m, n)
        rng = np.random.default_rng(seed)
        b = scale * self._real_b(kind, n, m, rng)
        e = scale * rng.normal(size=(200, 2, n, m))
        self._assert_matches(b, e, cs)

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3),
                                     (4, 4), (6, 6)])
    def test_sampled_channel_matches_complex_path(self, m, n):
        b, e = sample_channel_block(ChannelConfig(m, n, 0.5), 10.0, 6, count=3000)
        assert b.dtype == np.float64
        self._assert_matches(b, e, (0.0, 1.0, 0.05))


class TestPerturbationBound:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
    def test_holds_on_sampled_draws(self, m, n):
        # The estimate is channel plus error, so its k-th ascending
        # eigenvalue is at most twice the channel's k-th plus the error's
        # largest.  A deterministic inequality: no sampled batch violates
        # it beyond a 1e-9 * max(1, largest estimate eigenvalue) allowance.
        for rho, alpha in [(10.0, 0.5), (100.0, 0.0), (1000.0, 1.0)]:
            cfg_a = ChannelConfig(m, n, alpha)
            b, e = sample_channel_block(cfg_a, rho=rho, seed=1900 + m, start=0, count=2000)
            h, e = dense_channel(b, m), complex_error(e)
            a = gram_spectrum(h)
            b = gram_spectrum(h + e)
            c = gram_spectrum(e)
            eps = 1e-9 * np.maximum(1.0, b[:, -1])
            assert np.all(b <= 2.0 * (a + c[:, -1:]) + eps[:, None])


class TestWishartLogNormConst:
    @pytest.mark.parametrize(
        "m,n,xi",
        [
            # xi = prod_{i=1}^{n} (m-i)! (n-i)!  (checked independently: direct factorial
            # evaluation: (1,1)->1, (2,1)->1, (2,2)->1, (3,2)->2, (3,3)->4,
            # (4,2)->12)
            (1, 1, 1.0),
            (2, 1, 1.0),
            (2, 2, 1.0),
            (3, 2, 2.0),
            (3, 3, 4.0),
            (4, 2, 12.0),
        ],
    )
    def test_hand_values(self, m, n, xi):
        npt.assert_allclose(wishart_log_norm_const(m, n), math.log(xi), atol=1e-12)

    def test_large_values_log_domain(self):
        # (30, 30) overflows factorials in double precision; the log-domain
        # result must match a direct lgamma accumulation.
        expected = sum(
            gammaln(30 - i + 1) + gammaln(30 - i + 1) for i in range(1, 31)
        )
        npt.assert_allclose(wishart_log_norm_const(30, 30), expected, rtol=1e-13)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            wishart_log_norm_const(2, 3)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2)])
    def test_monte_carlo_normalization(self, m, n):
        # The ordered-eigenvalue density is
        #   p(a) = xi^{-1} prod a_i^{m-n} * prod_{i<j}(a_j-a_i)^2 * exp(-sum a)
        # on the ascending cone.  Independent oracle: sample iid Exp(1)
        # variates and sort ascending; the sorted sample has density
        # n! exp(-sum a) on the cone, so the sample mean of the
        # non-exponential factor estimates n! * xi and must be divided by
        # n! to recover xi.  (checked independently: Monte Carlo integration from
        # independent exponentials; cross-checked against exact symbolic
        # cone integrals for (2,2) -> 1 and (3,2) -> 2)
        rng = np.random.default_rng(2024 + 10 * m + n)
        count = 1_000_000 if (m, n) == (2, 2) else 500_000
        a = np.sort(rng.exponential(size=(count, n)), axis=1)
        log_f = (m - n) * np.log(np.where(a > 0, a, 1.0)).sum(axis=1)
        for i in range(n):
            for j in range(i + 1, n):
                log_f += 2.0 * np.log(a[:, j] - a[:, i])
        est = np.exp(log_f).mean() / math.factorial(n)
        npt.assert_allclose(math.log(est), wishart_log_norm_const(m, n), atol=0.02)


class TestExponentOrderSupport:
    def test_error_eigenvalue_exponent_support(self):
        # Soft asymptotic check: the decay exponent -log(c)/log(rho) of the
        # error eigenvalue concentrates at or above alpha; allow a 0.15
        # finite-snr margin and a 5% failure rate at rho = 1e4.
        cfg = ChannelConfig(1, 1, 0.5)
        rho = 1e4
        _, e = sample_channel_block(cfg, rho=rho, seed=404, start=0, count=10_000)
        c = gram_spectrum(complex_error(e))[:, -1]
        exponent = -np.log(c) / np.log(rho)
        frac = np.mean(exponent > cfg.alpha - 0.15)
        assert frac >= 0.95

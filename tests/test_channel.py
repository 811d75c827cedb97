"""Tests for channel sampling, eigenvalue extraction, and the perturbation bound."""
import decimal
import itertools
import math
import warnings
from fractions import Fraction

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
    _log_damped_weight,
    bidiagonal_minor_sums,
    eigen_decay_weights,
    sample_channel_block,
    wishart_log_norm_const,
)
from reference import dense_channel, gram_spectrum


def complex_error(e):
    """The sampler's error planes as one complex array."""
    return e[:, 0] + 1j * e[:, 1]


def planes(x):
    """A complex batch as the real planes that ``GramPolynomial`` takes."""
    return np.stack((x.real, x.imag), axis=-3)


def error_spectrum(x):
    """Ascending spectrum of ``x @ x^H`` for a complex batch ``x``, through
    the package's per-entry Gram of generic complex matrices: the error
    block of a :class:`GramPolynomial` with a zero channel, read at ``c =
    1``."""
    zero = np.zeros((2 * x.shape[-2] - 1, len(x)))
    return GramPolynomial(zero, planes(x)).spectrum(1.0)


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
        # to 1.0, whose normal quantile is inf.  The generator returns it
        # here as trial 1's first error uniform: that entry must be finite,
        # and every other entry as drawn.
        cfg = ChannelConfig(m, n, 0.5)
        h_ref, e_ref = sample_channel_block(cfg, rho=10.0, seed=4, count=3)
        ticks_per_trial = -(-3 * n * m // 4)
        index = 4 * ticks_per_trial + n * m

        class LargestUniform(np.random.Generator):
            # Counts the uniforms drawn, which may come in several calls.
            drawn = 0

            def random(self, size=None, dtype=np.float64, out=None):
                u = super().random(size, dtype, out)
                flat = u.reshape(-1)
                if 0 <= index - self.drawn < flat.size:
                    flat[index - self.drawn] = 1.0 - 2.0 ** -53
                self.drawn += flat.size
                return u

        monkeypatch.setattr(np.random, "Generator", LargestUniform)
        h, e = sample_channel_block(cfg, rho=10.0, seed=4, count=3)
        assert np.isfinite(e).all()
        npt.assert_array_equal(h, h_ref)
        changed = e != e_ref
        assert changed.sum() == 1 and changed[1, 0, 0, 0]
        # ndtri(1 - 2**-53) is 8.21; the error's deviation is 10**-0.25.
        npt.assert_allclose(e[1, 0, 0, 0], 8.2095 * math.sqrt(0.5 * 10.0 ** -0.5),
                            rtol=1e-4)


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
    """Ascending Gram spectra of generic complex matrices.  The package
    forms such a Gram matrix only as :class:`GramPolynomial`'s error block,
    so each matrix is read as the error of a zero channel
    (:func:`error_spectrum`)."""

    def test_known_spectrum(self):
        # Rows scaled orthonormal: m m^H has eigenvalues {3, 1}.  (checked independently:
        # construct m = diag(sqrt(3), 1) V with V unitary; Gram = diag(3, 1).)
        v = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
        m = np.diag([math.sqrt(3.0), 1.0]) @ v[:2, :]
        vals = error_spectrum(m[np.newaxis] + 0j)[0]
        npt.assert_allclose(vals, [1.0, 3.0], atol=1e-12)

    def test_trace_and_det_identities(self):
        # Sum of eigenvalues = ||m||_F^2; product = det(m m^H).  (checked independently:
        # linear-algebra identities, evaluated with numpy on a fixed draw.)
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        vals = error_spectrum(m[np.newaxis])[0]
        npt.assert_allclose(vals.sum(), np.linalg.norm(m) ** 2, rtol=1e-12)
        gram = m @ m.conj().T
        npt.assert_allclose(np.prod(vals), np.linalg.det(gram).real, rtol=1e-10)

    def test_rank_deficient_clamped(self):
        # Rank-1 tall-times-wide product: one eigenvalue exactly 0 after clamping.
        col = np.array([[1.0 + 0j], [2.0 + 0j]])
        m = col @ np.array([[1.0 + 0j, 1.0, 1.0]])
        vals = error_spectrum(m[np.newaxis])[0]
        assert vals[0] >= 0.0
        npt.assert_allclose(vals[0], 0.0, atol=1e-12)
        npt.assert_allclose(vals[1], 15.0, rtol=1e-12)

    def test_batch_shape(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 2, 4)) + 1j * rng.normal(size=(6, 2, 4))
        vals = error_spectrum(m)
        assert vals.shape == (6, 2)
        single = error_spectrum(m[2:3])[0]
        npt.assert_allclose(vals[2], single, rtol=1e-12)

    def test_rejects_nonfinite(self):
        m = np.array([[[1.0 + 0j, np.nan], [0.0, 1.0]]])
        with pytest.raises(ValueError):
            error_spectrum(m)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
    def test_rejects_nonfinite_in_batch(self, n, bad):
        # One non-finite entry anywhere in a batch is rejected.
        x = np.ones((5, n, 3), dtype=complex)
        x[3, n - 1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            error_spectrum(x)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (1, 5), (2, 2), (2, 3),
                                     (2, 5), (3, 3), (3, 5), (4, 4)])
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_per_entry_gram_matches_matmul_gram(self, n, m, scale):
        # The Gram matrix summed entry by entry in real arithmetic, then
        # eigvalsh, against eigvalsh of the Gram matrix formed by matmul.
        # The batch mixes generic draws with a rank-1 input, orthogonal
        # rows of equal norm (equal eigenvalues) and the zero matrix.
        # Bound: 1e-13 * lambda_max, which is no looser than
        # 1e-13 * max(1, lambda_max) at any scale.
        rng = np.random.default_rng(100 * n + m)
        x = rng.normal(size=(400, n, m)) + 1j * rng.normal(size=(400, n, m))
        x[1, 1:] = (0.3 - 0.7j) * x[1, :1]
        if n >= 2:
            q = np.linalg.qr(x[2].T)[0]
            x[2] = 2.5 * q.T
        x[3] = 0.0
        x *= scale
        got = error_spectrum(x)
        want = gram_spectrum(x)
        assert got.shape == want.shape == (400, n)
        assert np.all(got >= 0.0)
        assert np.all(np.diff(got, axis=-1) >= 0.0)
        assert np.all(np.abs(got - want) <= 1e-13 * want[:, -1:])
        assert np.all(got[3] == 0.0)
        if n >= 2:
            npt.assert_allclose(got[1, :-1], 0.0, atol=1e-13 * got[1, -1])
            npt.assert_allclose(got[2], 6.25 * scale ** 2, rtol=1e-13)

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 5), (3, 3), (4, 4)])
    def test_layout_invariance(self, n, m):
        # The same planes stored C-ordered and trial-last must give the same
        # eigenvalues bit for bit; the sweep's draws are stored trial-last.
        rng = np.random.default_rng(10 * n + m)
        x = planes(rng.normal(size=(500, n, m)) + 1j * rng.normal(size=(500, n, m)))
        trial_last = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)),
                                 -1, 0)
        assert trial_last[:, 0, 0, 0].flags.c_contiguous
        zero = np.zeros((2 * n - 1, 500))
        c_ordered = GramPolynomial(zero, np.ascontiguousarray(x)).spectrum(1.0)
        assert np.array_equal(c_ordered, GramPolynomial(zero, trial_last).spectrum(1.0))

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 3)])
    def test_batch_size_invariance(self, m, n):
        # A trial's eigenvalues must not depend on the size of the batch it
        # is drawn in.  40,000 trials lie above the 256 KiB at which NumPy
        # may reuse a temporary as an output, which can change the loop a
        # complex product runs through; 3,000 lie below it.
        cfg = ChannelConfig(m, n, 0.5)
        whole = sample_channel_block(cfg, 10.0, 4, start=0, count=40_000)
        parts = [sample_channel_block(cfg, 10.0, 4, start=s,
                                      count=min(3000, 40_000 - s))
                 for s in range(0, 40_000, 3000)]
        got = np.concatenate([error_spectrum(dense_channel(b, m) + complex_error(e))
                              for b, e in parts])
        assert np.array_equal(got, error_spectrum(dense_channel(whole[0], m)
                                                  + complex_error(whole[1])))

    def test_equal_eigenvalues_stay_ascending(self):
        # Orthonormal row pairs have the double eigenvalue 1; rounding
        # must not return the pair out of order.
        rng = np.random.default_rng(8)
        z = rng.normal(size=(4000, 3, 3)) + 1j * rng.normal(size=(4000, 3, 3))
        x = np.swapaxes(np.linalg.qr(z)[0][..., :2], -1, -2)
        vals = error_spectrum(x)
        assert np.all(np.diff(vals, axis=-1) >= 0.0)
        npt.assert_allclose(vals, 1.0, rtol=1e-13)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sorted_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        if m < n:
            n, m = m, n
        x = rng.normal(size=(1, n, m)) + 1j * rng.normal(size=(1, n, m))
        vals = error_spectrum(x)
        assert vals.shape == (1, n)
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) >= 0.0)


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
    """The estimate spectra of an outage sweep, read from ``A + c (B + c C)``,
    against the spectrum of the estimate ``h + c e`` formed directly."""

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
        # Bidiagonal h against eigvalsh of the estimate's Gram matrix
        # formed by matmul.  Bound: 1e-13 * tr(A + c**2 C), the size of the
        # two terms whose sum is taken; a cancelling estimate can be far
        # smaller than that.
        rng = np.random.default_rng(10 * n + m)
        for c in (1.0, 1e-3, 1e-12):
            unit_h, unit_e = self._pairs(n, m, kind, c, rng)
            for scale in (1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100):
                h, e = scale * unit_h, scale * unit_e
                got = GramPolynomial(bidiagonal(h), planes(e)).spectrum(c)
                want = gram_spectrum(h + c * e)
                size = (np.sum(h ** 2, axis=(-2, -1))
                        + c * c * np.sum(np.abs(e) ** 2, axis=(-2, -1)))
                assert got.shape == want.shape == (300, n)
                assert np.all(got >= 0.0)
                assert np.all(np.diff(got, axis=-1) >= 0.0)
                gap = np.abs(got - want).max(axis=-1)
                assert np.all(gap <= 1e-13 * size), (c, scale)
                if kind == "zero":
                    assert np.all(got[200:] == 0.0)

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 1), (2, 2), (4, 2), (3, 3),
                                     (4, 4)])
    def test_zero_scale_is_channel_spectrum(self, m, n):
        # At c = 0 the quadratic is h h^H exactly: its spectrum is
        # eigvalsh's of the per-entry channel block bit for bit, on
        # trial-last draws, and within 1e-13 * lambda_max of the dense
        # reference.
        b, e = sample_channel_block(ChannelConfig(m, n, 0.5), 10.0, 2,
                                    count=3000)
        got = GramPolynomial(b, e).spectrum(0.0)
        h = dense_channel(b, m)
        a, _, _ = per_entry_blocks(h, e)
        assert np.array_equal(got, channel._gram_spectrum(a, n).T)
        want = gram_spectrum(h)
        assert np.all(np.abs(got - want) <= 1e-13 * want[:, -1:])

    @pytest.mark.parametrize("m,n", [(2, 1), (2, 2), (3, 3)])
    def test_batch_size_invariance(self, m, n):
        # A trial's estimate spectrum must not depend on the size of the
        # batch it is drawn in, as in TestEigAscending.
        cfg = ChannelConfig(m, n, 0.5)
        whole = sample_channel_block(cfg, 10.0, 4, start=0, count=40_000)
        parts = [sample_channel_block(cfg, 10.0, 4, start=s,
                                      count=min(3000, 40_000 - s))
                 for s in range(0, 40_000, 3000)]
        for c in (1.0, 0.3):
            got = np.concatenate([GramPolynomial(b, e).spectrum(c)
                                  for b, e in parts])
            assert np.array_equal(got, GramPolynomial(*whole).spectrum(c))

    def test_rank_deficient_clamped(self):
        # B's last column is zero, so h h^H = [[1, 2], [2, 4]] has the
        # eigenvalues {0, 5}; with error rows in proportion to h's rows,
        # h + c e has rank 1 too.  eigvalsh's tiny negative values are
        # clamped to zero.
        b = np.array([[1.0], [2.0], [0.0]])
        vals = GramPolynomial(b, np.zeros((1, 2, 2, 3))).spectrum(0.0)[0]
        assert vals[0] >= 0.0
        npt.assert_allclose(vals[0], 0.0, atol=1e-12)
        npt.assert_allclose(vals[1], 5.0, rtol=1e-12)
        rng = np.random.default_rng(3)
        for n, m in ((2, 3), (3, 4), (4, 4)):
            h, e = self._pairs(n, m, "rank1", 0.7, rng)
            got = GramPolynomial(bidiagonal(h), planes(e)).spectrum(0.7)
            assert np.all(got >= 0.0)
            assert np.all(got[:, :-1] <= 1e-13 * got[:, -1:])

    def test_equal_eigenvalues_stay_ascending(self):
        # Estimates with orthonormal rows have the eigenvalue 1 n times;
        # rounding must not return them out of order.
        rng = np.random.default_rng(8)
        for n, m in ((2, 3), (3, 3), (3, 5)):
            z = rng.normal(size=(4000, m, m)) + 1j * rng.normal(size=(4000, m, m))
            x = np.swapaxes(np.linalg.qr(z)[0][..., :n], -1, -2)
            b = bidiagonal(np.abs(rng.normal(size=(4000, n, m))))
            h = dense_channel(b, m)
            for c in (1.0, 0.5):
                vals = GramPolynomial(b, planes((x - h) / c)).spectrum(c)
                assert np.all(np.diff(vals, axis=-1) >= 0.0)
                npt.assert_allclose(vals, 1.0, rtol=1e-13)

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
        # The sweep reads seven spectra from the same instance; later
        # calls must leave earlier results alone.
        rng = np.random.default_rng(n)
        b = bidiagonal(rng.normal(size=(500, n, 4)))
        e = rng.normal(size=(500, 2, n, 4))
        grams = GramPolynomial(b, e)
        first = [grams.spectrum(c) for c in (0.0, 1.0)]
        kept = [x.copy() for x in first]
        for c in (0.5, 0.0, 2.0, 1e-3):
            grams.spectrum(c)
        for x, y in zip(first, kept):
            assert np.array_equal(x, y)


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


def log_weight_error_bound(h, e, c, w, t, top):
    """Bound on the error of ``EstimateMinors.log_damped_weight`` for one
    estimate, in a batch whose largest ``T0 + T2`` (sum of squared
    entries) is ``top``.

    It carries the determinant's 32 u and the trace's 16 u of their terms'
    size (:func:`estimate_sizes`), the bounds of
    ``test_matches_exact_determinant_and_trace``, into ``log det`` and into
    ``lambda_max = tr/2 + sqrt((tr/2)**2 - det)``, whose root term takes
    the smaller of its first-order and square-root bounds, and adds 8 u of
    the logs the reader sums, in the batch's scaled units.  Ratios are
    formed in rational or 60-digit arithmetic, so that no size underflows.
    """
    u = 2.0 ** -53
    det, _ = exact_estimate(h, e, c)
    det_size, tr_size = estimate_sizes(h, e, c)
    pair = exact_pair(h, e, c)
    # The batch's power-of-two scale, as a log: within a factor of 4 of
    # top's.
    log_scale = abs(math.log(top)) + math.log(4.0)
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        lam_max = pair[-1]
        ratio = float(decimal.Decimal(tr_size.numerator) / tr_size.denominator / lam_max)
        log_max = abs(float(lam_max.ln()))
        if len(pair) == 1:
            return t * w[0] * (16 * u * ratio + 8 * u * (log_max + log_scale))
        det_ratio = float(det_size / det)
        det_size = float(decimal.Decimal(det_size.numerator) / det_size.denominator
                         / (lam_max * lam_max))
        log_det = abs(float((decimal.Decimal(det.numerator) / det.denominator).ln()))
        root_sq = float(((1 - pair[0] / lam_max) / 2) ** 2)
    # Relative to lambda_max: tr/2's error, then (tr/2)**2 - det's.
    half_tr = 8 * u * ratio
    root_sq_err = 10 * u * ratio ** 2 + 32 * u * det_size
    root_err = math.sqrt(root_sq_err)
    if root_sq:
        root_err = min(root_err, root_sq_err / (2 * math.sqrt(root_sq)))
    max_err = half_tr + root_err + 2 * u
    return t * (w[0] * 32 * u * det_ratio + (w[1] - w[0]) * max_err
                + 8 * u * (w[0] * (log_det + 2 * log_scale)
                           + (w[1] - w[0]) * (log_max + log_scale)
                           + (w[0] + w[1]) * log_scale))


def scaled_det_and_lam_max(minors, c):
    """The estimate's Gram determinant and largest eigenvalue that
    ``EstimateMinors.log_damped_weight`` reads at scale ``c``, as new rows
    in the batch's scaled units, and the exponent ``k`` such that the
    determinant is ``2**(2k)`` and ``lambda_max`` ``2**k`` times them.  One
    row's eigenvalue is both, with ``k = 0``."""
    out = np.empty(minors._scratch.shape[1])
    if minors._n == 1:
        lam = minors._one_row(c, out)
        return lam, lam.copy(), 0
    lam_max = minors._det_and_lam_max(c, out).copy()
    return out, lam_max, minors._exponent


class TestEstimateMinors:
    """One- and two-row estimate determinants, largest eigenvalues and log
    damped weights from the determinant's minors and the trace, against
    exact rational arithmetic and against the dense spectrum of the
    estimate formed directly."""

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
        # The determinant that the weight reads lies within 32 u of its
        # terms' size of the exact determinant, and lambda_max + det /
        # lambda_max, formed exactly from the two, within 16 u of the
        # trace's size.  Every product is correctly rounded, so what
        # cancels loses only what the terms' size allows, the fold of the
        # pairs past B included.  The per-trial power-of-two scaling keeps
        # the quartic determinant in range from 1e-100 to 1e100.
        m = max(m, n)
        b, e = self._draws(n, m, kind, c, scale, np.random.default_rng(seed))
        got_det, got_max, k = scaled_det_and_lam_max(EstimateMinors(b, e), c)
        assert got_det.shape == got_max.shape == (4,)
        assert np.all(got_det >= 0.0) and np.all(got_max >= 0.0)
        for det_i, max_i, h_i, e_i in zip(got_det, got_max, dense_channel(b, m), e):
            det, tr = exact_estimate(h_i, e_i, c)
            det_size, tr_size = estimate_sizes(h_i, e_i, c)
            got = Fraction(float(det_i)) * Fraction(2) ** (2 * k)
            lam_max = Fraction(float(max_i)) * Fraction(2) ** k
            assert abs(got - det) <= 32 * self.U * det_size
            if n == 2:
                # A zero lambda_max has a zero determinant.
                lam_max += got / lam_max if lam_max else 0
            assert abs(lam_max - tr) <= 16 * self.U * tr_size

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2),
           m=st.integers(1, 6), c=st.sampled_from([1.0, 0.3, 1e-3]),
           scale=st.sampled_from([1e-100, 1e-10, 1.0, 1e10, 1e100]),
           t=st.sampled_from([0.3, 0.9]))
    @settings(max_examples=150, deadline=None)
    def test_log_weight_matches_formed_estimate(self, seed, n, m, c, scale, t):
        # On generic draws the log damped weight agrees with the one read
        # from the dense spectrum of h + c e within 32 u times t * sum(w) *
        # lambda_max / lambda_min (the eigenvalue errors) plus t * sum(w *
        # |log lambda|) (the logs' rounding); on 3,000 random inputs the
        # difference was at most 4.7 u of that.
        m = max(m, n)
        b, e = self._draws(n, m, "generic", c, scale, np.random.default_rng(seed), 8)
        want = gram_spectrum(dense_channel(b, m) + c * complex_error(e))
        got = EstimateMinors(b, e).log_damped_weight(c, t)
        w = eigen_decay_weights(m, n)
        size = t * (w.sum() * want[:, -1] / want[:, 0]
                    + (w * np.abs(np.log(want))).sum(axis=1))
        ref = _log_damped_weight(want.T.copy(), w, t)
        assert np.all(np.abs(got - ref) <= 32 * 2.0 ** -53 * size)

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2),
           m=st.integers(1, 6),
           kind=st.sampled_from(["generic", "cancel", "rank1"]),
           log_c=st.floats(-8.0, math.log10(7.5)),
           log_scale=st.floats(-100.0, 100.0),
           t=st.sampled_from([0.3, 0.9]))
    @settings(max_examples=200, deadline=None)
    def test_log_weight_matches_exact(self, seed, n, m, kind, log_c, log_scale, t):
        # The weight a span reads, from the determinant and lambda_max,
        # against the 60-digit weight of the exact determinant and trace,
        # within log_weight_error_bound: the determinant's and the trace's
        # error bounds carried through the logs and the closed form.  On
        # 3,000 random inputs of these kinds the error was at most 0.17 of
        # that bound.
        m = max(m, n)
        c = 10.0 ** log_c
        b, e = self._draws(n, m, kind, c, 10.0 ** log_scale,
                           np.random.default_rng(seed))
        w = eigen_decay_weights(m, n)
        got = EstimateMinors(b, e).log_damped_weight(c, t)
        top = float((np.square(b).sum(axis=0)
                     + np.square(e).sum(axis=(1, 2, 3))).max())
        for got_i, h_i, e_i in zip(got, dense_channel(b, m), e):
            want = exact_log_weight(h_i, e_i, c, w, t)
            bound = log_weight_error_bound(h_i, e_i, c, w, t, top)
            assert abs(got_i - want) <= bound, (got_i, want, bound)

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_nearly_rank_one_weight_is_exact(self, m):
        # A nearly rank-1 estimate: its small eigenvalue is about 1e-12 of
        # its large one.  The weight from the minors is within 1e-13 of the
        # exact weight; eigvalsh of the Gram matrix's entries misses it by
        # far more.
        w, t, c = eigen_decay_weights(m, 2), 0.9, 0.3
        b, e = self._draws(2, m, "rank1", c, 1.0, np.random.default_rng(m), 40)
        exact = np.array([exact_log_weight(h_i, e_i, c, w, t)
                          for h_i, e_i in zip(dense_channel(b, m), e)])
        minors = EstimateMinors(b, e).log_damped_weight(c, t)
        grams = GramPolynomial(b, e).log_damped_weight(c, t)
        assert np.abs(minors - exact).max() <= 1e-13
        assert np.abs(grams - exact).max() > 1e3 * np.abs(minors - exact).max()

    def test_zero_estimate_has_zero_spectrum(self):
        # A zero trace gives a zero determinant and lambda_max, not NaN.
        b, e = np.zeros((3, 3)), np.zeros((3, 2, 2, 4))
        det, lam_max, _ = scaled_det_and_lam_max(EstimateMinors(b, e), 0.7)
        assert np.array_equal(det, np.zeros(3))
        assert np.array_equal(lam_max, np.zeros(3))

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_weight_floors_eigenvalues_below_the_smallest_normal(self, n, scale):
        # An eigenvalue below the smallest normal float counts as that
        # float, as in _log_damped_weight, wherever the batch's scaling
        # puts it: a zero estimate, an exactly rank-1 one (on two rows) and
        # one whose small eigenvalue is about 1e-320, beside a generic
        # estimate, which the floor leaves as it is.
        c, t = 0.3, 0.9
        b, e = self._draws(n, 3, "generic", c, 1.0, np.random.default_rng(5))
        b[:, 1], e[1] = 0.0, 0.0
        e[2:] = 0.0
        # d_n of trials 2 and 3.
        b[2 * n - 2, 2] = 0.0
        b, e = scale * b, scale * e
        b[2 * n - 2, 3] = 1e-160
        w = eigen_decay_weights(3, n)
        got = EstimateMinors(b, e).log_damped_weight(c, t)
        want = [exact_log_weight(h_i, e_i, c, w, t)
                for h_i, e_i in zip(dense_channel(b, 3), e)]
        npt.assert_allclose(got, want, rtol=1e-14)

    @pytest.mark.parametrize("m,n", [(1, 1), (3, 1), (2, 2), (4, 2), (6, 2)])
    def test_sampled_draws_match_gram_polynomial(self, m, n):
        # On the sweep's own draws, lambda_max and det / lambda_max within
        # 1e-13 * lambda_max of eigvalsh of the Gram matrix's entries at
        # every scale a sweep reads.  The log weight a span reads from the
        # determinant and lambda_max is, within 1e-13 relative, the weight
        # of that pair.
        b, e = sample_channel_block(ChannelConfig(m, n, 0.5), 10.0, 6, count=3000)
        minors, grams = EstimateMinors(b, e), GramPolynomial(b, e)
        w = eigen_decay_weights(m, n)
        for c in (1.0, 0.3, 1e-4):
            det, lam_max, k = scaled_det_and_lam_max(minors, c)
            pair = [np.ldexp(lam_max, k)]
            if n == 2:
                pair.insert(0, np.ldexp(det / lam_max, k))
            pair = np.stack(pair)
            want = grams.spectrum(c)
            assert np.all(np.abs(pair.T - want) <= 1e-13 * want[:, -1:]), c
            for t in (0.4, 0.9):
                npt.assert_allclose(np.exp(minors.log_damped_weight(c, t)),
                                    np.exp(_log_damped_weight(pair.copy(), w, t)),
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
    reads only its diagonal and subdiagonal.  Its blocks, and so its
    spectra, must equal the per-entry sums over every column of the
    complex-cast operands (:func:`per_entry_blocks`) up to the sign of an
    exact zero, which ``np.array_equal`` does not tell apart."""

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
            gram = (c_block * c + cross) * c + a
            want = channel._gram_spectrum(gram, e.shape[-2]).T
            assert np.array_equal(grams.spectrum(c), want), c

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

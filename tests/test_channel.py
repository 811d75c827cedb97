"""Tests for channel sampling, eigenvalue extraction, and the perturbation bound."""
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st
from scipy import stats
from scipy.special import gammaln

from mimo_dmt import channel
from mimo_dmt.channel import (
    ChannelConfig,
    GramPolynomial,
    eig_ascending,
    sample_channel_block,
    wishart_log_norm_const,
)


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
        npt.assert_allclose(np.mean(np.abs(e) ** 2), 0.01, rtol=0.01)

    def test_alpha_zero_unit_error_variance(self):
        # 80,000 entries: a relative standard error of 0.35%.
        cfg = ChannelConfig(2, 2, 0.0)
        _, e = sample_channel_block(cfg, rho=1000.0, seed=0, count=20_000)
        npt.assert_allclose(np.mean(np.abs(e) ** 2), 1.0, rtol=0.02)

    def test_shapes(self):
        cfg = ChannelConfig(4, 2, 0.3)
        h, e = sample_channel_block(cfg, rho=10.0, seed=5, count=1)
        assert h.shape == (1, 2, 4)
        assert e.shape == (1, 2, 4)
        assert h.dtype == np.float64
        assert e.dtype == np.complex128

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
            for stream in (0, 1, 2):
                got = channel._bit_generator(seed, stream).random_raw(8)
                want = np.random.Philox(key=[seed, stream]).random_raw(8)
                npt.assert_array_equal(got, want)

    @pytest.mark.parametrize("seed", [-1, 2 ** 64, 2 ** 65 - 1])
    def test_seed_outside_64_bits_rejected(self, seed):
        # -1 once aliased 2**64 - 1 (and 2**65 - 1) after a warning of an
        # invalid cast.
        cfg = ChannelConfig(2, 2, 0.5)
        with pytest.raises(ValueError, match="seed must lie in"):
            sample_channel_block(cfg, rho=50.0, seed=seed, count=1)
        with pytest.raises(ValueError, match="seed must lie in"):
            channel._bit_generator(seed, 1)

    # Links whose 3*n*m uniforms per trial fill whole Philox ticks (2x2)
    # or leave padding (1x1, 2x1, 3x2, 3x3), and 20x2, whose Gamma(20)
    # entry is drawn as two products of uniforms.
    LINKS = [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (20, 2)]

    @staticmethod
    def _bidiagonal(m, n):
        """``(row, column, gamma shape)`` of each nonzero entry of [B 0].
        (checked independently: Dumitriu & Edelman 2002, Theorem 3.1 at
        beta = 2, where chi_{2k}**2 / 2 is Gamma(k))"""
        entries = [(i, i, m - i) for i in range(n)]
        entries += [(i + 1, i, n - i - 1) for i in range(n - 1)]
        return entries

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (4, 3), (20, 2)])
    def test_bidiagonal_entries_are_gamma(self, m, n):
        # Each squared diagonal entry B_ii**2 is Gamma(m - i + 1) and each
        # squared subdiagonal entry B_{i+1,i}**2 is Gamma(n - i), 1-based.
        # A fixed seed makes each KS p-value one fixed number.  A shape off
        # by one reads p < 1e-100 at 20,000 draws.
        h, _ = sample_channel_block(ChannelConfig(m, n, 0.5), rho=10.0, seed=31,
                                    count=20_000)
        for i, j, shape in self._bidiagonal(m, n):
            b_sq = h.real[:, i, j] ** 2
            assert stats.kstest(b_sq, stats.gamma(shape).cdf).pvalue > 1e-3, (i, j)

    def test_long_products_do_not_underflow(self):
        # 20x2's Gamma(20) entry passes the 18 uniforms whose product is
        # sure to stay a normal float, but a product of k uniforms reaches
        # zero only around k = 745.  On 1000x1 every plain product would
        # underflow; the entry must still be sqrt of a Gamma(1000) draw.
        h, _ = sample_channel_block(ChannelConfig(1000, 1, 0.5), rho=10.0, seed=5,
                                    count=2_000)
        b_sq = h.real[:, 0, 0] ** 2
        assert np.isfinite(b_sq).all()
        assert stats.kstest(b_sq, stats.gamma(1000).cdf).pvalue > 1e-3

    @pytest.mark.parametrize("m,n", LINKS)
    def test_channel_zero_off_bidiagonal(self, m, n):
        h, _ = sample_channel_block(ChannelConfig(m, n, 0.5), rho=10.0, seed=8,
                                    count=5_000)
        assert not h.imag.any()
        off = np.ones((n, m), dtype=bool)
        for i, j, _ in self._bidiagonal(m, n):
            off[i, j] = False
        assert not h[:, off].any()
        assert (h.real[:, ~off] > 0.0).all()

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
        h, e = sample_channel_block(cfg, rho=4.0, seed=12, count=count)
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
        e = e.reshape(-1)
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
        npt.assert_array_equal(whole[0], np.concatenate([h for h, _ in parts]))
        npt.assert_array_equal(whole[1], np.concatenate([e for _, e in parts]))
        assert np.isfinite(whole[0]).all()

    @pytest.mark.parametrize("m,n", LINKS)
    def test_single_draw_matches_block_row(self, m, n):
        cfg = ChannelConfig(m, n, 0.5)
        h, e = sample_channel_block(cfg, rho=10.0, seed=3, start=0, count=4)
        h_one, e_one = sample_channel_block(cfg, rho=10.0, seed=3, start=2, count=1)
        npt.assert_array_equal(h_one[0], h[2])
        npt.assert_array_equal(e_one[0], e[2])

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


class TestEigAscending:
    def test_known_spectrum(self):
        # Rows scaled orthonormal: m m^H has eigenvalues {3, 1}.  (checked independently:
        # construct m = diag(sqrt(3), 1) V with V unitary; Gram = diag(3, 1).)
        v = np.linalg.qr(np.arange(9.0).reshape(3, 3) + np.eye(3))[0]
        m = np.diag([math.sqrt(3.0), 1.0]) @ v[:2, :]
        vals = eig_ascending(m)
        npt.assert_allclose(vals, [1.0, 3.0], atol=1e-12)

    def test_trace_and_det_identities(self):
        # Sum of eigenvalues = ||m||_F^2; product = det(m m^H).  (checked independently:
        # linear-algebra identities, evaluated with numpy on a fixed draw.)
        rng = np.random.default_rng(11)
        m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
        vals = eig_ascending(m)
        npt.assert_allclose(vals.sum(), np.linalg.norm(m) ** 2, rtol=1e-12)
        gram = m @ m.conj().T
        npt.assert_allclose(np.prod(vals), np.linalg.det(gram).real, rtol=1e-10)

    def test_rank_deficient_clamped(self):
        # Rank-1 tall-times-wide product: one eigenvalue exactly 0 after clamping.
        col = np.array([[1.0 + 0j], [2.0 + 0j]])
        m = col @ np.array([[1.0 + 0j, 1.0, 1.0]])
        vals = eig_ascending(m)
        assert vals[0] >= 0.0
        npt.assert_allclose(vals[0], 0.0, atol=1e-12)
        npt.assert_allclose(vals[1], 15.0, rtol=1e-12)

    def test_batch_shape(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(6, 2, 4)) + 1j * rng.normal(size=(6, 2, 4))
        vals = eig_ascending(m)
        assert vals.shape == (6, 2)
        single = eig_ascending(m[2])
        npt.assert_allclose(vals[2], single, rtol=1e-12)

    def test_rejects_nonfinite(self):
        m = np.array([[1.0 + 0j, np.nan], [0.0, 1.0]])
        with pytest.raises(ValueError):
            eig_ascending(m)

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1j * np.inf])
    def test_rejects_nonfinite_in_batch(self, n, bad):
        # Every branch rejects one non-finite entry anywhere in a batch.
        x = np.ones((5, n, 3), dtype=complex)
        x[3, n - 1, 2] = bad
        with pytest.raises(ValueError, match="finite"):
            eig_ascending(x)

    @staticmethod
    def _eigvalsh_reference(x):
        gram = x @ np.conj(np.swapaxes(x, -1, -2))
        return np.clip(np.linalg.eigvalsh(gram), 0.0, None)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 3), (1, 5), (2, 2), (2, 3),
                                     (2, 5)])
    @pytest.mark.parametrize("scale", [1e-100, 1.0, 1e100])
    def test_closed_form_matches_eigvalsh(self, n, m, scale):
        # One- and two-row inputs take a closed form; eigvalsh on the Gram
        # matrix is the reference.  The batch mixes generic draws with a
        # rank-1 input, orthogonal rows of equal norm (equal eigenvalues)
        # and the zero matrix.  Bound: 1e-13 * lambda_max, which is no
        # looser than 1e-13 * max(1, lambda_max) at any scale.
        rng = np.random.default_rng(100 * n + m)
        x = rng.normal(size=(400, n, m)) + 1j * rng.normal(size=(400, n, m))
        x[1, -1] = (0.3 - 0.7j) * x[1, 0]
        if n == 2:
            q = np.linalg.qr(x[2].T)[0]
            x[2] = 2.5 * q.T
        x[3] = 0.0
        x *= scale
        got = eig_ascending(x)
        want = self._eigvalsh_reference(x)
        assert got.shape == want.shape == (400, n)
        assert np.all(got >= 0.0)
        assert np.all(np.diff(got, axis=-1) >= 0.0)
        assert np.all(np.abs(got - want) <= 1e-13 * want[:, -1:])
        assert np.all(got[3] == 0.0)
        if n == 2:
            npt.assert_allclose(got[1, 0], 0.0, atol=1e-13 * got[1, 1])
            npt.assert_allclose(got[2], 6.25 * scale ** 2, rtol=1e-13)

    @pytest.mark.parametrize("n,m", [(1, 3), (2, 2), (2, 5), (3, 3), (4, 4)])
    def test_layout_invariance(self, n, m):
        # The same batch stored C-ordered and trial-last must give the same
        # eigenvalues bit for bit; the sweep's draws are stored trial-last.
        rng = np.random.default_rng(10 * n + m)
        x = rng.normal(size=(500, n, m)) + 1j * rng.normal(size=(500, n, m))
        trial_last = np.moveaxis(np.ascontiguousarray(np.moveaxis(x, 0, -1)),
                                 -1, 0)
        assert trial_last[:, 0, 0].flags.c_contiguous
        c_ordered = eig_ascending(np.ascontiguousarray(x))
        assert np.array_equal(c_ordered, eig_ascending(trial_last))

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
        got = np.concatenate([eig_ascending(h + e) for h, e in parts])
        assert np.array_equal(got, eig_ascending(whole[0] + whole[1]))

    def test_equal_eigenvalues_stay_ascending(self):
        # Orthonormal row pairs have the double eigenvalue 1; the closed
        # form's rounding must not return the pair out of order.
        rng = np.random.default_rng(8)
        z = rng.normal(size=(4000, 3, 3)) + 1j * rng.normal(size=(4000, 3, 3))
        x = np.swapaxes(np.linalg.qr(z)[0][..., :2], -1, -2)
        vals = eig_ascending(x)
        assert np.all(np.diff(vals, axis=-1) >= 0.0)
        npt.assert_allclose(vals, 1.0, rtol=1e-13)

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_sorted_nonnegative(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        if m < n:
            n, m = m, n
        x = rng.normal(size=(n, m)) + 1j * rng.normal(size=(n, m))
        vals = eig_ascending(x)
        assert vals.shape == (n,)
        assert np.all(vals >= 0.0)
        assert np.all(np.diff(vals) >= 0.0)


class TestGramPolynomial:
    """The estimate spectra of an outage sweep, read from ``A + c (B + c C)``,
    against the spectrum of the estimate ``h + c e`` formed directly."""

    @staticmethod
    def _pairs(n, m, kind, c, rng):
        shape = (300, n, m)
        h = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        e = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        if kind == "rank1":
            # Proportional rows in h and e alike: h + c e has rank 1.
            h[:, 1:] = (0.3 - 0.7j) * h[:, :1]
            e[:, 1:] = (0.3 - 0.7j) * e[:, :1]
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
    @pytest.mark.parametrize("kind", ["gaussian", "rank1", "zero", "cancel"])
    def test_matches_formed_estimate(self, n, m, kind):
        # Bound: 1e-13 * tr(A + c**2 C), the size of the two terms whose
        # sum is taken; a cancelling estimate can be far smaller than that.
        rng = np.random.default_rng(10 * n + m)
        for c in (1.0, 1e-3, 1e-12):
            unit_h, unit_e = self._pairs(n, m, kind, c, rng)
            for scale in (1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100):
                h, e = scale * unit_h, scale * unit_e
                got = GramPolynomial(h, e).spectrum(c)
                want = eig_ascending(h + c * e)
                size = (np.sum(np.abs(h) ** 2, axis=(-2, -1))
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
        # At c = 0 the quadratic is h h^H exactly: the sweep's channel
        # spectrum equals eig_ascending's bit for bit, on trial-last draws.
        h, e = sample_channel_block(ChannelConfig(m, n, 0.5), 10.0, 2,
                                    count=3000)
        got = GramPolynomial(h, e).spectrum(0.0)
        assert np.array_equal(got, eig_ascending(h))

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
            got = np.concatenate([GramPolynomial(h, e).spectrum(c)
                                  for h, e in parts])
            assert np.array_equal(got, GramPolynomial(*whole).spectrum(c))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rejects_nonfinite(self, n):
        h = np.ones((5, n, 3), dtype=complex)
        e = h.copy()
        e[2, n - 1, 1] = np.nan
        with pytest.raises(ValueError, match="finite"):
            GramPolynomial(h, e)
        with pytest.raises(ValueError, match="finite"):
            GramPolynomial(e, h)

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError, match="shape"):
            GramPolynomial(np.ones((4, 2, 3)), np.ones((4, 2, 2)))


class TestRealChannel:
    """The sweep's channel is real.  For one and two rows the blocks skip
    its zero imaginary part, which may change the sign of an exact zero
    and nothing else: every block and spectrum equals the complex path's."""

    @staticmethod
    def _real_h(kind, n, m, rng):
        h = rng.normal(size=(200, n, m))
        if kind == "bidiagonal":
            h = np.abs(h) * np.tri(n, m)
            h[:, 1:, 1:] *= np.eye(n - 1, m - 1)
        elif kind == "zero":
            h[50:150] = 0.0
        elif kind == "rank1":
            h[:, 1:] = -0.6 * h[:, :1]
        return h

    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 2),
           m=st.integers(1, 6),
           kind=st.sampled_from(["bidiagonal", "dense", "zero", "rank1"]),
           scale=st.sampled_from([1e-100, 1e-50, 1e-10, 1.0, 1e10, 1e50, 1e100]),
           cs=st.lists(st.sampled_from([0.0, 1.0, 0.3, 1e-3, 1e-12, 7.5]),
                       min_size=1, max_size=4))
    @settings(max_examples=60, deadline=None)
    def test_blocks_and_spectra_match_complex_path(self, seed, n, m, kind, scale, cs):
        m = max(m, n)
        rng = np.random.default_rng(seed)
        h = scale * self._real_h(kind, n, m, rng)
        e = scale * (rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))
        real, cplx = GramPolynomial(h, e), GramPolynomial(h.astype(complex), e)
        for block in ("_a", "_b", "_c"):
            assert np.array_equal(getattr(real, block), getattr(cplx, block)), block
        for c in cs:
            assert np.array_equal(real.spectrum(c), cplx.spectrum(c)), c

    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (3, 3), (4, 3)])
    def test_sampled_channel_matches_complex_path(self, m, n):
        h, e = sample_channel_block(ChannelConfig(m, n, 0.5), 10.0, 6, count=3000)
        assert h.dtype == np.float64
        real, cplx = GramPolynomial(h, e), GramPolynomial(h.astype(complex), e)
        for c in (0.0, 1.0, 0.05):
            assert np.array_equal(real.spectrum(c), cplx.spectrum(c)), c


def reference_two_row_spectrum(g11, g22, g_re, g_im):
    """The out-of-place two-row closed form that the in-place kernel
    replaced, kept as the kernel's reference."""
    g11 = np.maximum(g11, 0.0)
    g22 = np.maximum(g22, 0.0)
    tr = g11 + g22
    scale = np.where(tr > 0.0, tr, 1.0)
    a = g11 / scale
    c = g22 / scale
    o_sq = (np.clip(g_re / scale, -0.5, 0.5) ** 2
            + np.clip(g_im / scale, -0.5, 0.5) ** 2)
    d = a - c
    half = 0.5 * (1.0 + np.sqrt(d * d + 4.0 * o_sq))
    det = np.maximum(a * c - o_sq, 0.0)
    lam_max = tr * half
    lam_min = np.minimum(scale * (det / half), lam_max)
    return lam_min, lam_max


class TestTwoRowKernel:
    """The in-place two-row kernel computes what the out-of-place closed
    form did, bit for bit, on the Gram matrices it is given."""

    @staticmethod
    def _spy(monkeypatch):
        # Record each input to the kernel, which overwrites it.
        seen = []
        kernel = channel._two_row_spectrum

        def spy(g):
            seen.append(g.copy())
            return kernel(g)

        monkeypatch.setattr(channel, "_two_row_spectrum", spy)
        return seen

    @pytest.mark.parametrize("kind", ["gaussian", "rank1", "zero", "cancel", "equal"])
    @pytest.mark.parametrize("scale", [1e-100, 1e-10, 1.0, 1e10, 1e100])
    def test_matches_reference_on_gram_polynomials(self, kind, scale, monkeypatch):
        seen = self._spy(monkeypatch)
        rng = np.random.default_rng(7)
        for c in (1.0, 1e-3, 1e-12):
            if kind == "equal":
                # Orthonormal rows: the double eigenvalue of h h^H, and of
                # the estimate's as c goes to zero.
                z = rng.normal(size=(300, 3, 3)) + 1j * rng.normal(size=(300, 3, 3))
                h = np.swapaxes(np.linalg.qr(z)[0][..., :2], -1, -2)
                e = 1e-9 * (rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape))
            else:
                h, e = TestGramPolynomial._pairs(2, 3, kind, c, rng)
            grams = GramPolynomial(scale * h, scale * e)
            results = [grams.spectrum(c), grams.spectrum(0.0),
                       eig_ascending(scale * h), eig_ascending(scale * (h + c * e))]
            for got, g in zip(results, seen[-4:]):
                want = np.stack(reference_two_row_spectrum(*g), axis=-1)
                assert np.array_equal(got, want), (c, kind)
        assert len(seen) == 12

    @given(st.integers(min_value=0, max_value=2 ** 32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_on_any_rows(self, seed):
        # Rows no Gram matrix has: negative diagonals, off-diagonal parts
        # far past the bound the kernel clips to, exact zeros and traces of
        # zero, at mixed scales from 1e-150 to 1e150.
        rng = np.random.default_rng(seed)
        g = rng.normal(size=(4, 500)) * 10.0 ** rng.integers(-150, 150, size=(4, 500))
        g[:, rng.random(500) < 0.1] = 0.0
        g[0, :20] = -g[1, :20]
        g[rng.random((4, 500)) < 0.1] = 0.0
        want = np.stack(reference_two_row_spectrum(*g))
        assert np.array_equal(channel._two_row_spectrum(g.copy()), want)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_results_do_not_alias_scratch(self, n):
        # The sweep keeps the channel spectrum while it reads seven more
        # from the same instance; eig_ascending must leave its input and
        # earlier results alone too.
        rng = np.random.default_rng(n)
        h = rng.normal(size=(500, n, 4))
        e = rng.normal(size=h.shape) + 1j * rng.normal(size=h.shape)
        grams = GramPolynomial(h, e)
        first = [grams.spectrum(c) for c in (0.0, 1.0)]
        kept = [x.copy() for x in first]
        for c in (0.5, 0.0, 2.0, 1e-3):
            grams.spectrum(c)
        for x, y in zip(first, kept):
            assert np.array_equal(x, y)
        x = h + e
        x_kept = x.copy()
        vals = eig_ascending(x)
        vals_kept = vals.copy()
        eig_ascending(x)
        eig_ascending(e)
        assert np.array_equal(x, x_kept)
        assert np.array_equal(vals, vals_kept)


class TestPerturbationBound:
    @pytest.mark.parametrize("m,n", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
    def test_holds_on_sampled_draws(self, m, n):
        # The estimate is channel plus error, so its k-th ascending
        # eigenvalue is at most twice the channel's k-th plus the error's
        # largest.  A deterministic inequality: no sampled batch violates
        # it beyond a 1e-9 * max(1, largest estimate eigenvalue) allowance.
        for rho, alpha in [(10.0, 0.5), (100.0, 0.0), (1000.0, 1.0)]:
            cfg_a = ChannelConfig(m, n, alpha)
            h, e = sample_channel_block(cfg_a, rho=rho, seed=1900 + m, start=0, count=2000)
            a = eig_ascending(h)
            b = eig_ascending(h + e)
            c = eig_ascending(e)
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
        c = eig_ascending(e)[:, -1]
        exponent = -np.log(c) / np.log(rho)
        frac = np.mean(exponent > cfg.alpha - 0.15)
        assert frac >= 0.95

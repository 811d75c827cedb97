"""Tests for the closed-form diversity-multiplexing tradeoff construction."""
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings, strategies as st

from mimo_dmt.channel import ChannelConfig
from mimo_dmt.tradeoff import (
    active_indices,
    baseline_no_csit,
    baseline_rate_adaptation,
    candidate_indices,
    compute_dmt_curve,
    diversity_boost,
    eval_dmt,
    eval_dmt_jump,
    subset_diversity,
)

INF = math.inf


class TestDiversityBoost:
    def test_k_zero_is_one(self):
        # Convention: boost factor 1 for the empty outage subset.  (immediate)
        assert diversity_boost(ChannelConfig(3, 2, 0.7), 0) == 1.0

    @pytest.mark.parametrize(
        "m,n,alpha,k,expected",
        [
            # 1 + k*alpha*(M-N+k).  (checked independently: direct arithmetic)
            (2, 2, 0.5, 2, 3.0),
            (2, 2, 0.5, 1, 1.5),
            (4, 2, 0.1, 1, 1.3),
            (4, 2, 0.1, 2, 1.8),
            (3, 3, 1.0 / 3.0, 1, 4.0 / 3.0),
            (3, 3, 1.0 / 3.0, 2, 7.0 / 3.0),
            (3, 3, 1.0 / 3.0, 3, 4.0),
        ],
    )
    def test_hand_values(self, m, n, alpha, k, expected):
        npt.assert_allclose(diversity_boost(ChannelConfig(m, n, alpha), k), expected, rtol=1e-15)

    def test_out_of_range_k(self):
        cfg = ChannelConfig(2, 2, 0.5)
        with pytest.raises(ValueError):
            diversity_boost(cfg, 3)
        with pytest.raises(ValueError):
            diversity_boost(cfg, -1)


class TestCandidateIndices:
    @pytest.mark.parametrize(
        "m,n,alpha,expected",
        [
            # Subset k is a candidate iff alpha*(M-N+k)*(N-k) < 1.
            (2, 2, 0.5, {1, 2}),
            (2, 2, 1.0, {2}),          # k=1: 1.0*1*1 = 1, excluded (strict)
            (5, 3, 0.1, {1, 2, 3}),
            (5, 3, 0.2, {2, 3}),       # (checked independently: k=1 has 0.2*3*2=1.2)
            (5, 3, 0.3, {3}),
            (3, 3, 0.5, {3}),          # k=1,2 both hit exactly 1.0
            (4, 2, 0.0, {1, 2}),       # alpha=0: every product < 1
            (4, 1, 2.0, {1}),
        ],
    )
    def test_membership(self, m, n, alpha, expected):
        assert set(candidate_indices(ChannelConfig(m, n, alpha))) == expected

    def test_always_contains_full_subset(self):
        for m, n, alpha in [(2, 2, 5.0), (4, 3, 1.7), (1, 1, 0.0)]:
            assert n in candidate_indices(ChannelConfig(m, n, alpha))


class TestActiveIndices:
    def test_two_by_two(self):
        active, pred = active_indices(ChannelConfig(2, 2, 0.5))
        assert set(active) == {1, 2}
        assert pred == {1: 0, 2: 1}

    def test_three_by_three(self):
        active, pred = active_indices(ChannelConfig(3, 3, 1.0 / 3.0))
        assert set(active) == {1, 2, 3}
        assert pred == {1: 0, 2: 1, 3: 2}

    def test_four_by_two(self):
        active, pred = active_indices(ChannelConfig(4, 2, 0.1))
        assert set(active) == {1, 2}
        assert pred == {1: 0, 2: 1}

    def test_expurgation_five_by_three(self):
        # Candidate-exit thresholds for (5,3): products are 6*alpha (k=1)
        # and 4*alpha (k=2), so the active set shrinks at 1/6 and 1/4.
        lo = 1.0 / 6.0
        active, _ = active_indices(ChannelConfig(5, 3, lo - 1e-9))
        assert set(active) == {1, 2, 3}
        active, _ = active_indices(ChannelConfig(5, 3, lo + 1e-9))
        assert set(active) == {2, 3}
        active, pred = active_indices(ChannelConfig(5, 3, 0.2))
        assert set(active) == {2, 3}
        assert pred == {2: 0, 3: 2}
        active, _ = active_indices(ChannelConfig(5, 3, 0.25 - 1e-9))
        assert set(active) == {2, 3}
        # 4*0.25 = 1.0 exactly in binary floats: k=2 exits deterministically.
        active, _ = active_indices(ChannelConfig(5, 3, 0.25))
        assert set(active) == {3}
        active, _ = active_indices(ChannelConfig(5, 3, 0.3))
        assert set(active) == {3}

    def test_lowest_active_maps_to_zero(self):
        for m, n, alpha in [(2, 2, 0.5), (5, 3, 0.2), (4, 2, 0.1), (3, 3, 0.1)]:
            active, pred = active_indices(ChannelConfig(m, n, alpha))
            assert pred[min(active)] == 0

    def test_active_subset_of_candidates(self):
        for m in range(1, 6):
            for n in range(1, m + 1):
                for alpha in (0.0, 0.07, 0.2, 1.0 / 3.0, 0.5, 1.0, 2.0):
                    cfg = ChannelConfig(m, n, alpha)
                    active, pred = active_indices(cfg)
                    cand = set(candidate_indices(cfg))
                    assert set(active) <= cand
                    assert n in active
                    assert set(pred.keys()) == set(active)


def subset_corners(m, n, alpha, k):
    """Corners ``(r, d)`` of the depth-``k`` line that lie in ``[0, n]``,
    ascending in ``r``, then its value at the right end ``r = n``.

    Corner ``j = k, k - 1, ..., 1`` sits at ``r = (n - j) tau - (k - j)
    alpha`` with ``d = j (m - n + j) tau + (k - j)(k + j + m - n) alpha``,
    ``tau = 1 + k alpha (m - n + k)``, and the piece from it falls with
    slope ``2j - 1 + m - n``.
    """
    tau = 1.0 + k * alpha * (m - n + k)
    points = []
    for j in range(k, 0, -1):
        r = (n - j) * tau - (k - j) * alpha
        if r > n:
            break
        d = j * (m - n + j) * tau + (k - j) * (k + j + m - n) * alpha
        points.append((r, d, 2 * j - 1 + m - n))
    r, d, slope = points[-1]
    return [(r, d) for r, d, _ in points] + [(float(n), d - slope * (n - r))]


class TestSubsetCornerPoints:
    def test_two_by_two_full_subset(self):
        # Corner k'=2 at (0, 12); the k'=1 corner lands at r = 2.5 > N = 2,
        # so one piece of slope -3 runs to the right end.
        cfg = ChannelConfig(2, 2, 0.5)
        assert subset_diversity(cfg, 2, 0.0) == pytest.approx(12.0)
        assert subset_diversity(cfg, 2, 2.0) == pytest.approx(6.0)
        assert subset_corners(2, 2, 0.5, 2) == pytest.approx([(0.0, 12.0), (2.0, 6.0)])

    def test_alpha_zero_corner(self):
        # One corner at (1, 1), where the depth-1 event first binds.
        cfg = ChannelConfig(2, 2, 0.0)
        assert subset_diversity(cfg, 1, 1.0) == pytest.approx(1.0)
        assert subset_diversity(cfg, 1, 1.0 - 1e-9) == INF
        assert subset_diversity(cfg, 1, 2.0) == pytest.approx(0.0)

    def test_ascending_r_order(self):
        # (5,3,0.1), k=3: corners at r = 0 and 2.4 (the third, 4.8, is past
        # N = 3); the pieces follow in that order, slopes -7 then -5.
        cfg = ChannelConfig(5, 3, 0.1)
        npt.assert_allclose(subset_diversity(cfg, 3, 1.2) - subset_diversity(cfg, 3, 0.0),
                            -7.0 * 1.2, rtol=1e-12)
        npt.assert_allclose(subset_diversity(cfg, 3, 3.0) - subset_diversity(cfg, 3, 2.4),
                            -5.0 * 0.6, rtol=1e-12)


class TestSubsetDiversity:
    @pytest.mark.parametrize(
        "m,n,alpha,k,r,expected",
        [
            (2, 2, 0.5, 2, 1.0, 9.0),    # (checked independently: 12 - 3r on the k'=2 piece)
            (2, 2, 0.5, 2, 1.5, 7.5),
            (2, 2, 0.5, 2, 0.0, 12.0),
            (4, 2, 0.1, 1, 2.0, 1.8),    # (checked independently: corner (1.3, 3.9), slope -3)
            (2, 2, 0.5, 1, 1.5, 1.5),    # value at the reachability edge
            (2, 2, 0.5, 1, 2.0, 1.0),
            (2, 2, 0.0, 2, 1.5, 0.5),    # past the k'=1 corner at r = 1: 2 - r
        ],
    )
    def test_hand_values(self, m, n, alpha, k, r, expected):
        npt.assert_allclose(subset_diversity(ChannelConfig(m, n, alpha), k, r), expected, rtol=1e-12)

    @pytest.mark.parametrize(
        "m,n,alpha,k,r",
        [
            (2, 2, 0.5, 1, 0.5),    # below the reachability edge 1.5
            (2, 2, 0.5, 1, 1.0),
            (2, 2, 1.0, 1, 1.9),    # not a candidate subset at alpha=1
            (5, 3, 0.3, 2, 2.9),    # not a candidate: 0.3*4*1 = 1.2
        ],
    )
    def test_infinite_cases(self, m, n, alpha, k, r):
        assert subset_diversity(ChannelConfig(m, n, alpha), k, r) == INF

    def test_rejects_out_of_range_k(self):
        with pytest.raises(ValueError):
            subset_diversity(ChannelConfig(2, 2, 0.5), 0, 1.0)
        with pytest.raises(ValueError):
            subset_diversity(ChannelConfig(2, 2, 0.5), 3, 1.0)

    def test_affine_between_corners(self):
        # Midpoints between adjacent in-domain corners, and between the last
        # one and the right end, lie on the chords.
        cfg = ChannelConfig(5, 3, 0.1)
        pts = subset_corners(5, 3, 0.1, 3)
        assert len(pts) == 3
        for (ra, da), (rb, db) in zip(pts, pts[1:]):
            mid_r = 0.5 * (ra + rb)
            npt.assert_allclose(subset_diversity(cfg, 3, mid_r), 0.5 * (da + db), rtol=1e-12)

    def test_matches_corner_values(self):
        # Every in-domain corner, and the right end past the last corner.
        for m, n, alpha, k in [(2, 2, 0.5, 2), (4, 2, 0.1, 2), (5, 3, 0.1, 3),
                               (3, 3, 0.1, 2), (2, 2, 0.0, 2), (3, 3, 0.0, 3),
                               (4, 4, 0.05, 4)]:
            cfg = ChannelConfig(m, n, alpha)
            for r, d in subset_corners(m, n, alpha, k):
                npt.assert_allclose(subset_diversity(cfg, k, r), d, rtol=1e-12, atol=1e-12,
                                    err_msg=f"({m},{n},{alpha}) k={k} r={r}")

    def test_slope_between_corners(self):
        # Piece owned by corner index k' falls with slope -(2k'-1+M-N).
        cfg = ChannelConfig(2, 2, 0.5)
        d1 = subset_diversity(cfg, 2, 1.0)
        d2 = subset_diversity(cfg, 2, 1.2)
        npt.assert_allclose((d2 - d1) / 0.2, -3.0, rtol=1e-10)


class TestComputeDmtCurve:
    def test_two_by_two_worked_segments(self):
        curve = compute_dmt_curve(ChannelConfig(2, 2, 0.5))
        assert len(curve) == 2
        s_hi, s_lo = curve
        assert (s_hi.k, s_lo.k) == (2, 1)
        npt.assert_allclose(
            [s_hi.r_left, s_hi.d_left, s_hi.r_right, s_hi.d_right],
            [0.0, 12.0, 1.5, 7.5], rtol=1e-12)
        npt.assert_allclose(
            [s_lo.r_left, s_lo.d_left, s_lo.r_right, s_lo.d_right],
            [1.5, 1.5, 2.0, 1.0], rtol=1e-12)
        # The jump at 1.5 belongs to the right-hand piece, and the last
        # piece owns its right end.
        assert eval_dmt(curve, 1.5) == s_lo.d_left
        assert eval_dmt(curve, 2.0) == s_lo.d_right

    def test_four_by_two_segments(self):
        curve = compute_dmt_curve(ChannelConfig(4, 2, 0.1))
        assert len(curve) == 2
        s_hi, s_lo = curve
        npt.assert_allclose(
            [s_hi.r_left, s_hi.d_left, s_hi.r_right, s_hi.d_right],
            [0.0, 14.4, 1.3, 7.9], rtol=1e-12)
        npt.assert_allclose(
            [s_lo.r_left, s_lo.d_left, s_lo.r_right, s_lo.d_right],
            [1.3, 3.9, 2.0, 1.8], rtol=1e-12)

    def test_single_line_case(self):
        # High-quality feedback collapses the curve to one line:
        # d(r) = MN(1+MN*alpha) - (M+N-1) r.
        curve = compute_dmt_curve(ChannelConfig(3, 3, 0.5))
        (seg,) = curve
        assert seg.k == 0
        npt.assert_allclose([seg.d_left, seg.d_right], [49.5, 34.5], rtol=1e-12)
        npt.assert_allclose(eval_dmt(curve, 2.0), 39.5, rtol=1e-12)

    @pytest.mark.parametrize("kk", [1, 2, 4, 8])
    def test_single_antenna_rx_line(self, kk):
        # N=1: always a single line K(1 - r + K*alpha).
        alpha = 0.37
        curve = compute_dmt_curve(ChannelConfig(kk, 1, alpha))
        assert [seg.k for seg in curve] == [0]
        for r in (0.0, 0.25, 1.0):
            npt.assert_allclose(eval_dmt(curve, r), kk * (1 - r + kk * alpha), rtol=1e-12)

    def test_case_split_threshold(self):
        # At the threshold the curve is one line labeled k = 0; just below
        # it, one piece per active cardinality.
        def ks(m, n, alpha):
            return [seg.k for seg in compute_dmt_curve(ChannelConfig(m, n, alpha))]

        assert ks(3, 3, 0.5) == [0]
        assert ks(3, 3, 0.5 - 1e-9) == [3, 2, 1]
        assert ks(2, 2, 1.0) == [0]
        assert ks(2, 2, 0.999999) == [2, 1]

    def test_three_by_three_one_third(self):
        curve = compute_dmt_curve(ChannelConfig(3, 3, 1.0 / 3.0))
        assert [s.k for s in curve] == [3, 2, 1]
        npt.assert_allclose(curve[0].d_left, 36.0, rtol=1e-12)
        npt.assert_allclose(curve[0].r_right, 7.0 / 3.0, rtol=1e-12)
        npt.assert_allclose(curve[1].r_right, 8.0 / 3.0, rtol=1e-12)
        npt.assert_allclose(eval_dmt(curve, 2.2), 25.0, rtol=1e-12)

    def test_pieces_follow_active_indices(self):
        # One piece per active cardinality k, deepest first, each starting
        # at its reach (n - k) * boost.
        cfg = ChannelConfig(4, 2, 0.1)
        curve = compute_dmt_curve(cfg)
        active, _ = active_indices(cfg)
        assert [s.k for s in curve] == sorted(active, reverse=True) == [2, 1]
        for s in curve:
            assert s.r_left == (2 - s.k) * diversity_boost(cfg, s.k)
        npt.assert_allclose(curve[1].r_left, 1.3, rtol=1e-15)

    def test_segments_partition_domain(self):
        for m, n, alpha in [(2, 2, 0.5), (4, 2, 0.1), (3, 3, 1.0 / 3.0), (5, 3, 0.1), (5, 3, 0.2)]:
            segs = compute_dmt_curve(ChannelConfig(m, n, alpha))
            assert segs[0].r_left == 0.0
            assert segs[-1].r_right == float(n)
            for a, b in zip(segs, segs[1:]):
                npt.assert_allclose(a.r_right, b.r_left, rtol=1e-12)
            # Each piece owns its left end; the last also owns its right.
            for s in segs:
                assert eval_dmt(segs, s.r_left) == s.d_left
            assert eval_dmt(segs, float(n)) == segs[-1].d_right

    def test_interior_jumps_go_down(self):
        for m, n, alpha in [(2, 2, 0.5), (4, 2, 0.1), (3, 3, 0.1), (5, 3, 0.1)]:
            curve = compute_dmt_curve(ChannelConfig(m, n, alpha))
            for a, b in zip(curve, curve[1:]):
                assert a.d_right >= b.d_left - 1e-12

    def test_segment_midpoint_on_chord(self):
        # Each emitted segment is genuinely affine: midpoint on the chord.
        for m, n, alpha in [(2, 2, 0.5), (5, 3, 0.1), (3, 3, 1.0 / 3.0)]:
            curve = compute_dmt_curve(ChannelConfig(m, n, alpha))
            for s in curve:
                mid = 0.5 * (s.r_left + s.r_right)
                npt.assert_allclose(
                    eval_dmt(curve, mid), 0.5 * (s.d_left + s.d_right), rtol=1e-12)


class TestEvalDmt:
    def test_boundary_ownership(self):
        # At an interior jump the value belongs to the lower segment.
        curve = compute_dmt_curve(ChannelConfig(2, 2, 0.5))
        npt.assert_allclose(eval_dmt(curve, 1.5), 1.5, rtol=1e-12)
        npt.assert_allclose(eval_dmt(curve, 1.5 - 1e-9), 7.5 - 3 * (-1e-9), rtol=1e-9)

    def test_left_limit_at_boundaries(self):
        curve = compute_dmt_curve(ChannelConfig(2, 2, 0.5))
        # A rate within 1e-9 of the jump reads both sides at the jump.
        for r in (1.5, 1.5 - 1e-10, 1.5 + 1e-10):
            assert eval_dmt_jump(curve, r) == (1.5, 7.5, 1.5)
        # Away from boundaries there is no jump.
        assert eval_dmt_jump(curve, 1.0) is None
        # At the right edge of the domain the curve is left-continuous.
        assert eval_dmt_jump(curve, 2.0) is None

    def test_endpoints(self):
        curve = compute_dmt_curve(ChannelConfig(2, 2, 0.5))
        npt.assert_allclose(eval_dmt(curve, 0.0), 12.0, rtol=1e-12)
        npt.assert_allclose(eval_dmt(curve, 2.0), 1.0, rtol=1e-12)

    def test_out_of_range(self):
        curve = compute_dmt_curve(ChannelConfig(2, 2, 0.5))
        with pytest.raises(ValueError):
            eval_dmt(curve, -0.01)
        with pytest.raises(ValueError):
            eval_dmt(curve, 2.01)

    @pytest.mark.parametrize(
        "m,n,alpha",
        [(2, 2, 0.5), (4, 2, 0.1), (3, 3, 1.0 / 3.0), (5, 3, 0.2), (3, 2, 0.25),
         (2, 2, 0.0), (3, 3, 0.0)],
    )
    def test_min_consistency(self, m, n, alpha):
        # The curve equals the pointwise minimum of the active per-subset
        # curves, and also of all candidate ones.
        cfg = ChannelConfig(m, n, alpha)
        curve = compute_dmt_curve(cfg)
        active, _ = active_indices(cfg)
        cand = candidate_indices(cfg)
        for r in np.linspace(0.0, n, 200 * n + 1):
            want = eval_dmt(curve, r)
            got_b = min(subset_diversity(cfg, k, r) for k in active)
            got_a = min(subset_diversity(cfg, k, r) for k in cand)
            npt.assert_allclose(got_b, want, rtol=1e-12, err_msg=f"active min at r={r}")
            npt.assert_allclose(got_a, want, rtol=1e-12, err_msg=f"candidate min at r={r}")

    @pytest.mark.parametrize(
        "m,n,alpha",
        [(2, 2, 0.5), (4, 2, 0.1), (5, 3, 0.2), (5, 3, 0.3), (3, 3, 0.1)],
    )
    def test_endpoint_formula(self, m, n, alpha):
        # d(N) = p*alpha*(M-N+p)*(MN+(p-N)(N-p+1)) - p^2 + p with p the
        # lowest active index; reduces to alpha*N*(M-N+1)^2 for small alpha.
        cfg = ChannelConfig(m, n, alpha)
        curve = compute_dmt_curve(cfg)
        active, _ = active_indices(cfg)
        p = min(active)
        expected = p * alpha * (m - n + p) * (m * n + (p - n) * (n - p + 1)) - p * p + p
        npt.assert_allclose(eval_dmt(curve, float(n)), expected, rtol=1e-12)
        if n > 1 and alpha < 1.0 / ((n - 1) * (m - n + 1)):
            npt.assert_allclose(eval_dmt(curve, float(n)), alpha * n * (m - n + 1) ** 2, rtol=1e-12)

    def test_alpha_zero_reduction(self):
        # Perfectly stale feedback collapses the curve onto the no-feedback
        # baseline at every multiplexing gain.
        for m in range(1, 6):
            for n in range(1, m + 1):
                cfg = ChannelConfig(m, n, 0.0)
                curve = compute_dmt_curve(cfg)
                base = baseline_no_csit(cfg)
                for r in np.linspace(0.0, n, 200 * n + 1):
                    npt.assert_allclose(
                        eval_dmt(curve, r), eval_dmt(base, r), atol=1e-12,
                        err_msg=f"({m},{n}) r={r}")

    def test_ordering_of_subset_curves(self):
        # Smaller subset index gives strictly smaller diversity where both
        # are finite.
        for m, n, alpha in [(2, 2, 0.5), (5, 3, 0.1), (4, 2, 0.1)]:
            cfg = ChannelConfig(m, n, alpha)
            cand = sorted(candidate_indices(cfg))
            for i, k1 in enumerate(cand):
                for k2 in cand[i + 1:]:
                    for r in np.linspace(0.0, n, 100 * n + 1):
                        d1 = subset_diversity(cfg, k1, r)
                        d2 = subset_diversity(cfg, k2, r)
                        if math.isfinite(d1) and math.isfinite(d2):
                            assert d1 < d2

    def test_orientation_transparency(self):
        # (N, M) and (M, N) produce identical curves.
        c1 = compute_dmt_curve(ChannelConfig(2, 4, 0.1))
        c2 = compute_dmt_curve(ChannelConfig(4, 2, 0.1))
        for r in np.linspace(0, 2, 41):
            npt.assert_allclose(eval_dmt(c1, r), eval_dmt(c2, r), rtol=1e-15)

    @given(
        st.sampled_from([(2, 2), (3, 2), (4, 2), (3, 3), (5, 3)]),
        st.floats(min_value=0.0, max_value=1.5),
        st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_r(self, mn, alpha, frac):
        m, n = mn
        curve = compute_dmt_curve(ChannelConfig(m, n, alpha))
        r1 = frac * n
        r2 = min(float(n), r1 + 0.1)
        assert eval_dmt(curve, r2) <= eval_dmt(curve, r1) + 1e-12

    def test_monotone_in_alpha(self):
        for m, n in [(2, 2), (4, 2), (3, 3)]:
            for r in (0.0, 0.4 * n, 0.9 * n, float(n)):
                vals = [
                    eval_dmt(compute_dmt_curve(ChannelConfig(m, n, a)), r)
                    for a in np.arange(0.0, 1.51, 0.05)
                ]
                assert np.all(np.diff(vals) >= -1e-12)


class TestBaselines:
    def test_no_csit_corners(self):
        curve = baseline_no_csit(ChannelConfig(4, 3, 0.9))
        for r in range(4):
            npt.assert_allclose(eval_dmt(curve, float(r)), (4 - r) * (3 - r), atol=1e-12)

    def test_no_csit_examples(self):
        c22 = baseline_no_csit(ChannelConfig(2, 2, 0.0))
        assert [eval_dmt(c22, float(r)) for r in range(3)] == pytest.approx([4, 1, 0])
        c42 = baseline_no_csit(ChannelConfig(4, 2, 0.3))
        assert [eval_dmt(c42, float(r)) for r in range(3)] == pytest.approx([8, 3, 0])
        c11 = baseline_no_csit(ChannelConfig(1, 1, 0.0))
        assert [eval_dmt(c11, 0.0), eval_dmt(c11, 1.0)] == pytest.approx([1, 0])

    def test_no_csit_linear_between_corners(self):
        curve = baseline_no_csit(ChannelConfig(3, 2, 0.0))
        npt.assert_allclose(eval_dmt(curve, 0.5), 0.5 * (6 + 2), rtol=1e-12)
        npt.assert_allclose(eval_dmt(curve, 1.5), 0.5 * (2 + 0), rtol=1e-12)

    def test_rate_adaptation_values(self):
        curve = baseline_rate_adaptation(ChannelConfig(4, 1, 0.5))
        npt.assert_allclose(eval_dmt(curve, 0.0), 6.0, rtol=1e-12)
        npt.assert_allclose(eval_dmt(curve, 1.0), 2.0, rtol=1e-12)
        c1 = baseline_rate_adaptation(ChannelConfig(1, 1, 0.0))
        npt.assert_allclose(eval_dmt(c1, 1.0), 0.0, atol=1e-15)

    def test_rate_adaptation_needs_single_antenna_side(self):
        with pytest.raises(ValueError):
            baseline_rate_adaptation(ChannelConfig(2, 2, 0.5))

    def test_rate_adaptation_orientation(self):
        # (1, 4) canonicalizes to K=4 on the multi-antenna side.
        curve = baseline_rate_adaptation(ChannelConfig(1, 4, 0.5))
        npt.assert_allclose(eval_dmt(curve, 0.0), 6.0, rtol=1e-12)

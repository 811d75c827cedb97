"""Tests for the exact exponent-optimization oracle."""
import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

from mimo_dmt.channel import ChannelConfig
from mimo_dmt.oracle import exact_oracle_curve, outage_condition
from mimo_dmt.tradeoff import (
    compute_dmt_curve,
    diversity_boost,
    eval_dmt,
    eval_dmt_jump,
    eval_dmt_left_limit,
    subset_diversity,
)

INF = math.inf


def grid_tol(m, n, step):
    # Worst-case objective shift from rounding every coordinate up by one
    # grid step: sum of weights (m*n) plus one extra step on the heaviest
    # weight (2n-1+m-n = m+n-1) to restore strictness.
    return (m * n + m + n) * step + 1e-9


def fade_weights(m, n):
    return 2.0 * np.arange(1, n + 1) - 1 + m - n


def _grid_min(cfg, r, step, free_errors=False):
    """Brute-force minimum decay cost over a fade-depth grid for n = 2.

    With ``free_errors``, the estimation-error exponents ``u >= alpha`` are
    searched jointly with the fade depths ``v``: cost
    ``sum c_j (v_j + u_j - alpha)`` subject to
    ``sum(1 - v_j + sum_i c_i min(v_i, u_i))^+ < r``; otherwise ``u`` is
    pinned at ``alpha``.  Feasibility applies the same strict-tie dust
    margin as the library's outage predicate.
    """
    n = cfg.n_rx
    assert n == 2
    c = fade_weights(cfg.m_tx, n)
    alpha = cfg.alpha
    depth_max = diversity_boost(cfg, n) + 1.0
    vg = np.arange(0.0, depth_max + step / 2, step)
    i, j = np.meshgrid(np.arange(vg.size), np.arange(vg.size), indexing="ij")
    keep = i >= j
    v = np.stack([vg[i[keep]], vg[j[keep]]], axis=1)
    if free_errors:
        ug = np.arange(alpha, depth_max + step / 2, step)
        iu, ju = np.meshgrid(np.arange(ug.size), np.arange(ug.size), indexing="ij")
        keep_u = iu >= ju
        u = np.stack([ug[iu[keep_u]], ug[ju[keep_u]]], axis=1)
    else:
        u = np.full((1, n), alpha)
    best = INF
    for u_blk in np.array_split(u, max(1, u.shape[0] // 128)):
        t_boost = np.einsum(
            "j,ibj->ib", c, np.minimum(v[:, None, :], u_blk[None, :, :]))
        gap = 1.0 - v[:, None, :] + t_boost[:, :, None]
        lhs = np.clip(gap, 0.0, None).sum(axis=2)
        cost = (v @ c)[:, None] + ((u_blk - alpha) @ c)[None, :]
        feasible = (lhs + 1e-12) < r
        if feasible.any():
            best = min(best, float(cost[feasible].min()))
    return best


class TestOutageCondition:
    def test_zero_exponents_no_outage_below_full_rate(self):
        cfg = ChannelConfig(2, 2, 0.5)
        assert outage_condition(cfg, [0.0, 0.0], 1.0) is False

    def test_deep_fade_outage(self):
        # LHS = sum(1 - 3 + (1+3)*0.5)^+ = 0 < 1.  (checked by hand)
        cfg = ChannelConfig(2, 2, 0.5)
        assert outage_condition(cfg, [3.0, 3.0], 1.0) is True

    def test_zero_vector_above_full_rate(self):
        for m, n in [(2, 2), (3, 2), (1, 1)]:
            cfg = ChannelConfig(m, n, 0.3)
            assert outage_condition(cfg, [0.0] * n, n + 0.1) is True

    def test_strict_boundary(self):
        # Scalar channel, no feedback help: LHS is exactly 1 at v=0.
        cfg = ChannelConfig(1, 1, 0.0)
        assert outage_condition(cfg, [0.0], 1.0) is False
        assert outage_condition(cfg, [0.0], 1.0 + 1e-9) is True

    def test_power_boost_capped_at_alpha(self):
        # (1,1), alpha=1: boost term is min(v, 1).
        cfg = ChannelConfig(1, 1, 1.0)
        # v=2: LHS = (1 - 2 + 1)^+ = 0 < 0.6
        assert outage_condition(cfg, [2.0], 0.6) is True
        # v=0.5: LHS = (1 - 0.5 + 0.5)^+ = 1 >= 0.6
        assert outage_condition(cfg, [0.5], 0.6) is False

    def test_rejects_unsorted(self):
        cfg = ChannelConfig(2, 2, 0.5)
        with pytest.raises(ValueError):
            outage_condition(cfg, [0.0, 1.0], 1.0)

    def test_rejects_negative(self):
        cfg = ChannelConfig(2, 2, 0.5)
        with pytest.raises(ValueError):
            outage_condition(cfg, [1.0, -0.1], 1.0)

    def test_rejects_wrong_length(self):
        cfg = ChannelConfig(2, 2, 0.5)
        with pytest.raises(ValueError):
            outage_condition(cfg, [1.0], 1.0)


class TestGridOracle:
    """Exact oracle: spot values, agreement with the closed form, and the
    checks on its input."""

    def test_midcurve_spot(self):
        cfg = ChannelConfig(2, 2, 0.5)
        limit, _ = exact_oracle_curve(cfg, [1.0])
        assert abs(limit[0] - 9.0) <= 1e-12

    def test_near_full_rate_spot(self):
        cfg = ChannelConfig(2, 2, 0.5)
        limit, _ = exact_oracle_curve(cfg, [2.0 - 1e-6])
        assert abs(limit[0] - (1.0 + 1e-6)) <= 1e-12

    def test_low_rate_spot(self):
        cfg = ChannelConfig(2, 2, 0.5)
        limit, _ = exact_oracle_curve(cfg, [0.5])
        assert abs(limit[0] - 10.5) <= 1e-12

    def test_result_fields(self):
        # One left limit and one attained value per probe, in probe order;
        # they differ at the jump r = 1 + alpha, and at the right end, where
        # the unfaded pattern delivers exactly the full rate.
        cfg = ChannelConfig(2, 2, 0.5)
        limit, attained = exact_oracle_curve(cfg, [2.0, 1.5, 1.0])
        assert limit.shape == attained.shape == (3,)
        npt.assert_allclose(limit, [1.0, 7.5, 9.0], rtol=1e-12)
        npt.assert_allclose(attained, [0.0, 1.5, 9.0], rtol=1e-12)

    def test_grid_reference_brackets_oracle(self):
        # Outage-forcing patterns on a fade-depth grid never cost less than
        # the exact infimum, and the grid's best comes within one grid
        # step's worth of cost of it, also at the jump r = 1 + alpha.
        cfg = ChannelConfig(2, 2, 0.35)
        step = 0.02
        rs = (0.5, 1.0, 1.35, 1.9)
        limit, _ = exact_oracle_curve(cfg, rs)
        for r, want in zip(rs, limit):
            best = _grid_min(cfg, r, step)
            assert want - 1e-9 <= best <= want + grid_tol(2, 2, step), f"r={r}"

    def test_scalar_closed_form(self):
        # (1,1): d(r) = 1 + alpha - r.
        limit, _ = exact_oracle_curve(ChannelConfig(1, 1, 1.0), [0.5])
        assert abs(limit[0] - 1.5) <= 1e-12
        limit, _ = exact_oracle_curve(ChannelConfig(1, 1, 0.3), [0.8])
        assert abs(limit[0] - 0.5) <= 1e-12

    @pytest.mark.parametrize(
        "m,n,alpha",
        [(2, 1, 0.5), (2, 2, 0.1), (3, 2, 1.0 / 3.0), (4, 2, 0.1),
         (6, 4, 1.0 / 3.0), (6, 6, 0.1)],
    )
    def test_matches_closed_form_curve(self, m, n, alpha):
        # Sweep includes r = 1.3 for (4,2,0.1), which sits exactly on a
        # discontinuity: the strict-inequality oracle recovers the left
        # limit there, so the reference is the left-limit evaluator.
        cfg = ChannelConfig(m, n, alpha)
        curve = compute_dmt_curve(cfg)
        rs = [float(r) for r in np.arange(0.05, n + 1e-9, 0.25)]
        limit, _ = exact_oracle_curve(cfg, rs)
        for r, got in zip(rs, limit):
            want = eval_dmt_left_limit(curve, r)
            assert abs(got - want) <= 1e-9 * max(1.0, want), f"r={r}"

    @pytest.mark.parametrize("m,n,alpha", [(1, 1, 1.0), (2, 2, 0.5)])
    def test_attained_just_below_full_rate_is_left_limit(self, m, n, alpha):
        # The unfaded pattern delivers exactly n: one ulp below full rate it
        # forces no outage, so the attained value is the left limit, not
        # the 0 it attains at n itself.
        cfg = ChannelConfig(m, n, alpha)
        limit, attained = exact_oracle_curve(cfg, [math.nextafter(n, 0.0), n])
        assert limit[0] == pytest.approx(1.0, rel=1e-12)
        assert attained[0] == pytest.approx(limit[0], rel=1e-12)
        assert attained[1] == 0.0

    def test_curve_helper_matches_pointwise(self):
        cfg = ChannelConfig(2, 2, 0.35)
        rs = [0.3, 0.9, 1.35, 1.8]
        batch = np.array(exact_oracle_curve(cfg, rs))
        for i, r in enumerate(rs):
            single = np.array(exact_oracle_curve(cfg, [r]))
            npt.assert_allclose(batch[:, i], single[:, 0], rtol=1e-12)

    def test_rejects_large_n(self):
        with pytest.raises(ValueError):
            exact_oracle_curve(ChannelConfig(7, 7, 0.1), [1.0])

    def test_rejects_bad_probe_rate(self):
        cfg = ChannelConfig(2, 2, 0.5)
        with pytest.raises(ValueError):
            exact_oracle_curve(cfg, [0.0])
        with pytest.raises(ValueError):
            exact_oracle_curve(cfg, [2.1])


class TestSubsetOracle:
    """The closed form's per-subset exponents against the exact oracle on
    fixed links."""

    def test_full_subset_right_end(self):
        # The depth-2 piece of (2,2,0.5) ends at the jump r = 1.5 with the
        # oracle's left limit there.
        cfg = ChannelConfig(2, 2, 0.5)
        limit, _ = exact_oracle_curve(cfg, [1.5])
        assert subset_diversity(cfg, 2, 1.5) == pytest.approx(limit[0], rel=1e-12)
        assert limit[0] == pytest.approx(7.5)

    def test_single_subset_full_rate(self):
        # Approaching full rate, depth 1 is the cheapest outage.
        cfg = ChannelConfig(4, 2, 0.1)
        limit, _ = exact_oracle_curve(cfg, [2.0])
        assert subset_diversity(cfg, 1, 2.0) == pytest.approx(limit[0], rel=1e-12)
        assert limit[0] == pytest.approx(1.8)

    def test_unreached_subset_infinite(self):
        # Below its reach 1.5 the depth-1 event cannot cause outage, and
        # depth 2 attains the oracle's minimum.
        cfg = ChannelConfig(2, 2, 0.5)
        _, attained = exact_oracle_curve(cfg, [1.0])
        assert subset_diversity(cfg, 1, 1.0) == INF
        assert subset_diversity(cfg, 2, 1.0) == pytest.approx(attained[0], rel=1e-12)

    @pytest.mark.parametrize(
        "m,n,alpha,k",
        [(2, 2, 0.5, 2), (2, 2, 0.5, 1), (4, 2, 0.1, 1), (4, 2, 0.1, 2),
         (3, 3, 0.1, 2), (5, 3, 0.2, 3), (3, 2, 0.25, 1)],
    )
    def test_matches_interpolated_subset_curve(self, m, n, alpha, k):
        # Across the subset's rate range, past every corner of its line, a
        # depth-k outage costs at least the oracle's minimum, and matches
        # it wherever depth k is the cheapest.
        cfg = ChannelConfig(m, n, alpha)
        reach = (n - k) * diversity_boost(cfg, k)
        rs = [reach + frac * (n - reach) for frac in np.linspace(0.02, 0.98, 49)]
        _, attained = exact_oracle_curve(cfg, rs)
        cheapest = 0
        for r, floor in zip(rs, attained):
            got = subset_diversity(cfg, k, r)
            tol = 1e-9 * max(1.0, floor)
            assert math.isfinite(got) and got >= floor - tol, f"r={r}"
            if got == min(subset_diversity(cfg, j, r) for j in range(1, n + 1)):
                assert abs(got - floor) <= tol, f"r={r}"
                cheapest += 1
        assert cheapest > 0

    def test_min_over_subsets_matches_grid(self):
        # The cheapest depth attains the whole program's minimum.
        cfg = ChannelConfig(2, 2, 0.35)
        rs = (0.4, 1.0, 1.6, 1.99)
        _, attained = exact_oracle_curve(cfg, rs)
        for r, want in zip(rs, attained):
            best = min(subset_diversity(cfg, k, r) for k in (1, 2))
            assert abs(want - best) <= 1e-9 * max(1.0, want), f"r={r}"


class TestObjectivePinning:
    @pytest.mark.parametrize("r", [0.5, 1.0, 1.9])
    def test_free_error_exponents_never_help(self, r):
        # Letting the error exponents float above alpha never lowers the
        # optimum: pinning them at alpha is lossless.
        cfg = ChannelConfig(2, 2, 0.5)
        step = 0.05
        limit, _ = exact_oracle_curve(cfg, [r])
        pinned = _grid_min(cfg, r, step)
        extended = _grid_min(cfg, r, step, free_errors=True)
        assert extended >= limit[0] - 1e-9
        npt.assert_allclose(extended, pinned, atol=1e-9)
        assert pinned <= limit[0] + grid_tol(2, 2, step)


@st.composite
def links(draw):
    m = draw(st.integers(1, 5))
    n = draw(st.integers(1, m))
    return ChannelConfig(m, n, draw(st.floats(0.0, 1.5)))


probe_fractions = st.lists(st.floats(0.0, 1.0, exclude_min=True),
                           min_size=1, max_size=8)


def _boundaries(curve):
    return [seg.r_right for seg in curve.segments]


def _snapped_probes(cfg, fracs):
    """Probes and curve boundaries below full rate, each moved onto a jump
    within 1e-9 of it, where the closed form reads it.

    Full rate itself is left out: there the unfaded pattern, which is no
    depth-k event, attains 0.
    """
    curve = compute_dmt_curve(cfg)
    rs = []
    for r in [f * cfg.n_rx for f in fracs] + _boundaries(curve):
        jump = eval_dmt_jump(curve, r)
        r = r if jump is None else jump[0]
        if r < cfg.n_rx:
            rs.append(r)
    return rs


class TestProperties:
    """The closed form against the exact oracle on random links."""

    @given(cfg=links(), fracs=probe_fractions)
    def test_left_limit_matches_oracle(self, cfg, fracs):
        curve = compute_dmt_curve(cfg)
        rs = [f * cfg.n_rx for f in fracs] + _boundaries(curve)
        limit, _ = exact_oracle_curve(cfg, rs)
        for r, got in zip(rs, limit):
            want = eval_dmt_left_limit(curve, r)
            assert abs(got - want) <= 1e-9 * max(1.0, want), f"r={r}"

    @given(cfg=links())
    def test_attained_value_matches_oracle_at_jumps(self, cfg):
        curve = compute_dmt_curve(cfg)
        jumps = [(r, eval_dmt_jump(curve, r)) for r in _boundaries(curve)]
        jumps = [(r, jump[2]) for r, jump in jumps if jump is not None]
        if not jumps:
            return
        _, attained = exact_oracle_curve(cfg, [r for r, _ in jumps])
        for (r, want), got in zip(jumps, attained):
            assert abs(got - want) <= 1e-9 * max(1.0, want), f"r={r}"

    @given(cfg=links(), fracs=probe_fractions)
    def test_curve_non_increasing_and_non_negative(self, cfg, fracs):
        curve = compute_dmt_curve(cfg)
        rs = sorted(f * cfg.n_rx for f in fracs)
        limit, _ = exact_oracle_curve(cfg, rs)
        # Both hold to float precision: the oracle's solves round.
        for d in (np.array([eval_dmt(curve, r) for r in rs]), limit):
            assert (d >= -1e-9).all()
            assert (np.diff(d) <= 1e-9 * np.maximum(1.0, d[:-1])).all()

    @given(cfg=links(),
           depths=st.lists(st.floats(0.0, 1.0), min_size=5, max_size=5),
           fracs=probe_fractions)
    def test_outage_patterns_cost_at_least_oracle(self, cfg, depths, fracs):
        # Depths reach past the deepest fade any boost can absorb, so some
        # patterns force outage at some probes.
        n, m = cfg.n_rx, cfg.m_tx
        c = fade_weights(m, n)
        scale = 2.0 + cfg.alpha * c.sum()
        v = np.sort(depths[:n])[::-1] * scale
        rs = [f * n for f in fracs] + [float(n)]
        limit, _ = exact_oracle_curve(cfg, rs)
        for r, bound in zip(rs, limit):
            if outage_condition(cfg, v, r):
                assert c @ v >= bound - 1e-9, f"r={r}"

    @given(cfg=links(), fracs=probe_fractions)
    def test_subset_diversity_at_least_oracle(self, cfg, fracs):
        # A depth-k outage pattern is an outage pattern, so no per-subset
        # exponent falls below the oracle's attained minimum.
        rs = _snapped_probes(cfg, fracs)
        if not rs:
            return
        _, attained = exact_oracle_curve(cfg, rs)
        for r, floor in zip(rs, attained):
            for k in range(1, cfg.n_rx + 1):
                got = subset_diversity(cfg, k, r)
                assert got >= floor - 1e-9 * max(1.0, abs(floor)), f"k={k} r={r}"

    @given(cfg=links(), fracs=probe_fractions)
    def test_subset_minimum_matches_oracle(self, cfg, fracs):
        # The cheapest depth attains it: the overlays' lower envelope is
        # the curve.
        rs = _snapped_probes(cfg, fracs)
        if not rs:
            return
        _, attained = exact_oracle_curve(cfg, rs)
        for r, want in zip(rs, attained):
            got = min(subset_diversity(cfg, k, r) for k in range(1, cfg.n_rx + 1))
            assert abs(got - want) <= 1e-9 * max(1.0, abs(want)), f"r={r}"

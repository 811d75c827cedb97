"""Independent exact check of the closed-form diversity curve.

The closed-form curve is the value of a small optimization: minimize the
probability-decay cost of a joint fade pattern over all patterns deep enough
to cause outage at multiplexing gain ``r``, given that the transmitter boosts
power based on what its channel estimate shows.  This module solves that
optimization directly — by enumerating the vertices of the piecewise-linear
program region by region — with none of the piecewise closed-form algebra,
so agreement between the two routes is meaningful evidence.
"""
from __future__ import annotations

import itertools

import numpy as np

from .channel import eigen_decay_weights

__all__ = [
    "exact_oracle_curve",
    "outage_condition",
]

# Vertex enumeration solves up to C(n + 5, n) small systems on each of the
# (n + 1)**2 regions, about 0.1 s for 120 probes at n = 6.  The tests check
# the oracle up to six directions, so larger links are refused.
_MAX_RX = 6
# Slack on every test of a solved vertex against a region constraint, and
# on a region's floor below a probe for the left limit: above the rounding
# of a six-by-six solve, and small enough that the slightly infeasible
# vertices it admits keep the exponent well inside the 1e-9 agreement
# ``oracle-check`` asks for (worst seen: 5e-10 absolute, on a 6x6 link at
# alpha = 1e-12).
_EDGE_TOL = 1e-12
# Relative slack on a region's constant rates against a probe rate, no
# looser than the rounding of the solve: the region floors met the closed
# form's jumps to within 4 eps (relative) on links with m <= 6, while a
# probe 1e-13 below a jump at r <= 6 lies more than 4 times this slack away.
_RATE_TOL = 16 * np.finfo(float).eps
# Strictness dust margin: a pattern whose delivered rate ties the probe to
# within float dust must stay infeasible, exactly as in exact arithmetic,
# even when rounding pushed the computed rate a few ulp below the probe.
_STRICT_MARGIN = 1e-12


def outage_condition(cfg, v, r):
    """Whether fade depths ``v`` force an outage at multiplexing gain ``r``.

    ``v`` lists per-direction fade depths sorted deepest first.  The
    transmitter's estimate tracks each depth only down to ``alpha``, so the
    power boost it earns is the decay-weighted sum of the capped depths; a
    direction then delivers rate ``(1 - v + boost)^+`` and outage means the
    depths leave strictly less than ``r`` in total.
    """
    v = np.asarray(v, dtype=float)
    n = cfg.n_rx
    if v.shape != (n,):
        raise ValueError(f"expected {n} fade depths, got shape {v.shape}")
    if not np.isfinite(v).all() or (v < 0).any():
        raise ValueError("fade depths must be finite and non-negative")
    if (np.diff(v) > 0).any():
        raise ValueError("fade depths must be sorted deepest first")
    c = eigen_decay_weights(cfg.m_tx, n)
    boost = float(c @ np.minimum(v, cfg.alpha))
    lhs = float(np.clip(1.0 - v + boost, 0.0, None).sum())
    return bool(lhs + _STRICT_MARGIN < r)


def _validate_probe(cfg, r):
    r = float(r)
    if not (0.0 < r <= cfg.n_rx):
        raise ValueError(f"probe rate must lie in (0, {cfg.n_rx}], got {r}")
    return r


def _region(c, alpha, p, q):
    """Linear pieces of the outage program on one region of fade space.

    On the region where the ``p`` deepest depths reach ``alpha`` (so the
    boost caps them) and the ``q`` deepest rate terms are clipped to zero,
    every rate term ``1 - v_j + boost`` is affine in ``v``.  Returns the
    region as rows ``A @ v >= b`` (depth ordering, ``v_n >= 0``, and the
    two sides of each split) and the delivered rate as ``g @ v + g0``.
    """
    n = c.size
    eye = np.eye(n)
    # Row j: slope of rate term j; every term shares the intercept t0.
    term = np.where(np.arange(n) >= p, c, 0.0) - eye
    t0 = 1.0 + alpha * c[:p].sum()
    rows = [eye[j] - eye[j + 1] for j in range(n - 1)] + [eye[n - 1]]
    rhs = [0.0] * n
    if p > 0:
        rows.append(eye[p - 1])
        rhs.append(alpha)
    if p < n:
        rows.append(-eye[p])
        rhs.append(-alpha)
    if q > 0:
        rows.append(-term[q - 1])
        rhs.append(t0)
    if q < n:
        rows.append(term[q])
        rhs.append(-t0)
    return np.array(rows), np.array(rhs), term[q:].sum(axis=0), (n - q) * t0


def exact_oracle_curve(cfg, r_probes):
    """Exact minimum decay cost of an outage-forcing fade pattern per probe.

    Returns ``(left_limit, attained)`` arrays: the infimum over patterns
    that deliver strictly less than ``r`` (what :func:`outage_condition`
    tests), and the minimum over patterns that deliver at most ``r``.  The
    two differ only where the exponent jumps.

    The program is linear on each of the ``(n + 1)**2`` regions of
    :func:`_region`, so its minimum over a region sits at a vertex: a point
    where ``n`` independent region constraints, possibly including
    ``delivered rate = r``, hold with equality.  Every such vertex is
    solved exactly, once per region, as an affine function of ``r``.  A
    region's minimum is continuous in ``r`` wherever the region can deliver
    less than ``r``, so the left limit keeps only those regions; the
    attained value keeps the regions that can deliver ``r`` itself.
    """
    n = cfg.n_rx
    if n > _MAX_RX:
        raise ValueError(
            f"exact enumeration supports at most {_MAX_RX} fade directions, got {n}")
    rs = np.asarray([_validate_probe(cfg, r) for r in r_probes], dtype=float)
    c = eigen_decay_weights(cfg.m_tx, n)
    left_limit = np.full(rs.size, np.inf)
    attained = np.full(rs.size, np.inf)
    within = rs * (1.0 + _RATE_TOL)
    for p in range(n + 1):
        for q in range(n + 1):
            a, b, g, g0 = _region(c, cfg.alpha, p, q)
            k = a.shape[0]
            # Row k is the rate equation g @ v = r - g0; its right-hand side
            # is split into a constant column and an r column.
            mat = np.vstack([a, g])
            rhs = np.zeros((k + 1, 2))
            rhs[:k, 0] = b
            rhs[k] = (-g0, 1.0)
            subsets = np.array(list(itertools.combinations(range(k + 1), n)))
            systems = mat[subsets]
            # The rows have integer entries, so a nonsingular system has
            # |det| >= 1.
            solvable = np.abs(np.linalg.det(systems)) > 0.5
            subsets, systems = subsets[solvable], systems[solvable]
            sol = np.linalg.solve(systems, rhs[subsets])
            v = sol[:, None, :, 0] + rs[None, :, None] * sol[:, None, :, 1]
            inside = (v @ a.T >= b - _EDGE_TOL).all(axis=2)
            # A vertex on row k delivers r by construction, to the rounding
            # of its solve (about 1e-13 absolute at worst on links with
            # m <= 6), so its rate is not tested.  The others are the
            # region's own vertices, which do not move with r and deliver a
            # constant rate; the least of them is the region's floor.
            own = (subsets < k).all(axis=1)
            rate = sol[:, :, 0] @ g + g0
            own_inside = own & (sol[:, :, 0] @ a.T >= b - _EDGE_TOL).all(axis=1)
            floor = np.min(rate, where=own_inside, initial=np.inf)
            admitted = inside & (~own[:, None] | (rate[:, None] <= within))
            best = np.where(admitted, v @ c, np.inf).min(axis=0, initial=np.inf)
            # No vertex of a region whose floor lies above the probe counts,
            # though the edge slack may admit one just outside the region.
            best = np.where(floor <= within, best, np.inf)
            if p == q == 0:
                # With no depth past alpha and no term clipped, every pattern
                # delivers n + n * (c @ v) - sum(v) >= n: this region forces
                # no outage below full rate.  One ulp below n lies inside the
                # rate slack, so the region is kept out below n by name.
                best = np.where(rs < n, np.inf, best)
            attained = np.minimum(attained, best)
            below = floor < rs * (1.0 - _EDGE_TOL)
            left_limit = np.where(below, np.minimum(left_limit, best), left_limit)
    return left_limit, attained

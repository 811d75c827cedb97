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
# Slack on every test of a solved vertex against a constraint or a probe
# rate: above the rounding of a six-by-six solve, and small enough that the
# slightly infeasible vertices it admits keep the exponent well inside the
# 1e-9 agreement ``oracle-check`` asks for (worst seen: 5e-10 absolute, on
# a 6x6 link at alpha = 1e-12).
_EDGE_TOL = 1e-12
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
    less than ``r``, so the left limit keeps only those regions.
    """
    n = cfg.n_rx
    if n > _MAX_RX:
        raise ValueError(
            f"exact enumeration supports at most {_MAX_RX} fade directions, got {n}")
    rs = np.asarray([_validate_probe(cfg, r) for r in r_probes], dtype=float)
    c = eigen_decay_weights(cfg.m_tx, n)
    left_limit = np.full(rs.size, np.inf)
    attained = np.full(rs.size, np.inf)
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
            delivered = v @ g + g0
            best = np.where(inside & (delivered <= rs + _EDGE_TOL), v @ c, np.inf)
            best = best.min(axis=0, initial=np.inf)
            if p == q == 0:
                # With no depth past alpha and no term clipped, every pattern
                # delivers n + n * (c @ v) - sum(v) >= n: this region forces
                # no outage below full rate, however close the probe, so the
                # slack must not admit its vertices there.
                best = np.where(rs < n, np.inf, best)
            attained = np.minimum(attained, best)
            # The least rate the region delivers, over its own vertices
            # (those that leave out row k, so do not move with r).
            own = sol[(subsets < k).all(axis=1), :, 0]
            floor = np.min(own @ g + g0, where=(own @ a.T >= b - _EDGE_TOL).all(axis=1),
                           initial=np.inf)
            below = floor < rs * (1.0 - _EDGE_TOL)
            left_limit = np.where(below, np.minimum(left_limit, best), left_limit)
    return left_limit, attained

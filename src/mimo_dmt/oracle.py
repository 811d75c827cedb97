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

import functools
import itertools
from typing import NamedTuple

import numpy as np

from .channel import eigen_decay_weights

__all__ = [
    "exact_oracle_curve",
    "outage_condition",
]

# Vertex enumeration solves up to C(n + 5, n) small systems on each of the
# (n + 1)**2 regions: 5,891 systems at n = 6.  For 120 probes on a 6x6 link
# a call takes 0.053 s when it first builds the link's systems and 0.033 s
# once they are cached (2-core VM, one BLAS thread).  The tests check the
# oracle up to six directions, so larger links are refused.
_MAX_RX = 6
# Links whose vertex systems stay cached.
_CACHED_LINKS = 32
# Vertex systems per block when probes are evaluated, so that a link's
# systems-by-probes-by-rows product is never formed whole.
_SYSTEM_BLOCK = 32
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


# Names of the values that right-hand sides take, as column indices into
# the rows of :func:`_rhs_values`.  They are the only place alpha enters.
_RHS_NAMES = _ZERO, _ONE, _ALPHA, _NEG_ALPHA, _T0, _NEG_T0, _G0, _NEG_G0 = range(8)


def _region(c, p, q):
    """Linear pieces of the outage program on one region of fade space.

    On the region where the ``p`` deepest depths reach ``alpha`` (so the
    boost caps them) and the ``q`` deepest rate terms are clipped to zero,
    every rate term ``1 - v_j + boost`` is affine in ``v``, with the shared
    intercept ``t0``.  Returns the region as rows ``A @ v >= b`` (depth
    ordering, ``v_n >= 0``, and the two sides of each split) and the slope
    ``g`` of the delivered rate ``g @ v + g0``.  Neither depends on alpha:
    ``b`` names its values (``_ZERO`` ... ``_NEG_T0``), and
    :func:`_rhs_values` gives them, with ``t0`` and ``g0``.
    """
    n = c.size
    eye = np.eye(n)
    # Row j: slope of rate term j.
    term = np.where(np.arange(n) >= p, c, 0.0) - eye
    rows = [eye[j] - eye[j + 1] for j in range(n - 1)] + [eye[n - 1]]
    rhs = [_ZERO] * n
    if p > 0:
        rows.append(eye[p - 1])
        rhs.append(_ALPHA)
    if p < n:
        rows.append(-eye[p])
        rhs.append(_NEG_ALPHA)
    if q > 0:
        rows.append(-term[q - 1])
        rhs.append(_T0)
    if q < n:
        rows.append(term[q])
        rhs.append(_NEG_T0)
    return np.array(rows), np.array(rhs), term[q:].sum(axis=0)


def _rhs_values(c, alpha):
    """The named right-hand-side values at ``alpha``, one row per region
    ``(p, q)`` in row-major order: ``t0 = 1 + alpha * c[:p].sum()`` and
    ``g0 = (n - q) * t0``."""
    n = c.size
    p, q = np.divmod(np.arange((n + 1) ** 2), n + 1)
    t0 = 1.0 + alpha * np.concatenate(([0.0], np.cumsum(c)))[p]
    g0 = (n - q) * t0
    return np.stack([np.zeros_like(t0), np.ones_like(t0), np.full_like(t0, alpha),
                     np.full_like(t0, -alpha), t0, -t0, g0, -g0], axis=1)


class _VertexTable(NamedTuple):
    """Every solvable vertex system of one link.

    System ``s`` lies in region ``region[s]`` (regions ``(p, q)`` in
    row-major order), and its right-hand side, a constant and an ``r``
    column, is ``values.ravel()[rhs[s]]`` for the ``values`` of
    :func:`_rhs_values`.  ``own[s]`` says it leaves out the rate row.
    Region ``i`` has the rows ``rows[i]``, padded by repeating its first
    row so that every region has as many, with right-hand sides
    ``values.ravel()[names[i]]``, and the rate slope ``slope[i]``.
    """

    c: np.ndarray
    systems: np.ndarray
    rhs: np.ndarray
    region: np.ndarray
    own: np.ndarray
    rows: np.ndarray
    names: np.ndarray
    slope: np.ndarray


@functools.lru_cache(maxsize=_CACHED_LINKS)
def _vertex_table(m, n):
    """The vertex systems of the ``m``-by-``n`` link, built on first use.

    A vertex is a point where ``n`` independent constraints of a region,
    possibly including ``delivered rate = r``, hold with equality.  The
    constraint rows are integer and do not depend on alpha or ``r``, so
    which ``n``-subsets are solvable is settled once per link.
    """
    c = eigen_decay_weights(m, n)
    width = n + 4  # the most rows a region has
    parts, rows, names, slope = [], [], [], []
    for i, (p, q) in enumerate(itertools.product(range(n + 1), repeat=2)):
        a, b, g = _region(c, p, q)
        k = a.shape[0]
        # Row k is the rate equation g @ v = r - g0.
        mat = np.vstack([a, g])
        rhs = np.zeros((k + 1, 2), dtype=np.intp)
        rhs[:k, 0] = b
        rhs[k] = (_NEG_G0, _ONE)
        subsets = np.array(list(itertools.combinations(range(k + 1), n)))
        # The rows have integer entries, so a nonsingular system has
        # |det| >= 1.
        subsets = subsets[np.abs(np.linalg.det(mat[subsets])) > 0.5]
        parts.append((mat[subsets], rhs[subsets] + len(_RHS_NAMES) * i,
                      np.full(len(subsets), i), (subsets < k).all(axis=1)))
        pad = np.zeros(width - k, dtype=np.intp)
        rows.append(np.vstack([a, a[pad]]))
        names.append(np.concatenate([b, b[pad]]) + len(_RHS_NAMES) * i)
        slope.append(g)
    table = _VertexTable(c, *(np.concatenate(x) for x in zip(*parts)),
                         np.array(rows), np.array(names), np.array(slope))
    for array in table:
        array.flags.writeable = False
    return table


def _evaluate(v, rows, edge, c):
    """Which vertices ``v`` (systems by probes by directions) lie inside
    their regions' ``rows`` (to ``edge``), and what each costs."""
    inside = (v @ rows.transpose(0, 2, 1) >= edge[:, None, :]).all(axis=2)
    return inside, v @ c


def exact_oracle_curve(cfg, r_probes):
    """Exact minimum decay cost of an outage-forcing fade pattern per probe.

    Returns ``(left_limit, attained)`` arrays: the infimum over patterns
    that deliver strictly less than ``r`` (what :func:`outage_condition`
    tests), and the minimum over patterns that deliver at most ``r``.  The
    two differ only where the exponent jumps.

    The program is linear on each of the ``(n + 1)**2`` regions of
    :func:`_region`, so its minimum over a region sits at a vertex: a point
    where ``n`` independent region constraints, possibly including
    ``delivered rate = r``, hold with equality.  Each link's vertex systems
    are built once per process (:func:`_vertex_table`, cached per link);
    every call solves them at its alpha, each vertex as an affine function
    of ``r``.  A region's minimum is continuous in ``r`` wherever the region
    can deliver less than ``r``, so the left limit keeps only those regions;
    the attained value keeps the regions that can deliver ``r`` itself.
    """
    n = cfg.n_rx
    if n > _MAX_RX:
        raise ValueError(
            f"exact enumeration supports at most {_MAX_RX} fade directions, got {n}")
    rs = np.asarray([_validate_probe(cfg, r) for r in r_probes], dtype=float)
    if not rs.size:
        return rs, rs.copy()
    table = _vertex_table(cfg.m_tx, n)
    values = _rhs_values(table.c, cfg.alpha)
    sol = np.linalg.solve(table.systems, values.ravel()[table.rhs])
    edge = values.ravel()[table.names] - _EDGE_TOL
    within = rs * (1.0 + _RATE_TOL)

    # The own vertices of a region (off the rate row) solve to a zero r
    # column: each is one point at every probe, delivering a constant rate,
    # and the least rate of those inside is the region's floor.  These
    # products are formed on stacks of two equal rows, which NumPy
    # multiplies as it does one region's strided solutions, so they round
    # as in a region-by-region solve.
    own = sol[table.own]
    region = table.region[table.own]
    pair = np.broadcast_to(own[:, None, :, 0], (len(own), 2, n))
    rate = (np.matmul(pair, table.slope[region][:, :, None])[:, 0, 0]
            + values[region, _G0])
    inside = (np.matmul(pair, table.rows[region].transpose(0, 2, 1))[:, 0]
              >= edge[region]).all(axis=1)
    floor = np.full(len(values), np.inf)
    np.minimum.at(floor, region[inside], rate[inside])
    # No vertex of a region whose floor lies above the probe counts, though
    # the edge slack may admit one just outside the region.
    counts = floor[:, None] <= within
    # With no depth past alpha and no term clipped, every pattern delivers
    # n + n * (c @ v) - sum(v) >= n: this region forces no outage below
    # full rate.  One ulp below n lies inside the rate slack, so the region
    # is kept out below n by name.
    counts[0] &= rs >= n
    below = counts & (floor[:, None] < rs * (1.0 - _EDGE_TOL))

    # At the probes, an own vertex is tested once, at the first two probes:
    # NumPy forms these products as matrix products, as it does over all
    # the probes, while for a lone probe it takes vector products, which can
    # round differently.  In rate order, an own vertex counts from the first
    # probe that it and its region's floor deliver no more than, and towards
    # the left limit from the first that its floor also delivers less than:
    # every condition holds from some probe on.
    inside, cost = _evaluate(own[:, None, :, 0] + rs[:2, None] * own[:, None, :, 1],
                             table.rows[region], edge[region], table.c)
    inside, cost = inside[:, 0], cost[inside[:, 0], 0]
    order = np.argsort(rs, kind="stable")
    start = np.maximum(np.searchsorted(within[order], rate),
                       rs.size - counts.sum(axis=1)[region])
    start_below = np.maximum(start, rs.size - below.sum(axis=1)[region])
    left_limit, attained = np.empty(rs.size), np.empty(rs.size)
    for out, first in ((left_limit, start_below), (attained, start)):
        best = np.full(rs.size + 1, np.inf)
        np.minimum.at(best, first[inside], cost)
        out[order] = np.minimum.accumulate(best[:-1])

    # A vertex on the rate row delivers r by construction, to the rounding
    # of its solve (about 1e-13 absolute at worst on links with m <= 6), so
    # its rate is not tested.  These move with r, and are tested at every
    # probe, a block of systems at a time.
    moving = sol[~table.own]
    region = table.region[~table.own]
    for lo in range(0, len(moving), _SYSTEM_BLOCK):
        block = slice(lo, lo + _SYSTEM_BLOCK)
        at = region[block]
        v = moving[block, None, :, 0] + rs[None, :, None] * moving[block, None, :, 1]
        inside, cost = _evaluate(v, table.rows[at], edge[at], table.c)
        cost = np.where(inside & counts[at], cost, np.inf)
        attained = np.minimum(attained, cost.min(axis=0))
        left_limit = np.minimum(
            left_limit, np.where(below[at], cost, np.inf).min(axis=0))
    return left_limit, attained

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
# (n + 1)**2 regions: 5,891 systems at n = 6, of which 3,763 are distinct.
# For 120 probes on a 6x6 link a call takes about 0.05 s when it first builds
# and solves the link's systems and 0.012 s once they are cached (2-core VM,
# one BLAS thread).  The tests check the oracle up to six directions, so larger
# links are refused.
_MAX_RX = 6
# Links whose vertex systems stay cached.
_CACHED_LINKS = 32
# Vertex systems per block when probes are evaluated, so that a link's
# systems-by-probes-by-rows product is never formed whole.
_SYSTEM_BLOCK = 32
# Slack on every test of a vertex against a region constraint, and on a
# region's floor below a probe for the left limit: above the rounding of a
# six-by-six solve and of forming the vertex at alpha (at most 7.1e-15 on
# the rows that an own vertex solves, on links with m <= 6 at alpha <= 2),
# and small enough that the slightly infeasible vertices it admits keep the
# exponent well inside the 1e-9 agreement ``oracle-check`` asks for (worst
# seen: 5e-10 absolute, on a 6x6 link at alpha = 1e-12).
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

    No package code calls it, :func:`exact_oracle_curve` included.  It
    stays as the written definition of outage that the oracle's properties
    are tested against.
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


def _region(c, p, q):
    """Linear pieces of the outage program on one region of fade space.

    On the region where the ``p`` deepest depths reach ``alpha`` (so the
    boost caps them) and the ``q`` deepest rate terms are clipped to zero,
    every rate term ``1 - v_j + boost`` is affine in ``v``, with the shared
    intercept ``t0 = 1 + alpha * c[:p].sum()``.  Returns the region as rows
    ``A @ v >= b`` (depth ordering, ``v_n >= 0``, and the two sides of each
    split), each ``b`` as its coefficients on ``(1, alpha)``, and the slope
    ``g`` of the delivered rate ``g @ v + (n - q) * t0``.
    """
    n = c.size
    eye = np.eye(n)
    # Row j: slope of rate term j.
    term = np.where(np.arange(n) >= p, c, 0.0) - eye
    t0 = np.array([1.0, c[:p].sum()])
    rows = [eye[j] - eye[j + 1] for j in range(n - 1)] + [eye[n - 1]]
    rhs = [(0.0, 0.0)] * n
    if p > 0:
        rows.append(eye[p - 1])
        rhs.append((0.0, 1.0))
    if p < n:
        rows.append(-eye[p])
        rhs.append((0.0, -1.0))
    if q > 0:
        rows.append(-term[q - 1])
        rhs.append(t0)
    if q < n:
        rows.append(term[q])
        rhs.append(-t0)
    return np.array(rows), np.array(rhs), term[q:].sum(axis=0)


class _VertexTable(NamedTuple):
    """Every distinct solvable vertex system of one link, solved once.

    Own systems leave out the rate row, so their vertex ``own[0, s] + alpha
    * own[1, s]`` does not move with ``r``; a moving system's vertex is
    ``moving[0, s] + alpha * moving[1, s] + r * moving[2, s]``.  It lies in
    region ``own_region[s]`` or ``moving_region[s]`` (regions ``(p, q)`` in
    row-major order).  Region ``i`` asks ``rows[i, :-2] @ v >= edge[0, i] +
    alpha * edge[1, i]``, its rows padded by repeating its first row so that
    every region has as many; then ``rows[i, -2] @ v`` is the decay cost and
    ``rows[i, -1] @ v + intercept[0, i] * (1 + alpha * intercept[1, i])``
    the delivered rate.
    """

    own: np.ndarray
    own_region: np.ndarray
    moving: np.ndarray
    moving_region: np.ndarray
    rows: np.ndarray
    edge: np.ndarray
    intercept: np.ndarray


@functools.lru_cache(maxsize=_CACHED_LINKS)
def _vertex_table(m, n):
    """The vertex systems of the ``m``-by-``n`` link, built on first use.

    A vertex is a point where ``n`` independent constraints of a region,
    possibly including ``delivered rate = r``, hold with equality.  The
    constraint rows are integer and do not depend on alpha or ``r``, and the
    right-hand sides are affine in ``(1, alpha, r)``, so each system is
    solved once per link, against one column per coefficient.
    """
    c = eigen_decay_weights(m, n)
    width = n + 4  # the most rows a region has
    parts, rows, edge, intercept = [], [], [], []
    for i, (p, q) in enumerate(itertools.product(range(n + 1), repeat=2)):
        a, b, g = _region(c, p, q)
        k = a.shape[0]
        # Row k is the rate equation g @ v = r - (n - q) * t0.
        mat = np.vstack([a, g])
        rhs = np.zeros((k + 1, 3))
        rhs[:k, :2] = b
        rhs[k] = (q - n, (q - n) * c[:p].sum(), 1.0)
        subsets = np.array(list(itertools.combinations(range(k + 1), n)))
        # The rows have integer entries, so a nonsingular system has
        # |det| >= 1.
        subsets = subsets[np.abs(np.linalg.det(mat[subsets])) > 0.5]
        parts.append((mat[subsets], rhs[subsets], np.full(len(subsets), i),
                      (subsets < k).all(axis=1)))
        pad = np.zeros(width - k, dtype=np.intp)
        rows.append(np.vstack([a, a[pad], c, g]))
        edge.append(np.concatenate([b, b[pad]]).T)
        intercept.append((n - q, c[:p].sum()))
    systems, rhs, region, own = (np.concatenate(x) for x in zip(*parts))
    # Adding zero turns every -0 into +0, so that equal vertices are bitwise
    # equal.  Of the systems of a region with one solution, which reads the
    # same at every alpha and r, only the first is kept.  An own system's r
    # column is zero.
    solution = np.linalg.solve(systems, rhs) + 0.0
    key = np.column_stack([region, solution.reshape(len(region), -1)])
    _, first = np.unique(key.view(np.dtype((np.void, key.itemsize * key.shape[1]))),
                         return_index=True)
    keep = np.isin(np.arange(len(region)), first)
    vertices = []
    for subset, columns in ((own & keep, 2), (~own & keep, 3)):
        vertices += [solution[subset, :, :columns].transpose(2, 0, 1).copy(), region[subset]]
    table = _VertexTable(*vertices, np.array(rows), np.stack(edge, axis=1),
                         np.array(intercept, dtype=float).T.copy())
    for array in table:
        array.flags.writeable = False
    return table


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
    are built and solved once per process (:func:`_vertex_table`, cached
    per link), each vertex as an affine function of ``(1, alpha, r)``, so a
    call only forms the vertices at its alpha and probes and tests them.
    Every product is a matrix product whose columns round alike at any
    probe count, so a probe reads the same alone as among others.  A
    region's minimum is continuous in ``r`` wherever the region can deliver
    less than ``r``, so the left limit keeps only those regions; the
    attained value keeps the regions that can deliver ``r`` itself.
    """
    n = cfg.n_rx
    if n > _MAX_RX:
        raise ValueError(
            f"exact enumeration supports at most {_MAX_RX} fade directions, got {n}")
    rs = np.array(r_probes, dtype=float)
    if rs.ndim != 1 or not ((rs > 0.0) & (rs <= n)).all():
        # Probe by probe, so that the error names the first bad probe.
        rs = np.asarray([_validate_probe(cfg, r) for r in r_probes], dtype=float)
    if not rs.size:
        return rs, rs.copy()
    table = _vertex_table(cfg.m_tx, n)
    alpha = cfg.alpha
    size = rs.size
    # A lone probe is evaluated twice, so that every product below is a
    # matrix product, whose columns round alike at any probe count.
    rs = np.repeat(rs, 2) if size == 1 else rs
    edge = table.edge[0] + alpha * table.edge[1] - _EDGE_TOL
    within = rs * (1.0 + _RATE_TOL)

    # The own vertices of a region (off the rate row) do not move with r:
    # each is one point at every probe, delivering a constant rate, and the
    # least rate of those inside is the region's floor.  Each is tested
    # once, as two equal columns, which round as any probe's column does.
    region = table.own_region
    v = np.repeat((table.own[0] + alpha * table.own[1])[:, :, None], 2, axis=2)
    prod = (table.rows[region] @ v)[:, :, 0]
    inside = (prod[:, :-2] >= edge[region]).all(axis=1)
    cost = prod[inside, -2]
    g0 = table.intercept[0] * (1.0 + alpha * table.intercept[1])
    rate = prod[:, -1] + g0[region]
    floor = np.full(len(table.rows), np.inf)
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

    # In rate order, an own vertex counts from the first probe that it and
    # its region's floor deliver no more than, and towards the left limit
    # from the first that its floor also delivers less than: every
    # condition holds from some probe on.
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
    # of its solve and of forming it (under 1e-12 absolute on links with
    # m <= 6 at alpha <= 2), so its rate is not tested.  These move with r,
    # and are tested at every probe, a block of systems at a time.
    moving, region = table.moving, table.moving_region
    at_alpha = moving[0] + alpha * moving[1]
    for lo in range(0, len(region), _SYSTEM_BLOCK):
        block = slice(lo, lo + _SYSTEM_BLOCK)
        at = region[block]
        v = at_alpha[block, :, None] + moving[2, block, :, None] * rs
        prod = table.rows[at, :-1] @ v
        inside = (prod[:, :-1] >= edge[at][:, :, None]).all(axis=1)
        cost = np.where(inside & counts[at], prod[:, -1], np.inf)
        attained = np.minimum(attained, cost.min(axis=0))
        left_limit = np.minimum(
            left_limit, np.where(below[at], cost, np.inf).min(axis=0))
    return left_limit[:size], attained[:size]

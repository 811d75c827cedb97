"""Closed-form diversity-multiplexing tradeoff under imperfect transmit CSI.

Rates scale as ``r * log2(rho)`` and outage probability decays as
``rho ** -d(r)``; this module builds ``d(r)`` exactly as a piecewise-linear
curve for a power-adaptation scheme driven by a channel estimate whose error
variance decays like ``rho ** -alpha``.

The curve is assembled from per-cardinality "deep fade" events: the event
that exactly ``k`` spatial directions fade too deeply to support the target
rate.  Each cardinality ``k`` contributes a diversity line; which
cardinalities actually shape the final curve depends on ``alpha`` and the
antenna counts, and when several do, the curve is discontinuous in ``r``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "DmtCurve",
    "DmtSegment",
    "active_indices",
    "baseline_no_csit",
    "baseline_rate_adaptation",
    "candidate_indices",
    "compute_dmt_curve",
    "diversity_boost",
    "eval_dmt",
    "eval_dmt_jump",
    "eval_dmt_left_limit",
    "subset_diversity",
]

_BOUNDARY_SNAP = 1e-9


@dataclass(frozen=True)
class DmtSegment:
    """One linear piece of the tradeoff curve.

    The piece spans ``[r_left, r_right)`` except the final piece, which also
    owns its right endpoint.  ``d_left``/``d_right`` are the diversity values
    at the two ends of the closure of the span; at an interior boundary the
    curve jumps, so the left piece's ``d_right`` is only the limit from the
    left while the right piece's ``d_left`` is the attained value.
    """

    k: int
    r_left: float
    d_left: float
    r_right: float
    d_right: float
    left_closed: bool = True
    right_closed: bool = False


@dataclass(frozen=True)
class DmtCurve:
    """Piecewise-linear diversity curve plus the structure that built it."""

    segments: tuple
    case_tag: str
    active_set: tuple
    boost_table: dict


def diversity_boost(cfg, k):
    """Power-gain factor earned by adapting against a depth-``k`` fade.

    Equals ``1 + k * alpha * (m - n + k)``; the trivial cardinality ``k=0``
    earns no boost.
    """
    k = int(k)
    if k < 0 or k > cfg.n_rx:
        raise ValueError(f"k must lie in [0, {cfg.n_rx}], got {k}")
    if k == 0:
        return 1.0
    return 1.0 + k * cfg.alpha * (cfg.m_tx - cfg.n_rx + k)


def candidate_indices(cfg):
    """Fade cardinalities whose deep-fade event is rate-limiting at all.

    Cardinality ``k`` qualifies when its boosted fade still cannot carry the
    full spatial rate of the remaining directions, i.e. when
    ``alpha * (m - n + k) * (n - k) < 1`` strictly.
    """
    m, n, alpha = cfg.m_tx, cfg.n_rx, cfg.alpha
    # Evaluated left-to-right so the boundary behavior is reproducible at
    # alphas that are themselves rounded quotients.
    return {k for k in range(1, n + 1) if alpha * (m - n + k) * (n - k) < 1.0}


def _reach(cfg, k):
    """Smallest multiplexing gain at which cardinality ``k`` can bind."""
    return (cfg.n_rx - k) * diversity_boost(cfg, k)


def active_indices(cfg):
    """Candidates that actually shape the curve, with their predecessors.

    Scanning candidates in increasing ``k``, a cardinality is active when its
    reach (the left end of the span it could govern) is strictly below every
    smaller active cardinality's reach.  Returns ``(active, predecessor)``
    where ``predecessor[k]`` is the next smaller active cardinality (0 for
    the smallest).
    """
    active = []
    pred = {}
    best = math.inf
    prev = 0
    for k in sorted(candidate_indices(cfg)):
        reach = _reach(cfg, k)
        if reach < best:
            active.append(k)
            pred[k] = prev
            best = reach
            prev = k
    return active, pred


def compute_dmt_curve(cfg):
    """Build the full piecewise-linear diversity curve for ``cfg``.

    When only the full cardinality ``n`` is active the curve is a single
    continuous line (reported with ``k = 0`` and tag ``"single_line"``);
    otherwise each active cardinality owns one piece and the curve jumps down
    at each interior boundary (tag ``"discontinuous"``).
    """
    m, n = cfg.m_tx, cfg.n_rx
    active, pred = active_indices(cfg)
    boost = {k: diversity_boost(cfg, k) for k in active}
    boost[0] = 1.0
    segments = []
    for k in sorted(active, reverse=True):
        i = pred[k]
        tau_k = boost[k]
        r_left = (n - k) * tau_k
        r_right = (n - i) * boost[i]
        d_left = k * (m - n + k) * tau_k
        d_right = ((n - k) * (k - n - 1) + m * n) * tau_k \
            - (2 * k - 1 + m - n) * r_right
        segments.append(DmtSegment(
            k=k,
            r_left=float(r_left),
            d_left=float(d_left),
            r_right=float(r_right),
            d_right=float(d_right),
            left_closed=True,
            right_closed=(i == 0),
        ))
    if len(segments) == 1:
        seg = segments[0]
        segments = [DmtSegment(
            k=0,
            r_left=seg.r_left, d_left=seg.d_left,
            r_right=seg.r_right, d_right=seg.d_right,
            left_closed=True, right_closed=True,
        )]
        case_tag = "single_line"
    else:
        case_tag = "discontinuous"
    return DmtCurve(
        segments=tuple(segments),
        case_tag=case_tag,
        active_set=tuple(active),
        boost_table={k: boost[k] for k in active},
    )


def eval_dmt(curve, r):
    """Diversity at multiplexing gain ``r``; boundaries belong to the right.

    Exact endpoint queries return the stored endpoint values bit for bit;
    interior queries interpolate linearly within the owning piece.
    """
    r = float(r)
    segments = curve.segments
    last = segments[-1]
    if not (segments[0].r_left <= r <= last.r_right):
        raise ValueError(
            f"r must lie in [{segments[0].r_left}, {last.r_right}], got {r}")
    for seg in segments:
        if r < seg.r_right or seg is last:
            if r == seg.r_left:
                return seg.d_left
            if r == seg.r_right:
                return seg.d_right
            frac = (r - seg.r_left) / (seg.r_right - seg.r_left)
            return seg.d_left + frac * (seg.d_right - seg.d_left)
    raise AssertionError("unreachable")


def _piece_ending_at(curve, r):
    """The piece whose right end lies within ``_BOUNDARY_SNAP`` of ``r``."""
    for seg in curve.segments:
        if abs(r - seg.r_right) <= _BOUNDARY_SNAP:
            return seg
    return None


def eval_dmt_left_limit(curve, r):
    """Like :func:`eval_dmt` but returns the limit from the left at a piece
    boundary (within ``1e-9``), where the curve may jump."""
    r = float(r)
    seg = _piece_ending_at(curve, r)
    return eval_dmt(curve, r) if seg is None else seg.d_right


def eval_dmt_jump(curve, r):
    """``(boundary, left limit, attained value)`` of a jump within ``1e-9``
    of ``r``.

    Both sides are taken at the boundary itself, not at ``r``.  Returns
    ``None`` when no boundary lies that close or the curve drops there by
    no more than ``1e-9``.
    """
    seg = _piece_ending_at(curve, float(r))
    if seg is None:
        return None
    value = eval_dmt(curve, seg.r_right)
    if seg.d_right - value <= _BOUNDARY_SNAP:
        return None
    return seg.r_right, seg.d_right, value


def subset_diversity(cfg, k, r):
    """Diversity of the depth-``k`` fade event alone at multiplexing ``r``.

    Infinite when cardinality ``k`` is not rate-limiting at all, or when
    ``r`` lies below its reach ``(n - k) * boost`` (the event then cannot
    cause outage).  From the reach on, the value is convex and decreasing
    in ``r``: its corners sit at ``(n - j) * boost - (k - j) * alpha`` for
    ``j = k, k - 1, ..., 1``, rising as ``j`` falls, and ``r`` belongs to
    the piece of the smallest ``j`` whose corner does not exceed it, which
    falls with slope ``2j - 1 + m - n``.  A depth-``k`` outage pattern is
    an outage pattern, so the value never falls below the curve ``d(r)``,
    and its minimum over ``k`` is ``d(r)``.
    """
    k = int(k)
    n, m, alpha = cfg.n_rx, cfg.m_tx, cfg.alpha
    if k < 1 or k > n:
        raise ValueError(f"k must lie in [1, {n}], got {k}")
    r = float(r)
    if k not in candidate_indices(cfg):
        return math.inf
    tau = diversity_boost(cfg, k)
    if r < (n - k) * tau:
        return math.inf
    # Corner j = k is the reach itself, so some corner always qualifies.
    kprime = min(j for j in range(1, k + 1)
                 if (n - j) * tau - (k - j) * alpha <= r)
    return float(
        ((n - kprime) * (kprime - n - 1) + m * n) * tau
        + (k - kprime + 1) * (k - kprime) * alpha
        - (2 * kprime - 1 + m - n) * r)


def baseline_no_csit(cfg):
    """Tradeoff with no transmitter knowledge: ``alpha = 0`` reference.

    The classic piecewise-linear curve through the corners
    ``(j, (m - j) * (n - j))``, returned in the same curve container with a
    single-cardinality labeling of ``k = 0`` per piece.
    """
    m, n = cfg.m_tx, cfg.n_rx
    segments = []
    for j in range(n):
        segments.append(DmtSegment(
            k=0,
            r_left=float(j),
            d_left=float((m - j) * (n - j)),
            r_right=float(j + 1),
            d_right=float((m - j - 1) * (n - j - 1)),
            left_closed=True,
            right_closed=(j == n - 1),
        ))
    return DmtCurve(
        segments=tuple(segments),
        case_tag="single_line" if n == 1 else "continuous",
        active_set=(),
        boost_table={},
    )


def baseline_rate_adaptation(cfg):
    """Single-antenna reference that adapts rate instead of power.

    Only defined when one side has a single antenna (``n == 1``); the scheme
    backs the rate off according to the estimate and achieves the line from
    ``(0, K * (1 + alpha))`` to ``(1, K * alpha)`` with ``K`` the larger
    antenna count.
    """
    m, n, alpha = cfg.m_tx, cfg.n_rx, cfg.alpha
    if n != 1:
        raise ValueError("rate-adaptation baseline needs a single-antenna side")
    segment = DmtSegment(
        k=0,
        r_left=0.0,
        d_left=float(m * (1.0 + alpha)),
        r_right=1.0,
        d_right=float(m * alpha),
        left_closed=True,
        right_closed=True,
    )
    return DmtCurve(
        segments=(segment,),
        case_tag="single_line",
        active_set=(),
        boost_table={},
    )

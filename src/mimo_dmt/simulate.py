"""Finite-SNR outage Monte Carlo for the estimate-driven power policy.

The transmitter scales its power by ``kappa * (prod of estimate eigenvalues
raised to damped decay weights) ** -t``: deeper estimated fades earn more
power.  ``kappa`` normalizes the long-run average power back to the budget;
it is the reciprocal of the mean weight, which a Gauss–Jacobi tensor rule
over the ratios of the ordered eigenvalues computes, refined until two
successive rules agree to 1e-10 relative, on links with at most six receive
antennas.  The rule's nodes are the eigenvalues of its Jacobi matrix, from
NumPy's ``eigvalsh``, so a sweep loads ``scipy.special`` but not
``scipy.linalg``.  A :class:`PowerPolicy` sets only ``t``: a sweep always
computes its kappa.

A sweep draws each trial once and reuses it at every SNR point.  At
constant power (``t = 0``) the drawn bidiagonal ``[B 0]`` is the channel's,
and a span reads no estimate: the error's uniforms are drawn but not
transformed.  Under damping the estimate is drawn first (see
:mod:`~mimo_dmt.channel`): at point ``g`` it is ``sqrt(s_g) [B 0]``, with
``s_g = 1 + rho_g ** -alpha``, and the channel is ``X / sqrt(s_g)`` with
``X = [B 0] + c_g e``.  As the mean damped weight is a scale family in
``s``, ``kappa_g`` times the estimate's weight is the weight of ``[B 0]``
over the mean at ``s = 1``: a span reads each trial's weight once, and
each point scales it by one number.  Outage, ``log det(I + P H H^H) < r log
rho``, is tested as ``det(I + P H H^H) < rho ** r`` with no logarithm and
no spectrum.  Counting is counter-partitioned: any number of worker threads
reproduces the single-thread result bit for bit.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import (
    EstimateMinors,
    GramPolynomial,
    _horner,
    _integer,
    bidiagonal_minor_sums,
    eigen_decay_weights,
    sample_channel_block,
    wishart_log_norm_const,
)

__all__ = [
    "OutageSweep",
    "PowerPolicy",
    "calibrate_kappa",
    "run_sweep",
]

_MIN_TRIALS = 1000
_MIN_RHO_RATIO = 100.0
_MIN_EVENTS_FOR_FIT = 20
_TRIAL_CHUNK = 32_768
# The oracle's bound (``oracle._MAX_RX``).  Kappa's quadrature costs
# points**(n-1): on 7x7 it took 0.8 s at t 0.9 and 25 s at t 0.2, and 32
# points per axis did not settle it at t 0.01.
_MAX_DAMPED_RX = 6


@dataclass(frozen=True)
class PowerPolicy:
    """Power-adaptation settings.

    ``t`` in ``[0, 1)`` is the damping of the fade-inversion exponent
    (0 = constant power).  The average-power normalizer kappa is not a
    setting: a sweep computes it exactly (:func:`calibrate_kappa`).
    """

    t: float = 0.9

    def __post_init__(self):
        t = float(self.t)
        if not (0.0 <= t < 1.0):
            raise ValueError(f"damping t must lie in [0, 1), got {self.t}")
        object.__setattr__(self, "t", t)


@dataclass(frozen=True)
class OutageSweep:
    """Monte Carlo outage probabilities across an SNR grid."""

    rho_grid: list
    p_out: list
    ci_half_width: list
    fitted_slope: float
    trials: int


def _gauss_jacobi(points, b):
    """Nodes and weights of the ``points``-point Gauss rule on ``[-1, 1]``
    for the weight ``(1 + x) ** b``, ``b > -1``: those of
    ``scipy.special.roots_jacobi(points, 0, b)`` bit for bit, without the
    ``scipy.linalg`` that it loads for a banded eigensolver.

    The nodes are the eigenvalues of the rule's Jacobi matrix (Golub &
    Welsch, Math. Comp. 23, 1969), dense and at most 32 x 32 here, from
    NumPy's ``eigvalsh``.  The rest repeats SciPy's arithmetic: one Newton
    step on the degree-``points`` polynomial refines the nodes, each weight
    is the reciprocal of the derivative times the polynomial of one degree
    less, both log-normalised, and the weights are rescaled to sum to the
    weight's integral ``mu0``.  At ``b = 0`` the Jacobi recurrence's first
    term is 0/0, and SciPy, as here, takes the Legendre route instead,
    which symmetrises the nodes and weights.
    """
    from scipy.special import beta, betaln, eval_jacobi, eval_legendre

    k = np.arange(1.0, points)
    if b == 0.0:
        diag = np.zeros(points)
        off = k * np.sqrt(1.0 / (4 * k * k - 1))
        mu0 = 2.0
        f = eval_legendre

        def df(n, x):
            return (-n * x * eval_legendre(n, x)
                    + n * eval_legendre(n - 1, x)) / (1 - x ** 2)
    else:
        diag = np.empty(points)
        diag[0] = b / (2 + b)
        diag[1:] = b * b / ((2.0 * k + b) * (2.0 * k + b + 2))
        root = np.sqrt(k * (k + b) / (2.0 * k + b - 1))
        root[0] = 1.0
        off = 2.0 / (2.0 * k + b) * np.sqrt(k * (k + b) / (2 * k + b + 1)) * root
        # SciPy's guard against overflow in the power and the beta function.
        if b <= 1000:
            mu0 = 2.0 ** (b + 1) * beta(1.0, b + 1)
        else:
            mu0 = np.exp((b + 1) * np.log(2.0) + betaln(1.0, b + 1))

        def f(n, x):
            return eval_jacobi(n, 0.0, b, x)

        def df(n, x):
            return 0.5 * (n + b + 1) * eval_jacobi(n - 1, 1.0, b + 1, x)
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(off, -1))
    dy = df(points, x)
    x -= f(points, x) / dy
    fm = f(points - 1, x)
    # Both factors span many decades; each is scaled by the midpoint of its
    # log range before they are multiplied.
    for v in (fm, dy):
        log_v = np.log(np.abs(v))
        v /= np.exp((log_v.max() + log_v.min()) / 2.0)
    w = 1.0 / (fm * dy)
    if b == 0.0:
        w = (w + w[::-1]) / 2
        x = (x - x[::-1]) / 2
    return x, w * (mu0 / w.sum())


def _ratio_rule_sum(a, power, points):
    """Gauss–Jacobi tensor rule, ``points`` nodes per axis, for the mean
    weight's integral over the unit cube of eigenvalue ratios ``u_1 ..
    u_{n-1}`` (see :func:`_log_mean_weight`): ``prod_j u_j ** (a_j - 1)``
    is each axis's rule weight, and the rule sums the smooth remainder
    ``prod_{i<j} (1 - pi_i / pi_j) ** 2 * S ** -power``.

    The last axis is summed in a loop.  Every ``pi_k`` but ``pi_n = 1``
    carries ``u_{n-1}``, so the gaps among ``pi_1 .. pi_{n-1}`` are formed
    once over the grid of ``u_1 .. u_{n-2}``, and each array holds
    ``points ** (n-2)`` values.
    """
    nodes, weights = [], []
    for a_j in a:
        # u = (1 + x) / 2 maps [-1, 1] to [0, 1], and u**(a-1) du is
        # 2**-a (1 + x)**(a-1) dx.
        x, w = _gauss_jacobi(points, a_j - 1.0)
        nodes.append((1.0 + x) / 2.0)
        weights.append(w * 2.0 ** -a_j)
    dims = len(a) - 1

    def axis(v, j):
        return v.reshape([points if k == j else 1 for k in range(dims)])

    # pi_k / u_{n-1} for k = 1 .. n-1, over the grid of u_1 .. u_{n-2}.
    pis = [np.ones((1,) * dims)]
    inner = np.ones((points,) * dims)
    for j in reversed(range(dims)):
        pis.insert(0, pis[0] * axis(nodes[j], j))
        inner *= axis(weights[j], j)
    for i, pi_i in enumerate(pis):
        for pi_j in pis[i + 1:]:
            inner *= (1.0 - pi_i / pi_j) ** 2
    pi_sum = sum(pis)
    total = 0.0
    f = np.empty(inner.shape)
    for u, w in zip(nodes[-1], weights[-1]):
        np.power(1.0 + u * pi_sum, -power, out=f)
        for pi in pis:
            f *= (1.0 - u * pi) ** 2
        f *= inner
        total += w * float(f.sum())
    return total


def _log_mean_weight(m, n, t):
    """Log of ``E[prod lambda_k ** (-t c_k)]`` over the ordered Gram
    spectrum of an ``n x m`` iid ``CN(0, 1)`` matrix, with decay weights
    ``c`` (:func:`~mimo_dmt.channel.eigen_decay_weights`), by quadrature.

    With ``p_k = (m - n) - t c_k`` the expectation integrates ``prod
    lambda_k ** p_k * prod_{i<j} (lambda_j - lambda_i) ** 2 * exp(-sum
    lambda)`` over the ascending spectrum, over the density's normalizer
    (:func:`~mimo_dmt.channel.wishart_log_norm_const`).  Substitute
    ``lambda_n = y`` and ``lambda_k = lambda_{k+1} u_k``, so that
    ``lambda_k = y pi_k`` with ``pi_k = prod_{j>=k} u_j``, and let ``S =
    sum pi_k``.  Then ``y`` integrates in closed form to ``Gamma(N+1) S **
    (-N-1)`` with ``N = sum p_k + n**2 - 1``, and what is left is an
    ``(n-1)``-cube integral whose endpoint powers ``u_j ** (a_j - 1)``,
    ``a_j = 1 + sum_{k<=j} p_k + (j - 1) + j (j - 1)``, a Gauss–Jacobi rule
    takes exactly on each axis.  Its nodes are the eigenvalues of the rule's
    Jacobi matrix from NumPy's ``eigvalsh`` (:func:`_gauss_jacobi`).  One
    receive antenna needs no rule.

    The rule starts at 12 points per axis and adds 4 until two successive
    rules agree to 1e-10 relative; a link that 32 points do not settle is
    a ``ValueError``, as is one whose rule leaves the normal floats (its sum
    underflows at 700x2 and t 0.2), with no ``RuntimeWarning``.
    """
    # Imported on first use: only sweeps need SciPy, and it is slow to load.
    from scipy.special import gammaln

    p = (m - n) - t * eigen_decay_weights(m, n)
    power = float(p.sum()) + n * n
    log_const = float(gammaln(power)) - wishart_log_norm_const(m, n)
    if n == 1:
        return log_const
    j = np.arange(1, n)
    a = 1.0 + np.cumsum(p)[:-1] + (j - 1) + j * (j - 1)
    previous = math.nan
    for points in range(12, 33, 4):
        try:
            with np.errstate(all="raise", under="ignore"):
                value = _ratio_rule_sum(a, power, points)
        except FloatingPointError:
            value = 0.0
        if value < np.finfo(np.float64).tiny:
            raise ValueError(
                f"kappa's quadrature leaves the float range on a {m}x{n} link "
                f"at t={t}: its integrand's powers grow with m - n")
        if abs(value - previous) <= 1e-10 * value:
            return log_const + math.log(value)
        previous = value
    raise ValueError(
        f"kappa's quadrature does not converge at 32 points per axis on a "
        f"{m}x{n} link at t={t}")


def calibrate_kappa(cfg, rho, policy):
    """Normalizer that restores the average-power budget for ``policy``.

    With no damping the power is already constant at the budget, so the
    normalizer is exactly 1.  Otherwise ``kappa`` is the reciprocal of the
    mean damped weight of the estimate, whose entries have variance ``s =
    1 + rho ** -alpha``: ``s ** (t m n)`` over the mean at ``s = 1``
    (:func:`_log_mean_weight`), since the decay weights sum to ``m n``.
    The quadrature covers links with at most six receive antennas, and a
    kappa past the largest float is a ``ValueError``.
    """
    rho = float(rho)
    if not (rho > 0.0):
        raise ValueError(f"rho must be positive, got {rho}")
    t = policy.t
    if t == 0.0:
        return 1.0
    m, n = cfg.m_tx, cfg.n_rx
    if n > _MAX_DAMPED_RX:
        raise ValueError(
            f"a damped power policy supports at most {_MAX_DAMPED_RX} receive "
            f"antennas, got {n}: kappa's quadrature grows as points**(n-1)")
    s = 1.0 + rho ** -cfg.alpha
    try:
        return math.exp(t * m * n * math.log(s) - _log_mean_weight(m, n, t))
    except OverflowError:
        raise ValueError(f"kappa passes the largest float at rho={rho}: the "
                         f"power normalizer is finite only at a larger SNR") from None


def _power_scales(cfg, rho, policy):
    """Per SNR point, the factor by which a span multiplies each trial's
    weight to get the power it reads: ``rho_g / m`` at constant power, and
    ``rho_g / (m * s_g * mean)`` under damping, ``1 / mean`` being ``kappa_0
    * s_0 ** (-t m n)`` (see the module docstring)."""
    kappa = calibrate_kappa(cfg, rho[0], policy)
    m = cfg.m_tx
    if policy.t == 0.0:
        return [kappa * rho_g / m for rho_g in rho]
    s = [1.0 + rho_g ** -cfg.alpha for rho_g in rho]
    inverse_mean = math.exp(math.log(kappa)
                            - policy.t * m * cfg.n_rx * math.log(s[0]))
    return [inverse_mean * (rho_g / (m * s_g)) for rho_g, s_g in zip(rho, s)]


def _count_outages_span(cfg, rho, r, t, scales, seed, start, count):
    """Outage count per SNR point over trials ``start .. start+count-1``,
    drawn once at ``rho[0]``, under damping ``t``: a trial is in outage
    when ``det(I + P H H^H) < rho_g ** r``, with the power ``P`` its weight
    times ``scales[g]`` (:func:`_power_scales`).

    At ``t = 0`` the weight is 1 and the determinant is ``1 + P e_1 + ... +
    P**n e_n`` over the minor sums of the channel's bidiagonal
    (:func:`~mimo_dmt.channel.bidiagonal_minor_sums`), by Horner's rule.
    At ``t > 0`` the span builds one estimate object from its draws, reads
    each trial's damped weight from it once, at ``c = 0``, and then, one
    point at a time into one reused row, its determinant at ``c_g``.
    """
    damped = t != 0.0
    b, e = sample_channel_block(cfg, rho[0], seed, start=start, count=count,
                                error=damped)
    if damped:
        channel = (EstimateMinors if cfg.n_rx <= 2 else GramPolynomial)(b, e)
    else:
        coeffs = bidiagonal_minor_sums(b)
    del b, e
    if damped:
        # Read once the draws are freed, which bounds the span's peak.
        weight = channel.log_damped_weight(0.0, t)
        np.exp(weight, out=weight)
    counts = []
    det = np.empty(count)
    # A determinant past the largest float reads inf or NaN: no outage
    # either way, as its true value exceeds the finite rho_g ** r.
    with np.errstate(over="ignore", invalid="ignore"):
        for rho_g, scale in zip(rho, scales):
            if damped:
                # c_g = sigma_g / sigma_0, taken as a ratio of SNRs so that
                # large alpha does not underflow.
                c_g = (rho[0] / rho_g) ** (cfg.alpha / 2)
                channel.capacity_det(c_g, weight, scale, det)
            else:
                _horner(det, scale, 1.0, *coeffs)
            counts.append(int(np.count_nonzero(det < rho_g ** r)))
    return counts


def _least_squares_slope(x, y):
    """Slope of the least-squares line through the points ``(x, y)``.

    Closed form in Python floats with ``math.fsum``, so that no BLAS kernel
    takes part and the slope reads the same on every machine."""
    mean_x = math.fsum(x) / len(x)
    mean_y = math.fsum(y) / len(y)
    dx = [a - mean_x for a in x]
    return (math.fsum(d * (b - mean_y) for d, b in zip(dx, y))
            / math.fsum(d * d for d in dx))


def run_sweep(cfg, r, rho_grid, trials, policy, seed, workers=1):
    """Outage probability across an SNR grid, with a fitted decay slope.

    Every point counts the same trials of the seed, drawn at the first
    point, and each point's power scale comes from one kappa, a quadrature
    that draws nothing (:func:`_power_scales`), so results depend only on
    ``(seed, grid)``, never on the worker count.  The scales are computed
    on the calling thread before any span starts, so a link kappa does not
    cover (more than six receive antennas under damping), or an SNR so low
    that kappa passes the largest float or, under damping, that a point's
    power scale underflows to zero, fails before any draw, as does a grid
    whose ``rho ** r`` or error variance ``rho ** -alpha`` overflows.
    The slope is the least-squares fit in log-log coordinates over the
    points with at least ``_MIN_EVENTS_FOR_FIT`` outage events
    (:func:`_least_squares_slope`), and is NaN when fewer than two points
    qualify.
    """
    r = float(r)
    n = cfg.n_rx
    if not (0.0 <= r <= n):
        raise ValueError(f"r must lie in [0, {n}], got {r}")
    trials = _integer(trials, "trials")
    if trials < _MIN_TRIALS:
        raise ValueError(f"need at least {_MIN_TRIALS} trials, got {trials}")
    rho = [float(x) for x in rho_grid]
    bad = [x for x in rho if not math.isfinite(x)]
    if bad:
        raise ValueError(f"rho_grid values must be finite, got {bad[0]}")
    if len(rho) < 2 or any(b <= a for a, b in zip(rho, rho[1:])):
        raise ValueError("rho_grid must be strictly increasing with >= 2 points")
    if rho[0] <= 0.0:
        raise ValueError("rho values must be positive")
    if rho[-1] / rho[0] < _MIN_RHO_RATIO * (1.0 - 1e-12):
        raise ValueError(
            f"rho_grid must span at least a factor of {_MIN_RHO_RATIO} "
            f"for a meaningful slope")
    # A span's outage threshold peaks at the grid's largest point, and the
    # error variance at its smallest.
    for name, base, power in (("r", rho[-1], r), ("-alpha", rho[0], -cfg.alpha)):
        try:
            base ** power
        except OverflowError:
            raise ValueError(f"rho ** {name} must be a finite float at every "
                             f"point; {base} ** {power} overflows") from None
    workers = _integer(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    # Imported on first use: only sweeps need the pool, and loading it
    # would add to every import of the package.
    from concurrent.futures import ThreadPoolExecutor

    scales = _power_scales(cfg, rho, policy)
    for rho_g, scale in zip(rho, scales):
        if scale == 0.0 and policy.t != 0.0:
            raise ValueError(
                f"kappa * rho / (m * s ** (1 + t*m*n)) must be a positive "
                f"float at every point of a damped sweep, s = 1 + rho ** "
                f"-alpha; at rho={rho_g} it underflows to 0")
    with ThreadPoolExecutor(max_workers=workers) as pool:
        per_span = list(pool.map(
            lambda start: _count_outages_span(
                cfg, rho, r, policy.t, scales, seed, start,
                min(_TRIAL_CHUNK, trials - start)),
            range(0, trials, _TRIAL_CHUNK)))
    counts = [sum(column) for column in zip(*per_span)]
    p_out = [cnt / trials for cnt in counts]
    ci = [1.96 * math.sqrt(p * (1.0 - p) / trials) for p in p_out]
    fit_x = [math.log(rho_g) for rho_g, cnt in zip(rho, counts)
             if cnt >= _MIN_EVENTS_FOR_FIT]
    fit_y = [math.log(cnt / trials) for cnt in counts
             if cnt >= _MIN_EVENTS_FOR_FIT]
    slope = _least_squares_slope(fit_x, fit_y) if len(fit_x) >= 2 else math.nan
    return OutageSweep(rho_grid=rho, p_out=p_out, ci_half_width=ci,
                       fitted_slope=slope, trials=trials)

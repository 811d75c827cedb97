"""Finite-SNR outage Monte Carlo for the estimate-driven power policy.

The transmitter scales its power by ``kappa * (prod of estimate eigenvalues
raised to damped decay weights) ** -t``: deeper estimated fades earn more
power.  ``kappa`` normalizes the long-run average power back to the budget;
it is the reciprocal of the mean weight, estimated by importance sampling.
A :class:`PowerPolicy` sets only ``t``: a sweep always calibrates its kappa.

The calibration samples eigenvalue spacings from gamma proposals whose
shapes are the damped decay weights, which makes the weight estimator
low-variance for every damping ``t < 1`` (and exact for one receive
antenna).  All probability work is done in the log domain so heavy damping
does not overflow.

A sweep draws each trial once and reuses it at every SNR point, where the
estimate is ``h + c_g e`` with ``c_g`` the ratio of the point's error
deviation to the drawn one.  Under damping each span builds, once for its
trials, polynomials in ``c_g`` from which it reads every point's log
damped weight, one call per point.  On one- and two-row links they are the
estimate's Gram determinant, from its minors, and its trace
(:class:`~mimo_dmt.channel.EstimateMinors`): the weight is read from the
determinant and the largest eigenvalue, ``lambda_min * lambda_max`` being
the determinant, with no eigenvalue pair formed.  On links with more rows
they are the Gram blocks ``h h^H``, ``h e^H + e h^H`` and ``e e^H``, the
first two formed from the drawn bidiagonal's diagonal and subdiagonal,
and ``eigvalsh`` reads the spectrum of the quadratic ``A + c_g (B + c_g
C)`` (:class:`~mimo_dmt.channel.GramPolynomial`).  Outage counting is
counter-partitioned: a sweep cut into chunks across any number of worker
threads reproduces the single-thread result bit for bit.  Each span works on
trial-contiguous batches and computes every point's kappa-free log damped
weight first; the one kappa calibration runs on the calling thread meanwhile
and reaches the spans through a future.  The calibration works one
eigenvalue index at a time, each a contiguous vector over its draws, with
no scalar loop, and sums every term of a draw's log weight into one row.

Outage is the paper's event ``log det(I + P H H^H) < r log rho``.  A span
forms the power ``P`` in the log domain and tests ``det(I + P H H^H) <
rho ** r`` with the determinant a polynomial in ``P`` whose coefficients are
the sums of squared minors of the drawn bidiagonal, one Horner pass per SNR
point.  It reads no channel spectrum, and at constant power (``t = 0``) it
reads no estimate either: the error's uniforms are drawn, which keeps the
draws' layout, but not transformed.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import (
    EstimateMinors,
    GramPolynomial,
    _bit_generator,
    _horner,
    _integer,
    bidiagonal_minor_sums,
    eigen_decay_weights,
    sample_channel_block,
    wishart_log_norm_const,
)

__all__ = [
    "CAL_BATCH",
    "OutageSweep",
    "PowerPolicy",
    "calibrate_kappa",
    "run_sweep",
]

#: Batch size used when a sweep calibrates its own kappa.
CAL_BATCH = 100_000
_MIN_CAL_BATCH = 10_000
_MIN_TRIALS = 1000
_MIN_RHO_RATIO = 100.0
_MIN_EVENTS_FOR_FIT = 20
_TRIAL_CHUNK = 32_768
_REL_ERR_TARGET = 0.003


@dataclass(frozen=True)
class PowerPolicy:
    """Power-adaptation settings.

    ``t`` in ``[0, 1)`` is the damping of the fade-inversion exponent
    (0 = constant power).  The average-power normalizer kappa is not a
    setting: a sweep calibrates it (:func:`calibrate_kappa`).
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


def _log_is_weights(cfg, s, t, batch, seed, stream):
    """Log of (density ratio x damped weight) for the calibration sampler.

    Proposal: ascending eigenvalues built from independent gamma spacings
    with shapes ``(1 - t) * w_n`` and scales ``s / (n, n-1, ..., 1)``, which
    mimics where the damped weight ``prod(b ** (-t w))`` concentrates.
    Target: the eigenvalue density of the estimate Gram matrix, whose
    entries have per-entry variance ``s``.  Gamma deviates with shape below
    one are formed as ``Gamma(shape+1) * U**(1/shape)`` in the log domain,
    so tiny shapes (t near 1) stay finite.

    The target's ``exp(-sum(b) / s)`` equals the proposal's ``exp(-sum(
    spacing_i / scale_i))``: ``sum(b)`` counts spacing ``i`` (from 0) in
    each of the ``n - i`` eigenvalues ``b_i .. b_{n-1}``, and its scale is
    ``s / (n - i)``.  So the ratio leaves both out.  What remains is a multiple of the log of a spacing, of an
    eigenvalue or of a gap between two eigenvalues, plus one constant.
    The draws are made trial-major, then worked on as one contiguous row
    per eigenvalue index, each log of a sum of two exponentials as ``max +
    log1p(exp(-|a - b|))`` over whole rows (:func:`_log_add_exp`), and the
    terms are summed into one row.
    """
    # Imported on first use: only sweeps need SciPy, and it is slow to load.
    from scipy.special import gammaln

    n, m = cfg.n_rx, cfg.m_tx
    c = eigen_decay_weights(m, n)
    g = (1.0 - t) * c
    beta = s / np.arange(n, 0, -1)
    log_beta = np.log(beta)
    rng = np.random.Generator(_bit_generator(seed, stream))
    log_sp = np.log(rng.standard_gamma(g + 1.0, size=(batch, n)).T, order="C")
    logu = np.negative(rng.random((batch, n)).T, order="C")
    np.log1p(logu, out=logu)
    logu /= g[:, None]
    log_sp += logu
    log_sp += log_beta[:, None]
    # log b_i is the log of the sum of spacings 0 .. i, in logu's rows,
    # which are free once folded in.
    log_b = logu
    np.copyto(log_b[0], log_sp[0])
    scratch = np.empty(batch)
    for i in range(1, n):
        _log_add_exp(log_b[i - 1], log_sp[i], log_b[i], scratch)
    # Each row's log, by its coefficient: (m - n) log b_i from the target
    # and -t w_i log b_i from the damped weight; (1 - g_i) log(spacing_i)
    # from the proposal, and 2 log(spacing_i) from the target's gap b_i -
    # b_{i-1}.  b_0 is spacing 0.
    sp_coef = 1.0 - g + 2.0 * (np.arange(n) > 0)
    b_coef = (m - n) - t * c
    total = np.multiply(log_sp[0], sp_coef[0] + b_coef[0])
    for i in range(1, n):
        total += np.multiply(log_sp[i], sp_coef[i], out=scratch)
        total += np.multiply(log_b[i], b_coef[i], out=scratch)
    # The target's gaps b_j - b_i past adjacent ones: the sum of spacings
    # i+1 .. j, accumulated over j.
    log_gap = np.empty(batch)
    for i in range(n - 2):
        np.copyto(log_gap, log_sp[i + 1])
        for j in range(i + 2, n):
            _log_add_exp(log_gap, log_sp[j], log_gap, scratch)
            total += np.multiply(log_gap, 2.0, out=scratch)
    total += (-wishart_log_norm_const(m, n) - m * n * math.log(s)
              + float(np.sum(gammaln(g) + g * log_beta)))
    return total


def _log_add_exp(a, b, out, scratch):
    """``log(exp(a) + exp(b))`` into ``out``, as ``max(a, b) + log1p(exp(
    min(a, b) - max(a, b)))``; ``scratch`` is overwritten."""
    np.minimum(a, b, out=scratch)
    np.maximum(a, b, out=out)
    scratch -= out
    np.exp(scratch, out=scratch)
    np.log1p(scratch, out=scratch)
    out += scratch


def _mean_damped_weight(cfg, rho, t, batch, seed, stream):
    """Importance-sampled mean of the damped weight, with its relative error."""
    s = 1.0 + rho ** -cfg.alpha
    w = np.exp(_log_is_weights(cfg, s, t, batch, seed, stream))
    mean = float(w.mean())
    rel_err = float(w.std() / (mean * math.sqrt(batch)))
    return mean, rel_err


def calibrate_kappa(cfg, rho, policy, batch, seed):
    """Normalizer that restores the average-power budget for ``policy``.

    With no damping the power is already constant at the budget, so the
    normalizer is exactly 1.  Otherwise ``kappa`` is the reciprocal of the
    mean damped weight, estimated by importance sampling on stream 1 of
    ``seed``; a warning reports an achieved relative error that misses the
    convergence target.
    """
    batch = _integer(batch, "batch")
    if batch < _MIN_CAL_BATCH:
        raise ValueError(
            f"sampling batch must be at least {_MIN_CAL_BATCH}, got {batch}")
    rho = float(rho)
    if not (rho > 0.0):
        raise ValueError(f"rho must be positive, got {rho}")
    if policy.t == 0.0:
        return 1.0
    mean, rel_err = _mean_damped_weight(cfg, rho, policy.t, batch, seed, 1)
    if rel_err > _REL_ERR_TARGET:
        warnings.warn(
            f"calibration achieved relative error {rel_err:.4f}, above the "
            f"{_REL_ERR_TARGET} target; increase the batch for a tighter "
            f"power constraint", UserWarning, stacklevel=2)
    return 1.0 / mean


def _grid_kappas(cfg, rho, policy, seed):
    """One kappa per SNR point: one calibrated at ``rho[0]`` and scaled by
    ``(s_g/s_0)**(t*m*n)`` with ``s = 1 + rho**-alpha``, exact since the
    calibration is a scale family in ``s``."""
    kappa0 = calibrate_kappa(cfg, rho[0], policy, CAL_BATCH, seed)
    s = [1.0 + x ** -cfg.alpha for x in rho]
    exponent = policy.t * cfg.m_tx * cfg.n_rx
    return [kappa0 * (s_g / s[0]) ** exponent for s_g in s]


def _count_outages_span(cfg, rho, r, t, kappas, seed, start, count):
    """Outage count per SNR point over trials ``start .. start+count-1``,
    drawn once on stream 0 at ``rho[0]``, under damping ``t``.

    A trial is in outage when ``det(I + P h h^H) < rho_g ** r``, the test
    ``log2 det < r log2 rho_g`` with no logarithm.  The channel side is the
    polynomial ``1 + P e_1 + ... + P**n e_n`` whose coefficients are the
    sums of squared minors of the drawn bidiagonal
    (:func:`~mimo_dmt.channel.bidiagonal_minor_sums`), evaluated by
    Horner's rule: no channel spectrum is formed.

    At ``t > 0`` the span builds one estimate object from its draws, and
    reads each point's log damped weight from it at that point's error
    scale, into one row of a per-span buffer; no estimate matrix is formed.
    With one or two rows it is an
    :class:`~mimo_dmt.channel.EstimateMinors`, which reads the weight from
    the estimate's determinant and largest eigenvalue with no Gram block
    and no eigenvalue routine, and with more rows a
    :class:`~mimo_dmt.channel.GramPolynomial`, which reads it from the
    spectrum.  At ``t = 0`` the power is constant: the sampler leaves the
    error's uniforms untransformed, and the span builds no estimate.

    ``kappas()`` returns one kappa per point.  It is called only once every
    point's log weight is computed, so a sweep can calibrate while its spans
    draw.  The power ``P = kappa * rho_g * weight / m`` is then one ``exp``
    of the log weight plus ``log(kappa * rho_g / m)``.
    """
    damped = t != 0.0
    h, e = sample_channel_block(cfg, rho[0], seed, start=start, count=count,
                                error=damped)
    coeffs = bidiagonal_minor_sums(h)
    if damped:
        estimate = (EstimateMinors if cfg.n_rx <= 2 else GramPolynomial)(h, e)
    del h, e
    if damped:
        log_weights = np.empty((len(rho), count))
        for rho_g, log_weight in zip(rho, log_weights):
            # The estimate is h + c_g e with c_g = sigma_g / sigma_0, taken
            # as a ratio of SNRs so that large alpha does not underflow.
            c_g = (rho[0] / rho_g) ** (cfg.alpha / 2)
            estimate.log_damped_weight(c_g, t, out=log_weight)
        del estimate
    counts = []
    det = np.empty(count)
    for g, (rho_g, kappa) in enumerate(zip(rho, kappas())):
        scale = kappa * rho_g / cfg.m_tx
        if not damped:
            power = scale
        else:
            power = log_weights[g]
            power += math.log(scale)
            np.exp(power, out=power)
        # A value past the largest float reads inf: no outage, as its true
        # value exceeds the finite rho_g ** r.
        with np.errstate(over="ignore"):
            _horner(det, power, 1.0, *coeffs)
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

    Every point counts the trials of stream 0 of the seed, and kappa is
    calibrated on stream 1, both at the first point, so results depend only
    on ``(seed, grid)``, never on the worker count.  The calibration runs on
    the calling thread while the worker spans draw; if it raises, the sweep
    re-raises its error.  The slope is the least-squares fit in log-log
    coordinates over the points with at least ``_MIN_EVENTS_FOR_FIT``
    outage events (:func:`_least_squares_slope`), and is NaN when fewer
    than two points qualify.
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
    try:
        # A span's outage threshold at the grid's largest point.
        rho[-1] ** r
    except OverflowError:
        raise ValueError(f"rho ** r must be a finite float at every point; "
                         f"{rho[-1]} ** {r} overflows") from None
    workers = _integer(workers, "workers")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    # Imported on first use: only sweeps need the pool, and loading it
    # would add to every import of the package.
    from concurrent.futures import Future, ThreadPoolExecutor

    kappas = Future()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        spans = [pool.submit(_count_outages_span, cfg, rho, r, policy.t,
                             kappas.result, seed, start,
                             min(_TRIAL_CHUNK, trials - start))
                 for start in range(0, trials, _TRIAL_CHUNK)]
        # Calibrate here while the spans draw; warnings stay on this thread.
        try:
            kappas.set_result(_grid_kappas(cfg, rho, policy, seed))
        except BaseException as exc:
            kappas.set_exception(exc)
            pool.shutdown(cancel_futures=True)
            raise
        per_span = [span.result() for span in spans]
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

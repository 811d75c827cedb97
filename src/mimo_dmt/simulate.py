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
deviation to the drawn one.  Each span forms the Gram blocks ``h h^H``,
``h e^H + e h^H`` and ``e e^H`` of its trials once, and reads every point's
estimate spectrum from the quadratic ``A + c_g (B + c_g C)``
(:class:`~mimo_dmt.channel.GramPolynomial`).  Outage counting is
counter-partitioned: a sweep cut into chunks across any number of worker
threads reproduces the single-thread result bit for bit.  Each span works on
trial-contiguous batches and computes every point's kappa-free damped weight
first; the one kappa calibration runs on the calling thread meanwhile and
reaches the spans through a future.  The calibration works one eigenvalue
index at a time, each a contiguous vector over its draws.
"""
from __future__ import annotations

import math
import warnings
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .channel import (
    GramPolynomial,
    _bit_generator,
    eig_ascending,
    eigen_decay_weights,
    sample_channel_block,
    wishart_log_norm_const,
)

__all__ = [
    "CAL_BATCH",
    "OutageSweep",
    "PowerPolicy",
    "calibrate_kappa",
    # Re-exported: perfbench/tracing.py times the eigenvalue layer under
    # this name.  The sweep reads its spectra from a GramPolynomial.
    "eig_ascending",
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


def _damped_weight(cfg, b, t):
    """Kappa-free weight ``prod(b_n ** -(t * w_n))`` of a ``(trials, n_rx)``
    batch of ascending eigenvalues, summed in the log domain one eigenvalue
    index at a time."""
    if t == 0.0:
        return np.ones(len(b))
    c = eigen_decay_weights(cfg.m_tx, cfg.n_rx)
    log_b = np.log(np.maximum(b, np.finfo(float).tiny))
    exponent = c[0] * log_b[:, 0]
    for i in range(1, cfg.n_rx):
        exponent += c[i] * log_b[:, i]
    exponent *= -t
    return np.exp(exponent, out=exponent)


def _log_is_weights(cfg, s, t, batch, seed, stream):
    """Log of (density ratio x damped weight) for the calibration sampler.

    Proposal: ascending eigenvalues built from independent gamma spacings
    with shapes ``(1 - t) * w_n`` and scales ``s / (n, n-1, ..., 1)``, which
    mimics where the damped weight ``prod(b ** (-t w))`` concentrates.
    Target: the eigenvalue density of the estimate Gram matrix, whose
    entries have per-entry variance ``s``.  Gamma deviates with shape below
    one are formed as ``Gamma(shape+1) * U**(1/shape)`` in the log domain,
    so tiny shapes (t near 1) stay finite.
    """
    # Imported on first use: only sweeps need SciPy, and it is slow to load.
    from scipy.special import gammaln

    n, m = cfg.n_rx, cfg.m_tx
    c = eigen_decay_weights(m, n)
    g = (1.0 - t) * c
    beta = s / np.arange(n, 0, -1)
    rng = np.random.Generator(_bit_generator(seed, stream))
    boost = rng.gamma(g + 1.0, 1.0, size=(batch, n))
    logu = np.log1p(-rng.random((batch, n)))
    log_sp = np.log(boost) + logu / g + np.log(beta)
    # One row per eigenvalue index, each a contiguous vector over the
    # batch: every sum below runs across rows, one trial at a time.
    log_sp = np.ascontiguousarray(log_sp.T)
    log_b = np.empty_like(log_sp)
    log_b[0] = log_sp[0]
    for i in range(1, n):
        np.logaddexp(log_b[i - 1], log_sp[i], out=log_b[i])
    logp = (-wishart_log_norm_const(m, n) - m * n * math.log(s)
            + (m - n) * log_b.sum(axis=0) - np.exp(log_b).sum(axis=0) / s)
    for i in range(n - 1):
        # b_j - b_i is the sum of spacings i+1 .. j, accumulated over j.
        log_gap = log_sp[i + 1]
        logp += 2.0 * log_gap
        for j in range(i + 2, n):
            log_gap = np.logaddexp(log_gap, log_sp[j])
            logp += 2.0 * log_gap
    logq = ((g - 1.0)[:, None] * log_sp - np.exp(log_sp) / beta[:, None]
            - (gammaln(g) + g * np.log(beta))[:, None]).sum(axis=0)
    log_damped = -((t * c)[:, None] * log_b).sum(axis=0)
    return logp - logq + log_damped


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
    batch = int(batch)
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

    The span forms the draws' Gram blocks once.  The channel spectrum is the
    Gram polynomial at ``c = 0``, which equals ``eig_ascending(h)`` bit for
    bit, and each point's estimate spectrum is the polynomial at that
    point's error scale; no estimate matrix is formed.

    ``kappas()`` returns one kappa per point.  It is called only once every
    point's kappa-free damped weight is computed, so a sweep can calibrate
    while its spans draw.
    """
    h, e = sample_channel_block(cfg, rho[0], seed, start=start, count=count)
    grams = GramPolynomial(h, e)
    # Every spectrum below comes from the Gram blocks; free the draws.
    del h, e
    a = grams.spectrum(0.0)
    # The estimate at each point is h + c_g e with c_g = sigma_g / sigma_0,
    # taken as a ratio of SNRs so that large alpha does not underflow.
    weights = [_damped_weight(cfg, grams.spectrum((rho[0] / rho_g)
                                                  ** (cfg.alpha / 2)), t)
               for rho_g in rho]
    counts = []
    term = np.empty(count)
    for rho_g, kappa, power in zip(rho, kappas(), weights):
        power *= kappa * rho_g
        power /= cfg.m_tx
        # The capacity sum_i log2(1 + power * a_i), one eigenvalue at a time.
        capacity = np.zeros(count)
        for i in range(cfg.n_rx):
            np.multiply(power, a[:, i], out=term)
            term += 1.0
            capacity += np.log2(term, out=term)
        counts.append(int(np.count_nonzero(capacity < r * math.log2(rho_g))))
    return counts


def run_sweep(cfg, r, rho_grid, trials, policy, seed, workers=1):
    """Outage probability across an SNR grid, with a fitted decay slope.

    Every point counts the trials of stream 0 of the seed, and kappa is
    calibrated on stream 1, both at the first point, so results depend only
    on ``(seed, grid)``, never on the worker count.  The calibration runs on
    the calling thread while the worker spans draw; if it raises, the sweep
    re-raises its error.  The slope is fitted in log-log coordinates over
    the points with at least ``_MIN_EVENTS_FOR_FIT`` outage events and is
    NaN when fewer than two points qualify.
    """
    r = float(r)
    n = cfg.n_rx
    if not (0.0 <= r <= n):
        raise ValueError(f"r must lie in [0, {n}], got {r}")
    trials = int(trials)
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
    workers = max(1, int(workers))
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
    if len(fit_x) >= 2:
        slope = float(np.polyfit(fit_x, fit_y, 1)[0])
    else:
        slope = math.nan
    return OutageSweep(rho_grid=rho, p_out=p_out, ci_half_width=ci,
                       fitted_slope=slope, trials=trials)

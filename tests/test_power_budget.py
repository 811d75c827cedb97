"""The power budget checked by plain sampling, independently of kappa's
quadrature.

Kappa is the reciprocal of the mean damped weight, integrated over the
estimate's eigenvalue density by a Gauss–Jacobi rule
(``simulate._log_mean_weight``, normalized by
``channel.wishart_log_norm_const``).  The check here shares neither: it
draws bidiagonals with the sweep's own sampler, reads each one's damped
weight as a sweep's span does, at ``c = 0`` from an ``EstimateMinors`` on
one- and two-row links and from a ``GramPolynomial`` on links with more
rows, scales it to the estimate ``sqrt(s) [B 0]``'s, and averages
``kappa`` times that weight.  A wrong density or a wrong reduction of it
would leave this average off the budget.  The squared weight has a
finite mean only for ``t < 1/2``, so the check stops there.
"""
import math

import numpy as np
import pytest

from mimo_dmt.channel import (
    ChannelConfig,
    EstimateMinors,
    GramPolynomial,
    sample_channel_block,
)
from mimo_dmt.simulate import PowerPolicy, calibrate_kappa

RHO = 10.0
TRIALS = 1 << 19
SPAN = 1 << 15


def sampled_mean_weights(cfg, ts, trials, seed):
    """Plain Monte Carlo mean of the damped weight of the estimate ``sqrt(s)
    [B 0]``, ``s = 1 + RHO ** -alpha``, for each damping in ``ts``, with its
    relative standard error."""
    s = 1.0 + RHO ** -cfg.alpha
    sums = {t: [0.0, 0.0] for t in ts}
    for start in range(0, trials, SPAN):
        b, e = sample_channel_block(cfg, RHO, seed, start=start,
                                    count=min(SPAN, trials - start))
        estimate = (EstimateMinors if cfg.n_rx <= 2 else GramPolynomial)(b, e)
        for t in ts:
            # The estimate's spectrum is s times that of [B 0].
            w = np.exp(estimate.log_damped_weight(0.0, t))
            w *= s ** (-t * cfg.m_tx * cfg.n_rx)
            sums[t][0] += float(w.sum())
            sums[t][1] += float((w * w).sum())
    out = {}
    for t, (total, squares) in sums.items():
        mean = total / trials
        var = squares / trials - mean * mean
        out[t] = (mean, math.sqrt(var / trials) / mean)
    return out


@pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (4, 2), (4, 4)])
def test_calibrated_power_meets_budget(m, n):
    # The mean power over the budget is kappa times the sampled mean
    # weight.  Kappa's quadrature is settled to 1e-10, far below the
    # sampling error, so 4 sigma of the sampling error alone bounds it.
    cfg = ChannelConfig(m, n, 0.5)
    ts = (0.2, 0.4)
    sampled = sampled_mean_weights(cfg, ts, TRIALS, seed=11)
    for t in ts:
        kappa = calibrate_kappa(cfg, RHO, PowerPolicy(t=t))
        mean, mc_err = sampled[t]
        ratio = kappa * mean
        assert abs(ratio - 1.0) <= 4.0 * mc_err, (t, ratio)

"""The power budget checked by plain sampling, independently of calibration.

Kappa is calibrated by importance sampling on the estimate's eigenvalue
density (``simulate._log_is_weights``, normalized by
``channel.wishart_log_norm_const``).  The check here shares neither: it
draws estimates with the sweep's own sampler, reads each one's damped
weight as a sweep's span does, from an ``EstimateMinors`` on one- and
two-row links and from a ``GramPolynomial`` on links with more rows, and
averages ``kappa`` times that weight.  A wrong target density would bias
the calibration and leave this average off the budget.  The squared weight
has a finite mean only for ``t < 1/2``, so the check stops there.
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
from mimo_dmt.simulate import CAL_BATCH, _mean_damped_weight

RHO = 10.0
TRIALS = 1 << 19
SPAN = 1 << 15


def sampled_mean_weights(cfg, ts, trials, seed):
    """Plain Monte Carlo mean of the damped weight of the estimate ``h + e``
    for each damping in ``ts``, with its relative standard error."""
    sums = {t: [0.0, 0.0] for t in ts}
    for start in range(0, trials, SPAN):
        h, e = sample_channel_block(cfg, RHO, seed, start=start,
                                    count=min(SPAN, trials - start))
        estimate = (EstimateMinors if cfg.n_rx <= 2 else GramPolynomial)(h, e)
        for t in ts:
            w = np.exp(estimate.log_damped_weight(1.0, t))
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
    # weight.  Its error combines the sampling error with kappa's own
    # calibration error; 4 sigma of both bounds it.
    cfg = ChannelConfig(m, n, 0.5)
    ts = (0.2, 0.4)
    sampled = sampled_mean_weights(cfg, ts, TRIALS, seed=11)
    for t in ts:
        # calibrate_kappa's kappa, with the relative error it reaches.
        mean_weight, cal_err = _mean_damped_weight(cfg, RHO, t, CAL_BATCH, 11, 1)
        kappa = 1.0 / mean_weight
        mean, mc_err = sampled[t]
        ratio = kappa * mean
        assert abs(ratio - 1.0) <= 4.0 * math.hypot(mc_err, cal_err), (t, ratio)

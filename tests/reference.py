"""References that the tests compare the package against: the dense channel
and its Gram spectrum, the 2x2 mean damped weight by one adaptive
quadrature, and the damped outage probability of a one-antenna link by
another.  None imports from the package's sweep."""
import math

import numpy as np


def dense_channel(b, m):
    """The ``(count, n, m)`` channel ``[B 0]`` of the bidiagonal entries
    ``b``, shape ``(2n - 1, count)`` in the order ``d_1, s_1, d_2, ...,
    s_{n-1}, d_n``: ``d_i`` at ``(i, i)`` and ``s_i`` at ``(i + 1, i)``,
    zero elsewhere."""
    n = (len(b) + 1) // 2
    h = np.zeros((b.shape[1], n, m))
    h[:, range(n), range(n)] = b[0::2].T
    h[:, range(1, n), range(n - 1)] = b[1::2].T
    return h


def gram_spectrum(x):
    """Ascending eigenvalues of ``x @ x^H`` for a batch ``x``, real or
    complex: ``numpy.linalg.eigvalsh`` of the Gram matrix formed by
    ``matmul``, with the tiny negative values it returns on rank-deficient
    inputs clamped to zero."""
    gram = x @ np.conj(np.swapaxes(x, -1, -2))
    return np.clip(np.linalg.eigvalsh(gram), 0.0, None)


def reduced_quadrature_mean_weight():
    """Mean damped weight ``E[l1**-0.9 l2**-2.7]`` of the ascending
    eigenvalues of a 2x2 estimate at t 0.9, rho 1000 and alpha 0.5, whose
    entries have variance ``s = 1 + 1000**-0.5``: put ``l2 = l1 (1 + z)``,
    integrate ``l1`` as a gamma function, and ``z`` by adaptive quadrature
    over ``[0, inf)``."""
    from scipy.integrate import quad

    s = 1.0 + 1000.0 ** -0.5
    integral, _ = quad(
        lambda z: z * z * (1 + z) ** -2.7 * (2 + z) ** -0.4,
        0.0, np.inf, limit=400, epsabs=0.0, epsrel=1e-10)
    return s ** -4.0 * math.gamma(0.4) * s ** 0.4 * integral


def one_antenna_damped_outage(m, alpha, t, r, rho):
    """Outage probability of an ``m x 1`` link under damping ``t``, by
    conditioning the channel on its estimate.

    With ``K = m``, error variance ``sigma2 = rho ** -alpha`` and ``s = 1 +
    sigma2``, the estimate ``h_hat`` is ``CN(0, s)`` per entry, so its gain
    ``b = |h_hat|**2`` is ``s`` times a ``Gamma(K)`` draw, and the channel
    given the estimate is ``CN(h_hat / s, sigma2 / s)``: ``(2 s / sigma2)
    |h|**2`` is noncentral chi-squared with ``2K`` degrees of freedom and
    noncentrality ``2 b / (s sigma2)``.  The single decay weight is ``K``,
    so the power is ``P = kappa rho b ** (-t K) / K`` with the closed form
    ``kappa = s ** (t K) Gamma(K) / Gamma(K (1 - t))``, and outage is
    ``|h|**2 < (rho ** r - 1) / P``.  ``p_out = E_b[ncx2.cdf(...)]``,
    integrated by ``quad`` over the gamma quantile of ``b / s``.
    """
    from scipy.integrate import quad
    from scipy.stats import gamma, ncx2

    k = m
    sigma2 = rho ** -alpha
    s = 1.0 + sigma2
    log_kappa = t * k * math.log(s) + math.lgamma(k) - math.lgamma(k * (1.0 - t))
    # |h|**2 < (rho**r - 1) K (s g)**(t K) / (kappa rho), scaled by 2 s / sigma2.
    log_x0 = (math.log(2.0 * s / sigma2) + math.log(rho ** r - 1.0) + math.log(k)
              - log_kappa - math.log(rho))

    def integrand(u):
        g = gamma.ppf(u, k)
        x = math.exp(log_x0 + t * k * math.log(s * g))
        return ncx2.cdf(x, 2 * k, 2.0 * g / sigma2)

    return quad(integrand, 0.0, 1.0, epsabs=1e-13, epsrel=1e-9, limit=400)[0]

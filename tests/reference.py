"""References that the tests compare the package against: the dense channel,
its Gram spectrum and the damped weight of a spectrum, the 2x2 mean damped
weight by one adaptive quadrature, and the damped outage probability of a
one-antenna link by another.  None imports from the package's sweep."""
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


def bidiagonal_spectrum(b, m):
    """Ascending eigenvalues of ``B B^T`` for the bidiagonal entries ``b``
    (:func:`dense_channel`), shape ``(count, n)``: :func:`gram_spectrum` of
    the dense channel, with the smallest taken as ``det / prod_{k>=2}
    lambda_k``, ``det`` the product of the squared diagonal entries, in
    logs."""
    lam = gram_spectrum(dense_channel(b, m))
    lam[:, 0] = np.exp(np.log(np.square(b[0::2])).sum(axis=0)
                       - np.log(lam[:, 1:]).sum(axis=1))
    return lam


def spectrum_log_weight(lam, m, t):
    """The log damped weight ``-t * sum_k c_k log lambda_k``, ``c_k = 2k -
    1 + m - n``, of ascending spectra ``lam``, shape ``(count, n)``, with
    each eigenvalue below the smallest normal float counted as that
    float."""
    n = lam.shape[-1]
    c = 2.0 * np.arange(1, n + 1) - 1.0 + (m - n)
    return -t * (c * np.log(np.maximum(lam, np.finfo(float).tiny))).sum(axis=-1)


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
    ``b = |h_hat|**2`` is ``s g`` with ``g ~ Gamma(K)``, and the channel
    given the estimate is ``CN(h_hat / s, sigma2 / s)``: ``(2 s / sigma2)
    |h|**2`` is noncentral chi-squared with ``2K`` degrees of freedom and
    noncentrality ``lam = 2 g / sigma2``.  The single decay weight is ``K``,
    so the power is ``P = kappa rho b ** (-t K) / K`` with the closed form
    ``kappa = s ** (t K) Gamma(K) / Gamma(K (1 - t))``, and outage is
    ``|h|**2 < (rho ** r - 1) / P``, or ``x = x0 (s g) ** (t K)`` in the
    chi-squared's scale.  ``p_out = E_g[chndtr(x, 2K, lam)]``.

    The outage mass lies where ``lam`` meets ``x``, at ``g = sigma2 x0 /
    2`` when ``t = 0``: there the channel can fade given its estimate.  At
    high SNR that is a sliver of width about ``2 / sqrt(lam)`` in ``log g``,
    far in the gamma's lower tail, so ``quad`` integrates over ``y = log
    g`` with breakpoints at the crossing, a few of its widths either side,
    and the gamma's bulk.  Where ``sqrt(lam) - sqrt(x) > 40`` the outage
    is below ``Phi(-40)`` and reads 0.  SciPy's ``chndtr`` returns NaN
    near its median past a noncentrality of about 3.5e10; the integrand
    raises ``ValueError`` there.
    """
    from scipy.integrate import quad
    from scipy.special import chndtr

    k = m
    sigma2 = rho ** -alpha
    s = 1.0 + sigma2
    log_kappa = t * k * math.log(s) + math.lgamma(k) - math.lgamma(k * (1.0 - t))
    # |h|**2 < (rho**r - 1) K (s g)**(t K) / (kappa rho), scaled by 2 s / sigma2.
    log_x0 = (math.log(2.0 * s / sigma2) + math.log(rho ** r - 1.0) + math.log(k)
              - log_kappa - math.log(rho))
    log_gamma_k = math.lgamma(k)

    def integrand(y):
        g = math.exp(y)
        x = math.exp(log_x0 + t * k * (math.log(s) + y))
        lam = 2.0 * g / sigma2
        if math.sqrt(lam) - math.sqrt(x) > 40.0:
            return 0.0
        cdf = chndtr(x, 2 * k, lam)
        if math.isnan(cdf):
            raise ValueError(f"chndtr is NaN at x {x:.4g}, noncentrality {lam:.4g}")
        return math.exp(k * y - g - log_gamma_k) * cdf

    # log lam - log x = log(2 / sigma2) - log_x0 - t K log s + (1 - t K) y.
    lo, hi = -800.0 / k, math.log(1000.0)
    points = {math.log(k)}
    slope = 1.0 - t * k
    if slope != 0.0:
        cross = (log_x0 + t * k * math.log(s) - math.log(2.0 / sigma2)) / slope
        lam = 2.0 * math.exp(min(cross, 700.0)) / sigma2
        width = 2.0 / (abs(slope) * math.sqrt(max(lam, 1.0)))
        points.update(cross + j * width for j in (0, -1, 1, -2, 2, -4, 4, -8, 8))
    points = sorted(y for y in points if lo < y < hi)
    return quad(integrand, lo, hi, points=points, epsabs=0.0, epsrel=1e-10,
                limit=400)[0]

"""References that the tests compare the package against: the dense channel
and its Gram spectrum, and the 2x2 mean damped weight by one adaptive
quadrature."""
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

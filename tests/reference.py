"""The dense reference spectrum that the tests compare the package against."""
import numpy as np


def gram_spectrum(x):
    """Ascending eigenvalues of ``x @ x^H`` for a batch ``x``, real or
    complex: ``numpy.linalg.eigvalsh`` of the Gram matrix formed by
    ``matmul``, with the tiny negative values it returns on rank-deficient
    inputs clamped to zero."""
    gram = x @ np.conj(np.swapaxes(x, -1, -2))
    return np.clip(np.linalg.eigvalsh(gram), 0.0, None)

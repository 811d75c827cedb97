"""Rayleigh MIMO channel sampling with an imperfect transmitter-side estimate.

The channel is an ``n_rx x m_tx`` matrix of iid unit-variance complex Gaussian
entries.  The transmitter works from a noisy estimate of it: the true matrix
plus an independent complex Gaussian error whose per-entry variance decays as
``rho ** -alpha``, so ``alpha`` measures how fast estimate quality improves
with SNR (0 = never, large = very fast).

An outage sweep reads the channel only through ``det(I + P H H^H)`` and the
estimate only through Gram spectra, so the sampler draws a representative of
the channel rather than an iid-entry matrix.  An iid channel bidiagonalizes
as ``H = Q [B 0] P^H`` with ``Q`` and ``P`` unitary and ``B`` real lower
bidiagonal, its diagonal ``d_i`` and subdiagonal ``s_i`` independent with
``d_i**2 ~ Gamma(m - i + 1)`` and ``s_i**2 ~ Gamma(n - i)`` (Dumitriu &
Edelman, J. Math. Phys. 43(11), 2002).  The error is isotropic and
independent of the channel, so ``Q^H E P`` has the law of ``E``, and the
pair ``(B, E)`` gives the spectra of ``H H^H`` and of ``(H + c E)(H + c
E)^H`` their joint law for every ``c``.  The sampler returns ``B`` as its
``2n - 1`` entries, one float64 row of trials each in the draw order ``d_1,
s_1, d_2, ..., s_{n-1}, d_n``, and ``E`` as its real and imaginary planes,
so no complex array is formed.  The channel's determinant ``det(I + P B
B^T)`` is a polynomial in ``P`` whose coefficients are sums of squared
minors of ``B`` (:func:`bidiagonal_minor_sums`), built from sums and
products of non-negative numbers with no eigenvalue.  The estimate's spectra
come from :class:`EstimateMinors` on one- and two-row links, whose Gram
determinant and trace are polynomials in ``c`` built from ``B``'s entries
and ``E``'s minors, and on links with more rows from the Gram blocks of
:class:`GramPolynomial`.

Sampling is counter-based: trial ``i`` of a given seed always yields the
same matrices regardless of how trials are batched or which worker draws
them, which makes parallel Monte Carlo bit-reproducible.

Batches are trial-contiguous: each entry of ``B``, and each plane of each
entry of the error, is one contiguous vector of trials.  Gram entries,
minors, and :class:`EstimateMinors`' determinants and traces of one- and
two-row estimates are whole-vector arithmetic over them.

SciPy is needed only to sample the error (``ndtri``) and for the eigenvalue
density's normalizer (``gammaln``), and is imported on first use, so the
closed form, the oracle and the reports load without it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChannelConfig",
    "EstimateMinors",
    "GramPolynomial",
    "bidiagonal_minor_sums",
    "eigen_decay_weights",
    "sample_channel_block",
    "wishart_log_norm_const",
]

# One Philox counter tick yields four 64-bit words = four doubles.  A trial
# consumes 3 * n_rx * m_tx doubles (n_rx * m_tx for the channel, twice that
# for the error) rounded up to whole ticks, so trial boundaries always fall
# on tick boundaries and contiguous batches can be carved anywhere without
# changing the draws.
_DOUBLES_PER_TICK = 4
_HALF_ULP = 2.0 ** -54
_BELOW_ONE = 1.0 - 2.0 ** -53
# A product of k uniforms, each at least 2**-54, stays a normal float for
# k <= 18 (2**-972 > 2**-1022); longer products are summed as logs of
# products of at most this many.
_MAX_PRODUCT = 18
_TINY = np.finfo(np.float64).tiny
_LOG_TINY = math.log(_TINY)
_TRIAL_PAD = 8
# Trials per block of the sampler's trial-major to trial-last copy.
_COPY_TRIALS = 4096


@dataclass(frozen=True)
class ChannelConfig:
    """Antenna counts and estimate-quality exponent, orientation-canonical.

    The outage behavior is symmetric in the two antenna counts, so the
    constructor stores the larger count as ``m_tx`` and the smaller as
    ``n_rx``.
    """

    m_tx: int
    n_rx: int
    alpha: float

    def __post_init__(self):
        m = _integer(self.m_tx, "m_tx")
        n = _integer(self.n_rx, "n_rx")
        if m < 1 or n < 1:
            raise ValueError(f"antenna counts must be positive, got ({m}, {n})")
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or alpha < 0.0:
            raise ValueError(f"alpha must be finite and >= 0, got {alpha}")
        object.__setattr__(self, "m_tx", max(m, n))
        object.__setattr__(self, "n_rx", min(m, n))
        object.__setattr__(self, "alpha", alpha)


def _integer(value, name):
    """``value`` as an int; a non-integral value is an error, not truncated."""
    try:
        as_int = int(value)
    except (OverflowError, TypeError, ValueError):
        as_int = None
    if as_int is None or as_int != value:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return as_int


def eigen_decay_weights(m, n):
    """Per-eigenvalue decay weights of the ordered Gram spectrum.

    With eigenvalues sorted ascending, the probability that eigenvalue ``i``
    (1-based) decays like ``rho**-v`` carries exponent ``(2i - 1 + m - n) v``:
    deep fades of the weakest direction are the cheapest.
    """
    return 2.0 * np.arange(1, n + 1) - 1.0 + (m - n)


def _log_damped_weight(b, w, t, out=None):
    """Log of the kappa-free damped weight, ``-t * sum(w_i * log b_i)``,
    of ascending eigenvalues stored one row per eigenvalue index, shape
    ``(n, ...)``, with decay weights ``w`` (:func:`eigen_decay_weights`),
    summed one row at a time into ``out`` or a new array.

    Eigenvalues below the smallest normal float count as that float.  The
    rows of ``b`` are overwritten."""
    np.maximum(b, _TINY, out=b)
    log_b = np.log(b, out=b)
    out = np.multiply(log_b[0], w[0], out=out)
    for i in range(1, len(w)):
        log_b[i] *= w[i]
        out += log_b[i]
    out *= -t
    return out


def _bit_generator(seed):
    """The Philox generator keyed by ``(seed, 0)``, both 64-bit words.

    A seed outside ``[0, 2**64)`` is a ``ValueError``: it has no key of its
    own, and masking it would alias it to another seed's draws."""
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))


def _bidiagonal_entries(n, m):
    """Gamma shape of each squared entry of ``B``, in the draw order ``d_1,
    s_1, d_2, ..., s_{n-1}, d_n``; the shapes sum to ``n*m``."""
    shapes = []
    for i in range(n):
        shapes += [m - i, n - i - 1]
    return shapes[:-1]


def sample_channel_block(cfg, rho, seed, start=0, count=1, error=True):
    """Draw trials ``start .. start+count-1`` of a seed's sequence.

    Returns the pair ``(b, e)``: the channels and the estimation errors,
    whose per-entry variance is ``rho ** -alpha``.  ``b`` holds the entries
    of the channel's real lower bidiagonal ``B`` (see the module
    docstring): a float64 array of shape ``(2n - 1, count)`` whose rows are
    ``d_1, s_1, d_2, ..., s_{n-1}, d_n``, so that ``b[0::2]`` is the
    diagonal and ``b[1::2]`` the subdiagonal.  With ``e`` it gives every
    Gram spectrum of the channel and its estimate the law an iid channel
    would.  Each squared entry of shape ``k`` is ``-log`` of a product of
    ``k`` uniforms, so a trial takes a fixed ``3 * n * m`` uniforms.

    ``e`` has iid complex Gaussian entries, returned as real planes: a
    float64 array of shape ``(count, 2, n, m)`` with the real parts in
    ``e[:, 0]`` and the imaginary parts in ``e[:, 1]``.  With ``error``
    false the error's uniforms are drawn but not transformed, and ``e`` is
    None.  Both arrays are stored trial-last: for each entry (and plane),
    the ``count`` trials are one contiguous vector.  They are views of one
    buffer, the uniforms': each entry of ``B`` is written over spent
    uniforms, and ``e``'s quantiles over its own.  Any contiguous partition
    of the trial range reproduces the one-shot draw bit for bit.
    """
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 0.0:
        raise ValueError(f"rho must be finite and positive, got {rho}")
    start = _integer(start, "start")
    count = _integer(count, "count")
    if start < 0 or count < 1:
        raise ValueError(f"need start >= 0 and count >= 1, got ({start}, {count})")
    n, m = cfg.n_rx, cfg.m_tx
    nm = n * m
    width = -(-3 * nm // _DOUBLES_PER_TICK) * _DOUBLES_PER_TICK
    bg = _bit_generator(seed)
    bg.advance(start * width // _DOUBLES_PER_TICK)
    gen = np.random.Generator(bg)
    # Trial-last storage: each uniform's trials lie contiguous, so the
    # per-entry arithmetic below and downstream runs over whole vectors.
    # Padding keeps the rows from starting a power of two bytes apart,
    # where the many entries of a large link would share cache sets.
    rows = 3 * nm if error else nm
    u = np.empty((rows, count + _TRIAL_PAD))[:, :count]
    # The draws come trial-major; they are transposed a block of trials at
    # a time, which keeps the trial-major scratch small and in cache.
    block = np.empty((min(count, _COPY_TRIALS), width))
    for lo in range(0, count, _COPY_TRIALS):
        part = block[:min(_COPY_TRIALS, count - lo)]
        gen.random(out=part)
        # Shifted up by half an ulp, neither the log nor the normal
        # quantile transform sees an exact zero.
        np.add(part[:, :rows].T, _HALF_ULP, out=u[:, lo:lo + len(part)])
    del block
    # Each entry of B sums -log of its products of uniforms and takes the
    # root.  Entry i goes into row i of u: every shape is at least 1, so an
    # entry's uniforms start at or after its own row, and the rows before
    # them are spent.  The first product's -log is written as 0 - log, not
    # negated, so that an entry whose uniforms are all 1.0 reads +0.
    b = u[:2 * n - 1]
    col = 0
    prod = np.empty(count)
    for entry, shape in zip(b, _bidiagonal_entries(n, m)):
        for lo in range(col, col + shape, _MAX_PRODUCT):
            np.copyto(prod, u[lo])
            for k in range(lo + 1, min(col + shape, lo + _MAX_PRODUCT)):
                prod *= u[k]
            np.log(prod, out=prod)
            if lo == col:
                np.subtract(0.0, prod, out=entry)
            else:
                entry -= prod
        np.sqrt(entry, out=entry)
        col += shape
    if not error:
        return b, None
    # Imported on first use: only sweeps need SciPy, and it is slow to load.
    from scipy.special import ndtri

    # The largest uniform, 1 - 2**-53, rounds to 1.0 when shifted, and its
    # normal quantile is infinite: the error's uniforms are clamped below
    # it.  The quantiles and the scaling run in place on whole rows.
    z = u[nm:]
    np.minimum(z, _BELOW_ONE, out=z)
    ndtri(z, out=z)
    z *= math.sqrt(0.5 * rho ** -cfg.alpha)
    return b, z.reshape(2, n, m, count).transpose(3, 0, 1, 2)


def _draw_shape(b, e):
    """``(n, m)`` of draws ``(b, e)`` of :func:`sample_channel_block`; a
    ``ValueError`` unless ``e`` is a batch of error planes and ``b`` holds
    ``2n - 1`` rows of the same trials."""
    if (e.ndim != 4 or e.shape[1] != 2 or b.ndim != 2
            or b.shape != (2 * e.shape[2] - 1, len(e))):
        raise ValueError("expected B's 2n - 1 entries as rows of trials and "
                         "error planes of shape (count, 2, n, m)")
    return e.shape[2], e.shape[3]


def bidiagonal_minor_sums(b):
    """Coefficients ``e_1 .. e_n`` of ``det(I + P B B^T) = 1 + P e_1 + ...
    + P**n e_n`` for the entries ``b`` of :func:`sample_channel_block`'s
    ``B``, shape ``(2n - 1, count)``, as a new ``(n, count)`` array.  Any
    other shape is a ``ValueError``.

    ``e_k`` is the sum of the squared ``k x k`` minors of ``B``
    (Cauchy-Binet).  Each nonzero minor of a lower-bidiagonal matrix is one
    product, each chosen row taking its diagonal or subdiagonal entry and no
    two rows one column.  So a two-state recursion over the rows builds the
    coefficients: ``e`` sums the products over the first ``i`` rows, and
    ``f`` those that leave row ``i``'s diagonal column free for row
    ``i + 1``.  Both are sums of products of squares, with no cancellation,
    so each coefficient is accurate to a few ulps at any fade depth; an
    eigenvalue of the Gram matrix loses everything below about
    ``eps * lambda_max``.  Beside its output the recursion holds three
    scratch rows and ``n - 2`` rows of ``f``.
    """
    if b.ndim != 2 or len(b) % 2 == 0:
        raise ValueError("expected B's 2n - 1 entries as rows of trials, "
                         f"got shape {b.shape}")
    n, count = (len(b) + 1) // 2, b.shape[1]
    e = np.empty((n, count))
    f = np.empty((max(n - 2, 0), count))
    d, s, prod = np.empty((3, count))
    np.square(b[0], out=e[0])
    for i in range(1, n):
        np.square(b[2 * i], out=d)
        np.square(b[2 * i - 1], out=s)
        np.multiply(e[i - 1], d, out=e[i])
        # Descending, so that e[k - 1] and f[k - 1] still hold row i - 1's
        # values when e[k] is formed.  Row n - 1's f is not needed.
        for k in range(i - 1, -1, -1):
            e[k] += np.multiply(f[k - 1], s, out=prod) if k else s
            if i < n - 1:
                np.copyto(f[k], e[k])
            e[k] += np.multiply(e[k - 1], d, out=prod) if k else d
    return e


class GramPolynomial:
    """Gram matrices of ``h + c * e`` for any real ``c``, from one batch of
    draws ``(b, e)`` of :func:`sample_channel_block`, with ``h = [B 0]``.

    ``(h + c e)(h + c e)^H = A + c * (B + c * C)`` with ``A = h h^T``,
    ``B = h e^H + e h^T`` and ``C = e e^H``.  The constructor forms the
    three blocks once, so an outage sweep that rescales one error draw to
    each SNR point forms neither a per-point estimate nor a per-point Gram
    product: :meth:`spectrum` evaluates the quadratic and takes its
    spectrum with ``numpy.linalg.eigvalsh``.

    ``b`` holds the bidiagonal's diagonal ``d_i = b[2i - 2]`` and
    subdiagonal ``s_i = b[2i - 1]`` (1-based ``i``), shape ``(2n - 1,
    count)``, and ``e`` is given as real planes, shape ``(count, 2, n,
    m)``, real parts first; other shapes are a ``ValueError``.  ``A`` is
    tridiagonal, with ``A_ii = s_{i-1}**2 + d_i**2`` and ``A_{i,i+1} = d_i
    s_i``.  With ``P_ik = s_{i-1} e_{k,i-1} + d_i e_ki`` for each plane,
    ``B_ik = P_ik + conj(P_ki)``.  ``C`` is summed column by column over
    ``e``'s planes.  Each block is stored as its ``n * n`` real entries, one
    per-entry vector each: the diagonal, then the real and imaginary part of
    each entry above it, row by row.  The blocks equal the per-entry sums
    over every column of the complex-cast operands up to the sign of an
    exact zero, and the quadratic is evaluated entry by entry, so every
    product is correctly rounded and a trial's result does not depend on its
    batch.  A NaN or infinite entry of ``b`` or ``e`` raises ``ValueError``.
    Each instance evaluates into one scratch Gram, so it serves one thread
    at a time; every spectrum it returns is a new array.

    Measured against ``eigvalsh`` of ``(h + c e)(h + c e)^H`` formed by
    ``matmul``, on 28.6 million inputs with ``n`` in 1..4 and 6, ``n <= m
    <= 9``, ``c`` in {1, 1e-3, 1e-12} and entries scaled from 1e-100 to
    1e100 in seven steps, bidiagonals with Gaussian entries, zero-diagonal,
    zero and cancelling (``e`` near ``-h / c``) inputs among them, the spectra
    differed by at most ``3.6e-15 * tr(A + c**2 C)``.  The bound is on the
    size of the two terms: where they cancel, the estimate's own eigenvalues
    can be far smaller.
    """

    def __init__(self, b, e):
        n, m = _draw_shape(b, e)
        _check_finite(b)
        _check_finite(e)
        count = len(e)
        self._n = n
        self._weights = eigen_decay_weights(m, n)
        # Each plane of e's first n columns transposed, as per-entry
        # vectors over the trials.
        d, s = b[0::2], b[1::2]
        e_t = np.moveaxis(e, 0, -1)[:, :, :n].swapaxes(1, 2)
        # The entries above the diagonal in row-major order, as in _pairs.
        i, k = np.triu_indices(n, 1)
        self._a = a = np.zeros((n * n, count))
        np.square(d, out=a[:n])
        a[1:n] += np.square(s)
        a[n::2][k == i + 1] = d[:-1] * s
        p = e_t * d[:, np.newaxis]
        p[:, 1:] += e_t[:, :-1] * s[:, np.newaxis]
        p_re, p_im = p
        self._b = cross = np.empty_like(a)
        np.multiply(p_re[range(n), range(n)], 2.0, out=cross[:n])
        np.add(p_re[i, k], p_re[k, i], out=cross[n::2])
        np.subtract(p_im[k, i], p_im[i, k], out=cross[n + 1::2])
        self._c = _gram(e)
        self._gram = np.empty_like(a)

    def spectrum(self, c):
        """Ascending spectrum of ``(h + c e)(h + c e)^H``, shape ``(count,
        n)``, non-negative, with the trial axis contiguous: each eigenvalue
        index is one vector over the batch.  ``eigvalsh``'s tiny negative
        values on rank-deficient inputs are clamped to zero.  The result is
        a new array, which later calls leave unchanged."""
        gram = np.multiply(self._c, float(c), out=self._gram)
        gram += self._b
        gram *= c
        gram += self._a
        return np.moveaxis(_gram_spectrum(gram, self._n), 0, -1)

    def log_damped_weight(self, c, t, out=None):
        """Log of the kappa-free damped weight of :meth:`spectrum` at scale
        ``c`` (:func:`_log_damped_weight`), into ``out`` or a new array."""
        return _log_damped_weight(np.moveaxis(self.spectrum(c), -1, 0),
                                  self._weights, t, out)


class EstimateMinors:
    """Log damped weights of the estimate ``h + c e``, ``h = [B 0]``, of
    one- or two-row draws ``(b, e)`` of :func:`sample_channel_block`, for
    any real ``c``, from the estimate's Gram determinant and trace as
    polynomials in ``c``.

    ``b`` holds ``B``'s entries ``d1``, ``s1``, ``d2`` (``d1`` alone on one
    row), shape ``(2n - 1, count)``, and ``e`` is given as planes, shape
    ``(count, 2, n, m)``; other shapes are a ``ValueError``.  By
    Cauchy-Binet, ``det(X X^H)`` sums ``|X_1j X_2k - X_1k X_2j|**2`` over
    the column pairs ``j < k`` of the estimate ``X``.  Pair (1, 2) is ``D0
    + c D1 + c**2 D2``, with ``D0 = d1 d2``, ``D1 = d1 e22 + d2 e11 - s1
    e12`` and ``D2 = e11 e22 - e12 e21``.  A pair with one column past
    ``B`` is ``c (L + c Q)`` and one with both past it ``c**2 Q``, ``Q`` a
    minor of ``e``; their squares fold into ``c**2 (SL + 2 c SLQ + c**2
    SQ)`` from three sums per trial, so a point's work does not grow with
    ``m``.  The trace is ``T0 + c T1 + c**2 T2``, whose coefficients are
    stored halved.  Then ``lambda_max = tr/2 + sqrt((tr/2)**2 - det)``,
    which is 0 for a zero trace.  One row's eigenvalue is ``|d1 + c
    e11|**2 + c**2 sum_{k>1} |e1k|**2``.  The determinant is quartic, so a
    two-row batch's coefficients are scaled by the power of two that brings
    its largest ``T0 + T2`` near 1; the scaling is exact.  In the scaled
    units, an eigenvalue below about 1e-308 of that largest ``T0 + T2`` is
    subnormal and loses precision, and where the trace is below about
    1e-154 of it, ``(tr/2)**2`` and the determinant are too, and
    ``lambda_max`` is only known to within a factor of 2.

    :meth:`log_damped_weight`, which a sweep's span reads at each point,
    takes the weight from the determinant and ``lambda_max`` and forms no
    ``lambda_min``.  A NaN or infinite entry raises ``ValueError``, as does
    an entry past about 1.3e154, whose square overflows, or a trial whose
    squared entries sum past the largest float: the constructor reads that
    from the largest ``T0 + T2``.

    No eigenvalue routine is called, and every product is correctly
    rounded.  On 600 nearly rank-1 two-row estimates (``lambda_min /
    lambda_max`` from 5e-19 to 1.7e-8) the log damped weight at t 0.9 was
    within 2.8e-14 of a 60-digit reference, where :class:`GramPolynomial`'s,
    whose entries lose the small eigenvalue, was off by up to 604.  An
    instance serves one thread at a time.
    """

    def __init__(self, b, e):
        n, m = _draw_shape(b, e)
        if n > 2:
            raise ValueError("expected one- or two-row draws, got error "
                             f"planes of shape {e.shape}")
        count = len(e)
        self._n = n
        self._weights = eigen_decay_weights(m, n)
        self._scratch = np.empty((2, count))
        part = self._scratch[0]
        d1, planes = b[0], e.reshape(count, -1).T
        # Each trial's T0 + T2, the sum of its squared entries, is formed
        # first: its largest is finite only if every entry is finite and
        # small enough to square.
        if n == 1:
            self._coef = coef = np.zeros((3, count))
            np.copyto(coef[0], d1)
            np.copyto(coef[1], planes[0])
            sums = self._scratch[1]
            with np.errstate(over="ignore"):
                _add_squares(coef[2], part, *planes[1:])
                np.square(d1, out=sums)
                _add_squares(sums, part, planes[0])
            _largest_square_sum(np.add(sums, coef[2], out=sums))
            return
        s1, d2 = b[1], b[2]
        self._coef = coef = np.zeros((8 if m == 2 else 11, count))
        d0, d1r, d1i, d2r, d2i, ht0, ht1, ht2 = coef[:8]
        # T0 and T2, halved below, and T1 / 2.
        with np.errstate(over="ignore"):
            _add_squares(ht0, part, d1, s1, d2)
            _add_squares(ht2, part, *planes)
        top = _largest_square_sum(np.add(ht0, ht2, out=part))
        np.multiply(d1, e[:, 0, 0, 0], out=ht1)
        ht1 += np.multiply(s1, e[:, 0, 1, 0], out=part)
        ht1 += np.multiply(d2, e[:, 0, 1, 1], out=part)
        np.multiply(d1, d2, out=d0)
        for row, x in ((d1r, e[:, 0]), (d1i, e[:, 1])):
            np.multiply(d1, x[:, 1, 1], out=row)
            row += np.multiply(d2, x[:, 0, 0], out=part)
            row -= np.multiply(s1, x[:, 0, 1], out=part)
        _error_minor(e, 0, 1, d2r, d2i, part)
        shift = math.frexp(top)[1] // 2
        # The spectra are 2**exponent times those of the scaled batch.
        self._exponent = 2 * shift
        scale = math.ldexp(1.0, -self._exponent)
        if shift:
            coef[:8] *= scale
        ht0 *= 0.5
        ht2 *= 0.5
        if m == 2:
            return
        sl, slq, sq = coef[8:]
        l_re, l_im, q_re, q_im = minors = np.empty((4, count))
        # The column pairs (j, k) past pair (0, 1), in row-major order.
        for j, k in ((j, k) for j in range(m - 1) for k in range(max(j + 1, 2), m)):
            _error_minor(e, j, k, q_re, q_im, part)
            if j < 2:
                # L = h_1j e_2k - h_2j e_1k, with h_1j = 0 past d1 and
                # h_2j = s1, d2.
                for x, l in ((e[:, 0], l_re), (e[:, 1], l_im)):
                    np.negative((s1, d2)[j], out=l)
                    l *= x[:, 0, k]
                    if j == 0:
                        l += np.multiply(d1, x[:, 1, k], out=part)
            # Each minor is scaled, exactly, before it is squared.
            if shift:
                minors[0 if j < 2 else 2:] *= scale
            if j < 2:
                _add_squares(sl, part, l_re, l_im)
                slq += np.multiply(l_re, q_re, out=part)
                slq += np.multiply(l_im, q_im, out=part)
            _add_squares(sq, part, q_re, q_im)
        slq *= 2.0

    def log_damped_weight(self, c, t, out=None):
        """Log of the kappa-free damped weight ``-t * sum(w_i * log
        lambda_i)`` of the ascending spectrum at scale ``c``, with ``w``
        the decay weights (:func:`eigen_decay_weights`), into ``out`` or a
        new row.  Eigenvalues below the smallest normal float count as that
        float, as in :func:`_log_damped_weight`.

        As ``lambda_min * lambda_max = det``, two rows read the weight as
        ``-t * (w_1 log det + (w_2 - w_1) log lambda_max)`` from the scaled
        determinant and ``lambda_max``, and the batch's scaling by
        ``2**-exponent`` adds the constant ``-t * (w_1 + w_2) * exponent *
        log 2``; one row reads it as ``-t * w_1 * log lambda``."""
        c = float(c)
        if out is None:
            out = np.empty(self._scratch.shape[1])
        w = self._weights
        if self._n == 1:
            lam = np.maximum(self._one_row(c, out), _TINY, out=out)
            log = np.log(lam, out=lam)
            log *= -t * w[0]
            return log
        log_scale = self._exponent * math.log(2.0)
        lam_max = self._det_and_lam_max(c, out)
        with np.errstate(divide="ignore"):
            log_max = np.log(lam_max, out=lam_max)
            log_det = np.log(out, out=out)
        # The floor in the batch's scaled units: on lambda_max, then on
        # lambda_min = det / lambda_max.  A sweep's draws do not come near
        # it, so the rows are checked before they are floored.
        floor = _LOG_TINY - log_scale
        if log_max.min() < floor or log_det.min() - log_max.max() < floor:
            np.maximum(log_max, floor, out=log_max)
            np.maximum(log_det, np.add(log_max, floor, out=self._scratch[1]),
                       out=log_det)
        log_det *= -t * w[0]
        log_max *= -t * (w[1] - w[0])
        log_det += log_max
        if log_scale:
            log_det += -t * (w[0] + w[1]) * log_scale
        return log_det

    def _one_row(self, c, out):
        """One row's eigenvalue ``|d1 + c e11|**2 + c**2 sum_{k>1}
        |e1k|**2`` into ``out``."""
        d1, e11, tail = self._coef
        lam = np.square(_horner(out, c, d1, e11), out=out)
        lam += np.multiply(tail, c * c, out=self._scratch[0])
        return lam

    def _det_and_lam_max(self, c, det):
        """Two rows' Gram determinant into ``det``, and their largest
        eigenvalue into a scratch row, which is returned, both in the
        batch's scaled units."""
        d0, d1r, d1i, d2r, d2i, ht0, ht1, ht2 = self._coef[:8]
        fold = self._coef[8:]
        lam_max, root = self._scratch
        np.square(_horner(det, c, d0, d1r, d2r), out=det)
        im = _horner(lam_max, c, d1i, d2i)
        im *= c
        det += np.square(im, out=im)
        if len(fold):
            # A sum of squares, which the fold can round below zero.
            part = np.maximum(_horner(lam_max, c, *fold), 0.0, out=lam_max)
            part *= c * c
            det += part
        # lambda_max = tr/2 + sqrt((tr/2)**2 - det).  Where the trace is
        # lost to cancellation (tr < 0, or det > tr**2 / 4), it is tr/2,
        # with tr clamped at 0.
        half_tr = np.maximum(_horner(lam_max, c, ht0, ht1, ht2), 0.0, out=lam_max)
        np.square(half_tr, out=root)
        root -= det
        np.maximum(root, 0.0, out=root)
        np.sqrt(root, out=root)
        half_tr += root
        return half_tr


def _horner(out, c, *coeffs):
    """``coeffs[0] + c * (coeffs[1] + c * (...))`` into ``out``."""
    np.multiply(coeffs[-1], c, out=out)
    for coeff in coeffs[-2:0:-1]:
        out += coeff
        out *= c
    out += coeffs[0]
    return out


def _add_squares(out, part, *rows):
    """Add the squares of ``rows``, in order, to ``out``; ``part`` is
    overwritten."""
    for row in rows:
        out += np.square(row, out=part)


def _error_minor(e, j, k, out_re, out_im, part):
    """``e_1j e_2k - e_1k e_2j`` of error planes ``e``: its real part into
    ``out_re``, its imaginary part into ``out_im``; ``part`` is overwritten."""
    (a_re, a_im), (b_re, b_im) = e[:, :, 0, j].T, e[:, :, 1, k].T
    (c_re, c_im), (d_re, d_im) = e[:, :, 0, k].T, e[:, :, 1, j].T
    np.multiply(a_re, b_re, out=out_re)
    out_re -= np.multiply(a_im, b_im, out=part)
    out_re -= np.multiply(c_re, d_re, out=part)
    out_re += np.multiply(c_im, d_im, out=part)
    np.multiply(a_re, b_im, out=out_im)
    out_im += np.multiply(a_im, b_re, out=part)
    out_im -= np.multiply(c_re, d_im, out=part)
    out_im -= np.multiply(c_im, d_re, out=part)


def _largest_square_sum(sums):
    """The largest of ``sums``, each the sum of one matrix's squared
    entries.  A NaN or infinite entry, or one whose square overflows,
    leaves it non-finite, which is a ``ValueError``."""
    top = float(sums.max())
    if not math.isfinite(top):
        raise ValueError("matrix entries must be finite")
    return top


def _check_finite(x):
    if not np.isfinite(x).all():
        raise ValueError("matrix entries must be finite")


def _gram(e):
    """``e e^H`` of error planes ``e``, shape ``(count, 2, n, m)``, as its
    ``n * n`` real entries, one per-entry vector each: the diagonal, then
    the real and imaginary part of each entry above it in row-major order
    (:func:`_pairs`)."""
    n = e.shape[-2]
    g = np.empty((n * n, len(e)))
    for i in range(n):
        _row_sum(_dot_term, e, i, i, g[i])
    for p, (i, k) in _pairs(n):
        _row_sum(_dot_term, e, i, k, g[p])
        _row_sum(_cross_term, e, i, k, g[p + 1])
    return g


def _pairs(n):
    """``(row, (i, k))`` for each entry ``i < k`` of an ``n``-row Gram
    matrix in row-major order: its real part is stored in that row of
    :func:`_gram`'s result, and its imaginary part in the next."""
    pairs = [(i, k) for i in range(n) for k in range(i + 1, n)]
    return [(n + 2 * p, ik) for p, ik in enumerate(pairs)]


def _gram_spectrum(g, n):
    """Ascending spectrum, eigenvalue index first, of a Gram matrix stored
    as :func:`_gram` stores it, in a new array."""
    # Trial-last matrices fill from the rows with unit-stride writes.
    # eigvalsh reads the diagonal's real part and the upper triangle.
    matrices = np.zeros((n, n) + g.shape[1:], dtype=np.complex128)
    for i in range(n):
        matrices.real[i, i] = g[i]
    for p, (i, k) in _pairs(n):
        matrices.real[i, k] = g[p]
        matrices.imag[i, k] = g[p + 1]
    lam = np.linalg.eigvalsh(np.moveaxis(matrices, (0, 1), (-2, -1)), UPLO="U")
    vals = np.empty((n,) + g.shape[1:])
    np.clip(np.moveaxis(lam, -1, 0), 0.0, None, out=vals)
    return vals


def _row_sum(term, e, i, k, out):
    """``term`` of rows ``i`` and ``k`` of error planes ``e`` for every
    matrix, summed column by column into ``out``, which is returned.  Each
    entry reaches ``term`` with its planes on the last axis.

    Real arithmetic keeps every product correctly rounded, so the result
    does not depend on the batch's size or layout, as NumPy's complex
    multiply (fused or not, by code path) would make it.
    """
    term(e[..., i, 0], e[..., k, 0], out)
    if e.shape[-1] > 1:
        part = np.empty_like(out)
        for j in range(1, e.shape[-1]):
            out += term(e[..., i, j], e[..., k, j], part)
    return out


def _dot_term(a, b, out):
    """``Re(a * conj(b)) = a.real * b.real + a.imag * b.imag`` into ``out``."""
    np.multiply(a[..., 0], b[..., 0], out=out)
    out += a[..., 1] * b[..., 1]
    return out


def _cross_term(a, b, out):
    """``Im(a * conj(b)) = a.imag * b.real - a.real * b.imag`` into ``out``."""
    np.multiply(a[..., 1], b[..., 0], out=out)
    out -= a[..., 0] * b[..., 1]
    return out


def wishart_log_norm_const(m, n):
    """Log normalization constant of the ordered Gram eigenvalue density.

    For an ``n x m`` (``m >= n``) iid complex Gaussian matrix the joint
    density of the ascending Gram eigenvalues is ``1/const *
    prod(a_i**(m-n)) * prod_{i<j}(a_j - a_i)**2 * exp(-sum(a))`` and this
    returns ``log(const) = sum_i log((m-i)! (n-i)!)``, evaluated in the log
    domain so large antenna counts do not overflow.
    """
    m = int(m)
    n = int(n)
    if n < 1 or m < n:
        raise ValueError(f"need m >= n >= 1, got ({m}, {n})")
    # Imported on first use: only sweeps need SciPy, and it is slow to load.
    from scipy.special import gammaln

    return float(sum(gammaln(m - i + 1) + gammaln(n - i + 1) for i in range(1, n + 1)))

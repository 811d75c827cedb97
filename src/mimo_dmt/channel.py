"""Rayleigh MIMO channel sampling with an imperfect transmitter-side estimate.

The channel is an ``n_rx x m_tx`` matrix of iid unit-variance complex Gaussian
entries.  The transmitter works from a noisy estimate of it: the true matrix
plus an independent complex Gaussian error whose per-entry variance decays as
``rho ** -alpha``, so ``alpha`` measures how fast estimate quality improves
with SNR (0 = never, large = very fast).

An outage sweep reads the channel only through ``det(I + P H H^H)`` and the
estimate only through its Gram spectrum, so the sampler draws a real lower
bidiagonal ``B`` and an error ``E`` rather than iid-entry matrices: an iid
matrix is ``Q [B 0] P^H`` with ``Q`` and ``P`` unitary and ``B``'s diagonal
``d_i`` and subdiagonal ``s_i`` independent, ``d_i**2 ~ Gamma(m - i + 1)``
and ``s_i**2 ~ Gamma(n - i)`` (Dumitriu & Edelman, J. Math. Phys. 43(11),
2002), and an isotropic error keeps its law under the rotation.  At
constant power ``B`` is the channel's, and ``det(I + P B B^T)`` is a
polynomial in ``P`` over sums of squared minors of ``B``
(:func:`bidiagonal_minor_sums`).  Under damping ``B`` is the estimate's:
the estimate is ``CN(0, s)``, ``s = 1 + sigma**2``, and the channel given
it ``CN(estimate / s, sigma**2 / s)``, so with the estimate ``sqrt(s) [B
0]`` the channel is ``X / sqrt(s)``, ``X = [B 0] + c E`` with ``c E`` of
variance ``sigma**2``.  A span reads the estimate's damped weight from
``B``'s entries alone (:func:`log_damped_weight`), and ``det(I + P X
X^H)`` at any ``c`` from :class:`EstimateMinors` (one and two rows, exact
at any fade depth) or :class:`GramPolynomial` (more rows, an LDL^H that
loses the small eigenvalue once ``eps * P * lambda_max`` nears 1).

Sampling is counter-based: trial ``i`` of a given seed always yields the
same matrices regardless of how trials are batched or which worker draws
them, which makes parallel Monte Carlo bit-reproducible.

Batches are trial-contiguous: each entry of ``B``, and each plane of each
entry of the error, is one contiguous vector of trials.  Gram entries,
minors, determinants and traces are whole-vector arithmetic over them.

SciPy is needed only for the eigenvalue density's normalizer (``gammaln``),
and is imported on first use, so the sampler, the closed form, the oracle
and the reports load without it.
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
    "log_damped_weight",
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


def log_damped_weight(b, m, t):
    """Log of the kappa-free damped weight ``-t * sum(c_k log lambda_k)``,
    ``c_k = 2k - 1 + m - n``, of ``B B^T``'s ascending eigenvalues, as a
    new row, for the entries ``b`` of :func:`sample_channel_block`'s ``B``,
    shape ``(2n - 1, count)``; other shapes are a ``ValueError``.

    As the ``c_k`` step by 2, it is ``-t * (c_1 log det + sum_{k>=2} 2 (k -
    1) log lambda_k)``, with ``log det = sum log d_i**2``.  ``lambda_2 ..
    lambda_n`` of the tridiagonal ``B B^T`` (``a_ii = s_{i-1}**2 + d_i**2``,
    ``a_{i,i+1} = d_i s_i``) are none on one row, ``(a_11 + a_22)/2 +
    sqrt(((a_11 - a_22)/2)**2 + (d_1 s_1)**2)``, a sum of non-negative
    terms, on two, and one real ``eigvalsh``'s on more.  Each, and
    ``lambda_1 = det / prod_{k>=2} lambda_k`` in logs, counts as the
    smallest normal float when it falls below it.

    The domain is every entry 0 or within [1e-60, 1e60], where fourth
    powers stay normal; the sampler's are 0 or between about 1e-8 and 50.
    A trial's weight does not depend on its batch.  On one and two rows
    its error is within ``16 u t`` of the logs it sums at any fade depth:
    on 600 nearly rank-1 two-row ``B`` (``lambda_1 / lambda_2`` from
    1.1e-23 to 5.2e-8) it was within 2.9e-14 of a 60-digit reference at t
    0.9, where ``eigvalsh`` of the ``matmul`` Gram matrix was off by up to
    2,417.
    """
    if b.ndim != 2 or len(b) % 2 == 0:
        raise ValueError("expected B's 2n - 1 entries as rows of trials, "
                         f"got shape {b.shape}")
    n, count = (len(b) + 1) // 2, b.shape[1]
    # Separate rows, so that the returned one alone stays alive.
    out, part = np.empty(count), np.empty(count)
    if n == 1:
        lam = np.empty((0, count))
    elif n == 2:
        d1, s1, d2 = b
        lam = np.square(d1)[np.newaxis]
        a22 = np.add(np.square(s1, out=out), np.square(d2, out=part), out=out)
        root = np.square(np.subtract(lam[0], a22, out=part), out=part)
        root *= 0.25
        lam += a22
        lam *= 0.5
        root += np.square(np.multiply(d1, s1, out=out), out=out)
        lam += np.sqrt(root, out=root)
    else:
        # Trial-last matrices fill from the rows with unit-stride writes;
        # eigvalsh reads the diagonal and the upper triangle.
        a = np.zeros((n, n, count))
        a[range(n), range(n)] = np.square(b[0::2])
        a[range(1, n), range(1, n)] += np.square(b[1::2])
        a[range(n - 1), range(1, n)] = b[:-1:2] * b[1::2]
        lam = np.linalg.eigvalsh(np.moveaxis(a, (0, 1), (-2, -1)), UPLO="U")
        lam = np.ascontiguousarray(lam[:, 1:].T)
    np.log(np.maximum(lam, _TINY, out=lam), out=lam)
    with np.errstate(divide="ignore"):
        log_det = np.log(np.square(b[0], out=out), out=out)
        for d in b[2::2]:
            log_det += np.log(np.square(d, out=part), out=part)
    # The floor on lambda_1: log det at least log(tiny) + sum_{k>=2} log
    # lambda_k.  A sweep's draws do not come near it.
    floor = np.sum(lam, axis=0, out=part)
    floor += _LOG_TINY
    np.maximum(log_det, floor, out=log_det)
    log_det *= -t * (1 + m - n)
    for k, row in enumerate(lam, start=2):
        row *= -t * 2 * (k - 1)
        log_det += row
    return log_det


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

    Returns the pair ``(b, e)``: the bidiagonals and the estimation errors,
    whose per-entry variance is ``rho ** -alpha``.  ``b`` holds the entries
    of a real lower bidiagonal ``B``, the channel's at constant power and
    the scaled estimate's under damping (see the module docstring): a
    float64 array of shape ``(2n - 1, count)`` whose rows are
    ``d_1, s_1, d_2, ..., s_{n-1}, d_n``, so that ``b[0::2]`` is the
    diagonal and ``b[1::2]`` the subdiagonal.  With ``e`` it gives every
    Gram spectrum of the channel and its estimate the law an iid channel
    would.  Each squared entry of shape ``k`` is ``-log`` of a product of
    ``k`` uniforms, so a trial takes a fixed ``3 * n * m`` uniforms.

    ``e`` has iid complex Gaussian entries, drawn in polar form, returned
    as real planes: a float64 array of shape ``(count, 2, n, m)`` with the
    real parts in ``e[:, 0]`` and the imaginary parts in ``e[:, 1]``.  With
    ``error`` false the error's uniforms are drawn but not transformed, and
    ``e`` is None.  Both arrays are stored trial-last: for each entry (and
    plane), the ``count`` trials are one contiguous vector.  They are views
    of one buffer, the uniforms': each entry of ``B`` is written over spent
    uniforms, and each error entry over its own two.  Any contiguous
    partition of the trial range reproduces the one-shot draw bit for bit.
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
        # Shifted up by half an ulp, no log sees an exact zero.
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
    # Each error entry is polar (Box & Muller, 1958): its real-plane uniform
    # a gives r = sqrt(-sigma**2 log a) and its imaginary-plane uniform v
    # tau = tan(pi (v - 1/2)), v - 1/2 exact; Re = r (1 - tau**2) / (1 +
    # tau**2), with 1 - tau**2 as 2 - (1 + tau**2), and Im = r 2 tau / (1 +
    # tau**2).  A uniform of 1.0 gives r = 0, or tau near 1.6e16: finite.
    for a, v in zip(u[nm:2 * nm], u[2 * nm:]):
        np.sqrt(np.multiply(np.log(a, out=a), -rho ** -cfg.alpha, out=a), out=a)
        np.tan(np.multiply(np.subtract(v, 0.5, out=v), math.pi, out=v), out=v)
        np.add(np.square(v, out=prod), 1.0, out=prod)
        np.multiply(v, np.divide(a, prod, out=a), out=v)
        v *= 2.0
        a *= np.subtract(2.0, prod, out=prod)
    return b, u[nm:].reshape(2, n, m, count).transpose(3, 0, 1, 2)


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
    each SNR point forms no per-point matrix or Gram product.
    :meth:`capacity_det` takes ``det(I + P X X^H)`` by an LDL^H, within
    ``10.3 u (1 + P S)``, ``S = sum((|h| + c |e|)**2)``, of the exact value
    on 6x6 at entries from 1e-100 to 1e100, rank-1, zero and cancelling
    ones too.

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
    at a time.
    """

    def __init__(self, b, e):
        n, _ = _draw_shape(b, e)
        _check_finite(b)
        _check_finite(e)
        count = len(e)
        self._n = n
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
        self._rows = np.empty((4, count))

    def _evaluate(self, c):
        """``A + c * (B + c * C)`` into the scratch Gram, which is returned."""
        gram = np.multiply(self._c, float(c), out=self._gram)
        gram += self._b
        gram *= c
        gram += self._a
        return gram

    def capacity_det(self, c, weight, scale, out):
        """``det(I + P X X^H)``, ``X = h + c e``, ``P = scale * weight``,
        per trial, into ``out``: the product of the LDL^H pivots of ``I + P
        (A + c (B + c C))``.  Past the largest float it reads inf or NaN."""
        gram = self._evaluate(c)
        power = np.multiply(weight, scale, out=self._rows[0])
        gram *= power
        gram[:self._n] += 1.0
        return _hermitian_det(gram, self._n, out, self._rows)


class EstimateMinors:
    """Capacity determinants of ``X = h + c e``, ``h = [B 0]``, of one- or
    two-row draws ``(b, e)`` of :func:`sample_channel_block`, for any real
    ``c``, from ``X``'s Gram determinant and trace as polynomials in ``c``.

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
    stored halved.  The determinant is quartic, so a two-row batch's
    coefficients are scaled by the power of two that brings its largest
    ``T0 + T2`` near 1; the scaling is exact.  In the scaled units, a
    determinant below about 1e-308 of that largest ``T0 + T2`` squared is
    subnormal and loses precision.

    :meth:`capacity_det` calls no eigenvalue routine and needs no root or
    logarithm, and every product is correctly rounded.  A NaN or infinite
    entry raises ``ValueError``, as does an entry past about 1.3e154, whose
    square overflows, or a trial whose squared entries sum past the largest
    float: the constructor reads that from the largest ``T0 + T2``.  An
    instance serves one thread at a time.
    """

    def __init__(self, b, e):
        n, m = _draw_shape(b, e)
        if n > 2:
            raise ValueError("expected one- or two-row draws, got error "
                             f"planes of shape {e.shape}")
        count = len(e)
        self._n = n
        self._exponent = 0
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
        # The Gram matrices are 2**exponent times those of the scaled batch.
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

    def _one_row(self, c, out):
        """One row's eigenvalue ``|d1 + c e11|**2 + c**2 sum_{k>1}
        |e1k|**2`` into ``out``."""
        d1, e11, tail = self._coef
        lam = np.square(_horner(out, c, d1, e11), out=out)
        lam += np.multiply(tail, c * c, out=self._scratch[0])
        return lam

    def capacity_det(self, c, weight, scale, out):
        """``det(I + P X X^H)``, ``X = h + c e``, ``P = scale * weight``,
        per trial, into ``out``: ``1 + P tr + P**2 det`` (``1 + P lambda``
        on one row), with the batch's ``2**-exponent`` moved into ``P``.
        Past the largest float it reads inf or NaN."""
        power = np.multiply(weight, np.ldexp(scale, self._exponent),
                            out=self._scratch[1])
        if self._n == 1:
            self._one_row(float(c), out)
        else:
            # P det + tr, with tr/2 added twice.
            half_tr = self._det_and_half_trace(float(c), out)
            out *= power
            out += half_tr
            out += half_tr
        out *= power
        out += 1.0
        return out

    def _det_and_half_trace(self, c, det):
        """Two rows' Gram determinant into ``det``, and half their trace,
        clamped at 0, into the first scratch row, which is returned, both
        in the batch's scaled units."""
        d0, d1r, d1i, d2r, d2i, ht0, ht1, ht2 = self._coef[:8]
        fold = self._coef[8:]
        half_tr = self._scratch[0]
        np.square(_horner(det, c, d0, d1r, d2r), out=det)
        im = _horner(half_tr, c, d1i, d2i)
        im *= c
        det += np.square(im, out=im)
        if len(fold):
            # A sum of squares, which the fold can round below zero.
            part = np.maximum(_horner(half_tr, c, *fold), 0.0, out=half_tr)
            part *= c * c
            det += part
        return np.maximum(_horner(half_tr, c, ht0, ht1, ht2), 0.0, out=half_tr)


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


def _hermitian_det(g, n, out, rows):
    """Determinant of Hermitian ``M >= I`` stored as :func:`_gram` stores
    them, into ``out``, overwriting ``g`` and ``rows``: an LDL^H, ``M_kl -=
    conj(M_jk) M_jl / M_jj``, in real arithmetic on rows of trials.  Each
    pivot, at least 1 in exact arithmetic, is floored there; an infinite
    entry gives an infinite or NaN determinant, never a finite one."""
    index = {ik: p for p, ik in _pairs(n)}
    inv, r_re, r_im, part = rows
    out.fill(1.0)
    for j in range(n):
        out *= np.maximum(g[j], 1.0, out=g[j])
        np.divide(1.0, g[j], out=inv)
        for k in range(j + 1, n):
            p = index[j, k]
            # r = M_jk / M_jj; then M_kk -= Re(conj(r) M_jk).
            np.multiply(g[p], inv, out=r_re)
            np.multiply(g[p + 1], inv, out=r_im)
            g[k] -= np.multiply(r_re, g[p], out=part)
            g[k] -= np.multiply(r_im, g[p + 1], out=part)
            for q in range(k + 1, n):
                jq, kq = index[j, q], index[k, q]
                # M_kq -= conj(r) M_jq, its real and imaginary parts.
                g[kq] -= np.multiply(r_re, g[jq], out=part)
                g[kq] -= np.multiply(r_im, g[jq + 1], out=part)
                g[kq + 1] -= np.multiply(r_re, g[jq + 1], out=part)
                g[kq + 1] += np.multiply(r_im, g[jq], out=part)
    return out


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

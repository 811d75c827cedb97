"""Rayleigh MIMO channel sampling with an imperfect transmitter-side estimate.

The channel is an ``n_rx x m_tx`` matrix of iid unit-variance complex Gaussian
entries.  The transmitter works from a noisy estimate of it: the true matrix
plus an independent complex Gaussian error whose per-entry variance decays as
``rho ** -alpha``, so ``alpha`` measures how fast estimate quality improves
with SNR (0 = never, large = very fast).

Everything downstream reads the channel and its estimate only through Gram
spectra, so the sampler draws a representative of the channel rather than an
iid-entry matrix.  An iid channel bidiagonalizes as ``H = Q [B 0] P^H`` with
``Q`` and ``P`` unitary and ``B`` real lower bidiagonal, its entries
independent with ``B_ii**2 ~ Gamma(m - i + 1)`` and ``B_{i+1,i}**2 ~
Gamma(n - i)`` (Dumitriu & Edelman, J. Math. Phys. 43(11), 2002).  The error
is isotropic and independent of the channel, so ``Q^H E P`` has the law of
``E``, and the pair ``([B 0], E)`` gives the spectra of ``H H^H`` and of
``(H + c E)(H + c E)^H`` their joint law for every ``c``.  The sampler
returns ``[B 0]`` as a real float64 array, and the one- and two-row Gram
blocks of :class:`GramPolynomial` skip its zero imaginary part.

Sampling is counter-based: trial ``i`` of a given (seed, stream) pair always
yields the same matrices regardless of how trials are batched or which worker
draws them, which makes parallel Monte Carlo bit-reproducible.

Batches are trial-contiguous: a ``(count, n, m)`` batch is stored trial-last,
so each matrix entry's trials form one contiguous vector, and the closed-form
spectra of one- and two-row links are whole-vector arithmetic over them.

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
    "GramPolynomial",
    "eig_ascending",
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
# A product of k uniforms, each at least 2**-54, stays a normal float for
# k <= 18 (2**-972 > 2**-1022); longer products are summed as logs of
# products of at most this many.
_MAX_PRODUCT = 18
_TRIAL_PAD = 8
# Trials per C-ordered copy when GramPolynomial forms matmul blocks: 2.4 MB
# per copy at 6x6.
_GRAM_CHUNK = 4096


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


def _bit_generator(seed, stream):
    """The Philox generator keyed by ``(seed, stream)``, both 64-bit words.

    A seed outside ``[0, 2**64)`` is a ``ValueError``: it has no key of its
    own, and masking it would alias it to another seed's draws."""
    seed = int(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must lie in [0, 2**64), got {seed}")
    return np.random.Philox(key=np.array([seed, stream], dtype=np.uint64))


def _bidiagonal_entries(n, m):
    """``(row, column, shape)`` of each nonzero entry of ``[B 0]``, in draw
    order; the squared entry is Gamma(shape) and the shapes sum to ``n*m``."""
    for i in range(n):
        yield i, i, m - i
        if i + 1 < n:
            yield i + 1, i, n - i - 1


def sample_channel_block(cfg, rho, seed, start=0, count=1, stream=0):
    """Draw trials ``start .. start+count-1`` of a (seed, stream) sequence.

    Returns the pair ``(h, e)``: the channels and the estimation errors,
    whose per-entry variance is ``rho ** -alpha``.  ``e`` has iid complex
    Gaussian entries.  ``h`` is the channel's bidiagonal representative
    ``[B 0]`` (see the module docstring): a real float64 array, zero off
    the diagonal and subdiagonal, with each squared entry gamma-distributed.  It is not an
    iid-entry matrix, but with ``e`` it gives every Gram spectrum of the
    channel and its estimate the law an iid channel would.  Each squared
    entry of shape ``k`` is ``-log`` of a product of ``k`` uniforms, so a
    trial takes a fixed ``3 * n * m`` uniforms.

    ``e`` is complex128.  Both are stacked with a leading trial axis of
    length ``count``, stored trial-last: for each matrix entry, the ``count`` trials are one
    contiguous vector.  Any contiguous partition of the trial range
    reproduces the one-shot draw bit for bit.
    """
    rho = float(rho)
    if not math.isfinite(rho) or rho <= 0.0:
        raise ValueError(f"rho must be finite and positive, got {rho}")
    start = _integer(start, "start")
    count = _integer(count, "count")
    if start < 0 or count < 1:
        raise ValueError(f"need start >= 0 and count >= 1, got ({start}, {count})")
    # Imported on first use: only sweeps need SciPy, and it is slow to load.
    from scipy.special import ndtri

    n, m = cfg.n_rx, cfg.m_tx
    nm = n * m
    ticks_per_trial = -(-3 * nm // _DOUBLES_PER_TICK)
    bg = _bit_generator(seed, stream)
    bg.advance(start * ticks_per_trial)
    gen = np.random.Generator(bg)
    u = gen.random(count * ticks_per_trial * _DOUBLES_PER_TICK).reshape(count, -1)
    # Shift the half-open [0,1) uniforms into (0,1) so neither the log nor
    # the normal quantile transform sees an exact zero.
    u += _HALF_ULP
    # Trial-last storage: each matrix entry's trials lie contiguous, so the
    # per-entry arithmetic downstream runs over whole vectors.  Padding
    # keeps the entries from starting a power of two bytes apart, where
    # the many entries of a large link would share cache sets.
    h = np.zeros((n, m, count + _TRIAL_PAD))[..., :count].transpose(2, 0, 1)
    e = np.empty((n, m, count + _TRIAL_PAD),
                 dtype=np.complex128)[..., :count].transpose(2, 0, 1)
    # Each entry of B sums -log of its products of uniforms, from zero, and
    # takes the root; the rest of h stays zero.
    col = 0
    prod = np.empty(count)
    for i, j, shape in _bidiagonal_entries(n, m):
        b = h[:, i, j]
        for lo in range(col, col + shape, _MAX_PRODUCT):
            np.copyto(prod, u[:, lo])
            for k in range(lo + 1, min(col + shape, lo + _MAX_PRODUCT)):
                prod *= u[:, k]
            b -= np.log(prod, out=prod)
        np.sqrt(b, out=b)
        col += shape
    # The error's normal quantiles run in place, so a span holds one buffer
    # of uniforms rather than two.
    z = ndtri(u[:, nm:3 * nm], out=u[:, nm:3 * nm]).reshape(count, 2, n, m)
    e_scale = math.sqrt(0.5 * rho ** -cfg.alpha)
    np.multiply(z[:, 0], e_scale, out=e.real)
    np.multiply(z[:, 1], e_scale, out=e.imag)
    return h, e


def eig_ascending(x):
    """Ascending eigenvalues of ``x @ x^H`` for one matrix or a batch.

    Accepts shape ``(..., n, m)`` in any memory layout and returns shape
    ``(..., n)``, sorted ascending and non-negative, with the batch axes
    contiguous: each eigenvalue index is one vector over the batch.  Inputs
    with one or two rows take a closed form whose Gram entries are summed
    column by column over the per-entry vectors ``x[..., i, j]``, which are
    contiguous for the trial-last draws of :func:`sample_channel_block`.
    Three or more rows go through ``numpy.linalg.eigvalsh`` on the Gram
    matrix, whose tiny negative values on rank-deficient inputs are clamped
    to zero.  :class:`GramPolynomial` forms and reads its Gram matrices the
    same way.

    * ``n == 1``: the one eigenvalue is the row's squared norm.
    * ``n == 2``: from the Gram entries ``g11``, ``g22`` and ``g12``, each
      divided by the trace so that no product overflows or underflows,
      ``lambda_max = tr/2 * (1 + sqrt(d**2 + 4|o|**2))`` and
      ``lambda_min = det / lambda_max``, with ``d`` and ``o`` the scaled
      diagonal difference and off-diagonal entry and ``det`` clamped at 0.

    Measured against ``eigvalsh`` on 15.4 million complex Gaussian inputs
    with ``m <= 6`` and entries scaled from 1e-100 to 1e100 in seven steps,
    rank-1, equal-eigenvalue and zero inputs among them, the closed forms
    differed by at most ``1.78e-15 * lambda_max``.
    """
    x = np.asarray(x, dtype=np.complex128)
    if x.ndim < 2:
        raise ValueError("expected a matrix or a batch of matrices")
    _check_finite(x)
    return np.moveaxis(_gram_spectrum(_gram(x), x.shape[-2]), 0, -1)


class GramPolynomial:
    """Gram matrices of ``h + c * e`` for any real ``c``, from one batch of
    ``(h, e)`` pairs.

    ``(h + c e)(h + c e)^H = A + c * (B + c * C)`` with ``A = h h^H``,
    ``B = h e^H + e h^H`` and ``C = e e^H``.  The constructor forms the
    three blocks once, so an outage sweep that rescales one error draw to
    each SNR point forms neither a per-point estimate nor a per-point Gram
    product: :meth:`spectrum` evaluates the quadratic and takes its
    spectrum as :func:`eig_ascending` does.

    ``h`` and ``e`` may each be real or complex; the sweep passes a real
    ``h``.  The blocks are stored as :func:`eig_ascending` forms its Gram
    matrix.  For one and two rows that is the ``n * n`` real entries as
    per-entry vectors (the diagonal, then the real and imaginary parts of
    ``g12``), summed column by column in real arithmetic, with no product of
    a real operand's zero imaginary part: the blocks equal those of the
    complex-cast operands up to the sign of an exact zero.  For three or
    more rows they are the complex ``(..., n, n)`` matrices from ``matmul``
    on complex copies.  The quadratic is
    evaluated on float64 views in both cases, so every product is correctly
    rounded and a trial's result does not depend on its batch.  At ``c = 0``
    the quadratic is ``A`` exactly, so ``spectrum(0.0)`` equals
    ``eig_ascending(h)`` bit for bit.  Each instance evaluates into one
    scratch Gram, in which the two-row spectrum is then worked out, so it
    serves one thread at a time; every spectrum it returns is a new array.

    Measured against ``eig_ascending(h + c * e)`` on 18.1 million complex
    Gaussian inputs with ``n`` in 1..4 and 6, ``n <= m <= 9``, ``c`` in
    {1, 1e-3, 1e-12} and entries scaled from 1e-100 to 1e100 in seven
    steps, rank-1, zero and cancelling (``e`` near ``-h / c``) inputs among
    them, the spectra differed by at most ``1.9e-15 * tr(A + c**2 C)``.
    That bound is on the size of the two terms: where they cancel, the
    estimate's own eigenvalues can be far smaller.
    """

    def __init__(self, h, e):
        h, e = _real_or_complex(h), _real_or_complex(e)
        if h.ndim < 2 or h.shape != e.shape:
            raise ValueError("expected two batches of matrices of one shape")
        _check_finite(h)
        _check_finite(e)
        self._n = n = h.shape[-2]
        if n <= 2:
            self._a = _gram(h)
            self._b = _cross_gram(h, e)
            self._c = _gram(e)
        else:
            self._a, self._b, self._c = (
                np.empty(h.shape[:-1] + (n,), dtype=np.complex128) for _ in range(3))
            # matmul wants C-ordered complex matrices.  Copying a trial-last
            # batch a chunk of trials at a time keeps the copies and the
            # products' temporaries small beside the three blocks.
            chunks = ([slice(s, s + _GRAM_CHUNK) for s in range(0, len(h), _GRAM_CHUNK)]
                      if h.ndim > 2 else [slice(None)])
            for part in chunks:
                hp, ep = (np.ascontiguousarray(x[part], dtype=np.complex128)
                          for x in (h, e))
                self._a[part] = _gram(hp)
                self._b[part] = _cross_gram(hp, ep)
                self._c[part] = _gram(ep)
        self._gram = np.empty_like(self._a)

    def spectrum(self, c):
        """Ascending spectrum of ``(h + c e)(h + c e)^H``, in the shape and
        layout of :func:`eig_ascending`'s result.  The result is a new
        array, which later calls leave unchanged."""
        c = float(c)
        gram = self._gram.view(np.float64)
        if c == 0.0:
            # The quadratic at c = 0 is A exactly.
            np.copyto(gram, self._a.view(np.float64))
        else:
            np.multiply(self._c.view(np.float64), c, out=gram)
            gram += self._b.view(np.float64)
            gram *= c
            gram += self._a.view(np.float64)
        return np.moveaxis(_gram_spectrum(self._gram, self._n), 0, -1)


def _real_or_complex(x):
    """``x`` as float64 if its dtype is real, else as complex128."""
    x = np.asarray(x)
    return x.astype(np.complex128 if np.iscomplexobj(x) else np.float64, copy=False)


def _check_finite(x):
    if not np.isfinite(x).all():
        raise ValueError("matrix entries must be finite")


def _gram(x):
    """``x @ x^H``: the ``n * n`` real entries for one or two rows, else the
    complex matrices."""
    n = x.shape[-2]
    if n >= 3:
        # matmul and eigvalsh work matrix by matrix and run fastest on
        # contiguous matrices, so a trial-last batch is copied first.
        x = np.ascontiguousarray(x)
        return x @ np.conj(np.swapaxes(x, -1, -2))
    g = np.empty((n * n,) + x.shape[:-2])
    rows = _rows(g)
    _row_sum(_dot_term, x, 0, x, 0, rows[0])
    if n == 2:
        _row_sum(_dot_term, x, 1, x, 1, rows[1])
        _row_sum(_dot_term, x, 0, x, 1, rows[2])
        _row_sum(_cross_term, x, 0, x, 1, rows[3])
    return g


def _cross_gram(x, y):
    """``x @ y^H + y @ x^H``, stored as :func:`_gram` stores a Gram matrix."""
    n = x.shape[-2]
    if n >= 3:
        p = x @ np.conj(np.swapaxes(y, -1, -2))
        # Adding an entry to a conjugate entry rounds each part once.
        g = np.empty_like(p)
        np.conj(np.swapaxes(p, -1, -2), out=g)
        g += p
        return g
    g = np.empty((n * n,) + x.shape[:-2])
    rows = _rows(g)
    for i in range(n):
        _row_sum(_dot_term, x, i, y, i, rows[i])
        rows[i] *= 2.0
    if n == 2:
        part = np.empty_like(rows[0])
        for k, term in ((2, _dot_term), (3, _cross_term)):
            _row_sum(term, x, 0, y, 1, rows[k])
            rows[k] += _row_sum(term, y, 0, x, 1, part)
    return g


def _rows(g):
    """The rows of ``g`` as arrays, which for a single matrix's Gram
    entries would be scalars."""
    return g[:, np.newaxis]


def _gram_spectrum(g, n):
    """Ascending spectrum, eigenvalue index first, of a Gram matrix stored
    as :func:`_gram` stores it, in a new array.  Two-row spectra are worked
    out in ``g``'s rows, which they overwrite."""
    if n == 1:
        # The squared norm of a sum of rows can round below zero.
        return np.maximum(g, 0.0)
    if n == 2:
        return _two_row_spectrum(g)
    vals = np.empty((n,) + g.shape[:-2])
    np.clip(np.moveaxis(np.linalg.eigvalsh(g), -1, 0), 0.0, None, out=vals)
    return vals


def _row_sum(term, x, i, y, k, out):
    """``term`` of row ``i`` of ``x`` and row ``k`` of ``y`` for every
    matrix, summed column by column into ``out``, which is returned.

    Real arithmetic keeps every product correctly rounded, so the result
    does not depend on the batch's size or layout, as NumPy's complex
    multiply (fused or not, by code path) would make it.
    """
    term(x[..., i, 0], y[..., k, 0], out)
    if x.shape[-1] > 1:
        part = np.empty_like(out)
        for j in range(1, x.shape[-1]):
            out += term(x[..., i, j], y[..., k, j], part)
    return out


# The two products of a pair of entries, real or complex.  A real operand's
# imaginary part is zero, and so is every product with it: skipping them
# changes no result but the sign of an exact zero.

def _dot_term(a, b, out):
    """``Re(a * conj(b)) = a.real * b.real + a.imag * b.imag`` into ``out``."""
    np.multiply(a.real, b.real, out=out)
    if np.iscomplexobj(a) and np.iscomplexobj(b):
        out += a.imag * b.imag
    return out


def _cross_term(a, b, out):
    """``Im(a * conj(b)) = a.imag * b.real - a.real * b.imag`` into ``out``."""
    if np.iscomplexobj(a):
        np.multiply(a.imag, b.real, out=out)
        if np.iscomplexobj(b):
            out -= a.real * b.imag
    elif np.iscomplexobj(b):
        np.negative(a * b.imag, out=out)
    else:
        out.fill(0.0)
    return out


def _two_row_spectrum(g):
    """Closed-form ascending spectrum of two-row Gram matrices, from their
    diagonal and the real and imaginary parts of ``g12`` in the rows of
    ``g``, which it overwrites, into a new ``(2, ...)`` array."""
    g11, g22, g_re, g_im = _rows(g)
    out = np.empty_like(g[:2])
    lam_min, lam_max = _rows(out)
    # A diagonal entry of a Gram polynomial can round below zero.
    np.maximum(g11, 0.0, out=g11)
    np.maximum(g22, 0.0, out=g22)
    tr = np.add(g11, g22, out=lam_max)
    # A zero matrix has trace 0; dividing by 1 instead yields (0, 0).
    scale = lam_min
    scale.fill(1.0)
    np.copyto(scale, tr, where=tr > 0.0)
    a = np.divide(g11, scale, out=g11)
    c = np.divide(g22, scale, out=g22)
    # A Gram matrix has |g12| <= sqrt(g11 * g22) <= tr / 2.  Rounding in a
    # Gram polynomial can break that bound by far when the sum cancels;
    # clipping each scaled part to it keeps the squares finite.
    for part in (g_re, g_im):
        part /= scale
        np.clip(part, -0.5, 0.5, out=part)
        np.square(part, out=part)
    o_sq = np.add(g_re, g_im, out=g_re)
    d = np.subtract(a, c, out=g_im)
    det = a
    det *= c
    det -= o_sq
    np.maximum(det, 0.0, out=det)
    # half = (1 + sqrt(d**2 + 4 o_sq)) / 2, in d's row; c's row takes 4 o_sq.
    half = d
    half *= d
    half += np.multiply(o_sq, 4.0, out=c)
    np.sqrt(half, out=half)
    half += 1.0
    half *= 0.5
    lam_max *= half
    # The minimum keeps the pair ascending where rounding would cross it.
    det /= half
    det *= scale
    np.minimum(det, lam_max, out=lam_min)
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

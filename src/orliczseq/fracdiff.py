"""Fractional differences and the induced modulus of smoothness.

The order-alpha difference with shift h acts on coefficients as
multiplication by (1 - exp(-i*k*h))**alpha.  The binomial-series form is kept
as an independent oracle: its partial sums must converge to the multiplier,
exactly so for integer alpha.
"""

import math

import numpy as np

from ._search import _zoom
from .orlicz import _blocks, _lux_rows, luxemburg_norm
from .spectrum import CoeffSeq

__all__ = [
    "binom",
    "k_constant",
    "frac_difference",
    "frac_difference_series",
    "modulus",
]


def binom(alpha: float, j: int) -> float:
    """Generalized binomial coefficient alpha*(alpha-1)*...*(alpha-j+1)/j!."""
    if j < 0:
        raise ValueError("binomial index must be nonnegative")
    return float((-1) ** j * _signed_coeffs(alpha, int(j))[-1])


def _signed_coeffs(alpha: float, j_max: int) -> np.ndarray:
    """Array of (-1)**j * binom(alpha, j) for j = 0..j_max via the stable recurrence."""
    j = np.arange(j_max, dtype=float)
    out = np.cumprod(np.append(1.0, (j - alpha) / (j + 1.0)))
    if alpha >= 0 and float(alpha).is_integer():  # integer terms: multiply, then divide, exact
        for i in range(min(j_max, int(alpha))):  # while the products stay below 2**53
            if abs(out[i] * (i - alpha)) >= 2.0 ** 53:
                break
            out[i + 1] = out[i] * (i - alpha) / (i + 1)
    return out


def k_constant(alpha: float) -> float:
    """sum_j |binom(alpha, j)|, the difference-operator norm bound, as a finite sum.

    For m = floor(alpha), the terms (-1)**j binom(alpha, j) with j > m share one sign and the
    whole series sums to (1 - 1)**alpha = 0, so the tail is |sum_{j<=m} (-1)**j binom(alpha, j)|.
    K = 2**alpha for integer alpha (the recurrence would round it), and K >= 2**m is inf from 1024 on.
    """
    if not 0 < alpha < math.inf:
        raise ValueError("order must be positive and finite")
    m = math.floor(alpha)
    if m >= 1024:
        return math.inf
    if alpha == m:
        return 2.0 ** m
    s = _signed_coeffs(alpha, m)
    return float(np.abs(s).sum() + abs(s.sum()))


def _check_order(alpha):
    if not alpha > 0:
        raise ValueError("difference order must be positive")


def frac_difference(f: CoeffSeq, alpha: float, h: float) -> CoeffSeq:
    """Order-alpha difference via the multiplier (1 - exp(-i*k*h))**alpha.

    The principal complex power is legal here: Re(1 - exp(-i*theta)) =
    1 - cos(theta) >= 0 keeps the base in the closed right half-plane, and the
    series oracle cross-validates the branch.  The k = 0 entry always drops.
    """
    _check_order(alpha)
    ks, cs = f.as_arrays()
    z = 1.0 - np.exp(-1j * ks * float(h))
    mult = np.where(z == 0, 0j, np.power(np.where(z == 0, 1j, z), alpha))
    return CoeffSeq.from_arrays(ks, mult * cs)


def frac_difference_series(f: CoeffSeq, alpha: float, h: float, j_max: int) -> CoeffSeq:
    """Partial-sum form sum_{j<=J} (-1)**j binom(alpha,j) f(x - j h) in coefficients.

    Exact when alpha is a positive integer and J >= alpha; for fractional
    alpha the truncation error decays like J**(-alpha) at worst.
    """
    _check_order(alpha)
    if j_max < 0:
        raise ValueError("series cutoff must be nonnegative")
    ks, cs = f.as_arrays()
    coeffs = _signed_coeffs(alpha, int(j_max))
    j = np.arange(int(j_max) + 1)
    mult = np.exp(np.outer(-1j * ks * float(h), j)) @ coeffs
    return CoeffSeq.from_arrays(ks, mult * cs)


def modulus(f: CoeffSeq, phi, alpha: float, delta: float, grid: int = 512,
            *, rtol: float = 1e-12) -> float:
    """Smoothness modulus sup_{|h| <= delta} of the difference norm.

    alpha = 0 returns the plain norm of f.  The shift norm is even in h, so
    the search runs over [0, delta]: a uniform grid of `grid` points, then a
    zoom on the bracket around the best grid shift (the last cell when that is
    delta).  Each step solves the midpoints between the bracket's centre
    and its ends and centres a bracket half as wide on the best of the three,
    until it is narrower than sqrt(rtol) / max|k|.  The result is the largest
    norm met, so always a lower bound for the supremum.
    """
    return float(_moduli(f, phi, alpha, [delta], grid, rtol)[0])


def _moduli(f, phi, alpha, deltas, grid, rtol):
    """modulus at every delta in deltas; the grid and each zoom step are one batch for all deltas."""
    deltas = np.asarray(deltas, dtype=float)
    if not np.all(np.isfinite(np.append(deltas, alpha))):
        raise ValueError("modulus order and delta must be finite")
    if alpha < 0:
        raise ValueError("modulus order must be nonnegative")
    if not np.all(deltas > 0):
        raise ValueError("delta must be positive")
    grid = int(grid)
    if grid < 2:
        raise ValueError("need at least two grid points")
    if alpha == 0:
        return np.full(deltas.size, luxemburg_norm(phi, f, rtol=rtol))
    if alpha > 1022 and deltas.size > 1:  # the row scale below depends on delta
        return np.concatenate([_moduli(f, phi, alpha, [x], grid, rtol) for x in deltas])
    ks, cs = f.as_arrays()
    # A row entry |2 sin(hk/2)|**alpha |c_k| <= 2**alpha max|c| overflows near the top of the double range,
    # where the modulus can still be finite.  There the rows are built from |c_k| / 2**e, which keeps them
    # below 2**1022, and only the result is multiplied back: powers of two scale every norm exactly.
    head = max(1022 - math.ceil(alpha), 0)
    e = max(int(np.frexp(np.abs(cs).max(initial=0.0))[1]) - head, 0)
    absc = np.ldexp(np.abs(cs), -e)
    # Above alpha = 1022 the power itself can overflow, whatever |c_k| is.  Then every sine term is also
    # scaled by 2**(-d / alpha), so that the largest one met at a shift in [0, delta] stays below 2**1022,
    # and 2**d joins 2**e.  Up to alpha = 1022, d = 0 and the scale is exactly 2.  Past d = 2200 the modulus
    # is beyond the double range: at its peak shift the max|k| term exceeds 2**(d + 1021 - 1074), and a norm
    # is at least its largest term over M^-1(1) < 2**1024.
    top = 2.0 * math.sin(min(deltas.max() * f.max_freq / 2.0, math.pi / 2.0))
    d = max(math.ceil(alpha * math.log2(max(top, 1.0))) - 1022, 0)
    if d > 2200:
        return np.full(deltas.size, np.inf)
    scale = 2.0 * 2.0 ** (-d / alpha)

    def norms(hs):
        return np.concatenate([_lux_rows(_shift_rows(hs[s], ks, absc, alpha, scale), phi, rtol=rtol)
                               for s in _blocks(hs.size, ks.size)])

    hs = np.linspace(0.0, deltas, grid, axis=1)
    g = norms(hs.ravel()).reshape(hs.shape)
    i, step = g.argmax(axis=1), deltas / (grid - 1)
    best = g[np.arange(deltas.size), i]
    # the bracket c -+ w and its centre's norm gc, unsolved (nan) in the last cell; g[:, 0] = 0 (h = 0)
    edge = i == grid - 1
    c = np.minimum(i * step, deltas - step / 2.0)
    w, gc = np.where(edge, step / 2.0, step), np.where(edge, np.nan, best)
    # Near an interior maximum the norm is quadratic in h on the scale 1 / max|k| of its fastest
    # harmonic, so this pins it to ~rtol; all-zero norms (underflow at a large alpha) need no zoom.
    stop = np.where(best > 0.0, math.sqrt(rtol) / (2.0 * max(f.max_freq, 1)), np.inf)
    peak = np.fmax(best, _zoom(lambda _, hs: norms(hs), c, w, gc, stop)[1])
    with np.errstate(over="ignore"):  # a modulus beyond the double range is inf
        return np.ldexp(peak, e + d)


def _shift_rows(hs, ks, absc, alpha, scale=2.0):
    """Rows |scale sin(h k / 2)|**alpha |c_k|, one per shift h, built in a single array."""
    out = np.outer(hs, ks)
    out *= 0.5
    np.abs(np.sin(out, out=out), out=out)
    out *= scale
    out **= alpha
    out *= absc
    return out

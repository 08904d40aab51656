"""Fractional differences and the induced modulus of smoothness.

The order-alpha difference with shift h acts on coefficients as
multiplication by (1 - exp(-i*k*h))**alpha.  The binomial-series form is kept
as an independent oracle: its partial sums must converge to the multiplier,
exactly so for integer alpha.
"""

from __future__ import annotations

import math

import numpy as np

from .orlicz import _LUX_MAX_ITER, _lux_rows, luxemburg_norm
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
    out = np.empty(j_max + 1)
    out[0] = 1.0
    if j_max:
        j = np.arange(j_max, dtype=float)
        out[1:] = np.cumprod((j - alpha) / (j + 1.0))
    return out


def k_constant(alpha: float, *, increment_tol: float = 1e-14, max_terms: int = 10**6) -> float:
    """Partial sums of sum_j |binom(alpha, j)|, the difference-operator norm bound.

    Summation stops once a term drops below increment_tol or after max_terms
    terms.  The limit never exceeds 2**ceil(alpha); for integer alpha the
    series terminates and the value is exactly 2**alpha.
    """
    if not alpha > 0:
        raise ValueError("order must be positive")
    total = 1.0
    mag = 1.0
    j = 0
    chunk = 1 << 16
    while j < max_terms:
        m = min(chunk, max_terms - j)
        idx = np.arange(j, j + m, dtype=float)
        mags = mag * np.cumprod(np.abs(alpha - idx) / (idx + 1.0))
        total += float(mags.sum())
        mag = float(mags[-1])
        j += m
        if mag < increment_tol:
            break
    return total


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

    alpha = 0 returns the plain norm of f.  The shift norm depends on h only
    through |2 sin(k h / 2)|, which is even in h, so the search runs over
    [0, delta]: a uniform grid of `grid` points, then batches of three
    interior shifts between the best shift's two neighbours until that
    bracket is narrower than sqrt(rtol) / max|k|.  The result is a true
    evaluation at some shift, hence always a lower bound for the supremum.
    """
    if not np.all(np.isfinite([alpha, delta])):
        raise ValueError("modulus order and delta must be finite")
    if alpha < 0:
        raise ValueError("modulus order must be nonnegative")
    if alpha == 0:
        return luxemburg_norm(phi, f, rtol=rtol)
    if not delta > 0:
        raise ValueError("delta must be positive")
    grid = int(grid)
    if grid < 2:
        raise ValueError("need at least two grid points")
    ks, cs = f.as_arrays()
    absc = np.abs(cs)
    if ks.size == 0:
        return 0.0
    block = max(2, 4_000_000 // ks.size)
    lo, hi, best = 0.0, float(delta), 0.0
    hs = np.linspace(lo, hi, grid)
    for _ in range(_LUX_MAX_ITER):
        g = np.concatenate([_lux_rows(np.abs(2.0 * np.sin(np.outer(part, ks) * 0.5)) ** alpha * absc,
                                      phi, rtol=rtol) for part in np.split(hs, range(block, hs.size, block))])
        i = int(np.argmax(g))
        best = max(best, float(g[i]))
        lo, hi = np.concatenate(([lo], hs, [hi]))[[i, i + 2]]
        # Near an interior maximum the norm is quadratic in h on the scale
        # 1 / max|k| of its fastest harmonic, so this bracket pins it to ~rtol.
        # All-zero norms (underflow at a large alpha) have nothing to zoom into.
        if (hi - lo) * f.max_freq <= math.sqrt(rtol) or best == 0.0:
            break
        hs = np.linspace(lo, hi, 5)[1:4]
    return best

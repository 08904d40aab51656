"""Peetre K-functional between a sequence and its fractional-derivative scale.

K_alpha(delta, f) = inf over smooth h of ||f - h|| + delta**alpha ||h^(alpha)||.
The infimum is relaxed to competitors in the band |k| <= N; the scan over
partial sums is the construction that realizes the two-sided equivalence with
the smoothness modulus, and an optional polish zooms along a one-parameter
family of band shrinkages c_k f_k that holds the band-limited minimizer for
power gauges, for all deltas at once.  The returned estimate is an upper
bound on the infimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._search import _RTOL_FLOOR, _zoom
from .fracdiff import frac_difference
from .orlicz import _fold, _gauge_inverse, _lux_rows, _margin, _window_norms, luxemburg_norm
from .spectrum import CoeffSeq, PsiWeights, _check_band, psi_derivative

__all__ = ["KEstimate", "k_functional", "difference_derivative_bracket"]


@dataclass(frozen=True)
class KEstimate:
    """Result of a K-functional minimization.

    minimizer_degree is the band radius of the winning competitor (-1 means
    the zero competitor h = 0); candidates_tried counts the distinct partial
    sums the scan covers, those its bound rules out unsolved included (the
    partial sum only changes at support radii, so equal candidates count
    once); refine_used is true exactly when the polish was requested and the
    scan winner is not h = 0, even when the band holds no coefficient to
    shrink, as for CoeffSeq({0: 3.0}).
    """

    value: float
    minimizer_degree: int
    candidates_tried: int
    refine_used: bool


def k_functional(f: CoeffSeq, phi, alpha: float, delta: float, n_band: int | None = None,
                 *, polish: bool = True, rtol: float = 1e-12) -> KEstimate:
    """Minimize ||f - h|| + delta**alpha ||h^(alpha)|| over band-limited h.

    Phase one scans h = 0 and the partial sums of f up to degree n_band
    (default: the largest support frequency).  The sum at radius m costs
    T_m + delta**alpha D_m with T_m = ||(c_k)_{|k|>m}|| and
    D_m = ||(|k|**alpha c_k)_{0<|k|<=m}||, in rounds of one batched solve of
    T_m and one of D_m that skip the radii a monotone bound rules out, with
    the full scan's result bit for bit (_scan); ties go to h = 0, then to the
    smallest degree.  Phase two,
    enabled by `polish` unless h = 0 wins, zooms over log mu to half-width
    sqrt(rtol) (rtol floored at 2**-50), in steps as wide as the support's size allows (_polish),
    along the band shrinkages c_k f_k, c_k = 1 / (1 + (mu |k|**alpha)**q)
    on 0 < |k| <= n_band and c_0 = 1, with q = p / (p - 1) from the elasticity
    p = u M'(u) / M(u) at M(u) = 1, and keeps the smaller of the two values;
    for M(t) = t**p the band-limited minimizer is on this family.
    """
    return _k_functionals(f, phi, alpha, [delta], n_band, polish, rtol)[0]


def _k_functionals(f, phi, alpha, deltas, n_band, polish, rtol):
    """k_functional at every delta in deltas, from one scan (_scan) for all of them."""
    deltas = np.asarray(deltas, dtype=float)
    if not alpha > 0:
        raise ValueError("derivative order must be positive")
    if not np.all(deltas > 0):
        raise ValueError("delta must be positive")
    with np.errstate(over="ignore"):
        dpows = deltas ** alpha
    if not (math.isfinite(alpha) and np.all(np.isfinite(dpows))):
        raise ValueError("derivative order, delta and delta ** alpha must be finite")
    ks, cs = f.as_arrays()
    absk, absc = np.abs(ks), np.abs(cs)
    n_band = f.max_freq if n_band is None else int(n_band)
    if n_band < 0:
        raise ValueError("band must be nonnegative")
    band = (absk > 0) & (absk <= n_band)
    with np.errstate(over="ignore"):
        deriv_w = np.where(band, absk.astype(float) ** alpha, 0.0) * absc
    if not np.all(np.isfinite(deriv_w)):
        raise ValueError(f"|k| ** alpha * |c_k| overflows at alpha = {alpha}, max|k| = {absk[band].max()}")

    # degree -1 is h = 0 (tail [0, inf) = all of f, empty head [1, -1]); then 0 and each |k| <= n_band
    degrees = np.array(sorted({-1, 0, *absk[absk <= n_band].tolist()}))
    solved, scan = _scan(f, phi, degrees, deriv_w, dpows, rtol)
    best = scan.argmin(axis=1)  # the first minimum: every radius left unsolved costs more
    m, values = degrees[solved][best], scan[np.arange(dpows.size), best]
    refine = (m >= 0) & bool(polish)
    if refine.any() and band.any():
        _, half, pairs = _fold(ks, absc)  # a real-valued f polishes on its k >= 0 half
        h = slice(absc.size - half.size, None)
        polished = _polish(half, absk[h], band[h], alpha, deriv_w[h], dpows[refine], phi, rtol, pairs)
        values[refine] = np.fmin(values[refine], polished)
    return [KEstimate(float(v), int(d), degrees.size, bool(r)) for v, d, r in zip(values, m, refine)]


def _scan(f, phi, degrees, deriv_w, dpows, rtol):
    """(solved, scan): the indices of degrees solved, ascending, and their objectives T_m + dpow D_m per dpow.

    T_m falls and D_m rises with m, so a radius between solved ones i < j costs at least T_j + dpow D_i.
    A norm is within rtol / 2 of its root (and the sums' rounding, below 1e-13), so an interval whose
    bound passes best (1 + 8 rtol) at every dpow can neither beat nor tie best and stays unsolved; a
    tolerance above 1/2 leaves none.  Round one solves 33 evenly spaced radii, both ends included, or
    all when the full scan has at most 2**14 entries a side (about band 64), where one more round costs
    more than it saves; later rounds solve each open interval whole when it holds at most 8 radii, else
    7 evenly spaced ones.  A round is one batch of tails and one of heads, laid out as the full scan's
    (_window_norms' rows), so every norm solved has the full scan's bits.
    """
    n = degrees.size
    margin = _margin(rtol)
    tails, heads = np.empty(n), np.empty(n)
    todo = solved = np.arange(n) if n * len(f) <= 2 ** 14 else np.unique((n - 1) * np.arange(33) // 32)
    while True:
        tails[todo] = _window_norms(f, phi, degrees + 1, np.inf, rtol, rows=todo)
        heads[todo] = _window_norms(f, phi, 1, degrees, rtol, deriv_w, rows=todo)
        scan = tails[solved] + dpows[:, None] * heads[solved]
        if solved.size == n:
            return solved, scan
        i, j = solved[:-1], solved[1:]
        # a nan objective (dpow underflowing to 0 against an infinite head) leaves every interval open
        pruned = (tails[j] + dpows[:, None] * heads[i] > margin * scan.min(axis=1)[:, None]).all(axis=0)
        open_ = (j - i > 1) & ~pruned
        if not open_.any():
            return solved, scan
        todo = np.concatenate([np.arange(a + 1, b) if b - a <= 9 else a + (b - a) * np.arange(1, 8) // 8
                               for a, b in zip(i[open_], j[open_])])
        solved = np.union1d(solved, todo)


def _polish(absc, absk, band, alpha, deriv_w, dpows, phi, rtol, pairs):
    """Least objective along the shrinkage family at each of dpows: one zoom over log mu, one batch a step.

    The last pairs entries count twice, as in _lux_rows.  Narrow rows cost a call, not their entries,
    so a step samples 2 split - 1 points, split = max(2, 2**10 // n) at logical width n = absc.size
    + pairs: 4 (split - 1) new rows a delta within about 2**12 entries, 4-5 steps at band 8 (not 25
    halvings), halving from n = 342.  split depends on neither the deltas nor the folding.
    """
    u = _gauge_inverse(phi, 1.0, "upper")
    p = u * float(phi.right_derivative(u)) / float(phi.eval(u))  # the elasticity of M where M = 1
    q = p / (p - 1.0) if p > 1.0 else math.inf
    la, a, w = alpha * np.log(absk[band]), absc[band], deriv_w[band]

    def minus_objective(i, s):
        rows = np.zeros((2 * s.size, absc.size))  # a tail and a head row per point
        rows[0::2] = np.where(absk > 0, absc, 0.0)
        with np.errstate(over="ignore", divide="ignore"):
            x = np.exp(s[:, None] + la)  # mu |k|**alpha
            rows[0::2, band], rows[1::2, band] = a / (1.0 + x ** -q), w / (1.0 + x ** q)  # a (1 - c_k), w c_k
        tail, head = _lux_rows(rows, phi, rtol=rtol, pairs=pairs).reshape(-1, 2).T
        return -(tail + dpows[i] * head)

    # 40 / q beyond the band's ends every c_k is within e**-40 of 0 or 1
    lo, hi = -la.max() - 40.0 / q, -la.min() + 40.0 / q
    return -_zoom(minus_objective, 0.5 * (lo + hi), 0.5 * (hi - lo), np.full(dpows.size, np.nan),
                  math.sqrt(max(rtol, _RTOL_FLOOR)), split=max(2, 2 ** 10 // (absc.size + pairs)))[1]


def difference_derivative_bracket(tau: CoeffSeq, phi, alpha: float, n: int, h: float,
                                  *, rtol: float = 1e-12):
    """Two-sided comparison of the shift-h difference with the derivative norm.

    For a degree-n polynomial and 0 <= h <= 2 pi / n returns

        (sin(n h / 2) / (n / 2))**alpha * ||tau^(alpha)||,
        ||difference of order alpha at shift h||,
        h**alpha * ||tau^(alpha)||,

    which must come out sorted.  The lower factor uses that t / sin(t) is
    increasing on (0, pi), so the worst frequency in the band is k = n.
    """
    if not alpha > 0:
        raise ValueError("order must be positive")
    _check_band(tau, n)
    if not 0.0 <= h <= 2.0 * math.pi / n:
        raise ValueError("shift must lie in [0, 2*pi/n]")
    dnorm = luxemburg_norm(phi, psi_derivative(tau, PsiWeights.fractional(alpha)), rtol=rtol)
    low = (math.sin(0.5 * n * h) / (0.5 * n)) ** alpha * dnorm
    mid = luxemburg_norm(phi, frac_difference(tau, alpha, h), rtol=rtol)
    high = h ** alpha * dnorm
    return low, mid, high

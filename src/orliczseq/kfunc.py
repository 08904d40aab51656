"""Peetre K-functional between a sequence and its fractional-derivative scale.

K_alpha(delta, f) = inf over smooth h of ||f - h|| + delta**alpha ||h^(alpha)||.
The infimum is relaxed to competitors in the band |k| <= N; the scan over
partial sums is the construction that realizes the two-sided equivalence with
the smoothness modulus, and an optional convex polish shrinks the best
candidate coefficient by coefficient.  The returned estimate is therefore an
upper bound on the unrelaxed infimum.
"""

import math
from dataclasses import dataclass

import numpy as np

from ._search import golden_min
from .fracdiff import frac_difference
from .orlicz import _lux_norm, _window_norms, luxemburg_norm
from .spectrum import CoeffSeq, PsiWeights, psi_derivative

__all__ = ["KEstimate", "k_functional", "difference_derivative_bracket"]


@dataclass(frozen=True)
class KEstimate:
    """Result of a K-functional minimization.

    minimizer_degree is the band radius of the winning competitor (-1 means
    the zero competitor h = 0); candidates_tried counts the distinct partial
    sums scanned (the partial sum only changes at support radii, so equal
    candidates are evaluated once); refine_used records whether the
    coordinate-shrinkage polish ran.
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
    D_m = ||(|k|**alpha c_k)_{0<|k|<=m}||, all T_m one batched solve and all
    D_m another; ties go to h = 0, then to the smallest degree.  Phase two,
    enabled by `polish`, runs three sweeps of per-coefficient shrinkage c_k in
    [0, 1] on the best candidate; the objective is convex in each c_k as a sum
    of two norms of affine maps, so a golden line search per coordinate suffices.
    """
    return _k_functionals(f, phi, alpha, [delta], n_band, polish, rtol)[0]


def _k_functionals(f, phi, alpha, deltas, n_band, polish, rtol):
    """k_functional at every delta in deltas, from one batch of tail norms and one of head norms."""
    deltas = np.asarray(deltas, dtype=float)
    if not alpha > 0:
        raise ValueError("derivative order must be positive")
    if not np.all(deltas > 0):
        raise ValueError("delta must be positive")
    with np.errstate(over="ignore"):
        dpows = deltas ** alpha
    if not (math.isfinite(alpha) and np.all(np.isfinite(dpows))):
        raise ValueError("derivative order, delta and delta ** alpha must be finite")
    absk, absc = map(np.abs, f.as_arrays())
    n_band = f.max_freq if n_band is None else int(n_band)
    if n_band < 0:
        raise ValueError("band must be nonnegative")
    deriv_w = np.where(absk > 0, absk.astype(float) ** alpha, 0.0) * absc

    # h = 0 (the whole tail, no head) plus the degrees where the partial sum changes.
    radii = np.array(sorted({0, *absk[absk <= n_band].tolist()}))
    degrees = np.append(-1, radii)
    tails = _window_norms(f, phi, np.append(0, radii + 1), np.inf, rtol)
    heads = np.append(0.0, _window_norms(f, phi, 1, radii, rtol, deriv_w))
    out = []
    for dpow, row in zip(dpows, tails + dpows[:, None] * heads):
        best = int(np.argmin(row))  # the first minimum
        m, value = int(degrees[best]), row[best]
        refine = bool(polish and m >= 0)
        if refine:
            value = min(value, _polish(absc, absk, deriv_w, m, dpow, phi, rtol))
        out.append(KEstimate(float(value), m, degrees.size, refine))
    return out


def _polish(absc, absk, deriv_w, best_m, dpow, phi, rtol):
    """The objective after three coordinate sweeps of golden search from the radius-best_m partial sum."""
    inside = absk <= best_m
    c = np.where(inside, 1.0, 0.0)

    def objective():
        res = absc * np.abs(1.0 - c)
        return _lux_norm(res, phi, rtol) + dpow * _lux_norm((deriv_w * c)[inside & (absk > 0)], phi, rtol)

    for _ in range(3):
        for i in np.flatnonzero(inside):
            def line(t, i=i):
                c[i] = t
                return objective()
            c[i] = golden_min(line, 0.0, 1.0, rtol=1e-6, atol=1e-9)[0]
    return objective()


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
    if n < 1:
        raise ValueError("band must contain at least k = 1")
    if tau.max_freq > n:
        raise ValueError(f"polynomial has support beyond |k| = {n}")
    if not 0.0 <= h <= 2.0 * math.pi / n:
        raise ValueError("shift must lie in [0, 2*pi/n]")
    dnorm = luxemburg_norm(phi, psi_derivative(tau, PsiWeights.fractional(alpha)), rtol=rtol)
    low = (math.sin(0.5 * n * h) / (0.5 * n)) ** alpha * dnorm
    mid = luxemburg_norm(phi, frac_difference(tau, alpha, h), rtol=rtol) if h > 0 else 0.0
    high = h ** alpha * dnorm
    return low, mid, high

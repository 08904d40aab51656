"""Peetre K-functional between a sequence and its fractional-derivative scale.

K_alpha(delta, f) = inf over smooth h of ||f - h|| + delta**alpha ||h^(alpha)||.
The infimum is relaxed to competitors in the band |k| <= N; the scan over
partial sums is the construction that realizes the two-sided equivalence with
the smoothness modulus, and an optional convex polish shrinks the best
candidate coefficient by coefficient.  The returned estimate is therefore an
upper bound on the unrelaxed infimum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._search import golden_min
from .fracdiff import frac_difference
from .orlicz import _lux_norm, luxemburg_norm
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

    Phase one scans h over the partial sums of f up to degree n_band (default:
    the largest support frequency).  Phase two, enabled by `polish`, runs
    three sweeps of per-coefficient shrinkage c_k in [0, 1] on the best
    candidate; the objective is convex in each c_k as a sum of two norms of
    affine maps, so a golden line search per coordinate suffices.  Ties in
    the scan go to the smallest degree.
    """
    if not alpha > 0:
        raise ValueError("derivative order must be positive")
    if not delta > 0:
        raise ValueError("delta must be positive")
    ks, cs = f.as_arrays()
    absc = np.abs(cs)
    if n_band is None:
        n_band = f.max_freq
    n_band = int(n_band)
    if n_band < 0:
        raise ValueError("band must be nonnegative")
    absk = np.abs(ks)
    dpow = float(delta) ** alpha
    deriv_w = np.where(absk > 0, absk.astype(float) ** alpha, 0.0) * absc

    # h = 0 plus the degrees where the partial sum actually changes.
    radii = sorted({int(r) for r in absk if r <= n_band} | ({0} if n_band >= 0 else set()))
    candidates = [(-1, _lux_norm(absc, phi, rtol))]
    for m in radii:
        inside = absk <= m
        val = _lux_norm(absc[~inside], phi, rtol) + dpow * _lux_norm(deriv_w[inside & (absk > 0)], phi, rtol)
        candidates.append((m, val))
    best_m, best_val = min(candidates, key=lambda c: c[1])

    refined = False
    if polish and best_m >= 0 and absc.size:
        inside = absk <= best_m
        c = np.where(inside, 1.0, 0.0)

        def objective():
            res = absc * np.abs(1.0 - c)
            return _lux_norm(res, phi, rtol) + dpow * _lux_norm((deriv_w * c)[inside & (absk > 0)], phi, rtol)

        coords = np.flatnonzero(inside)
        for _ in range(3):
            for i in coords:
                def line(t, i=i):
                    c[i] = t
                    return objective()
                t_best, v_best = golden_min(line, 0.0, 1.0, rtol=1e-6, atol=1e-9)
                c[i] = t_best
        refined = True
        best_val = min(best_val, objective())

    return KEstimate(
        value=float(best_val),
        minimizer_degree=int(best_m),
        candidates_tried=len(candidates),
        refine_used=refined,
    )


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

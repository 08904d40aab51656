"""Convex gauge functions and the sequence norms they induce.

A gauge M is nondecreasing and convex with M(0) = 0 and M(t) -> inf.  The
primary norm of a coefficient sequence is the Luxemburg norm

    inf { a > 0 : sum_k M(|c_k| / a) <= 1 },

solved here by bisection with safeguarded Newton steps on the defining
inequality: at most 3 steps per row under t**p, 5 under exp(t) - 1 and 6
under t**p log(1 + t), where plain bisection takes 40-48, and none for a lone
entry under a closed-form inverse.  The result is still the midpoint of a
two-sided bracket of width at most rtol * hi.  The dual (Orlicz) norm
is computed through the equivalent one-parameter form

    inf_{kappa > 0} (1 + sum_k M(kappa |c_k|)) / kappa,

by a zoom over log kappa.  Its correctness is enforced by
the two-sided comparison with the Luxemburg norm and by dual feasibility,
which the test suite checks independently of this formula.
"""

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from ._search import _RTOL_FLOOR, _bisect, _grow, _zoom

__all__ = [
    "OrliczFunction",
    "power",
    "exp_minus_one",
    "power_log",
    "from_spec",
    "conjugate",
    "luxemburg_norm",
    "orlicz_norm",
    "dual_witness",
]

INF = math.inf
_DBL_MAX = np.finfo(float).max

# Rows are built and solved in blocks of at most this many entries: the moduli of an unfolded
# 8193-entry band at five deltas (grid 64) peak at 41 MB with 2**17, 45 MB with 2**18 and 53 MB with
# 2**19, a rates report's folded 4097-entry rows at 36, 40 and 48 MB, in about the same time.
# 2**16 would add _lux_rows calls to a 16-member sweep's modulus.
_BLOCK_ENTRIES = 2 ** 17


def _blocks(n_rows, width):
    """Row slices covering range(n_rows), each block at most _BLOCK_ENTRIES entries."""
    step = max(1, _BLOCK_ENTRIES // max(width, 1))
    return [slice(i, i + step) for i in range(0, n_rows, step)]


@dataclass(frozen=True)
class OrliczFunction:
    """A convex gauge together with the pieces the solvers need.

    ``eval`` and ``right_derivative`` must accept scalars and numpy arrays.
    ``closed_form_conjugate`` / ``closed_form_inverse`` are optional shortcuts;
    when absent the numeric routes are used.
    """

    name: str
    eval: Callable
    right_derivative: Callable
    param: Optional[float] = None
    closed_form_conjugate: Optional[Callable] = None
    closed_form_inverse: Optional[Callable] = None

    def spec_dict(self) -> dict:
        out = {"family": self.name}
        if self.param is not None:
            out["p"] = self.param
        return out

    def __repr__(self):
        if self.param is not None:
            return f"OrliczFunction({self.name}, p={self.param})"
        return f"OrliczFunction({self.name})"


def validate_gauge(phi: OrliczFunction) -> None:
    """Sampled-grid checks of the gauge axioms; raises ValueError on failure.

    Monotonicity and convexity (by midpoint inequality) are checked on 1024
    log-spaced points of [1e-6, 1e3], with relative slack 1e-9, not proved.  M
    must pass 1e6 at some t = 2**j <= 1e30.  The right derivative must be
    nondecreasing and reproduce M by integration within quadrature tolerance.
    """
    tol = 1e-9
    m0 = float(phi.eval(0.0))
    if abs(m0) > tol:
        raise ValueError(f"{phi.name}: M(0) = {m0}, expected 0")
    t = np.logspace(-6, 3, 1024)
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.asarray(phi.eval(t), dtype=float)
        if np.any(np.diff(m) < -tol * np.maximum(m[1:], 1.0)):
            raise ValueError(f"{phi.name}: M is not nondecreasing on the test grid")
        mid = np.asarray(phi.eval((t[:-2] + t[2:]) / 2.0), dtype=float)
        finite = np.isfinite(m[:-2]) & np.isfinite(m[2:]) & np.isfinite(mid)
        lhs = mid[finite]
        rhs = (m[:-2][finite] + m[2:][finite]) / 2.0
        if np.any(lhs > rhs + tol * np.maximum(rhs, 1.0)):
            raise ValueError(f"{phi.name}: M fails midpoint convexity on the test grid")
        if _grow(lambda t: phi.eval(t) > 1e6) == INF:
            raise ValueError(f"{phi.name}: M does not appear to grow unboundedly")
        p = np.asarray(phi.right_derivative(t), dtype=float)
        if np.any(np.diff(p) < -tol * np.maximum(p[1:], 1.0)):
            raise ValueError(f"{phi.name}: right derivative is not nondecreasing")
    for u in (0.1, 1.0, 10.0):
        # midpoint rule: keeps clear of t = 0, where gauges with p slightly
        # above 1 have a right derivative that is 0 at the point itself but
        # near 1 immediately after
        step = u / 4096.0
        s = (np.arange(4096) + 0.5) * step
        quad = float(np.asarray(phi.right_derivative(s), dtype=float).sum() * step)
        mu = float(phi.eval(np.float64(u)))
        if not abs(quad - mu) <= 1e-4 * max(mu, 1.0):
            raise ValueError(f"{phi.name}: M(u) != integral of p on [0, {u}]")


def power(p: float) -> OrliczFunction:
    """M(t) = t**p for p >= 1.  For p = 1 the conjugate is the {0, +inf} gate."""
    return _power_cached(float(p))


@lru_cache(maxsize=None)
def _power_cached(p: float) -> OrliczFunction:
    if p < 1:
        raise ValueError("power gauge needs p >= 1")
    if p == 1:
        conj = lambda v: 0.0 if v <= 1.0 else INF
    else:
        q = p / (p - 1.0)
        scale = (p - 1.0) * p ** (-q)
        conj = lambda v: scale * v ** q
    phi = OrliczFunction(
        name="power",
        eval=lambda t: t ** p,
        right_derivative=lambda t: p * t ** (p - 1.0),
        param=p,
        closed_form_conjugate=conj,
        closed_form_inverse=lambda y: y ** (1.0 / p),
    )
    validate_gauge(phi)
    return phi


@lru_cache(maxsize=None)
def exp_minus_one() -> OrliczFunction:
    """M(t) = exp(t) - 1."""

    def conj(v):
        return float(v * math.log(v) - v + 1.0) if v > 1.0 else 0.0

    phi = OrliczFunction(
        name="exp_minus_one",
        eval=np.expm1,
        right_derivative=np.exp,
        closed_form_conjugate=conj,
        closed_form_inverse=np.log1p,
    )
    validate_gauge(phi)
    return phi


def power_log(p: float) -> OrliczFunction:
    """M(t) = t**p * log(1 + t) for p >= 1; no closed-form conjugate."""
    return _power_log_cached(float(p))


@lru_cache(maxsize=None)
def _power_log_cached(p: float) -> OrliczFunction:
    if p < 1:
        raise ValueError("power_log gauge needs p >= 1")
    phi = OrliczFunction(
        name="power_log",
        eval=lambda t: t ** p * np.log1p(t),
        right_derivative=lambda t: p * t ** (p - 1.0) * np.log1p(t) + t ** p / (1.0 + t),
        param=p,
    )
    validate_gauge(phi)
    return phi


_FAMILIES = {"power": (power, True), "exp_minus_one": (exp_minus_one, False), "power_log": (power_log, True)}


def from_spec(spec: dict) -> OrliczFunction:
    """Build a gauge from its JSON description, rejecting unknown keys.

    Accepted forms: {"family": "power", "p": 2}, {"family": "exp_minus_one"},
    {"family": "power_log", "p": 2}.
    """
    if not isinstance(spec, dict):
        raise ValueError("gauge spec must be a JSON object")
    family = spec.get("family")
    if family not in _FAMILIES:
        raise ValueError(f"unknown gauge family {family!r}")
    factory, takes_p = _FAMILIES[family]
    allowed = {"family", "p"} if takes_p else {"family"}
    extra = set(spec) - allowed
    if extra:
        raise ValueError(f"unknown keys in gauge spec: {sorted(extra)}")
    if takes_p:
        if "p" not in spec:
            raise ValueError(f"family {family!r} requires the key 'p'")
        pval = spec["p"]
        if not isinstance(pval, (int, float)) or isinstance(pval, bool):
            raise ValueError("'p' must be a number")
        return factory(float(pval))
    return factory()


# -- Young conjugate -----------------------------------------------------------


def conjugate(phi: OrliczFunction, v: float, *, rtol: float = 1e-12) -> float:
    """Young conjugate sup_{u >= 0} (u*v - M(u)); may legitimately be +inf.

    Uses the closed form when the gauge provides one.  Otherwise the interval
    is doubled until the right derivative of M reaches v, which brackets the
    maximizer, and the point where it does so is found by bisection.  If it
    never does the supremum is +inf.
    """
    v = float(v)
    if v < 0:
        raise ValueError("conjugate argument must be nonnegative")
    if phi.closed_form_conjugate is not None:
        return float(phi.closed_form_conjugate(v))
    if float(phi.right_derivative(0.0)) >= v:
        return 0.0
    hi = _grow(lambda u: phi.right_derivative(u) >= v)
    if hi == INF:
        return INF
    _, u = _bisect(lambda u: phi.right_derivative(u) >= v, 0.0, hi, rtol)
    return max(float(u * v - phi.eval(u)), 0.0)


# -- Luxemburg norm ------------------------------------------------------------


@lru_cache(maxsize=None)
def _gauge_inverse(phi, y, side):
    """Solve M(t) = y for y in (0, 1]; cached, as norm solves ask only y = 1.

    side='upper' guarantees M(result) >= y, side='lower' the reverse; the
    norm brackets below rely on exactly these one-sided properties.
    """
    if phi.closed_form_inverse is not None:
        return float(phi.closed_form_inverse(y))
    hi = _grow(lambda t: phi.eval(t) >= y)
    if hi == INF:
        raise ValueError(f"{phi.name}: cannot invert gauge at {y}")
    lo, hi = _bisect(lambda t: phi.eval(t) >= y, 0.0, hi, 1e-15)
    return float(hi if side == "upper" else lo)


def _fold(ks, w):
    """(ks, w, pairs): the k >= 0 half and its count of k > 0 entries when ks == -ks[::-1] and w == w[::-1],
    as for the |c_k| of a real-valued f on its ascending support; else ks, w and pairs = 0."""
    # the ends turn away almost every input that does not fold, before any pass over it
    ends = ks.size > 1 and ks[0] == -ks[-1] and w[0] == w[-1]
    if ends and np.array_equal(ks, -ks[::-1]) and np.array_equal(w, w[::-1]):
        return ks[ks.size // 2:], w[ks.size // 2:], ks.size // 2
    return ks, w, 0


def _margin(rtol):
    """The factor by which a bound must pass a solved norm best to prove it below best, rtol at most 1/2.

    A norm is the midpoint of a bracket within rtol of its root, and the sums of M round by far less than
    1e-13, so a quantity at least best (1 + 8 rtol + 1e-13) lies above best, and one at most best over that
    factor below it, neither tied.  Above rtol = 1/2 the factor is inf, and nothing is proved.
    """
    return 1.0 + 8.0 * rtol + 1e-13 if rtol <= 0.5 else INF


def _sums(x, pairs):
    """Row sums of x, its last pairs columns counted twice."""
    if not pairs:
        return x.sum(axis=1)
    n1 = x.shape[1] - pairs
    return x[:, :n1].sum(axis=1) + 2.0 * x[:, n1:].sum(axis=1)


_LEAD = 8  # a screened call solves each bracket's points at every _LEAD-th column, and its last point


def _lux_rows(vals, phi, *, rtol=1e-12, pairs=0, ends=False, peaks=None):
    """Luxemburg norms of the rows of a nonnegative 2-d array whose last pairs columns count twice.

    Doubling is exact, so a row folded by _fold sums to the same real numbers as the row it halves.
    Each norm is the midpoint of a bracket lo <= norm <= hi, hi - lo <= rtol hi (rtol floored at 2**-50),
    exact up to the rounding of the sums of M (about 13 ulps at 8193 entries); with ends, (lo, hi) is
    returned instead, hi = inf at the clamp.  A norm depends only on its own row.

    peaks, a (bracket, point) array of row indices (-1 for a point in another call), says that only each
    bracket's largest norm is needed (not with ends).  Each bracket's points at columns 0, _LEAD, 2 _LEAD, ...
    and its last point in the call lead: they are solved in full, and best is the bracket's largest.  Every
    other row gets t, the least best / _margin(rtol) of the brackets that hold it, and one pass of its sum
    rho(t) = sum_k M(r_k / t).  rho falls as t grows, so rho(t) <= 1 proves its norm at most t: it cannot
    reach best in any of its brackets (_margin), and it comes back as -inf, unsolved.  The other rows are
    solved in full.  So every bracket's largest norm, its argmax and every norm returned keep their bits.
    """
    vals = np.asarray(vals, dtype=float)
    margin = _margin(rtol)
    if peaks is None or margin == INF:
        return _lux_solve(vals, phi, rtol, pairs, ends)
    have = peaks >= 0
    lead = have & (np.arange(peaks.shape[1]) % _LEAD == 0)
    lead[np.arange(peaks.shape[0]), peaks.shape[1] - 1 - have[:, ::-1].argmax(axis=1)] |= have.any(axis=1)
    out, solve = np.full(vals.shape[0], -INF), np.zeros(vals.shape[0], dtype=bool)
    solve[peaks[lead]] = True
    out[solve] = _lux_solve(vals[solve], phi, rtol, pairs)
    if solve.all():  # every row leads: nothing is left to screen
        return out
    best = np.where(lead, out[peaks], -INF).max(axis=1)
    t = np.full(vals.shape[0], INF)
    np.minimum.at(t, peaks[have], np.broadcast_to(best[:, None] / margin, peaks.shape)[have])
    rest = np.flatnonzero(~solve & (t > 0) & (t < INF))  # t = 0 or inf proves nothing
    u = vals[rest]
    u /= t[rest, None]
    with np.errstate(over="ignore", invalid="ignore"):  # a row far above t sums to inf, and is solved
        below = _sums(np.asarray(phi.eval(u), dtype=float), pairs) <= 1.0
    solve = ~solve
    solve[rest[below]] = False
    out[solve] = _lux_solve(vals[solve], phi, rtol, pairs)
    return out


def _lux_solve(vals, phi, rtol, pairs, ends=False):
    """_lux_rows without peaks: every row solved."""
    out = np.zeros(vals.shape[0])
    row_max = vals.max(axis=1, initial=0.0)
    active = row_max > 0
    if not active.any():
        return (out, out.copy()) if ends else out
    w = vals if active.all() else vals[active]
    buf = np.empty_like(w)  # w / a, reused by every step: fresh pages per step cost more than the step

    # The solve runs on s = a / 2**e, 2**e the power of two that puts the row's largest entry in [1, 2).
    # The scaling is exact, and in s every bracket end and Newton guess stays within a factor of about
    # nnz of 1, so the guess cannot overflow; the ends are clamped to s_max, where a = s 2**e = DBL_MAX.
    top = row_max[active]
    e = np.frexp(top)[1] - 1
    s_max = np.ldexp(_DBL_MAX, -np.maximum(e, 0))

    def fits(s):
        # sum_k M(u_k) <= 1 per row, u = w / a, and the Newton guess s exp(rho log rho / S) for the root
        # of log rho = 0 in log a, exact for t**p: rho = sum_k M(u_k), S = sum_k u_k M'(u_k) >= rho by
        # convexity, so the step is at most |log rho|.  A row whose rho underflows to 0 gets no guess (nan).
        # s >= lo keeps every u_k <= M^-1(1), so no term passes ~1 and nothing overflows.
        u = np.divide(w, np.ldexp(s, e)[:, None], out=buf)
        rho = _sums(np.asarray(phi.eval(u), dtype=float), pairs)
        du = np.asarray(phi.right_derivative(u), dtype=float)
        du *= u
        log_rho = np.log(np.where(rho > 0, rho, np.nan))
        return rho <= 1.0, s * np.exp(rho * log_rho / _sums(du, pairs))

    # Provable bracket, hi / lo <= nnz: at lo the largest term alone reaches 1; at hi each w_k / a is at
    # most u = M^-1(1) and they sum to u, so the chord M(x) <= x M(u) / u keeps the sum <= M(u) <= 1.
    # A root beyond the double range leaves hi at the clamp and is inf.
    lo = np.minimum(np.ldexp(top, -e) / _gauge_inverse(phi, 1.0, "upper"), s_max)
    hi = np.minimum(_sums(np.ldexp(w, -e[:, None], out=buf), pairs) / _gauge_inverse(phi, 1.0, "lower"), s_max)
    lo, hi = _bisect(fits, lo, hi, rtol)
    if ends:
        upper = out.copy()
        out[active], upper[active] = np.ldexp(lo, e), np.where(hi < s_max, np.ldexp(hi, e), INF)
        return out, upper
    out[active] = np.where(hi < s_max, np.ldexp(0.5 * lo + 0.5 * hi, e), INF)
    return out


def _window_norms(f, phi, lo, hi, rtol, w=None, rows=None):
    """Norms of w (default |c_k|) over each window lo_i <= |k| <= hi_i of f's support, as one batch.

    lo and hi broadcast; rows, when given, indexes the windows to solve.  Only
    entries inside some window of the whole broadcast are kept, in order, so a
    single window solves exactly its own entries, and a window picked by rows
    is solved on the row the whole batch gives it, with its bits.  Windows are
    sets of |k|, so when those entries fold (_fold) every window's row does,
    and a single window folds as luxemburg_norm folds the same entries.
    """
    ks, cs = f.as_arrays()
    absk, w = np.abs(ks), np.abs(cs) if w is None else w
    lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
    keep = (absk >= lo.min()) & (absk <= hi.max())
    ks, w, pairs = _fold(ks[keep], w[keep])
    absk = np.abs(ks)
    if rows is not None:
        lo, hi = lo[rows], hi[rows]
    return np.concatenate([
        _lux_rows(np.where((absk >= lo[s, None]) & (absk <= hi[s, None]), w, 0.0), phi, rtol=rtol, pairs=pairs)
        for s in _blocks(lo.size, w.size)])


def _lux_norm(a, phi, rtol, pairs=0):
    """Luxemburg norm of one nonnegative 1-d array whose last pairs entries count twice; 0 when it is empty."""
    return float(_lux_rows(a[None, :], phi, rtol=rtol, pairs=pairs)[0])


def luxemburg_norm(phi: OrliczFunction, f, *, rtol: float = 1e-12) -> float:
    """Luxemburg norm inf { a > 0 : sum M(|c_k|/a) <= 1 }; 0 for the zero sequence.

    The map a -> sum M(|c_k|/a) is nonincreasing, so bisection applies; safeguarded Newton
    steps on log of the sum in log a (exact for t**p) close the bracket in at most 3 steps
    under t**p and 6 under the other built-in gauges, instead of 40-48.  The result is the midpoint of the final bracket [lo, hi], hi - lo <= rtol * hi.
    A real-valued f (c_{-k} = conj(c_k)) is solved on its k >= 0 half, each k > 0 counted twice.
    """
    ks, cs = f.as_arrays()
    _, w, pairs = _fold(ks, np.abs(cs))
    return _lux_norm(w, phi, rtol, pairs)


# -- Orlicz (dual) norm ----------------------------------------------------------


def orlicz_norm(phi: OrliczFunction, f, *, rtol: float = 1e-12) -> float:
    """Dual norm sup { sum lam_k |c_k| : sum conj(lam_k) <= 1 }.

    By homogeneity it is L = sum |c_k| / M^-1(1) times the dual norm of b = |c_k| / L: the
    minimum over kappa > 0 of (1 + sum M(kappa b_k)) / kappa, a ratio that falls then rises (by
    convexity) and exceeds 2 >= 2 ||b||_Lux >= ||b||_O below kappa = 1/2, as L >= ||f||_Lux by
    the chord bound in _lux_rows.  One zoom over log kappa in [log 1/2, log 1e18] to half-width
    sqrt(rtol) (rtol floored at 2**-50) finds it to about rtol; overflow makes the ratio +inf.
    Gauges of linear growth reach their infimum at kappa -> inf; the value at the cap is within
    ~1e-18 L of it.  L is clamped to the double range (still >= a finite ||f||_Lux), and a norm
    beyond it is inf.
    """
    a = np.abs(f.as_arrays()[1])
    if a.size == 0:
        return 0.0

    def minus_ratio(_, t):
        kappa = np.exp(t)
        return -(1.0 + np.asarray(phi.eval(np.outer(kappa, b)), dtype=float).sum(axis=1)) / kappa

    lo, hi = math.log(0.5), math.log(1e18)
    with np.errstate(over="ignore", invalid="ignore"):
        scale = min(a.sum() / _gauge_inverse(phi, 1.0, "lower"), _DBL_MAX)
        b = a / scale
        neg = _zoom(minus_ratio, 0.5 * (lo + hi), 0.5 * (hi - lo), [np.nan], math.sqrt(max(rtol, _RTOL_FLOOR)))[1]
        return float(-neg[0] * scale)


def dual_witness(phi: OrliczFunction, f, *, rtol: float = 1e-12):
    """Extremal dual weights lam_k = p(|c_k|) for f scaled to unit dual norm.

    Returns [(k, lam_k), ...] over the support.  The weights satisfy Young's
    equality lam_k * u_k = M(u_k) + conj(lam_k) term by term, are feasible
    (sum conj(lam_k) <= 1), and therefore sum lam_k * u_k never exceeds the
    dual norm of the scaled sequence.  Feasibility requires the unit-dual-norm
    scaling; scaling by the Luxemburg norm breaks it for fast-growing gauges.
    """
    ks, cs = f.as_arrays()
    if cs.size == 0:
        raise ValueError("the zero sequence has no dual witness")
    norm = orlicz_norm(phi, f, rtol=rtol)
    lam = np.asarray(phi.right_derivative(np.abs(cs) / norm), dtype=float)
    return [(int(k), float(v)) for k, v in zip(ks, lam)]

"""Fractional differences and the induced modulus of smoothness.

The order-alpha difference with shift h acts on coefficients as
multiplication by (1 - exp(-i*k*h))**alpha.  The binomial-series form is kept
as an independent oracle: its partial sums must converge to the multiplier,
exactly so for integer alpha.
"""

import math

import numpy as np

from ._search import _zoom
from .orlicz import _blocks, _fold, _lux_rows, luxemburg_norm
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

    alpha = 0 returns the plain norm of f.  The shift norm is even and 2 pi-periodic
    in h, so the search runs over [0, min(delta, pi)]: a uniform grid of `grid`
    points, then a zoom on the bracket around the best grid shift (the last cell
    when that is min(delta, pi)).  The zoom walks the halving zoom's path (solve
    the midpoints between the bracket's centre and its ends, centre a bracket half
    as wide on the best of the three) with the norm's exact slope at every point.
    Once the slope is > 0 and < 0 at the ends of a bracket with no sine zero of a
    term inside, the peak is a root of the slope, which a few interpolation steps
    find; in the last cell, a bound on the slope that proves the norm rising up to
    delta ends the walk.  The result is the largest norm met, each within rtol / 2
    of its row's norm: at most about sup (1 + rtol / 2).

    Every term |2 sin(hk/2)|**alpha |c_k| of a shift row rises on [0, pi/|k|].  So when
    delta <= pi/max|k|, or when f has a single nonzero |k|, the norm peaks at
    h* = min(delta, pi/max|k|), and its norm there is returned, exact to rtol: no grid, no zoom.
    """
    return float(_moduli(f, phi, alpha, [delta], grid, rtol)[0])


def _moduli(f, phi, alpha, deltas, grid, rtol):
    """modulus at every delta in deltas: a 1-d array for one CoeffSeq f, one row per member for a list.

    The grid and each zoom step are one batch for all members and deltas, whose brackets are the
    pairs (member, delta), each with its member's row scale and stop width and its own exponent d.
    A certified bracket, whose peak is h* = min(delta, pi/max|k|) (see modulus), solves only its
    row at h*, in the grid's call, and never enters the zoom.  The zoom (_search._zoom, given slopes) gets
    each point's norm, slope, rise bound and reach to the next sine zero from _slopes: only the
    zoom's rows pay for them, not the grid's.
    A norm depends only on its own row, so a member's moduli do not depend on what shares the batch,
    and a row is solved once however many brackets share it: a grid point that several deltas hold
    (a rates report's deltas 2**-3..2**-7 at grid 64 share 128 of their 320 grid rows).  A lone
    member's rows fold (orlicz._fold) when it is real-valued, c_{-k} = conj(c_k): they are built on
    the k >= 0 half, and each k > 0 counts twice.  Otherwise, when its support holds +-k pairs, it
    computes one sine per distinct |k|.  Members that share a table are neither folded nor deduplicated.
    """
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
    deltas = np.minimum(deltas, math.pi)  # integer k: [0, pi] holds every shift norm
    fs = [f] if isinstance(f, CoeffSeq) else list(f)
    n, absc, freqs = deltas.size, [np.abs(g.as_arrays()[1]) for g in fs], [g.max_freq for g in fs]
    if alpha == 0:
        out = np.reshape([[luxemburg_norm(phi, g, rtol=rtol)] * n for g in fs], (-1, n))
        return out[0] if isinstance(f, CoeffSeq) else out
    # A row entry |2 sin(hk/2)|**alpha |c_k| <= 2**alpha max|c| overflows near the top of the double range,
    # where the modulus can still be finite.  There a member's rows are built from |c_k| / 2**e, which keeps
    # them below 2**1022, and only its result is multiplied back: powers of two scale every norm exactly.
    head = max(1022 - math.ceil(alpha), 0)
    e = np.array([max(int(np.frexp(a.max(initial=0.0))[1]) - head, 0) for a in absc], dtype=int)
    # Above alpha = 1022 the power itself can overflow, whatever |c_k| is.  Then every sine term of a
    # bracket is also scaled by 2**(-d / alpha), so that the largest one met at a shift in [0, delta] stays
    # below 2**1022, and 2**d joins 2**e.  Up to alpha = 1022, d = 0 and the scale is exactly 2.  Past
    # d = 2200 the modulus is beyond the double range: at its peak shift the max|k| term exceeds
    # 2**(d + 1021 - 1074), and a norm is at least its largest term over M^-1(1) < 2**1024.  Such a
    # bracket gets all-zero rows, so no zoom, and inf.
    tops = [2.0 * math.sin(min(x * k / 2.0, math.pi / 2.0)) for k in freqs for x in deltas.tolist()]
    d = np.array([min(max(math.ceil(alpha * math.log2(max(t, 1.0))) - 1022, 0), 2201) for t in tops])
    scale = np.array([2.0 * 2.0 ** (-x / alpha) if x <= 2200 else 0.0 for x in d.tolist()])
    # Members whose support sizes share (len - 1).bit_length() form one table of rows left-aligned on their
    # own ks and padded with k = 0, c = 0 entries, which add M(0) = 0 (and 0 M'(0) = 0) to every norm.  So
    # padding at most doubles a row, a lone member keeps its rows bit for bit, and each batch of shifts
    # makes one _lux_rows call per table (and block).
    classes, tables = {}, []
    for m, a in enumerate(absc):
        classes.setdefault((a.size - 1).bit_length(), []).append(m)
    for members in classes.values():
        width = max(absc[m].size for m in members)
        ks, rows = np.zeros((len(members), width), dtype=np.int64), np.zeros((len(members), width))
        for r, m in enumerate(members):
            ks[r, :absc[m].size], rows[r, :absc[m].size] = fs[m].as_arrays()[0], np.ldexp(absc[m], -e[m])
        slot = np.full(len(fs), -1)  # each member's row in this table, -1 for the other members
        slot[members] = np.arange(len(members))
        # A lone real-valued member folds (_fold): its rows are built on the k >= 0 half.  Any other lone member
        # whose support holds a +-k pair takes one sine per distinct |k|: h (-k) = -(h k) and sin is odd, so the
        # -k entries get the +k bits.
        uk, row, pairs = _fold(ks[0], rows[0]) if len(members) == 1 else (ks[0], rows[0], 0)
        rows = row[None] if pairs else rows
        uk, inv = np.unique(np.abs(uk), return_inverse=True) if len(members) == 1 and not pairs else (uk, None)
        if uk.size == width:  # no +-k pair, or several members: the rows keep their own ks
            uk, inv = ks[0], None
        tables.append((slot, ks, rows, uk, inv, pairs))

    def norms(i, hs, slopes=False):
        """Shift norms at hs, each for the member of its bracket i; with slopes, _slopes's four arrays, where an
        edge bracket's points are bounded up to its delta."""
        m, sc, out = i // n, scale[i, None], np.empty((4, hs.size) if slopes else hs.size)
        ends = np.where(edge[i] & (hs < dd[i]), dd[i], hs) if slopes else None
        for slot, ks, rows, uk, inv, pairs in tables:
            at = np.flatnonzero(slot[m] >= 0)
            r = slot[m[at]]
            # a lone member's rows need no gather of its support; a slopes block holds a quarter of the rows, as
            # _slopes adds two bound rows per edge point and keeps several arrays of the rows' size
            for s in _blocks(at.size, rows.shape[1] * (4 if slopes else 1)):
                k, a = (uk, rows[0]) if len(ks) == 1 else (ks[r[s]], rows[r[s]])
                h = hs[at[s]]
                if slopes:
                    out[:, at[s]] = _slopes(h, k, a, alpha, phi, rtol, sc[at[s]], inv, pairs, ends[at[s]])
                else:
                    out[at[s]] = _lux_rows(_shift_rows(h, k, a, alpha, sc[at[s]], inv), phi, rtol=rtol, pairs=pairs)
        return (out[0], out[1], out[2] > 0, out[3]) if slopes else out

    # A certified bracket, delta <= pi/max|k| or a member with one nonzero |k|, peaks at h* = min(delta,
    # pi/max|k|) (see modulus): it takes h* in every grid column, which the dedupe below solves as one row.
    dd, crest = np.tile(deltas, len(fs)), np.repeat(math.pi / np.maximum(freqs, 1), n)
    lone = [np.abs(g.as_arrays()[0]).min(initial=k, where=g.as_arrays()[0] != 0) == k for g, k in zip(fs, freqs)]
    sure = (dd <= crest) | np.repeat(lone, n)
    hs = np.where(sure[:, None], np.minimum(dd, crest)[:, None], np.linspace(0.0, dd, grid, axis=1))
    # The grid row of bracket i at h is fixed by (member, row scale, h), and deltas share grid points
    # (t and t / 2 share half of them, every delta >= pi all): each distinct key is solved once.
    i = np.repeat(np.arange(len(fs) * n), grid)
    keys = (hs.ravel(), scale[i], i // n)
    order = np.lexsort(keys)
    new = np.ones(i.size, dtype=bool)
    new[1:] = np.any([x[order[1:]] != x[order[:-1]] for x in keys], axis=0)
    run = np.empty(i.size, dtype=int)  # each grid point's key among the distinct ones
    run[order] = np.cumsum(new) - 1
    g = norms(i[order[new]], keys[0][order[new]])[run].reshape(-1, grid)
    i, step = g.argmax(axis=1), dd / (grid - 1)
    best = g[np.arange(g.shape[0]), i]
    # the bracket c -+ w and its centre's norm gc, unsolved (nan) in the last cell; g[:, 0] = 0 (h = 0)
    edge = i == grid - 1
    c = np.minimum(i * step, dd - step / 2.0)
    w, gc = np.where(edge, step / 2.0, step), np.where(edge, np.nan, best)
    # Near an interior maximum the norm is quadratic in h on the scale 1 / max|k| of its fastest harmonic,
    # so this pins it to ~rtol; all-zero norms (underflow at a large alpha) and certified brackets need no zoom.
    stop = np.where((best > 0.0) & ~sure, math.sqrt(rtol) / (2.0 * np.repeat(np.maximum(freqs, 1), n)), np.inf)
    peak = np.fmax(best, _zoom(lambda b, h: norms(b, h, True), c, w, gc, stop)[1])
    with np.errstate(over="ignore"):  # a modulus beyond the double range is inf
        out = np.where(d > 2200, np.inf, np.ldexp(peak, np.repeat(e, n) + d)).reshape(-1, n)
    return out[0] if isinstance(f, CoeffSeq) else out


def _slopes(hs, ks, absc, alpha, phi, rtol, scale=2.0, inv=None, pairs=0, ends=None):
    """(norm, slope, rise, smooth) per shift h of the rows _shift_rows(hs, ks, absc, alpha, scale, inv), whose
    last pairs columns count twice (as in _lux_rows): N(h), N'(h), whether N provably rises on [h, end] (False
    where ends is None or end <= h), and the distance from h to the next sine zero of a term on its right.

    Differentiating sum_k M(r_k / N) = 1 in h gives N' / N = (alpha / 2) sum v_k |k| cot(h|k| / 2) / sum v_k,
    with u_k = r_k / N and v_k = u_k M'(u_k); nan where N = 0.  A term's zero can be a kink of N, so N is
    smooth only between zeros.  Over [h, end] with no sine zero inside, each |k| cot falls, so its value at
    end bounds it below; r_k lies between its end values (up to its crest when one is inside), and N between
    the norms of those termwise minimum and maximum rows, solved with the rows in one _lux_rows call, which
    bound each v_k.  From alpha = 1 on, |v_k |k| cot| <= |k| v_k,max / |sin|_max bounds a term with a zero
    inside too.  A positive sum of the term bounds proves the rise.
    """
    ends, scale = hs if ends is None else ends, np.broadcast_to(scale, (hs.size, 1))
    q = ends > hs
    kq, aq = (ks, absc) if np.ndim(ks) == 1 else (ks[q], absc[q])
    rows, far = _shift_rows(hs, ks, absc, alpha, scale, inv), _shift_rows(ends[q], kq, aq, alpha, scale[q], inv)
    th, te = _angles(hs, ks, inv), _angles(ends[q], kq, inv)
    crest = np.floor(th[q] / np.pi + 0.5) != np.floor(te / np.pi + 0.5)
    low, high = np.minimum(rows[q], far), np.where(crest, scale[q] ** alpha * aq, np.maximum(rows[q], far))
    lo, hi = _lux_rows(np.concatenate([rows, low, high]), phi, rtol=rtol, pairs=pairs, ends=True)
    n, wt = hs.size, np.ones(rows.shape[1])
    wt[wt.size - pairs:] = 2.0
    norm, rise = 0.5 * lo[:n] + 0.5 * hi[:n], np.zeros(n, dtype=bool)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        v = rows / norm[:, None]
        v *= phi.right_derivative(v)
        cot = 2.0 * th / (hs[:, None] * np.tan(th))  # |k| cot(h|k| / 2)
        slope = norm * (0.5 * alpha) * (wt * np.where(v > 0, v * cot, 0.0)).sum(axis=1) / (wt * v).sum(axis=1)
        vlo, vhi = (u * phi.right_derivative(u) for u in (low / hi[n + q.sum():, None], high / lo[n:n + q.sum(), None]))
        cot, k = 2.0 * te / (ends[q, None] * np.tan(te)), 2.0 * te / ends[q, None]
        bound = np.where(np.floor(th[q] / np.pi) == np.floor(te / np.pi), cot * np.where(cot >= 0, vlo, vhi), -np.inf)
        if alpha >= 1:
            top = np.where(crest, 1.0, np.maximum(np.abs(np.sin(th[q])), np.abs(np.sin(te))))
            bound = np.maximum(bound, -k * vhi / top)
        rise[q] = (wt * np.where(high > 0, bound, 0.0)).sum(axis=1) > 0
        gap = ((np.floor(th / np.pi) + 1.0) * np.pi - th) * hs[:, None] / th  # to the next sine zero on the right
    return norm, slope, rise, np.where(rows > 0, gap, np.inf).min(axis=1, initial=np.inf)


def _angles(hs, ks, inv=None):
    """h |k| / 2 for every entry of the rows _shift_rows builds."""
    out = np.abs(hs[:, None] * ks) * 0.5
    return out if inv is None else np.take(out, inv, axis=1)


def _shift_rows(hs, ks, absc, alpha, scale=2.0, inv=None):
    """Rows |scale sin(h k / 2)|**alpha |c_k|, one per shift h, built in a single array.

    ks and absc are one support for every row, or 2-d with one per row; scale a scalar or a column.
    With inv, ks are the distinct |k| of the support and inv takes each entry of absc to its |k|.
    """
    out = hs[:, None] * ks
    out *= 0.5
    np.abs(np.sin(out, out=out), out=out)
    out *= scale
    out **= alpha
    if inv is not None:
        out = np.take(out, inv, axis=1)
    out *= absc
    return out

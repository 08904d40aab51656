"""Bracket searches: _grow and _bisect find where a monotone test turns true, _zoom the peak of a unimodal profile.

_bisect is bisection with safeguarded Newton steps: a Luxemburg row closes in at most 3 steps under t**p and 5
under exp(t) - 1, against 40-48 halvings, and a bracket closed on entry is never evaluated.
"""

import numpy as np

_MAX_ITER = 200  # cap on every halving loop: 200 halvings take any bracket far below double precision


def _grow(above):
    """First of t = 1, 2, 4, ... where the nondecreasing test above(t) holds; inf once t passes 1e30."""
    t = np.float64(1.0)  # a Python float would raise OverflowError where M(t) passes the double range
    while t <= 1e30 and not above(t):
        t *= 2.0
    return t if t <= 1e30 else np.inf


def _bisect(above, lo, hi, rtol):
    """Bisection with safeguarded Newton steps onto the point where the nondecreasing test turns true.

    lo and hi are scalars or aligned arrays of brackets with lo >= 0; above(x) returns a bool of the
    same shape, or a pair (bool, guess).  A bracket that is closed, hi - lo <= rtol * hi, keeps its
    ends, so it ends as it would alone: one closed on entry is never evaluated, and when all are,
    above is not called.  Once all have closed the final (lo, hi) are returned, whose midpoint
    0.5 lo + 0.5 hi cannot overflow.  A plain bool gets bisection; a guess gets Brent's safeguard
    (zeroin), with h = rtol * hi / 2: one within h / 2 of the last point x moves rtol * x / 2 across
    x to the open side, never twice in a row; any other is clipped to [lo + h, hi - h] and taken if
    the clip moved it at most 2h and it lies within half the step before of x.  Otherwise the
    midpoint is taken, and the next guess is judged against the bracket's width.  rtol is floored at
    2**-50, 4 to 8 ulps of hi: below about an ulp the nudge cannot move x, and the bracket never closes.
    """
    rtol = max(rtol, 2.0 ** -50)
    step = hi - lo  # the step before: a midpoint counts as the whole width
    x = 0.5 * lo + 0.5 * hi
    open_ = step > rtol * hi
    if not np.any(open_):
        return lo, hi
    for _ in range(_MAX_ITER):
        up = above(x)
        up, guess = up if isinstance(up, tuple) else (up, None)
        hi = np.where(up & open_, x, hi)
        lo = np.where(open_ > up, x, lo)  # open and not up; up may be a Python bool
        width, tol = hi - lo, rtol * hi
        open_ = width > tol
        if not open_.any():
            break
        mid = 0.5 * lo + 0.5 * hi
        if guess is None:
            x = mid
            continue
        h = 0.5 * tol
        nudge = (abs(guess - x) <= 0.5 * h) & (step > 0)
        # x is an end of the bracket; sized by x, not by a far hi, the nudge lands within rtol * hi of x,
        # so a root it crosses closes the bracket on that step
        g = np.where(nudge, x + np.where(x == lo, 0.5, -0.5) * rtol * x,
                     np.minimum(np.maximum(guess, lo + h), hi - h))
        dx = abs(g - x)
        take = open_ & (nudge | ((abs(g - guess) <= tol) & (dx <= 0.5 * step)))
        x = np.where(take, g, mid)
        step = np.where(take, np.where(nudge, 0.0, dx), width)
    return lo, hi


def _zoom(values, c, w, gc, stop, split=2):
    """Zoom every bracket c_i -+ w_i onto the peak of its unimodal profile; returns the final (c, gc).

    c, w, gc (the profile at c, nan where unsolved) and stop broadcast.  A step takes the brackets
    with w > stop, solves their unknown points among the 2 split - 1 points c + j w / split, |j| <
    split, with one values(i, pts) call (i the bracket of each point), recentres each on its best
    point and divides w by split: ceil(log_split(w / stop)) steps.  So gc never falls, and the peak
    stays within w of c.  split = 2 evaluates c -+ w / 2 and halves w.

    values may instead return (value, slope) or (value, slope, rise, smooth), with split = 2.  rise
    certifies that the profile rises from the point to the bracket's right end; smooth is how far right
    of the point it is known to have no kink (False and inf when values does not say).  Each bracket
    then walks the same path, point for point, and keeps the data of its interval's ends c -+ w and
    centre (nan where unknown).  The walk ends at w <= stop; when rise holds at its left end in an edge
    bracket (an unsolved centre says its best point is its right end, whose value the caller holds); or
    when its ends' slopes are > 0 and < 0 with no kink between them: then its interval is a cell, where
    a root of the slope is the peak.  A step gives each cell its midpoint and a guess of that root, in
    the same values call after the paths' points: the peak of the cubic through its ends' values and
    slopes, else their secant.  Of the pieces between a cell's points those stay that can hold a peak:
    the slope falls from > 0 to <= 0 across them, or their ends' values show a hump in between.  A piece
    is done once narrower than 2 stop, or when the secant of its ends' slopes lies within stop of one of
    them.
    """
    c, w, gc, stop = (np.array(x, dtype=float) for x in np.broadcast_arrays(c, w, gc, stop))
    offsets = np.arange(1 - split, split) / split
    edge, ends, own, cells = np.isnan(gc), None, np.zeros(0, dtype=int), np.zeros((3, 0, 2))
    for _ in range(_MAX_ITER):
        o = np.flatnonzero(w > stop)
        if not o.size and not own.size:
            break
        pts = c[o, None] + np.outer(w[o], offsets)
        vals = np.full(pts.shape, np.nan)
        vals[:, split - 1] = gc[o]
        todo = np.isnan(vals)
        i, x = np.broadcast_to(o[:, None], todo.shape)[todo], pts[todo]
        m = x.size
        if own.size:  # a cell's points: its ends, its midpoint and its guess, by field: point, value, slope
            (lo, hi), (va, vb), (sa, sb) = cells.transpose(0, 2, 1)
            d, mid = hi - lo, 0.5 * lo + 0.5 * hi
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                # ratios to the left slope keep the guess the same under any power-of-two scale of the profile
                rb, u = sb / sa, (vb - va) / (d * sa)
                # the cubic's peak in t = (x - lo) / d is a root of qa t^2 + qb t + 1 in (0, 1)
                qa, qb = 3.0 * (1.0 + rb - 2.0 * u), 2.0 * (3.0 * u - 2.0 - rb)
                q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa, 0.0)), qb))
                t = np.where((1.0 / q > 0) & (1.0 / q < 1), 1.0 / q, q / qa)
                t = np.where((t > 0) & (t < 1), t, 1.0 / (1.0 - rb))
            g = np.where((sa > 0) & (sb < 0), lo + d * t, mid)
            D = cells[:, :, [0, 0, 1, 1]]
            D[0, :, 1], D[0, :, 2], D[1:, :, 1:3] = np.minimum(g, mid), np.maximum(g, mid), np.nan
            new = np.zeros(D.shape[1:], dtype=bool)
            new[:, 1:3] = D[0, :, 1:3] != D[0, :, :2]
            ci = np.broadcast_to(own[:, None], new.shape)[new]
            i, x = np.concatenate([i, ci]), np.concatenate([x, D[0][new]])
        got = values(i, x)
        if isinstance(got, tuple):  # by field: point, value, slope, rise, smooth
            got = np.stack(np.broadcast_arrays(x, *got, False, np.inf)[:5])
            if ends is None:  # each interval's ends and centre
                ends = np.full((5,) + c.shape + (3,), np.nan)
                ends[:2, o] = c[o, None] + np.outer(w[o], (-1.0, 0.0, 1.0)), vals
            if own.size:
                D[1:, new] = got[1:3, m:]
                for k in (1, 2):  # a point met twice
                    D[1:, :, k] = np.where(new[:, k], D[1:, :, k], D[1:, :, k - 1])
                v = D[1][new]  # the best point met
                np.fmax.at(gc, ci, v)
                c[ci[v == gc[ci]]] = D[0][new][v == gc[ci]]
                # the pieces that can still hold a peak become the cells
                (lo, va, sa), (hi, vb, sb) = D[:, :, :-1], D[:, :, 1:]
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # nan where no secant root
                    z = np.where((sa >= 0) & (sb <= 0) & (sa > sb), lo + (hi - lo) * (sa / (sa - sb)), np.nan)
                settled = np.minimum(z - lo, hi - z) <= stop[own, None]
                # no zero of a term lies in a cell, so its slopes are finite: a point without one holds no peak
                up, down = sa > 0, sb <= 0
                keep = np.isfinite(sa) & np.isfinite(sb) & (hi - lo > 2.0 * stop[own, None]) & ~settled
                keep &= (up & (down | (va > vb))) | (down & (va < vb))
                r, j = np.nonzero(keep)
                own, cells = own[r], D[:, r[:, None], j[:, None] + np.arange(2)]
            # a path's interval ends and centre, with the step's points between
            P = ends[:, o[:, None], [0, 1, 1, 1, 2]]
            P[:, :, 1:4][:, todo] = got[:, :m]
            got = got[1, :m]
        vals[todo] = got
        j, r = vals.argmax(axis=1), np.arange(o.size)
        c[o], gc[o], w[o] = pts[r, j], vals[r, j], w[o] / split
        if ends is not None:
            ends[:, o] = P[:, r[:, None], j[:, None] + np.arange(3)]
            a, b = ends[:, o, 0], ends[:, o, 2]
            cell = (a[2] > 0) & (b[2] < 0) & (b[0] - a[0] <= a[4])
            own, cells = np.append(own, o[cell]), np.concatenate([cells, ends[:3, o[cell]][:, :, ::2]], axis=1)
            w[o[cell | (edge[o] & (a[3] > 0))]] = -np.inf
    return c, gc

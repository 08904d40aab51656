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
    midpoint is taken, and the next guess is judged against the bracket's width.
    """
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

    When values returns (value, slope) or (value, slope, rise, smooth) instead, the first step goes on
    as _sign_zoom (split = 2), which meets every point the halving zoom meets until a bracket's peak is
    bracketed by the slope's sign, and then solves for the slope's root.
    """
    c, w, gc, stop = (np.array(x, dtype=float) for x in np.broadcast_arrays(c, w, gc, stop))
    offsets = np.arange(1 - split, split) / split
    for _ in range(_MAX_ITER):
        o = np.flatnonzero(w > stop)
        if not o.size:
            break
        pts = c[o, None] + np.outer(w[o], offsets)
        vals = np.full(pts.shape, np.nan)
        vals[:, split - 1] = gc[o]
        todo = np.isnan(vals)
        got = values(np.broadcast_to(o[:, None], todo.shape)[todo], pts[todo])
        if isinstance(got, tuple):
            return _sign_zoom(values, c, w, gc, stop, o, pts, todo, got)
        vals[todo] = got
        j, r = vals.argmax(axis=1), np.arange(o.size)
        c[o], gc[o], w[o] = pts[r, j], vals[r, j], w[o] / split
    return c, gc


def _sign_zoom(values, c, w, gc, stop, o, pts, todo, got):
    """_zoom from its first step on, for values(i, pts) that returns (value, slope) or (value, slope, rise, smooth).

    Each bracket goes on along the halving zoom's path, point for point, and keeps the value, slope, rise
    and smooth of its interval's ends c -+ w (unknown, as at the grid's points: nan, nan, False and 0).
    rise certifies that the profile rises from the point to the bracket's right end; smooth is how far right
    of the point the profile is known to have no kink (inf when values does not say).  The path ends as the
    halving zoom's does, at w <= stop; when rise holds at its left end in an edge bracket (an unsolved centre
    says its best point is its right end, whose value the caller holds); or when its ends' slopes are > 0
    and < 0 with no kink between them: then its interval is a cell, where a root of the slope is the peak.
    A step gives each cell its midpoint and a guess of that root, in the same values call as the paths'
    points: the peak of the cubic through its ends' values and slopes, else their secant.  Of the pieces
    between a cell's points those stay that can hold a peak: the slope falls from > 0 to <= 0 across them,
    or their ends' values show a hump in between.  A piece is done once narrower than 2 stop, or when the
    secant of its ends' slopes lies within stop of one of them.  Returns the best point and value met.
    """
    edge = np.isnan(gc)

    def extra(got, size):  # rise and smooth, False and inf when values does not give them
        return (got[2], got[3]) if len(got) > 2 else (np.zeros(size, dtype=bool), np.full(size, np.inf))

    # a path's interval ends and centre, with the step's two points between: the first step's, and its centre
    P = np.column_stack([c[o] - w[o], pts, c[o] + w[o]])
    PV, PS, PZ, PG = np.full(P.shape, np.nan), np.full(P.shape, np.nan), np.zeros(P.shape, dtype=bool), 0.0 * P
    PV[:, 2] = gc[o]
    PV[:, 1:4][todo], PS[:, 1:4][todo] = got[0], got[1]
    PZ[:, 1:4][todo], PG[:, 1:4][todo] = extra(got, todo.sum())
    own, CB, CV, CS = np.zeros(0, dtype=int), np.zeros((0, 2)), np.zeros((0, 2)), np.zeros((0, 2))  # the cells
    for _ in range(_MAX_ITER):
        # the halving zoom's step on the paths, whose interval keeps the data of its ends and centre
        j, r = PV[:, 1:4].argmax(axis=1), np.arange(o.size)
        c[o], gc[o], w[o] = P[r, j + 1], PV[r, j + 1], 0.5 * w[o]
        P, PV, PS, PZ, PG = (a[r[:, None], j[:, None] + np.arange(3)] for a in (P, PV, PS, PZ, PG))
        cell = (PS[:, 0] > 0) & (PS[:, 2] < 0) & (P[:, 2] - P[:, 0] <= PG[:, 0])
        own = np.append(own, o[cell])
        CB, CV, CS = (np.concatenate([C, A[cell][:, [0, 2]]]) for C, A in ((CB, P), (CV, PV), (CS, PS)))
        w[o[cell | (edge[o] & PZ[:, 0])]] = -np.inf
        keep = w[o] > stop[o]
        o, P, PV, PS, PZ, PG = o[keep], P[keep], PV[keep], PS[keep], PZ[keep], PG[keep]
        if not o.size and not own.size:
            break
        # a cell's guess: ratios to its left slope keep it the same under any power-of-two scale of the profile
        (lo, hi), d = CB.T, CB[:, 1] - CB[:, 0]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rb, u = CS[:, 1] / CS[:, 0], (CV[:, 1] - CV[:, 0]) / (d * CS[:, 0])
            # the cubic's peak in t = (x - lo) / d is a root of qa t^2 + qb t + 1 in (0, 1)
            qa, qb = 3.0 * (1.0 + rb - 2.0 * u), 2.0 * (3.0 * u - 2.0 - rb)
            q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa, 0.0)), qb))
            t = np.where((1.0 / q > 0) & (1.0 / q < 1), 1.0 / q, q / qa)
            t = np.where((t > 0) & (t < 1), t, 1.0 / (1.0 - rb))
        mid = 0.5 * lo + 0.5 * hi
        x = np.where((CS[:, 0] > 0) & (CS[:, 1] < 0), lo + d * t, mid)
        B = np.column_stack([lo, np.minimum(x, mid), np.maximum(x, mid), hi])
        V, S = (np.insert(C, [1, 1], np.nan, axis=1) for C in (CV, CS))
        new = np.zeros(B.shape, dtype=bool)
        new[:, 1:3] = B[:, 1:3] != B[:, :2]
        # one call: the paths' points c -+ w / 2, then the cells' new points
        P, PV, PS, PZ, PG = (np.insert(a, [1, 2], fill, axis=1)
                             for a, fill in ((P, 0.0), (PV, np.nan), (PS, np.nan), (PZ, False), (PG, 0.0)))
        P[:, 1], P[:, 3] = c[o] - 0.5 * w[o], c[o] + 0.5 * w[o]
        got = values(np.concatenate([np.repeat(o, 2), own[:, None].repeat(4, axis=1)[new]]),
                     np.concatenate([P[:, [1, 3]].ravel(), B[new]]))
        m = 2 * o.size
        PV[:, [1, 3]], PS[:, [1, 3]] = got[0][:m].reshape(-1, 2), got[1][:m].reshape(-1, 2)
        PZ[:, [1, 3]], PG[:, [1, 3]] = (a[:m].reshape(-1, 2) for a in extra(got, len(got[0])))
        V[new], S[new] = got[0][m:], got[1][m:]
        for k in (1, 2):  # a point met twice
            V[:, k], S[:, k] = np.where(new[:, k], V[:, k], V[:, k - 1]), np.where(new[:, k], S[:, k], S[:, k - 1])
        i, v = own[:, None].repeat(4, axis=1)[new], V[new]  # the best point met
        np.fmax.at(gc, i, v)
        c[i[v == gc[i]]] = B[new][v == gc[i]]
        # the pieces that can still hold a peak become the cells
        lo, hi, sa, sb = B[:, :-1], B[:, 1:], S[:, :-1], S[:, 1:]
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):  # nan where no secant root
            x = np.where((sa >= 0) & (sb <= 0) & (sa > sb), lo + (hi - lo) * (sa / (sa - sb)), np.nan)
        settled = np.minimum(x - lo, hi - x) <= stop[own, None]
        # no zero of a term lies in a cell, so its slopes are finite: a point without one holds no peak
        up, down, fall = sa > 0, sb <= 0, V[:, :-1] - V[:, 1:]
        keep = np.isfinite(sa) & np.isfinite(sb) & (hi - lo > 2.0 * stop[own, None]) & ~settled
        keep &= (up & (down | (fall > 0))) | (down & (fall < 0))
        r, j = np.nonzero(keep)
        own = own[r]
        CB, CV, CS = (A[r[:, None], j[:, None] + np.arange(2)] for A in (B, V, S))
    return c, gc

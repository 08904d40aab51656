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
        vals[todo] = values(np.broadcast_to(o[:, None], todo.shape)[todo], pts[todo])
        j, r = vals.argmax(axis=1), np.arange(o.size)
        c[o], gc[o], w[o] = pts[r, j], vals[r, j], w[o] / split
    return c, gc

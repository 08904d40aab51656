"""Bracket searches: _grow and _bisect find where a monotone test turns true, _zoom the peak of a unimodal profile."""

import numpy as np

_MAX_ITER = 200  # cap on every halving loop: 200 halvings take any bracket far below double precision


def _grow(above):
    """First of t = 1, 2, 4, ... where the nondecreasing test above(t) holds; inf once t passes 1e30."""
    t = np.float64(1.0)  # a Python float would raise OverflowError where M(t) passes the double range
    while t <= 1e30 and not above(t):
        t *= 2.0
    return t if t <= 1e30 else np.inf


def _bisect(above, lo, hi, rtol):
    """Halve [lo, hi] towards the point where the nondecreasing test `above` turns true.

    lo and hi are scalars or aligned arrays of brackets; above(mid) returns a
    bool of the same shape.  Stops once every bracket has hi - lo <= rtol * hi
    and returns the final (lo, hi).  The midpoint 0.5 lo + 0.5 hi cannot overflow.
    """
    for _ in range(_MAX_ITER):
        mid = 0.5 * lo + 0.5 * hi
        up = above(mid)
        hi = np.where(up, mid, hi)
        lo = np.where(up, lo, mid)
        if np.all(hi - lo <= rtol * hi):
            break
    return lo, hi


def _zoom(values, c, w, gc, stop):
    """Zoom every bracket c_i -+ w_i onto the peak of its unimodal profile; returns the final (c, gc).

    c, w, gc (the profile at c, nan where unsolved) and stop broadcast.  A step takes the brackets
    with w > stop, solves their unknown points among c and c -+ w / 2 with one values(i, pts) call
    (i the bracket of each point), recentres each on its best point and halves w.  So gc never
    falls, and the peak stays within w of c.
    """
    c, w, gc, stop = (np.array(x, dtype=float) for x in np.broadcast_arrays(c, w, gc, stop))
    for _ in range(_MAX_ITER):
        o = np.flatnonzero(w > stop)
        if not o.size:
            break
        pts = c[o, None] + np.outer(w[o], [-0.5, 0.0, 0.5])
        vals = np.column_stack([np.full(o.size, np.nan), gc[o], np.full(o.size, np.nan)])
        todo = np.isnan(vals)
        vals[todo] = values(np.broadcast_to(o[:, None], todo.shape)[todo], pts[todo])
        j, r = vals.argmax(axis=1), np.arange(o.size)
        c[o], gc[o], w[o] = pts[r, j], vals[r, j], w[o] / 2.0
    return c, gc

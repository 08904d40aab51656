"""Scalar golden-section search; it serves only the K-functional's coordinate polish."""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_INVPHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_min(fn, lo, hi, *, rtol=1e-12, atol=0.0, max_iter=200):
    """Minimize a unimodal function on [lo, hi].

    Returns (argmin, min value).  The interval shrinks by the golden ratio
    each step, so max_iter=200 is far beyond double precision.
    """
    a, b = float(lo), float(hi)
    if not a <= b:
        raise ValueError("empty search interval")
    h = b - a
    c = a + _INVPHI2 * h
    d = a + _INVPHI * h
    fc = fn(c)
    fd = fn(d)
    for _ in range(max_iter):
        if h <= atol + rtol * max(abs(a), abs(b), 1e-300):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + _INVPHI2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + _INVPHI * h
            fd = fn(d)
    if fc < fd:
        return c, fc
    return d, fd


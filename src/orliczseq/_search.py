"""Scalar golden-section search; it serves only the K-functional's polish along its shrinkage family."""

import math

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_ATOL = 1e-9
_MAX_ITER = 200  # each step shrinks the bracket by the golden ratio: far beyond double precision


def golden_min(fn, lo, hi, *, rtol):
    """(argmin, min value) of a unimodal fn on [lo, hi], to a bracket _ATOL + rtol * max|end| wide."""
    a, b = float(lo), float(hi)
    c, d = b - _INVPHI * (b - a), a + _INVPHI * (b - a)
    fc, fd = fn(c), fn(d)
    for _ in range(_MAX_ITER):
        if b - a <= _ATOL + rtol * max(abs(a), abs(b)):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INVPHI * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INVPHI * (b - a)
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)

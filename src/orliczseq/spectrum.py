"""Sparse complex Fourier coefficient sequences and their basic transforms.

A periodic signal is represented purely by its finitely supported map of
Fourier coefficients ``k -> c_k``.  Every norm and operator downstream acts
diagonally on these coefficients, so this representation is exact; truncation
only enters when a signal is ingested from samples.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

__all__ = [
    "CoeffSeq",
    "PsiWeights",
    "psi_derivative",
    "fourier_sum",
    "tail",
    "evaluate",
    "analyze_samples",
    "read_coeffs",
    "write_coeffs",
    "max_abs_diff",
]


def _as_frequency(k):
    if isinstance(k, (int, np.integer)):
        return int(k)
    if isinstance(k, float) and k.is_integer():
        return int(k)
    raise ValueError(f"frequency must be an integer, got {k!r}")


class CoeffSeq:
    """Finitely supported map from integer frequency to complex amplitude.

    Canonical form: exact zeros are never stored and keys are Python ints.
    Instances are immutable; arithmetic returns new sequences.  Duplicate
    frequencies passed to the constructor are summed.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries=None):
        acc = {}
        if entries is not None:
            items = entries.items() if hasattr(entries, "items") else entries
            for k, v in items:
                k = _as_frequency(k)
                acc[k] = acc.get(k, 0j) + complex(v)
        object.__setattr__(self, "_entries", {k: v for k, v in acc.items() if v != 0})

    def __setattr__(self, name, value):
        raise AttributeError("CoeffSeq is immutable")

    # -- access ------------------------------------------------------------

    def __getitem__(self, k) -> complex:
        return self._entries.get(_as_frequency(k), 0j)

    def __len__(self) -> int:
        return len(self._entries)

    def __bool__(self) -> bool:
        return bool(self._entries)

    def __iter__(self):
        return iter(self.support)

    def items(self):
        """Entries as (k, c_k) pairs in ascending frequency order."""
        return [(k, self._entries[k]) for k in self.support]

    @property
    def support(self):
        return tuple(sorted(self._entries))

    @property
    def max_freq(self) -> int:
        """Largest |k| in the support (0 for the zero sequence)."""
        return max((abs(k) for k in self._entries), default=0)

    def as_arrays(self):
        """Support and amplitudes as aligned numpy arrays, ascending k."""
        ks = np.array(self.support, dtype=np.int64)
        cs = np.array([self._entries[int(k)] for k in ks], dtype=np.complex128)
        return ks, cs

    @classmethod
    def from_arrays(cls, ks, cs):
        return cls(zip(np.asarray(ks).tolist(), np.asarray(cs).tolist()))

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        out = dict(self._entries)
        for k, v in other._entries.items():
            out[k] = out.get(k, 0j) + v
        return CoeffSeq(out)

    def __sub__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        return self + (-other)

    def __neg__(self):
        return CoeffSeq({k: -v for k, v in self._entries.items()})

    def __mul__(self, scalar):
        if isinstance(scalar, CoeffSeq):
            return NotImplemented
        s = complex(scalar)
        return CoeffSeq({k: s * v for k, v in self._entries.items()})

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / complex(scalar))

    def __eq__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        return self._entries == other._entries

    __hash__ = None

    def __repr__(self):
        body = ", ".join(f"{k}: {v:.6g}" for k, v in self.items()[:8])
        if len(self) > 8:
            body += ", ..."
        return f"CoeffSeq({{{body}}})"


def fourier_sum(f: CoeffSeq, n: int) -> CoeffSeq:
    """Restriction of f to the band |k| <= n (the degree-n partial sum)."""
    if n < 0:
        raise ValueError("band edge must be nonnegative")
    return CoeffSeq({k: v for k, v in f._entries.items() if abs(k) <= n})


def tail(f: CoeffSeq, n: int) -> CoeffSeq:
    """Complementary part of f with support on |k| >= n."""
    return CoeffSeq({k: v for k, v in f._entries.items() if abs(k) >= n})


class PsiWeights:
    """Nonzero multiplier sequence psi_k defining generalized derivatives.

    Two rules are supported: ``fractional(r)`` with psi_k = |k|**(-r), and an
    ``explicit`` finite table.  Weights are only ever queried at k != 0.
    """

    __slots__ = ("rule", "r", "table")

    def __init__(self, rule, r=None, table=None):
        if rule not in ("fractional", "explicit"):
            raise ValueError(f"unknown psi rule {rule!r}")
        self.rule = rule
        self.r = r
        self.table = table

    @classmethod
    def fractional(cls, r: float) -> "PsiWeights":
        if not r > 0:
            raise ValueError("fractional order must be positive")
        return cls("fractional", r=float(r))

    @classmethod
    def explicit(cls, mapping) -> "PsiWeights":
        table = {}
        for k, v in dict(mapping).items():
            k = _as_frequency(k)
            if k == 0:
                raise ValueError("psi weights are indexed by k != 0")
            v = complex(v)
            if v == 0:
                raise ValueError(f"psi weight at k={k} must be nonzero")
            table[k] = v
        return cls("explicit", table=table)

    def weight(self, k: int) -> complex:
        if k == 0:
            raise ValueError("psi weight undefined at k = 0")
        if self.rule == "fractional":
            return complex(abs(k) ** (-self.r))
        try:
            return self.table[k]
        except KeyError:
            raise ValueError(f"explicit psi has no weight at k={k}") from None

    def min_abs_band(self, n: int) -> float:
        """min |psi_k| over 0 < |k| <= n; for the fractional rule this is n**-r."""
        if n < 1:
            raise ValueError("band must contain at least k = 1")
        if self.rule == "fractional":
            return float(n ** (-self.r))
        ks = [k for k in range(-n, n + 1) if k != 0]
        return min(abs(self.weight(k)) for k in ks)

    def max_abs_from(self, n: int, support) -> float:
        """max |psi_k| over |k| >= n.

        For the fractional rule the maximum over the full index set is n**-r.
        For explicit weights the max is taken over the given support.
        """
        if n < 1:
            raise ValueError("band must contain at least k = 1")
        if self.rule == "fractional":
            return float(n ** (-self.r))
        ks = [k for k in support if abs(k) >= n]
        if not ks:
            return 0.0
        return max(abs(self.weight(k)) for k in ks)

    def __repr__(self):
        if self.rule == "fractional":
            return f"PsiWeights.fractional({self.r})"
        return f"PsiWeights.explicit(<{len(self.table)} weights>)"


def psi_derivative(f: CoeffSeq, psi: PsiWeights) -> CoeffSeq:
    """Coefficient-wise division by psi; the k = 0 entry is always dropped."""
    out = {}
    for k, c in f._entries.items():
        if k == 0:
            continue
        out[k] = c / psi.weight(k)
    return CoeffSeq(out)


def evaluate(f: CoeffSeq, x: float) -> complex:
    """Pointwise synthesis sum(c_k * exp(i k x))."""
    if not f:
        return 0j
    ks, cs = f.as_arrays()
    return complex(np.sum(cs * np.exp(1j * ks * float(x))))


def analyze_samples(samples) -> CoeffSeq:
    """Discrete Fourier analysis of equispaced samples on [0, 2*pi).

    Returns coefficients for |k| <= (N-1)//2, which is exact (to roundoff)
    whenever the samples come from a trigonometric polynomial inside that
    alias-free band.
    """
    s = np.asarray(list(samples), dtype=np.complex128)
    if s.ndim != 1 or s.size == 0:
        raise ValueError("need a nonempty 1-d sample sequence")
    n = s.size
    half = (n - 1) // 2
    ks = np.arange(-half, half + 1)
    coeffs = np.fft.fft(s)[ks % n] / n
    return CoeffSeq(zip(ks.tolist(), coeffs.tolist()))


def max_abs_diff(f: CoeffSeq, g: CoeffSeq) -> float:
    """Largest coefficient-wise deviation between two sequences."""
    keys = set(f._entries) | set(g._entries)
    return max((abs(f[k] - g[k]) for k in keys), default=0.0)


# -- JSON-lines coefficient files --------------------------------------------
#
# One frequency per line: {"k": -3, "re": 0.5, "im": 0.0}.  The writer emits
# the support in ascending k; the reader requires strictly ascending k and
# finite values, and drops exact zeros.

_LINE_KEYS = {"k", "re", "im"}


def write_coeffs(f: CoeffSeq, dest) -> None:
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8") as fh:
            write_coeffs(f, fh)
        return
    for k, c in f.items():
        dest.write(json.dumps({"k": k, "re": c.real, "im": c.imag}) + "\n")


def read_coeffs(source) -> CoeffSeq:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return _read_lines(fh, str(source))
    return _read_lines(source, getattr(source, "name", "<stream>"))


def _read_lines(fh, name):
    pairs = []
    for lineno, line in enumerate(fh, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name}:{lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict) or set(obj) != _LINE_KEYS:
            raise ValueError(f"{name}:{lineno}: expected exactly the keys k, re, im")
        k, re, im = obj["k"], obj["re"], obj["im"]
        if not isinstance(k, int) or isinstance(k, bool) or abs(k) >= 2**63:
            raise ValueError(f"{name}:{lineno}: k must be an integer below 2**63 in magnitude")
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in (re, im)):
            raise ValueError(f"{name}:{lineno}: re and im must be numbers and finite")
        if pairs and k <= pairs[-1][0]:
            kind = "duplicate" if k == pairs[-1][0] else "descending"
            raise ValueError(f"{name}:{lineno}: {kind} k={k}; k must strictly ascend")
        pairs.append((k, complex(re, im)))
    return CoeffSeq(pairs)

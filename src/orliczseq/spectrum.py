"""Sparse complex Fourier coefficient sequences and their basic transforms.

A periodic signal is represented purely by its finitely supported map of
Fourier coefficients ``k -> c_k``.  Every norm and operator downstream acts
diagonally on these coefficients, so this representation is exact; truncation
only enters when a signal is ingested from samples.
"""

import itertools
import json
import operator
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


def _as_int(x, need="frequency must be an integer"):
    """x as an int when it is an integer or an integral float; else ValueError(need)."""
    if isinstance(x, (int, np.integer)) or isinstance(x, float) and x.is_integer():
        return int(x)
    raise ValueError(f"{need}, got {x!r}")


def _check_band(tau, n):
    """ValueError unless n >= 1 and tau has no frequency beyond |k| = n."""
    if n < 1:
        raise ValueError("band must contain at least k = 1")
    if tau.max_freq > n:
        raise ValueError(f"polynomial has support beyond |k| = {n}")


class CoeffSeq:
    """Finitely supported map from integer frequency to complex amplitude.

    Stored as two read-only arrays: strictly ascending int64 frequencies and
    finite nonzero complex128 amplitudes.  Instances are immutable;
    arithmetic returns new sequences.  Duplicate frequencies passed to the
    constructor are summed in input order; exact zeros are dropped.
    """

    __slots__ = ("_ks", "_cs")

    def __init__(self, entries=None):
        pairs = [] if entries is None else list(entries.items() if hasattr(entries, "items") else entries)
        keys, values = zip(*pairs) if pairs else ((), ())
        self._canonicalise(keys, values)

    def _canonicalise(self, keys, values):
        # The one canonicaliser: sort, sum duplicates onto +0j in input order
        # (so a -0.0 part is stored as 0.0), drop zeros, reject non-finite
        # values and |k| >= 2**63.  Returns self.
        ks = np.asarray(keys)
        if ks.dtype.kind not in "biu":  # floats, Python ints beyond 64 bits, mixed or other objects
            ks = np.array([_as_int(k) for k in keys], dtype=object)
        # The extremes as Python ints, so the bounds are compared exactly for every dtype.  Of int64 keys,
        # as arithmetic passes, only -2**63 is out of range: the ascending keys below hold it first.
        if ks.dtype != np.int64 and ks.size and not (-2**63 < int(ks.min()) and int(ks.max()) < 2**63):
            raise ValueError("frequency magnitude must be below 2**63")
        ks, cs = np.asarray(ks, dtype=np.int64), np.asarray(values, dtype=np.complex128)
        if ks.ndim != 1 or ks.shape != cs.shape:
            raise ValueError("frequencies and amplitudes must be aligned 1-d sequences")
        with np.errstate(over="ignore", invalid="ignore"):  # the check below rejects the result
            if (ks[1:] > ks[:-1]).all():  # strictly ascending: each entry is its own slot
                s, acc = ks, cs + 0j
            else:
                # The distinct frequencies are the run starts of the sorted ks, and a binary search finds
                # each entry's slot, so the entries sum onto their slots in input order.
                s = np.sort(ks)
                s = s[np.concatenate(([True], s[1:] != s[:-1]))[:s.size]]
                acc = np.zeros(s.size, dtype=np.complex128)
                np.add.at(acc, np.searchsorted(s, ks), cs)
            if s.size and s[0] == -2**63:
                raise ValueError("frequency magnitude must be below 2**63")
            if not np.isfinite(np.abs(acc)).all():  # |c| overflows for parts near the double limit
                raise ValueError("coefficients must be finite")
        keep = acc != 0
        ks, cs = s[keep], acc[keep]
        ks.flags.writeable = cs.flags.writeable = False
        object.__setattr__(self, "_ks", ks)
        object.__setattr__(self, "_cs", cs)
        return self

    def __setattr__(self, name, value):
        raise AttributeError("CoeffSeq is immutable")

    # -- access ------------------------------------------------------------

    def __getitem__(self, k) -> complex:
        k = _as_int(k)
        i = int(np.searchsorted(self._ks, k))
        return complex(self._cs[i]) if i < self._ks.size and self._ks[i] == k else 0j

    def __len__(self) -> int:
        return self._ks.size

    def __iter__(self):
        return iter(self.support)

    def items(self):
        """Entries as (k, c_k) pairs in ascending frequency order."""
        return list(zip(self._ks.tolist(), self._cs.tolist()))

    @property
    def support(self):
        return tuple(self._ks.tolist())

    @property
    def max_freq(self) -> int:
        """Largest |k| in the support (0 for the zero sequence)."""
        return max(-int(self._ks[0]), int(self._ks[-1])) if self._ks.size else 0

    def as_arrays(self):
        """Support and amplitudes as aligned read-only numpy arrays, ascending k."""
        return self._ks, self._cs

    @classmethod
    def from_arrays(cls, ks, cs):
        """The sequence with amplitudes cs at frequencies ks, canonicalised like the constructor."""
        return cls.__new__(cls)._canonicalise(ks, cs)

    # -- arithmetic ----------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        return CoeffSeq.from_arrays(np.concatenate([self._ks, other._ks]),
                                    np.concatenate([self._cs, other._cs]))

    def __sub__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        return CoeffSeq.from_arrays(np.concatenate([self._ks, other._ks]),
                                    np.concatenate([self._cs, -other._cs]))

    def __neg__(self):
        return CoeffSeq.from_arrays(self._ks, -self._cs)

    def __mul__(self, scalar):
        if isinstance(scalar, CoeffSeq):
            return NotImplemented
        return CoeffSeq.from_arrays(self._ks, complex(scalar) * self._cs)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return self * (1.0 / complex(scalar))

    def __eq__(self, other):
        if not isinstance(other, CoeffSeq):
            return NotImplemented
        return np.array_equal(self._ks, other._ks) and np.array_equal(self._cs, other._cs)

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
    ks, cs = f.as_arrays()
    keep = np.abs(ks) <= n
    return CoeffSeq.from_arrays(ks[keep], cs[keep])


def tail(f: CoeffSeq, n: int) -> CoeffSeq:
    """Complementary part of f with support on |k| >= n."""
    ks, cs = f.as_arrays()
    keep = np.abs(ks) >= n
    return CoeffSeq.from_arrays(ks[keep], cs[keep])


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
            k = _as_int(k)
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
        return min(abs(self.weight(k)) for k in range(-n, n + 1) if k != 0)

    def max_abs_from(self, n: int, support) -> float:
        """max |psi_k| over |k| >= n.

        For the fractional rule the maximum over the full index set is n**-r.
        For explicit weights the max is taken over the given support.
        """
        if n < 1:
            raise ValueError("band must contain at least k = 1")
        if self.rule == "fractional":
            return float(n ** (-self.r))
        return max((abs(self.weight(k)) for k in support if abs(k) >= n), default=0.0)

    def __repr__(self):
        if self.rule == "fractional":
            return f"PsiWeights.fractional({self.r})"
        return f"PsiWeights.explicit(<{len(self.table)} weights>)"


def psi_derivative(f: CoeffSeq, psi: PsiWeights) -> CoeffSeq:
    """Coefficient-wise division by psi; the k = 0 entry is always dropped."""
    ks, cs = f.as_arrays()
    ks, cs = ks[ks != 0], cs[ks != 0]
    return CoeffSeq.from_arrays(ks, cs / np.array([psi.weight(k) for k in ks.tolist()], dtype=complex))


def evaluate(f: CoeffSeq, x: float) -> complex:
    """Pointwise synthesis sum(c_k * exp(i k x))."""
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
    return CoeffSeq.from_arrays(ks, np.fft.fft(s)[ks % n] / n)


def max_abs_diff(f: CoeffSeq, g: CoeffSeq) -> float:
    """Largest coefficient-wise deviation between two sequences."""
    return float(np.abs((f - g).as_arrays()[1]).max(initial=0.0))


# -- JSON-lines coefficient files --------------------------------------------
#
# One frequency per line: {"k": -3, "re": 0.5, "im": 0.0}.  The writer emits
# the support in ascending k; the reader requires strictly ascending k and
# finite values, and drops exact zeros.

_LINE_KEYS = {"k", "re", "im"}
_LINE_VALUES = operator.itemgetter("k", "re", "im")
_BLOCK = 256  # non-blank lines parsed by one json.loads


def write_coeffs(f: CoeffSeq, dest) -> None:
    """Write f to dest (a path, or an open text file) as JSON lines in ascending k.

    Each line is ``json.dumps({"k": k, "re": c.real, "im": c.imag})`` of one entry of the
    support, so ``read_coeffs`` gives f back.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8") as fh:
            write_coeffs(f, fh)
        return
    # json formats a finite float or an int by its repr, so these are the json.dumps lines
    dest.write("".join(f'{{"k": {k!r}, "re": {c.real!r}, "im": {c.imag!r}}}\n' for k, c in f.items()))


def read_coeffs(source) -> CoeffSeq:
    """The sequence in a JSON-lines coefficient file (a path, or an open text file).

    Every non-blank line holds one JSON object with exactly the keys k, re and im: an integer
    k below 2**63 in magnitude and numbers re and im, finite and with |re + i im| within the
    double range, in UTF-8 text.  k strictly ascends from line to line.  Blank and
    whitespace-only lines are skipped, and exact zeros are dropped.  The first line that breaks
    this, in any way, raises ``ValueError("<name>:<line>: ...")``, where name is the path,
    ``source.name`` or ``<stream>``.  A path is opened once; an undecodable byte reaches the
    line checks as a lone surrogate, as in a stream opened with ``errors="surrogateescape"``.
    A stream whose own decoder fails raises ``ValueError("<name>: not UTF-8 text (<reason>)")``.

    ``_block_arrays`` parses each block of lines, most with one ``json.loads``, and builds the
    arrays of every block that keeps the contract.  A block it rejects holds a bad line, which
    ``_line_error`` finds and names.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8", errors="surrogateescape") as fh:  # fh.name is the path
            return read_coeffs(fh)
    name = getattr(source, "name", "<stream>")
    numbered = ((lineno, line) for lineno, line in enumerate(map(str.strip, source), 1) if line)
    ks, cs, prev = [np.empty(0, np.int64)], [np.empty(0, np.complex128)], -2**63  # prev: below every k
    try:
        while block := list(itertools.islice(numbered, _BLOCK)):
            k, c = _block_arrays(block, prev) or _line_error(name, block, prev)
            ks.append(k)
            cs.append(c)
            prev = int(k[-1])
    except UnicodeDecodeError as exc:  # a strict stream's decoder, somewhere in its read-ahead
        raise ValueError(f"{name}: not UTF-8 text ({exc.reason})") from None
    return CoeffSeq.from_arrays(np.concatenate(ks), np.concatenate(cs))


def _block_arrays(block, prev):
    """(ks, cs) of a block of (line number, stripped line) pairs; None exactly when a line is bad.

    A line is bad when it breaks the file contract, its k above prev, or holds a lone surrogate
    that is not an escaped UTF-8 byte sequence.  The block is parsed by one json.loads when
    every line starts with { and ends with } and the block holds no other brace: n dicts need
    n braces, so each dict is then exactly one line's text, as a parse of that line alone would
    give it.  Any other block (a repeated key may hold a brace) is parsed line by line.
    """
    texts = [line for _, line in block]
    joined, n = ",".join(texts), len(texts)
    whole = all(t[0] == "{" and t[-1] == "}" for t in texts) and joined.count("{") == n == joined.count("}")
    try:
        if not joined.isascii():  # UnicodeError where an undecodable byte arrived as a lone surrogate
            joined.encode("utf-8", "surrogateescape").decode("utf-8")
        objs = json.loads(f"[{joined}]") if whole else list(map(json.loads, texts))
        k, re, im = zip(*map(_LINE_VALUES, objs))  # KeyError for a missing key, TypeError for a non-dict
    except (UnicodeError, json.JSONDecodeError, KeyError, TypeError):
        return None
    parts = set(map(type, re + im))
    if (len(objs) != n or set(map(len, objs)) != {3} or set(map(type, k)) != {int}
            or not parts <= {int, float}  # and int parts exactly: one just above DBL_MAX rounds to it
            or int in parts and any(abs(v) > sys.float_info.max for v in re + im)):
        return None
    ks, cs = np.empty(n, np.int64), np.empty(n, np.complex128)
    try:
        ks[:], cs.real, cs.imag = k, re, im
    except OverflowError:  # a k beyond the int64 range
        return None
    with np.errstate(over="ignore"):
        inside = (np.abs(cs) <= sys.float_info.max).all()  # also False for nan and inf
    if not inside or ks[0] <= prev or (ks[1:] <= ks[:-1]).any():
        return None
    return ks, cs


def _line_error(name, block, prev):
    """ValueError("<name>:<line>: ...") at the first bad line of a block that _block_arrays rejects."""
    for lineno, line in block:
        try:  # an undecodable byte arrives as a lone surrogate; encoded back, its bytes fail to decode
            obj = json.loads(line.encode("utf-8", "surrogateescape").decode("utf-8"))
        except UnicodeError as exc:
            raise ValueError(f"{name}:{lineno}: not UTF-8 text ({exc.reason})") from None
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name}:{lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict) or set(obj) != _LINE_KEYS:
            raise ValueError(f"{name}:{lineno}: expected exactly the keys k, re, im")
        k, re, im = obj["k"], obj["re"], obj["im"]
        if not isinstance(k, int) or isinstance(k, bool) or abs(k) >= 2**63:
            raise ValueError(f"{name}:{lineno}: k must be an integer below 2**63 in magnitude")
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in (re, im)):
            raise ValueError(f"{name}:{lineno}: re and im must be numbers and finite")
        if k <= prev:
            kind = "duplicate" if k == prev else "descending"
            raise ValueError(f"{name}:{lineno}: {kind} k={k}; k must strictly ascend")
        with np.errstate(over="ignore"):
            if np.isinf(np.abs(np.complex128(complex(re, im)))):
                raise ValueError(f"{name}:{lineno}: |re + i im| is beyond the double range")
        prev = k

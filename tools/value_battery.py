"""Record or compare a fixed battery of orliczseq values.

    python tools/value_battery.py OUT.json         write every battery value to OUT.json
    python tools/value_battery.py A.json B.json    compare two such files; exit 1 if any value differs

The battery imports orliczseq from the ``src`` directory of the checkout it lives in, so to
compare two revisions copy this file into each checkout's ``tools`` directory and run it there.
Recorded values, keyed ``kind|gauge|sequence|...``:

* the sequences: ``band{4,16,64,128,1024}-s{0,1,2}``, full bands of complex normal draws; ``real64-s0``,
  the full band 64 of a real-valued function (c_{-k} = conj(c_k)), whose rows fold; and four sparse ones;
* ``lux``, ``dual``, ``en``: the Luxemburg norm, the dual norm and E_n at n = 1 + max|k| // 4;
  ``lux`` and ``dual`` also for three near-limit sequences whose sum of |c_k| overflows;
* ``modulus``: at alpha in {0.5, 1, 2} and delta in {0.01, 0.1, 0.5, 1, 3}, grid 128, and at
  orders above 1024, where a shift-row power 2**alpha overflows: ``{1: 1e-300}`` at alpha in
  {1025, 1100, 2000}, delta = 3.14159, and ``{1: 1, 3: 0.5}`` at alpha = 1100, delta = 3;
* ``modulus`` also at alpha = 1, grid 128 and delta in {pi, 4, 1e15} for ``{1: 1, 97: 0.5, 301: 0.2}``
  and ``band64-s0``: the shift norm is 2 pi-periodic in h, so each delta past pi must give the value at pi;
* ``modulus`` also where it peaks at a known shift, at alpha in {0.5, 1, 2} and grid 128: ``{64:1}``,
  ``{-3:0.5j,3:1}`` (an unequal +-k pair) and ``{0:2,4093:-1}``, one nonzero |k| each, at deltas on both
  sides of pi/|k|, and ``band8-s0`` at delta in {pi/16, pi/8}, where no term passes its crest;
* ``modulus`` also as a sweep computes it: ``_moduli`` of one list of three members, the partial
  sums to |k| <= 6 of two band-16 draws and a band-4 draw padded to their 13 entries, at alpha in
  {1, 1100} and delta in {1, 3};
* ``modulus`` also as a rates report computes it: one ``_moduli`` call on ``band1024-s0`` and one on
  the rates model |k|**-1.5 on 0 < |k| <= 1024 (real-valued, so folded) at alpha in {1, 1.5}, grid 64
  and delta = 2**-j for j in 3..7, whose grids share points; and one on
  ``{1: 1, 97: 0.5, 301: 0.2}`` at alpha = 1, grid 128 and deltas [1, pi, 4], which share the grid of pi;
* ``modulus`` also at the CLI's grid 512 and delta = 3, alpha = 1, on the flat bands ``flat{512,1024}-s0``
  (|c_k| uniform in [0.5, 1.5), random phases), whose shift norms vary little, so that many grid rows
  come near the best, under ``power(2)``, ``exp_minus_one`` and ``power_log(2)`` at rtol in {1e-12, 1e-6, 0.3};
* ``k``, ``kdeg``: the K-functional value and minimizer_degree at alpha = 1, delta in {0.02, 0.3},
  polished and not, for sequences of band at most 128; ``k`` also polished at both deltas by one
  ``_k_functionals`` call (``polish=batched``); and unpolished for ``band1024-s{0,1,2}`` under
  ``power(2)``, ``exp_minus_one`` and ``power_log(2)`` at delta in {1e-3, 0.02, 0.3};
* ``binom``: binom(alpha, j) for 0 <= j <= alpha < 40 and a few fractional alpha;
* ``cli``: the exit code and stdout of about 25 CLI invocations, run in-process in a temporary
  directory with relative file names, so the bytes do not depend on a path; among the input files
  are one with blank, whitespace-only and CRLF lines and one whose ``|re + i im|`` overflows;
* ``readerr``: the error text (exception type and message) of ``read_coeffs`` on broken files,
  read by relative name in a temporary directory: bad JSON on line 3 with a 0xff byte on line 40,
  0xff on line 2 with bad JSON on line 40, 0xff on line 1001 (also as a strict UTF-8 stream), and
  an integer part of ``int(DBL_MAX) + 1``.

The comparison prints, per kind, the entry count on each side, the bit-identical count and the
largest relative move (for ``cli``, over the numbers printed), then every differing integer entry,
every entry that moved between inf and a finite value and, for every differing CLI output, how
many of its numbers moved and each move (only the largest when more than four moved).  It exits
with status 1 when a shared entry differs or an entry is on one side only, and 0 otherwise.
"""

import contextlib
import io
import json
import math
import os
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np  # noqa: E402

from orliczseq import approx, cli, fracdiff, kfunc, orlicz, spectrum  # noqa: E402
from orliczseq.spectrum import CoeffSeq  # noqa: E402

GAUGES = {
    "power(1)": orlicz.power(1),
    "power(1.5)": orlicz.power(1.5),
    "power(2)": orlicz.power(2),
    "power(3)": orlicz.power(3),
    "exp_minus_one": orlicz.exp_minus_one(),
    "power_log(2)": orlicz.power_log(2),
}
ALPHAS, DELTAS = (0.5, 1.0, 2.0), (0.01, 0.1, 0.5, 1.0, 3.0)
K_DELTAS, K_BAND = (0.02, 0.3), 128
# unpolished K at band 1024, where the scan leaves most radii unsolved
WIDE_K_GAUGES, WIDE_K_DELTAS = ("power(2)", "exp_minus_one", "power_log(2)"), (1e-3, 0.02, 0.3)
# moduli at the CLI's grid on flat bands, where many grid rows come near the best
FLAT_GAUGES, FLAT_RTOLS = ("power(2)", "exp_minus_one", "power_log(2)"), (1e-12, 1e-6, 0.3)


def _draw(band, seed):
    """Full band -band..band with complex normal amplitudes decaying like 1 / (1 + |k|)."""
    rng = np.random.default_rng([band, seed])
    ks = np.arange(-band, band + 1)
    return CoeffSeq.from_arrays(ks, (rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size))
                                / (1.0 + np.abs(ks)))


def _flat(band, seed):
    """Full band -band..band with |c_k| uniform in [0.5, 1.5) and uniform random phases."""
    rng = np.random.default_rng([band, seed, 2])
    ks = np.arange(-band, band + 1)
    return CoeffSeq.from_arrays(ks, rng.uniform(0.5, 1.5, ks.size) * np.exp(2j * np.pi * rng.random(ks.size)))


def _real_draw(band, seed):
    """Full band -band..band of a real-valued function: c_0 real and c_{-k} = conj(c_k), decaying like 1 / (1 + |k|)."""
    rng = np.random.default_rng([band, seed, 1])
    c = (rng.standard_normal(band) + 1j * rng.standard_normal(band)) / (2.0 + np.arange(band))
    return CoeffSeq.from_arrays(np.arange(-band, band + 1),
                                np.concatenate([np.conj(c[::-1]), [rng.standard_normal()], c]))


def _rates_model(beta, band):
    """c_k = |k|**(-beta - 1/2) on 0 < |k| <= band, the sequence of verify.rates_report."""
    ks = np.arange(1, band + 1)
    mags = ks.astype(float) ** (-beta - 0.5)
    return CoeffSeq.from_arrays(np.concatenate([ks, -ks]), np.concatenate([mags, mags]))


def sequences():
    seqs = {f"band{b}-s{s}": _draw(b, s) for b in (4, 16, 64, 128, 1024) for s in range(3)}
    seqs["real64-s0"] = _real_draw(64, 0)
    for spec in ({1: 1, 4093: 0.3}, {1: 1, 97: 0.5, 301: 0.2}, {5: 1}, {0: 2, 3: 1}):
        seqs[json.dumps(spec).replace(" ", "")] = CoeffSeq(spec)
    return seqs


def near_limit():
    """Sequences whose sum |c_k| overflows; some of their norms are finite, some beyond the double range."""
    return {"{1:1e308,2:1e308}": CoeffSeq({1: 1e308, 2: 1e308}),
            "{k:1e307,1<=k<=100}": CoeffSeq({k: 1e307 for k in range(1, 101)}),
            "2**1022*{1:3,5:1,9:0.5}": 2.0 ** 1022 * CoeffSeq({1: 3, 5: 1, 9: 0.5})}


# sequences and deltas for the moduli at and past pi
PAST_PI_SEQS, PAST_PI_DELTAS = ('{"1":1,"97":0.5,"301":0.2}', "band64-s0"), (math.pi, 4.0, 1e15)

# deltas of the rates-report moduli, each grid sharing half its points with the next
RATES_DELTAS = [2.0 ** -j for j in range(3, 8)]

# sequence and deltas for the moduli that peak at min(delta, pi/max|k|): one nonzero |k|, or delta max|k| <= pi
PEAKED = {"{64:1}": (CoeffSeq({64: 1}), (0.01, math.pi / 64, 0.1, 1.0)),
          "{-3:0.5j,3:1}": (CoeffSeq({-3: 0.5j, 3: 1}), (0.5, math.pi / 3, 2.0, 3.0)),
          "{0:2,4093:-1}": (CoeffSeq({0: 2, 4093: -1}), (1e-4, math.pi / 4093, 0.01, 3.0)),
          "band8-s0": (_draw(8, 0), (math.pi / 16, math.pi / 8))}

# (sequence, alpha, delta) for the large-order moduli
LARGE_ORDERS = [({1: 1e-300}, a, 3.14159) for a in (1025.0, 1100.0, 2000.0)] + [({1: 1, 3: 0.5}, 1100.0, 3.0)]


def _cli_runs(seqs):
    """stdout of CLI invocations on a few coefficient files, keyed by the command line."""
    exp, plog = '{"family":"exp_minus_one"}', '{"family":"power_log","p":2}'
    p1, p15 = '{"family":"power","p":1}', '{"family":"power","p":1.5}'
    runs = [
        "norm --input a.jsonl", f"norm --input a.jsonl --orlicz {exp}",
        "onorm --input a.jsonl", f"onorm --input a.jsonl --orlicz {exp}",
        f"onorm --input a.jsonl --orlicz {plog} --tol 1e-6", f"onorm --input b.jsonl --orlicz {p1}",
        "en --input a.jsonl --n 5", f"en --input b.jsonl --n 3 --orlicz {p15}",
        "omega --input a.jsonl --alpha 1.5 --delta 0.3 --grid 64",
        f"omega --input b.jsonl --alpha 2 --delta 1 --orlicz {exp}",
        "kfunc --input a.jsonl --alpha 1 --delta 0.2", f"kfunc --input b.jsonl --delta 0.02 --orlicz {p1}",
        "kernel --n 6 --r 2", "sigma --input a.jsonl --alpha 2 --n 5",
        "sigma --input a.jsonl --alpha 2 --n 5 --output s.jsonl",
        "verify direct --alpha 1 --n-max 32", f"verify direct --alpha 1 --n-max 16 --orlicz {exp} --format csv",
        "verify inverse --alpha 1 --n-max 32", "verify equiv --alpha 1",
        "verify classify --input c.jsonl --r 1 --alpha 2 --n-max 32",
        "verify rates --beta 1 --alpha 2 --band 256", "verify balpha --r 1 --alpha 2",
        "norm --input d.jsonl", "omega --input d.jsonl --alpha 1 --delta 0.5", "norm --input e.jsonl",
    ]
    out, cwd = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            spectrum.write_coeffs(seqs["band16-s0"], "a.jsonl")
            spectrum.write_coeffs(seqs["band64-s1"], "b.jsonl")
            spectrum.write_coeffs(CoeffSeq({k: k ** -1.5 for k in range(1, 257)}), "c.jsonl")
            # blank, whitespace-only and CRLF lines; then a line whose |re + i im| overflows (exit 2)
            Path("d.jsonl").write_bytes(b'\r\n{"k": -2, "re": 0.5, "im": 0.25}\r\n  \r\n\t\n'
                                        b'{"k": 1, "re": -1.0, "im": 0.0}\r\n\r\n{"k": 3, "re": 2, "im": -1}\r\n')
            Path("e.jsonl").write_text('{"k": 1, "re": 1.0, "im": 0.0}\n{"k": 2, "re": 1.7e308, "im": 1.7e308}\n',
                                       encoding="utf-8")
            for line in runs:
                buf = io.StringIO()
                with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                    code = cli.run(re.findall(r"\{[^}]*\}|\S+", line))
                out[f"cli|{line}"] = f"exit {code}\n{buf.getvalue()}"
        finally:
            os.chdir(cwd)
    return out


def _broken(bad_json=None, byte=None):
    """1200 good lines, with line bad_json not JSON and line byte holding an undecodable 0xff."""
    lines = [f'{{"k": {k}, "re": 0.125, "im": -0.5}}\n'.encode() for k in range(1, 1201)]
    if bad_json:
        lines[bad_json - 1] = b"not json\n"
    if byte:
        lines[byte - 1] = lines[byte - 1].replace(b"0.125", b"0.12\xff")
    return b"".join(lines)


def _error_text(source):
    """The exception type and message of read_coeffs(source), or "read" when it reads."""
    try:
        spectrum.read_coeffs(source)
    except ValueError as exc:  # UnicodeDecodeError, too, as an older revision raises from a strict stream
        return f"{type(exc).__name__}: {exc}"
    return "read"


def _reader_errors():
    """The error text of read_coeffs on a few broken files, keyed by what breaks them."""
    files = {"json@3,0xff@40": _broken(3, 40), "0xff@2,json@40": _broken(40, 2), "0xff@1001": _broken(byte=1001),
             "re=int(DBL_MAX)+1": f'{{"k": 1, "re": {int(sys.float_info.max) + 1}, "im": 0}}\n'.encode()}
    out, cwd = {}, os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            for name, data in files.items():
                Path(f"{name}.jsonl").write_bytes(data)
                out[f"readerr|{name}|path"] = _error_text(f"{name}.jsonl")
            with open("0xff@1001.jsonl", encoding="utf-8") as fh:
                out["readerr|0xff@1001|strict stream"] = _error_text(fh)
        finally:
            os.chdir(cwd)
    return out


def battery():
    seqs, out = sequences(), {}
    sweep = [spectrum.fourier_sum(seqs["band16-s0"], 6), spectrum.fourier_sum(seqs["band16-s1"], 6), seqs["band4-s0"]]
    for gname, phi in GAUGES.items():
        for sname, f in seqs.items():
            key = f"{gname}|{sname}"
            out[f"lux|{key}"] = orlicz.luxemburg_norm(phi, f)
            out[f"dual|{key}"] = orlicz.orlicz_norm(phi, f)
            n = 1 + f.max_freq // 4
            out[f"en|{key}|n={n}"] = approx.best_approx(f, phi, n)
            for a in ALPHAS:
                for d in DELTAS:
                    out[f"modulus|{key}|alpha={a}|delta={d}"] = fracdiff.modulus(f, phi, a, d, grid=128)
            if sname.startswith("band1024-") and gname in WIDE_K_GAUGES:
                for d in WIDE_K_DELTAS:
                    est = kfunc.k_functional(f, phi, 1.0, d, polish=False)
                    out[f"k|{key}|delta={d}|polish=False"] = est.value
                    out[f"kdeg|{key}|delta={d}|polish=False"] = est.minimizer_degree
            if f.max_freq > K_BAND:
                continue
            for d in K_DELTAS:
                for polish in (False, True):
                    est = kfunc.k_functional(f, phi, 1.0, d, polish=polish)
                    out[f"k|{key}|delta={d}|polish={polish}"] = est.value
                    out[f"kdeg|{key}|delta={d}|polish={polish}"] = est.minimizer_degree
            for d, est in zip(K_DELTAS, kfunc._k_functionals(f, phi, 1.0, K_DELTAS, None, True, 1e-12)):
                out[f"k|{key}|delta={d}|polish=batched"] = est.value
        for sname in PAST_PI_SEQS:
            for d in PAST_PI_DELTAS:
                out[f"modulus|{gname}|{sname}|alpha=1.0|delta={d}"] = fracdiff.modulus(seqs[sname], phi, 1.0, d,
                                                                                     grid=128)
        for sname, (f, deltas) in PEAKED.items():
            for a in ALPHAS:
                for d in deltas:
                    out[f"modulus|{gname}|{sname}|alpha={a}|delta={d}"] = fracdiff.modulus(f, phi, a, d, grid=128)
        for sname, f in near_limit().items():
            out[f"lux|{gname}|{sname}"] = orlicz.luxemburg_norm(phi, f)
            out[f"dual|{gname}|{sname}"] = orlicz.orlicz_norm(phi, f)
        for spec, a, d in LARGE_ORDERS:
            sname = json.dumps(spec).replace(" ", "")
            out[f"modulus|{gname}|{sname}|alpha={a}|delta={d}"] = fracdiff.modulus(CoeffSeq(spec), phi, a, d,
                                                                                 grid=128)
        for a in (1.0, 1100.0):
            for m, row in enumerate(fracdiff._moduli(sweep, phi, a, [1.0, 3.0], 128, 1e-12)):
                for d, v in zip((1.0, 3.0), row.tolist()):
                    out[f"modulus|{gname}|sweep(band16-s0:6,band16-s1:6,band4-s0)[{m}]|alpha={a}|delta={d}"] = v
        for a in (1.0, 1.5):
            for d, v in zip(RATES_DELTAS, fracdiff._moduli(seqs["band1024-s0"], phi, a, RATES_DELTAS, 64,
                                                           1e-12).tolist()):
                out[f"modulus|{gname}|band1024-s0|alpha={a}|deltas=rates|grid=64|delta={d}"] = v
            for d, v in zip(RATES_DELTAS, fracdiff._moduli(_rates_model(1.0, 1024), phi, a, RATES_DELTAS, 64,
                                                           1e-12).tolist()):
                out[f"modulus|{gname}|rates(beta=1,band=1024)|alpha={a}|deltas=rates|grid=64|delta={d}"] = v
        if gname in FLAT_GAUGES:
            for band in (512, 1024):
                for rtol in FLAT_RTOLS:
                    key = f"modulus|{gname}|flat{band}-s0|alpha=1.0|delta=3.0|grid=512|rtol={rtol}"
                    out[key] = fracdiff.modulus(_flat(band, 0), phi, 1.0, 3.0, grid=512, rtol=rtol)
        sname = PAST_PI_SEQS[0]
        for d, v in zip((1.0, math.pi, 4.0), fracdiff._moduli(seqs[sname], phi, 1.0, [1.0, math.pi, 4.0], 128,
                                                              1e-12).tolist()):
            out[f"modulus|{gname}|{sname}|alpha=1.0|deltas=[1,pi,4]|delta={d}"] = v
    for a in [float(a) for a in range(40)] + [0.5, 1.5, 2.7, 11.5, 39.3]:
        for j in range(int(a) + 2 if a.is_integer() else 41):
            out[f"binom|alpha={a}|j={j}"] = fracdiff.binom(a, j)
    out.update(_cli_runs(seqs))
    out.update(_reader_errors())
    return out


_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan|Infinity|NaN)")


def _move(a, b):
    """Relative move from a to b: 0 when bit-identical or both nan, inf when only one is finite."""
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def _numbers(text):
    return [float(t) for t in _NUMBER.findall(text)]


def compare(a, b):
    """Print the comparison of two batteries; True when every entry is on both sides with the same value."""
    kinds = sorted({k.split("|")[0] for k in list(a) + list(b)})
    print(f"{'kind':<8} {'count A':>8} {'count B':>8} {'identical':>10} {'max rel move':>13}")
    notes = []
    for kind in kinds:
        ka = {k for k in a if k.startswith(kind + "|")}
        kb = {k for k in b if k.startswith(kind + "|")}
        shared = sorted(ka & kb)
        same = sum(json.dumps(a[k]) == json.dumps(b[k]) for k in shared)
        worst = 0.0
        for k in shared:
            va, vb = a[k], b[k]
            if isinstance(va, str):
                if va == vb:
                    continue
                na, nb = _numbers(va), _numbers(vb)
                if len(na) != len(nb):
                    worst = math.inf
                    notes.append(f"{k}: the count of printed numbers changed")
                    continue
                moved = sorted((_move(x, y), x, y) for x, y in zip(na, nb) if _move(x, y))
                worst = max([worst] + [r for r, _, _ in moved])
                shown = moved if len(moved) <= 4 else moved[-1:]
                notes.append(f"{k}: {len(moved)} of {len(na)} numbers moved"
                             + "".join(f"; {x!r} -> {y!r} ({r:.2g})" for r, x, y in shown))
            else:
                move = _move(float(va), float(vb))
                worst = max(worst, move)
                if (isinstance(va, int) and va != vb) or move == math.inf:
                    notes.append(f"{k}: {va} -> {vb}")
        print(f"{kind:<8} {len(ka):>8} {len(kb):>8} {same:>10} {worst:>13.3g}")
        notes += [f"only in A: {k}" for k in sorted(ka - kb)] + [f"only in B: {k}" for k in sorted(kb - ka)]
    for line in notes:
        print(line)
    return a.keys() == b.keys() and all(json.dumps(a[k]) == json.dumps(b[k]) for k in a)


def main(argv):
    if len(argv) == 1:
        Path(argv[0]).write_text(json.dumps(battery(), indent=0, sort_keys=True) + "\n", encoding="utf-8")
    elif len(argv) == 2:
        if not compare(*(json.loads(Path(p).read_text(encoding="utf-8")) for p in argv)):
            sys.exit(1)
    else:
        sys.exit(__doc__)


if __name__ == "__main__":
    main(sys.argv[1:])

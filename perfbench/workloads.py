"""Workloads of the orliczseq benchmark: inputs from a seed, operations, oracles.

A workload is a fixed list of operations built from the seed.  Each operation
is one call into orliczseq whose result has an exact ``repr`` (reports,
floats, tuples of them), so two runs can be compared byte for byte, and a
check that returns the problems it finds in that result.  Checks use a closed
form wherever one exists and otherwise invariants that hold for any seed.
Supports, bands and grids are fixed per workload, so the seed changes values
rather than the amount of work; only the sweep's random-sparse and random-band
members draw their own supports, which moves the sweep's gauge calls by a few
percent.

Every ``run`` takes a ``gauge`` function mapping a real gauge to the one to
call with; the traced pass passes the tracer's counting copy.
"""

from __future__ import annotations

import contextlib
import io
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from orliczseq import approx, cli, fracdiff, kfunc, orlicz, spectrum, verify
from orliczseq.spectrum import CoeffSeq

P2 = orlicz.power(2)
P3 = orlicz.power(3)
EXP = orlicz.exp_minus_one()
PLOG2 = orlicz.power_log(2)
GAUGE_NAMES = {P2: "power2", P3: "power3", EXP: "exp_minus_one", PLOG2: "power_log2"}

# Relative tolerance for comparisons against closed forms; the solvers work to
# 1e-12 relative, so anything above 1e-9 is a real error.
RTOL = 1e-9


@dataclass
class Op:
    name: str
    size: dict
    run: Callable
    check: Callable = field(repr=False)


@dataclass
class Workload:
    ops: list
    params: dict


# -- shared oracles ----------------------------------------------------------------


def _close(got, want, rtol=RTOL, atol=0.0):
    return abs(got - want) <= atol + rtol * abs(want)


def nonfinite(obj, path="result"):
    """Paths of non-finite floats anywhere in a nested result."""
    if isinstance(obj, float):
        return [] if math.isfinite(obj) else [f"{path} = {obj!r}"]
    if isinstance(obj, dict):
        return [p for k, v in obj.items() for p in nonfinite(v, f"{path}.{k}")]
    if isinstance(obj, (list, tuple)):
        return [p for i, v in enumerate(obj) for p in nonfinite(v, f"{path}[{i}]")]
    if isinstance(obj, verify.Report):
        return nonfinite(obj.to_dict(), path)
    if isinstance(obj, kfunc.KEstimate):
        return nonfinite(obj.value, f"{path}.value")
    return []


def _lp(f: CoeffSeq, p: float) -> float:
    """l_p norm, the closed form of the Luxemburg norm under power(p)."""
    _, cs = f.as_arrays()
    return math.fsum(np.abs(cs) ** p) ** (1.0 / p)


def _l2_tails(f: CoeffSeq, n_max: int) -> list:
    """E_n under power(2) for n = 1..n_max: the l2 norm of the |k| >= n tail."""
    ks, cs = f.as_arrays()
    return [math.sqrt(math.fsum(np.abs(cs[np.abs(ks) >= n]) ** 2)) for n in range(1, n_max + 1)]


def _unit(phi) -> float:
    """Norm of a single unit coefficient, 1 / M^{-1}(1), for the gauges used."""
    return 1.0 / math.log(2.0) if phi is EXP else 1.0


def _harmonic_modulus(k: int, delta: float, alpha: float, phi) -> float:
    return _unit(phi) * (2.0 * math.sin(min(abs(k) * delta, math.pi) / 2.0)) ** alpha


def _model(beta: float, band: int) -> CoeffSeq:
    """c_k = |k|**(-beta - 1/2) on 0 < |k| <= band, the rates/classify family."""
    ks = np.arange(1, band + 1)
    mags = ks.astype(float) ** (-beta - 0.5)
    return CoeffSeq(zip(np.concatenate([ks, -ks]).tolist(), np.concatenate([mags, mags]).tolist()))


def _random_band(rng, band: int, decay: float = 0.0) -> CoeffSeq:
    """Full band |k| <= band with magnitudes (1+|k|)**-decay * U[1/2, 3/2) and random phases."""
    ks = np.arange(-band, band + 1)
    mags = (1.0 + np.abs(ks)) ** -decay * rng.uniform(0.5, 1.5, ks.size)
    return CoeffSeq(zip(ks.tolist(), (mags * np.exp(2j * np.pi * rng.uniform(size=ks.size))).tolist()))


def _run_cli(argv):
    """One in-process CLI call: (exit code, stdout, text of --output or None)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    out = None
    if "--output" in argv:
        out = Path(argv[argv.index("--output") + 1]).read_text(encoding="utf-8")
    return code, buf.getvalue(), out


def _cli_value(value: float) -> str:
    """How the CLI prints a scalar (11 significant digits)."""
    return repr(float(f"{float(value):.11g}")) + "\n"


# -- sweep -------------------------------------------------------------------------------


def _sweep_member(label: str, members: dict):
    if label.startswith("harmonic k="):
        k = int(label[len("harmonic k="):])
        return CoeffSeq({k: 1.0}), k
    return members[label], None


def _check_sweep(kind, members, phi, alpha, n_expected, rep):
    problems = []
    rows = {}
    for s in rep.samples:
        label, sep, n = s["descriptor"].rpartition(" n=")
        if sep:
            rows.setdefault(label, []).append((int(n), s["lhs"], s["rhs"]))
    if len(rep.samples) != n_expected:
        problems.append(f"{len(rep.samples)} samples, expected {n_expected}")
    for label, vals in rows.items():
        f, k = _sweep_member(label, members)
        cap = 2.0 ** math.ceil(alpha) * orlicz.luxemburg_norm(phi, f) * (1.0 + RTOL)
        tails = _l2_tails(f, max(n for n, _, _ in vals)) if phi is P2 else None
        prev = math.inf
        for n, lhs, rhs in vals:
            where = f"{label} n={n}"
            omega = rhs if kind == "direct" else lhs
            if not 0.0 < omega <= cap:
                problems.append(f"{where}: modulus {omega!r} outside (0, 2^ceil(alpha) ||f||]")
            if k is not None and not _close(omega, _harmonic_modulus(k, 1.0 / n, alpha, phi)):
                problems.append(f"{where}: modulus {omega!r} misses the single-harmonic closed form")
            if kind == "direct":
                e = lhs
                if e > prev * (1.0 + 1e-12):
                    problems.append(f"{where}: E_n {e!r} increased")
                prev = e
                if tails is not None and not _close(e, tails[n - 1], atol=1e-300):
                    problems.append(f"{where}: E_n {e!r} != l2 tail {tails[n - 1]!r}")
                if k is not None and not _close(e, _unit(phi) * (n <= abs(k))):
                    problems.append(f"{where}: E_n {e!r} misses the single-harmonic closed form")
            else:
                denom = rhs
                want = None
                if tails is not None:
                    want = math.fsum(v ** (alpha - 1.0) * tails[v - 1] for v in range(1, n + 1)) / n ** alpha
                elif k is not None and alpha == 1.0:
                    want = _unit(phi) * min(n, abs(k)) / n
                if not denom > 0.0 or (want is not None and not _close(denom, want)):
                    problems.append(f"{where}: weighted E sum {denom!r}, expected {want!r}")
    return problems


def sweep(seed: int, tiny: bool, workdir: Path) -> Workload:
    """Direct and inverse reports over the four families under power(2) and exp_minus_one."""
    n_max, num_funcs, grid, cli_n_max = (2, 1, 16, 1) if tiny else (128, 1, 64, 1)
    alpha = 1.0
    ops = []
    for family in verify.list_families():
        rng = np.random.default_rng(seed)
        gen = verify.generator(family)
        members = {f"{family}[{i}]": gen(rng) for i in range(num_funcs)}
        n_members = 4 + num_funcs  # the four single-harmonic probes come first
        n_points = len(np.unique(np.geomspace(1, n_max, num=10).astype(int)))
        size = {"members": n_members, "max_support": max(len(f) for f in members.values()),
                "n_max": n_max, "grid": grid}
        for phi in (P2, EXP):
            for kind in ("direct", "inverse"):
                ops.append(Op(
                    f"{kind} {family} {GAUGE_NAMES[phi]}", size,
                    lambda g, kind=kind, family=family, phi=phi: getattr(verify, f"{kind}_report")(
                        family, alpha, g(phi), n_max=n_max, num_funcs=num_funcs, seed=seed, grid=grid),
                    lambda rep, kind=kind, members=members, phi=phi: _check_sweep(
                        kind, members, phi, alpha, n_members * n_points + 1, rep)))
    argv = ["verify", "inverse", "--alpha", "1", "--family", "random-band", "--seed", str(seed),
            "--n-max", str(cli_n_max), "--grid", str(grid)]

    def check_cli(out):
        want = verify.inverse_report("random-band", alpha, P2, n_max=cli_n_max, num_funcs=16,
                                     seed=seed, grid=grid).to_json()
        return [] if out == (0, want, None) else [f"CLI verify output differs from the API report: {out[:2]!r}"]

    ops.append(Op("cli verify inverse random-band", {"members": 20, "n_max": cli_n_max, "grid": grid},
                  lambda g: _run_cli(argv), check_cli))
    return Workload(ops, {"alpha": alpha, "n_max": n_max, "num_funcs": num_funcs, "grid": grid})


# -- kfunc -------------------------------------------------------------------------------


def _l2_scan(f: CoeffSeq, alpha: float, delta: float) -> float:
    """Closed form of the K scan under power(2): min over partial sums of l2 terms."""
    ks, cs = f.as_arrays()
    absk, a2 = np.abs(ks), np.abs(cs) ** 2
    best = math.sqrt(math.fsum(a2))
    for m in sorted(set(absk.tolist()) | {0}):
        inside = absk <= m
        val = (math.sqrt(math.fsum(a2[~inside]))
               + delta ** alpha * math.sqrt(math.fsum((absk[inside] ** (2 * alpha)) * a2[inside])))
        best = min(best, val)
    return best


def _check_k(f, phi, alpha, delta, band, polish, est):
    problems = []
    norm = orlicz.luxemburg_norm(phi, f)
    if not 0.0 <= est.value <= norm:
        problems.append(f"K {est.value!r} outside [0, ||f|| = {norm!r}]")
    if not -1 <= est.minimizer_degree <= band or est.candidates_tried != band + 2:
        problems.append(f"degree {est.minimizer_degree}, {est.candidates_tried} candidates for band {band}")
    scan = kfunc.k_functional(f, phi, alpha, delta, polish=False) if polish else est
    if est.value > scan.value:
        problems.append(f"polished K {est.value!r} above its scan value {scan.value!r}")
    if est.refine_used != (polish and scan.minimizer_degree >= 0):
        problems.append(f"refine_used is {est.refine_used}")
    if phi is P2 and not _close(scan.value, _l2_scan(f, alpha, delta)):
        problems.append(f"scan K {scan.value!r} != l2 closed form {_l2_scan(f, alpha, delta)!r}")
    return problems


def kfunc_workload(seed: int, tiny: bool, workdir: Path) -> Workload:
    """K-functional scans at bands 8-128 and the coordinate polish at band 8."""
    bands, polish_band = ((2, 4), 2) if tiny else ((8, 16, 32, 64, 128), 8)
    alpha = 1.0
    rng = np.random.default_rng(seed)
    ops = []
    for band in bands:
        f = _random_band(rng, band)
        # a scale this small makes the full band the scan winner for every draw,
        # so the polish always works on 2*band+1 coordinates
        delta = 1.0 / (8 * band)
        for phi in (P2, EXP, PLOG2):
            for polish in (False, True) if band == polish_band else (False,):
                ops.append(Op(
                    f"k_functional band={band} {GAUGE_NAMES[phi]} polish={polish}",
                    {"support": len(f), "band": band},
                    lambda g, f=f, phi=phi, delta=delta, polish=polish: kfunc.k_functional(
                        f, g(phi), alpha, delta, polish=polish),
                    lambda est, f=f, phi=phi, delta=delta, band=band, polish=polish: _check_k(
                        f, phi, alpha, delta, band, polish, est)))
    for k in (1, 3, 16, 64):
        delta = float(np.exp(rng.uniform(math.log(1e-3), math.log(2.0))))
        want = min(1.0, delta * k)
        for polish in (False, True):
            ops.append(Op(
                f"k_functional harmonic k={k} polish={polish}", {"support": 1, "band": k},
                lambda g, k=k, delta=delta, polish=polish: kfunc.k_functional(
                    CoeffSeq({k: 1.0}), g(P2), alpha, delta, polish=polish),
                lambda est, want=want: [] if _close(est.value, want) else
                [f"K {est.value!r} != min(1, delta*k) = {want!r}"]))
    f_cli = _random_band(rng, polish_band)
    path = workdir / "kfunc_input.jsonl"
    spectrum.write_coeffs(f_cli, path)
    delta = 1.0 / (8 * polish_band)
    argv = ["kfunc", "--alpha", "1", "--delta", repr(delta), "--n", "1", "--input", str(path)]

    def check_cli(out):
        est = kfunc.k_functional(spectrum.read_coeffs(path), P2, alpha, delta, 1)
        want = verify.format_json({"value": est.value, "minimizer_degree": est.minimizer_degree,
                                   "candidates_tried": est.candidates_tried,
                                   "refine_used": est.refine_used}) + "\n"
        return [] if out == (0, want, None) else [f"CLI kfunc output differs from the API: {out!r}"]

    ops.append(Op("cli kfunc --n 1", {"support": len(f_cli), "band": 1}, lambda g: _run_cli(argv), check_cli))
    return Workload(ops, {"alpha": alpha, "bands": list(bands), "polish_band": polish_band})


# -- wideband ----------------------------------------------------------------------------


def wideband(seed: int, tiny: bool, workdir: Path) -> Workload:
    """Desk-scale spectra up to |k| <= 4096, sample analysis, Jackson means and file I/O."""
    band, n_samples, n_en, rates_band, class_band, class_n_max, grid, delta = (
        (64, 65, 4, 64, 64, 8, 16, 0.05) if tiny else (4096, 4097, 32, 4096, 1024, 128, 64, 0.01))
    alpha = 1.0
    rng = np.random.default_rng(seed)
    f = _random_band(rng, band, decay=1.0)
    size = {"support": len(f), "band": band}
    ops = []

    for phi in (P2, P3, EXP):
        want = _lp(f, phi.param) if phi.name == "power" else None
        ops.append(Op(
            f"luxemburg_norm {GAUGE_NAMES[phi]}", size,
            lambda g, phi=phi: orlicz.luxemburg_norm(g(phi), f),
            lambda v, want=want: [] if want is None or _close(v, want) else
            [f"norm {v!r} != l_p closed form {want!r}"]))
        ops.append(Op(
            f"orlicz_norm {GAUGE_NAMES[phi]}", size,
            lambda g, phi=phi: orlicz.orlicz_norm(g(phi), f),
            lambda v, phi=phi: check_dual(v, phi)))

    def check_dual(v, phi):
        ratio = v / orlicz.luxemburg_norm(phi, f)
        return [] if 1.0 - RTOL <= ratio <= 2.0 + RTOL else [f"dual/primal ratio {ratio!r} outside [1, 2]"]

    def check_modulus(v, phi):
        norm = orlicz.luxemburg_norm(phi, f)
        at_delta = orlicz.luxemburg_norm(phi, fracdiff.frac_difference(f, alpha, delta))
        if at_delta * (1.0 - RTOL) <= v <= 2.0 ** math.ceil(alpha) * norm * (1.0 + RTOL):
            return []
        return [f"modulus {v!r} outside [||difference at delta|| = {at_delta!r}, 2^ceil(alpha) ||f||]"]

    def check_en(errors, phi):
        problems = [f"E_{n + 2} {b!r} > E_{n + 1} {a!r}" for n, (a, b) in enumerate(zip(errors, errors[1:]))
                    if b > a * (1.0 + 1e-12)]
        if phi is P2:
            tails = _l2_tails(f, n_en)
            problems += [f"E_{n} {e!r} != l2 tail {t!r}" for n, (e, t) in enumerate(zip(errors, tails), 1)
                         if not _close(e, t)]
        return problems

    for phi in (P2, EXP):
        ops.append(Op(
            f"modulus {GAUGE_NAMES[phi]}", {**size, "grid": grid},
            lambda g, phi=phi: fracdiff.modulus(f, g(phi), alpha, delta, grid=grid),
            lambda v, phi=phi: check_modulus(v, phi)))
        ops.append(Op(
            f"best_approx n=1..{n_en} {GAUGE_NAMES[phi]}", {**size, "n_max": n_en},
            lambda g, phi=phi: [approx.best_approx(f, g(phi), n) for n in range(1, n_en + 1)],
            lambda errors, phi=phi: check_en(errors, phi)))

    # rates: the fitted modulus slope must be min(alpha, beta) (the paper's transfer theorem)
    beta = float(rng.choice([0.5, 1.5, 2.0]))
    ops.append(Op(
        f"rates_report beta={beta}", {"support": 2 * rates_band, "band": rates_band, "grid": grid},
        lambda g: verify.rates_report(beta, alpha, g(P2), band=rates_band, j_min=3, j_max=7, grid=grid),
        lambda rep: [] if rep.passed and abs(rep.empirical_constant - min(alpha, beta)) <= 0.15 else
        [f"rates verdict {rep.passed}, slope {rep.empirical_constant!r}, expected {min(alpha, beta)}"]))

    # classify: in class exactly when the majorant exponent r is at most beta
    c_beta, c_r = (float(v) for v in rng.choice([0.5, 1.0, 1.5], size=2))
    model = _model(c_beta, class_band)
    ops.append(Op(
        f"classify beta={c_beta} r={c_r}",
        {"support": len(model), "band": class_band, "n_max": class_n_max, "grid": grid},
        lambda g: verify.classify(model, g(P2), verify.MajorantOmega.power(c_r), 2.0,
                                  n_max=class_n_max, grid=grid),
        lambda rep: [] if rep.passed == (c_r <= c_beta) and
        rep.params["en_direction_ok"] == rep.params["omega_direction_ok"] else
        [f"classify verdict {rep.passed} for r={c_r}, beta={c_beta}"]))

    # analyze_samples: synthesis of a known polynomial inside the alias-free band
    half = (n_samples - 1) // 2
    poly = rng.standard_normal(2 * half + 1) + 1j * rng.standard_normal(2 * half + 1)
    grid_coeffs = np.zeros(n_samples, dtype=complex)
    grid_coeffs[np.arange(-half, half + 1) % n_samples] = poly
    samples = np.fft.ifft(grid_coeffs) * n_samples

    def check_analysis(items):
        got = np.array([c for _, c in items])
        ks = [k for k, _ in items]
        err = float(np.max(np.abs(got - poly))) if ks == list(range(-half, half + 1)) else math.inf
        return [] if err <= 1e-9 * float(np.max(np.abs(poly))) else [f"synthesis round trip error {err!r}"]

    ops.append(Op(f"analyze_samples N={n_samples}", {"samples": n_samples},
                  lambda g: spectrum.analyze_samples(samples).items(), check_analysis))

    # Jackson mean: annihilates |k| >= n, keeps the mean value, and its kernel has unit mass
    def check_jackson(items, n):
        spec, kern = approx.jackson_kernel(n - 1, r=2)
        problems = [f"mean has k = {k} outside |k| < {n}" for k, _ in items if abs(k) >= n][:1]
        if dict(items).get(0, 0j) != f[0]:
            problems.append("mean changes the k = 0 coefficient")
        if not (_close(2.0 * math.pi * kern[0].real, 1.0, 1e-12) and
                _close(approx.kernel_moment(spec, 0), 1.0)):
            problems.append("Jackson kernel does not have unit mass")
        return problems

    ops.append(Op(f"jackson_approximant n={band}", {**size, "n": band},
                  lambda g: approx.jackson_approximant(f, 2, band).items(),
                  lambda items: check_jackson(items, band)))

    # coefficient-file round trip through the CLI
    path, sig_path = workdir / "wide.jsonl", workdir / "sigma.jsonl"
    sig_n = max(band // 4, 2)
    expected = {}

    def cli_expectations():
        if not expected:
            sig = approx.jackson_approximant(f, 2, sig_n)
            buf = io.StringIO()
            spectrum.write_coeffs(sig, buf)
            expected.update({
                "norm": (0, _cli_value(orlicz.luxemburg_norm(P2, f)), None),
                "onorm": (0, _cli_value(orlicz.orlicz_norm(P2, f)), None),
                "omega": (0, _cli_value(fracdiff.modulus(f, P2, alpha, delta, grid=grid)), None),
                "sigma": (0, _cli_value(orlicz.luxemburg_norm(P2, f - sig)), buf.getvalue()),
            })
        return expected

    ops.append(Op(f"write_coeffs entries={len(f)}", size,
                  lambda g: spectrum.write_coeffs(f, path), lambda out: []))
    for cmd, extra in (("norm", []), ("onorm", []),
                       ("omega", ["--alpha", "1", "--delta", repr(delta), "--grid", str(grid)]),
                       ("sigma", ["--alpha", "2", "--n", str(sig_n), "--output", str(sig_path)])):
        argv = [cmd, *extra, "--input", str(path)]
        ops.append(Op(f"cli {cmd}", size, lambda g, argv=argv: _run_cli(argv),
                      lambda out, cmd=cmd: [] if out == cli_expectations()[cmd] else
                      [f"CLI {cmd} output {out[:2]!r} differs from the API"]))
    ops.append(Op(f"read_coeffs entries={len(f)}", size,
                  lambda g: spectrum.read_coeffs(path).items(),
                  lambda items: [] if items == f.items() else ["file round trip changed the sequence"]))
    return Workload(ops, {"alpha": alpha, "band": band, "delta": delta, "grid": grid,
                          "rates_beta": beta, "classify_beta": c_beta, "classify_r": c_r})


WORKLOADS = {"sweep": sweep, "kfunc": kfunc_workload, "wideband": wideband}


def build(name: str, seed: int, tiny: bool, workdir: Path) -> Workload:
    """The named workload's operations for this seed; tiny sizes serve the smoke test."""
    return WORKLOADS[name](seed, tiny, workdir)

"""Inequality sweeps, rate measurements, and the smoothness classifier.

Asymptotic O(.) claims are operationalized as bounded-ratio tests: a sweep
collects the ratio of the two sides over a deterministic seeded family and
passes when the ratios are finite, their running supremum stabilizes, and no
systematic growth is detected.  Every report is reproducible from
(name, params, seed) and serializes to JSON (floats at 17 significant
digits) or CSV.
"""

import csv
import io
import json
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .fracdiff import _moduli
from .kfunc import _k_functionals
from .orlicz import OrliczFunction, _window_norms
from .spectrum import CoeffSeq

__all__ = [
    "Report",
    "format_json",
    "MajorantOmega",
    "balpha_check",
    "classify",
    "rates_report",
    "direct_report",
    "inverse_report",
    "equivalence_report",
    "generator",
    "list_families",
]


# -- deterministic JSON ---------------------------------------------------------


def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def format_json(obj, indent=0) -> str:
    """Deterministic JSON with floats printed at 17 significant digits."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        rows = [
            f'{pad}  {format_json(str(k))}: {format_json(v, indent + 1)}' for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(rows) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        rows = [f"{pad}  {format_json(v, indent + 1)}" for v in obj]
        return "[\n" + ",\n".join(rows) + "\n" + pad + "]"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if obj is None:
        return "null"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


# -- reports ----------------------------------------------------------------------


@dataclass
class Report:
    """Outcome of one verification sweep.

    Every sample row carries its own inequality as (lhs, rhs, ratio, ok);
    aggregate verdicts (stabilization, growth fits) are appended as summary
    rows so that passed is literally `all(ok for sample in samples)`.
    """

    name: str
    params: dict
    tolerance: float
    samples: list = field(default_factory=list)
    empirical_constant: float = 0.0
    passed: bool = True

    def add(self, descriptor: str, lhs: float, rhs: float, ratio: float, ok: bool) -> None:
        self.samples.append(
            {"descriptor": descriptor, "lhs": float(lhs), "rhs": float(rhs),
             "ratio": float(ratio), "ok": bool(ok)}
        )

    def finalize(self) -> "Report":
        self.passed = all(s["ok"] for s in self.samples)
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return format_json(self.to_dict()) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(f"# name: {self.name}\n")
        for k, v in self.params.items():
            buf.write(f"# {k}: {v}\n")
        buf.write(f"# empirical_constant: {_fmt_float(self.empirical_constant)}\n")
        buf.write(f"# passed: {self.passed}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["descriptor", "lhs", "rhs", "ratio", "ok"])
        for s in self.samples:
            writer.writerow(
                [s["descriptor"], format(s["lhs"], ".17g"), format(s["rhs"], ".17g"),
                 format(s["ratio"], ".17g"), s["ok"]]
            )
        return buf.getvalue()


# -- boundedness heuristics ---------------------------------------------------------


def _running_sup_stabilizes(ratios):
    """True when the last quarter of the finite samples lifts the running sup by at most 5%."""
    vals = [r for r in ratios if math.isfinite(r)]
    if len(vals) < 4:
        return True, (vals and max(vals) or 0.0), (vals and max(vals) or 0.0)
    sup_early = max(vals[: math.ceil(len(vals) * 0.75)])
    sup_all = max(vals)
    return sup_early >= 0.95 * sup_all, sup_early, sup_all


def _trailing_slope(xs, ys, last_fraction=0.5, *, log_y=True):
    """Least-squares slope of log y against log x over the trailing points.

    With log_y false the fit is of y itself against log x, which flags
    logarithmic divergence.
    """
    pairs = [(x, y) for x, y in zip(xs, ys)
             if x > 0 and math.isfinite(y) and (y > 0 or not log_y)]
    pairs = pairs[int(len(pairs) * (1.0 - last_fraction)):]
    if len(pairs) < 3:
        return 0.0
    lx = np.log([p[0] for p in pairs])
    y = [p[1] for p in pairs]
    return float(np.polyfit(lx, np.log(y) if log_y else np.array(y), 1)[0])


def _log_orders(n_max, num):
    """Distinct integer parts of num log-spaced points on [1, n_max]."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    return sorted(set(np.geomspace(1, n_max, num=num).astype(int).tolist()))  # np.unique imports numpy.ma


# -- majorants ------------------------------------------------------------------------


class MajorantOmega:
    """A modulus majorant on [0, 1]: continuous, nondecreasing, positive, vanishing at 0.

    Rules: power(r) is delta**r; power_log(r) is delta**r * (1 - r*log(delta)),
    which is nondecreasing on (0, 1] and carries the logarithmic correction;
    from_table interpolates an explicit table linearly.
    """

    def __init__(self, name, evaluator, params=None):
        self.name = name
        self.params = dict(params or {})
        self._eval = evaluator

    def __call__(self, d: float) -> float:
        d = float(d)
        if d < 0 or d > 1 + 1e-12:
            raise ValueError("majorant is defined on [0, 1]")
        return float(self._eval(d))

    @classmethod
    def power(cls, r: float) -> "MajorantOmega":
        if not r > 0:
            raise ValueError("exponent must be positive")
        return cls("power", lambda d: d ** r, {"r": float(r)})

    @classmethod
    def power_log(cls, r: float) -> "MajorantOmega":
        if not r > 0:
            raise ValueError("exponent must be positive")
        return cls(
            "power_log",
            lambda d: d ** r * (1.0 - r * math.log(d)) if d > 0 else 0.0,
            {"r": float(r)},
        )

    @classmethod
    def from_table(cls, points) -> "MajorantOmega":
        pts = sorted((float(x), float(y)) for x, y in points)
        if not pts or pts[0][0] > 0.0:
            pts = [(0.0, 0.0)] + pts
        xs, ys = np.array(pts).T
        if xs[-1] < 1.0:
            raise ValueError("table must cover [0, 1]")
        return cls("table", lambda d: float(np.interp(d, xs, ys)), {"points": len(pts)})

    def validate(self) -> None:
        """Checks of the four majorant conditions on 257 evenly spaced points of [0, 1]; raises on failure.

        Continuity is operationalized as "no adjacent jump above a quarter of
        the total range"; the vanishing limit as omega(0) = 0 together with
        monotone decrease toward it.
        """
        xs = np.linspace(0.0, 1.0, 257)
        ys = np.array([self(x) for x in xs])
        if ys[0] != 0.0:
            raise ValueError("majorant must vanish at 0")
        if np.any(np.diff(ys) < -1e-12 * max(ys[-1], 1.0)):
            raise ValueError("majorant must be nondecreasing")
        if np.any(ys[1:] <= 0.0):
            raise ValueError("majorant must be positive on (0, 1]")
        spread = ys[-1] - ys[0]
        if spread > 0 and float(np.max(np.diff(ys))) > 0.25 * spread:
            raise ValueError("majorant jumps too much between grid points to pass as continuous")

    def spec_dict(self) -> dict:
        return {"rule": self.name, **self.params}


# -- seeded families -------------------------------------------------------------------


def _normal_coeffs(rng, ks) -> CoeffSeq:
    """Standard complex normal coefficients on the support ks."""
    return CoeffSeq.from_arrays(ks, rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size))


def _gen_sparse(rng) -> CoeffSeq:
    """Support: 1..12 frequencies drawn without replacement from |k| <= 64;
    coefficients: standard complex normal.  Resamples until some k != 0 exists."""
    while True:
        m = int(rng.integers(1, 13))
        ks = rng.choice(np.arange(-64, 65), size=m, replace=False)
        if np.any(ks != 0):
            return _normal_coeffs(rng, ks)


def _gen_band(rng) -> CoeffSeq:
    """Support: the full band |k| <= B with B drawn in 8..24; coefficients:
    standard complex normal."""
    b = int(rng.integers(8, 25))
    return _normal_coeffs(rng, np.arange(-b, b + 1))


def _gen_lacunary(rng) -> CoeffSeq:
    """Support: +-2**j for j = 0..6; coefficients: standard complex normal."""
    return _normal_coeffs(rng, np.concatenate([2 ** np.arange(7), -(2 ** np.arange(7))]))


def _gen_poly_decay(rng) -> CoeffSeq:
    """Support: 0 < |k| <= 64; coefficients |k|**(-gamma - 1/2) with random
    phase and gamma drawn uniformly in [1/2, 2]."""
    gamma = float(rng.uniform(0.5, 2.0))
    ks = np.concatenate([np.arange(1, 65), -np.arange(1, 65)])
    mags = np.abs(ks).astype(float) ** (-gamma - 0.5)
    phases = np.exp(2j * np.pi * rng.uniform(size=ks.size))
    return CoeffSeq.from_arrays(ks, mags * phases)


_FAMILIES = {
    "random-sparse": _gen_sparse,
    "random-band": _gen_band,
    "lacunary": _gen_lacunary,
    "poly-decay": _gen_poly_decay,
}


def list_families():
    return sorted(_FAMILIES)


def generator(family: str):
    try:
        return _FAMILIES[family]
    except KeyError:
        raise ValueError(f"unknown family {family!r}; known: {list_families()}") from None


# -- majorant partial-sum regularity ------------------------------------------------------


def balpha_check(omega: MajorantOmega, alpha: float, n_max: int) -> Report:
    """Partial-sum regularity of a majorant: sum_{v<=n} v**(alpha-1) omega(1/v)
    must stay O(n**alpha omega(1/n)).

    The ratio sequence q_n is reported in full (thinned for huge n_max).  The
    verdict combines max <= 10 * median with a semilog growth fit, because a
    logarithmically divergent q_n (the flagship failure case) has
    max / median -> 1 at every finite n_max and only the growth fit sees it.
    """
    if not alpha > 0:
        raise ValueError("alpha must be positive")
    if n_max < 2:
        raise ValueError("need n_max >= 2")
    omega.validate()
    ns = np.arange(1, n_max + 1)
    w = np.array([omega(1.0 / n) for n in ns])
    partial = np.cumsum(ns.astype(float) ** (alpha - 1.0) * w)
    denom = ns.astype(float) ** alpha * w
    q = partial / denom
    med = float(np.median(q))
    qmax = float(np.max(q))
    growth = _trailing_slope(ns.tolist(), q.tolist(), log_y=False)

    report = Report(
        name="balpha",
        params={"omega": omega.spec_dict(), "alpha": float(alpha), "n_max": int(n_max),
                "median": med, "max": qmax, "growth_per_efold": growth},
        tolerance=10.0,
    )
    keep = set(_log_orders(n_max, min(n_max, 96)))
    keep.add(int(ns[np.argmax(q)]))
    for n, qn in zip(ns.tolist(), q.tolist()):
        if n in keep:
            report.add(f"n={n}", partial[n - 1], denom[n - 1], qn, qn <= 10.0 * med)
    report.add("growth-per-efold", growth, 0.05 * med, growth / (0.05 * med) if med else 0.0,
               growth <= 0.05 * med)
    report.empirical_constant = qmax
    return report.finalize()


# -- classifier -------------------------------------------------------------------------


def classify(f_or_errors, phi: OrliczFunction, omega: MajorantOmega, alpha: float,
             n_max: int = 256, *, grid: int = 128, rtol: float = 1e-12) -> Report:
    """Membership test for the class of sequences with alpha-modulus O(omega).

    Checks both characterizations at once: sup_n E_n / omega(1/n) over
    n <= n_max, and sup over 9 log-spaced deltas in [1/n_max, 1] of the modulus against
    omega(delta).  Passing requires both ratio families bounded (max within
    10x median, trailing log-log growth below 0.15).  Accepts either a
    coefficient sequence or a precomputed E_n array (then the modulus
    direction is skipped).  The majorant must satisfy the four grid
    conditions and the partial-sum regularity for this alpha.
    """
    ba = balpha_check(omega, alpha, max(int(n_max), 256))
    if not ba.passed:
        raise ValueError("majorant fails partial-sum regularity for this alpha")

    if isinstance(f_or_errors, CoeffSeq):
        f, errors = f_or_errors, None
    else:
        f, errors = None, [float(e) for e in f_or_errors]
        n_max = len(errors)
    if n_max < 1:  # before any solve
        raise ValueError("need n_max >= 1")
    if f is not None:
        errors = _window_norms(f, phi, np.arange(1, n_max + 1), np.inf, rtol).tolist()
    ns = list(range(1, n_max + 1))
    ratios_e = [e / omega(1.0 / n) for n, e in zip(ns, errors)]

    report = Report(
        name="classify",
        params={"omega": omega.spec_dict(), "alpha": float(alpha), "n_max": int(n_max),
                "orlicz": phi.spec_dict(), "grid": int(grid),
                "band": (f.max_freq if f is not None else None)},
        tolerance=0.15,
    )

    # Boundedness here means "no systematic growth": decaying ratios are in
    # class, so the verdict rests on the trailing log-log slope, not on the
    # spread between max and median.
    slope_e = _trailing_slope(ns, ratios_e)
    keep = set(_log_orders(n_max, min(n_max, 64)))
    for n, e, r in zip(ns, errors, ratios_e):
        if n in keep:
            report.add(f"En n={n}", e, omega(1.0 / n), r, math.isfinite(r))
    e_ok = all(math.isfinite(r) for r in ratios_e) and slope_e <= 0.15
    report.add("En-growth", slope_e, 0.15, slope_e / 0.15, slope_e <= 0.15)

    omega_ok = True
    if f is not None:
        deltas = np.geomspace(1.0 / n_max, 1.0, 9)
        ratios_w = []
        for d, w in zip(deltas, _moduli(f, phi, alpha, deltas, grid, rtol).tolist()):
            r = w / omega(float(d))
            ratios_w.append(r)
            report.add(f"omega delta={d:.6g}", w, omega(float(d)), r, math.isfinite(r))
        slope_w = _trailing_slope([1.0 / d for d in deltas][::-1], ratios_w[::-1])
        omega_ok = all(math.isfinite(r) for r in ratios_w) and slope_w <= 0.15
        report.add("omega-growth", slope_w, 0.15, slope_w / 0.15, slope_w <= 0.15)
        # The two characterizations must agree; a split verdict is a counterexample
        # worth failing loudly on.
        report.add("directions-consistent", float(e_ok), float(omega_ok), 1.0 if e_ok == omega_ok else 0.0,
                   (not e_ok) or omega_ok)

    report.params["en_direction_ok"] = bool(e_ok)
    report.params["omega_direction_ok"] = bool(omega_ok)
    report.empirical_constant = float(max(ratios_e)) if ratios_e else 0.0
    return report.finalize()


# -- decay-rate transfer ---------------------------------------------------------------------


def rates_report(beta: float, alpha: float, phi: OrliczFunction, band: int = 4096,
                 *, j_min: int = 3, j_max: int = 12, grid: int = 128, rtol: float = 1e-12) -> Report:
    """Modulus decay for the model sequence c_k = |k|**(-beta - 1/2).

    Under the quadratic gauge the tail norm is an explicit sum, so E_n for
    this family decays like n**(-beta) by integral comparison; the measured
    alpha-modulus must then follow t**min(alpha, beta), with an extra |log t|
    factor at beta = alpha.  Slopes are fitted on log-log points t = 2**-j.
    For gauges other than power(2) the measurement runs but no slope is
    asserted (no closed-form tail available).
    """
    if not beta > 0 or not alpha > 0:
        raise ValueError("exponents must be positive")
    if band < 64:
        raise ValueError("band must be at least 64")
    ks = np.arange(1, band + 1)
    mags = ks.astype(float) ** (-beta - 0.5)
    f = CoeffSeq.from_arrays(np.concatenate([ks, -ks]), np.concatenate([mags, mags]))

    quadratic = phi.name == "power" and phi.param == 2.0
    ts = [2.0 ** (-j) for j in range(j_min, j_max + 1)]
    omegas = _moduli(f, phi, alpha, ts, grid, rtol).tolist()

    report = Report(
        name="rates",
        params={"beta": float(beta), "alpha": float(alpha), "band": int(band),
                "orlicz": phi.spec_dict(), "j_min": int(j_min), "j_max": int(j_max),
                "grid": int(grid), "slope_asserted": bool(quadratic)},
        tolerance=0.15,
    )
    for t, w in zip(ts, omegas):
        report.add(f"t={t:.6g}", w, t ** min(alpha, beta), w / t ** min(alpha, beta), True)

    if not quadratic:
        return report.finalize()

    if beta != alpha:
        expected = min(alpha, beta)
        slope = -_trailing_slope([1.0 / t for t in ts], omegas, last_fraction=1.0)
        report.add("slope", slope, expected, slope / expected, abs(slope - expected) <= 0.15)
        report.empirical_constant = slope
    else:
        corrected = [w / (t ** alpha * abs(math.log(t))) for t, w in zip(ts, omegas)]
        spread = max(corrected) / min(corrected)
        report.add("log-corrected-spread", max(corrected), min(corrected), spread, spread <= 3.0)
        report.empirical_constant = spread
    return report.finalize()


# -- inequality sweeps ------------------------------------------------------------------------


# Deterministic near-extremal members swept ahead of the random draws: single
# harmonics drive the ratio constants close to their essential suprema, so
# anchoring them first makes the running-sup stabilization a property of the
# family rather than of the draw order.  For the direct comparison the
# extremal ratio is (2 sin 1/2)**-alpha at n equal to the frequency; for the
# inverse comparison the envelope 2**alpha n**alpha / sum(nu**(alpha-1)) is
# attained while n <= k/pi, so the band-edge harmonic k = 64 dominates every
# draw whose spectrum stays inside |k| <= 64.
_PROBES = [(f"harmonic k={k}", CoeffSeq({k: 1.0})) for k in (1, 3, 16, 64)]


def _sweep(name, params, suffixes, ok, rows):
    """Build a sweep's report: the rows of every member, none skipped, then the stabilization row.

    The members are the probes, then params["num_funcs"] draws of params["family"] at
    params["seed"].  rows(fs) gets every member at once and returns their lhs and rhs values, one row
    per member aligned with suffixes; the sample's ratio is lhs / rhs in IEEE arithmetic, so a zero
    rhs gives inf or nan, and ok(ratio) is its verdict.  Every probe and draw has a nonzero
    frequency.  The tolerance 0.05 is the stabilization bound: the last quarter may lift the running
    sup by under 5%.  Sets the empirical constant to the running sup and returns (report, ratios),
    for the caller to finalize.
    """
    report = Report(name=name, params=params, tolerance=0.05)
    family = params["family"]
    gen, rng = generator(family), np.random.default_rng(params["seed"])
    members = _PROBES + [(f"{family}[{i}]", gen(rng)) for i in range(params["num_funcs"])]
    ratios = []
    for (label, _), *row in zip(members, *rows([f for _, f in members])):
        for suffix, lhs, rhs in zip(suffixes, *row):
            with np.errstate(divide="ignore", invalid="ignore"):
                ratios.append(float(np.float64(lhs) / rhs))
            report.add(f"{label} {suffix}", lhs, rhs, ratios[-1], ok(ratios[-1]))
    ok, sup_early, sup_all = _running_sup_stabilizes(ratios)
    report.add("stabilization", sup_early, 0.95 * sup_all, sup_early / sup_all if sup_all else 1.0, ok)
    report.empirical_constant = sup_all
    return report, ratios


def direct_report(family: str, alpha: float, phi: OrliczFunction, *, n_max: int = 128,
                  num_funcs: int = 16, seed: int = 0, grid: int = 64, rtol: float = 1e-12) -> Report:
    """Empirical constant for E_n against the alpha-modulus at scale 1/n.

    Sweeps fixed single-harmonic probes followed by a seeded family and
    records sup E_n(f) / omega_alpha(f, 1/n); the claim verified is that the
    constant is finite and the running sup stabilizes (the last quarter of
    the samples changes it by under 5%).
    """
    params = {"family": family, "alpha": float(alpha), "orlicz": phi.spec_dict(),
              "n_max": int(n_max), "num_funcs": int(num_funcs), "seed": int(seed),
              "grid": int(grid), "search": "uniform-grid+batched-zoom"}
    ns = np.array(_log_orders(n_max, 10))
    return _sweep("direct", params, [f"n={n}" for n in ns], math.isfinite,
                  lambda fs: ([_window_norms(f, phi, ns, np.inf, rtol) for f in fs],
                              _moduli(fs, phi, alpha, 1.0 / ns, grid, rtol)))[0].finalize()


def inverse_report(family: str, alpha: float, phi: OrliczFunction, *, n_max: int = 128,
                   num_funcs: int = 16, seed: int = 0, grid: int = 64, rtol: float = 1e-12) -> Report:
    """Empirical constant for the modulus against the weighted sum of E_nu.

    Ratio recorded: omega_alpha(f, 1/n) * n**alpha / sum_{nu<=n} nu**(alpha-1) E_nu.
    """
    params = {"family": family, "alpha": float(alpha), "orlicz": phi.spec_dict(),
              "n_max": int(n_max), "num_funcs": int(num_funcs), "seed": int(seed),
              "grid": int(grid)}
    ns = np.array(_log_orders(n_max, 10))
    nu = np.arange(1, n_max + 1, dtype=float)

    def rhs(f):
        with np.errstate(over="ignore", invalid="ignore"):  # overflow at a large alpha fails the row
            rhs = np.cumsum(nu ** (alpha - 1.0) * _window_norms(f, phi, nu, np.inf, rtol)) / nu ** alpha
        return rhs[ns - 1]

    return _sweep("inverse", params, [f"n={n}" for n in ns], math.isfinite,
                  lambda fs: (_moduli(fs, phi, alpha, 1.0 / ns, grid, rtol),
                              [rhs(f) for f in fs]))[0].finalize()


def equivalence_report(family: str, alpha: float, phi: OrliczFunction, *, deltas=None,
                       num_funcs: int = 10, seed: int = 0, grid: int = 64,
                       polish: bool = False, rtol: float = 1e-12) -> Report:
    """Two-sided comparison of the K-functional with the alpha-modulus.

    Records K_alpha(delta, f) / omega_alpha(f, delta) over a delta grid and a
    seeded family; passes when every ratio is finite and positive, the lower
    envelope stays away from zero, and the running sup stabilizes.  The scan
    phase of the K-functional suffices for a two-sided constant, so the
    shrinkage polish is off by default in sweeps.
    """
    if deltas is None:
        deltas = np.geomspace(1e-3, 1.0, 8)
    params = {"family": family, "alpha": float(alpha), "orlicz": phi.spec_dict(),
              "num_funcs": int(num_funcs), "seed": int(seed), "grid": int(grid),
              "polish": bool(polish), "deltas": [float(d) for d in deltas]}
    report, ratios = _sweep("equivalence", params, [f"delta={float(d):.6g}" for d in deltas],
                            lambda r: 0.0 < r < math.inf,
                            lambda fs: ([[k.value for k in
                                          _k_functionals(f, phi, alpha, deltas, None, polish, rtol)]
                                         for f in fs],
                                        _moduli(fs, phi, alpha, deltas, grid, rtol)))
    c1 = min(ratios) if ratios else 0.0
    c2 = max(ratios) if ratios else 0.0
    report.add("lower-envelope", c1, 0.0, c1, c1 > 0.0)
    report.params["c1"] = float(c1)
    report.params["c2"] = float(c2)
    report.empirical_constant = float(c2)
    return report.finalize()

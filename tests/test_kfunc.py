import math
import warnings

import numpy as np
import pytest

from conftest import random_sparse_seq
from orliczseq import kfunc, orlicz
from orliczseq.fracdiff import modulus
from orliczseq.kfunc import difference_derivative_bracket, k_functional
from orliczseq.orlicz import _lux_norm, exp_minus_one, luxemburg_norm, power, power_log
from orliczseq.spectrum import CoeffSeq, PsiWeights, fourier_sum, psi_derivative
from orliczseq.verify import equivalence_report

P2 = power(2)


def test_constant_sequence_costs_nothing():
    est = k_functional(CoeffSeq({0: 3.0}), P2, 1.0, 0.5)
    assert est.value == 0.0
    assert est.minimizer_degree == 0


def test_single_harmonic_closed_form():
    f = CoeffSeq({1: 1.0})
    for alpha in (0.5, 1.0, 2.0):
        for delta in (0.05, 0.3, 1.0, 2.0):
            est = k_functional(f, P2, alpha, delta)
            assert est.value == pytest.approx(min(1.0, delta ** alpha), abs=1e-6)


def test_zero_competitor_caps_the_value():
    rng = np.random.default_rng(31)
    f = random_sparse_seq(rng, band=12, max_terms=6)
    est = k_functional(f, P2, 1.0, 50.0)
    assert est.value <= luxemburg_norm(P2, f) + 1e-9


def test_monotone_in_delta():
    rng = np.random.default_rng(32)
    f = random_sparse_seq(rng, band=12, max_terms=6)
    vals = [k_functional(f, P2, 1.3, d, polish=False).value for d in (0.05, 0.2, 0.8, 2.0)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


def test_candidate_dominance():
    rng = np.random.default_rng(33)
    f = random_sparse_seq(rng, band=16, max_terms=8)
    alpha, delta = 1.0, 0.4
    n_band = f.max_freq
    est = k_functional(f, P2, alpha, delta, n_band)
    psi = PsiWeights.fractional(alpha)
    for m in range(0, n_band + 1):
        s = fourier_sum(f, m)
        cand = luxemburg_norm(P2, f - s) + delta ** alpha * luxemburg_norm(P2, psi_derivative(s, psi))
        assert est.value <= cand + 1e-9


def test_polish_never_hurts_and_is_recorded():
    f = CoeffSeq({1: 1.0, 6: 0.4})
    scan = k_functional(f, P2, 1.0, 0.3, polish=False)
    polished = k_functional(f, P2, 1.0, 0.3, polish=True)
    assert not scan.refine_used and polished.refine_used
    assert polished.value <= scan.value + 1e-12
    # two frequencies at different scales: partial shrinkage beats any partial sum
    assert polished.value < scan.value - 1e-3


def test_estimate_metadata():
    f = CoeffSeq({2: 1.0, 7: 1.0})
    est = k_functional(f, P2, 1.0, 0.2, polish=False)
    # candidates: h = 0 plus the degrees 0, 2, 7 where the partial sum changes
    assert est.candidates_tried == 4
    assert est.minimizer_degree in (-1, 0, 2, 7)
    assert est.value >= 0.0


def test_rejects_bad_arguments():
    f = CoeffSeq({1: 1.0})
    with pytest.raises(ValueError):
        k_functional(f, P2, 0.0, 0.5)
    with pytest.raises(ValueError):
        k_functional(f, P2, 1.0, 0.0)
    with pytest.raises(ValueError):
        k_functional(f, P2, 1.0, 0.5, -2)


def test_rejects_non_finite_order_or_scale_and_an_overflowing_scale_power():
    f = CoeffSeq({1: 1.0, 3: 2.0})
    for alpha, delta in ((math.inf, 0.5), (1.0, math.inf), (2.0, 1e200)):
        with pytest.raises(ValueError, match="finite"):
            k_functional(f, P2, alpha, delta)
    for alpha, delta in ((math.nan, 0.5), (1.0, math.nan)):
        with pytest.raises(ValueError):
            k_functional(f, P2, alpha, delta)


def _scan_per_radius(f, phi, alpha, delta, rtol=1e-12):
    """The partial-sum scan one radius at a time: two scalar solves per candidate."""
    ks, cs = f.as_arrays()
    absc, absk = np.abs(cs), np.abs(ks)
    dpow = float(delta) ** alpha
    deriv_w = np.where(absk > 0, absk.astype(float) ** alpha, 0.0) * absc
    radii = sorted({int(r) for r in absk} | {0})
    candidates = [(-1, _lux_norm(absc, phi, rtol))]
    for m in radii:
        inside = absk <= m
        val = _lux_norm(absc[~inside], phi, rtol) + dpow * _lux_norm(deriv_w[inside & (absk > 0)], phi, rtol)
        candidates.append((m, val))
    best_m, best_val = min(candidates, key=lambda c: c[1])
    return best_val, best_m, len(candidates)


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
def test_batched_scan_matches_the_per_radius_loop(phi):
    rng = np.random.default_rng(35)
    deltas = (0.01, 0.1, 0.4, 1.0, 3.0)
    for _ in range(6):
        f = random_sparse_seq(rng, band=24, max_terms=10)
        alpha = float(rng.uniform(0.5, 2.0))
        for delta, est in zip(deltas, kfunc._k_functionals(f, phi, alpha, deltas, None, False, 1e-12)):
            value, degree, tried = _scan_per_radius(f, phi, alpha, delta)
            assert est.value == pytest.approx(value, rel=1e-12, abs=0.0)
            assert (est.minimizer_degree, est.candidates_tried) == (degree, tried)
            assert k_functional(f, phi, alpha, delta, polish=False) == est


# -- difference vs derivative bracket --------------------------------------------------


def test_bracket_zero_shift_degenerates():
    tau = CoeffSeq({3: 1.0, -1: 0.5})
    assert difference_derivative_bracket(tau, P2, 1.2, 3, 0.0) == (0.0, 0.0, 0.0)


def test_bracket_equality_at_top_harmonic():
    for n in (2, 5, 8):
        for alpha in (0.5, 1.0, 2.0):
            tau = CoeffSeq({n: 1.0})
            low, mid, high = difference_derivative_bracket(tau, P2, alpha, n, math.pi / n, rtol=1e-14)
            assert low == pytest.approx(2.0 ** alpha, abs=1e-10)
            assert mid == pytest.approx(2.0 ** alpha, abs=1e-10)
            assert high == pytest.approx(math.pi ** alpha, rel=1e-12)


def test_bracket_ordered_on_random_polynomials():
    rng = np.random.default_rng(34)
    for phi in (P2, exp_minus_one()):
        for _ in range(30):
            n = int(rng.integers(1, 12))
            tau = random_sparse_seq(rng, band=n, max_terms=5)
            alpha = float(rng.uniform(0.3, 3.0))
            h = float(rng.uniform(0.0, 2.0 * math.pi / n))
            low, mid, high = difference_derivative_bracket(tau, phi, alpha, n, h)
            assert low <= mid + 1e-9
            assert mid <= high + 1e-9


def test_bracket_rejects_out_of_band_and_range():
    tau = CoeffSeq({5: 1.0})
    with pytest.raises(ValueError):
        difference_derivative_bracket(tau, P2, 1.0, 4, 0.1)
    with pytest.raises(ValueError):
        difference_derivative_bracket(tau, P2, 1.0, 5, 2.0 * math.pi / 5 + 0.01)
    with pytest.raises(ValueError):
        difference_derivative_bracket(tau, P2, 1.0, 5, -0.1)


def test_k_and_modulus_single_harmonic_equivalence_window():
    # closed-form cross-check: K_1(delta) / omega_1(delta) for a single
    # harmonic is min(1, delta) / (2 sin(delta / 2)), which stays within
    # [1/2, delta/(2 sin(delta/2))|_{delta=1}] on (0, pi]
    f = CoeffSeq({1: 1.0})
    for delta in (0.1, 0.7, 1.0, 2.0, 3.0, math.pi):
        k = k_functional(f, P2, 1.0, delta).value
        w = modulus(f, P2, 1.0, delta)
        assert k == pytest.approx(min(1.0, delta), abs=1e-6)
        assert w == pytest.approx(2.0 * math.sin(delta / 2.0), abs=1e-8)
        ratio = k / w
        assert 0.5 - 1e-6 <= ratio <= 1.0 / (2.0 * math.sin(0.5)) + 1e-6


# -- polish along the shrinkage family ---------------------------------------------------

POWERS = [power(1.5), P2, power(3)]


def _with_out_of_band_tail(rng, band=6):
    """A random in-band sequence plus one coefficient beyond the band, so every competitor has a tail."""
    return random_sparse_seq(rng, band=band, max_terms=5) + CoeffSeq({band + 3: 0.3 - 0.2j})


def _coordinate_descent(f, p, alpha, delta, n_band):
    """min over c in [0, 1]^band of ||f - c f||_p + delta**alpha ||(|k|**alpha c f)||_p by coordinate descent.

    Starts from c = 1/2, away from the kinks of the norms, and sweeps golden
    searches on exact p-norms until a sweep no longer lowers the objective.
    """
    ks, cs = f.as_arrays()
    absk, a = np.abs(ks), np.abs(cs)
    band = (absk > 0) & (absk <= n_band)
    w = np.where(band, absk.astype(float) ** alpha, 0.0) * a
    c = np.where(absk == 0, 1.0, np.where(band, 0.5, 0.0))

    def objective():
        return math.fsum((a * (1.0 - c)) ** p) ** (1.0 / p) + delta ** alpha * math.fsum((w * c) ** p) ** (1.0 / p)

    def line(i, t):
        c[i] = t
        return objective()

    inv = (math.sqrt(5.0) - 1.0) / 2.0
    prev = objective()
    for _ in range(2000):
        for i in np.flatnonzero(band):
            lo, hi = 0.0, 1.0
            x1, x2 = hi - inv * (hi - lo), lo + inv * (hi - lo)
            f1, f2 = line(i, x1), line(i, x2)
            while hi - lo > 1e-15:
                if f1 < f2:
                    hi, x2, f2 = x2, x1, f1
                    x1 = hi - inv * (hi - lo)
                    f1 = line(i, x1)
                else:
                    lo, x1, f1 = x1, x2, f2
                    x2 = lo + inv * (hi - lo)
                    f2 = line(i, x2)
            c[i] = min((f1, x1), (f2, x2), (line(i, 0.0), 0.0), (line(i, 1.0), 1.0))[1]
        cur = objective()
        if cur >= prev * (1.0 - 1e-16):
            return cur
        prev = cur
    raise AssertionError("coordinate descent did not converge")


@pytest.mark.parametrize("phi", POWERS, ids=str)
def test_polish_is_the_band_limited_infimum_for_power_gauges(phi):
    rng = np.random.default_rng(40)
    refined = 0
    for _ in range(6):
        f = _with_out_of_band_tail(rng)
        alpha, delta = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.5))
        est = k_functional(f, phi, alpha, delta, 6)
        if est.refine_used:
            refined += 1
            assert est.value == pytest.approx(_coordinate_descent(f, phi.param, alpha, delta, 6), rel=1e-10)
    assert refined >= 4


def _golden_min_3sweep(fn, lo, hi, rtol=1e-6, atol=1e-9, max_iter=200):
    """The golden search the per-coordinate polish used, unchanged."""
    invphi, invphi2 = (math.sqrt(5.0) - 1.0) / 2.0, (3.0 - math.sqrt(5.0)) / 2.0
    a, b = float(lo), float(hi)
    h = b - a
    c, d = a + invphi2 * h, a + invphi * h
    fc, fd = fn(c), fn(d)
    for _ in range(max_iter):
        if h <= atol + rtol * max(abs(a), abs(b), 1e-300):
            break
        if fc < fd:
            b, d, fd = d, c, fc
            h = b - a
            c = a + invphi2 * h
            fc = fn(c)
        else:
            a, c, fc = c, d, fd
            h = b - a
            d = a + invphi * h
            fd = fn(d)
    return (c, fc) if fc < fd else (d, fd)


def _coordinate_polish(f, phi, alpha, delta, best_m, rtol=1e-12):
    """The objective after three coordinate sweeps of golden search from the radius-best_m partial sum."""
    absk, absc = map(np.abs, f.as_arrays())
    deriv_w = np.where(absk > 0, absk.astype(float) ** alpha, 0.0) * absc
    dpow = delta ** alpha
    inside = absk <= best_m
    c = np.where(inside, 1.0, 0.0)

    def objective():
        res = absc * np.abs(1.0 - c)
        return _lux_norm(res, phi, rtol) + dpow * _lux_norm((deriv_w * c)[inside & (absk > 0)], phi, rtol)

    for _ in range(3):
        for i in np.flatnonzero(inside):
            def line(t, i=i):
                c[i] = t
                return objective()
            c[i] = _golden_min_3sweep(line, 0.0, 1.0, rtol=1e-6, atol=1e-9)[0]
    return objective()


@pytest.mark.parametrize("phi", POWERS, ids=str)
def test_polish_never_above_the_three_sweep_coordinate_polish(phi):
    rng = np.random.default_rng(41)
    for _ in range(5):
        f = _with_out_of_band_tail(rng)  # in the default band: a scan winner below it leaves a tail to shrink
        alpha, delta = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.05, 0.5))
        scan = k_functional(f, phi, alpha, delta, polish=False)
        if scan.minimizer_degree < 0:
            continue
        old = min(scan.value, _coordinate_polish(f, phi, alpha, delta, scan.minimizer_degree))
        # both sides are norm solves to rtol = 1e-12, so allow that much noise
        assert k_functional(f, phi, alpha, delta).value <= old * (1.0 + 2e-12)


def test_polish_leaves_coefficients_beyond_the_band_unused():
    # band 1 under power(2): K = min over t of sqrt(t**2 + a5**2) + d * (a1 - t) = d * a1 + a5 * sqrt(1 - d**2)
    a1, a5, d = 1.0, 0.5, 0.3
    f = CoeffSeq({1: a1, 5: a5})
    est = k_functional(f, P2, 1.0, d, 1)
    assert (est.minimizer_degree, est.candidates_tried, est.refine_used) == (1, 3, True)
    assert est.value == pytest.approx(d * a1 + a5 * math.sqrt(1.0 - d * d), rel=1e-10)
    assert k_functional(f, P2, 1.0, d).value < est.value - 1e-3  # the full band does use k = 5


def test_polished_k_at_band_64_takes_at_most_100_batched_solves(monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return lux_rows(*args, **kwargs)

    lux_rows = orlicz._lux_rows
    monkeypatch.setattr(orlicz, "_lux_rows", counted)
    monkeypatch.setattr(kfunc, "_lux_rows", counted)
    rng = np.random.default_rng(42)
    ks = np.arange(-64, 65)
    f = CoeffSeq.from_arrays(ks, rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size))
    for phi in (P2, exp_minus_one(), power_log(2)):
        calls.clear()
        est = k_functional(f, phi, 1.0, 1.0 / 512)
        assert est.refine_used and len(calls) <= 100


@pytest.mark.parametrize("phi", [P2, power(1), exp_minus_one(), power_log(2)], ids=str)
def test_constant_and_zero_sequences_still_cost_nothing(phi):
    est = k_functional(CoeffSeq({0: 3.0}), phi, 1.0, 0.5)
    assert (est.value, est.minimizer_degree, est.refine_used) == (0.0, 0, True)
    est = k_functional(CoeffSeq({}), phi, 1.0, 0.5)
    assert (est.value, est.minimizer_degree, est.refine_used) == (0.0, -1, False)


def test_overflowing_derivative_weights_raise_naming_order_and_band_edge():
    f = CoeffSeq({-2: 1.0, 1: 0.5, 3: 0.25})
    with pytest.raises(ValueError, match=r"alpha = 800\.0, max\|k\| = 3"):
        k_functional(f, P2, 800.0, 0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # weights beyond the band are never formed
        assert math.isfinite(k_functional(f, P2, 800.0, 0.5, 1).value)


@pytest.mark.parametrize("phi", [power(1.5), P2, power(3), exp_minus_one(), power_log(2)], ids=str)
def test_lockstep_polish_matches_the_per_delta_k_functional(phi):
    rng = np.random.default_rng(43)
    deltas = [0.02, 0.1, 0.3, 1.0]
    refined = 0
    for _ in range(4):
        f = _with_out_of_band_tail(rng)
        alpha = float(rng.uniform(0.5, 2.0))
        for d, est in zip(deltas, kfunc._k_functionals(f, phi, alpha, deltas, None, True, 1e-12)):
            one = k_functional(f, phi, alpha, d)
            assert (est.minimizer_degree, est.candidates_tried, est.refine_used) == (
                one.minimizer_degree, one.candidates_tried, one.refine_used)
            assert est.value == pytest.approx(one.value, rel=1e-10)
            refined += est.refine_used
    assert refined >= 8


def test_polished_equivalence_report_takes_at_most_50_polish_solves_per_member(monkeypatch):
    # one zoom, of about 25 steps, for all of a member's deltas
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return lux_rows(*args, **kwargs)

    lux_rows = kfunc._lux_rows
    monkeypatch.setattr(kfunc, "_lux_rows", counted)
    rep = equivalence_report("random-band", 1, P2, num_funcs=4, polish=True)
    members = 4 + 4  # the harmonic probes and the seeded draws
    assert rep.params["polish"] and len(calls) <= 50 * members


def test_polished_k_functionals_are_the_single_k_functionals_bit_for_bit():
    # the polish zooms all deltas in one batch, and a norm depends only on its own row
    deltas = [0.02, 0.05, 0.1, 0.3, 1.0]
    for phi in (power(1.5), P2, exp_minus_one(), power_log(2)):
        rng = np.random.default_rng(44)
        for _ in range(6):
            f = random_sparse_seq(rng, band=16, max_terms=32) + CoeffSeq({19: 0.3 - 0.2j})
            alpha = float(rng.uniform(0.5, 2.0))
            batch = kfunc._k_functionals(f, phi, alpha, deltas, None, True, 1e-12)
            assert batch == [k_functional(f, phi, alpha, d) for d in deltas]


# -- the pruned scan ---------------------------------------------------------------------


def _full_scan(f, phi, alpha, deltas, rtol=1e-12, n_band=None):
    """(value, minimizer_degree, candidates_tried) per delta from every radius's tail and head, as one batch each."""
    absk, absc = map(np.abs, f.as_arrays())
    n_band = f.max_freq if n_band is None else n_band
    dpows = np.asarray(deltas, dtype=float) ** alpha
    deriv_w = np.where((absk > 0) & (absk <= n_band), absk.astype(float) ** alpha, 0.0) * absc
    degrees = np.array(sorted({-1, 0, *absk[absk <= n_band].tolist()}))
    scan = (orlicz._window_norms(f, phi, degrees + 1, np.inf, rtol)
            + dpows[:, None] * orlicz._window_norms(f, phi, 1, degrees, rtol, deriv_w))
    best = scan.argmin(axis=1)
    return [(float(scan[r, b]), int(degrees[b]), degrees.size) for r, b in enumerate(best)]


def _band_draw(band, seed, real=False):
    """Full band -band..band of complex normal amplitudes decaying like 1 / (1 + |k|); c_{-k} = conj(c_k) if real."""
    rng = np.random.default_rng([band, seed])
    ks = np.arange(-band, band + 1)
    c = (rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)) / (1.0 + np.abs(ks))
    if real:
        c = np.where(ks >= 0, c, np.conj(c[::-1]))
        c[band] = c[band].real
    return CoeffSeq.from_arrays(ks, c)


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
@pytest.mark.parametrize("band,real", [(256, True), (1024, False)])
def test_pruned_scan_is_the_full_scan_bit_for_bit(phi, band, real):
    deltas = [1e-3, 1e-2, 0.1, 1.0]
    f = _band_draw(band, 3, real)
    for alpha in (0.5, 1.0, 2.0):
        got = [(e.value, e.minimizer_degree, e.candidates_tried)
               for e in kfunc._k_functionals(f, phi, alpha, deltas, None, False, 1e-12)]
        assert got == _full_scan(f, phi, alpha, deltas)
    for n_band in (1, 40, 300):  # a band below the support's: few radii, each row as wide as the support
        got = [(e.value, e.minimizer_degree, e.candidates_tried)
               for e in kfunc._k_functionals(f, phi, 1.0, deltas, n_band, False, 1e-12)]
        assert got == _full_scan(f, phi, 1.0, deltas, n_band=n_band)


def test_a_picked_window_has_the_bits_of_the_whole_batch():
    f = _band_draw(256, 4, real=True)
    rows = np.array([0, 5, 6, 100, 257])
    for phi in (P2, exp_minus_one()):
        for lo, hi, w in ((np.arange(-1, 257) + 1, np.inf, None),
                          (1, np.arange(-1, 257), np.abs(f.as_arrays()[0]) * np.abs(f.as_arrays()[1]))):
            whole = orlicz._window_norms(f, phi, lo, hi, 1e-12, w)
            assert orlicz._window_norms(f, phi, lo, hi, 1e-12, w, rows).tolist() == whole[rows].tolist()


def test_an_exact_power_1_tie_goes_to_the_smaller_degree(monkeypatch):
    # under power(1) the norm is the sum, so with alpha = 1 radius m changes the objective by
    # 2 |c_m| (delta m - 1): delta = 1 / 512 ties 511 and 512 in real arithmetic
    p1, band, delta = power(1), 2048, 2.0 ** -9
    rng = np.random.default_rng(45)
    ks = np.arange(-band, band + 1)
    mags = rng.integers(1, 8, band + 1) * 2.0 ** -12  # dyadic, so every sum below is exact
    f = CoeffSeq.from_arrays(ks, np.concatenate([mags[:0:-1], mags]))

    def exact_sums(f, phi, lo, hi, rtol, w=None, rows=None):
        absk, a = np.abs(f.as_arrays()[0]), np.abs(f.as_arrays()[1]) if w is None else w
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float))
        pick = slice(None) if rows is None else rows
        return np.array([math.fsum(a[(absk >= l) & (absk <= h)]) for l, h in zip(lo[pick], hi[pick])])

    with monkeypatch.context() as m:
        m.setattr(kfunc, "_window_norms", exact_sums)
        est = k_functional(f, p1, 1.0, delta, polish=False)
        near = np.array([510, 511, 512, 513])
        objective = (exact_sums(f, p1, near + 1, np.inf, 0.0)
                     + delta * exact_sums(f, p1, 1, near, 0.0, np.abs(ks) * np.abs(f.as_arrays()[1]))).tolist()
        assert objective[1] == objective[2] < min(objective[0], objective[3])
        assert (est.minimizer_degree, est.value, est.candidates_tried) == (511, objective[1], band + 2)
    # with the solver's own norms the tie is broken by rounding, exactly as the full scan breaks it
    for d in (delta, 0.02):
        est = k_functional(f, p1, 1.0, d, polish=False)
        assert [(est.value, est.minimizer_degree, est.candidates_tried)] == _full_scan(f, p1, 1.0, [d])


def test_a_band_4096_scan_solves_at_most_1000_rows(monkeypatch):
    rows = []

    def counted(vals, phi, **kw):
        rows.append(vals.shape[0])
        return lux_rows(vals, phi, **kw)

    lux_rows = orlicz._lux_rows
    monkeypatch.setattr(orlicz, "_lux_rows", counted)
    est = k_functional(_band_draw(4096, 0), P2, 1.0, 1e-3, polish=False)
    assert est.candidates_tried == 4098 and 0 < est.minimizer_degree < 4096  # an interior minimizer
    assert sum(rows) <= 1000


def test_a_real_valued_f_polishes_on_its_k_nonnegative_half(monkeypatch):
    batches = []

    def counted(vals, phi, **kw):
        batches.append((vals.shape[1], kw.get("pairs", 0)))
        return lux_rows(vals, phi, **kw)

    lux_rows = kfunc._lux_rows
    monkeypatch.setattr(kfunc, "_lux_rows", counted)
    f = _band_draw(64, 5, real=True)
    for phi in (P2, exp_minus_one(), power_log(2)):
        batches.clear()
        est = k_functional(f, phi, 1.0, 1.0 / 512)
        assert est.refine_used and batches and set(batches) == {(65, 64)}
    # the folded polish is the unfolded one within the solver's brackets
    absk, absc = map(np.abs, f.as_arrays())
    band, dpows = absk > 0, np.array([1.0 / 512])
    deriv_w = np.where(band, absk.astype(float), 0.0) * absc
    for phi in (P2, exp_minus_one(), power_log(2)):
        folded = kfunc._polish(absc[64:], absk[64:], band[64:], 1.0, deriv_w[64:], dpows, phi, 1e-12, 64)
        unfolded = kfunc._polish(absc, absk, band, 1.0, deriv_w, dpows, phi, 1e-12, 0)
        assert folded.tolist() == pytest.approx(unfolded.tolist(), rel=1e-11, abs=0.0)


def test_a_flat_stretch_of_ties_goes_to_its_first_radius():
    # |c_k| below 1e-14 on 100 <= |k| <= 400 adds nothing to a power(2) norm of the rest, so the
    # objectives across the stretch tie up to rounding, and bounds inside it come within rounding of best
    band = 1024
    ks = np.arange(-band, band + 1)
    tiny = (np.abs(ks) >= 100) & (np.abs(ks) <= 400)
    mags = np.where(tiny, 1e-14 * np.random.default_rng(46).random(ks.size), 1.0 / (1.0 + np.abs(ks)))
    f = CoeffSeq.from_arrays(ks, np.where(ks < 0, mags[::-1], mags).astype(complex))
    deltas = [1.0 / 250, 1.0 / 110, 1.0 / 390]
    got = [(e.value, e.minimizer_degree, e.candidates_tried)
           for e in kfunc._k_functionals(f, P2, 1.0, deltas, None, False, 1e-12)]
    assert got == _full_scan(f, P2, 1.0, deltas)
    assert all(100 <= d <= 400 for _, d, _ in got)


# -- the wide polish stencil -------------------------------------------------------------


def test_the_polish_finds_a_shallow_dip_where_the_family_is_flat():
    # the family is flat to solver noise for log mu < -6; halving steps there walked away from the dip
    # near log mu = -4.71, whose value is the best of a 20,001-point scan over log mu in [-12, 4]
    f = CoeffSeq({-4: -3.14445 + 0.185577j, 1: -0.638917 - 0.669456j, 4: -1.55467 - 1.31345j, 7: 0.3 - 0.2j})
    assert k_functional(f, power(1.5), 2.0, 0.02, 2).value <= 4.233819510427517 * (1.0 + 1e-13)


@pytest.mark.parametrize("real", [False, True], ids=["complex", "real"])
def test_a_polished_k_at_band_8_takes_at_most_8_polish_solves(monkeypatch, real):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return lux_rows(*args, **kwargs)

    lux_rows = kfunc._lux_rows
    monkeypatch.setattr(kfunc, "_lux_rows", counted)
    f = _band_draw(8, 6, real)
    for phi in (P2, exp_minus_one(), power_log(2)):
        calls.clear()
        est = k_functional(f, phi, 1.0, 1.0 / 64)
        assert est.refine_used and 0 < len(calls) <= 8


def test_the_polish_split_follows_the_logical_width_and_keeps_halving_from_band_256(monkeypatch):
    splits = []

    def spied(*args, **kwargs):
        splits.append(kwargs["split"])
        return zoom(*args, **kwargs)

    zoom = kfunc._zoom
    monkeypatch.setattr(kfunc, "_zoom", spied)
    for band, real, split in ((8, False, 60), (8, True, 60), (256, False, 2)):
        splits.clear()
        assert k_functional(_band_draw(band, 7, real), P2, 1.0, 1e-3).refine_used
        assert splits == [split]

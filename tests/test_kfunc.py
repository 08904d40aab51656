import math

import numpy as np
import pytest

from conftest import random_sparse_seq
from orliczseq import kfunc
from orliczseq.fracdiff import modulus
from orliczseq.kfunc import difference_derivative_bracket, k_functional
from orliczseq.orlicz import _lux_norm, exp_minus_one, luxemburg_norm, power, power_log
from orliczseq.spectrum import CoeffSeq, PsiWeights, fourier_sum, psi_derivative

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

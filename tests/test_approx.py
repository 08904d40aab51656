import math

import numpy as np
import pytest

from conftest import random_sparse_seq
from orliczseq import orlicz
from orliczseq.approx import (
    best_approx,
    jackson_approximant,
    jackson_kernel,
    kernel_moment,
    kernel_values,
    psi_bernstein_ratio,
    psi_direct_ratio,
    residual_multipliers,
)
from orliczseq.fracdiff import modulus
from orliczseq.kfunc import difference_derivative_bracket
from orliczseq.orlicz import exp_minus_one, luxemburg_norm, power, power_log
from orliczseq.spectrum import CoeffSeq, PsiWeights, evaluate, tail

P2 = power(2)


# -- best approximation ------------------------------------------------------------


def test_best_approx_examples():
    inside = CoeffSeq({k: 1.0 for k in range(-3, 4)})
    assert best_approx(inside, P2, 4) == 0.0
    assert best_approx(inside, P2, 2) == pytest.approx(2.0, abs=1e-10)
    assert best_approx(CoeffSeq(), P2, 3) == 0.0
    with pytest.raises(ValueError):
        best_approx(inside, P2, 0)


def test_best_approx_monotone_and_dominated():
    rng = np.random.default_rng(21)
    f = random_sparse_seq(rng, band=24, max_terms=10)
    vals = [best_approx(f, P2, n) for n in range(1, 30)]
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
    assert vals[0] <= luxemburg_norm(P2, f) + 1e-12


def test_best_approx_subadditive():
    rng = np.random.default_rng(22)
    f = random_sparse_seq(rng, band=16, max_terms=8)
    g = random_sparse_seq(rng, band=16, max_terms=8)
    for n in (2, 5, 9):
        assert best_approx(f + g, P2, n) <= best_approx(f, P2, n) + best_approx(g, P2, n) + 1e-9


def _norm_of_residual(f, phi, cand):
    return luxemburg_norm(phi, f - cand)


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
def test_tail_ladder_matches_one_norm_per_order(phi):
    rng = np.random.default_rng(36)
    for _ in range(4):
        f = random_sparse_seq(rng, band=40, max_terms=30)
        ns = np.arange(1, 45)
        one_by_one = [luxemburg_norm(phi, tail(f, int(n))) for n in ns]
        ladder = orlicz._window_norms(f, phi, ns, np.inf, 1e-12)
        assert ladder.tolist() == pytest.approx(one_by_one, rel=1e-12, abs=0.0)
        assert np.all(np.diff(ladder) <= 1e-12 * ladder[1:])
        # a single order solves exactly the tail's entries: the same bits
        assert [best_approx(f, phi, int(n)) for n in ns] == one_by_one


def test_tail_formula_matches_free_minimization():
    # small-instance oracle: coordinate descent over the competitor's
    # coefficients (real and imaginary parts) with random restarts never
    # beats the spectral tail, confirming the infimum sits at the partial sum
    rng = np.random.default_rng(23)
    for phi in (P2, power(1.5), exp_minus_one()):
        ks = rng.choice(np.arange(-4, 5), size=5, replace=False)
        f = CoeffSeq(zip(ks.tolist(), (rng.standard_normal(5) + 1j * rng.standard_normal(5)).tolist()))
        n = 3
        tail_norm = best_approx(f, phi, n)
        best = math.inf
        band = [k for k in range(-(n - 1), n)]
        for _ in range(4):
            coeffs = {k: complex(rng.standard_normal(), rng.standard_normal()) for k in band}
            for _ in range(40):
                for k in band:
                    for part in (1.0, 1j):
                        base = coeffs[k]
                        vals = {}
                        for step in (-0.3, -0.1, -0.03, 0.0, 0.03, 0.1, 0.3):
                            cand = dict(coeffs)
                            cand[k] = base + step * part
                            vals[step] = _norm_of_residual(f, phi, CoeffSeq(cand))
                        s = min(vals, key=lambda s: vals[s])
                        coeffs[k] = base + s * part
            best = min(best, _norm_of_residual(f, phi, CoeffSeq(coeffs)))
        assert best >= tail_norm - 1e-6


# -- Jackson kernels ------------------------------------------------------------------


def test_kernel_degenerate_order_is_flat():
    spec, kern = jackson_kernel(1, 0)
    assert spec.p == 1 and spec.k0 == 1
    assert kern.items() == [(0, pytest.approx(1.0 / (2 * math.pi), abs=0))]


@pytest.mark.parametrize("r", range(5))
def test_kernel_normalization_and_shape(r):
    for n in (2, 3, 8, 31, 64, 128):
        spec, kern = jackson_kernel(n, r)
        assert 2 * spec.k0 >= r + 2
        assert n / (2 * spec.k0) < spec.p <= n / (2 * spec.k0) + 1
        assert spec.degree <= n
        assert abs(2 * math.pi * kern[0].real - 1.0) < 1e-12
        ks, cs = kern.as_arrays()
        assert np.all(cs.imag == 0) and np.all(cs.real > 0)
        assert np.array_equal(ks, -ks[::-1])


def test_kernel_coefficients_match_sine_form():
    spec, kern = jackson_kernel(24, 2)
    ks, cs = kern.as_arrays()
    t = np.linspace(-math.pi, math.pi, 101)
    synth = np.array([evaluate(kern, float(x)).real for x in t])
    assert np.max(np.abs(synth - kernel_values(spec, t))) < 1e-12


def test_kernel_positive_on_dense_grid():
    for n, r in ((7, 0), (16, 2), (40, 4)):
        spec, _ = jackson_kernel(n, r)
        t = np.linspace(-math.pi, math.pi, 4001)
        assert np.min(kernel_values(spec, t)) >= -1e-12


def test_kernel_moments_decay_with_order():
    # quadrature oracle: |t|^r moments scale like (n+1)^-r with a stable constant
    for r in (1, 2):
        consts = []
        for n in (8, 16, 32, 64, 128):
            spec, _ = jackson_kernel(n, r)
            consts.append(kernel_moment(spec, r) * (n + 1) ** r)
        assert max(consts) <= 2.0 * float(np.median(consts))


def test_kernel_rejects_bad_args():
    with pytest.raises(ValueError):
        jackson_kernel(0, 0)
    with pytest.raises(ValueError):
        jackson_kernel(4, -1)


# -- Jackson means ---------------------------------------------------------------------


def test_sigma_fixes_constants():
    f = CoeffSeq({0: 2.5})
    assert jackson_approximant(f, 2, 8) == f


def test_sigma_rejects_fractional_order():
    with pytest.raises(ValueError):
        jackson_approximant(CoeffSeq({1: 1}), 1.5, 8)
    with pytest.raises(ValueError):
        jackson_approximant(CoeffSeq({1: 1}), 1, 1)


def test_sigma_band_limited_and_above_best():
    rng = np.random.default_rng(25)
    for alpha in (1, 2, 3):
        for n in (4, 9, 16):
            f = random_sparse_seq(rng, band=20, max_terms=8)
            sig = jackson_approximant(f, alpha, n)
            assert sig.max_freq <= n - 1
            res = luxemburg_norm(P2, f - sig)
            assert res >= best_approx(f, P2, n) - 1e-12


def test_sigma_residual_bounded_by_kernel_modulus_integral():
    # the residual norm is at most 2 * integral of K_{n-1} * omega_alpha(f, |t|);
    # the right side is lower-bounded with a piecewise-constant minorant of the
    # monotone modulus, so the comparison is safe under quadrature error
    rng = np.random.default_rng(26)
    for alpha, n in ((1, 6), (2, 9)):
        f = random_sparse_seq(rng, band=12, max_terms=6)
        sig = jackson_approximant(f, alpha, n)
        lhs = luxemburg_norm(P2, f - sig)
        spec, _ = jackson_kernel(n - 1, alpha)
        edges = np.concatenate([[0.0], np.geomspace(1e-3, math.pi, 33)])
        t = np.linspace(0.0, math.pi, 20001)
        kv = kernel_values(spec, t)
        rhs = 0.0
        for a, b in zip(edges[:-1], edges[1:]):
            mask = (t >= a) & (t < b)
            cell = float(np.trapezoid(kv[mask], t[mask])) if mask.sum() > 1 else 0.0
            w = modulus(f, P2, float(alpha), float(a), grid=128) if a > 0 else 0.0
            rhs += 2.0 * cell * w
        rhs *= 2.0  #両 halves of the symmetric kernel integral
        assert lhs <= rhs + 1e-7 or rhs == 0.0


def test_sigma_residual_multiplier_structure():
    # kernel order 15 with k0 = 2 has degree 6: frequencies inside the kernel
    # band are damped, those between the kernel degree and n-1 pass through
    # untouched (multiplier exactly 1), and beyond n-1 the mean is zero anyway
    f = CoeffSeq({k: 1.0 for k in (1, 3, 9, 15, 20)})
    mults = residual_multipliers(f, 2, 16)
    for k in (9, 15, 20):
        assert mults[k] == 1.0
    for k in (1, 3):
        assert 0.0 < abs(mults[k]) < 1.0


# -- Bernstein-type ratios ----------------------------------------------------------------


def test_bernstein_equality_at_extremal_harmonic():
    for r in (0.5, 1.0, 2.0):
        psi = PsiWeights.fractional(r)
        tau = CoeffSeq({5: 1.3})
        lhs, bound = psi_bernstein_ratio(tau, P2, psi, 5, rtol=1e-14)
        assert lhs == pytest.approx(5.0 ** r * luxemburg_norm(P2, tau, rtol=1e-14), rel=1e-12)
        assert lhs == pytest.approx(bound, abs=1e-10)


def test_bernstein_explicit_weights_and_zero_case():
    psi = PsiWeights.explicit({k: 2.0 for k in range(-6, 7) if k != 0})
    lhs, bound = psi_bernstein_ratio(CoeffSeq({0: 3.0}), P2, psi, 6)
    assert lhs == 0.0 and bound > 0.0


def test_bernstein_random_instances_respect_bound():
    rng = np.random.default_rng(27)
    for _ in range(40):
        n = int(rng.integers(2, 24))
        tau = random_sparse_seq(rng, band=n, max_terms=6)
        r = float(rng.uniform(0.3, 2.0))
        lhs, bound = psi_bernstein_ratio(tau, P2, PsiWeights.fractional(r), n)
        assert lhs <= bound + 1e-9


def test_bernstein_rejects_out_of_band():
    with pytest.raises(ValueError):
        psi_bernstein_ratio(CoeffSeq({7: 1}), P2, PsiWeights.fractional(1), 5)


def test_direct_ratio_equality_and_examples():
    psi = PsiWeights.fractional(1.2)
    tau = CoeffSeq({4: 2.0})
    lhs, bound = psi_direct_ratio(tau, P2, psi, 4, rtol=1e-14)
    assert lhs == pytest.approx(bound, abs=1e-10)

    banded = CoeffSeq({k: 1.0 for k in range(-3, 4)})
    lhs, _ = psi_direct_ratio(banded, P2, psi, 4)
    assert lhs == 0.0

    f = CoeffSeq({k: 1.0 / k ** 2 for k in range(1, 33)})
    lhs, bound = psi_direct_ratio(f, P2, PsiWeights.fractional(1.0), 4)
    assert lhs <= bound + 1e-12
    # tail-norm oracle for both sides
    assert lhs == pytest.approx(math.sqrt(sum(k ** -4 for k in range(4, 33))), abs=1e-10)
    assert bound == pytest.approx(0.25 * math.sqrt(sum(k ** -2 for k in range(4, 33))), abs=1e-10)


def test_direct_ratio_random_instances():
    rng = np.random.default_rng(28)
    for _ in range(40):
        f = random_sparse_seq(rng, band=32, max_terms=8)
        n = int(rng.integers(1, 16))
        r = float(rng.uniform(0.3, 2.0))
        lhs, bound = psi_direct_ratio(f, P2, PsiWeights.fractional(r), n)
        assert lhs <= bound + 1e-9


def test_residual_multipliers_match_the_per_frequency_loop():
    from orliczseq.fracdiff import binom

    f = CoeffSeq({k: 1.0 for k in (-40, -7, -2, 0, 1, 3, 5, 6, 9, 15, 20, 2**62)})
    for alpha, n in ((1, 8), (2, 16), (3, 24), (4, 64)):
        _, kern = jackson_kernel(n - 1, r=alpha)
        center = kern[0].real
        expected = {}
        for k in f.support:
            m = 0.0
            for j in range(alpha + 1):
                m += (-1) ** j * binom(alpha, j) * (1.0 if j == 0 else kern[j * k].real / center)
            expected[k] = m
        assert residual_multipliers(f, alpha, n) == expected


def test_constant_kernel_needs_no_convolutions():
    # p = 1 whenever 2 * k0 > n: the kernel is the constant 1/(2 pi) however large r is
    spec, kern = jackson_kernel(4, 10**7)
    assert spec.p == 1 and spec.degree == 0
    assert kern == CoeffSeq({0: 1.0 / (2.0 * math.pi)})


def test_constant_kernel_makes_no_convolution_call(monkeypatch):
    # 2 k0 - 1 ~ r convolutions of [1.0] would each return [1.0]; at r = 10**7 they took 17 s
    def refuse(*args):
        raise AssertionError("np.convolve called for a constant kernel")

    monkeypatch.setattr(np, "convolve", refuse)
    spec, kern = jackson_kernel(4, 10**7)
    assert spec.p == 1 and kern == CoeffSeq({0: 1.0 / (2.0 * math.pi)})


def test_kernel_beyond_2_53_stays_within_rounding_of_the_integer_convolution():
    # the centre is 4.48e18: above 2**53, so the float64 convolution rounds,
    # but below 2**63, so the int64 reference is exact
    spec, kern = jackson_kernel(4096, 5)
    ones = np.ones(spec.p, dtype=np.int64)
    ref = ones
    for _ in range(2 * spec.k0 - 1):
        ref = np.convolve(ref, ones)
    assert 2**53 < int(ref.max()) < 2**63
    got = [round(c / spec.b_p) for c in kern.as_arrays()[1].real.tolist()]
    assert len(got) == ref.size
    assert max(abs(g - r) / r for g, r in zip(got, ref.tolist())) <= 1e-15


@pytest.mark.parametrize("check", [
    lambda tau, n: psi_bernstein_ratio(tau, P2, PsiWeights.fractional(1.0), n),
    lambda tau, n: difference_derivative_bracket(tau, P2, 1.0, n, 0.1),
], ids=["bernstein", "difference-derivative"])
def test_band_checks_reject_an_empty_band_and_support_beyond_it(check):
    with pytest.raises(ValueError, match="at least k = 1"):
        check(CoeffSeq({0: 1.0}), 0)
    with pytest.raises(ValueError, match=r"beyond \|k\| = 3"):
        check(CoeffSeq({1: 1.0, -4: 0.5}), 3)


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
def test_a_single_order_of_a_real_valued_f_is_its_tails_norm_bit_for_bit(phi):
    # c_{-k} = conj(c_k): the E_n window and luxemburg_norm fold the same tail
    rng = np.random.default_rng(63)
    for band in (1, 7, 40):
        ks = np.arange(1, band + 1)
        c = (rng.standard_normal(band) + 1j * rng.standard_normal(band)) / ks
        f = CoeffSeq.from_arrays(np.arange(-band, band + 1), np.concatenate([np.conj(c[::-1]), [1.5], c]))
        ns = range(1, band + 3)
        assert [best_approx(f, phi, n) for n in ns] == [luxemburg_norm(phi, tail(f, n)) for n in ns]

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sparse_seq
from orliczseq import fracdiff, orlicz
from orliczseq.fracdiff import (
    binom,
    frac_difference,
    frac_difference_series,
    k_constant,
    modulus,
)
from orliczseq.orlicz import exp_minus_one, luxemburg_norm, power, power_log
from orliczseq.spectrum import CoeffSeq, PsiWeights, max_abs_diff, psi_derivative

P2 = power(2)


def test_binom_examples():
    assert binom(3, 2) == 3.0
    assert binom(0.5, 2) == pytest.approx(-0.125, abs=0)
    for alpha in (0.0, 0.5, 1.0, 2.7):
        assert binom(alpha, 0) == 1.0
    with pytest.raises(ValueError):
        binom(1.0, -1)


@given(st.floats(min_value=0.05, max_value=5.0), st.integers(min_value=0, max_value=20))
@settings(max_examples=60, deadline=None)
def test_binom_recurrence(alpha, j):
    assert binom(alpha, j + 1) == pytest.approx(binom(alpha, j) * (alpha - j) / (j + 1), rel=1e-12)


def test_k_constant_integer_orders_exact():
    assert k_constant(1.0) == 2.0
    assert k_constant(2.0) == 4.0
    assert k_constant(3.0) == 8.0


def test_k_constant_half_order():
    # the absolute binomial series at alpha = 1/2 telescopes toward 2;
    # the 1e6-term cap leaves a J**-1/2 truncation gap
    assert k_constant(0.5) == pytest.approx(2.0, abs=2e-3)


@pytest.mark.parametrize("alpha, exact", [(0.3, 2.0), (0.5, 2.0), (1.5, 3.0), (2.7, 6.59)])
def test_k_constant_is_the_exact_finite_sum(alpha, exact):
    # sum_j |binom(alpha, j)| = head + |signed head|, since the signed series sums to 0
    assert k_constant(alpha) == pytest.approx(exact, rel=0, abs=1e-14)


def test_k_constant_integer_orders_are_powers_of_two():
    for alpha in range(1, 64):
        assert k_constant(float(alpha)) == 2.0 ** alpha


@pytest.mark.parametrize("alpha", [math.inf, math.nan, 0.0, -1.5])
def test_k_constant_rejects_non_finite_and_non_positive_orders(alpha):
    with pytest.raises(ValueError, match="positive and finite"):
        k_constant(alpha)


def test_k_constant_overflows_to_inf():
    assert k_constant(1024.0) == math.inf and k_constant(5e9) == math.inf


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.7, 2.0, 3.2])
def test_k_constant_bounded_by_power_of_two(alpha):
    assert k_constant(alpha) <= 2.0 ** math.ceil(alpha) + 1e-9


def test_frac_difference_drops_constants():
    assert frac_difference(CoeffSeq({0: 4.2}), 0.7, 0.9) == CoeffSeq()


def test_frac_difference_first_order_multiplier():
    h = 0.63
    d = frac_difference(CoeffSeq({1: 1}), 1.0, h)
    assert abs(d[1] - (1 - np.exp(-1j * h))) < 1e-15


def test_frac_difference_second_order_at_pi():
    d = frac_difference(CoeffSeq({1: 1}), 2.0, math.pi)
    assert abs(d[1] - 4.0) < 1e-12
    s = frac_difference_series(CoeffSeq({1: 1}), 2.0, math.pi, 2)
    assert abs(s[1] - 4.0) < 1e-12


def test_series_two_term_difference():
    h = 1.1
    s = frac_difference_series(CoeffSeq({1: 1}), 1.0, h, 1)
    assert abs(s[1] - (1 - np.exp(-1j * h))) < 1e-15


def test_series_oracle_integer_orders_exact():
    rng = np.random.default_rng(2)
    for alpha in (1, 2, 3):
        f = random_sparse_seq(rng, band=24, max_terms=8)
        h = float(rng.uniform(-math.pi, math.pi))
        a = frac_difference(f, float(alpha), h)
        b = frac_difference_series(f, float(alpha), h, alpha)
        assert max_abs_diff(a, b) < 1e-10


def test_series_oracle_fractional_order():
    f = CoeffSeq({1: 1})
    a = frac_difference(f, 0.5, 1.0)
    b = frac_difference_series(f, 0.5, 1.0, 10**4)
    assert abs(a[1] - b[1]) < 1e-3


def test_multiplier_composition():
    # applying orders alpha then beta equals the combined order, coefficientwise
    rng = np.random.default_rng(4)
    f = random_sparse_seq(rng, band=20, max_terms=8)
    for alpha, beta in ((0.5, 1.2), (1.0, 1.0), (2.3, 0.4)):
        h = float(rng.uniform(-3, 3))
        ab = frac_difference(frac_difference(f, alpha, h), beta, h)
        combined = frac_difference(f, alpha + beta, h)
        assert max_abs_diff(ab, combined) < 1e-10 * max(1.0, max(abs(v) for _, v in combined.items()))


def test_difference_norm_bound_and_order_lift():
    rng = np.random.default_rng(6)
    for alpha in (0.5, 1.0, 1.7, 2.0, 3.2):
        f = random_sparse_seq(rng, band=24, max_terms=8)
        h = float(rng.uniform(-math.pi, math.pi))
        d = luxemburg_norm(P2, frac_difference(f, alpha, h))
        assert d <= 2.0 ** math.ceil(alpha) * luxemburg_norm(P2, f) + 1e-9
        beta = 0.8
        lifted = luxemburg_norm(P2, frac_difference(f, alpha + beta, h))
        assert lifted <= 2.0 ** math.ceil(beta) * d + 1e-9


def test_difference_norm_even_in_shift():
    rng = np.random.default_rng(8)
    f = random_sparse_seq(rng, band=16, max_terms=6)
    for alpha in (0.5, 1.3, 2.0):
        h = float(rng.uniform(0.05, 3.0))
        a = luxemburg_norm(P2, frac_difference(f, alpha, h))
        b = luxemburg_norm(P2, frac_difference(f, alpha, -h))
        assert a == pytest.approx(b, rel=1e-12)


def test_difference_vanishes_with_shift():
    rng = np.random.default_rng(10)
    f = random_sparse_seq(rng, band=16, max_terms=6)
    n = f.max_freq
    norm = luxemburg_norm(P2, f)
    for alpha in (0.5, 1.0, 2.2):
        # band-limited bound: the difference norm is at most (n|h|)^alpha * norm
        for h in (0.3, 0.05):
            d = luxemburg_norm(P2, frac_difference(f, alpha, h))
            assert d <= (n * h) ** alpha * norm + 1e-9
        eps = 1e-6
        h_small = (eps / ((n ** alpha) * norm)) ** (1.0 / alpha)
        assert luxemburg_norm(P2, frac_difference(f, alpha, h_small)) <= eps * (1 + 1e-9)


# -- modulus -------------------------------------------------------------------------


def test_modulus_order_zero_is_the_norm():
    rng = np.random.default_rng(12)
    f = random_sparse_seq(rng, band=16, max_terms=6)
    assert modulus(f, P2, 0.0, 0.7) == luxemburg_norm(P2, f)


def test_modulus_of_constant_vanishes():
    assert modulus(CoeffSeq({0: 9.0}), P2, 1.5, 2.0) == 0.0


@pytest.mark.parametrize("delta", [0.1, 0.5, 1.0, 3.0])
def test_modulus_closed_form_single_harmonic(delta):
    got = modulus(CoeffSeq({1: 1}), P2, 1.0, delta)
    assert got == pytest.approx(2.0 * math.sin(delta / 2.0), abs=1e-8)


def test_modulus_validates_arguments():
    f = CoeffSeq({1: 1})
    with pytest.raises(ValueError):
        modulus(f, P2, -0.5, 1.0)
    with pytest.raises(ValueError):
        modulus(f, P2, 1.0, 0.0)
    with pytest.raises(ValueError):
        modulus(f, P2, 1.0, 1.0, grid=1)


def test_modulus_order_zero_validates_delta_and_grid():
    f = CoeffSeq({1: 1, 3: 0.5})
    with pytest.raises(ValueError, match="delta must be positive"):
        modulus(f, P2, 0.0, -1.0)
    with pytest.raises(ValueError, match="two grid points"):
        modulus(f, P2, 0.0, 1.0, grid=1)


def test_modulus_against_dense_scan():
    rng = np.random.default_rng(14)
    f = CoeffSeq({1: 1.0, 5: -0.8, -9: 0.4j})
    for alpha, delta in ((1.0, 2.5), (1.7, 1.2), (0.5, 3.0)):
        got = modulus(f, P2, alpha, delta)
        hs = np.linspace(0.0, delta, 4096)
        dense = max(
            luxemburg_norm(P2, frac_difference(f, alpha, float(h))) for h in hs[1:]
        )
        assert got >= dense - 1e-9
        assert got <= dense + 1e-3 * dense


def test_modulus_nondecreasing_in_delta():
    rng = np.random.default_rng(16)
    f = random_sparse_seq(rng, band=12, max_terms=6)
    vals = [modulus(f, P2, 1.3, d) for d in (0.2, 0.5, 1.0, 2.0)]
    assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("phi", [power(1.5), exp_minus_one(), power_log(2)], ids=str)
def test_modulus_subadditive_and_bounded(phi):
    rng = np.random.default_rng(18)
    f = random_sparse_seq(rng, band=12, max_terms=5)
    g = random_sparse_seq(rng, band=12, max_terms=5)
    alpha, delta = 1.4, 0.8
    assert modulus(f + g, phi, alpha, delta) <= (
        modulus(f, phi, alpha, delta) + modulus(g, phi, alpha, delta) + 1e-7
    )
    assert modulus(f, phi, alpha, delta) <= 2.0 ** math.ceil(alpha) * luxemburg_norm(phi, f) + 1e-7


def test_modulus_derivative_transfer():
    # passing a fractional derivative through lowers the order: the alpha
    # modulus is at most delta^beta times the (alpha-beta) modulus of f^(beta)
    rng = np.random.default_rng(20)
    f = random_sparse_seq(rng, band=12, max_terms=6)
    alpha, beta, delta = 1.6, 0.6, 0.7
    fb = psi_derivative(f, PsiWeights.fractional(beta))
    lhs = modulus(f, P2, alpha, delta)
    rhs = delta ** beta * modulus(fb, P2, alpha - beta, delta)
    assert lhs <= rhs + 1e-7


def test_binom_matches_the_product_loop():
    def loop(alpha, j):
        out = 1.0
        for i in range(j):
            out *= (alpha - i) / (i + 1.0)
        return out

    for alpha in np.arange(-30, 60) / 7:
        for j in range(40):
            assert binom(float(alpha), j) == loop(float(alpha), j)


def test_binom_is_exact_at_integer_orders():
    assert binom(11.0, 5) == 462.0
    for alpha in range(40):
        for j in range(alpha + 1):
            assert binom(float(alpha), j) == math.comb(alpha, j), (alpha, j)


@pytest.mark.parametrize("alpha", [60.0, 1023.0, 1030.0, 2000.0])
def test_large_integer_binomials_overflow_only_where_the_ratio_product_does(alpha):
    j = np.arange(alpha + 30)
    with np.errstate(over="ignore", invalid="ignore"):
        ratios = np.cumprod(np.append(1.0, (j - alpha) / (j + 1.0)))
        s = fracdiff._signed_coeffs(alpha, int(alpha) + 30)
    for same in (np.isinf, np.isnan, np.signbit):
        assert np.array_equal(same(s), same(ratios))
    finite = np.isfinite(s)
    np.testing.assert_allclose(s[finite], ratios[finite], rtol=1e-12, atol=0)


def test_series_oracle_at_order_11_matches_the_multiplier():
    f = random_sparse_seq(np.random.default_rng(11), band=24, max_terms=8)
    for h in (0.3, 1.7, -2.9):
        assert max_abs_diff(frac_difference(f, 11.0, h), frac_difference_series(f, 11.0, h, 11)) < 1e-9


@pytest.mark.parametrize("alpha, delta", [(math.nan, 0.5), (math.inf, 0.5), (1.0, math.inf),
                                          (1.0, math.nan), (0.0, math.inf)])
def test_modulus_rejects_non_finite_order_and_scale(alpha, delta):
    with pytest.raises(ValueError, match="finite"):
        modulus(CoeffSeq({1: 1.0}), P2, alpha, delta)


# -- batched zoom ------------------------------------------------------------------


def _modulus_with_batches(monkeypatch, f, phi, alpha, delta, grid):
    """modulus(...) together with the norm batches it solved, in call order.

    Every Luxemburg solve, batched or single-row, goes through orlicz._lux_rows.
    """
    batches = []
    solve = orlicz._lux_rows

    def recorded(vals, phi, **kw):
        batches.append(solve(vals, phi, **kw))
        return batches[-1]

    for module in (orlicz, fracdiff):
        monkeypatch.setattr(module, "_lux_rows", recorded)
    return modulus(f, phi, alpha, delta, grid=grid), batches


@pytest.mark.parametrize("phi", [P2, exp_minus_one()], ids=str)
@pytest.mark.parametrize("support", [1, 9, 33])
def test_modulus_zooms_in_few_batches(monkeypatch, phi, support):
    # the zoom halves a bracket of two grid steps until it is sqrt(rtol) / max|k|
    # wide: 1 + ceil(log2(2 delta max|k| / (63 * 1e-6))) <= 20 batches while
    # delta * max|k| <= 13.2
    rng = np.random.default_rng(support)
    ks = np.arange(1, support + 1)
    f = CoeffSeq.from_arrays(ks, rng.standard_normal(support) / ks)
    for alpha, delta in ((1.0, 0.4), (1.5, 0.3), (0.5, 1 / 16)):
        got, batches = _modulus_with_batches(monkeypatch, f, phi, alpha, delta, 64)
        assert len(batches) <= 20
        assert got >= batches[0].max()


@pytest.mark.parametrize("phi, scale", [(P2, 1.0), (exp_minus_one(), 1.0 / math.log(2.0))], ids=str)
def test_modulus_of_one_harmonic_zooms_to_its_closed_form(monkeypatch, phi, scale):
    # |2 sin(64 h / 2)| peaks at 2 inside [0, 1], between grid points
    got, batches = _modulus_with_batches(monkeypatch, CoeffSeq({64: 1}), phi, 1.0, 1.0, 64)
    assert got == pytest.approx(2.0 * scale, rel=1e-11)
    assert got >= batches[0].max()


@pytest.mark.parametrize("alpha", [0.3, 0.5, 1.0, 1.7, 2.0, 3.0])
def test_shift_rows_built_in_place_match_the_temporaries_bit_for_bit(alpha):
    rng = np.random.default_rng(50)
    ks = np.array([-40, -7, -1, 0, 2, 5, 33, 64])
    cs = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
    hs = np.append(0.0, rng.uniform(0.0, 2.0, 9))
    old = np.abs(2.0 * np.sin(np.outer(hs, ks) * 0.5)) ** alpha * np.abs(cs)
    assert np.array_equal(fracdiff._shift_rows(hs, ks, np.abs(cs), alpha), old)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 200.0])
def test_the_zero_shift_row_is_all_zeros(alpha):
    # so the modulus grid's best cell is h = 0 only when every grid norm is 0, and no zoom runs there
    ks = np.array([-40, -7, -1, 0, 2, 5, 33, 64])
    absc = np.abs(np.random.default_rng(51).standard_normal(ks.size))
    assert not np.any(fracdiff._shift_rows(np.zeros(1), ks, absc, alpha))


def _band(band, seed):
    rng = np.random.default_rng([band, seed])
    ks = np.arange(-band, band + 1)
    return CoeffSeq.from_arrays(ks, (rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size))
                                / (1.0 + np.abs(ks)))


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
@pytest.mark.parametrize("f", [_band(16, 0), CoeffSeq({1: 1, 97: 0.5, 301: 0.2}), CoeffSeq({0: 2, 3: 1})],
                         ids=["band16", "three-harmonics", "with-constant"])
def test_modulus_scales_exactly_by_powers_of_two(phi, f):
    # every shift row, bracket end and Newton guess scales by the same power of two
    for alpha, delta in ((0.5, 0.1), (1.0, 1.0), (2.0, 3.0)):
        got = modulus(2.0 ** 600 * f, phi, alpha, delta, grid=32)
        assert got == 2.0 ** 600 * modulus(f, phi, alpha, delta, grid=32)


@pytest.mark.parametrize("c, alpha, delta", [(1e-300, 1025.0, 3.14159), (1e-300, 1100.0, 3.14159),
                                             (1e-300, 2000.0, 3.14159), (1.0, 2000.0, 1.0)])
def test_modulus_at_orders_beyond_1024_matches_the_single_harmonic_closed_form(c, alpha, delta):
    # 2**alpha passes the double range, the modulus 2**alpha |sin(delta / 2)|**alpha c does not; at
    # delta = 1 every sine term stays below 1, so the rows need no scaling
    want = 10.0 ** (alpha * math.log10(2.0 * abs(math.sin(delta / 2.0))) + math.log10(c))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = modulus(CoeffSeq({1: c}), P2, alpha, delta)
    assert got == pytest.approx(want, rel=1e-11)


def test_large_order_moduli_take_each_delta_alone_and_are_inf_far_past_the_range():
    f = CoeffSeq({1: 1.0, 3: 0.5})
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # |2 sin(h / 2)|**2000 passes the range near delta = 3, but stays below 1 up to delta = 1
        batch = fracdiff._moduli(CoeffSeq({1: 1.0}), P2, 2000.0, [1.0, 3.0], 128, 1e-12)
        assert batch.tolist() == [modulus(CoeffSeq({1: 1.0}), P2, 2000.0, d, grid=128) for d in (1.0, 3.0)]
        assert 0.0 < batch[0] < math.inf and batch[1] == math.inf
        # far beyond 2**1024 the max|k| term alone passes the range; a constant has modulus 0
        assert modulus(f, P2, 1e9, 3.0) == modulus(f, P2, 1e300, 0.5) == math.inf
        assert modulus(CoeffSeq({0: 1.0}), P2, 1e9, 3.0) == 0.0


def _batched_members():
    rng = np.random.default_rng(60)
    lacunary = np.concatenate([2 ** np.arange(7), -(2 ** np.arange(7))])
    poly = np.concatenate([np.arange(1, 65), -np.arange(1, 65)])
    return [CoeffSeq({5: 1.0}), CoeffSeq({0: 1.0}),
            CoeffSeq.from_arrays(lacunary, rng.standard_normal(14) + 1j * rng.standard_normal(14)),
            CoeffSeq.from_arrays(poly, np.abs(poly) ** -1.3 * np.exp(2j * np.pi * rng.uniform(size=128))),
            2.0 ** 1000 * _band(4, 1)]


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
def test_batched_moduli_match_the_single_member_moduli(phi):
    # the two 1-entry members share rows of width 1; the 9-entry one, whose rows are scaled by 2**-e at
    # alpha = 30, is padded with k = 0, c = 0 entries to the 14 of the lacunary one
    members, deltas = _batched_members(), [0.01, 0.1, 0.7, 3.0]
    for alpha in (0.0, 0.5, 1.0, 2.0, 30.0, 1100.0):
        batch = fracdiff._moduli(members, phi, alpha, deltas, 64, 1e-12)
        assert batch.shape == (len(members), len(deltas))
        for f, got in zip(members, batch):
            want = fracdiff._moduli(f, phi, alpha, deltas, 64, 1e-12)
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        if alpha > 0:
            assert not batch[1].any()  # a constant has modulus 0


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
def test_swept_moduli_of_equal_size_members_are_the_single_moduli_bit_for_bit(phi):
    # no member is padded, and a norm depends only on its own row
    rng = np.random.default_rng(8)
    members = []
    for s in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0):
        ks = np.sort(rng.choice(np.arange(-40, 41), 17, replace=False))
        members.append(CoeffSeq.from_arrays(ks, (rng.standard_normal(17) + 1j * rng.standard_normal(17))
                                            * (1.0 + np.abs(ks)) ** -s))
    deltas = [0.01, 0.1, 0.5, 1.0, 3.0]
    for alpha in (1.5, 1100.0):
        batch = fracdiff._moduli(members, phi, alpha, deltas, 64, 1e-12)
        for f, got in zip(members, batch):
            assert got.tolist() == [modulus(f, phi, alpha, d, grid=64) for d in deltas]


# -- shift domain ------------------------------------------------------------------


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
@pytest.mark.parametrize("f", [_band(16, 0), CoeffSeq({1: 1, 97: 0.5, 301: 0.2}), CoeffSeq({1: 1e-300}),
                               CoeffSeq({0: 2, 5: 1e308})], ids=["band16", "three-harmonics", "tiny", "huge"])
def test_modulus_past_pi_is_the_modulus_at_pi_bit_for_bit(phi, f):
    # with integer k the shift norm is even and 2 pi-periodic in h, so [0, pi] holds every shift
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (0.5, 1.0, 2.0, 1100.0):
            at_pi = modulus(f, phi, alpha, math.pi, grid=128)
            for delta in (3.2, 4.0, 100.0, 1e15, 1e308):
                assert modulus(f, phi, alpha, delta, grid=128) == at_pi


@pytest.mark.parametrize("phi", [P2, exp_minus_one()], ids=str)
def test_swept_moduli_past_pi_repeat_the_pi_column(phi):
    deltas = [0.5, math.pi, 7.0, 1e300]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for alpha in (1.0, 1100.0):
            batch = fracdiff._moduli(_batched_members(), phi, alpha, deltas, 64, 1e-12)
            for col in (2, 3):
                assert batch[:, col].tolist() == batch[:, 1].tolist()


# -- shared shift rows -------------------------------------------------------------


def _moduli_with_grid_rows(monkeypatch, f, phi, alpha, deltas, grid):
    """_moduli(...) together with the number of grid rows it solved: the rows passed to _lux_rows before the zoom."""
    rows, at_zoom = [0], []
    solve, zoom = fracdiff._lux_rows, fracdiff._zoom

    def counted(vals, phi, **kw):
        rows[0] += vals.shape[0]
        return solve(vals, phi, **kw)

    def zoom_after_grid(*args):
        at_zoom.append(rows[0])
        return zoom(*args)

    monkeypatch.setattr(fracdiff, "_lux_rows", counted)
    monkeypatch.setattr(fracdiff, "_zoom", zoom_after_grid)
    got = fracdiff._moduli(f, phi, alpha, deltas, grid, 1e-12)
    return got, at_zoom[0]


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
def test_halved_deltas_solve_each_shared_grid_row_once(monkeypatch, phi):
    # the grid of t / 2 holds 32 of the 64 points of the grid of t bit for bit: 64 + 4 * 32 rows, not 5 * 64
    f, deltas = _band(4096, 0), [2.0 ** -j for j in range(3, 8)]
    for alpha, g in ((0.5, f), (1.5, f), (1100.0, 2.0 ** -1000 * f)):
        got, grid_rows = _moduli_with_grid_rows(monkeypatch, g, phi, alpha, deltas, 64)
        assert grid_rows == 192
        assert got.tolist() == [modulus(g, phi, alpha, d, grid=64) for d in deltas]
        assert np.isfinite(got).all()


@pytest.mark.parametrize("phi", [P2, exp_minus_one()], ids=str)
def test_deltas_at_and_past_pi_solve_the_pi_grid_once(monkeypatch, phi):
    f, deltas = CoeffSeq({1: 1, 97: 0.5, 301: 0.2}), [1.0, math.pi, 4.0, 1e15]
    got, grid_rows = _moduli_with_grid_rows(monkeypatch, f, phi, 1.0, deltas, 64)
    # the grids of 1 and pi share only h = 0
    assert grid_rows == np.unique(np.linspace(0.0, [1.0, math.pi], 64)).size == 127
    assert got.tolist() == [modulus(f, phi, 1.0, d, grid=64) for d in (1.0, math.pi, math.pi, math.pi)]


@given(st.integers(min_value=1, max_value=300), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.lists(st.floats(min_value=0.0, max_value=math.pi), min_size=1, max_size=8),
       st.sampled_from([0.3, 0.5, 1.0, 1.5, 2.0, 3.7]))
@settings(max_examples=60, deadline=None)
def test_rows_from_the_distinct_frequency_magnitudes_are_the_full_rows_bit_for_bit(band, seed, hs, alpha):
    # h (-k) = -(h k) exactly and sin is odd, so the -k entries of a row can take the +k sines
    ks = np.arange(-band, band + 1)
    absc = np.abs(np.random.default_rng(seed).standard_normal(ks.size)) / (1.0 + np.abs(ks))
    uk, inv = np.unique(np.abs(ks), return_inverse=True)
    hs = np.array(hs)
    assert np.array_equal(fracdiff._shift_rows(hs, uk, absc, alpha, inv=inv), fracdiff._shift_rows(hs, ks, absc, alpha))


def _real_band(band, seed):
    """A real-valued f on the full band: c_{-k} = conj(c_k), so |c_k| pairs up bit for bit."""
    rng = np.random.default_rng([band, seed])
    ks = np.arange(1, band + 1)
    c = (rng.standard_normal(band) + 1j * rng.standard_normal(band)) / (1.0 + ks)
    return CoeffSeq.from_arrays(np.arange(-band, band + 1), np.concatenate([np.conj(c[::-1]), [0.5], c]))


def _moduli_with_widths(monkeypatch, f, phi, alpha, deltas, grid):
    """_moduli(...) together with the width and pairs of every batch passed to _lux_rows."""
    widths, solve = [], fracdiff._lux_rows

    def recorded(vals, phi, **kw):
        widths.append((vals.shape[1], kw.get("pairs", 0)))
        return solve(vals, phi, **kw)

    monkeypatch.setattr(fracdiff, "_lux_rows", recorded)
    return fracdiff._moduli(f, phi, alpha, deltas, grid, 1e-12), widths


@pytest.mark.parametrize("phi", [P2, exp_minus_one()], ids=str)
def test_a_real_valued_member_solves_the_half_of_its_shift_rows(monkeypatch, phi):
    # k >= 0 only, each k > 0 counted twice: 4097 entries a row, not 8193
    f, deltas = _real_band(4096, 0), [2.0 ** -3, 2.0 ** -5]
    # a second member of the same size, with one unequal pair, puts f in a two-member table, which does not fold
    ks, cs = f.as_arrays()
    other = CoeffSeq.from_arrays(ks, np.where(ks == 7, 2.0 * cs, cs))
    for alpha, g in ((0.5, f), (1.5, f), (1100.0, 2.0 ** -1000 * f)):
        got, widths = _moduli_with_widths(monkeypatch, g, phi, alpha, deltas, 64)
        assert set(widths) == {(4097, 4096)}
        unfolded = fracdiff._moduli([g, 2.0 ** -1000 * other if alpha > 1022 else other], phi, alpha, deltas, 64,
                                    1e-12)[0]
        assert got.tolist() == pytest.approx(unfolded.tolist(), rel=1e-12, abs=0.0)
        assert np.isfinite(got).all()


@pytest.mark.parametrize("phi", [P2, exp_minus_one()], ids=str)
@pytest.mark.parametrize("case", ["unequal-pair", "missing-minus-k"])
def test_a_member_that_does_not_fold_keeps_its_full_shift_rows(monkeypatch, phi, case):
    f = _real_band(64, 1)
    ks, cs = f.as_arrays()
    if case == "unequal-pair":  # one magnitude off by one rounding
        f = CoeffSeq.from_arrays(ks, np.where(ks == -3, cs * (1.0 + 2.0 ** -52), cs))
    else:
        f = CoeffSeq.from_arrays(ks[ks != -5], cs[ks != -5])
    ks, absc = f.as_arrays()[0], np.abs(f.as_arrays()[1])
    batches, solve = [], fracdiff._lux_rows

    def recorded(vals, phi, **kw):
        batches.append((vals.copy(), kw.get("pairs", 0)))
        return solve(vals, phi, **kw)

    monkeypatch.setattr(fracdiff, "_lux_rows", recorded)
    for alpha in (0.5, 1.5):
        batches.clear()
        fracdiff._moduli(f, phi, alpha, [0.5], 64, 1e-12)
        assert {pairs for _, pairs in batches} == {0}
        # the first batch is the grid, one row per point in ascending h
        assert np.array_equal(batches[0][0], fracdiff._shift_rows(np.linspace(0.0, 0.5, 64), ks, absc, alpha))


# -- the screened grid ---------------------------------------------------------------


def _screen_member(kind, rng, band=24):
    """|c_k| of a flat, decaying or sparse member on the full band."""
    ks = np.arange(-band, band + 1)
    if kind == "flat":
        return ks, rng.uniform(0.5, 1.5, ks.size)
    if kind == "decaying":
        return ks, np.abs(rng.standard_normal(ks.size)) / (1.0 + np.abs(ks))
    return ks, np.where(rng.random(ks.size) < 0.15, np.abs(rng.standard_normal(ks.size)), 0.0)


@given(st.sampled_from(["flat", "decaying", "sparse"]), st.integers(min_value=0, max_value=2 ** 32 - 1),
       st.sampled_from([P2, exp_minus_one(), power_log(2)]), st.sampled_from([0.0, 1e-12, 1e-6, 0.3, 0.6]),
       st.sampled_from([0.3, 1.0, 3.0]), st.sampled_from([0.5, 1.0, 2.0]), st.integers(min_value=1, max_value=4))
@settings(max_examples=60, deadline=None)
def test_screened_grid_rows_keep_each_brackets_argmax_and_max_bit_for_bit(kind, seed, phi, rtol, delta, alpha,
                                                                           calls):
    ks, absc = _screen_member(kind, np.random.default_rng(seed))
    # deltas d, d / 2 and d / 4 share grid points, each distinct shift one row, as in _moduli; the rows are
    # split into consecutive calls as blocks split them, a point in another call marked -1
    hs = np.linspace(0.0, delta / 2.0 ** np.arange(3), 65, axis=1)
    shifts, peaks = np.unique(hs, return_inverse=True)
    peaks = peaks.reshape(hs.shape)
    assert shifts.size < hs.size
    rows = fracdiff._shift_rows(shifts, ks, absc, alpha)
    full, got = orlicz._lux_rows(rows, phi, rtol=rtol), np.empty(shifts.size)
    for part in np.array_split(np.arange(shifts.size), calls):
        local = np.full(shifts.size, -1)
        local[part] = np.arange(part.size)
        got[part] = orlicz._lux_rows(rows[part], phi, rtol=rtol, peaks=local[peaks])
    for b in peaks:
        assert got[b].argmax() == full[b].argmax() and got[b].max() == full[b].max()
        assert np.all(full[b][got[b] == -np.inf] < full[b].max())
    solved = got > -np.inf
    assert got[solved].tolist() == full[solved].tolist()
    assert solved.all() or rtol <= 0.5


def test_screening_rows_far_above_the_threshold_raises_no_warning():
    # rows 1 and 2 are not leaders (columns 0 and 3 lead) and lie far above the leaders' best: expm1 of
    # their entries over t overflows, so their pass sums to inf, and they are solved in full
    rows = np.array([[1.0, 0.5], [1e3, 1e3], [2e3, 0.0], [1.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = orlicz._lux_rows(rows, exp_minus_one(), rtol=1e-12, peaks=np.array([[0, 1, 2, 3]]))
    assert got.tolist() == orlicz._lux_rows(rows, exp_minus_one(), rtol=1e-12).tolist()


def test_a_screened_grid_leaves_rows_unsolved_and_keeps_the_modulus(monkeypatch):
    # a band-256 member at grid 64 hands the kernel one call of 64 x 513 entries: most of its grid rows get
    # only the gauge pass, and the modulus has the bits of the unscreened grid's
    solved, grid, solve, lux = [], [], orlicz._lux_solve, fracdiff._lux_rows

    def counted(vals, *args):
        solved.append(vals.shape[0])
        return solve(vals, *args)

    def spy(vals, phi, **kw):
        solved.clear()
        out = lux(vals, phi, **kw)
        if kw.get("peaks") is not None:
            grid.append((vals.shape, sum(solved)))
        return out

    monkeypatch.setattr(orlicz, "_lux_solve", counted)
    monkeypatch.setattr(fracdiff, "_lux_rows", spy)
    f = _band(256, 3)
    got = modulus(f, P2, 1.0, 3.0, grid=64)
    (shape, rows), = grid
    assert shape == (64, 513) and rows < 32
    monkeypatch.setattr(fracdiff, "_lux_rows", lambda vals, phi, peaks=None, **kw: lux(vals, phi, **kw))
    assert modulus(f, P2, 1.0, 3.0, grid=64) == got


def test_a_modulus_at_rtol_zero_zooms_in_a_few_steps(monkeypatch):
    # at rtol = 0 the zoom's stop sqrt(rtol) / (2 max|k|) was 0, and this member's zoom took all 200 steps;
    # the floored tolerance ends it in a few, near the default tolerance's value
    calls, zoom = [], fracdiff._zoom

    def counted(values, *args):
        def spied(*a):
            calls.append(a)
            return values(*a)
        return zoom(spied, *args)

    monkeypatch.setattr(fracdiff, "_zoom", counted)
    f = _band(40, 5)
    got = modulus(f, P2, 1.0, 1.0, rtol=0.0)
    assert 1 <= len(calls) <= 10
    assert got == pytest.approx(modulus(f, P2, 1.0, 1.0), rel=1e-12, abs=0.0)


# -- certified peaks ---------------------------------------------------------------


@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("k", [1, 3, 64, 4093])
def test_a_lone_harmonic_past_its_crest_has_the_modulus_two_to_the_alpha_exactly(k, alpha, p):
    # |2 sin(h k / 2)|**alpha |c| peaks at h = pi / k, where it is 2**alpha, and the power(p) norm of a
    # one-entry row is the entry itself
    for c in (1.0, -1.0, 1j):
        for delta in (math.pi / k, 1.1 * math.pi / k, 1.5 * math.pi / k, 4.0):
            assert modulus(CoeffSeq({k: c}), power(p), alpha, delta) == 2.0 ** alpha


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
@pytest.mark.parametrize("spec, k", [({64: 1}, 64), ({3: 1, -3: 0.5j}, 3), ({0: 2, 5: 1}, 5)],
                         ids=["one-harmonic", "unequal-pair", "with-constant"])
def test_a_member_with_one_frequency_magnitude_solves_one_row_per_peak_shift(monkeypatch, phi, spec, k):
    # every delta peaks at min(delta, pi / k): one _lux_rows call, one row per distinct peak shift, no zoom
    deltas = [0.25 / k, 0.5 / k, math.pi / k, 2.0 / k * math.pi, 3.0, 100.0]
    rows, opened, solve, zoom = [], [], fracdiff._lux_rows, fracdiff._zoom

    def counted(vals, phi, **kw):
        rows.append(vals.shape[0])
        return solve(vals, phi, **kw)

    def zoom_without_values(values, *args, **kw):
        def spied(*a):
            opened.append(a)
            return values(*a)
        return zoom(spied, *args, **kw)

    monkeypatch.setattr(fracdiff, "_lux_rows", counted)
    monkeypatch.setattr(fracdiff, "_zoom", zoom_without_values)
    for alpha in (0.5, 1.5):
        rows.clear()
        got = fracdiff._moduli(CoeffSeq(spec), phi, alpha, deltas, 64, 1e-12)
        assert rows == [3] and not opened
        assert got[2:].tolist() == [got[2]] * 4 and got[0] < got[1] < got[2]


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
def test_inside_the_first_quarter_wave_the_modulus_is_the_norm_of_the_row_at_delta(phi):
    # delta max|k| <= pi: every term rises on [0, delta]; the member is complex, so its rows do not fold
    rng = np.random.default_rng(70)
    ks = np.arange(1, 9)
    absc = np.abs(rng.standard_normal(8) + 1j * rng.standard_normal(8))
    f = CoeffSeq.from_arrays(ks, absc * np.exp(2j * np.pi * rng.uniform(size=8)))
    absc = np.abs(f.as_arrays()[1])
    for alpha in (0.5, 1.0, 2.0):
        for delta in (0.05, math.pi / 8):
            got = modulus(f, phi, alpha, delta)
            assert got == orlicz._lux_rows(fracdiff._shift_rows(np.array([delta]), ks, absc, alpha), phi,
                                           rtol=1e-12)[0]
            dense = orlicz._lux_rows(fracdiff._shift_rows(np.linspace(0.0, delta, 4096), ks, absc, alpha), phi,
                                     rtol=1e-12)
            assert got >= dense.max() - 1e-12


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
def test_swept_moduli_certified_at_some_deltas_are_the_single_moduli_bit_for_bit(phi):
    # the band-4 member is certified up to pi / 4, the 9-entry one up to pi / max|k|, the pair and the
    # harmonic beside a constant at every delta; equal sizes share a table unpadded
    rng = np.random.default_rng(71)
    sparse = np.sort(rng.choice(np.arange(-40, 41), 9, replace=False))
    members = [CoeffSeq.from_arrays(ks, rng.standard_normal(9) + 1j * rng.standard_normal(9))
               for ks in (np.arange(-4, 5), sparse)] + [CoeffSeq({3: 1, -3: 0.5j}), CoeffSeq({0: 2, 5: 1})]
    deltas = [0.05, 0.5, 1.0, 3.0]
    for alpha in (1.5, 1100.0):
        batch = fracdiff._moduli(members, phi, alpha, deltas, 64, 1e-12)
        for f, got in zip(members, batch):
            assert got.tolist() == [modulus(f, phi, alpha, d, grid=64) for d in deltas]


# -- the slope of the shift norm ---------------------------------------------------


def _member_rows(f):
    """(ks, absc, pairs, inv) of f's shift rows as _moduli builds them for a lone member."""
    ks, cs = f.as_arrays()
    ks, absc, pairs = orlicz._fold(ks, np.abs(cs))
    uk, inv = np.unique(np.abs(ks), return_inverse=True)
    return (ks, absc, pairs, None) if pairs or uk.size == ks.size else (uk, absc, 0, inv)


_SLOPE_MEMBERS = {
    "plain": CoeffSeq({1: 0.8 + 0.3j, 2: -0.5j, 4: 1.1, 5: 0.25, 7: -0.6 + 0.2j}),
    "folded": CoeffSeq({-6: 0.3, -3: 1.0 - 0.4j, -1: 0.7j, 0: 2.0, 1: -0.7j, 3: 1.0 + 0.4j, 6: 0.3}),
    "distinct": CoeffSeq({-5: 1.0, -2: 0.3j, 2: 0.7, 3: 1.2, 5: -0.2}),
}


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("kind", list(_SLOPE_MEMBERS))
def test_the_shift_norm_slope_matches_central_differences(phi, alpha, kind):
    # N' from the implicit equation against a 5-point difference of _lux_rows (solved to 1e-14), at shifts
    # at least 0.05 from every sine zero of the support, on plain, folded and distinct-|k| rows
    ks, absc, pairs, inv = _member_rows(_SLOPE_MEMBERS[kind])
    assert (pairs > 0, inv is not None) == {"plain": (False, False), "folded": (True, False),
                                            "distinct": (False, True)}[kind]
    kmax = np.abs(_SLOPE_MEMBERS[kind].as_arrays()[0]).max()
    hs = np.linspace(0.03, 3.1, 200)
    k = np.arange(1, kmax + 1)
    gap = np.abs((hs[:, None] * k / (2 * np.pi) + 0.5) % 1.0 - 0.5) * 2 * np.pi / k
    hs = hs[gap.min(axis=1) >= 0.05][::4]
    norm, slope, rise, smooth = fracdiff._slopes(hs, ks, absc, alpha, phi, 1e-12, 2.0, inv, pairs)
    assert not rise.any()
    zeros = 2 * np.pi / np.abs(ks[ks != 0])
    nxt = (np.floor(hs[:, None] / zeros) + 1) * zeros - hs[:, None]  # to the next sine zero of each |k|
    np.testing.assert_allclose(smooth, nxt.min(axis=1), rtol=1e-12)
    eps = 1e-4
    at = [orlicz._lux_rows(fracdiff._shift_rows(hs + j * eps, ks, absc, alpha, 2.0, inv), phi, rtol=1e-14, pairs=pairs)
          for j in (-2, -1, 1, 2)]
    fd = (at[0] - 8.0 * at[1] + 8.0 * at[2] - at[3]) / (12.0 * eps)
    assert norm.tolist() == orlicz._lux_rows(fracdiff._shift_rows(hs, ks, absc, alpha, 2.0, inv), phi,
                                             pairs=pairs).tolist()
    np.testing.assert_allclose(slope, fd, rtol=1e-8, atol=0.0)


# -- the zoom with slopes ------------------------------------------------------------


def _sweep_members(seed):
    """The four probes and one draw of each family, as a sweep's batched _moduli call holds them."""
    from orliczseq.verify import _PROBES, generator, list_families

    return [f for _, f in _PROBES] + [generator(fam)(np.random.default_rng(seed)) for fam in list_families()]


@pytest.mark.parametrize("phi", [P2, exp_minus_one(), power_log(2)], ids=str)
def test_a_sweep_shaped_batched_modulus_makes_at_most_45_lux_rows_calls(monkeypatch, phi):
    # the grid and each zoom step make one call per size-class table: the halving zoom took 20 steps, 85
    # calls here; with slopes the zoom closes its brackets in a few
    calls, solve = [], fracdiff._lux_rows

    def counted(vals, phi, **kw):
        calls.append(len(vals))
        return solve(vals, phi, **kw)

    monkeypatch.setattr(fracdiff, "_lux_rows", counted)
    fracdiff._moduli(_sweep_members(1), phi, 1.0, 1.0 / np.array([1, 2, 5, 8, 14, 25, 43, 74, 128]), 64, 1e-12)
    assert len(calls) <= 45


def test_an_edge_bracket_with_a_second_hump_in_its_last_cell_finds_it():
    # a lacunary draw whose grid peaks at delta = 1 under power(2) at alpha = 2, while the last grid cell
    # holds a hump 2.5e-4 above N(delta); the norm rises into delta, so the rise bound must not end the
    # zoom there, and the halving path finds the hump
    from orliczseq.verify import generator

    gen, rng = generator("lacunary"), np.random.default_rng(2)
    f = [gen(rng) for _ in range(3)][2]
    ks, cs = f.as_arrays()
    alpha, delta = 2.0, 1.0
    grid = orlicz._lux_rows(fracdiff._shift_rows(np.linspace(0.0, delta, 64), ks, np.abs(cs), alpha), P2)
    dense = orlicz._lux_rows(fracdiff._shift_rows(np.linspace(0.0, delta, 4096), ks, np.abs(cs), alpha), P2)
    assert grid.argmax() == 63 and dense.max() > grid[63] * (1 + 2e-4)
    for got in (modulus(f, P2, alpha, delta, grid=64), fracdiff._moduli(_sweep_members(0) + [f], P2, alpha,
                                                                       [0.5, delta], 64, 1e-12)[-1, 1]):
        assert dense.max() * (1 - 1e-12) <= got <= dense.max() * (1 + 1e-6)

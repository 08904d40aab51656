import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_sparse_seq
from orliczseq import fracdiff, kfunc, orlicz
from orliczseq.approx import best_approx
from orliczseq.fracdiff import modulus
from orliczseq.kfunc import k_functional
from orliczseq.orlicz import (
    OrliczFunction,
    _gauge_inverse,
    conjugate,
    dual_witness,
    exp_minus_one,
    from_spec,
    luxemburg_norm,
    orlicz_norm,
    power,
    power_log,
    validate_gauge,
)
from orliczseq.spectrum import CoeffSeq

ALL_GAUGES = [power(1), power(1.5), power(2), power(3), exp_minus_one(), power_log(2)]


# -- gauge axioms ---------------------------------------------------------------


@pytest.mark.parametrize("phi", ALL_GAUGES, ids=str)
def test_builtin_gauges_pass_axioms(phi):
    validate_gauge(phi)


def test_concave_gauge_rejected():
    broken = OrliczFunction(
        name="sqrt", eval=np.sqrt, right_derivative=lambda t: 0.5 / np.sqrt(np.maximum(t, 1e-300))
    )
    with pytest.raises(ValueError, match="convexity"):
        validate_gauge(broken)


def test_gauge_below_1e6_up_to_1e30_rejected_by_growth_probe():
    # 1e-60 t**2 is convex and nondecreasing, so only the growth probe can reject it
    tiny = OrliczFunction(name="tiny", eval=lambda t: 1e-60 * t ** 2, right_derivative=lambda t: 2e-60 * t)
    with pytest.raises(ValueError, match="grow unboundedly"):
        validate_gauge(tiny)


def test_gauge_inverse_of_a_bounded_gauge_raises():
    # 0.5 t / (1 + t) stays below 1 in floating point too (t / (1 + t) rounds to 1 at 2**53)
    bounded = OrliczFunction(name="bounded", eval=lambda t: 0.5 * t / (1.0 + t),
                             right_derivative=lambda t: 0.5 / (1.0 + t) ** 2)
    with pytest.raises(ValueError, match="cannot invert"):
        _gauge_inverse(bounded, 1.0, "upper")


def test_numeric_conjugate_of_a_linear_gauge_is_inf_beyond_its_slope():
    linear = dataclasses.replace(power(1), closed_form_conjugate=None)
    assert conjugate(linear, 2.0) == math.inf
    assert conjugate(linear, 0.5) == 0.0


def test_from_spec_parses_and_rejects():
    assert from_spec({"family": "power", "p": 2}) is power(2)
    assert from_spec({"family": "exp_minus_one"}) is exp_minus_one()
    assert from_spec({"family": "power_log", "p": 1.5}) is power_log(1.5)
    for bad in (
        {"family": "power"},
        {"family": "power", "p": 2, "q": 1},
        {"family": "exp_minus_one", "p": 2},
        {"family": "cosh"},
        {"family": "power", "p": "two"},
        [],
    ):
        with pytest.raises(ValueError):
            from_spec(bad)


# -- Young conjugate ---------------------------------------------------------------


def test_conjugate_frozen_examples():
    # Grid-search oracle for sup(2u - u^2): scan confirms the closed form v^2/4.
    u = np.arange(0.0, 4.0, 1e-6)
    assert float(np.max(2.0 * u - u ** 2)) == pytest.approx(1.0, abs=1e-10)
    assert conjugate(power(2), 2.0) == pytest.approx(1.0, abs=1e-12)

    for phi in ALL_GAUGES:
        assert conjugate(phi, 0.0) == 0.0

    assert conjugate(power(1), 0.5) == 0.0
    assert math.isinf(conjugate(power(1), 2.0))
    # brute force: u*(v-1) grows without bound along the grid for v = 2
    u = np.geomspace(1.0, 1e12, 1000)
    assert np.all(np.diff(u * 2.0 - u) > 0)


def test_conjugate_rejects_negative():
    with pytest.raises(ValueError):
        conjugate(power(2), -0.1)


@pytest.mark.parametrize("v", [0.3, 1.0, 2.5, 7.0])
def test_numeric_conjugate_matches_closed_forms(v):
    for phi in (power(2), power(3), exp_minus_one()):
        numeric = dataclasses.replace(phi, closed_form_conjugate=None)
        assert conjugate(numeric, v) == pytest.approx(conjugate(phi, v), rel=1e-9, abs=1e-9)


def test_power_log_conjugate_vs_grid_oracle():
    phi = power_log(2)
    for v in (0.5, 2.0, 6.0):
        u = np.linspace(0.0, 30.0, 1_500_001)
        grid = float(np.max(u * v - u ** 2 * np.log1p(u)))
        assert conjugate(phi, v) == pytest.approx(grid, rel=1e-7, abs=1e-7)


@pytest.mark.parametrize("phi", ALL_GAUGES, ids=str)
def test_young_inequality_on_grid(phi):
    us = np.geomspace(1e-3, 10.0, 25)
    vs = np.geomspace(1e-3, 10.0, 25)
    for u in us:
        mu = float(phi.eval(u))
        for v in vs:
            mv = conjugate(phi, float(v))
            if math.isinf(mv):
                continue
            assert u * v <= mu + mv + 1e-9


# -- Luxemburg norm ------------------------------------------------------------------


def test_luxemburg_frozen_examples():
    assert luxemburg_norm(power(2), CoeffSeq()) == 0.0
    assert luxemburg_norm(power(2), CoeffSeq({1: 3, 2: 4})) == pytest.approx(5.0, abs=1e-10)
    assert luxemburg_norm(power(1), CoeffSeq({-1: 1, 0: 2, 3: 3})) == pytest.approx(6.0, abs=1e-10)


def test_luxemburg_rejects_non_finite():
    with pytest.raises(ValueError):
        luxemburg_norm(power(2), CoeffSeq({1: complex(math.inf, 0)}))
    with pytest.raises(ValueError):
        luxemburg_norm(power(2), CoeffSeq({1: complex(0, math.nan)}))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_lp_reduction(p):
    rng = np.random.default_rng(42)
    for _ in range(25):
        f = random_sparse_seq(rng, band=32, max_terms=16, allow_constant=True)
        _, cs = f.as_arrays()
        expected = float(np.sum(np.abs(cs) ** p) ** (1.0 / p))
        assert luxemburg_norm(power(p), f, rtol=1e-13) == pytest.approx(expected, abs=1e-10)


@given(st.floats(min_value=1e-6, max_value=1e6), st.integers(min_value=0, max_value=5))
@settings(max_examples=40, deadline=None)
def test_homogeneity(scale, seed):
    rng = np.random.default_rng(seed)
    f = random_sparse_seq(rng, band=16, max_terms=6)
    for phi in (power(2), exp_minus_one(), power_log(2)):
        a = luxemburg_norm(phi, f)
        b = luxemburg_norm(phi, scale * f)
        assert b == pytest.approx(scale * a, rel=1e-10)


@given(st.integers(min_value=0, max_value=30))
@settings(max_examples=30, deadline=None)
def test_triangle_inequality(seed):
    rng = np.random.default_rng(seed)
    f = random_sparse_seq(rng, band=16, max_terms=6)
    g = random_sparse_seq(rng, band=16, max_terms=6)
    for phi in (power(1.5), exp_minus_one(), power_log(2)):
        assert luxemburg_norm(phi, f + g) <= (
            luxemburg_norm(phi, f) + luxemburg_norm(phi, g) + 1e-10
        )


# -- Orlicz norm ----------------------------------------------------------------------


def test_orlicz_norm_frozen_examples():
    assert orlicz_norm(power(2), CoeffSeq()) == 0.0
    # brute-force oracle: max lam subject to lam^2 / 4 <= 1 is lam = 2
    lam = np.linspace(0.0, 2.0, 2_000_001)
    assert float(np.max(lam[lam ** 2 / 4 <= 1.0])) == pytest.approx(2.0, abs=1e-6)
    assert orlicz_norm(power(2), CoeffSeq({1: 1})) == pytest.approx(2.0, abs=1e-10)
    # linear gauge: the dual constraint forces lam_k <= 1, so the norm is l1
    assert orlicz_norm(power(1), CoeffSeq({1: 1, 2: 2})) == pytest.approx(3.0, abs=1e-10)


def test_norm_sandwich_across_gauges():
    rng = np.random.default_rng(5)
    for phi in ALL_GAUGES:
        for _ in range(12):
            f = random_sparse_seq(rng, band=24, max_terms=10, allow_constant=True)
            lux = luxemburg_norm(phi, f)
            dual = orlicz_norm(phi, f)
            ratio = dual / lux
            assert 1.0 - 1e-9 <= ratio <= 2.0 + 1e-9, (phi, ratio)


def test_dual_feasible_weights_never_beat_the_norm():
    rng = np.random.default_rng(9)
    for phi in (power(2), power(3), exp_minus_one(), power_log(2)):
        f = random_sparse_seq(rng, band=16, max_terms=8)
        _, cs = f.as_arrays()
        a = np.abs(cs)
        dual = orlicz_norm(phi, f)
        for _ in range(20):
            lam = rng.uniform(0.1, 3.0, size=a.size)
            # scale down until feasible; conjugates are convex with conj(0)=0
            while sum(conjugate(phi, float(l)) for l in lam) > 1.0:
                lam *= 0.5
            assert float(np.dot(lam, a)) <= dual + 1e-8


# -- dual witness ---------------------------------------------------------------------


def test_dual_witness_rejects_zero():
    with pytest.raises(ValueError):
        dual_witness(power(2), CoeffSeq())


def test_dual_witness_single_harmonics():
    # linear gauge: unit-dual-norm scaling leaves the coefficient at 1, p(1) = 1
    assert dual_witness(power(1), CoeffSeq({1: 1})) == [(1, 1.0)]
    # quadratic gauge: dual norm 2, scaled coefficient 1/2, p(1/2) = 1
    assert dual_witness(power(2), CoeffSeq({1: 1})) == [(1, pytest.approx(1.0, abs=1e-9))]
    # the right derivative itself matches the differential oracle p(t) = 2t
    assert float(power(2).right_derivative(1.0)) == pytest.approx(2.0, abs=0)


@pytest.mark.parametrize("phi", [power(1.5), power(2), power(3), exp_minus_one(), power_log(2)], ids=str)
def test_dual_witness_guarantees(phi):
    rng = np.random.default_rng(17)
    for _ in range(8):
        f = random_sparse_seq(rng, band=16, max_terms=8)
        dual = orlicz_norm(phi, f)
        scaled = f / dual
        pairs = dual_witness(phi, f)
        _, cs = scaled.as_arrays()
        a = np.abs(cs)
        lam = np.array([l for _, l in pairs])
        # Young equality term by term at lam = p(u)
        for u, l in zip(a, lam):
            mv = conjugate(phi, float(l))
            assert float(l * u) == pytest.approx(float(phi.eval(u)) + mv, abs=1e-7)
        # feasibility and optimality against the dual norm of the scaled sequence
        assert sum(conjugate(phi, float(l)) for l in lam) <= 1.0 + 1e-7
        assert float(np.dot(lam, a)) <= orlicz_norm(phi, scaled) + 1e-7


@pytest.mark.parametrize("family", [power, power_log], ids=["power", "power_log"])
@pytest.mark.parametrize("p", [1024.0, 1e308])
def test_huge_exponents_raise_value_error_naming_the_gauge(family, p):
    with pytest.raises(ValueError, match=family.__name__):
        family(p)


def _dense_dual(phi, a):
    """inf over kappa of (1 + sum M(kappa a)) / kappa by a log scan, then a local linear scan."""

    def g(kappa):
        with np.errstate(over="ignore", invalid="ignore"):
            return (1.0 + phi.eval(np.outer(kappa, a)).sum(axis=1)) / kappa

    kappa = np.geomspace(1e-12, 1e12, 48_001)
    i = int(np.argmin(g(kappa)))
    kappa = np.linspace(kappa[i - 1], kappa[i + 1], 20_001)
    return float(np.min(g(kappa)))


@pytest.mark.parametrize("entries", [{1: 1e-3, 2: 1e3}, {1: 700}, {1: 0.5, -3: 40.0, 7: 2.0}])
def test_orlicz_norm_overflowing_inside_the_bracket_matches_a_dense_scan(entries):
    # exp(kappa |c|) overflows for most of [0, 1e18 / ||f||]; no warning may escape
    phi, f = exp_minus_one(), CoeffSeq(entries)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = orlicz_norm(phi, f)
    assert got == pytest.approx(_dense_dual(phi, np.abs(f.as_arrays()[1])), rel=1e-9)
    if entries == {1: 700}:
        assert got == pytest.approx(700.0 * math.e, rel=1e-12)  # one term: min of e^(kappa c) / kappa


@pytest.mark.parametrize("phi", ALL_GAUGES, ids=str)
def test_orlicz_norm_of_a_sequence_below_1e_292_is_finite(phi):
    # the old kappa cap 1e18 / ||f|| overflowed to inf here and the norm came out nan
    f = CoeffSeq({1: 1e-300, 3: 5e-301})
    got = orlicz_norm(phi, f)
    assert got == pytest.approx(1e-300 * orlicz_norm(phi, CoeffSeq({1: 1.0, 3: 0.5})), rel=1e-10)
    if phi == power(2):
        assert got == pytest.approx(2.0 * math.hypot(1e-300, 5e-301), rel=1e-10)


def _counting(phi):
    """(copy of phi, calls): the copy counts its eval and right_derivative calls in calls[0]."""
    calls = [0]

    def counted(fn):
        def inner(t):
            calls[0] += 1
            return fn(t)
        return inner

    g = dataclasses.replace(phi, eval=counted(phi.eval), right_derivative=counted(phi.right_derivative))
    return g, calls


@pytest.mark.parametrize("phi", [power(1), power(2), exp_minus_one(), power_log(2)], ids=str)
@pytest.mark.parametrize("support", [9, 8193])
def test_orlicz_norm_takes_few_gauge_calls_beyond_its_luxemburg_solve(phi, support):
    rng = np.random.default_rng(support)
    ks = np.arange(support) - support // 2
    f = CoeffSeq.from_arrays(ks, rng.standard_normal(support) + 1j * rng.standard_normal(support))
    g, calls = _counting(phi)
    luxemburg_norm(g, f)  # fills the gauge-inverse cache, which both solves below then share
    calls[0] = 0
    dual = orlicz_norm(g, f)
    in_dual = calls[0]
    calls[0] = 0
    luxemburg_norm(g, f)
    assert in_dual - calls[0] <= 30
    assert dual == orlicz_norm(phi, f)


# -- Luxemburg bracket -----------------------------------------------------------


def _bracket_rows(n):
    """Four rows of n entries: flat, 1/k, one dominant entry among tiny ones, 1/k with zeros between."""
    k = np.arange(1.0, n + 1.0)
    dominant = np.full(n, 1e-9)
    dominant[n // 2] = 1.0
    return [np.ones(n), 1.0 / k, dominant, np.where(k % 2 == 1, 1.0 / k, 0.0)]


@pytest.mark.parametrize("phi", [power(1), power(1.5), power(2), power(3), exp_minus_one(), power_log(1),
                                 power_log(2)], ids=str)
def test_luxemburg_bracket_holds_the_root_within_a_factor_nnz(phi, monkeypatch):
    brackets = []
    bisect = orlicz._bisect

    def spy(above, lo, hi, rtol):
        if np.ndim(lo):  # the numeric gauge inverse bisects scalars
            brackets.append((lo, hi))
        return bisect(above, lo, hi, rtol)

    monkeypatch.setattr(orlicz, "_bisect", spy)
    rows = [r for n in (1, 2, 9, 129, 1025) for r in _bracket_rows(n)]
    vals = np.zeros((len(rows), 1025))
    for i, r in enumerate(rows):
        vals[i, :r.size] = r
    orlicz._lux_rows(vals, phi)
    (lo, hi), = brackets
    def sums(a):
        return np.asarray(phi.eval(vals / a[:, None]), dtype=float).sum(axis=1)

    assert np.all(sums(lo) >= 1.0 - 1e-12)
    assert np.all(sums(hi) <= 1.0 + 1e-12)
    assert np.all(hi / lo <= np.count_nonzero(vals, axis=1) * (1.0 + 1e-12))


def test_norm_solves_invert_the_gauge_only_at_one(monkeypatch):
    asked = []
    inverse = orlicz._gauge_inverse

    def spy(phi, y, side):
        asked.append(y)
        return inverse(phi, y, side)

    monkeypatch.setattr(orlicz, "_gauge_inverse", spy)
    monkeypatch.setattr(kfunc, "_gauge_inverse", spy)
    f = random_sparse_seq(np.random.default_rng(7), band=16, max_terms=12)
    for phi in (power(2), exp_minus_one(), power_log(2)):
        luxemburg_norm(phi, f)
        orlicz_norm(phi, f)
        best_approx(f, phi, 3)
        modulus(f, phi, 1.5, 0.3, grid=16)
        k_functional(f, phi, 1.0, 0.2, polish=True)
    assert asked and set(asked) == {1.0}


_FLAT = CoeffSeq.from_arrays(np.arange(8193) - 4096, np.ones(8193))


@pytest.mark.parametrize("phi, most", [(exp_minus_one(), 44), (power(2), 48)], ids=str)
def test_flat_8193_entry_norm_takes_few_gauge_calls(phi, most):
    g, calls = _counting(phi)
    assert luxemburg_norm(g, _FLAT) == luxemburg_norm(phi, _FLAT)
    assert calls[0] <= most


@pytest.mark.parametrize("phi", [power(2), exp_minus_one(), power_log(2)], ids=str)
def test_orlicz_norm_of_8193_entries_takes_at_most_30_gauge_calls(phi):
    rng = np.random.default_rng(8193)
    f = CoeffSeq.from_arrays(np.arange(8193) - 4096, rng.standard_normal(8193) + 1j * rng.standard_normal(8193))
    g, calls = _counting(phi)
    _gauge_inverse(g, 1.0, "lower")  # the numeric inverse of power_log is cached per gauge
    calls[0] = 0
    assert orlicz_norm(g, f) == orlicz_norm(phi, f)
    assert calls[0] <= 30


# -- near the double limit -------------------------------------------------------


def _no_warnings(fn, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return fn(*args)


@pytest.mark.parametrize("phi", [power(2), power(3), power_log(2)], ids=str)
def test_luxemburg_norm_is_finite_where_only_the_coefficient_sum_overflows(phi):
    got = _no_warnings(luxemburg_norm, phi, CoeffSeq({1: 1e308, 2: 1e308}))
    assert got == pytest.approx(1e308 * luxemburg_norm(phi, CoeffSeq({1: 1.0, 2: 1.0})), rel=1e-12)


def test_orlicz_norm_is_finite_where_only_the_coefficient_sum_overflows():
    got = _no_warnings(orlicz_norm, power(3), CoeffSeq({k: 1e307 for k in range(1, 101)}))
    ones = CoeffSeq({k: 1.0 for k in range(1, 101)})
    assert got == pytest.approx(1e307 * orlicz_norm(power(3), ones), rel=1e-12)


@pytest.mark.parametrize("phi, f", [(power(2), CoeffSeq({1: 1.7e308, 2: 1.7e308})),
                                    (exp_minus_one(), CoeffSeq({1: 1e308, 2: 1e308}))], ids=str)
def test_norms_beyond_the_double_range_are_inf_without_a_warning(phi, f):
    assert _no_warnings(luxemburg_norm, phi, f) == math.inf
    assert _no_warnings(orlicz_norm, phi, f) == math.inf


@pytest.mark.parametrize("phi", [power(2), power_log(2)], ids=str)
@pytest.mark.parametrize("k", [-1000, 0, 1000, 1022])
def test_luxemburg_norm_is_homogeneous_under_powers_of_two(phi, k):
    f = CoeffSeq({1: 3.0, 5: 1.0, 9: 0.5})
    got, want = luxemburg_norm(phi, 2.0 ** k * f), 2.0 ** k * luxemburg_norm(phi, f)
    if k <= 1000:
        assert got == want  # the bracket and every step scale exactly
    else:
        assert got == pytest.approx(want, rel=1e-12)  # the upper end is clamped to the double range


def _raise_rows(n, rng):
    """Rows of n entries: flat, 1/k, one dominant entry among 1e-9s and uniform draws, at three scales."""
    k = np.arange(1.0, n + 1.0)
    dominant = np.full(n, 1e-9)
    dominant[n // 2] = 1.0
    rows = np.array([np.ones(n), 1.0 / k, dominant, rng.uniform(size=n)])
    return np.concatenate([rows, 1e-300 * rows, 1e300 * rows])


@pytest.mark.parametrize("phi", [power(1), power(1.5), power(2), power(3), exp_minus_one(), power_log(1),
                                 power_log(2)], ids=str)
def test_luxemburg_steps_raise_no_floating_point_error(phi):
    # every bisection point a >= max w / M^-1(1) keeps w_k / a <= M^-1(1), so no term can overflow
    rng = np.random.default_rng(11)
    for n in (1, 2, 9, 129, 8193):
        vals = _raise_rows(n, rng)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            got = orlicz._lux_rows(vals, phi)
        assert np.all(np.isfinite(got) & (got > 0))


@pytest.mark.parametrize("phi", [power(1), power(1.5), power(2), power(3), exp_minus_one(), power_log(1),
                                 power_log(2)], ids=str)
@pytest.mark.parametrize("n", [9, 129, 8193])
def test_luxemburg_rows_close_in_at_most_8_newton_steps(phi, n, monkeypatch):
    # plain bisection took 40-48 steps per batch here
    steps = []
    bisect = orlicz._bisect

    def spy(above, lo, hi, rtol):
        def counted(s):
            steps[-1] += 1
            return above(s)

        steps.append(0)
        return bisect(counted, lo, hi, rtol)

    monkeypatch.setattr(orlicz, "_bisect", spy)
    rows = np.array(_raise_rows(n, np.random.default_rng(n))[:4])
    for vals in [*rows[:, None, :], rows]:  # each row alone, then all four as one batch
        got = orlicz._lux_rows(vals, phi)
        assert steps[-1] <= 8
        assert np.all(np.abs(np.asarray(phi.eval(vals / got[:, None])).sum(axis=1) - 1.0) <= 1e-10)


def test_a_row_whose_gauge_sum_underflows_at_the_midpoint_raises_no_floating_point_error():
    # at the first midpoint sum_k (1 / a)**100 is 0, so that step has no Newton guess
    with np.errstate(over="raise", invalid="raise", divide="raise"):
        got = orlicz._lux_rows(np.ones((1, 8193)), power(100))
    assert got[0] == pytest.approx(8193 ** (1 / 100), rel=1e-12)


def test_conjugate_at_zero_is_exactly_zero_on_the_numeric_route():
    for phi in (dataclasses.replace(power(1), closed_form_conjugate=None),
                dataclasses.replace(power(2), closed_form_conjugate=None), power_log(2)):
        got = conjugate(phi, 0.0)
        assert got == 0.0 and not math.copysign(1.0, got) < 0


@pytest.mark.parametrize("phi", [power(2), exp_minus_one(), power_log(2)], ids=str)
def test_each_row_of_a_batch_gets_the_bits_it_gets_alone(phi):
    # a bracket that has closed keeps its ends while the other rows of its batch still step
    rng = np.random.default_rng(1)
    rows = np.abs(rng.standard_normal((40, 64))) * np.arange(1, 65) ** -rng.uniform(0.0, 3.0, (40, 1))
    alone = [orlicz._lux_rows(r[None, :], phi)[0] for r in rows]
    assert orlicz._lux_rows(rows, phi).tolist() == alone


def test_window_norms_and_moduli_do_not_depend_on_the_block_size(monkeypatch):
    rng = np.random.default_rng(2)
    members = []
    for n in (300, 65, 65, 65):
        ks = np.sort(rng.choice(np.arange(-200, 201), n, replace=False))
        members.append(CoeffSeq.from_arrays(ks, (rng.standard_normal(n) + 1j * rng.standard_normal(n))
                                            * (1.0 + np.abs(ks)) ** -2.0))
    lo, deltas = np.arange(0, 200), [0.1, 1.0, 3.0]
    for phi in (power(2), exp_minus_one(), power_log(2)):
        windows = orlicz._window_norms(members[0], phi, lo, np.inf, 1e-12).tolist()
        moduli = [fracdiff._moduli(members[1:], phi, a, deltas, 64, 1e-12).tolist() for a in (1.0, 1100.0)]
        with monkeypatch.context() as m:
            m.setattr(orlicz, "_BLOCK_ENTRIES", 2 ** 12)  # blocks of 13 window rows, of 63 shift rows
            assert orlicz._window_norms(members[0], phi, lo, np.inf, 1e-12).tolist() == windows
            for a, want in zip((1.0, 1100.0), moduli):
                assert fracdiff._moduli(members[1:], phi, a, deltas, 64, 1e-12).tolist() == want



@pytest.mark.parametrize("phi", [power(1.5), power(2), power(3)], ids=str)
def test_flat_random_rows_close_in_three_gauge_evaluations_under_a_power(phi):
    # the exact Newton guess can land one rounding short of the root; the nudge then straddles it
    rows = np.random.default_rng(0).uniform(size=(16, 129))
    g, calls = _counting(phi)
    assert orlicz._lux_rows(rows, g).tolist() == orlicz._lux_rows(rows, phi).tolist()
    assert calls[0] == 6  # three steps, each one eval and one right_derivative pass


@pytest.mark.parametrize("phi", [power(2), exp_minus_one()], ids=str)
def test_one_entry_rows_are_solved_without_evaluating_the_gauge(phi):
    # under a closed-form inverse the bracket of a lone entry w is [w / M^-1(1), w / M^-1(1)]
    w = np.array([0.7, 3.0, 1e-300, 1e300, 2.0 ** -1074])
    g, calls = _counting(phi)
    got = orlicz._lux_rows(w[:, None], g)
    assert calls[0] == 0
    assert got.tolist() == (w / phi.closed_form_inverse(1.0)).tolist()


@pytest.mark.parametrize("phi", [power(2), exp_minus_one(), power_log(2)], ids=str)
@pytest.mark.parametrize("zero", [True, False], ids=["with-k0", "without-k0"])
def test_folded_rows_match_their_doubled_rows(phi, zero):
    # the last pairs columns count twice: the row [w_p .. w_1, (w_0,) w_1 .. w_p] halved
    rng = np.random.default_rng(62)
    half = np.abs(rng.standard_normal((12, 33))) * np.arange(1, 34) ** -rng.uniform(0.0, 3.0, (12, 1))
    half[1] *= 1e-300
    half[2] *= 1e300
    half[3, 2:] = 0.0  # k = 0 and one pair, or one pair alone
    half[4] = 0.0
    half = half if zero else half[:, 1:]
    pairs = 32
    full = np.hstack([half[:, :-pairs - 1:-1], half])
    assert full.shape[1] == (65 if zero else 64)
    for rtol in (1e-12, 1e-14):
        # each is the midpoint of a bracket of width rtol hi about the same root
        folded, doubled = orlicz._lux_rows(half, phi, rtol=rtol, pairs=pairs), orlicz._lux_rows(full, phi, rtol=rtol)
        assert folded.tolist() == pytest.approx(doubled.tolist(), rel=max(rtol, 1e-13), abs=0.0)
        assert folded[4] == doubled[4] == 0.0
    alone = [orlicz._lux_rows(r[None, :], phi, pairs=pairs)[0] for r in half]
    assert orlicz._lux_rows(half, phi, pairs=pairs).tolist() == alone


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_lux_rows_ends_bracket_the_closed_form_lp_norm(p):
    # random, folded and near-limit rows: lo <= ||row||_p <= hi, hi = inf at the clamp, and the midpoint is
    # the default result bit for bit; the closed form is allowed 4 ulps, as the bracket's ends meet it there
    rng = np.random.default_rng(63)
    rows = np.abs(rng.standard_normal((10, 33))) * np.arange(1, 34) ** -rng.uniform(0.0, 3.0, (10, 1))
    rows[1] *= 1e-300
    rows[2] *= 1e300
    rows[3] = np.finfo(float).max * (rng.uniform(size=33) > 0.5)
    rows[4, 1:] = 0.0
    rows[5] = 0.0
    for pairs in (0, 16):
        w = np.hstack([rows, rows[:, -pairs:]]) if pairs else rows  # the doubled columns, for the closed form
        top = np.maximum(w.max(axis=1), np.finfo(float).tiny)
        with np.errstate(over="ignore"):
            exact = top * ((w / top[:, None]) ** p).sum(axis=1) ** (1 / p)
        slack = 1 + 4 * np.finfo(float).eps
        for rtol in (1e-12, 1e-9):
            lo, hi = orlicz._lux_rows(rows, power(p), rtol=rtol, pairs=pairs, ends=True)
            assert np.all(lo <= exact * slack) and np.all(exact <= hi * slack)
            assert np.isinf(hi[3]) and np.isinf(exact[3]) and np.isfinite(lo[3])
            assert np.all((hi - lo <= rtol * hi) | np.isinf(hi))
            with np.errstate(over="ignore"):
                mid = 0.5 * lo + 0.5 * hi
            assert mid.tolist() == orlicz._lux_rows(rows, power(p), rtol=rtol, pairs=pairs).tolist()


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_lux_rows_at_rtol_zero_meet_the_lp_norm_within_4_ulps(p):
    # below a few ulps no Newton nudge can cross the root: the bisection floors its tolerance there instead
    # of returning the midpoint of a bracket it could not close
    rng = np.random.default_rng(64)
    rows = np.abs(rng.standard_normal((6, 33))) * np.arange(1, 34) ** -rng.uniform(0.0, 3.0, (6, 1))
    exact = ((rows ** p).sum(axis=1)) ** (1 / p)
    got = orlicz._lux_rows(rows, power(p), rtol=0.0)
    assert np.all(np.abs(got - exact) <= 4 * np.spacing(exact))
    lo, hi = orlicz._lux_rows(np.array([[3.0, 4.0]]), power(2), rtol=0.0, ends=True)
    assert lo[0] <= 5.0 <= hi[0] and hi[0] - lo[0] <= 4 * np.spacing(5.0)


def test_the_dual_norm_and_k_polish_zooms_at_rtol_zero_end_in_a_few_steps(monkeypatch):
    # at rtol = 0 their stop, sqrt(rtol), was 0, and each zoom took all 200 steps; the floored tolerance
    # ends them about where rtol = 1e-12 does
    calls = []

    def counting(zoom):
        def counted(values, *args, **kw):
            def spied(*a):
                calls.append(a)
                return values(*a)
            return zoom(spied, *args, **kw)
        return counted

    monkeypatch.setattr(orlicz, "_zoom", counting(orlicz._zoom))
    monkeypatch.setattr(kfunc, "_zoom", counting(kfunc._zoom))
    rng = np.random.default_rng(5)
    ks = np.arange(-40, 41)
    f = CoeffSeq.from_arrays(ks, (rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)) / (1 + abs(ks)))
    for solve, budget in ((lambda r: orlicz_norm(power(2), f, rtol=r), 40),
                          (lambda r: k_functional(f, power(2), 1.0, 0.1, 4, rtol=r).value, 20)):
        calls.clear()
        got = solve(0.0)
        assert 1 <= len(calls) <= budget
        assert got == pytest.approx(solve(1e-12), rel=1e-12, abs=0.0)

import io
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczseq.spectrum import (
    CoeffSeq,
    PsiWeights,
    analyze_samples,
    evaluate,
    fourier_sum,
    max_abs_diff,
    psi_derivative,
    read_coeffs,
    tail,
    write_coeffs,
)


def test_canonical_form_drops_zeros_and_sums_duplicates():
    f = CoeffSeq([(1, 1.0), (1, -1.0), (2, 3.0), (3, 0.0)])
    assert f.support == (2,)
    assert f[2] == 3.0
    assert f[1] == 0j
    assert len(f) == 1


def test_non_integer_frequency_rejected():
    with pytest.raises(ValueError):
        CoeffSeq({1.5: 1.0})
    assert CoeffSeq({2.0: 1.0}).support == (2,)


def test_immutability():
    f = CoeffSeq({1: 1.0})
    with pytest.raises(AttributeError):
        f._entries = {}


coeff_lists = st.lists(
    st.tuples(
        st.integers(min_value=-40, max_value=40),
        st.complex_numbers(max_magnitude=1e6, allow_nan=False, allow_infinity=False),
    ),
    max_size=12,
)


@given(coeff_lists, coeff_lists)
@settings(max_examples=60, deadline=None)
def test_arithmetic_preserves_canonical_form(a, b):
    f, g = CoeffSeq(a), CoeffSeq(b)
    for seq in (f + g, f - g, 2.5 * f, -g):
        assert all(v != 0 for _, v in seq.items())
    assert (f + g) - g == CoeffSeq({k: (f + g)[k] - g[k] for k in set(f.support) | set(g.support)})


def test_fourier_sum_truncates_and_retains():
    f = CoeffSeq({0: 1, 3: 1})
    assert fourier_sum(f, 2) == CoeffSeq({0: 1})
    assert fourier_sum(f, 3) == f
    assert fourier_sum(CoeffSeq(), 5) == CoeffSeq()


def test_fourier_sum_tail_split_is_exact():
    rng = np.random.default_rng(11)
    ks = rng.choice(np.arange(-20, 21), size=9, replace=False)
    f = CoeffSeq(zip(ks.tolist(), rng.standard_normal(9).tolist()))
    low, high = fourier_sum(f, 7), tail(f, 8)
    assert set(low.support) & set(high.support) == set()
    assert low + high == f


def test_psi_derivative_examples():
    assert psi_derivative(CoeffSeq({0: 5}), PsiWeights.fractional(1.0)) == CoeffSeq()
    assert psi_derivative(CoeffSeq({1: 1}), PsiWeights.fractional(2.7)) == CoeffSeq({1: 1})
    g = psi_derivative(CoeffSeq({2: 1}), PsiWeights.fractional(1.0))
    assert abs(g[2] - 2.0) < 1e-15


def test_psi_derivative_inversion_is_exact():
    rng = np.random.default_rng(7)
    ks = [k for k in rng.choice(np.arange(-30, 31), size=8, replace=False).tolist() if k != 0]
    f = CoeffSeq(zip(ks, (rng.standard_normal(len(ks)) + 1j * rng.standard_normal(len(ks))).tolist()))
    psi = PsiWeights.fractional(1.3)
    g = psi_derivative(f, psi)
    for k in f.support:
        assert abs(psi.weight(k) * g[k] - f[k]) <= 1e-14 * abs(f[k])


def test_psi_explicit_rejects_zero_and_missing():
    with pytest.raises(ValueError):
        PsiWeights.explicit({1: 0.0})
    psi = PsiWeights.explicit({1: 1.0})
    with pytest.raises(ValueError):
        psi.weight(2)
    with pytest.raises(ValueError):
        psi.weight(0)


def test_psi_band_extrema():
    psi = PsiWeights.fractional(1.5)
    assert psi.min_abs_band(4) == pytest.approx(4.0 ** -1.5, abs=0)
    assert psi.max_abs_from(4, support=(10, -6)) == pytest.approx(4.0 ** -1.5, abs=0)
    ex = PsiWeights.explicit({1: 2.0, -1: 2.0, 2: 0.5, -2: 0.5, 5: 3.0})
    assert ex.min_abs_band(2) == 0.5
    assert ex.max_abs_from(2, support=(2, 5)) == 3.0
    assert ex.max_abs_from(6, support=(2, 5)) == 0.0


def test_evaluate_examples():
    assert evaluate(CoeffSeq({0: 2 + 1j}), 0.37) == 2 + 1j
    assert evaluate(CoeffSeq({1: 1}), 0.0) == pytest.approx(1.0)
    v = evaluate(CoeffSeq({1: 1, -1: 1}), math.pi / 3)
    assert v == pytest.approx(2 * math.cos(math.pi / 3), abs=1e-14)


def test_analyze_constant_and_harmonics():
    got = analyze_samples([3.5] * 7)
    assert max_abs_diff(got, CoeffSeq({0: 3.5})) < 1e-12

    xs = 2 * np.pi * np.arange(8) / 8
    got = analyze_samples(np.exp(1j * xs))
    assert max_abs_diff(got, CoeffSeq({1: 1})) < 1e-12
    got = analyze_samples(2 * np.cos(xs))
    assert max_abs_diff(got, CoeffSeq({1: 1, -1: 1})) < 1e-12


def test_analyze_rejects_empty():
    with pytest.raises(ValueError):
        analyze_samples([])


def test_analysis_inverts_synthesis_in_band():
    rng = np.random.default_rng(3)
    ks = rng.choice(np.arange(-6, 7), size=5, replace=False)
    f = CoeffSeq(zip(ks.tolist(), (rng.standard_normal(5) + 1j * rng.standard_normal(5)).tolist()))
    n = 16
    samples = [evaluate(f, 2 * math.pi * j / n) for j in range(n)]
    assert max_abs_diff(analyze_samples(samples), f) < 1e-12


def test_jsonl_round_trip_sorted_ascending():
    f = CoeffSeq({3: 1 + 2j, -5: 0.25, 0: -1.0})
    buf = io.StringIO()
    write_coeffs(f, buf)
    lines = buf.getvalue().strip().split("\n")
    assert [json.loads(l)["k"] for l in lines] == [-5, 0, 3]
    assert read_coeffs(io.StringIO(buf.getvalue())) == f


def test_written_lines_are_the_bytes_of_json_dumps_per_entry():
    f = CoeffSeq([(2**63 - 1, complex(-0.0, 5e-324)), (-7, complex(1.7976931348623157e308, -0.0)),
                  (0, complex(-5e-324, -1.7976931348623157e308)), (-(2**63 - 1), complex(0.1, 1e-300))])
    buf = io.StringIO()
    write_coeffs(f, buf)
    assert buf.getvalue() == "".join(json.dumps({"k": k, "re": c.real, "im": c.imag}) + "\n"
                                     for k, c in f.items())
    assert len(buf.getvalue().splitlines()) == 4


def test_jsonl_reader_drops_exact_zeros():
    src = io.StringIO('{"k": 1, "re": 0.0, "im": 0.0}\n{"k": 2, "re": 1.0, "im": 0.0}\n')
    assert read_coeffs(src).support == (2,)


@pytest.mark.parametrize(
    "line, fragment",
    [
        ("not json", "invalid JSON"),
        ('{"k": 1, "re": 0.5}', "exactly the keys"),
        ('{"k": 1.5, "re": 0.5, "im": 0.0}', "k must be an integer"),
        ('{"k": 1, "re": "x", "im": 0.0}', "must be numbers"),
    ],
)
def test_jsonl_reader_reports_line_numbers(line, fragment):
    src = io.StringIO('{"k": 0, "re": 1.0, "im": 0.0}\n' + line + "\n")
    with pytest.raises(ValueError, match=r":2:") as err:
        read_coeffs(src)
    assert fragment in str(err.value)


@pytest.mark.parametrize(
    "line, fragment",
    [
        ('{"k": 1, "re": NaN, "im": 0.0}', "finite"),
        ('{"k": 1, "re": 0.5, "im": -Infinity}', "finite"),
        ('{"k": 1, "re": 1e400, "im": 0.0}', "finite"),
        ('{"k": 0, "re": 2.0, "im": 0.0}', "duplicate k=0"),
        ('{"k": -1, "re": 2.0, "im": 0.0}', "descending k=-1"),
        ('{"k": 9223372036854775808, "re": 1.0, "im": 0.0}', "below 2**63"),
    ],
    ids=["nan", "infinity", "overflow", "duplicate-k", "descending-k", "k-beyond-int64"],
)
def test_jsonl_reader_enforces_the_file_contract(line, fragment):
    src = io.StringIO('{"k": 0, "re": 1.0, "im": 0.0}\n' + line + "\n")
    with pytest.raises(ValueError, match=r":2:") as err:
        read_coeffs(src)
    assert fragment in str(err.value)


# -- array representation -------------------------------------------------------------


@pytest.mark.parametrize("entries", [{1: math.nan}, {1: complex(0, math.inf)}, {2**63: 1.0},
                                     {-(2**63): 1.0}, [(1, 1e308), (1, 1e308)]],
                         ids=["nan", "inf", "k-2**63", "k-minus-2**63", "sum-overflows"])
def test_construction_rejects_non_finite_and_out_of_range(entries):
    with pytest.raises(ValueError):
        CoeffSeq(entries)


def test_as_arrays_are_read_only_views():
    f = CoeffSeq({2: 1.0, -1: 3j})
    ks, cs = f.as_arrays()
    assert f.as_arrays()[0] is ks and f.as_arrays()[1] is cs
    with pytest.raises(ValueError):
        ks[0] = 5
    with pytest.raises(ValueError):
        cs[0] = 0.0
    assert f == CoeffSeq({-1: 3j, 2: 1.0})


def test_from_arrays_canonicalises_like_the_constructor():
    ks = np.array([3, -2, 3, 0, 5, 3])
    cs = np.array([1e16, 2.0, 1.0, 0.0, complex(-0.0, 1.0), -1e16])
    f = CoeffSeq.from_arrays(ks, cs)
    # duplicates summed in input order: (1e16 + 1) - 1e16 is 0, which is dropped
    assert f.support == (-2, 5)
    assert math.copysign(1.0, f[5].real) == 1.0
    assert math.copysign(1.0, CoeffSeq.from_arrays([5], [complex(-0.0, 1.0)])[5].real) == 1.0
    assert f == CoeffSeq(zip(ks.tolist(), cs.tolist()))
    rng = np.random.default_rng(3)
    ks = rng.integers(-50, 50, size=40)
    cs = rng.standard_normal(40) + 1j * rng.standard_normal(40)
    acc = {}
    for k, c in zip(ks.tolist(), cs.tolist()):
        acc[k] = acc.get(k, 0j) + c
    assert CoeffSeq.from_arrays(ks, cs) == CoeffSeq(acc)
    assert CoeffSeq.from_arrays(ks, cs).items() == sorted(acc.items())


_PARTS = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.7e308, 1.0, -2.5]),
                   st.floats(allow_nan=False, allow_infinity=False))


@given(st.lists(st.integers(min_value=-(2**63) + 1, max_value=2**63 - 1), min_size=2, max_size=12, unique=True),
       st.data())
@settings(max_examples=150, deadline=None)
def test_ascending_frequencies_skip_the_sort_with_the_sorted_path_bits(keys, data):
    # reversed, the same entries take the sort and the slot sums; ascending, each entry is its own slot.
    # Both add the values onto +0j, drop zeros and reject an overflowing |c|.
    ks = np.array(sorted(keys), dtype=np.int64)
    cs = np.array([complex(*data.draw(st.tuples(_PARTS, _PARTS))) for _ in ks])
    results = []
    for order in (slice(None), slice(None, None, -1)):
        try:
            got = CoeffSeq.from_arrays(ks[order], cs[order]).as_arrays()
            results.append((got[0].tolist(), got[1].view(np.uint64).tolist()))
        except ValueError as exc:
            results.append(str(exc))
    assert results[0] == results[1]


def test_int64_extreme_frequencies_are_kept_exactly():
    top = 2**63 - 1
    for f in (CoeffSeq({top: 1.0, -top: 2.0}),
              CoeffSeq.from_arrays(np.array([top], dtype=np.uint64), [1.0]),
              CoeffSeq.from_arrays(np.array([top, -top], dtype=np.int64), [1.0, 1.0])):
        assert f[top] == 1.0 and f.max_freq == top
    with pytest.raises(ValueError):
        CoeffSeq.from_arrays(np.array([2**63], dtype=np.uint64), [1.0])
    with pytest.raises(ValueError):
        CoeffSeq.from_arrays(np.array([-(2**63)], dtype=np.int64), [1.0])


def test_mixed_float_and_large_int_keys_stay_exact():
    f = CoeffSeq([(2.0, 1.0), (2**62 + 1, 3.0)])
    assert f.support == (2, 2**62 + 1)
    assert f[2**62 + 1] == 3.0 and f[2**62] == 0j
    assert CoeffSeq.from_arrays([2.0, 2**62 + 1], [1.0, 3.0]) == f


def test_overflowing_sum_raises_value_error_without_a_numpy_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="finite"):
            CoeffSeq([(1, 1e308), (1, 1e308)])


@pytest.mark.parametrize("as_path", [str, Path], ids=["str", "Path"])
def test_jsonl_reader_names_the_file_path_in_errors(tmp_path, as_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"k": 0, "re": 1.0, "im": 0.0}\nnot json\n', encoding="utf-8")
    with pytest.raises(ValueError, match="invalid JSON") as err:
        read_coeffs(as_path(path))
    assert str(err.value).startswith(f"{path}:2:")


_SIGNED_ZERO_PAIRS = [
    ({1: 1 + 1j, 2: complex(0.0, 2.5)}, {1: complex(1.0, -0.0), 2: complex(-0.0, 1.0)}),
    ({1: complex(2.5, -0.0), 3: 1e-300}, {1: 2.5, 2: complex(-0.0, -1.0), 3: complex(1e-300, -0.0)}),
    ({-5: complex(-0.0, -0.0), 0: -1.0}, {-5: complex(0.0, 1e308), 0: complex(-1.0, -0.0), 4: -1e308}),
    ({}, {2: complex(-0.0, 1.0), 5: complex(-1.0, 0.0)}),
]


@pytest.mark.parametrize("a, b", _SIGNED_ZERO_PAIRS)
def test_difference_matches_adding_the_negation_bit_for_bit(a, b):
    f, g = CoeffSeq(a), CoeffSeq(b)
    for got, want in ((f - g, f + (-g)), (g - f, g + (-f))):
        (gk, gc), (wk, wc) = got.as_arrays(), want.as_arrays()
        assert np.array_equal(gk, wk)
        assert np.array_equal(gc.view(np.float64), wc.view(np.float64))
        assert np.array_equal(np.signbit(gc.view(np.float64)), np.signbit(wc.view(np.float64)))


def test_difference_canonicalises_once(monkeypatch):
    f, g = CoeffSeq({1: 1.0, 2: 2.0}), CoeffSeq({2: 2.0, 3: -1.0})
    calls = []
    canonicalise = CoeffSeq._canonicalise

    def spy(self, keys, values):
        calls.append(len(keys))
        return canonicalise(self, keys, values)

    monkeypatch.setattr(CoeffSeq, "_canonicalise", spy)
    assert f - g == CoeffSeq.from_arrays(np.array([1, 3]), np.array([1.0, 1.0]))
    assert calls == [4, 2]  # f - g itself, then the expected value
    with pytest.raises(ValueError, match="finite"):
        CoeffSeq({1: 1e308}) - CoeffSeq({1: -1e308})


@pytest.mark.parametrize("ks", [[-2**63, 5], [5, -2**63], [3, -2**63, 3], [-2**63]], ids=str)
def test_from_arrays_rejects_the_int64_minimum_wherever_it_sits(ks):
    # the only int64 key out of range, caught on the ascending keys, strictly ascending or not
    with pytest.raises(ValueError, match="below 2\\*\\*63"):
        CoeffSeq.from_arrays(np.array(ks, dtype=np.int64), np.ones(len(ks)))

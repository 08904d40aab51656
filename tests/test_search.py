import math

import numpy as np
import pytest

from orliczseq._search import _bisect, _grow, _zoom


def _recording(profile):
    """values(i, pts) for _zoom that evaluates profile(i, pts) and records every call."""
    calls = []

    def values(i, pts):
        calls.append((np.array(i), np.array(pts)))
        return profile(i, pts)

    return values, calls


def test_a_monotone_profile_ends_within_stop_of_the_right_end():
    values, _ = _recording(lambda i, x: x)
    c, gc = _zoom(values, [0.0], [1.0], [np.nan], [1e-6])
    assert 1.0 - 1e-6 <= c[0] <= 1.0 and gc[0] == c[0]


def test_an_interior_peak_is_found_within_stop():
    peaks = np.array([0.3, -0.7, 0.05])
    stop = np.array([1e-6, 1e-3, 1e-9])
    values, _ = _recording(lambda i, x: -(x - peaks[i]) ** 2)
    c, gc = _zoom(values, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [np.nan, np.nan, np.nan], stop)
    assert np.all(np.abs(c - peaks) <= stop)
    assert np.all(gc == -(c - peaks) ** 2)


def test_a_nan_centre_is_solved_and_a_known_one_is_not():
    values, calls = _recording(lambda i, x: -np.abs(x))
    _zoom(values, [0.25, 0.25], [1.0, 1.0], [np.nan, -0.25], [0.6, 0.6])
    (i, pts), = calls  # one step: 1.0 > 0.6 >= 0.5
    assert i.tolist() == [0, 0, 0, 1, 1]
    assert pts.tolist() == [-0.25, 0.25, 0.75, -0.25, 0.75]


def test_a_bracket_with_an_infinite_stop_is_never_evaluated():
    values, calls = _recording(lambda i, x: -(x - 0.1) ** 2)
    c, gc = _zoom(values, [0.0, 0.0], [1.0, 1.0], [np.nan, np.nan], [1e-6, np.inf])
    assert calls and all(np.all(i == 0) for i, _ in calls)
    assert c[1] == 0.0 and np.isnan(gc[1])
    assert c[0] == pytest.approx(0.1, abs=1e-6)


def test_each_step_makes_exactly_one_values_call_for_all_open_brackets():
    values, calls = _recording(lambda i, x: -(x - 0.2 * i) ** 2)
    w, stop = [1.0, 1.0, 1.0], [2.0 ** -10, 2.0 ** -5, 2.0 ** -20]
    _zoom(values, [0.0, 0.0, 0.0], w, [np.nan, np.nan, np.nan], stop)
    assert len(calls) == 20  # the bracket with the smallest stop halves 20 times
    counts = [np.bincount(i, minlength=3).tolist() for i, _ in calls]
    assert counts[0] == [3, 3, 3]  # the nan centres are solved with the first midpoints
    assert counts[1:5] == [[2, 2, 2]] * 4
    assert counts[5:10] == [[2, 0, 2]] * 5
    assert counts[10:] == [[0, 0, 2]] * 10


def test_grow_returns_the_first_power_of_two_where_the_test_holds():
    seen = []

    def above(t):
        seen.append(t)
        return t >= 5.0

    t = _grow(above)
    assert t == 8.0 and isinstance(t, np.float64) and seen == [1.0, 2.0, 4.0, 8.0]
    assert _grow(lambda t: True) == 1.0


def test_grow_gives_inf_past_1e30_without_evaluating_there():
    seen = []
    assert _grow(lambda t: seen.append(t)) == np.inf
    assert seen[-1] == 2.0 ** 99 and len(seen) == 100


def _counted(test):
    """above(x) for _bisect that records every point it is asked about."""
    seen = []

    def above(x):
        seen.append(float(x))
        return test(x)

    return above, seen


def _plain_points(root, lo, hi, rtol):
    """The midpoints plain bisection visits on [lo, hi] for the test x >= root."""
    points = []
    while True:
        mid = 0.5 * lo + 0.5 * hi
        points.append(mid)
        lo, hi = (lo, mid) if mid >= root else (mid, hi)
        if hi - lo <= rtol * hi:
            return points


def _holds(lo, hi, root, rtol):
    return lo < root <= hi and hi - lo <= rtol * hi


def test_a_plain_bool_test_visits_exactly_the_midpoints():
    above, seen = _counted(lambda x: x >= 0.3)
    lo, hi = _bisect(above, 0.0, 1.0, 1e-12)
    assert seen == _plain_points(0.3, 0.0, 1.0, 1e-12)
    assert _holds(lo, hi, 0.3, 1e-12)


@pytest.mark.parametrize("root", [0.3, 0.999, 1e-3])
def test_an_exact_guess_closes_in_three_calls(root):
    above, seen = _counted(lambda x: (x >= root, root))
    lo, hi = _bisect(above, 0.0, 1.0, 1e-12)
    assert len(seen) <= 3 and _holds(lo, hi, root, 1e-12)


@pytest.mark.parametrize("guess", [1.0, 1.0 + 2.0 ** -52], ids=["hi", "hi+ulp"])
def test_a_guess_on_or_just_past_a_root_at_hi_closes_in_three_calls(guess):
    # power(1): the chord bound is an equality, so the root is the bracket's upper end
    above, seen = _counted(lambda x: (x >= 1.0, guess))
    lo, hi = _bisect(above, 0.25, 1.0, 1e-12)
    assert len(seen) <= 3 and _holds(lo, hi, 1.0, 1e-12)


@pytest.mark.parametrize("guess", [np.nan, np.inf, 0.0, -1.0, 2.0, 1e300],
                         ids=["nan", "inf", "lo", "below", "above", "far-above"])
@pytest.mark.parametrize("root", [0.3, 0.7, 1e-3, 0.999])
def test_useless_guesses_cost_at_most_twice_plain_bisection(guess, root):
    above, seen = _counted(lambda x: (x >= root, guess))
    lo, hi = _bisect(above, 0.0, 1.0, 1e-12)
    assert _holds(lo, hi, root, 1e-12)
    assert len(seen) <= 2 * len(_plain_points(root, 0.0, 1.0, 1e-12))


def test_a_guess_that_trails_the_last_point_cannot_creep():
    # every guess sits on the last point, so a nudge would follow a nudge by only rtol * hi / 2
    above, seen = _counted(lambda x: (x >= 0.3, x))
    lo, hi = _bisect(above, 0.0, 1.0, 1e-12)
    assert _holds(lo, hi, 0.3, 1e-12)
    assert len(seen) <= 2 * len(_plain_points(0.3, 0.0, 1.0, 1e-12))


def test_rows_of_a_batch_are_safeguarded_independently():
    roots = np.array([0.3, 0.7, 1e-3, 0.5])
    guesses = np.array([0.3, np.nan, 2.0, 0.5])  # exact, none, outside, exact on the first midpoint
    lo, hi = _bisect(lambda x: (x >= roots, guesses), np.zeros(4), np.ones(4), 1e-12)
    assert np.all((lo < roots) & (roots <= hi) & (hi - lo <= 1e-12 * hi))


@pytest.mark.parametrize("root", [1e-3, 0.05])
def test_an_exact_guess_one_rounding_below_the_root_closes_in_three_calls(root):
    # the guess leaves lo one rounding short of the root; a nudge sized by the far end would overshoot
    above, seen = _counted(lambda x: (x >= root, np.nextafter(root, 0.0)))
    lo, hi = _bisect(above, 0.0, 1.0, 1e-12)
    assert len(seen) <= 3 and _holds(lo, hi, root, 1e-12)


@pytest.mark.parametrize("guess", [True, False], ids=["guess", "bool"])
def test_a_bracket_closed_on_entry_keeps_its_ends_and_is_never_evaluated(guess):
    above, seen = _counted(lambda x: (x >= 0.3, 0.3) if guess else x >= 0.3)
    lo, hi = 0.5, 0.5 + 2.0 ** -45  # hi - lo < 1e-12 * hi
    assert _bisect(above, lo, hi, 1e-12) == (lo, hi) and seen == []


def test_a_closed_bracket_beside_an_open_one_keeps_its_entry_ends_bit_for_bit():
    roots = np.array([0.5, 0.3])
    lo0, hi0 = np.array([0.5, 0.0]), np.array([np.nextafter(0.5, 1.0), 1.0])
    lo, hi = _bisect(lambda x: (x >= roots, roots), lo0, hi0, 1e-12)
    assert lo[0] == lo0[0] and hi[0] == hi0[0]
    assert _holds(lo[1], hi[1], 0.3, 1e-12)


@pytest.mark.parametrize("m", [3, 8, 64])
def test_a_wide_split_finds_interior_peaks_within_stop(m):
    peaks = np.array([0.3, -0.7, 0.05, 0.999])
    stop = np.array([1e-6, 1e-3, 1e-9, 1e-6])
    values, _ = _recording(lambda i, x: -(x - peaks[i]) ** 2)
    c, gc = _zoom(values, np.zeros(4), np.ones(4), np.full(4, np.nan), stop, split=m)
    assert np.all(np.abs(c - peaks) <= stop)
    assert np.all(gc == -(c - peaks) ** 2)


@pytest.mark.parametrize("m", [3, 8, 64])
def test_a_wide_split_ends_a_monotone_profile_within_stop_of_the_right_end(m):
    values, _ = _recording(lambda i, x: x)
    c, gc = _zoom(values, [0.0], [1.0], [np.nan], [1e-6], split=m)
    assert 1.0 - 1e-6 <= c[0] <= 1.0 and gc[0] == c[0]


@pytest.mark.parametrize("m", [3, 8, 64])
def test_a_wide_split_takes_one_values_call_per_step_and_log_m_steps(m):
    values, calls = _recording(lambda i, x: -(x - 0.2) ** 2)
    w, stop = 1.0, 1e-6  # w / stop is no power of 3, 8 or 64, so rounding cannot move the count
    _zoom(values, [0.0], [w], [np.nan], [stop], split=m)
    assert len(calls) == math.ceil(math.log(w / stop, m))
    assert [pts.size for _, pts in calls] == [2 * m - 1] + [2 * m - 2] * (len(calls) - 1)


@pytest.mark.parametrize("m", [3, 8, 64])
def test_a_wide_split_solves_a_nan_centre_in_the_first_call_and_a_known_one_never(m):
    values, calls = _recording(lambda i, x: -np.abs(x))
    _zoom(values, [0.25, 0.25], [1.0, 1.0], [np.nan, -0.25], [0.6, 0.6], split=m)
    (i, pts), = calls  # one step: 1.0 > 0.6 >= 1 / m
    grid = 0.25 + np.arange(1 - m, m) / m
    assert i.tolist() == [0] * (2 * m - 1) + [1] * (2 * m - 2)
    assert pts.tolist() == grid.tolist() + np.delete(grid, m - 1).tolist()


# -- the zoom on the slope's sign ----------------------------------------------------


def test_with_slopes_a_quadratic_peak_closes_in_two_calls():
    # the first call takes the halving zoom's points, whose slopes make the interval about the known centre a
    # cell; the cubic through its ends then lands on the peak
    peaks = np.array([0.2, -0.15, 0.05])
    values, calls = _recording(lambda i, x: (-(x - peaks[i]) ** 2, -2.0 * (x - peaks[i])))
    c, gc = _zoom(values, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], -peaks ** 2, [1e-6, 1e-3, 1e-9])
    assert len(calls) == 2
    assert np.all(np.abs(c - peaks) <= 1e-12) and np.all(gc == -(c - peaks) ** 2)


@pytest.mark.parametrize("peak", [0.3, 0.01, 0.999, -0.5])
def test_with_slopes_a_kinked_peak_takes_no_more_calls_than_halving(peak):
    # -|x - peak| has no slope root to interpolate: every guess falls back to a midpoint, as halving does
    profile = lambda i, x: -np.abs(x - peak)
    values, halving = _recording(profile)
    _zoom(values, [0.0], [1.0], [np.nan], [1e-6])
    values, calls = _recording(lambda i, x: (profile(i, x), -np.sign(x - peak)))
    c, gc = _zoom(values, [0.0], [1.0], [np.nan], [1e-6])
    assert len(calls) <= len(halving) and abs(c[0] - peak) <= 2e-6 and gc[0] == -abs(c[0] - peak)


def test_with_slopes_an_edge_bracket_certified_to_rise_closes_in_one_call():
    # an unsolved centre marks an edge bracket: its best point is its right end, held by the caller
    values, calls = _recording(lambda i, x: (x, np.ones_like(x), np.ones(x.shape, dtype=bool), 9.0 + 0 * x))
    c, gc = _zoom(values, [0.0], [1.0], [np.nan], [1e-6])
    assert len(calls) == 1 and gc[0] == 0.5


def test_with_slopes_an_edge_bracket_finds_a_hump_the_certificate_does_not_cover():
    # x rises to the right end 1, with a hump near 0.78 above it, between the first step's points; nothing is
    # certified to rise, so the halving zoom's path goes on until its interval is a cell around the hump
    hump = lambda x: 2.0 * np.exp(-((x - 0.78) / 0.05) ** 2)
    values, calls = _recording(lambda i, x: (x + hump(x), 1.0 - 2.0 * (x - 0.78) / 0.05 ** 2 * hump(x),
                                             np.zeros(x.shape, dtype=bool), np.full(x.shape, np.inf)))
    c, gc = _zoom(values, [0.0], [1.0], [np.nan], [1e-6])
    xs = np.linspace(-1.0, 1.0, 200001)
    assert gc[0] >= (xs + hump(xs)).max() - 1e-9 and gc[0] > 1.0
    assert len(calls) <= 10


def test_with_slopes_and_no_smooth_reach_the_zoom_meets_the_halving_zooms_points_bit_for_bit():
    # a kink at every point (smooth = 0) makes no cell, so the zoom walks the halving zoom's path to its end
    peaks = np.array([0.3, -0.7, 0.05])
    profile = lambda i, x: -(x - peaks[i]) ** 2 + 0.01 * np.cos(40.0 * x)
    values, halving = _recording(profile)
    want = _zoom(values, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [np.nan, -0.09, np.nan], [1e-6, 1e-3, 1e-9])
    values, calls = _recording(lambda i, x: (profile(i, x), -2.0 * (x - peaks[i]) - 0.4 * np.sin(40.0 * x),
                                             np.zeros(x.shape, dtype=bool), 0 * x))
    got = _zoom(values, [0.0, 0.0, 0.0], [1.0, 1.0, 1.0], [np.nan, -0.09, np.nan], [1e-6, 1e-3, 1e-9])
    assert [(i.tolist(), x.tolist()) for i, x in calls] == [(i.tolist(), x.tolist()) for i, x in halving]
    assert got[0].tolist() == want[0].tolist() and got[1].tolist() == want[1].tolist()


def test_with_value_and_slope_only_an_edge_bracket_meets_the_halving_zooms_points_bit_for_bit():
    # without rise nothing is certified, and a slope of 1 everywhere forms no cell: the walk is the halving zoom's
    values, halving = _recording(lambda i, x: x)
    want = _zoom(values, [0.0], [1.0], [np.nan], [1e-6])
    values, calls = _recording(lambda i, x: (x, np.ones_like(x)))
    got = _zoom(values, [0.0], [1.0], [np.nan], [1e-6])
    assert len(calls) == 20
    assert [(i.tolist(), x.tolist()) for i, x in calls] == [(i.tolist(), x.tolist()) for i, x in halving]
    assert got[0].tobytes() == want[0].tobytes() and got[1].tobytes() == want[1].tobytes()


def test_with_slopes_each_bracket_of_a_batch_meets_the_points_and_gets_the_bits_it_gets_alone():
    hump = lambda x: 2.0 * np.exp(-((x - 0.78) / 0.05) ** 2)
    no, inf = lambda x: np.zeros(x.shape, dtype=bool), lambda x: np.full(x.shape, np.inf)
    profiles = [
        lambda x: (-(x - 0.2) ** 2, -2.0 * (x - 0.2), no(x), inf(x)),  # an interior peak, which closes as a cell
        lambda x: (x, np.ones_like(x), np.ones(x.shape, dtype=bool), inf(x)),  # an edge certified to rise
        lambda x: (x + hump(x), 1.0 - 2.0 * (x - 0.78) / 0.05 ** 2 * hump(x), no(x), inf(x)),  # an edge hump
        lambda x: (-(x + 0.7) ** 2 + 0.01 * np.cos(40.0 * x), -2.0 * (x + 0.7) - 0.4 * np.sin(40.0 * x), no(x),
                   0.0 * x),  # a kink at every point
        lambda x: (-x ** 2, -2.0 * x, no(x), inf(x)),  # never opened: stop = inf
    ]
    c, w = np.zeros(5), np.ones(5)
    gc, stop = np.array([-0.04, np.nan, np.nan, np.nan, np.nan]), np.array([1e-9, 1e-6, 1e-6, 1e-3, np.inf])

    def run(of):  # zoom the brackets of, each with its own profile; returns (c, gc) and the points of each call
        def profile(i, x):
            out = [np.zeros(x.shape), np.zeros(x.shape), no(x), np.zeros(x.shape)]
            for b in np.unique(i):
                for field, part in zip(out, profiles[of[b]](x[i == b])):
                    field[i == b] = part
            return tuple(out)

        values, calls = _recording(profile)
        return _zoom(values, c[of], w[of], gc[of], stop[of]), calls

    (cs, gcs), calls = run(np.arange(5))
    for b in range(5):
        (c1, gc1), alone = run(np.array([b]))
        assert [x[i == b].tolist() for i, x in calls if np.any(i == b)] == [x.tolist() for _, x in alone]
        assert cs[b].tobytes() == c1[0].tobytes() and gcs[b].tobytes() == gc1[0].tobytes()
    assert len(calls) <= 20 and np.isnan(gcs[4]) and abs(cs[0] - 0.2) <= 1e-9 and gcs[2] > 1.0

import json
import math
import warnings

import numpy as np
import pytest

from conftest import power_decay_seq
from orliczseq import fracdiff, orlicz
from orliczseq.orlicz import power
from orliczseq.spectrum import CoeffSeq
from orliczseq.verify import (
    MajorantOmega,
    Report,
    balpha_check,
    classify,
    direct_report,
    equivalence_report,
    format_json,
    generator,
    inverse_report,
    list_families,
    rates_report,
)

P2 = power(2)


# -- majorants -----------------------------------------------------------------


def test_power_majorant_valid():
    MajorantOmega.power(0.5).validate()
    MajorantOmega.power_log(1.0).validate()
    w = MajorantOmega.power(2.0)
    assert w(0.0) == 0.0
    assert w(0.5) == 0.25


def test_power_log_majorant_is_nondecreasing_with_log_factor():
    w = MajorantOmega.power_log(1.0)
    xs = np.linspace(1e-4, 1.0, 500)
    ys = [w(x) for x in xs]
    assert all(b >= a for a, b in zip(ys, ys[1:]))
    assert w(0.01) / (0.01 * abs(math.log(0.01))) == pytest.approx(1.0, rel=0.3)


def test_table_majorant_and_rejections():
    MajorantOmega.from_table([(0.0, 0.0), (0.5, 0.3), (1.0, 1.0)]).validate()
    with pytest.raises(ValueError):
        MajorantOmega.from_table([(0.0, 0.0), (0.5, 0.3)])  # does not reach 1
    decreasing = MajorantOmega.from_table([(0.0, 0.0), (0.5, 1.0), (1.0, 0.2)])
    with pytest.raises(ValueError, match="nondecreasing"):
        decreasing.validate()
    jumpy = MajorantOmega("step", lambda d: 0.05 * d + (0.9 if d >= 0.5 else 0.0))
    with pytest.raises(ValueError, match="continuous"):
        jumpy.validate()
    floor = MajorantOmega("floor", lambda d: 1.0)
    with pytest.raises(ValueError, match="vanish"):
        floor.validate()
    nonpositive = MajorantOmega("step0", lambda d: 0.0 if d < 0.5 else 1.0)
    with pytest.raises(ValueError, match="positive"):
        nonpositive.validate()
    with pytest.raises(ValueError):
        MajorantOmega.power(0.5)(1.5)


# -- partial-sum regularity -------------------------------------------------------


def test_balpha_verdicts():
    assert balpha_check(MajorantOmega.power(0.5), 1.0, 2048).passed
    assert balpha_check(MajorantOmega.power(1.0), 2.0, 2048).passed
    # exponent equal to alpha gives a harmonic-type divergent ratio
    assert not balpha_check(MajorantOmega.power(1.0), 1.0, 2048).passed
    assert not balpha_check(MajorantOmega.power(2.0), 2.0, 2048).passed


def test_balpha_harmonic_ratio_values():
    rep = balpha_check(MajorantOmega.power(1.0), 1.0, 256)
    by_desc = {s["descriptor"]: s for s in rep.samples}
    # q_n is the n-th harmonic number here; spot-check a couple of entries
    assert by_desc["n=1"]["ratio"] == pytest.approx(1.0, abs=1e-12)
    assert by_desc["n=4"]["ratio"] == pytest.approx(1 + 0.5 + 1 / 3 + 0.25, abs=1e-12)


def test_balpha_rejects_bad_args():
    with pytest.raises(ValueError):
        balpha_check(MajorantOmega.power(1.0), 0.0, 64)
    with pytest.raises(ValueError):
        balpha_check(MajorantOmega.power(1.0), 1.0, 1)


# -- classifier ------------------------------------------------------------------


def test_classify_trig_polynomial_always_in_class():
    # exponent strictly below alpha so the majorant has partial-sum regularity
    f = CoeffSeq({1: 1.0, 3: 0.5j})
    for r in (0.25, 0.5, 1.0):
        rep = classify(f, P2, MajorantOmega.power(r), 2.0, n_max=64, grid=64)
        assert rep.passed


def test_classify_power_decay_family_small():
    f = power_decay_seq(1.0, 512)
    ok = classify(f, P2, MajorantOmega.power(1.0), 2.0, n_max=128, grid=64)
    bad = classify(f, P2, MajorantOmega.power(1.5), 2.0, n_max=128, grid=64)
    assert ok.passed and not bad.passed
    assert ok.params["en_direction_ok"] and ok.params["omega_direction_ok"]


def test_classify_accepts_error_sequence():
    errors = [float(n) ** -1.0 for n in range(1, 129)]
    rep = classify(errors, P2, MajorantOmega.power(1.0), 2.0)
    assert rep.passed
    rep = classify(errors, P2, MajorantOmega.power(1.5), 2.0)
    assert not rep.passed


def test_classify_rejects_invalid_majorant():
    f = CoeffSeq({1: 1.0})
    with pytest.raises(ValueError):
        classify(f, P2, MajorantOmega.power(1.0), 1.0, n_max=64)  # fails regularity
    jumpy = MajorantOmega("step", lambda d: 0.0 if d < 0.5 else 1.0)
    with pytest.raises(ValueError):
        classify(f, P2, jumpy, 1.0, n_max=64)



def test_classify_rejects_an_empty_ladder_before_any_solve(monkeypatch):
    from orliczseq import verify

    monkeypatch.setattr(verify, "_window_norms", lambda *args: pytest.fail("solved an empty ladder"))
    for f_or_errors, n_max in ((CoeffSeq({1: 1.0}), 0), ([], 256)):
        with pytest.raises(ValueError, match="^need n_max >= 1$"):
            classify(f_or_errors, P2, MajorantOmega.power(0.5), 1.0, n_max=n_max)


# -- rate transfer ------------------------------------------------------------------


def test_rates_slope_below_alpha():
    rep = rates_report(0.5, 1.0, P2, band=1024, j_min=3, j_max=9, grid=96)
    assert rep.passed
    assert rep.empirical_constant == pytest.approx(0.5, abs=0.15)


def test_rates_other_gauges_measure_without_assertion():
    rep = rates_report(0.5, 1.0, power(3), band=128, j_min=3, j_max=5, grid=48)
    assert rep.passed
    assert not rep.params["slope_asserted"]


def test_rates_rejects_bad_args():
    with pytest.raises(ValueError):
        rates_report(0.0, 1.0, P2)
    with pytest.raises(ValueError):
        rates_report(1.0, 1.0, P2, band=16)


# -- sweep reports -------------------------------------------------------------------


def test_families_registry():
    assert list_families() == ["lacunary", "poly-decay", "random-band", "random-sparse"]
    with pytest.raises(ValueError):
        generator("bogus")
    rng = np.random.default_rng(0)
    for name in list_families():
        f = generator(name)(rng)
        assert f.max_freq >= 1


def test_single_harmonic_direct_ratio_value():
    # closed forms: E_1 = 1 and omega_1(f, 1) = 2 sin(1/2)
    rep = direct_report("random-sparse", 1.0, P2, n_max=1, num_funcs=0, seed=0)
    del rep
    from orliczseq.approx import best_approx
    from orliczseq.fracdiff import modulus

    f = CoeffSeq({1: 1.0})
    ratio = best_approx(f, P2, 1) / modulus(f, P2, 1.0, 1.0)
    assert ratio == pytest.approx(1.0 / (2.0 * math.sin(0.5)), abs=1e-8)


def test_direct_report_runs_and_stabilizes():
    rep = direct_report("random-sparse", 1.0, P2, n_max=32, num_funcs=16, seed=1)
    assert rep.passed
    assert math.isfinite(rep.empirical_constant) and rep.empirical_constant > 0
    degenerate = [s for s in rep.samples if s["descriptor"] == "stabilization"]
    assert len(degenerate) == 1


def test_inverse_report_runs(tmp_path):
    rep = inverse_report("lacunary", 0.5, P2, n_max=32, num_funcs=6, seed=2)
    assert rep.passed
    csv_text = rep.to_csv()
    assert csv_text.splitlines()[-1].count(",") == 4


def test_equivalence_report_two_sided():
    rep = equivalence_report("random-sparse", 1.0, P2, num_funcs=6, seed=3)
    assert rep.passed
    assert 0.0 < rep.params["c1"] <= rep.params["c2"] < math.inf


def test_reports_reproducible_from_seed():
    a = direct_report("random-band", 1.0, P2, n_max=16, num_funcs=4, seed=11)
    b = direct_report("random-band", 1.0, P2, n_max=16, num_funcs=4, seed=11)
    c = direct_report("random-band", 1.0, P2, n_max=16, num_funcs=4, seed=12)
    assert a.to_json() == b.to_json()
    assert a.to_json() != c.to_json()


# -- serialization --------------------------------------------------------------------


def test_report_json_schema_and_float_format():
    rep = Report(name="demo", params={"x": 1.0 / 3.0}, tolerance=0.05)
    rep.add("s1", 1.0, 2.0, 0.5, True)
    rep.empirical_constant = 2.0 / 3.0
    rep.finalize()
    text = rep.to_json()
    assert "0.33333333333333331" in text
    assert "0.66666666666666663" in text
    obj = json.loads(text)
    assert set(obj) == {"name", "params", "tolerance", "samples", "empirical_constant", "passed"}
    assert obj["passed"] is True


def test_report_passed_matches_samples():
    rep = Report(name="demo", params={}, tolerance=0.0)
    rep.add("good", 1.0, 2.0, 0.5, True)
    rep.add("bad", 3.0, 2.0, 1.5, False)
    assert not rep.finalize().passed


def test_format_json_handles_non_finite_and_rejects_unknown():
    assert format_json(float("inf")) == '"inf"'
    assert format_json(float("nan")) == '"nan"'
    with pytest.raises(TypeError):
        format_json(object())


def test_sweep_report_structure_is_pinned():
    # Row order and params key order of the three sweeps, read without any float.
    members = ["harmonic k=1", "harmonic k=3", "harmonic k=16", "harmonic k=64", "lacunary[0]"]
    common = {"num_funcs": 1, "seed": 5, "grid": 8}
    direct = direct_report("lacunary", 1.0, P2, n_max=2, **common)
    assert [s["descriptor"] for s in direct.samples] == [
        f"{m} n={n}" for m in members for n in (1, 2)] + ["stabilization"]
    assert list(direct.params) == ["family", "alpha", "orlicz", "n_max", "num_funcs", "seed",
                                   "grid", "search"]
    inverse = inverse_report("lacunary", 1.0, P2, n_max=2, **common)
    assert [s["descriptor"] for s in inverse.samples] == [
        f"{m} n={n}" for m in members for n in (1, 2)] + ["stabilization"]
    assert list(inverse.params) == ["family", "alpha", "orlicz", "n_max", "num_funcs", "seed", "grid"]
    equiv = equivalence_report("lacunary", 1.0, P2, deltas=[0.1, 1.0], **common)
    assert [s["descriptor"] for s in equiv.samples] == [
        f"{m} delta={d}" for m in members for d in ("0.1", "1")] + ["stabilization", "lower-envelope"]
    assert list(equiv.params) == ["family", "alpha", "orlicz", "num_funcs", "seed", "grid",
                                  "polish", "deltas", "c1", "c2"]


def test_zero_modulus_fails_the_row_instead_of_raising():
    # at alpha = 200 the modulus of the k = 1 probe at delta = 1/128 underflows to 0.0
    rep = direct_report("lacunary", 200.0, P2, n_max=128, num_funcs=1, grid=16)
    assert not rep.passed
    bad = [s for s in rep.samples if not s["ok"]]
    assert bad and all(not math.isfinite(s["ratio"]) for s in bad if s["descriptor"] != "stabilization")


def test_inverse_weights_overflowing_at_a_large_order_fail_the_row():
    # nu**(alpha - 1) and n**alpha overflow at alpha = 200, n = 128
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = inverse_report("lacunary", 200.0, P2, n_max=128, num_funcs=1, grid=2)
    assert not rep.passed
    assert any(not math.isfinite(s["ratio"]) for s in rep.samples)


@pytest.mark.parametrize("sweep, kwargs, bound", [
    (direct_report, {"n_max": 128}, 30),
    (inverse_report, {"n_max": 128}, 30),
    (equivalence_report, {}, 40),
], ids=["direct", "inverse", "equivalence"])
def test_sweeps_solve_each_member_in_few_batches(monkeypatch, sweep, kwargs, bound):
    # one zoom for all of a member's moduli, one batch for all of its E_n and
    # one each for its K tails and heads
    calls = []
    solve = orlicz._lux_rows

    def counted(vals, phi, **kw):
        calls.append(len(vals))
        return solve(vals, phi, **kw)

    for module in (orlicz, fracdiff):
        monkeypatch.setattr(module, "_lux_rows", counted)
    sweep("lacunary", 1.0, P2, num_funcs=2, grid=64, **kwargs)
    members = 4 + 2  # the harmonic probes and the seeded draws
    assert len(calls) <= bound * members


def test_sweep_modulus_solves_do_not_grow_with_the_number_of_members(monkeypatch):
    # all members share one grid and one zoom: a step makes one call per support-size class
    calls = []
    solve = fracdiff._lux_rows

    def counted(vals, phi, **kw):
        calls.append(len(vals))
        return solve(vals, phi, **kw)

    monkeypatch.setattr(fracdiff, "_lux_rows", counted)
    counts = []
    for num_funcs in (2, 16):
        calls.clear()
        direct_report("lacunary", 1.0, P2, n_max=128, num_funcs=num_funcs, grid=64)
        counts.append(len(calls))
    assert counts[1] <= counts[0]


def test_every_swept_member_has_a_nonzero_frequency():
    from orliczseq.verify import _PROBES

    assert all(f.max_freq >= 1 for _, f in _PROBES)
    for family in list_families():
        for seed in range(4):
            gen, rng = generator(family), np.random.default_rng(seed)
            assert all(gen(rng).max_freq >= 1 for _ in range(32))


def test_format_json_escapes_every_string_as_json():
    s = 'a"b\\c\nd\teé'
    assert json.loads(format_json({"k": s})) == {"k": s}

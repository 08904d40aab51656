import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

from orliczseq.cli import run
from orliczseq.fracdiff import modulus
from orliczseq.orlicz import from_spec
from orliczseq.spectrum import CoeffSeq, read_coeffs, write_coeffs
from orliczseq.verify import MajorantOmega, classify, rates_report

P2 = '{"family":"power","p":2}'
P2_GAUGE = from_spec(json.loads(P2))


@pytest.fixture
def coeff_file(tmp_path):
    def make(name, entries):
        path = tmp_path / name
        write_coeffs(CoeffSeq(entries), path)
        return str(path)

    return make


def test_norm_example(coeff_file, capsys):
    path = coeff_file("f.jsonl", {1: 3, 2: 4})
    assert run(["norm", "--orlicz", P2, "--input", path]) == 0
    assert capsys.readouterr().out == "5.0\n"


def test_norm_at_tol_zero_prints_the_l2_norm(coeff_file, capsys):
    # a tolerance below the double spacing still closes every Luxemburg bracket
    path = coeff_file("f.jsonl", {1: 1.0, 5: 0.5 + 0.2j})
    assert run(["norm", "--orlicz", P2, "--input", path, "--tol", "0"]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(math.hypot(1.0, 0.5, 0.2), rel=1e-10)


def test_en_example(coeff_file, capsys):
    path = coeff_file("ones.jsonl", {k: 1.0 for k in range(-3, 4)})
    assert run(["en", "--n", "2", "--orlicz", P2, "--input", path]) == 0
    assert capsys.readouterr().out == "2.0\n"


def test_onorm_and_omega_and_kfunc(coeff_file, capsys):
    path = coeff_file("h.jsonl", {1: 1.0})
    assert run(["onorm", "--orlicz", P2, "--input", path]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.0, abs=1e-9)

    assert run(["omega", "--alpha", "1", "--delta", "1.0", "--input", path]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2 * math.sin(0.5), abs=1e-8)

    assert run(["kfunc", "--alpha", "1", "--delta", "0.25", "--input", path]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["value"] == pytest.approx(0.25, abs=1e-6)
    assert set(payload) == {"value", "minimizer_degree", "candidates_tried", "refine_used"}


def test_kernel_export_round_trip(tmp_path, capsys):
    out = tmp_path / "kernel.jsonl"
    assert run(["kernel", "--n", "16", "--r", "2", "--output", str(out)]) == 0
    meta = json.loads(capsys.readouterr().out)
    assert meta["n"] == 16 and meta["p"] >= 1
    kern = read_coeffs(str(out))
    assert abs(2 * math.pi * kern[0].real - 1.0) < 1e-12
    assert kern.max_freq == meta["degree"]


def test_kernel_to_stdout(capsys):
    assert run(["kernel", "--n", "4", "--r", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert all(set(json.loads(l)) == {"k", "re", "im"} for l in lines)


def test_sigma_writes_band_limited_output(coeff_file, tmp_path, capsys):
    path = coeff_file("g.jsonl", {1: 1.0, 5: 0.25, 9: 0.125})
    out = tmp_path / "sigma.jsonl"
    assert run(["sigma", "--alpha", "2", "--n", "8", "--input", path, "--output", str(out)]) == 0
    sig = read_coeffs(str(out))
    assert sig.max_freq <= 7
    residual = float(capsys.readouterr().out)
    assert residual > 0.0


def test_usage_and_input_errors(coeff_file, tmp_path):
    assert run([]) == 2
    assert run(["norm"]) == 2  # missing --input
    assert run(["bogus"]) == 2
    path = coeff_file("f.jsonl", {1: 1.0})
    assert run(["norm", "--orlicz", "{not json", "--input", path]) == 2
    assert run(["norm", "--orlicz", '{"family":"power","p":2,"x":1}', "--input", path]) == 2
    assert run(["norm", "--orlicz", P2, "--input", str(tmp_path / "missing.jsonl")]) == 2
    assert run(["en", "--orlicz", P2, "--input", path]) == 2  # missing --n
    assert run(["verify", "balpha", "--alpha", "1"]) == 2  # missing --r


def test_malformed_input_reports_line_number(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"k": 0, "re": 1.0, "im": 0.0}\nnot json\n', encoding="utf-8")
    assert run(["norm", "--orlicz", P2, "--input", str(bad)]) == 2
    err = capsys.readouterr().err
    assert ":2:" in err


def test_verify_exit_codes(coeff_file, tmp_path):
    # passing report: majorant exponent strictly below alpha
    assert run(["verify", "balpha", "--alpha", "1", "--r", "0.5", "--n-max", "256",
                "--output", str(tmp_path / "ok.json")]) == 0
    # failing report: exponent at alpha diverges logarithmically
    assert run(["verify", "balpha", "--alpha", "1", "--r", "1.0", "--n-max", "256",
                "--output", str(tmp_path / "bad.json")]) == 1
    obj = json.loads((tmp_path / "ok.json").read_text())
    assert obj["passed"] is True


def test_verify_direct_report_contract(tmp_path):
    out = tmp_path / "report.json"
    code = run(["verify", "direct", "--alpha", "1", "--family", "random-band",
                "--seed", "7", "--n-max", "16", "--output", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    assert set(obj) == {"name", "params", "tolerance", "samples", "empirical_constant", "passed"}
    assert obj["params"]["seed"] == 7


def test_verify_csv_format(tmp_path):
    out = tmp_path / "report.csv"
    assert run(["verify", "balpha", "--alpha", "2", "--r", "1.0", "--n-max", "128",
                "--format", "csv", "--output", str(out)]) == 0
    lines = out.read_text().splitlines()
    header = next(l for l in lines if not l.startswith("#"))
    assert header == "descriptor,lhs,rhs,ratio,ok"


def test_cli_byte_identical_reruns(coeff_file, tmp_path):
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["verify", "equiv", "--alpha", "1", "--family", "lacunary", "--seed", "3",
            "--grid", "48"]
    assert run(argv + ["--output", str(out1)]) == 0
    assert run(argv + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_verify_grid_above_128_reaches_the_report(tmp_path):
    out = tmp_path / "report.json"
    assert run(["verify", "direct", "--n-max", "4", "--family", "lacunary", "--grid", "200",
                "--output", str(out)]) == 0
    assert json.loads(out.read_text())["params"]["grid"] == 200


@pytest.mark.parametrize("argv, default", [(["verify", "--help"], 128), (["omega", "--help"], 512)])
def test_help_states_the_grid_default(argv, default, capsys):
    assert run(argv) == 0
    assert f"shift-search grid size (default {default})" in " ".join(capsys.readouterr().out.split())


def test_round_trip_identity(tmp_path):
    f = CoeffSeq({-7: 1.5 + 0.25j, 0: -2.0, 3: 1e-30})
    path = tmp_path / "f.jsonl"
    write_coeffs(f, path)
    assert read_coeffs(path) == f


def test_duplicate_and_non_finite_input_lines_exit_2(tmp_path, capsys):
    dup = tmp_path / "dup.jsonl"
    dup.write_text('{"k": 1, "re": 1.0, "im": 0.0}\n{"k": 1, "re": 2.0, "im": 0.0}\n',
                   encoding="utf-8")
    assert run(["norm", "--orlicz", P2, "--input", str(dup)]) == 2
    assert ":2: duplicate k=1" in capsys.readouterr().err
    nan = tmp_path / "nan.jsonl"
    nan.write_text('{"k": 1, "re": NaN, "im": 0.0}\n', encoding="utf-8")
    assert run(["norm", "--orlicz", P2, "--input", str(nan)]) == 2
    assert ":1:" in capsys.readouterr().err


@pytest.mark.parametrize("r", ["inf", "nan", "2.5"])
def test_kernel_rejects_non_integer_r(r, capsys):
    assert run(["kernel", "--n", "4", "--r", r]) == 2
    err = capsys.readouterr().err
    assert "integer --r" in err and "Traceback" not in err


def test_kernel_overflow_exits_2_without_nan(tmp_path, capsys):
    out = tmp_path / "kernel.jsonl"
    for extra in ([], ["--output", str(out)]):
        assert run(["kernel", "--n", "4096", "--r", "300", *extra]) == 2
        captured = capsys.readouterr()
        assert "NaN" not in captured.out and "finite" in captured.err
    assert not out.exists() or "NaN" not in out.read_text(encoding="utf-8")


def test_verify_direct_with_vanishing_modulus_exits_1(capsys):
    argv = ["verify", "direct", "--alpha", "200", "--family", "lacunary", "--n-max", "128",
            "--grid", "2"]
    assert run(argv) == 1
    assert json.loads(capsys.readouterr().out)["passed"] is False


def _cli_subprocess(*argv):
    """The CLI in a fresh interpreter, so numpy warnings reach stderr as a user sees them."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src + os.pathsep + os.environ.get("PYTHONPATH", "")}
    return subprocess.run([sys.executable, "-m", "orliczseq.cli", *argv], env=env,
                          capture_output=True, text=True, timeout=300)


def test_kernel_overflow_prints_one_error_line_naming_n_and_r():
    proc = _cli_subprocess("kernel", "--n", "4096", "--r", "300")
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "n=4096" in lines[0] and "r=300" in lines[0]


def test_verify_inverse_with_overflowing_weights_exits_1_without_warnings():
    proc = _cli_subprocess("verify", "inverse", "--alpha", "200", "--family", "lacunary",
                           "--n-max", "128", "--grid", "2")
    assert proc.returncode == 1
    assert proc.stderr == ""  # in particular no RuntimeWarning
    assert json.loads(proc.stdout)["passed"] is False


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
@pytest.mark.parametrize("command", [["norm"], ["omega", "--delta", "0.5"]], ids=" ".join)
def test_negative_or_non_finite_tol_is_a_usage_error_naming_tol(coeff_file, capsys, command, tol):
    path = coeff_file("t.jsonl", {-2: 0.5 + 0.25j, 0: 1.0, 3: -1.0 + 2.0j})
    assert run([*command, "--input", path, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--tol" in captured.err


def test_kfunc_with_a_non_finite_order_or_overflowing_scale_prints_one_error_line(coeff_file):
    path = coeff_file("t.jsonl", {-2: 0.5 + 0.25j, 0: 1.0, 3: -1.0 + 2.0j})
    for alpha, delta in (("inf", "0.5"), ("2", "1e200")):
        proc = _cli_subprocess("kfunc", "--alpha", alpha, "--delta", delta, "--input", path)
        assert proc.returncode == 2 and proc.stdout == ""
        lines = proc.stderr.splitlines()  # in particular no RuntimeWarning
        assert len(lines) == 1 and lines[0].startswith("error:") and "finite" in lines[0]


def test_kfunc_with_overflowing_derivative_weights_prints_one_error_line(coeff_file):
    path = coeff_file("t.jsonl", {-2: 1.0, 1: 0.5, 3: 0.25})
    proc = _cli_subprocess("kfunc", "--alpha", "800", "--delta", "0.5", "--input", path)
    assert proc.returncode == 2 and proc.stdout == ""
    lines = proc.stderr.splitlines()  # in particular no RuntimeWarning
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "alpha = 800" in lines[0] and "max|k| = 3" in lines[0]


def test_onorm_of_a_sequence_below_1e_292_prints_twice_its_l2_norm(coeff_file, capsys):
    path = coeff_file("tiny.jsonl", {1: 1e-300, 3: 5e-301})
    assert run(["onorm", "--orlicz", P2, "--input", path]) == 0
    assert float(capsys.readouterr().out) == pytest.approx(2.2360679775e-300, rel=1e-10)


def test_norm_whose_coefficient_sum_overflows_prints_a_finite_value(coeff_file):
    path = coeff_file("big.jsonl", {1: 1e308, 2: 1e308})
    proc = _cli_subprocess("norm", "--orlicz", P2, "--input", path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "1.4142135624e+308\n", "")


def test_omega_whose_shift_rows_would_overflow_prints_a_finite_value(coeff_file):
    # |2 sin(h/2)| |c_1| passes the double range near h = pi, but the modulus, about 1.747e308, does not
    plog = '{"family":"power_log","p":2}'
    path = coeff_file("big.jsonl", {1: 1e308})
    proc = _cli_subprocess("omega", "--alpha", "1", "--delta", "3.14159", "--orlicz", plog, "--input", path)
    want = 1e308 * modulus(CoeffSeq({1: 1.0}), from_spec(json.loads(plog)), 1.0, 3.14159)
    assert proc.returncode == 0 and proc.stderr == ""
    assert float(proc.stdout) == float(f"{want:.11g}") and math.isfinite(want)


def test_omega_beyond_the_double_range_prints_inf_without_a_warning(coeff_file):
    path = coeff_file("big.jsonl", {1: 1e308})
    proc = _cli_subprocess("omega", "--alpha", "1", "--delta", "3", "--orlicz", P2, "--input", path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "inf\n", "")


def test_omega_past_pi_prints_the_modulus_at_pi_without_a_warning(coeff_file):
    # the shift norm is 2 pi-periodic in h, so no shift past pi is solved and no h k overflows
    path = coeff_file("two.jsonl", {1: 1, 3: 0.5 + 0.25j})
    at_pi = _cli_subprocess("omega", "--alpha", "1", "--delta", "3.141592653589793", "--input", path)
    far = _cli_subprocess("omega", "--alpha", "1", "--delta", "1e308", "--input", path)
    assert (far.returncode, far.stderr) == (0, "")
    assert far.stdout == at_pi.stdout


def test_kfunc_output_goes_to_the_file_and_nothing_to_stdout(coeff_file, tmp_path, capsys):
    path = coeff_file("h.jsonl", {1: 1.0, -3: 0.5})
    argv = ["kfunc", "--alpha", "1", "--delta", "0.25", "--input", path]
    assert run(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "k.json"
    assert run(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == printed and set(json.loads(printed)) >= {"value"}


def test_omega_at_an_order_beyond_1024_prints_inf_without_a_warning(coeff_file):
    # the modulus, above 1e330, is beyond the double range, but no shift row overflows on the way
    path = coeff_file("two.jsonl", {1: 1.0, 3: 0.5})
    proc = _cli_subprocess("omega", "--alpha", "1100", "--delta", "3", "--input", path)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "inf\n", "")


def test_norm_of_a_file_whose_magnitude_overflows_names_the_line(tmp_path):
    path = tmp_path / "over.jsonl"
    path.write_text('{"k": 1, "re": 1.0, "im": 0.0}\n{"k": 2, "re": 1.7e308, "im": 1.7e308}\n', encoding="utf-8")
    proc = _cli_subprocess("norm", "--input", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert errors == [f"orliczseq: error: {path}:2: |re + i im| is beyond the double range"]
    assert "Warning" not in proc.stderr


def test_an_undecodable_byte_is_reported_with_the_file_and_its_line(tmp_path):
    # the byte sits past the decoder's first 8 KB chunk, so the chunk-relative position names no line
    lines = [f'{{"k": {k}, "re": 0.125, "im": -0.5}}\n'.encode() for k in range(1, 1501)]
    lines[1000] = lines[1000].replace(b"0.125", b"0.12\xff")
    path = tmp_path / "bad.jsonl"
    path.write_bytes(b"".join(lines))
    proc = _cli_subprocess("norm", "--input", str(path))
    assert proc.returncode == 2 and proc.stdout == ""
    errors = [line for line in proc.stderr.splitlines() if "error:" in line]
    assert len(errors) == 1 and f"{path}:1001: not UTF-8 text" in errors[0]


def test_verify_classify_prints_the_reports_json(coeff_file, capsys):
    path = coeff_file("c.jsonl", {k: k ** -1.5 for k in range(1, 257)})
    report = classify(read_coeffs(path), P2_GAUGE, MajorantOmega.power(1.0), 2.0, n_max=32, grid=128)
    code = run(["verify", "classify", "--input", path, "--r", "1", "--alpha", "2", "--n-max", "32"])
    assert (code, capsys.readouterr().out) == (0 if report.passed else 1, report.to_json())


def test_verify_rates_prints_the_reports_json(capsys):
    report = rates_report(1.0, 2.0, P2_GAUGE, band=256, j_min=3, j_max=9, grid=128)
    code = run(["verify", "rates", "--beta", "1", "--alpha", "2", "--band", "256"])
    assert (code, capsys.readouterr().out) == (0 if report.passed else 1, report.to_json())

"""Fuzz test of the command line over bounded argv and input files.

Every invocation must end in exit code 0, 1 or 2 with no traceback.  Sizes
stay small so that a run takes seconds: the sweep kinds always get a small
--n-max and one of the small families, whose default values would make a
single example take many seconds.
"""

import contextlib
import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orliczseq.cli import run

_FILES = {
    "good.jsonl": '{"k": -2, "re": 0.5, "im": 0.25}\n{"k": 0, "re": 1.0, "im": 0.0}\n'
                  '{"k": 3, "re": -1.0, "im": 2.0}\n',
    "constant.jsonl": '{"k": 0, "re": 1.0, "im": 0.0}\n',
    "zeros.jsonl": '{"k": 1, "re": 0.0, "im": 0.0}\n',
    "empty.jsonl": "",
    "tiny.jsonl": '{"k": 1, "re": 1e-300, "im": 0.0}\n{"k": 2, "re": 5e-324, "im": 0.0}\n',
    "nan.jsonl": '{"k": 1, "re": NaN, "im": 0.0}\n',
    "overflow.jsonl": '{"k": 1, "re": 1e400, "im": 0.0}\n',
    "big-int.jsonl": '{"k": 1, "re": 1' + "0" * 400 + ', "im": 0.0}\n',
    "big-k.jsonl": '{"k": 100000000000000000000, "re": 1.0, "im": 0.0}\n',
    "duplicate.jsonl": '{"k": 1, "re": 1.0, "im": 0.0}\n{"k": 1, "re": 2.0, "im": 0.0}\n',
    "descending.jsonl": '{"k": 2, "re": 1.0, "im": 0.0}\n{"k": 1, "re": 2.0, "im": 0.0}\n',
    "not-json.jsonl": "hello\n",
    "wrong-keys.jsonl": '{"k": 1, "re": 1.0}\n',
}

_REALS = st.sampled_from(["-1", "0", "0.5", "1", "2", "3", "1e3", "inf", "-inf", "nan", "x"])
_INTS = st.sampled_from(["-1", "0", "1", "2", "3", "8", "1.5", "x"])
_SMALL_N_MAX = st.sampled_from(["-1", "0", "1", "2", "x"])
_GAUGES = st.sampled_from([
    '{"family":"power","p":2}', '{"family":"exp_minus_one"}', '{"family":"power_log","p":2}',
    '{"family":"power","p":1}', '{"family":"power","p":0.5}', '{"family":"power","p":1e308}',
    '{"family":"power","p":"2"}', '{"family":"nope"}', '[]', '{',
])
_FLAGS = {
    "--orlicz": _GAUGES,
    "--alpha": _REALS,
    "--beta": _REALS,
    "--delta": _REALS,
    "--r": _REALS,
    "--tol": st.sampled_from(["1e-12", "1e-6", "0", "-1", "nan", "inf", "x"]),
    "--n": _INTS,
    "--grid": st.sampled_from(["-1", "0", "1", "2", "8", "x"]),
    "--seed": st.sampled_from(["0", "7", "-1", "x"]),
    "--band": st.sampled_from(["-1", "0", "64", "x"]),
    "--format": st.sampled_from(["json", "csv", "xml"]),
    "--input": st.sampled_from(sorted(_FILES) + ["missing.jsonl", "."]),
    "--output": st.sampled_from(["out.txt", "no-such-dir/out.txt"]),
}
_SWEEPS = {"verify direct", "verify inverse", "verify equiv"}
_COMMANDS = ["norm", "onorm", "en", "omega", "kfunc", "kernel", "sigma", "verify classify",
             "verify rates", "verify balpha", *sorted(_SWEEPS)]


@st.composite
def _argv(draw):
    command = draw(st.sampled_from(_COMMANDS))
    argv = command.split()
    if command in _SWEEPS:
        argv += ["--n-max", draw(_SMALL_N_MAX),
                 "--family", draw(st.sampled_from(["lacunary", "random-sparse", "bogus"]))]
    elif command.startswith("verify"):
        argv += ["--n-max", draw(_SMALL_N_MAX)]
    for flag in draw(st.lists(st.sampled_from(sorted(_FLAGS)), unique=True, max_size=6)):
        argv += [flag, draw(_FLAGS[flag])]
    return argv


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    for name, text in _FILES.items():
        (path / name).write_text(text, encoding="utf-8")
    return path


@settings(max_examples=40, deadline=None)
@given(argv=_argv())
# crashes seen before the reader checked its values and the CLI caught
# arithmetic errors
@example(argv=["kernel", "--n", "4", "--r", "inf"])
@example(argv=["norm", "--input", "big-int.jsonl"])
@example(argv=["onorm", "--input", "big-k.jsonl"])
@example(argv=["norm", "--orlicz", '{"family":"power","p":1e308}', "--input", "good.jsonl"])
@example(argv=["verify", "inverse", "--n-max", "0", "--family", "lacunary"])
@example(argv=["verify", "direct", "--n-max", "1", "--family", "lacunary", "--alpha", "nan"])
def test_cli_exit_codes_and_no_traceback(workdir, argv):
    # file names after --input and --output live in the module's work directory
    argv = [str(workdir / a) if i and argv[i - 1] in ("--input", "--output") else a
            for i, a in enumerate(argv)]
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue(), argv

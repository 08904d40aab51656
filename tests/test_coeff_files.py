"""The block-parsing coefficient-file reader against the line-by-line reader it replaced."""

import io
import json
import math
import sys
from pathlib import Path

import pytest

from orliczseq import spectrum
from orliczseq.spectrum import CoeffSeq, read_coeffs, write_coeffs


def reference_read_coeffs(source) -> CoeffSeq:
    """The line-by-line reader: one json.loads and one set of checks per non-blank line."""
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            return reference_read_coeffs(fh)
    name, pairs = getattr(source, "name", "<stream>"), []
    for lineno, line in enumerate(source, 1):
        line = line.strip()
        if not line:
            continue
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name}:{lineno}: invalid JSON ({exc.msg})") from None
        if not isinstance(obj, dict) or set(obj) != {"k", "re", "im"}:
            raise ValueError(f"{name}:{lineno}: expected exactly the keys k, re, im")
        k, re, im = obj["k"], obj["re"], obj["im"]
        if not isinstance(k, int) or isinstance(k, bool) or abs(k) >= 2**63:
            raise ValueError(f"{name}:{lineno}: k must be an integer below 2**63 in magnitude")
        if not all(type(v) in (int, float) and abs(v) <= sys.float_info.max for v in (re, im)):
            raise ValueError(f"{name}:{lineno}: re and im must be numbers and finite")
        if pairs and k <= pairs[-1][0]:
            kind = "duplicate" if k == pairs[-1][0] else "descending"
            raise ValueError(f"{name}:{lineno}: {kind} k={k}; k must strictly ascend")
        pairs.append((k, complex(re, im)))
    return CoeffSeq(pairs)


def _line(k, re=1.0, im=0.0):
    return json.dumps({"k": k, "re": re, "im": im})


GOOD = "\n".join(_line(k, 0.5 + k, -0.25 * k) for k in range(5000))
TOP = 2**63 - 1
BIG = int(sys.float_info.max)

VALID = {
    "blank-and-whitespace-lines": "\n\n" + _line(-1) + "\n   \n\t\n" + _line(2, 0.5, 0.25) + "\n \n",
    "crlf": _line(-3) + "\r\n" + _line(0, -1.5) + "\r\n\r\n" + _line(7, 2.0, 3.0) + "\r\n",
    "form-feed-around-a-line": "\x0c" + _line(1) + "\x0c\n\x0c" + _line(2, 3.0) + " \x0c\n",
    "minus-zero": '{"k": -0, "re": -0, "im": 1}\n{"k": 1, "re": -0.0, "im": -0.0}\n'
                  '{"k": 2, "re": -0.0, "im": 2.5}\n{"k": 3, "re": 1.5, "im": -0.0}\n',
    "subnormal": _line(1, 5e-324, -5e-324) + "\n" + _line(2, 0.0, 5e-324) + "\n",
    "largest-double": _line(1, 1.7976931348623157e308) + "\n" + _line(2, 0.0, -1.7976931348623157e308) + "\n",
    "int64-extremes": _line(-TOP, 1.0, 2.0) + "\n" + _line(TOP, -3.0, 0.5) + "\n",
    "repeated-key": '{"k": 1, "re": 5.0, "re": 0.5, "im": 0.0}\n{"k": 2, "k": 3, "re": 1, "im": 2}\n',
    "integer-parts": '{"k": 1, "re": 9007199254740993, "im": -18446744073709551617}\n'
                     f'{{"k": 2, "re": {BIG}, "im": 0}}\n',
    "empty-file": "",
    "blank-only": "\n \n\r\n",
    "no-final-newline": _line(1) + "\n" + _line(2, 2.0),
    "spaces-inside": '{ "k" : 1 , "re" : 0.5 , "im" : 0.25 }\n{"k":2,"re":1e-5,"im":-3}\n',
    "several-blocks": "\n".join(_line(k, 1.0 / (1 + abs(k)), 0.5) for k in range(-1500, 1500)) + "\n",
    "drops-exact-zeros": _line(1, 0.0, 0.0) + "\n" + _line(2, 1.0) + "\n" + _line(3, 0, 0) + "\n",
}

MALFORMED = {
    "split-object": '{"k": 1, "re": 0.5\n"im": 0.0}, {"k": 2, "re": 1, "im": 0}\n',
    "two-objects-on-one-line": _line(0) + "\n" + _line(1) + ", " + _line(2) + "\n",
    "trailing-comma-after-object": _line(0) + "\n" + _line(1) + ",\n",
    "trailing-comma-inside-object": _line(0) + '\n{"k": 1, "re": 0.5, "im": 0.0,}\n',
    "nan": _line(0) + '\n{"k": 1, "re": NaN, "im": 0.0}\n',
    "infinity": _line(0) + '\n{"k": 1, "re": 0.0, "im": -Infinity}\n',
    "1e400": _line(0) + '\n{"k": 1, "re": 1e400, "im": 0.0}\n',
    "integer-beyond-the-double-range": _line(0) + f'\n{{"k": 1, "re": 0.0, "im": {BIG + 1}}}\n',
    "huge-integer-part": _line(0) + f'\n{{"k": 1, "re": {10**400}, "im": 0.0}}\n',
    "bool-k": _line(0) + '\n{"k": true, "re": 1.0, "im": 0.0}\n',
    "float-k": _line(0) + '\n{"k": 1.0, "re": 1.0, "im": 0.0}\n',
    "string-k": _line(0) + '\n{"k": "1", "re": 1.0, "im": 0.0}\n',
    "bool-part": _line(0) + '\n{"k": 1, "re": false, "im": 0.0}\n',
    "k-2**63": _line(0) + f"\n{_line(2**63)}\n",
    "k-minus-2**63": f"{_line(-(2**63))}\n{_line(0)}\n",
    "missing-key": _line(0) + '\n{"k": 1, "re": 0.5}\n',
    "extra-key": _line(0) + '\n{"k": 1, "re": 0.5, "im": 0.0, "x": 1}\n',
    "not-an-object": _line(0) + "\n[1, 0.5, 0.0]\n",
    "descending-k": _line(0) + "\n" + _line(-1) + "\n",
    "duplicate-k": _line(0) + "\n" + _line(0, 2.0) + "\n",
    "utf-8-bom": "\ufeff" + _line(0) + "\n" + _line(1) + "\n",
    "bad-line-after-5000-good-ones": GOOD + "\n\n" + '{"k": 5000, "re": 1.0}\n' + _line(5001) + "\n",
    "descending-across-blocks": GOOD + "\n" + _line(4000) + "\n",
    # a string that spans the join of two lines, alone and with a two-object line to keep the count
    "merge-through-a-string-alone": '{"k": 1, "re": "}\n{", "re": 0, "im": 0}\n' + _line(2) + "\n",
    "merge-through-a-string": '{"k": 1, "re": "}\n{", "re": 0, "im": 0}\n' + _line(2) + ", " + _line(3) + "\n",
    "merge-through-an-array": '{"k": [{}\n{}], "re": 0, "im": 0}\n' + _line(2) + ", " + _line(3) + "\n",
    "first-bad-line-wins": _line(0) + '\n{"k": 1, "re": NaN, "im": 0}\n{"k": 2}\nnot json\n',
}


def _outcome(reader, path):
    try:
        return "ok", reader(path)
    except ValueError as exc:
        return "error", str(exc)


def _write(tmp_path, text):
    path = tmp_path / "c.jsonl"
    path.write_bytes(text.encode("utf-8"))  # bytes, so CRLF reaches the reader's newline handling
    return path


@pytest.mark.parametrize("text", VALID.values(), ids=VALID.keys())
def test_valid_files_read_as_the_line_reader_reads_them(tmp_path, text):
    path = _write(tmp_path, text)
    want = reference_read_coeffs(path)
    got = read_coeffs(path)
    assert got == want and got.items() == want.items()
    assert [(math.copysign(1, c.real), math.copysign(1, c.imag)) for _, c in got.items()] == \
        [(math.copysign(1, c.real), math.copysign(1, c.imag)) for _, c in want.items()]


@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_files_raise_the_line_readers_error(tmp_path, text):
    path = _write(tmp_path, text)
    want = _outcome(reference_read_coeffs, path)
    assert want[0] == "error" and want[1].startswith(f"{path}:")
    assert _outcome(read_coeffs, path) == want


def test_streams_are_named_as_before():
    for text in (VALID["crlf"], MALFORMED["split-object"], MALFORMED["descending-across-blocks"]):
        assert _outcome(read_coeffs, io.StringIO(text)) == _outcome(reference_read_coeffs, io.StringIO(text))


def test_an_overflowing_magnitude_names_its_line(tmp_path):
    text = _line(1) + "\n\n" + _line(2, 1.7e308, 1.7e308) + "\n" + _line(3) + "\n"
    path = _write(tmp_path, text)
    with pytest.raises(ValueError, match="^coefficients must be finite$"):
        reference_read_coeffs(path)
    with pytest.raises(ValueError) as err:
        read_coeffs(path)
    assert str(err.value) == f"{path}:3: |re + i im| is beyond the double range"
    # the first bad line wins, before or after the overflowing one
    path = _write(tmp_path, text + '{"k": 4}\n')
    assert _outcome(read_coeffs, path) == ("error", f"{path}:3: |re + i im| is beyond the double range")
    path = _write(tmp_path, '{"k": 1}\n' + text)
    assert _outcome(read_coeffs, path) == _outcome(reference_read_coeffs, path)


def test_an_overflowing_magnitude_in_a_later_block_names_its_line(tmp_path):
    path = _write(tmp_path, GOOD + "\n" + _line(6000, -1.7e308, 1.7e308) + "\n")
    with pytest.raises(ValueError) as err:
        read_coeffs(path)
    assert str(err.value) == f"{path}:5001: |re + i im| is beyond the double range"


def test_a_wide_file_takes_one_json_loads_per_block(tmp_path, monkeypatch):
    f = CoeffSeq({k: complex(1.0 / (1 + abs(k)), 0.5 * (-1) ** k) for k in range(-4096, 4097)})
    path = tmp_path / "wide.jsonl"
    write_coeffs(f, path)
    calls = []
    loads = spectrum.json.loads
    monkeypatch.setattr(spectrum.json, "loads", lambda s, **kw: calls.append(1) or loads(s, **kw))
    assert read_coeffs(path) == f
    assert 1 <= len(calls) <= math.ceil(8193 / spectrum._BLOCK) < 8193

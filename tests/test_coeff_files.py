"""The block-parsing coefficient-file reader against the line-by-line reader it replaced."""

import io
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


# -- one parse, one error path -------------------------------------------------------------


@pytest.mark.parametrize("text", VALID.values(), ids=VALID.keys())
def test_valid_files_never_reach_the_line_pass(tmp_path, monkeypatch, text):
    path = _write(tmp_path, text)
    monkeypatch.setattr(spectrum, "_line_error", lambda *args: pytest.fail("a valid block reached the line pass"))
    assert read_coeffs(path) == reference_read_coeffs(path)


def _numbered(text):
    """The (line number, stripped line) pairs of text's non-blank lines, as read_coeffs makes its blocks."""
    return [(lineno, line.strip()) for lineno, line in enumerate(text.split("\n"), 1) if line.strip()]


_K = st.integers(-TOP, TOP) | st.sampled_from([-TOP, TOP, 0, -1, 1])
_PART = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
         | st.integers(-BIG - 2, BIG + 2).map(str)
         | st.sampled_from([str(BIG), str(BIG + 1), str(-BIG), str(-BIG - 1), "-0", "-0.0", "0", "5e-324",
                            "1.7976931348623157e308", "-1.7976931348623158e308", "1.7976931348623159e308",
                            "9007199254740993", str(-(2**64) - 1), "1E2", "-2.5e-3", "1.7e308"]))
# the earlier value of a repeated key, which the later one overwrites: any JSON, braces included
_OVERWRITTEN = st.recursive(st.none() | st.booleans() | st.integers() | st.text("{}[]\",:ab\\", max_size=4),
                            lambda inner: st.lists(inner, max_size=2) | st.dictionaries(st.text("k{}", max_size=2),
                                                                                          inner, max_size=2),
                            max_leaves=4).map(json.dumps)
_WS = st.sampled_from(["", " ", "\t", "  ", " \r"])
# one line of each MALFORMED kind that fits on a line or two, with the k of the line it replaces
_BAD = ['{"k": %d, "re": NaN, "im": 0.0}', '{"k": %d, "re": 0.0, "im": -Infinity}', '{"k": %d, "re": 1e400, "im": 0}',
        '{"k": %d, "re": 0.0, "im": ' + str(BIG + 1) + '}', '{"k": %d, "re": ' + str(10**400) + ', "im": 0.0}',
        '{"k": true, "re": 1.0, "im": 0.0}', '{"k": %d.0, "re": 1.0, "im": 0.0}', '{"k": "%d", "re": 1.0, "im": 0}',
        '{"k": %d, "re": false, "im": 0.0}', '{"k": 9223372036854775808, "re": 1, "im": 0}',
        '{"k": -9223372036854775808, "re": 1, "im": 0}', '{"k": %d, "re": 0.5}',
        '{"k": %d, "re": 0.5, "im": 0.0, "x": 1}', "[%d, 0.5, 0.0]", '{"k": %d, "re": 0.5, "im": 0.0,}',
        '{"k": %d, "re": 0.5, "im": 0.0},', '{"k": %d, "re": 0.5, "im": 0.0}, {"k": 0, "re": 1, "im": 0}',
        '\ufeff{"k": %d, "re": 0.5, "im": 0.0}', "not json %d", '{"k": %d, "re": 0.5\n"im": 0.0}',
        '{"k": %d, "re": "}\n{", "re": 0, "im": 0}', '{"k": [{}\n{}], "re": %d, "im": 0}',
        '{"k": %d, "re": 1.7e308, "im": 1.7e308}']


@st.composite
def _valid_line(draw, k):
    """A line holding k and two drawn parts: keys in any order, some letters escaped, maybe one key repeated."""
    members = [(name, str(k) if name == "k" else draw(_PART)) for name in draw(st.permutations(["k", "re", "im"]))]
    if draw(st.booleans()):  # a repeated key, whose earlier value the later one overwrites
        j = draw(st.integers(0, 2))
        members.insert(draw(st.integers(0, j)), (members[j][0], draw(_OVERWRITTEN)))

    def key(name):  # "\u006b" for "k", and so on, letter by letter
        return '"' + "".join(f"\\u{ord(ch):04x}" if draw(st.booleans()) else ch for ch in name) + '"'

    def ws():
        return draw(_WS)

    return ws() + "{" + ",".join(f"{ws()}{key(name)}{ws()}:{ws()}{value}{ws()}" for name, value in members) + "}" + ws()


@st.composite
def _blocks(draw):
    """(text, prev): a few valid lines with ascending k, at most one of them mutated, and the k before them."""
    ks = sorted(draw(st.lists(_K, min_size=1, max_size=8, unique=True)))
    lines = [draw(_valid_line(k)) for k in ks]
    i = draw(st.integers(0, len(lines) - 1))
    mutation = draw(st.sampled_from(["none", "bad", "repeat", "swap"]))
    if mutation == "bad":
        bad = draw(st.sampled_from(_BAD))
        lines[i] = bad % ks[i] if "%d" in bad else bad
    elif mutation == "repeat" and i:  # duplicate k
        lines[i] = lines[i - 1]
    elif mutation == "swap" and i:  # descending k
        lines[i - 1], lines[i] = lines[i], lines[i - 1]
    prev = draw(st.sampled_from([-2**63, ks[0] - 1, ks[0], min(ks[0] + 1, TOP), TOP]))  # -2**63: below every k
    return "\n".join(lines) + "\n", prev


@given(_blocks())
@settings(max_examples=300, deadline=None)
def test_a_block_reads_in_one_parse_exactly_when_the_line_reader_accepts_it(case):
    text, prev = case
    head = "" if prev == -2**63 else _line(prev) + "\n"  # prev as the line before the block
    try:
        reference_read_coeffs(io.StringIO(head + text))
        accepted = True
    except ValueError:
        accepted = False
    got = spectrum._block_arrays(_numbered(text), prev)
    assert (got is not None) == accepted
    if accepted:
        objs = [json.loads(line) for _, line in _numbered(text)]
        want_ks = np.array([obj["k"] for obj in objs], dtype=np.int64)
        want_cs = np.array([complex(obj["re"], obj["im"]) for obj in objs], dtype=np.complex128)
        assert np.array_equal(got[0], want_ks) and got[1].tobytes() == want_cs.tobytes()  # signed zeros too
    else:
        with pytest.raises(ValueError, match=r"^c:\d+: "):
            spectrum._line_error("c", _numbered(text), prev)


def _broken(bad_json=None, byte=None, n=1200):
    """n good lines, with line bad_json not JSON and line byte holding an undecodable 0xff."""
    lines = [f'{{"k": {k}, "re": 0.125, "im": -0.5}}\n'.encode() for k in range(1, n + 1)]
    if bad_json:
        lines[bad_json - 1] = b"not json\n"
    if byte:
        lines[byte - 1] = lines[byte - 1].replace(b"0.125", b"0.12\xff")
    return b"".join(lines)


@pytest.mark.parametrize("bad_json, byte, named", [(3, 40, "3: invalid JSON (Expecting value)"),
                                                   (3, 400, "3: invalid JSON (Expecting value)"),
                                                   (3, 1001, "3: invalid JSON (Expecting value)"),
                                                   (40, 2, "2: not UTF-8 text (invalid start byte)")])
def test_the_first_bad_line_of_any_kind_is_named(tmp_path, bad_json, byte, named):
    path = tmp_path / "mixed.jsonl"
    path.write_bytes(_broken(bad_json, byte))
    assert _outcome(read_coeffs, path) == ("error", f"{path}:{named}")


def test_a_path_is_opened_once(tmp_path, monkeypatch):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(_broken(byte=1001))
    opened = []
    monkeypatch.setattr(spectrum, "open", lambda *args, **kw: opened.append(args) or open(*args, **kw), raising=False)
    assert _outcome(read_coeffs, path) == ("error", f"{path}:1001: not UTF-8 text (invalid start byte)")
    assert len(opened) == 1


def test_an_undecodable_byte_by_path_and_by_stream(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_bytes(_broken(byte=1001))
    assert _outcome(read_coeffs, path) == ("error", f"{path}:1001: not UTF-8 text (invalid start byte)")
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:  # named as a path is
        assert _outcome(read_coeffs, fh) == ("error", f"{path}:1001: not UTF-8 text (invalid start byte)")
    with open(path, encoding="utf-8") as fh:  # the decoder fails somewhere in its read-ahead: no line
        assert _outcome(read_coeffs, fh) == ("error", f"{path}: not UTF-8 text (invalid start byte)")


def test_a_repeated_keys_overwritten_value_may_hold_braces_but_not_an_undecodable_byte(tmp_path):
    text = '{"k": "{", "k": 1, "re": 0.5, "im": 0}\n{"re": {"a": ["}"]}, "k": 2, "re": 1, "im": -0.0}\n'
    path = _write(tmp_path, text)
    assert read_coeffs(path).items() == reference_read_coeffs(path).items() == [(1, 0.5 + 0j), (2, 1 + 0j)]
    path.write_bytes(b'{"k": 0, "re": 1, "im": 0}\n{"k": "\xff", "k": 1, "re": 0.5, "im": 0}\n')
    assert _outcome(read_coeffs, path) == ("error", f"{path}:2: not UTF-8 text (invalid start byte)")

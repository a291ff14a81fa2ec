"""The CLI writes its reports piece by piece to the stdout current at call
time: JSON byte for byte as `json.dumps(doc, sort_keys=True, indent=2)`
plus a newline, text tables line by line."""

import contextlib
import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from burnside.cli import _write_json, main

DATA = Path(__file__).parent / "data"
REPORT_GOLDEN = json.loads((DATA / "cli_golden.json").read_text())
# `marks`, `dmatrix` and `blocks -p 2` of S4, `tor` and `growth` of S3 in
# table format, as printed before the tables were streamed
TABLE_GOLDEN = json.loads((DATA / "cli_tables.json").read_text())


def reference(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def emitted(doc) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        _write_json(doc)
    return out.getvalue()


class Recorder:
    """A stdout that keeps each write apart; `broken_after` writes in,
    every further write raises BrokenPipeError."""

    def __init__(self, broken_after=None):
        self.pieces = []
        self.broken_after = broken_after
        self.refused = 0

    def write(self, text):
        if self.broken_after is not None \
                and len(self.pieces) >= self.broken_after:
            self.refused += 1
            raise BrokenPipeError(32, "Broken pipe")
        self.pieces.append(text)
        return len(text)


@pytest.mark.parametrize("case", REPORT_GOLDEN,
                         ids=lambda case: " ".join(case["argv"]))
def test_golden_documents_match_the_standard_library(case):
    doc = json.loads(case["stdout"])
    assert emitted(doc) == reference(doc) == case["stdout"]


# keys and strings that json must escape: quotes, backslashes, control
# characters, non-ASCII, astral characters and lone surrogates
STRINGS = st.text(st.characters(), max_size=6) | st.sampled_from(
    ['"', "\\", "\x00", "\x1f\x7f", "\n\t", "é", "\U0001f600", "\ud800",
     'a"b\\c\nd', ""])
SCALARS = (st.integers() | st.integers(-2 ** 80, 2 ** 80) | st.just(0)
           | st.booleans() | st.none() | st.floats() | STRINGS)
LEAVES = (SCALARS | st.lists(st.integers(), max_size=5)
          | st.lists(st.integers() | st.booleans(), max_size=5)
          | st.lists(STRINGS, max_size=5))
DOCUMENTS = st.recursive(
    LEAVES,
    lambda kids: (st.lists(kids, max_size=4)
                  | st.lists(kids, max_size=4).map(tuple)
                  | st.dictionaries(STRINGS, kids, max_size=4)),
    max_leaves=25)


@settings(max_examples=300, deadline=None)
@given(DOCUMENTS)
def test_random_documents_match_the_standard_library(doc):
    assert emitted(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    [float("nan"), float("inf"), -float("inf"), -0.0, 1e300],
    [1, True, 0, False, None], (), {}, [[], {}, ()], {"a": ()},
    [-1, 0, 2 ** 100], ["\U0001f600", "é", '"'],
])
def test_edge_documents_match_the_standard_library(doc):
    assert emitted(doc) == reference(doc)


@pytest.mark.parametrize("doc", [
    {1: 2}, {"a": {None: 1}}, [{(1, 2): 3}], {"a": 1, 2.5: 3},
])
def test_a_key_that_is_not_a_str_raises_type_error(doc):
    with pytest.raises(TypeError):
        emitted(doc)


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_report_streams_to_the_redirected_stdout(capsys, tmp_path, fmt):
    out = Recorder()
    with contextlib.redirect_stdout(out):
        code = main(["marks", "--group", "S4", "--format", fmt,
                     "--cache-dir", str(tmp_path)])
    assert code == 0
    assert capsys.readouterr().out == ""
    text = "".join(out.pieces)
    assert len(out.pieces) > 1
    assert text.endswith("\n") and not text.endswith("\n\n")
    if fmt == "json":
        assert text == reference(json.loads(text))


@pytest.mark.parametrize("fmt", ["json", "table"])
def test_broken_pipe_part_way_exits_0_quietly(tmp_path, fmt):
    argv = ["marks", "--group", "S4", "--format", fmt,
            "--cache-dir", str(tmp_path)]
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(argv) == 0  # fill the cache
    out, err = Recorder(broken_after=3), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 0
    assert err.getvalue() == ""
    assert len(out.pieces) == 3 and out.refused == 1


@pytest.mark.parametrize("case", TABLE_GOLDEN,
                         ids=lambda case: " ".join(case["argv"]))
def test_tables_are_unchanged(capsys, tmp_path, case):
    assert main(case["argv"] + ["--cache-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == case["stdout"]


def test_render_takes_int_widths_from_the_extremes():
    from burnside.cli import _render

    # -100 is the widest cell of its column though 7 is its largest value
    headers = ["x", "n", "m"]
    rows = [["a", 5, -100], ["bcd", 12, 7], ["", 0, 0]]
    widths = [max(len(h), *(len(str(row[j])) for row in rows))
              for j, h in enumerate(headers)]
    expected = ["  ".join(str(c).rjust(w) for c, w in zip(cells, widths))
                for cells in [headers, ["-" * w for w in widths], *rows]]
    assert list(_render(headers, zip(*rows), rows)) == expected
    assert expected[2] == "  a   5  -100"

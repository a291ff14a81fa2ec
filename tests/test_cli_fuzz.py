"""Hypothesis fuzzing of the CLI: the oracle commands over named groups,
and every command over random `--gens` strings.  Any argv ends in exit 0,
1 or 2, never in a traceback."""

import contextlib
import io

import pytest
from hypothesis import given, settings, strategies as st

from burnside.cli import main

# valid for some of S3 (1 2 3 6), C4 (1 2 4) and V4 (1 2a 2b 2c 4), and
# labels no group here has
LABELS = ["1", "2", "2a", "2b", "2c", "3", "4", "6", "0", "2d", "5", "x"]


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("marks-cache"))


@st.composite
def oracle_argv(draw):
    group = draw(st.sampled_from(["S3", "C4", "V4"]))
    if draw(st.booleans()):
        argv = ["verify", "--group", group, "--suite", "oracle"]
    else:
        argv = [draw(st.sampled_from(["ext", "tor"])), "--group", group,
                "--source", draw(st.sampled_from(LABELS)),
                "--target", draw(st.sampled_from(LABELS)), "--oracle"]
    degree = draw(st.none() | st.integers(-2, 6))
    if degree is not None:
        argv += ["--max-degree", str(degree)]
    return argv


def _assert_exits_cleanly(argv, cache_dir):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--cache-dir", cache_dir])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv


@settings(max_examples=20, deadline=None)
@given(argv=oracle_argv())
def test_oracle_commands_exit_cleanly(cache_dir, argv):
    _assert_exits_cleanly(argv, cache_dir)


JUNK = "()0123456789 ,-x"


@st.composite
def cycle_string(draw):
    """Generators in cycle notation on at most 5 points, possibly mangled."""
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        points = draw(st.permutations(range(1, 6)))
        cycles, start = [], 0
        while start < 5:
            stop = start + draw(st.integers(1, 5 - start))
            cycles.append(points[start:stop])
            start = stop
        fixed = draw(st.booleans())  # write 1-cycles too
        gens.append("".join("(" + " ".join(map(str, c)) + ")"
                            for c in cycles if fixed or len(c) > 1))
    text = ",".join(gens)
    how = draw(st.sampled_from(["keep", "insert", "delete", "random"]))
    if how == "random":
        return draw(st.text(alphabet=JUNK, max_size=16))
    if how == "keep":
        return text
    at = draw(st.integers(0, len(text)))
    if how == "insert":
        return text[:at] + draw(st.sampled_from(JUNK)) + text[at:]
    return text[:at] + text[at + 1:]


@st.composite
def gens_argv(draw):
    command = draw(st.sampled_from(
        ["marks", "dmatrix", "blocks", "ext", "tor", "growth", "verify"]))
    argv = [command, "--gens", draw(cycle_string())]
    if command in ("blocks", "growth"):
        argv += ["-p", str(draw(st.sampled_from(
            [2, 3, 4, 5, 0, 1, -3, 6, 9])))]
    if command in ("ext", "tor", "growth"):
        argv += ["--source", draw(st.sampled_from(LABELS)),
                 "--target", draw(st.sampled_from(LABELS))]
    top = 3  # keeps the resolutions of order-120 groups cheap
    if command == "verify":
        suite = draw(st.sampled_from(["squarefree", "dress", "blocks",
                                      "oracle"]))
        argv += ["--suite", suite]
        if suite == "oracle":
            top = 0  # degree 1 of S5 alone takes seconds
    if command in ("ext", "tor", "growth", "verify"):
        argv += ["--max-degree", str(draw(st.integers(-1, top)))]
    return argv


@settings(max_examples=25, deadline=None)
@given(argv=gens_argv())
def test_random_gens_exit_cleanly(cache_dir, argv):
    _assert_exits_cleanly(argv, cache_dir)

"""Hypothesis fuzzing of the oracle commands of the CLI: any argv ends in
exit 0, 1 or 2, never in a traceback."""

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


@settings(max_examples=20, deadline=None)
@given(argv=oracle_argv())
def test_oracle_commands_exit_cleanly(cache_dir, argv):
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        try:
            code = main(argv + ["--cache-dir", cache_dir])
        except SystemExit as exc:  # argparse usage errors
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), argv

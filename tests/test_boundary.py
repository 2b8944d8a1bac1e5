"""Bounded property tests of the input boundary: the two parsers and
`cli.main` raise or exit only in the documented ways on any input."""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from evqc.cli import main
from evqc.funcspace import parse_function
from evqc.states import parse_system

BOUNDARY = settings(max_examples=150, deadline=None, derandomize=True, database=None,
                    suppress_health_check=[HealthCheck.too_slow])

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
numbers = st.integers(-3, 24) | st.floats() | st.sampled_from([0.5, 2.0, 1e300, 10**30])
systems = st.fixed_dictionaries(
    {"n": numbers, "omega": st.lists(numbers, max_size=5) | json_values, "theta": numbers | json_values},
    optional={"couplings": st.lists(st.lists(numbers, max_size=4) | json_values, max_size=3)},
)
tables = st.text(alphabet="01", max_size=20) | st.integers(0, 1 << 20).map(hex) | st.text(max_size=12)
function_texts = st.text(max_size=40) | st.builds(
    "{}{}\n{}".format, st.sampled_from(["n=", "n =", "m=", ""]),
    st.integers(-2, 24).map(str) | st.sampled_from(["1.5", "x", "", "1e3", "99999999999"]), tables,
)


@BOUNDARY
@given(function_texts)
def test_parse_function_raises_only_value_error(text):
    try:
        parse_function(text)
    except ValueError:
        pass


@BOUNDARY
@given(json_values | systems)
def test_parse_system_raises_only_value_error(data):
    try:
        parse_system(data)
    except ValueError:
        pass


def _pick(draw, valid, invalid):
    """One of valid three times in four, else one of invalid."""
    return draw(st.sampled_from(invalid if draw(st.integers(0, 3)) == 0 else valid))


def _n(draw):
    return _pick(draw, ["1", "2", "3", "4", "5", "6"], ["-1", "0", "23"])


def _eps(draw):
    return _pick(draw, ["0.1", "1e-6"], ["0", "-0.1", "nan", "inf", "1e400"])


def _dt(draw):
    return _pick(draw, ["1e-4", "3e-3"], ["0", "-1e-4", "nan", "inf", "1e400", "1e-320"])


def _count(draw):
    return _pick(draw, [str(c) for c in (2, 8, 33, 64)], ["0", "-3", "nan", str((1 << 20) + 1)])


def _dir(draw):
    """The work directory, or a directory in it that does not exist."""
    return draw(st.sampled_from(["{work}", "{work}/missing"]))


@st.composite
def command_lines(draw):
    # Values go as --opt=value: argparse would read a separate "-1e-4" as an option.
    command = draw(st.sampled_from(["classify", "survey", "signal", "adversary"]))
    dump = []
    if command in ("classify", "signal") and draw(st.booleans()):
        dump = ["--dump-op", _dir(draw) + "/op.txt"]
    if command == "classify":
        argv = ["classify", "--protocol", draw(st.sampled_from(["pseudopure", "cn-thermal", "lifted"])),
                "--class", draw(st.sampled_from(["constant", "balanced", "cn"])),
                f"--n={_n(draw)}", f"--eps={_eps(draw)}", *dump]
        if draw(st.booleans()):
            argv += ["--out", _dir(draw) + "/report.json"]
    elif command == "survey":
        argv = ["survey", "--mode", draw(st.sampled_from(["dj", "cn"])), f"--n={_n(draw)}",
                "--out", _dir(draw) + "/table.csv"]
    elif command == "signal":
        argv = ["signal", f"--n={_n(draw)}", f"--dt={_dt(draw)}", f"--count={_count(draw)}",
                "--measure", _pick(draw, ["fx", "fy", "ixj:1"], ["ixj:9", "fz"]),
                "--out", _dir(draw) + "/t.csv", *dump]
        if draw(st.booleans()):
            argv += ["--class", draw(st.sampled_from(["constant", "balanced", "cn"]))]
    else:
        argv = ["adversary", f"--n={_n(draw)}", f"--trials={_pick(draw, ['0', '1', '5'], ['-2'])}",
                "--seed", "0"]
        if draw(st.booleans()):
            argv += ["--out", _dir(draw) + "/report.json"]
    return argv


def _listing(root: Path):
    return sorted(str(p.relative_to(root)) for p in root.rglob("*"))


@settings(BOUNDARY, max_examples=400)
@given(command_lines())
def test_main_exits_cleanly_and_writes_nothing_on_error(argv):
    with tempfile.TemporaryDirectory() as work:
        argv = [arg.format(work=work) for arg in argv]
        before = _listing(Path(work))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main(argv)
        err = err.getvalue()
        assert rc in (0, 1, 2), (argv, rc)
        assert "Traceback" not in err
        if rc == 1:
            lines = err.strip().splitlines()
            if lines[0].startswith("usage: "):  # argparse reports usage first
                assert lines[-1].startswith("error: ")
            else:
                assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
            assert out.getvalue() == ""
            assert _listing(Path(work)) == before, argv
        elif "--out" not in argv or argv[0] in ("survey", "signal"):  # their --out is a CSV
            assert len(out.getvalue().splitlines()) == 1
            json.loads(out.getvalue())

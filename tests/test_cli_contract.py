"""The exit-code contract of ``cli.main``, fuzzed over every row of ``cli._OPTIONS``.

Each example picks a subcommand and a random subset of its options, with
values drawn from the row's parser and accepted values, so an option added
to the table is fuzzed with no new test code.  The contract:

* exit 0 never comes with a non-finite value in the CSV;
* no run ends in an uncaught exception (exit 5);
* exit 2 (usage) and exit 4 (numeric divergence) write no CSV;
* exit 4 names its step on stderr: ``numeric divergence at step k``.

Runs stay small (at most 9 points or nodes, grid 9 and 100 steps): an
option the example leaves out takes a small value from ``SMALL`` instead of
its default, and the only large sizes drawn are over a budget, which the
CLI refuses before it builds any array.  Each breach found so far is
pinned as an explicit example, since a random draw reaches some of them
only rarely.
"""

import contextlib
import csv
import io
import math
import re
import tempfile
from pathlib import Path

from hypothesis import example, given, settings
from hypothesis import strategies as st

from dualpairs import cli, fields, peakons

CONTRACT = settings(max_examples=200, deadline=None, derandomize=True, database=None)

FLOATS = [0.0, -0.0, 5e-324, 1e154, 1e160, 1e308, math.nan, math.inf, 0.5, 2.0]

# the small value of an option a draw leaves out, where its default makes a larger run
SMALL = {
    "verify": {"count": 8, "grid": 8},
    "peakon": {"dt": 0.01, "t_final": 1.0, "nodes": 9},
    "advect": {"grid": 8, "steps": 8},
    "converge": {"grids": (4, 8)},
}

# sizes one over a budget; each is refused before any array is built
OVER_BUDGET = {
    "n": peakons.MAX_LINE_POINTS + 1,
    "dim": 4 * peakons.MAX_PAIRS,
    "nodes": math.isqrt(peakons.MAX_PAIRS) + 1,
    "grid": math.isqrt(fields.MAX_NODES) + 1,
}


def flag_text(value) -> str:
    return ",".join(map(str, value)) if isinstance(value, tuple) else repr(value)


def values(key, row):
    """A strategy of command-line texts for one ``_OPTIONS`` row, or None for a flag with no value."""
    parse, _, accepts, _ = row
    if parse is cli._as_bool:
        return None
    if isinstance(accepts, tuple):
        return st.sampled_from([*accepts, "bogus"])
    if parse is int:
        ints = st.integers(-1, 9)
        return (st.one_of(ints, st.just(OVER_BUDGET[key])) if key in OVER_BUDGET else ints).map(str)
    if parse is float:
        return st.sampled_from(FLOATS).map(repr)
    if parse is cli._as_grids:
        entries = st.one_of(st.integers(-1, 9), st.just(OVER_BUDGET["grid"]))
        return st.one_of(st.lists(entries, min_size=1, max_size=3).map(flag_text), st.just("bogus"))
    raise AssertionError(f"no strategy for option {key!r}: add one here")


@st.composite
def invocations(draw):
    """A subcommand and its flags: a random subset of its options, each with a drawn value."""
    command = draw(st.sampled_from(list(cli._OPTIONS)))
    argv, drawn = [command], set()
    for key, row in cli._OPTIONS[command].items():
        if key == "out" or draw(st.integers(0, 2)) > 0:  # each option is set in one draw of three
            continue
        drawn.add(key)
        text = values(key, row)
        argv += ["--" + key.replace("_", "-")] + ([] if text is None else [draw(text)])
    filament = "--filament" in argv
    for key, value in SMALL[command].items():
        # a filament size set on a point run is a usage error, which would hide every point run
        if key not in drawn and (key != "nodes" or filament):
            argv += ["--" + key.replace("_", "-"), flag_text(value)]
    return argv


def finite_csv(path: Path) -> bool:
    """True when every cell of the CSV that reads as a number is finite."""
    with open(path, newline="") as handle:
        for row in csv.reader(handle):
            for cell in row:
                try:
                    number = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(number):
                    return False
    return True


@CONTRACT
@given(invocations())
# each breach found so far, pinned: rk4 rows that overflowed to NaN, a run of 0 steps, a seed of
# -1, a Hamiltonian and an alpha whose squares overflow, and an advected map that overflows
@example(["peakon", "--method", "rk4", "--dim", "2", "--n", "3", "--alpha", "0.01", "--p", "1e200", "--dt", "1",
          "--t-final", "3"])
@example(["peakon", "--t-final", "1e-9"])
@example(["verify", "--seed", "-1"])
@example(["peakon", "--p", "1e160", "--dt", "0.01", "--t-final", "1"])
@example(["peakon", "--filament", "--nodes", "9", "--alpha", "1e160", "--dt", "0.01", "--t-final", "1"])
@example(["advect", "--dt", "1e308", "--grid", "8", "--steps", "8"])
def test_exit_codes_keep_their_contract(argv):
    with tempfile.TemporaryDirectory() as directory:
        path = Path(directory) / "run.csv"
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv + ["--out", str(path)])
        assert code in (0, 1, 2, 4), err.getvalue()
        if code in (2, 4):
            assert not path.exists()
        if code == 4:
            assert re.search(r"^numeric divergence at step \d+$", err.getvalue(), re.MULTILINE)
        if code == 0:
            assert finite_csv(path)

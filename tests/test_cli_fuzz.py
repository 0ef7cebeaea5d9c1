"""Fuzzed command lines: every argv ends in a documented exit code.

Values are small enough to run in milliseconds, or past a budget that is
refused before any work; reals and lists are hostile throughout.
"""

import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from matchstat.cli import main
from matchstat.distribution import COEFFICIENT_BUDGET, SERIES_BUDGET
from matchstat.matchings import SAMPLE_BUDGET

JUNK = ["", " ", "x", "1.5", "1e3", "0x10", "-", "1,", ",1"]
SPECIAL_REALS = [
    "nan", "-nan", "inf", "-inf", "0", "-0.0", "5e-324", "1e-300", "1e308"
]


def small_or_past(hi, budget):
    """An int as text: in 1..hi (two times in five), zero or negative,
    past ``budget``, or not an int at all."""
    small = st.integers(1, hi)
    past = st.integers(budget + 1, 10**30)
    return st.one_of(
        small, small, st.integers(-2, 0), past, st.sampled_from(JUNK)
    ).map(str)


def comma_list(items, hi):
    """Any list of ``items``, or distinct values in 1..hi in increasing order."""
    increasing = st.lists(st.integers(1, hi), min_size=1, max_size=4, unique=True)
    return st.one_of(
        st.lists(items, min_size=1, max_size=4).map(",".join),
        increasing.map(lambda ns: ",".join(map(str, sorted(ns)))),
    )


REALS = st.one_of(st.sampled_from(SPECIAL_REALS), st.floats().map(repr))
# lemma41 at 1e-5 < s < 0.05 may sum millions of terms (a pass of 2^22
# costs about half a second), so only the cheap ends are drawn: s >= 0.05,
# and s <= 1e-9, which the series budget refuses before any pass
SERIES_S = st.one_of(
    st.sampled_from(SPECIAL_REALS + ["1e-9"]),
    st.floats(max_value=0.0).map(repr),
    st.floats(min_value=0.05).map(repr),
)


@st.composite
def matchings(draw):
    """A valid, malformed or overlapping pair list."""
    n = draw(st.integers(1, 8))
    letters = draw(st.permutations(range(1, 2 * n + 1)))
    valid = ",".join(f"{a}-{b}" for a, b in zip(letters[::2], letters[1::2]))
    pairs = st.lists(st.tuples(st.integers(-1, 9), st.integers(-1, 9)), max_size=5)
    return draw(
        st.one_of(
            st.just(valid),
            pairs.map(lambda ps: ",".join(f"{a}-{b}" for a, b in ps)),
            st.text(alphabet="0123456789-, ", max_size=12),
        )
    )


def flag(name, values):
    """``--name=value``, mostly present; omitted one time in four."""
    given_ = values.map(lambda v: [f"--{name}={v}"])
    return st.one_of(st.just([]), given_, given_, given_)


def either(a, b):
    """One of two exclusive flags, or both."""
    return st.one_of(a, b, st.tuples(a, b).map(lambda p: p[0] + p[1]))


def command(name, *flags):
    return st.tuples(*flags).map(lambda parts: [name] + [w for p in parts for w in p])


COMMON = (
    flag("format", st.sampled_from(["text", "json", "csv", "xml"])),
    flag("out", st.sampled_from(["dir", "dir/missing/out.txt", "dir/out.txt"])),
)
SEEDS = st.one_of(st.integers(-3, 2**64 + 3), st.sampled_from(JUNK)).map(str)

ARGV = st.one_of(
    command("stats", flag("n", small_or_past(8, 10**6)), *COMMON),
    command("poly", flag("n", small_or_past(60, COEFFICIENT_BUDGET)), *COMMON),
    command("conjugate", flag("matching", matchings()), *COMMON),
    command(
        "tableau",
        either(flag("matching", matchings()), flag("random", small_or_past(4, 10**9))),
        flag("n", small_or_past(40, SAMPLE_BUDGET)),
        flag("seed", SEEDS),
        *COMMON,
    ),
    command(
        "clt",
        flag("n", small_or_past(60, SAMPLE_BUDGET)),
        flag("samples", small_or_past(80, 10**12)),
        flag("seed", SEEDS),
        *COMMON,
    ),
    command(
        "mgf",
        flag("n", comma_list(small_or_past(60, COEFFICIENT_BUDGET), 60)),
        flag("s", st.lists(REALS, min_size=1, max_size=4).map(",".join)),
        *COMMON,
    ),
    command(
        "lemma41",
        flag("n", comma_list(small_or_past(200, SERIES_BUDGET - 1024), 200)),
        flag("s", SERIES_S),
        *COMMON,
    ),
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=2000)
@given(argv=ARGV)
def test_every_argv_ends_in_a_documented_exit_code(workdir, argv):
    argv = [w.replace("--out=dir", f"--out={workdir}") for w in argv]
    out, err = io.StringIO(), io.StringIO()
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv("MATCHSTAT_THREADS", raising=False)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3)
    # only a refusal writes to stderr: no warning, and no library
    # self-check failure, which would mean a broken build
    if code >= 2:
        assert out.getvalue() == "" and err.getvalue()
    else:
        assert err.getvalue() == ""

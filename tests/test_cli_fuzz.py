"""Generated CLI inputs end in a documented exit code, never a traceback.

Drives eval, expand, graded and poset through click's CliRunner with
mostly valid, sometimes junk, h-sequences, pair sets and n, given as flags
or as a --json file, under several INVPOLY_MAX_N values.  h values stay
small (prefix values <= 8, tail offset <= 4) so that every run is quick.
Run with --hypothesis-show-statistics to see how often each command ends
in each code.
"""

import json
import os
import tempfile

from click.testing import CliRunner
from hypothesis import event, given, settings, strategies as st

from invpoly.cli import main
from invpoly.model import HSequence, Permutation, inv_h

# what these four commands may end in: ok, inadmissible set (or a click
# usage error), bad input, brute-force bound exceeded
DOCUMENTED = {0, 2, 3, 4}

JUNK = st.sampled_from([1.5, True, False, "1", "x", None, [], {}])
RAW_TEXT = st.sampled_from(["nope", "[[1,2]", "", "{'prefix': []}"])


def often(draw, value, junk):
    """value about nine times in ten, otherwise a draw from junk.

    The junk case sits at the top of the range because hypothesis favours
    the simplest value, 0.
    """
    return draw(junk) if draw(st.integers(0, 9)) == 9 else value


def int_or_junk(lo, hi):
    ints = st.integers(lo, hi)
    return st.one_of(ints, ints, ints, JUNK)


@st.composite
def valid_h(draw):
    t = draw(st.integers(1, 4))
    length = draw(st.integers(0, 3))
    prefix = []
    for i in range(1, length + 1):
        lo = max(prefix[-1] if prefix else 0, i + 1)
        hi = min(8, length + 1 + t)
        if lo > hi:
            break
        prefix.append(draw(st.integers(lo, hi)))
    return {"prefix": prefix, "tail_offset": t}


RAW_H = st.one_of(
    st.fixed_dictionaries({"prefix": st.lists(int_or_junk(-1, 8), max_size=3),
                           "tail_offset": int_or_junk(-1, 4)}),
    JUNK,
)
PAIR = st.one_of(
    st.lists(int_or_junk(0, 6), min_size=2, max_size=2),
    st.lists(st.integers(1, 6), max_size=3),
    JUNK,
)


@st.composite
def pair_set(draw, h):
    """Mostly the restricted inversion set of a permutation, so admissible."""
    if draw(st.integers(0, 4)) < 3:
        try:
            hseq = HSequence.from_json(h)
        except ValueError:
            pass
        else:
            word = draw(st.permutations(range(1, draw(st.integers(2, 6)) + 1)))
            return inv_h(hseq, Permutation(word)).to_json()
    return draw(st.one_of(st.lists(PAIR, max_size=5), JUNK))


@st.composite
def cli_case(draw):
    command = draw(st.sampled_from(["eval", "expand", "graded", "poset"]))
    h = often(draw, draw(valid_h()), RAW_H)
    fields = {"h": h, "S": draw(pair_set(h))}
    if command == "eval" or command == "graded" and draw(st.booleans()):
        fields["n"] = draw(int_or_junk(-2, 8))
    for key in list(fields):
        if draw(st.integers(0, 19)) == 19:
            del fields[key]
    args = ["--perms"] if command == "eval" and draw(st.booleans()) else []
    max_n = draw(st.sampled_from([None, "abc", "3", "8"]))
    if draw(st.booleans()):
        return command, args, often(draw, json.dumps(fields), RAW_TEXT), max_n
    for key, value in fields.items():
        if key == "n":
            text = value if isinstance(value, str) else json.dumps(value)
        else:
            text = often(draw, json.dumps(value), RAW_TEXT)
        args += ["--" + key.lower(), text]
    return command, args, None, max_n


@settings(max_examples=200, derandomize=True, deadline=None)
@given(cli_case())
def test_cli_exits_with_a_documented_code(case):
    command, args, spec, max_n = case
    with tempfile.TemporaryDirectory() as tmp:
        if spec is not None:
            path = os.path.join(tmp, "problem.json")
            with open(path, "w") as fh:
                fh.write(spec)
            args = [*args, "--json", path]
        res = CliRunner().invoke(main, [command, *args],
                                 env={"INVPOLY_MAX_N": max_n})
    event(f"{command} exit {res.exit_code}")
    assert res.exception is None or isinstance(res.exception, SystemExit), (
        res.output
    )
    assert res.exit_code in DOCUMENTED, res.output

"""The CLI's exit-code contract over generated process files.

Any file ends in a verdict (0 related, 1 not related) or in an input
error (3), never in an exception or a traceback.  Whether a file is
malformed is decided by the recursive oracle parser, not by the
library's.
"""

import contextlib
import io

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import grammar_oracle as oracle
from pomcheck.cli import EXIT_INPUT, EXIT_NOT_RELATED, EXIT_RELATED, main
from pomcheck.errors import ParseError
from pomcheck.grammar import format_tree
from pomcheck.testgen import random_tree

LABELS = st.sampled_from(["a", "b", "c"])


def _chain(depth, label):
    text = f"{label}:0"
    for _ in range(depth - 1):
        text = f"{label}:({text})"
    return text


small_trees = st.builds(
    lambda seed, budget: format_tree(random_tree(seed, budget, ("a", "b"))),
    st.integers(0, 10**6), st.integers(1, 9))
chains = st.builds(_chain, st.integers(1, 300), LABELS)
wide_sums = st.lists(
    st.tuples(LABELS, st.sampled_from(["0", "W", "(b:0)", "(a:0 + W)"])),
    min_size=1, max_size=40,
).map(lambda parts: " + ".join(f"{lab}:{body}" for lab, body in parts))
terms = st.one_of(small_trees, chains, wide_sums)


def _file(left, right):
    return f"proc P = {left}\nproc Q = {right}\n"


@st.composite
def malformed(draw):
    """A valid file with random characters inserted or deleted."""
    text = draw(st.builds(_file, terms, terms))
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            text = text[:k] + draw(st.sampled_from("ab0W+:(){},;<=#$? \n")) \
                + text[k:]
        else:
            text = text[:k] + text[k + 1:]
    return text


def _well_formed(text):
    try:
        table = oracle.parse(text)
    except ParseError:
        return False
    return "P" in table and "Q" in table


def _check(path, text, rel):
    path.write_text(text, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(["check", "--left", "P", "--right", "Q", "--rel", rel,
                     str(path)])
    assert "Traceback" not in out.getvalue() + err.getvalue()
    return code


CONTRACT = settings(max_examples=100, deadline=None, database=None,
                    derandomize=True,
                    suppress_health_check=[HealthCheck.too_slow])


@CONTRACT
@given(text=st.one_of(st.builds(_file, terms, terms), malformed()),
       rel=st.sampled_from(["step", "hp"]))
def test_every_file_gets_a_documented_exit_code(tmp_path_factory, text, rel):
    path = tmp_path_factory.getbasetemp() / "exit-codes.pom"
    code = _check(path, text, rel)
    if _well_formed(text):
        assert code in (EXIT_RELATED, EXIT_NOT_RELATED), text
    else:
        assert code == EXIT_INPUT, text

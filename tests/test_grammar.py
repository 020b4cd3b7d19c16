"""Process-language parsing and pretty-printing."""

import ast
import random

import pytest

import grammar_oracle as oracle
from conftest import f1_terms, random_labelled_poset, tree_corpus
from pomcheck.errors import ParseError
from pomcheck.grammar import (
    format_pomset,
    format_table,
    format_tree,
    parse,
    parse_pomset,
    parse_term,
)
from pomcheck.pomset import canonicalize, chain_of, singleton, step_of
from pomcheck.synctree import NIL, OMEGA, SyncTree, prefix
from pomcheck.testgen import random_tree

A = singleton("a")
B = singleton("b")


class TestParse:
    def test_nil_declaration(self):
        assert parse("proc P = 0") == {"P": NIL}

    def test_divergent_sum(self):
        table = parse("proc D = a:(0) + W")
        assert table["D"] == prefix(A).with_omega()

    def test_multiple_declarations_and_comments(self):
        text = """
        # two processes
        proc P = {a,b}:0      # concurrent
        proc Q = a:(b:0) + b:(a:0)
        """
        table = parse(text)
        assert table["P"] == prefix(step_of("ab"))
        assert table["Q"] == SyncTree([(A, prefix(B)), (B, prefix(A))])

    def test_pomset_literal_with_edges(self):
        table = parse("proc C = pomset{e1:a; e2:b; e1<e2}:(0)")
        assert table["C"] == prefix(chain_of("ab"))

    def test_round_trip(self):
        text = "proc C = pomset{e1:a; e2:b; e1<e2}:(0)\nproc D = {a,b}:W + W"
        table = parse(text)
        assert parse(format_table(table)) == table

    def test_nested_terms(self):
        t = parse_term("a:(b:(c:0) + W)")
        (u, child), = t.summands
        assert u == A and child.divergent
        assert child.summands[0][0] == B

    def test_errors(self):
        for bad in (
            "",                       # empty file
            "proc = 0",               # missing name
            "proc P = 0 proc P = 0",  # duplicate name
            "proc P = {}:0",          # empty step literal
            "proc P = pomset{}:0",    # empty pomset literal
            "proc P = a:",            # truncated
            "P = 0",                  # missing proc keyword
            "proc P = a:0 $",         # bad character
            "proc P = pomset{e:a; e<e}:0",  # reflexive edge
        ):
            with pytest.raises(ParseError):
                parse(bad)

    def test_error_carries_position(self):
        with pytest.raises(ParseError) as exc:
            parse("proc P = 0\nproc Q = ?")
        assert exc.value.line == 2


class TestParsePomset:
    def test_singleton(self):
        assert parse_pomset("a") == A

    def test_step(self):
        assert parse_pomset("{a,b}") == step_of("ab")

    def test_chain_literal(self):
        assert parse_pomset("pomset{x:a; y:b; z:c; x<y; y<z}") == \
            chain_of("abc")

    def test_optional_final_semicolon(self):
        assert parse_pomset("pomset{x:a; y:b; x<y;}") == \
            parse_pomset("pomset{x:a; y:b; x<y}")

    def test_trailing_input_rejected(self):
        with pytest.raises(ParseError):
            parse_pomset("a b")

    def test_duplicate_event_rejected(self):
        with pytest.raises(ParseError):
            parse_pomset("pomset{x:a; x:b}")


class TestPrinting:
    def test_format_pomset_shapes(self):
        assert format_pomset(A) == "a"
        assert format_pomset(step_of("ba")) == "{a,b}"
        assert format_pomset(chain_of("ab")) == "pomset{e0:a; e1:b; e0<e1}"

    def test_format_tree_shapes(self):
        assert format_tree(NIL) == "0"
        assert format_tree(OMEGA) == "W"
        assert format_tree(prefix(A).with_omega()) == "a:0 + W"
        assert format_tree(prefix(A, prefix(B))) == "a:(b:0)"

    def test_print_parse_round_trip_on_corpus(self):
        for t in tree_corpus("gram-rt", 60, 7, 8):
            assert parse_term(format_tree(t)) == t

    def test_printing_idempotent(self):
        for t in tree_corpus("gram-idem", 40, 7, 8):
            once = format_tree(t)
            assert format_tree(parse_term(once)) == once

    def test_hasse_edges_only(self):
        s = format_pomset(chain_of("abc"))
        assert s.count("<") == 2  # e0<e1, e1<e2 but no e0<e2
        assert parse_pomset(s) == chain_of("abc")

    def test_format_pomset_matches_poset_printer(self):
        # the key-based printer against the one that built the
        # canonical poset, on random pomsets of 1 to 6 events
        rng = random.Random("format-pomset")
        for _ in range(3000):
            n = rng.randint(1, 6)
            lp = random_labelled_poset(rng, n, "abc", rng.choice((0.2, 0.5)))
            u = canonicalize(lp)
            text = format_pomset(u)
            assert text == oracle.format_pomset(u)
            assert parse_pomset(text) == u


class TestEndOfInputPosition:
    # an error at the end of input is reported just past the last character
    @pytest.mark.parametrize("text, where", [
        ("a:", "1:3: expected '0', 'W' or a parenthesized term"),
        ("a:(b:0", "1:7: expected ')', found 'end of input'"),
        ("{a,b", "1:5: expected ',' or '}'"),
        ("", "1:1: expected a pomset literal"),
        ("a:(b:0 +\n", "2:1: expected a pomset literal"),
    ])
    def test_term(self, text, where):
        with pytest.raises(ParseError) as exc:
            parse_term(text)
        assert str(exc.value) == where
        line, column = where.split(":")[:2]
        assert (exc.value.line, exc.value.column) == (int(line), int(column))

    def test_file(self):
        with pytest.raises(ParseError, match="^1:12: expected '0', 'W'"):
            parse("proc P = a:")
        with pytest.raises(ParseError,
                           match="^2:18: expected '=', found 'end of input'"):
            parse("proc P = 0\nproc Q  # no body")

    def test_pomset(self):
        with pytest.raises(ParseError, match="^1:8: expected event identifier"):
            parse_pomset("pomset{")


def _outcome(parse_fn, text):
    try:
        return parse_fn(text), None
    except ParseError as exc:
        return None, exc


def _end_position(text):
    return text.count("\n") + 1, len(text) - text.rfind("\n")


def _bare(exc):
    return str(exc).split(": ", 1)[1]


def _assert_agree(text, new_fn, old_fn):
    """Equal results, or errors with equal messages, from both parsers.

    The oracle reports the end of input at ``-1:-1``; the library reports
    it just past the last character, and the messages must match after
    their positions.
    """
    new, new_exc = _outcome(new_fn, text)
    old, old_exc = _outcome(old_fn, text)
    if old_exc is None:
        assert new_exc is None, (text, str(new_exc))
        assert new == old, text
    elif old_exc.line == -1:
        assert new_exc is not None, text
        assert (new_exc.line, new_exc.column) == _end_position(text), text
        assert _bare(new_exc) == _bare(old_exc), text
    else:
        assert new_exc is not None, text
        assert str(new_exc) == str(old_exc), text


def _agree_everywhere(term):
    _assert_agree(term, parse_term, oracle.parse_term)
    _assert_agree(f"proc P = {term}\nproc Q = a:0 + W", parse, oracle.parse)
    _assert_agree(term, parse_pomset, oracle.parse_pomset)


def _chain_text(depth):
    text = "a:0"
    for _ in range(depth - 1):
        text = f"a:({text})"
    return text


def _this_module_texts():
    with open(__file__, encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    return sorted({node.value for node in ast.walk(tree)
                   if isinstance(node, ast.Constant)
                   and isinstance(node.value, str)})


SHALLOW_TEXTS = (
    "0", "W", "a:0", "a:W", "a:0 + W", "W + a:0", "W + W",
    "a:(0)", "a:(W)", "a:(b:0 + W) + b:(a:0)", "a:(b:(c:0) + W)",
    "{a,b}:0 + a:(b:0)", "{a,b,a}:W + W + b:0",
    "pomset{x:a; y:b; x<y}:(a:0) + W",
    "pomset{x:a; y:b; z:c; x<y; y<z;}:0",
    "pomset{e:W; f:proc; e<f}:0",
)

PROC_FILES = (
    "proc P = {a,b}:0\nproc Q = a:(b:0) + b:(a:0)\n",
    "# two\nproc D = a:(0) + W  # divergent\nproc E = W\n",
    "proc C = pomset{e1:a; e2:b; e1<e2}:(0)\nproc N = 0",
)


def _token_mutants(text):
    """Each single-token deletion, duplication and adjacent swap."""
    values = [tok[1] for tok in oracle._Tokens(text).items]
    out = []
    for k in range(len(values)):
        out.append(values[:k] + values[k + 1:])
        out.append(values[:k + 1] + values[k:])
        if k + 1 < len(values):
            out.append(values[:k] + [values[k + 1], values[k]] + values[k + 2:])
    return [" ".join(vs) for vs in out]


class TestOracleAgreement:
    """The library parser against the recursive oracle, text by text."""

    def test_formatted_trees(self):
        trees = tree_corpus("gram-oracle", 80, 9, 10, ("a", "b", "c"))
        trees += [random_tree(seed, 12, ("a", "b")) for seed in range(40)]
        for t in trees:
            text = format_tree(t)
            assert parse_term(text) == t
            _agree_everywhere(text)

    def test_f1_and_chain_texts(self):
        for labels in ("abcd", "abcde", "aabbc", "aaabb"):
            for term in f1_terms(labels):
                _agree_everywhere(term)
        for depth in range(1, 13):
            _agree_everywhere(_chain_text(depth))

    def test_texts_of_this_module(self):
        for text in _this_module_texts():
            _agree_everywhere(text)

    def test_token_mutants(self):
        for text in SHALLOW_TEXTS:
            for mutant in _token_mutants(text):
                _agree_everywhere(mutant)
        for text in PROC_FILES:
            _assert_agree(text, parse, oracle.parse)
            for mutant in _token_mutants(text):
                _assert_agree(mutant, parse, oracle.parse)

    def test_character_mutants(self):
        rng = random.Random("gram-chars")
        alphabet = "ab0W+:(){},;<=#$ \n\tpomsetproc"
        for text in SHALLOW_TEXTS + PROC_FILES:
            for _ in range(30):
                k = rng.randrange(len(text) + 1)
                if rng.random() < 0.5:
                    mutant = text[:k] + rng.choice(alphabet) + text[k:]
                else:
                    mutant = text[:k] + text[k + 1:]
                _agree_everywhere(mutant)
                _assert_agree(mutant, parse, oracle.parse)

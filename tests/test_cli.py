"""Command-line interface: dispatch, output format, exit codes."""

import gc
import json
import os
import subprocess
import sys

import jsonschema
import pytest

import pomcheck
from pomcheck import cli, grammar
from pomcheck import prebisim as pb
from pomcheck import testgen
from pomcheck.cli import (
    EXIT_BOUND,
    EXIT_INPUT,
    EXIT_INTERNAL,
    EXIT_NOT_RELATED,
    EXIT_RELATED,
    main,
)
from pomcheck.equiv import RelationKind
from pomcheck.estructure import compiled
from pomcheck.grammar import parse_term
from pomcheck.prebisim import StratParams
from pomcheck.testgen import tree_as_process

PROCS = """
proc P  = {a,b}:0
proc Q  = a:(b:0) + b:(a:0)
proc A  = a:0
proc AW = a:0 + W
"""

JSON_SCHEMA = {
    "type": "object",
    "required": ["left", "right", "relation", "preorder", "related",
                 "level", "witness", "semantics", "elapsed_ms"],
    "additionalProperties": False,
    "properties": {
        "left": {"type": "string"},
        "right": {"type": "string"},
        "relation": {"type": "string"},
        "preorder": {"type": "boolean"},
        "related": {"type": "boolean"},
        "level": {"anyOf": [{"type": "integer"}, {"const": "omega"}]},
        "witness": {
            "anyOf": [
                {"type": "null"},
                {
                    "type": "object",
                    "required": ["kind", "value"],
                    "additionalProperties": False,
                    "properties": {
                        "kind": {"enum": ["pomset", "tree", "level"]},
                        "value": {"type": "string"},
                    },
                },
            ]
        },
        "semantics": {"enum": ["es", "tree-native"]},
        "elapsed_ms": {"type": "integer", "minimum": 0},
    },
}


@pytest.fixture
def procfile(tmp_path):
    path = tmp_path / "procs.pom"
    path.write_text(PROCS, encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestCheck:
    def test_bisim_not_related(self, procfile, capsys):
        for rel in ("pomset", "step", "hp", "hhp"):
            code, out, _ = run(capsys, "check", "--left", "P", "--right", "Q",
                               "--rel", rel, procfile)
            assert code == EXIT_NOT_RELATED
            assert "not related" in out

    def test_bisim_related(self, procfile, capsys):
        code, out, _ = run(capsys, "check", "--left", "P", "--right", "P",
                           "--rel", "hhp", procfile)
        assert code == EXIT_RELATED and "not related" not in out

    def test_preorder_direction(self, procfile, capsys):
        # left <= right: a:0 is not below a:0 + W ...
        code, _, _ = run(capsys, "check", "--left", "A", "--right", "AW",
                         "--rel", "pomset", "--pre", procfile)
        assert code == EXIT_NOT_RELATED
        # ... but a:0 + W is below a:0
        code, _, _ = run(capsys, "check", "--left", "AW", "--right", "A",
                         "--rel", "pomset", "--pre", procfile)
        assert code == EXIT_RELATED

    def test_kernel(self, procfile, capsys):
        code, _, _ = run(capsys, "check", "--left", "A", "--right", "AW",
                         "--rel", "pomset", "--kernel", procfile)
        assert code == EXIT_NOT_RELATED
        code, _, _ = run(capsys, "check", "--left", "A", "--right", "A",
                         "--rel", "pomset", "--kernel", procfile)
        assert code == EXIT_RELATED

    def test_witness_printed(self, procfile, capsys):
        code, out, _ = run(capsys, "check", "--left", "P", "--right", "Q",
                           "--rel", "step", "--witness", procfile)
        assert code == EXIT_NOT_RELATED
        assert "witness pomset: {a,b}" in out

    def test_json_schema(self, procfile, capsys):
        invocations = [
            ("check", "--left", "P", "--right", "Q", "--rel", "step",
             "--witness", "--json", procfile),
            ("check", "--left", "P", "--right", "P", "--rel", "hhp",
             "--json", procfile),
            ("check", "--left", "A", "--right", "AW", "--rel", "pomset",
             "--pre", "--json", procfile),
            ("check", "--left", "A", "--right", "AW", "--rel", "pomset",
             "--pre", "--level", "1", "--json", procfile),
            ("check", "--left", "A", "--right", "A", "--rel", "step",
             "--pre", "--semantics", "tree-native", "--json", procfile),
        ]
        for argv in invocations:
            _, out, _ = run(capsys, *argv)
            payload = json.loads(out)
            jsonschema.validate(payload, JSON_SCHEMA)

    def test_level_query(self, procfile, capsys):
        # A is below AW at level 0 but not at the limit
        code, out, _ = run(capsys, "check", "--left", "A", "--right", "AW",
                           "--rel", "pomset", "--pre", "--level", "0",
                           "--json", procfile)
        assert code == EXIT_RELATED and json.loads(out)["level"] == 0

    def test_json_level_is_the_failing_level(self, procfile, capsys):
        # without --level, level is where the pair falls out, or omega
        for argv, expect in (
            (("--left", "P", "--right", "Q", "--rel", "step"), 1),
            (("--left", "A", "--right", "AW", "--rel", "pomset", "--pre"), 1),
            (("--left", "A", "--right", "AW", "--rel", "hp", "--kernel"), 1),
            (("--left", "P", "--right", "P", "--rel", "hhp"), "omega"),
        ):
            code, out, _ = run(capsys, "check", *argv, "--json", procfile)
            payload = json.loads(out)
            assert payload["level"] == expect
            assert code == (EXIT_RELATED if expect == "omega"
                            else EXIT_NOT_RELATED)

    def test_restrict_file(self, procfile, tmp_path, capsys):
        rfile = tmp_path / "restr.pom"
        rfile.write_text("a\n{a,b}\n", encoding="utf-8")
        code, _, _ = run(capsys, "check", "--left", "AW", "--right", "A",
                         "--rel", "pomset", "--pre", "--restrict",
                         str(rfile), procfile)
        assert code == EXIT_RELATED

    @pytest.mark.parametrize("rel", ["pomset", "step", "hp", "hhp"])
    def test_restricted_level_matches_strat(self, procfile, tmp_path, capsys,
                                            rel):
        kind = RelationKind(rel)
        table = grammar.parse(PROCS)
        texts = ["a\n", "a\nb\n"] + ([] if kind.posetal else ["a\n{a,b}\n"])
        seen = set()
        for i, text in enumerate(texts):
            rfile = tmp_path / f"restr{i}.pom"
            rfile.write_text(text, encoding="utf-8")
            restriction = frozenset(grammar.parse_pomset(line)
                                    for line in text.split())
            for left, right in [("P", "Q"), ("Q", "P"), ("A", "AW"),
                                ("AW", "A")]:
                p, q = compiled(table[left]), compiled(table[right])
                for level in range(3):
                    code, out, err = run(
                        capsys, "check", "--left", left, "--right", right,
                        "--rel", rel, "--pre", "--restrict", str(rfile),
                        "--level", str(level), "--json", procfile)
                    expect = pb.strat(p, q, kind,
                                      StratParams(restriction, level))
                    assert json.loads(out)["related"] is expect
                    assert json.loads(out)["level"] == level
                    assert code == (EXIT_RELATED if expect
                                    else EXIT_NOT_RELATED)
                    assert err == ""
                    seen.add(expect)
        assert seen == {True, False}

    def test_tree_native_semantics(self, procfile, capsys):
        code, _, _ = run(capsys, "check", "--left", "P", "--right", "Q",
                         "--rel", "pomset", "--semantics", "tree-native",
                         procfile)
        assert code == EXIT_NOT_RELATED


class TestApprox:
    def test_separating_level(self, procfile, capsys):
        code, out, _ = run(capsys, "approx", "--left", "A", "--right", "AW",
                           "--rel", "pomset", "--max-level", "5", procfile)
        assert code == EXIT_NOT_RELATED and out.strip() == "1"

    def test_stable(self, procfile, capsys):
        code, out, _ = run(capsys, "approx", "--left", "P", "--right", "P",
                           "--rel", "pomset", "--max-level", "5", procfile)
        assert code == EXIT_RELATED and out.strip() == "stable"


class TestTrees:
    def test_enumeration_count(self, procfile, capsys):
        code, out, _ = run(capsys, "trees", "--alphabet-from", "A",
                           "--depth", "1", "--width", "1", procfile)
        lines = [ln for ln in out.splitlines() if ln]
        assert code == EXIT_RELATED and len(lines) == 6
        assert "0" in lines and "W" in lines and "a:0 + W" in lines


class TestExplain:
    def test_emits_reverifying_tree(self, procfile, capsys):
        code, out, _ = run(capsys, "explain", "--left", "P", "--right", "Q",
                           "--rel", "step", procfile)
        assert code == EXIT_NOT_RELATED
        t = parse_term(out.strip())
        p = compiled(parse_term("{a,b}:0"))
        q = compiled(parse_term("a:(b:0) + b:(a:0)"))
        ts = tree_as_process(t, RelationKind.STEP)
        assert pb.prebisim(ts, p, RelationKind.STEP).related
        assert not pb.prebisim(ts, q, RelationKind.STEP).related

    @pytest.mark.parametrize("rel", ["hp", "hhp"])
    def test_posetal_tree_for_a_refused_summand(self, tmp_path, capsys, rel):
        # neither characteristic tree separates these; P's own tree does
        path = tmp_path / "refused.pom"
        path.write_text("proc P = {a,b}:0\nproc Q = {a,b}:0 + a:(b:0)\n",
                        encoding="utf-8")
        code, out, err = run(capsys, "explain", "--left", "P", "--right",
                             "Q", "--rel", rel, str(path))
        assert code == EXIT_NOT_RELATED and err == ""
        kind = RelationKind(rel)
        ts = tree_as_process(parse_term(out.strip()), kind)
        assert pb.prebisim(ts, compiled(parse_term("{a,b}:0")), kind).related
        assert not pb.prebisim(
            ts, compiled(parse_term("{a,b}:0 + a:(b:0)")), kind).related

    def test_no_tree_when_related(self, procfile, capsys):
        code, out, _ = run(capsys, "explain", "--left", "P", "--right", "P",
                           "--rel", "pomset", procfile)
        assert code == EXIT_RELATED and "no distinguishing tree" in out

    def test_internal_error_is_not_an_input_error(self, procfile, capsys,
                                                  monkeypatch):
        def broken(p, q, kind):
            raise pomcheck.InternalInconsistencyError("tree does not re-verify")

        monkeypatch.setattr(testgen, "distinguishing_tree", broken)
        code, out, err = run(capsys, "explain", "--left", "P", "--right", "Q",
                             "--rel", "step", procfile)
        assert code == EXIT_INTERNAL and out == ""
        assert err == "internal error: tree does not re-verify (this is a bug)\n"


class TestInputErrors:
    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "--left", "P", "--right", "Q",
                           "--rel", "step", "/nonexistent/file.pom")
        assert code == EXIT_INPUT and "error:" in err

    def test_undefined_name(self, procfile, capsys):
        code, _, err = run(capsys, "check", "--left", "NOPE", "--right", "Q",
                           "--rel", "step", procfile)
        assert code == EXIT_INPUT and "NOPE" in err

    def test_level_requires_preorder(self, procfile, capsys):
        code, _, _ = run(capsys, "check", "--left", "P", "--right", "Q",
                         "--rel", "step", "--level", "2", procfile)
        assert code == EXIT_INPUT

    def test_negative_level_rejected(self, procfile, capsys):
        code, _, err = run(capsys, "check", "--left", "A", "--right", "AW",
                           "--rel", "pomset", "--pre", "--level", "-1",
                           procfile)
        assert code == EXIT_INPUT and "level" in err

    @pytest.mark.parametrize("flags,message", [
        (("--pre", "--level", "-1"), "--level must be a natural number"),
        (("--level", "1"), "--level requires --pre or --kernel"),
        (("--restrict", "R.pom"), "--restrict requires --pre or --kernel"),
        (("--restrict", ""), "--restrict requires --pre or --kernel"),
    ])
    def test_flag_errors_come_before_the_file_is_read(self, tmp_path, capsys,
                                                      flags, message):
        code, out, err = run(capsys, "check", "--left", "A", "--right", "AW",
                             "--rel", "pomset", *flags,
                             str(tmp_path / "missing.pom"))
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: {message}\n"

    def test_empty_restrict_is_an_unreadable_file(self, procfile, capsys):
        code, out, err = run(capsys, "check", "--left", "A", "--right", "AW",
                             "--rel", "pomset", "--pre", "--restrict", "",
                             "--level", "0", procfile)
        assert code == EXIT_INPUT and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,flag", [
        (("approx", "--left", "A", "--right", "AW", "--rel", "pomset",
          "--max-level", "-1"), "--max-level"),
        (("trees", "--alphabet-from", "A", "--depth", "-2", "--width", "1"),
         "--depth"),
        (("trees", "--alphabet-from", "A", "--depth", "1", "--width", "-1"),
         "--width"),
    ])
    def test_negative_bound_rejected(self, procfile, capsys, argv, flag):
        code, out, err = run(capsys, *argv, procfile)
        assert code == EXIT_INPUT and out == ""
        assert err == f"error: {flag} must be a natural number\n"

    def test_tree_native_rejects_posetal(self, procfile, capsys):
        code, _, err = run(capsys, "check", "--left", "P", "--right", "Q",
                           "--rel", "hp", "--semantics", "tree-native",
                           procfile)
        assert code == EXIT_INPUT
        assert err == ("error: the hp relations require the event-structure "
                       "semantics\n")

    def test_bad_flag(self, procfile, capsys):
        code, _, _ = run(capsys, "check", "--left", "P", "--rel", "step",
                         procfile)
        assert code == EXIT_INPUT

    def test_deeply_nested_input(self, tmp_path, capsys):
        # the parser keeps open parentheses on a stack, not the call stack
        text = "a:0"
        for _ in range(1199):
            text = f"a:({text})"
        deep = tmp_path / "deep.pom"
        deep.write_text(f"proc P = {text}\n", encoding="utf-8")
        code, out, err = run(capsys, "check", "--left", "P", "--right", "P",
                             "--rel", "step", str(deep))
        assert code == EXIT_RELATED
        assert err == ""
        assert out == "P and P: related (step)\n"

    def test_unexpected_exception_is_an_internal_error(self, procfile, capsys,
                                                       monkeypatch):
        def broken(p, q, kind, want_witness=False):
            raise KeyError("lost")

        monkeypatch.setattr(cli, "bisim", broken)
        code, out, err = run(capsys, "check", "--left", "P", "--right", "Q",
                             "--rel", "step", procfile)
        assert code == EXIT_INTERNAL and out == ""
        assert err == "internal error: KeyError: 'lost' (this is a bug)\n"

    def test_deep_sibling_chains(self, tmp_path, capsys):
        # sorting two deep summands compares their children level by level
        chain = "a:0"
        for _ in range(599):
            chain = f"a:({chain})"
        ending = "a:W"
        for _ in range(599):
            ending = f"a:({ending})"
        deep = tmp_path / "siblings.pom"
        deep.write_text(f"proc S = {chain} + {ending}\n", encoding="utf-8")
        code, out, err = run(capsys, "check", "--left", "S", "--right", "S",
                             "--rel", "step", str(deep))
        assert code == EXIT_RELATED
        assert err == ""
        assert out == "S and S: related (step)\n"

    def test_deep_chain_explain(self, tmp_path, capsys):
        # the characteristic tree is built on a stack, and verified as a
        # tree against a compiled process
        chain, ending = "a:0", "a:W"
        for _ in range(1199):
            chain, ending = f"a:({chain})", f"a:({ending})"
        deep = tmp_path / "deep.pom"
        deep.write_text(f"proc P = {chain}\nproc Q = {ending}\n",
                        encoding="utf-8")
        names = ("--left", "P", "--right", "Q", "--rel", "step")
        code, out, err = run(capsys, "check", "--pre", *names, str(deep))
        assert code == EXIT_NOT_RELATED and err == ""
        code, out, err = run(capsys, "explain", *names, str(deep))
        assert code == EXIT_NOT_RELATED and err == ""
        t = parse_term(out.strip())
        assert t.depth == 1200
        table = grammar.parse(deep.read_text(encoding="utf-8"))
        p, q = compiled(table["P"]), compiled(table["Q"])
        assert pb.prebisim(t, p, RelationKind.STEP).related
        assert not pb.prebisim(t, q, RelationKind.STEP).related

    def test_recursion_error_is_an_input_error(self, procfile, capsys,
                                               monkeypatch):
        def too_deep(text):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(grammar, "parse", too_deep)
        code, out, err = run(capsys, "check", "--left", "P", "--right", "P",
                             "--rel", "step", procfile)
        assert code == EXIT_INPUT
        assert out == ""
        assert err == "error: input nested too deeply\n"

    def test_end_of_input_error_names_its_position(self, tmp_path, capsys):
        bad = tmp_path / "bad.pom"
        bad.write_text("proc P = a:", encoding="utf-8")
        code, _, err = run(capsys, "check", "--left", "P", "--right", "P",
                           "--rel", "step", str(bad))
        assert code == EXIT_INPUT
        assert err == ("error: 1:12: expected '0', 'W' or a parenthesized "
                       "term\n")

    def test_syntax_error_in_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.pom"
        bad.write_text("proc P = a:", encoding="utf-8")
        code, _, err = run(capsys, "check", "--left", "P", "--right", "P",
                           "--rel", "step", str(bad))
        assert code == EXIT_INPUT


class TestRepeatedCalls:
    """One parser serves every call of a process."""

    CALLS = [
        ("check", "--left", "P", "--right", "Q", "--rel", "hp", "--witness"),
        ("approx", "--left", "A", "--right", "AW", "--rel", "pomset",
         "--max-level", "3"),
        ("explain", "--left", "P", "--right", "Q", "--rel", "step"),
        ("check", "--left", "P", "--rel", "step"),  # no --right: exit 3
        ("check", "--left", "AW", "--right", "A", "--rel", "pomset", "--pre"),
    ]

    @staticmethod
    def _fresh(argv):
        """Exit code, stdout and stderr of ``argv`` in a new interpreter."""
        src = os.path.dirname(os.path.dirname(pomcheck.__file__))
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        done = subprocess.run([sys.executable, "-m", "pomcheck.cli", *argv],
                              capture_output=True, text=True, env=env,
                              timeout=60)
        return done.returncode, done.stdout, done.stderr

    def test_repeated_calls_match_fresh_processes(self, procfile, capsys):
        fresh = [self._fresh(argv + (procfile,)) for argv in self.CALLS]
        assert [code for code, _, _ in fresh] == \
            [EXIT_NOT_RELATED, EXIT_NOT_RELATED, EXIT_NOT_RELATED, EXIT_INPUT,
             EXIT_RELATED]
        for _ in range(2):
            assert [run(capsys, *argv, procfile) for argv in self.CALLS] == \
                fresh

    def test_repeated_calls_leave_no_cyclic_garbage(self, procfile, capsys):
        calls = list(self.CALLS)
        calls.append(("check", "--left", "P", "--right", "Q", "--rel", "step",
                      "--level", "2"))  # rejected after parsing: exit 3
        gc.collect()
        gc.disable()
        try:
            codes = [main([*argv, procfile]) for _ in range(2)
                     for argv in calls]
            found = gc.collect()
        finally:
            gc.enable()
        capsys.readouterr()
        assert codes[3] == codes[-1] == EXIT_INPUT
        assert found == 0

"""Command-line interface.

All preorder queries test the left process below the right one
(``left <= right``).  Exit codes: 0 related/held, 1 not related
(definitive), 2 bound-exhausted, 3 input error, 4 internal error (a
self-check of the package failed: a bug, never an answer).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from . import estructure, grammar, prebisim, testgen
from .equiv import RelationKind, Verdict, bisim
from .errors import InternalInconsistencyError, ParseError, PomcheckError
from .prebisim import OMEGA

EXIT_RELATED = 0
EXIT_NOT_RELATED = 1
EXIT_BOUND = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage message is formatted in advance.

    ``ArgumentParser.error`` formats the usage with a new
    ``HelpFormatter``, whose root section refers back to it, so every
    usage error would leave cyclic garbage.  :func:`_build_parser` sets
    ``usage_text`` once the parser is complete.
    """

    usage_text = ""

    def error(self, message):
        sys.stderr.write(self.usage_text)
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser():
    ap = _Parser(
        prog="pomcheck",
        description="Decide truly concurrent (pre)bisimulations over finite "
        "pomset-labelled processes. Preorder queries test left <= right.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, with_rel=True):
        p.add_argument("--left", required=True, metavar="NAME")
        p.add_argument("--right", required=True, metavar="NAME")
        if with_rel:
            p.add_argument(
                "--rel",
                required=True,
                choices=[k.value for k in RelationKind],
            )
        p.add_argument("file", metavar="FILE")

    check = sub.add_parser("check", help="decide a bisimulation or preorder")
    common(check)
    check.add_argument("--pre", action="store_true",
                       help="decide the prebisimulation preorder (left <= right)")
    check.add_argument("--kernel", action="store_true",
                       help="decide the kernel equivalence of the preorder")
    check.add_argument("--level", type=int, default=None, metavar="N",
                       help="query the level-N approximant instead of the limit")
    check.add_argument("--restrict", default=None, metavar="FILE",
                       help="file with one pomset literal per line; queries the "
                            "stratified approximant under that restriction set")
    check.add_argument("--semantics", choices=["es", "tree-native"], default="es")
    check.add_argument("--witness", action="store_true")
    check.add_argument("--json", action="store_true", dest="json_out")

    approx = sub.add_parser(
        "approx", help="first approximant level separating the pair, or 'stable'"
    )
    common(approx)
    approx.add_argument("--max-level", type=int, required=True, metavar="N")

    trees = sub.add_parser("trees", help="stream enumerated test trees")
    trees.add_argument("--alphabet-from", required=True, metavar="NAME")
    trees.add_argument("--depth", type=int, required=True, metavar="D")
    trees.add_argument("--width", type=int, required=True, metavar="W")
    trees.add_argument("file", metavar="FILE")

    explain = sub.add_parser(
        "explain", help="print a distinguishing tree when one exists"
    )
    common(explain)
    for p in (ap, *sub.choices.values()):
        p.usage_text = p.format_usage()
    return ap


# Built once per process: parsing leaves the parser unchanged, and a
# parser is a web of cyclic objects that every build would leave to the
# cycle collector.
_PARSER = _build_parser()


def _load(path):
    with open(path, encoding="utf-8") as fh:
        return grammar.parse(fh.read())


def _lookup(table, name):
    if name not in table:
        raise ParseError(f"undefined process name {name!r}")
    return table[name]


def _restriction_from_file(path):
    poms = set()
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.partition("#")[0].strip()
            if line:
                poms.add(grammar.parse_pomset(line))
    return frozenset(poms)


def _natural(value, flag):
    """``value`` of a bound option, which must not be negative."""
    if value < 0:
        raise ParseError(f"{flag} must be a natural number")
    return value


def _sides(args):
    """The two named processes of ``args.file`` and the ``--rel`` kind.

    Each side is its compiled structure's root, or the tree itself under
    ``--semantics tree-native``.
    """
    table = _load(args.file)
    sides = [_lookup(table, args.left), _lookup(table, args.right)]
    if getattr(args, "semantics", "es") == "es":
        sides = [estructure.compiled(t) for t in sides]
    return (*sides, RelationKind(args.rel))


def _format_witness(w):
    if w is None:
        return None
    if w.kind == "pomset":
        return {"kind": "pomset", "value": grammar.format_pomset(w.value)}
    return {"kind": "level", "value": str(w.value)}


def _run_check(args) -> int:
    preorder = args.pre or args.kernel
    if args.level is not None and not preorder:
        raise ParseError("--level requires --pre or --kernel")
    if args.restrict is not None and not preorder:
        raise ParseError("--restrict requires --pre or --kernel")
    level = OMEGA if args.level is None else _natural(args.level, "--level")
    left, right, kind = _sides(args)
    restriction = (None if args.restrict is None
                   else _restriction_from_file(args.restrict))

    start = time.monotonic()
    if not preorder:
        verdict = bisim(left, right, kind, want_witness=args.witness)
    else:
        def one_way(a, b):
            if level == OMEGA and restriction is None:
                return prebisim.prebisim(a, b, kind, want_witness=args.witness)
            n = prebisim.first_failing_level(a, b, kind, restriction)
            return Verdict(n is None or (level != OMEGA and n > level),
                           level=OMEGA if n is None else n)

        verdict = one_way(left, right)
        if args.kernel and verdict.related:
            verdict = one_way(right, left)
    elapsed_ms = int((time.monotonic() - start) * 1000)

    relation = ("kernel-" if args.kernel else "") + kind.value
    witness = _format_witness(verdict.witness)
    payload = {
        "left": args.left,
        "right": args.right,
        "relation": relation,
        "preorder": bool(args.pre and not args.kernel),
        "related": verdict.related,
        "level": level if args.level is not None else verdict.level,
        "witness": witness,
        "semantics": args.semantics,
        "elapsed_ms": elapsed_ms,
    }
    if args.json_out:
        print(json.dumps(payload))
    else:
        word = "related" if verdict.related else "not related"
        print(f"{args.left} and {args.right}: {word} ({relation})")
        if witness is not None:
            print(f"witness {witness['kind']}: {witness['value']}")
    if not verdict.definitive:
        return EXIT_BOUND
    return EXIT_RELATED if verdict.related else EXIT_NOT_RELATED


def _run_approx(args) -> int:
    max_level = _natural(args.max_level, "--max-level")
    left, right, kind = _sides(args)
    n = prebisim.first_failing_level(left, right, kind)
    if n is None or n > max_level:
        print("stable")
        return EXIT_RELATED
    print(n)
    return EXIT_NOT_RELATED


def _run_trees(args) -> int:
    depth = _natural(args.depth, "--depth")
    width = _natural(args.width, "--width")
    table = _load(args.file)
    state = estructure.compiled(_lookup(table, args.alphabet_from))
    alphabet = estructure.sort(state)
    for t in testgen.enumerate_trees(alphabet, depth, width):
        print(grammar.format_tree(t))
    return EXIT_RELATED


def _run_explain(args) -> int:
    left, right, kind = _sides(args)
    t = testgen.distinguishing_tree(left, right, kind)
    if t is None:
        print("no distinguishing tree: left is below right")
        return EXIT_RELATED
    print(grammar.format_tree(t))
    return EXIT_NOT_RELATED


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return EXIT_INPUT if exc.code not in (0, None) else 0
    try:
        if args.command == "check":
            return _run_check(args)
        if args.command == "approx":
            return _run_approx(args)
        if args.command == "trees":
            return _run_trees(args)
        return _run_explain(args)
    except InternalInconsistencyError as exc:
        print(f"internal error: {exc} (this is a bug)", file=sys.stderr)
        return EXIT_INTERNAL
    except (PomcheckError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc} (this is a bug)",
              file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())

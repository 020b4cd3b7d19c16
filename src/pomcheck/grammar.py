"""Textual process language: parsing and pretty-printing.

File grammar (UTF-8, ``#`` comments to end of line)::

    file      := decl+
    decl      := "proc" NAME "=" term
    term      := "0" | "W" | sum
    sum       := prefix ("+" prefix)* ("+" "W")?
    prefix    := pomlit ":" ("0" | "W" | "(" term ")")
    pomlit    := LABEL
               | "{" LABEL ("," LABEL)* "}"
               | "pomset{" eventdecl+ edge* "}"
    eventdecl := ID ":" LABEL ";"
    edge      := ID "<" ID ";"

``W`` denotes the divergence summand.  Edges are covering pairs; the
transitive closure is applied.  The final semicolon inside ``pomset{}``
may be omitted.  The parser is lenient in two ways: ``W`` may stand
anywhere among the summands, and more than once.

Text becomes a tree in one linear pass.  :class:`_Tokens` scans the
whole text once with ``_TOKEN_RE.finditer`` and keeps each token's
kind, value and start offset; a line and column are computed from an
offset only when a :class:`ParseError` is raised, and an error at the
end of input is reported just past the last character.  The parser
keeps the open ``(`` of a term on an explicit stack, so nesting depth
is not bounded by the recursion limit, and builds each node once, when
its term ends.  A bare label is the shared ``singleton`` pomset.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .errors import ParseError, StructuralError
from .pomset import LabelledPoset, Pomset, canonicalize, singleton, step_of
from .synctree import NIL, OMEGA, SyncTree

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r\n]+)
  | (?P<comment>\#[^\n]*)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>[0-9]+)
  | (?P<punct>[=+:(){},;<])
  | (?P<bad>.)
    """,
    re.VERBOSE,
)

_KEYWORDS = {"proc", "pomset", "W"}


class _Tokens:
    """The tokens of a text, as parallel lists ending in an ``eof`` token.

    The ``eof`` token has the empty value and starts just past the last
    character, so the parser can read one token ahead of any token but
    ``eof`` without a bounds check.
    """

    __slots__ = ("text", "kinds", "values", "starts")

    def __init__(self, text: str):
        kinds: List[str] = []
        values: List[str] = []
        starts: List[int] = []
        for m in _TOKEN_RE.finditer(text):
            kind = m.lastgroup
            if kind == "ws" or kind == "comment":
                continue
            if kind == "bad":
                raise ParseError(f"unexpected character {m.group()!r}",
                                 *_position(text, m.start()))
            kinds.append(kind)
            values.append(m.group())
            starts.append(m.start())
        kinds.append("eof")
        values.append("")
        starts.append(len(text))
        self.text = text
        self.kinds = kinds
        self.values = values
        self.starts = starts

    def error(self, i: int, message: str) -> ParseError:
        """``message`` at the start of token ``i``."""
        return ParseError(message, *_position(self.text, self.starts[i]))

    def unexpected(self, i: int, message: str) -> ParseError:
        """``message`` at token ``i``, naming the token unless it is ``eof``."""
        val = self.values[i]
        return self.error(i, message + (f" (at {val!r})" if val else ""))

    def expect(self, i: int, value: str) -> int:
        """The index after token ``i``, which must be ``value``."""
        val = self.values[i]
        if val != value:
            raise self.error(
                i, f"expected {value!r}, found {val or 'end of input'!r}")
        return i + 1


def _position(text: str, offset: int) -> Tuple[int, int]:
    """The 1-based line and column of ``offset`` in ``text``."""
    return (text.count("\n", 0, offset) + 1,
            offset - text.rfind("\n", 0, offset))


def _parse_pomlit(toks: _Tokens, i: int) -> Tuple[Pomset, int]:
    """The pomset literal at token ``i`` and the index after it."""
    kinds, values = toks.kinds, toks.values
    val = values[i]
    if val == "pomset":
        at = i
        i = toks.expect(i + 1, "{")
        labels = {}
        edges = []
        while True:
            v = values[i]
            if v == "}":
                i += 1
                break
            if kinds[i] != "name":
                raise toks.error(i, "expected event identifier or '}'")
            op = values[i + 1]
            if op == ":":
                if kinds[i + 2] != "name":
                    raise toks.error(i + 2, "expected label")
                if v in labels:
                    raise toks.error(i, f"duplicate event {v!r}")
                labels[v] = values[i + 2]
            elif op == "<":
                if kinds[i + 2] != "name":
                    raise toks.error(i + 2, "expected event identifier")
                edges.append((v, values[i + 2]))
            else:
                raise toks.error(i + 1, "expected ':' or '<'")
            i += 3
            if values[i] == ";":
                i += 1
        if not labels:
            raise toks.error(at, "empty pomset literal")
        try:
            lp = LabelledPoset(labels.keys(), edges, labels)
        except StructuralError as exc:
            raise toks.error(at, str(exc)) from None
        return canonicalize(lp), i
    if val == "{":
        labs = []
        while True:
            i += 1
            if kinds[i] != "name":
                raise toks.error(i, "expected label")
            labs.append(values[i])
            i += 1
            v = values[i]
            if v == "}":
                return step_of(labs), i + 1
            if v != ",":
                raise toks.error(i, "expected ',' or '}'")
    if kinds[i] == "name" and val not in _KEYWORDS:
        return singleton(val), i + 1
    raise toks.unexpected(i, "expected a pomset literal")


def _parse_term(toks: _Tokens, i: int) -> Tuple[SyncTree, int]:
    """The term at token ``i`` and the index after it.

    One loop reads one summand per pass.  A summand whose child is a
    parenthesized term pushes a frame ``(summands, divergent, prefix
    awaiting its child)`` and starts the inner term; when a term ends,
    its tree becomes the child of the innermost frame, whose sum then
    continues after the ``)``.
    """
    values = toks.values
    frames = []
    summands = []
    divergent = False
    start = True  # at the start of a term, where "0" is the whole term
    while True:
        val = values[i]
        if start and val == "0":
            i += 1
            tree = NIL
        else:
            if val == "W":
                i += 1
                divergent = True
            else:
                pom, i = _parse_pomlit(toks, i)
                i = toks.expect(i, ":")
                val = values[i]
                i += 1
                if val == "(":
                    frames.append((summands, divergent, pom))
                    summands = []
                    divergent = False
                    start = True
                    continue
                if val == "0":
                    summands.append((pom, NIL))
                elif val == "W":
                    summands.append((pom, OMEGA))
                else:
                    raise toks.unexpected(
                        i - 1, "expected '0', 'W' or a parenthesized term")
            if values[i] == "+":
                i += 1
                start = False
                continue
            tree = SyncTree(summands, divergent)
        # the term is whole: it closes each frame whose ")" follows it
        while frames:
            i = toks.expect(i, ")")
            summands, divergent, pom = frames.pop()
            summands.append((pom, tree))
            if values[i] == "+":
                i += 1
                break
            tree = SyncTree(summands, divergent)
        else:
            return tree, i
        start = False


def parse(text: str) -> Dict[str, SyncTree]:
    """Parse a process file into a name -> tree table."""
    toks = _Tokens(text)
    kinds, values = toks.kinds, toks.values
    table: Dict[str, SyncTree] = {}
    i = 0
    while kinds[i] != "eof":
        if values[i] != "proc":
            raise toks.error(i, "expected 'proc'")
        name = values[i + 1]
        if kinds[i + 1] != "name" or name in _KEYWORDS:
            raise toks.error(i + 1, "expected process name")
        if name in table:
            raise toks.error(i + 1, f"duplicate proc name {name!r}")
        table[name], i = _parse_term(toks, toks.expect(i + 2, "="))
    if not table:
        raise ParseError("empty process file", 1, 1)
    return table


def parse_term(text: str) -> SyncTree:
    """Parse a single term (no ``proc`` declaration)."""
    toks = _Tokens(text)
    t, i = _parse_term(toks, 0)
    if toks.kinds[i] != "eof":
        raise toks.unexpected(i, "trailing input after term")
    return t


def parse_pomset(text: str) -> Pomset:
    """Parse a single pomset literal."""
    toks = _Tokens(text)
    p, i = _parse_pomlit(toks, 0)
    if toks.kinds[i] != "eof":
        raise toks.unexpected(i, "trailing input after pomset literal")
    return p


# ---------------------------------------------------------------------------
# printing
# ---------------------------------------------------------------------------


def _hasse(order):
    """Covering pairs of a transitively closed strict order."""
    return {
        (a, b)
        for a, b in order
        if not any((a, c) in order and (c, b) in order for c in {x for x, _ in order} | {y for _, y in order})
    }


def format_pomset(p: Pomset) -> str:
    lp = p.canon
    n = len(lp)
    if n == 1:
        (e,) = lp.events
        return lp.label(e)
    if p.is_step():
        return "{" + ",".join(sorted(lp.label(e) for e in lp.events)) + "}"
    names = sorted(lp.events, key=lambda e: int(e[1:]))
    decls = "; ".join(f"{e}:{lp.label(e)}" for e in names)
    edges = "; ".join(
        f"{a}<{b}" for a, b in sorted(_hasse(lp.order), key=lambda ab: (int(ab[0][1:]), int(ab[1][1:])))
    )
    body = decls + ("; " + edges if edges else "")
    return "pomset{" + body + "}"


def format_tree(t: SyncTree) -> str:
    """The term of ``t``, written left to right from an explicit stack.

    The stack keeps the text and the subtrees still to be written, last
    first, so depth is not bounded by the recursion limit.
    """
    out = []
    stack = [t]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif not item.summands:
            out.append("W" if item.divergent else "0")
        else:
            work = []
            for pom, child in item.summands:
                if work:
                    work.append(" + ")
                if child.summands:
                    work += [f"{format_pomset(pom)}:(", child, ")"]
                else:
                    work += [f"{format_pomset(pom)}:", child]
            if item.divergent:
                work.append(" + W")
            stack += reversed(work)
    return "".join(out)


def format_table(table: Dict[str, SyncTree]) -> str:
    return "".join(f"proc {name} = {format_tree(tree)}\n" for name, tree in table.items())

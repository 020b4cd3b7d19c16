"""The recursive-descent parser, kept as a differential oracle.

This is the parser the library used before its one-scan, explicit-stack
parser, kept exactly as it was for ``tests/test_grammar.py``:

- ``_Tokens`` matches one token at a time with ``_TOKEN_RE.match`` and
  builds a ``(kind, value, line, column)`` tuple for every token; the
  end of input is reported at ``-1:-1``;
- ``_parse_term`` and ``_parse_atom`` recurse once per nesting level,
  so deep input raises ``RecursionError``;
- a bare label builds a fresh ``step_of((label,))``.

The library must give an equal tree, or a ``ParseError`` with the same
message, on every text; only its end-of-input position differs.

``format_pomset`` is the pomset printer the library used before it read
the canonical key: it builds the canonical ``LabelledPoset`` and tests
every order pair against every event for a covering pair (``_hasse``).
The library must print the same text for every pomset.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from pomcheck.errors import ParseError, StructuralError
from pomcheck.pomset import LabelledPoset, Pomset, canonicalize, step_of
from pomcheck.synctree import SyncTree

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>[ \t\r]+)
  | (?P<comment>\#[^\n]*)
  | (?P<nl>\n)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<num>[0-9]+)
  | (?P<punct>[=+:(){},;<])
    """,
    re.VERBOSE,
)

_KEYWORDS = {"proc", "pomset", "W"}


class _Tokens:
    def __init__(self, text: str):
        self.items: List[Tuple[str, str, int, int]] = []
        line, col = 1, 1
        pos = 0
        while pos < len(text):
            m = _TOKEN_RE.match(text, pos)
            if not m:
                raise ParseError(f"unexpected character {text[pos]!r}", line, col)
            kind = m.lastgroup
            value = m.group()
            if kind == "nl":
                line += 1
                col = 1
            else:
                if kind not in ("ws", "comment"):
                    self.items.append((kind, value, line, col))
                col += len(value)
            pos = m.end()
        self.i = 0

    def peek(self):
        if self.i < len(self.items):
            return self.items[self.i]
        return ("eof", "", -1, -1)

    def next(self):
        tok = self.peek()
        self.i += 1
        return tok

    def expect(self, value: str):
        kind, val, line, col = self.next()
        if val != value:
            raise ParseError(f"expected {value!r}, found {val or 'end of input'!r}",
                             line, col)
        return val

    def error(self, message: str):
        _, val, line, col = self.peek()
        raise ParseError(message + (f" (at {val!r})" if val else ""), line, col)


def _parse_pomlit(toks: _Tokens) -> Pomset:
    kind, val, line, col = toks.peek()
    if val == "pomset":
        toks.next()
        toks.expect("{")
        labels = {}
        edges = []
        while True:
            k, v, ln, cl = toks.next()
            if v == "}":
                break
            if k != "name":
                raise ParseError("expected event identifier or '}'", ln, cl)
            _, op, ln2, cl2 = toks.next()
            if op == ":":
                k2, lab, ln3, cl3 = toks.next()
                if k2 != "name":
                    raise ParseError("expected label", ln3, cl3)
                if v in labels:
                    raise ParseError(f"duplicate event {v!r}", ln, cl)
                labels[v] = lab
            elif op == "<":
                k2, tgt, ln3, cl3 = toks.next()
                if k2 != "name":
                    raise ParseError("expected event identifier", ln3, cl3)
                edges.append((v, tgt))
            else:
                raise ParseError("expected ':' or '<'", ln2, cl2)
            if toks.peek()[1] == ";":
                toks.next()
        if not labels:
            raise ParseError("empty pomset literal", line, col)
        try:
            lp = LabelledPoset(labels.keys(), edges, labels)
        except StructuralError as exc:
            raise ParseError(str(exc), line, col) from None
        return canonicalize(lp)
    if val == "{":
        toks.next()
        labs = []
        while True:
            k, v, ln, cl = toks.next()
            if k != "name":
                raise ParseError("expected label", ln, cl)
            labs.append(v)
            k, v, ln, cl = toks.next()
            if v == "}":
                break
            if v != ",":
                raise ParseError("expected ',' or '}'", ln, cl)
        return step_of(labs)
    if kind == "name" and val not in _KEYWORDS and val != "0":
        toks.next()
        return step_of((val,))
    toks.error("expected a pomset literal")


def _parse_atom(toks: _Tokens) -> SyncTree:
    kind, val, line, col = toks.peek()
    if val == "0":
        toks.next()
        return SyncTree((), False)
    if val == "W":
        toks.next()
        return SyncTree((), True)
    if val == "(":
        toks.next()
        t = _parse_term(toks)
        toks.expect(")")
        return t
    toks.error("expected '0', 'W' or a parenthesized term")


def _parse_term(toks: _Tokens) -> SyncTree:
    kind, val, _, _ = toks.peek()
    if val == "0":
        toks.next()
        return SyncTree((), False)
    if val == "W":
        toks.next()
        div = True
        summands = []
    else:
        div = False
        summands = []
        while True:
            pom = _parse_pomlit(toks)
            toks.expect(":")
            child = _parse_atom(toks)
            summands.append((pom, child))
            if toks.peek()[1] != "+":
                break
            toks.next()
            if toks.peek()[1] == "W":
                toks.next()
                div = True
                break
    while toks.peek()[1] == "+":  # lenient: further summands after W
        toks.next()
        if toks.peek()[1] == "W":
            toks.next()
            div = True
            continue
        pom = _parse_pomlit(toks)
        toks.expect(":")
        summands.append((pom, _parse_atom(toks)))
    return SyncTree(summands, div)


def parse(text: str) -> Dict[str, SyncTree]:
    """Parse a process file into a name -> tree table."""
    toks = _Tokens(text)
    table: Dict[str, SyncTree] = {}
    while toks.peek()[0] != "eof":
        kind, val, line, col = toks.next()
        if val != "proc":
            raise ParseError("expected 'proc'", line, col)
        k, name, ln, cl = toks.next()
        if k != "name" or name in _KEYWORDS:
            raise ParseError("expected process name", ln, cl)
        if name in table:
            raise ParseError(f"duplicate proc name {name!r}", ln, cl)
        toks.expect("=")
        table[name] = _parse_term(toks)
    if not table:
        raise ParseError("empty process file", 1, 1)
    return table


def parse_term(text: str) -> SyncTree:
    """Parse a single term (no ``proc`` declaration)."""
    toks = _Tokens(text)
    t = _parse_term(toks)
    if toks.peek()[0] != "eof":
        toks.error("trailing input after term")
    return t


def parse_pomset(text: str) -> Pomset:
    """Parse a single pomset literal."""
    toks = _Tokens(text)
    p = _parse_pomlit(toks)
    if toks.peek()[0] != "eof":
        toks.error("trailing input after pomset literal")
    return p


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

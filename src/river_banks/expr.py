"""Bundle-expression grammar for the command line.

    expr   := sum ('on' 'P' INT)?
    sum    := term ('(+)' term)*
    term   := INT '*' atom | atom
    atom   := 'S' '[' ints ']'          homogeneous bundle, largest part first
            | 'O' '(' INT ')'           power of the hyperplane bundle
            | 'push' '(' ints ')'       pushforward of a split line bundle
            | 'dual' '(' sum ')'
            | 'twist' '(' sum ',' INT ')'
            | '(' sum ')'

INT is an optional sign and ASCII digits (``ratpoly._int``, the rule for
every integer read from text); other decimal digits, such as '٣', are
refused rather than read, as are too many digits.  Whitespace is insignificant.  The
ambient clause pins the projective dimension; without it the dimension is
inferred from S[...] lengths and push(...) arities and must be determined
by at least one of them.

``table_from_expr`` is the grammar's only entry.  It parses in one pass,
straight into a table: each rule returns the dimension its subexpression
determines (or None) and a function from the ambient dimension n to the
table, since only O(t) needs n and n may come from a later 'on P<n>'.
Every error is an ``ExprError``; nesting deeper than ``MAX_DEPTH`` and
ambient dimensions past ``tables.MAX_AMBIENT_DIM`` are refused.
"""

from __future__ import annotations

import re

from river_banks.partitions import GenPartition
from river_banks.ratpoly import _INT, _int
from river_banks.tables import (
    MAX_AMBIENT_DIM,
    BottSumTable,
    CohomologyTable,
    SumTable,
    homogeneous_table,
    structure_sheaf_table,
)

#: Deepest nesting of parentheses, dual(...) and twist(...) that parses.
MAX_DEPTH = 100


class ExprError(ValueError):
    """Syntax or consistency error, with a character position."""

    def __init__(self, message, pos=None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at column {pos + 1})")


_TOKEN = re.compile(rf"(?P<SUM>\(\s*\+\s*\))|(?P<INT>{_INT.pattern})|(?P<NAME>[^\W\d_]+)"
                    r"|(?P<PUNCT>[()\[\],*])|(?P<BAD>\S)")


def _tokenize(text):
    toks = []
    for m in _TOKEN.finditer(text):
        kind, v, at = m.lastgroup, m.group(), m.start()
        if kind == "NAME" and not v.isalpha():
            # numerals such as '²' or '½' are word characters but not letters
            at += next(i for i, ch in enumerate(v) if not ch.isalpha())
            kind = "BAD"
        if kind == "BAD":
            raise ExprError(f"unexpected character {text[at]!r}", at)
        if kind == "INT":
            try:
                v = _int(v)
            except ValueError as exc:
                raise ExprError(str(exc), at) from None
        elif kind == "SUM":
            kind = v = "(+)"
        elif kind == "PUNCT":
            kind = v
        toks.append((kind, v, at))
    toks.append(("END", None, len(text)))
    return toks


def _scaled(k, t):
    """k*X as one term: a homogeneous sum scales its multiplicities."""
    if isinstance(t, BottSumTable):
        return BottSumTable(t.n, [(k * m, lam) for m, lam in t.terms])
    return SumTable(((k, t),))


def _direct_sum(tables):
    """Adjacent homogeneous sums merge into one; other summands stay as they are."""
    flat = []
    for t in tables:
        if isinstance(t, BottSumTable) and flat and isinstance(flat[-1], BottSumTable):
            flat[-1] = BottSumTable(t.n, flat[-1].terms + t.terms)
        else:
            flat.append(t)
    return flat[0] if len(flat) == 1 else SumTable((1, t) for t in flat)


class _Parser:
    """Each rule returns (dimension or None, n -> table)."""

    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0
        self.depth = 0
        # first pair of summands on different spaces, raised once the text parses
        self.mismatch = None

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind, value=None):
        k, v, at = self.toks[self.pos]
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ExprError(f"expected {want!r}, found {v!r}", at)
        self.pos += 1
        return v

    def sum(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            raise ExprError(f"expression nests deeper than {MAX_DEPTH} levels",
                            self.peek()[2])
        dim, build = self.term()
        builds = [build]
        while self.peek()[0] == "(+)":
            self.take("(+)")
            got, build = self.term()
            builds.append(build)
            if dim is None:
                dim = got
            elif got is not None and got != dim and self.mismatch is None:
                self.mismatch = ExprError(
                    f"summands live on different projective spaces: {dim} vs {got}")
        self.depth -= 1
        if len(builds) == 1:
            return dim, build
        return dim, lambda n: _direct_sum([b(n) for b in builds])

    def term(self):
        k, v, at = self.peek()
        if k != "INT":
            return self.atom()
        self.take("INT")
        if v < 1:
            raise ExprError(f"multiplicity must be a positive integer, got {v}", at)
        self.take("*")
        dim, build = self.atom()
        return dim, lambda n: _scaled(v, build(n))

    def atom(self):
        k, v, at = self.peek()
        if k == "(":
            self.take("(")
            inner = self.sum()
            self.take(")")
            return inner
        if k != "NAME":
            raise ExprError(f"expected a bundle expression, found {v!r}", at)
        if v not in ("S", "O", "push", "dual", "twist"):
            raise ExprError(f"unknown bundle constructor {v!r}", at)
        self.take("NAME")
        if v == "S":
            self.take("[")
            parts = self.int_list("]")
            try:
                lam = GenPartition(parts)
            except ValueError as exc:
                raise ExprError(str(exc), at) from None
            return lam.n, lambda n: homogeneous_table(lam)
        self.take("(")
        if v == "O":
            t = self.take("INT")
            self.take(")")
            return None, lambda n: structure_sheaf_table(n, t)
        if v == "push":
            # imported here: an expression without push(...) never loads kunneth
            from river_banks.kunneth import KunnethTable

            a = self.int_list(")")
            return len(a), lambda n: KunnethTable(a)
        dim, build = self.sum()
        if v == "dual":
            self.take(")")
            return dim, lambda n: build(n).dual()
        self.take(",")
        t = self.take("INT")
        self.take(")")
        return dim, lambda n: build(n).twist(t)

    def int_list(self, closer):
        vals = [self.take("INT")]
        while self.peek()[0] == ",":
            self.take(",")
            vals.append(self.take("INT"))
        self.take(closer)
        return vals


def table_from_expr(text: str) -> CohomologyTable:
    """The table of an expression; raises ExprError, with a column where it can."""
    parser = _Parser(text)
    inferred, build = parser.sum()
    ambient = None
    k, v, at = parser.peek()
    if k == "NAME" and v == "on":
        parser.take("NAME")
        parser.take("NAME", "P")
        ambient = parser.take("INT")
        if ambient < 1:
            raise ExprError(f"ambient dimension must be positive, got {ambient}", at)
    parser.take("END")
    if parser.mismatch is not None:
        raise parser.mismatch
    n = ambient if ambient is not None else inferred
    if n is None:
        raise ExprError("ambient dimension is undetermined; append 'on P<n>'")
    if inferred is not None and ambient is not None and inferred != ambient:
        raise ExprError(f"expression determines P{inferred} but the clause says P{ambient}")
    if n > MAX_AMBIENT_DIM:
        raise ExprError(f"P{n} is past the limit P{MAX_AMBIENT_DIM} on the ambient dimension")
    return build(n)

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

Whitespace is insignificant.  The ambient clause pins the projective
dimension; without it the dimension is inferred from S[...] lengths and
push(...) arities and must be determined by at least one of them.
"""

from __future__ import annotations

from dataclasses import dataclass

from river_banks.kunneth import KunnethTable
from river_banks.partitions import GenPartition
from river_banks.tables import (
    BottSumTable,
    CohomologyTable,
    SumTable,
    homogeneous_table,
    structure_sheaf_table,
)


class ExprError(ValueError):
    """Syntax or consistency error, with a character position."""

    def __init__(self, message, pos=None):
        self.pos = pos
        super().__init__(message if pos is None else f"{message} (at column {pos + 1})")


@dataclass(frozen=True)
class Hom:
    parts: tuple


@dataclass(frozen=True)
class Line:
    t: int


@dataclass(frozen=True)
class Push:
    a: tuple


@dataclass(frozen=True)
class Dual:
    inner: object


@dataclass(frozen=True)
class Twist:
    inner: object
    t: int


@dataclass(frozen=True)
class DirectSum:
    summands: tuple


@dataclass(frozen=True)
class Scale:
    k: int
    inner: object


@dataclass(frozen=True)
class BundleExpr:
    """Parsed expression with an optional ambient dimension clause."""

    root: object
    ambient: int | None


_NAMES = {"S", "O", "push", "dual", "twist", "on", "P"}


def _tokenize(text):
    toks = []
    i = 0
    size = len(text)
    while i < size:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch == "(":
            j = i + 1
            while j < size and text[j].isspace():
                j += 1
            if j < size and text[j] == "+":
                k = j + 1
                while k < size and text[k].isspace():
                    k += 1
                if k < size and text[k] == ")":
                    toks.append(("(+)", "(+)", i))
                    i = k + 1
                    continue
            toks.append(("(", "(", i))
            i += 1
            continue
        if ch in ")[],*":
            toks.append((ch, ch, i))
            i += 1
            continue
        if ch.isdigit() or (ch in "+-" and i + 1 < size and text[i + 1].isdigit()):
            j = i + 1
            while j < size and text[j].isdigit():
                j += 1
            toks.append(("INT", int(text[i:j]), i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < size and text[j].isalpha():
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        raise ExprError(f"unexpected character {ch!r}", i)
    toks.append(("END", None, size))
    return toks


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.pos = 0

    def peek(self):
        return self.toks[self.pos]

    def take(self, kind, value=None):
        k, v, at = self.toks[self.pos]
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ExprError(f"expected {want!r}, found {v!r}", at)
        self.pos += 1
        return v

    def parse(self):
        root = self.sum()
        ambient = None
        k, v, at = self.peek()
        if k == "NAME" and v == "on":
            self.take("NAME")
            self.take("NAME", "P")
            ambient = self.take("INT")
            if ambient < 1:
                raise ExprError(f"ambient dimension must be positive, got {ambient}", at)
        self.take("END")
        return BundleExpr(root, ambient)

    def sum(self):
        terms = [self.term()]
        while self.peek()[0] == "(+)":
            self.take("(+)")
            terms.append(self.term())
        return terms[0] if len(terms) == 1 else DirectSum(tuple(terms))

    def term(self):
        k, v, at = self.peek()
        if k == "INT":
            self.take("INT")
            if v < 1:
                raise ExprError(f"multiplicity must be a positive integer, got {v}", at)
            self.take("*")
            return Scale(v, self.atom())
        return self.atom()

    def atom(self):
        k, v, at = self.peek()
        if k == "(":
            self.take("(")
            inner = self.sum()
            self.take(")")
            return inner
        if k != "NAME":
            raise ExprError(f"expected a bundle expression, found {v!r}", at)
        if v == "S":
            self.take("NAME")
            self.take("[")
            parts = self.int_list("]")
            try:
                GenPartition(parts)
            except ValueError as exc:
                raise ExprError(str(exc), at) from None
            return Hom(tuple(parts))
        if v == "O":
            self.take("NAME")
            self.take("(")
            t = self.take("INT")
            self.take(")")
            return Line(t)
        if v == "push":
            self.take("NAME")
            self.take("(")
            a = self.int_list(")")
            return Push(tuple(a))
        if v == "dual":
            self.take("NAME")
            self.take("(")
            inner = self.sum()
            self.take(")")
            return Dual(inner)
        if v == "twist":
            self.take("NAME")
            self.take("(")
            inner = self.sum()
            self.take(",")
            t = self.take("INT")
            self.take(")")
            return Twist(inner, t)
        raise ExprError(f"unknown bundle constructor {v!r}", at)

    def int_list(self, closer):
        vals = [self.take("INT")]
        while self.peek()[0] == ",":
            self.take(",")
            vals.append(self.take("INT"))
        self.take(closer)
        return vals


def parse_expr(text: str) -> BundleExpr:
    """Parse the grammar above; raises ExprError with a column on bad input."""
    return _Parser(text).parse()


def _infer(node):
    if isinstance(node, Hom):
        return len(node.parts)
    if isinstance(node, Push):
        return len(node.a)
    if isinstance(node, Line):
        return None
    if isinstance(node, (Dual, Scale, Twist)):
        return _infer(node.inner)
    if isinstance(node, DirectSum):
        found = None
        for child in node.summands:
            got = _infer(child)
            if got is None:
                continue
            if found is None:
                found = got
            elif found != got:
                raise ExprError(
                    f"summands live on different projective spaces: {found} vs {got}")
        return found
    raise TypeError(f"not an expression node: {node!r}")


def _build(node, n):
    if isinstance(node, Hom):
        if len(node.parts) != n:
            raise ExprError(
                f"partition {list(node.parts)} has length {len(node.parts)}, "
                f"but the ambient space is P{n}")
        return homogeneous_table(GenPartition(node.parts))
    if isinstance(node, Line):
        return structure_sheaf_table(n, node.t)
    if isinstance(node, Push):
        if len(node.a) != n:
            raise ExprError(
                f"push{list(node.a)} targets P{len(node.a)}, "
                f"but the ambient space is P{n}")
        return KunnethTable(node.a)
    if isinstance(node, Dual):
        return _build(node.inner, n).dual()
    if isinstance(node, Twist):
        return _build(node.inner, n).twist(node.t)
    if isinstance(node, Scale):
        inner = _build(node.inner, n)
        if isinstance(inner, BottSumTable):
            return BottSumTable(n, [(node.k * m, lam) for m, lam in inner.terms])
        return SumTable((inner,) * node.k)
    if isinstance(node, DirectSum):
        built = [_build(child, n) for child in node.summands]
        flat = []
        for t in built:
            if isinstance(t, BottSumTable) and flat and isinstance(flat[-1], BottSumTable):
                flat[-1] = BottSumTable(n, list(flat[-1].terms) + list(t.terms))
            else:
                flat.append(t)
        return flat[0] if len(flat) == 1 else SumTable(tuple(flat))
    raise TypeError(f"not an expression node: {node!r}")


def table_from_expr(text: str) -> CohomologyTable:
    """Parse and build in one step, resolving the ambient dimension."""
    expr = parse_expr(text)
    inferred = _infer(expr.root)
    n = expr.ambient if expr.ambient is not None else inferred
    if n is None:
        raise ExprError("ambient dimension is undetermined; append 'on P<n>'")
    if inferred is not None and expr.ambient is not None and inferred != expr.ambient:
        raise ExprError(
            f"expression determines P{inferred} but the clause says P{expr.ambient}")
    return _build(expr.root, n)

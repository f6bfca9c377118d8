"""Queryable cohomology tables and their index profiles.

A table knows its ambient projective dimension n and answers ``entry(i, d)``
-- the dimension of the i-th cohomology group of the d-th twist -- exactly.
There are three backends: sums of homogeneous-bundle tables, pushforward
tables (``kunneth.KunnethTable``) and literal windows, plus ``SumTable`` for
direct sums of mixed backends.  Each backend is closed under Serre duality
(``entry(i, d)`` of the dual is ``entry(n - i, -d - n - 1)``) and under
twists (``entry(i, d)`` of ``twist(s)`` is ``entry(i, d + s)``): ``dual()``
and ``twist(s)`` return a table of the same class, so no wrapper tables
exist.  Generator backends are defined for every twist; literal backends
hold a finite window of values and refuse to answer outside it, since
inventing zeros beyond a printed excerpt would fabricate vanishing.

Display convention shared by the ASCII and JSON formats: ``entry(i, d)``
is shown in row i (rows listed top to bottom from n down to 0) and display
column i + d; zeros print as dots and the final line lists the display
column numbers.  Consequently the cells of display column m are exactly the
antidiagonal ``{(j, m - j)}`` that the regularity indices quantify over:

* ``reg(k)``  = least m such that rows j > k hold only zeros in display
  columns >= m;
* ``coreg(k)`` = greatest m such that rows j < n - k hold only zeros in
  display columns <= m.

A table answers the whole profile, every k at once, through ``_profile()``.
Sums of homogeneous tables read it off their labels, pushforwards off their
multidegree, and direct sums combine those of their summands.  Only literal
windows are swept: the cells of ``_scan_range()`` are read through ``entry``
and each display column keeps its top and its bottom nonzero row, the two
banks of the river.  Then reg(k) is one more than the last column whose top
row is above k, and coreg(k) one less than the first column whose bottom
row is below n - k.  An answer that touches the end of the window is
reported with a ``window_limited`` flag instead of being silently
extrapolated.

Generator tables list their natural pieces through ``_pieces()``, as
(constant, increasing roots): twist d of a piece vanishes at a root and
otherwise has one group, of dimension constant * |prod(d - r)|, in row
#{r > d}.  A label is one piece (``bott._roots``), a pushforward one with
the roots -a_j - 1, and a direct sum has its summands' pieces, scaled by
their positive multiplicities.  ``hilbert_polynomial``, ``is_natural`` and
``is_supernatural`` are derived from the pieces once, for every backend.
A literal window has none (``None``) and answers from its visible cells.
"""

from __future__ import annotations

import re
import reprlib
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction

from river_banks.bott import _roots, bott_cohomology
from river_banks.partitions import GenPartition
from river_banks.ratpoly import RatPoly, _from_roots

#: Explicit index values for vacuous regularity conditions (never sentinels).
NEG_INFINITY = float("-inf")
POS_INFINITY = float("inf")

INT64_MAX = 2**63 - 1
_DIGITS = re.compile("[0-9]+")


class WindowExceededError(LookupError):
    """A literal table was asked for a cell outside its window."""

    def __init__(self, i, d, lo, hi):
        self.i, self.d, self.lo, self.hi = i, d, lo, hi
        super().__init__(
            f"cell (i={i}, d={d}) sits in display column {i + d}, "
            f"outside the window {lo}..{hi}"
        )


class UndecidableError(Exception):
    """The requested classification cannot be settled from the data given."""


class InsufficientDataError(ValueError):
    """A literal window does not determine the requested global quantity."""


def _exact(v):
    """Collapse integral fractions to int so entries compare cleanly."""
    # an exact type test: isinstance on an int goes through the numbers ABCs
    if type(v) is Fraction and v.denominator == 1:
        return int(v)
    return v


class CohomologyTable:
    """Base class; tables are immutable values and safe to share."""

    n: int

    def entry(self, i: int, d: int):
        if i < 0 or i > self.n:
            return 0
        return self._entry(i, d)

    def _entry(self, i, d):
        raise NotImplementedError

    # --- regularity / coregularity ------------------------------------

    def reg(self, k: int):
        """k-th regularity index; NEG_INFINITY when the condition is vacuous."""
        if k < 0:
            raise ValueError(f"index {k} out of range")
        if k >= self.n:
            return NEG_INFINITY
        return self._profile().reg[k]

    def coreg(self, k: int):
        """k-th coregularity index; POS_INFINITY when the condition is vacuous."""
        if k < 0:
            raise ValueError(f"index {k} out of range")
        if k >= self.n:
            return POS_INFINITY
        return self._profile().coreg[k]

    def _profile(self):
        """The regularity profile, from one sweep of the cells of ``_scan_range()``."""
        lo, hi = self._scan_range()
        return _grid_profile(_cells(self, lo, hi), lo, hi)

    def _pieces(self):
        """(constant, increasing roots) of each natural piece; None for a literal window."""
        raise NotImplementedError

    # --- structural operations ----------------------------------------

    def __add__(self, other):
        if not isinstance(other, CohomologyTable):
            return NotImplemented
        return SumTable(((1, self), (1, other)))

    def hilbert_polynomial(self) -> RatPoly:
        """The twist polynomial, the sum of constant * prod(d - r) over the pieces."""
        pieces = self._pieces()
        if pieces is None:
            raise InsufficientDataError(
                "a finite window does not determine the twist polynomial")
        return sum((_from_roots(roots, c) for c, roots in pieces), RatPoly())

    def _scan_range(self):
        """Display columns (lo, hi) of the cells a windowed table shows."""
        raise NotImplementedError


class BottSumTable(CohomologyTable):
    """Direct sum of homogeneous-bundle tables with positive multiplicities.

    Multiplicities may be integers or exact rationals (rational ones arise
    from decompositions); zero terms are dropped and equal labels merged.
    """

    def __init__(self, n, terms):
        merged = {}
        for mult, lam in terms:
            if not isinstance(lam, GenPartition):
                lam = GenPartition(lam)
            if lam.n != n:
                raise ValueError(f"label {lam} has length {lam.n}, expected {n}")
            mult = _exact(Fraction(mult))
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for {lam}")
            if mult:
                merged[lam] = _exact(merged.get(lam, 0) + mult)
        self.n = n
        self.terms = tuple(sorted(((m, lam) for lam, m in merged.items()),
                                  key=lambda t: t[1].parts))

    def _entry(self, i, d):
        total = 0
        for mult, lam in self.terms:
            hit = bott_cohomology(self.n, lam, d)
            if hit is not None and hit.degree == i:
                total += mult * hit.dim
        return _exact(total)

    def _profile(self):
        n, labels = self.n, [lam for _, lam in self.terms]
        return RegularityProfile(
            tuple(max((-lam.part(k) for lam in labels), default=NEG_INFINITY)
                  for k in range(n)),
            tuple(min((-lam.part(n - 1 - k) - 1 for lam in labels), default=POS_INFINITY)
                  for k in range(n)),
            (False,) * n, (False,) * n)

    def dual(self):
        return BottSumTable(self.n, [(m, GenPartition(-p for p in reversed(lam.parts)))
                                     for m, lam in self.terms])

    def twist(self, s):
        return BottSumTable(self.n, [(m, lam.shift(s)) for m, lam in self.terms])

    def _pieces(self):
        roots = [(m, _roots(lam.parts)) for m, lam in self.terms]
        return [(m * Fraction(num, den), neg) for m, (neg, num, den) in roots]

    def __repr__(self):
        inner = " + ".join(f"{m}*S[{lam}]" for m, lam in self.terms) or "0"
        return f"<BottSumTable n={self.n} {inner}>"


def homogeneous_table(lam: GenPartition, mult=1) -> BottSumTable:
    """Table of the single homogeneous bundle labelled by ``lam``."""
    return BottSumTable(lam.n, [(mult, lam)])


def structure_sheaf_table(n: int, t: int = 0) -> BottSumTable:
    """Table of the t-th power of the hyperplane bundle on P^n."""
    return homogeneous_table(GenPartition((t,) * n))


class SumTable(CohomologyTable):
    """Entrywise direct sum of ``(multiplicity, table)`` terms on one ambient space."""

    def __init__(self, terms):
        terms = tuple(terms)
        if not terms:
            raise ValueError("empty sum; use an empty BottSumTable for the zero table")
        n = terms[0][1].n
        if any(t.n != n for _, t in terms):
            raise ValueError("summands live on different projective spaces")
        if any(m <= 0 for m, _ in terms):
            raise ValueError(f"non-positive multiplicity in {[m for m, _ in terms]}")
        self.n = n
        self.terms = terms

    def _entry(self, i, d):
        return _exact(sum(m * t.entry(i, d) for m, t in self.terms))

    def _profile(self):
        profiles = [t._profile() for _, t in self.terms]

        def combine(pick, field):
            return tuple(map(pick, zip(*(getattr(p, field) for p in profiles))))

        return RegularityProfile(combine(max, "reg"), combine(min, "coreg"),
                                 combine(any, "reg_window_limited"),
                                 combine(any, "coreg_window_limited"))

    def dual(self):
        return SumTable((m, t.dual()) for m, t in self.terms)

    def twist(self, s):
        return SumTable((m, t.twist(s)) for m, t in self.terms)

    def _pieces(self):
        inner = [(m, t._pieces()) for m, t in self.terms]
        if any(pieces is None for _, pieces in inner):
            return None
        return [(m * c, roots) for m, pieces in inner for c, roots in pieces]

    def _scan_range(self):
        # outside its windowed summands' columns every cell of the sum raises
        ranges = [t._scan_range() for _, t in self.terms if t._pieces() is None]
        return (min(lo for lo, _ in ranges), max(hi for _, hi in ranges))


class LiteralTable(CohomologyTable):
    """Finite window of values; queries outside the window are hard errors.

    ``rows_by_i[i]`` holds row i left to right over display columns
    ``lo..hi``; entries are nonnegative integers.
    """

    def __init__(self, n, lo, hi, rows_by_i):
        if hi < lo:
            raise ValueError(f"empty window {lo}..{hi}")
        rows = tuple(tuple(int(v) for v in row) for row in rows_by_i)
        width = hi - lo + 1
        if len(rows) != n + 1:
            raise ValueError(f"expected {n + 1} rows, got {len(rows)}")
        for i, row in enumerate(rows):
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")
            if any(v < 0 for v in row):
                raise ValueError(f"negative entry in row {i}")
        self.n = n
        self.lo = lo
        self.hi = hi
        self.rows_by_i = rows

    @property
    def window(self):
        return (self.lo, self.hi)

    def _entry(self, i, d):
        c = i + d
        if not self.lo <= c <= self.hi:
            raise WindowExceededError(i, d, self.lo, self.hi)
        return self.rows_by_i[i][c - self.lo]

    def dual(self):
        rows = [row[::-1] for row in reversed(self.rows_by_i)]
        return LiteralTable(self.n, -self.hi - 1, -self.lo - 1, rows)

    def twist(self, s):
        return LiteralTable(self.n, self.lo - s, self.hi - s, self.rows_by_i)

    def _pieces(self):
        return None

    def _scan_range(self):
        return (self.lo, self.hi)


#: Refusals for hostile sizes, checked before any work: expressions on a
#: space past P^MAX_AMBIENT_DIM do not parse, and no grid read by ``_cells``
#: (a render, a profile sweep, a decomposition window) holds more than
#: MAX_CELLS cells.
MAX_AMBIENT_DIM = 100
MAX_CELLS = 100_000


def _cells(t: CohomologyTable, lo: int, hi: int):
    """Rows 0..n of ``t`` over display columns lo..hi, as a list of lists."""
    if hi < lo:
        raise ValueError(f"empty window {lo}..{hi}")
    size = (t.n + 1) * (hi - lo + 1)
    if size > MAX_CELLS:
        raise ValueError(f"display columns {lo}..{hi} of P{t.n} hold {size} cells, "
                         f"past the limit of {MAX_CELLS}")
    return [[t.entry(i, c - i) for c in range(lo, hi + 1)] for i in range(t.n + 1)]


def _grid_profile(grid, lo, hi):
    """The regularity profile of rows 0..n of ``grid`` over display columns lo..hi.

    One pass records each nonzero column's top and bottom nonzero rows, the
    river's two banks.  reg(k) is one more than the last column whose top row
    is above k, coreg(k) one less than the first column whose bottom row is
    below n - k.  Without such a column the answer is lo (for reg) or hi (for
    coreg), flagged window-limited; so is an answer read off column hi (for
    reg) or lo (for coreg).
    """
    n = len(grid) - 1
    banks = []
    for x, c in enumerate(range(lo, hi + 1)):
        rows = [j for j in range(n + 1) if grid[j][x]]
        if rows:
            banks.append((c, rows[-1], rows[0]))
    reg, coreg = [], []
    for k in range(n):
        c = next((c for c, top, _ in reversed(banks) if top > k), None)
        reg.append((lo, True) if c is None else (c + 1, c == hi))
        c = next((c for c, _, bottom in banks if bottom < n - k), None)
        coreg.append((hi, True) if c is None else (c - 1, c == lo))
    return RegularityProfile(tuple(v for v, _ in reg), tuple(v for v, _ in coreg),
                             tuple(f for _, f in reg), tuple(f for _, f in coreg))


@dataclass(frozen=True)
class RegularityProfile:
    """Index vectors for k = 0..n-1, with per-entry window flags."""

    reg: tuple
    coreg: tuple
    reg_window_limited: tuple
    coreg_window_limited: tuple

    def to_json(self):
        return {
            "reg": [_json_index(v) for v in self.reg],
            "coreg": [_json_index(v) for v in self.coreg],
            "reg_window_limited": list(self.reg_window_limited),
            "coreg_window_limited": list(self.coreg_window_limited),
        }


def _json_index(v):
    if v == NEG_INFINITY:
        return "-inf"
    if v == POS_INFINITY:
        return "inf"
    return int(v)


def regularity_profile(t: CohomologyTable) -> RegularityProfile:
    return t._profile()


# --- classification ------------------------------------------------------


def is_natural(t: CohomologyTable) -> bool:
    """True when no twist of ``t`` has two nonzero cohomology groups.

    A generator table compares the rows #{r > d} of its pieces' distinct
    root sequences at each root u and at u + 1: rows change only at roots,
    so these twists cover every case, whatever the size of the labels.  A
    literal window consults its visible cells, the only ones it has.
    """
    pieces = t._pieces()
    if pieces is None:
        lo, hi = t._scan_range()
        for d in range(lo - t.n, hi + 1):
            seen = 0
            for i in range(t.n + 1):
                try:
                    seen += t.entry(i, d) != 0
                except WindowExceededError:
                    pass
            if seen > 1:
                return False
        return True
    seqs = {roots for _, roots in pieces}
    for d in {u + s for roots in seqs for u in roots for s in (0, 1)}:
        if len({len(r) - bisect_right(r, d) for r in seqs if d not in r}) > 1:
            return False
    return True


def is_supernatural(t: CohomologyTable, chi: RatPoly | None = None) -> bool:
    """Natural cohomology plus a twist polynomial with n distinct integer roots.

    A generator table ignores ``chi``: it is supernatural exactly when all
    its pieces share one sequence of n distinct roots, since with positive
    constants a natural table's polynomial vanishes at an integer only
    where every piece does.  A literal window searches the integer roots of
    a supplied ``chi``, and raises ``UndecidableError`` without one.
    """
    pieces = t._pieces()
    if pieces is not None:
        seqs = {roots for _, roots in pieces}
        return len(seqs) == 1 and len(set(seqs.pop())) == t.n
    if chi is None:
        raise UndecidableError(
            "supernaturality of a windowed table needs the twist polynomial")
    return is_natural(t) and chi.degree == t.n and len(chi.integer_roots()) == t.n


def beilinson_terms(t: CohomologyTable, e: int):
    """Multiplicities along display column e, as (row j, entry(j, e - j)) pairs.

    Rows run over max(0, e) <= j <= min(n, n + e); zero entries are omitted.
    """
    out = []
    for j in range(max(0, e), min(t.n, t.n + e) + 1):
        v = t.entry(j, e - j)
        if v:
            out.append((j, v))
    return out


# --- ASCII format ---------------------------------------------------------


def render_ascii(t: CohomologyTable, lo: int, hi: int) -> str:
    """Rows n..0 with ``i:`` prefixes, dots for zeros, then the column index line."""
    n = t.n
    cols = range(lo, hi + 1)
    cells = [[str(v) if v else "." for v in row] for row in _cells(t, lo, hi)]
    widths = [max(len(str(c)), *(len(row[x]) for row in cells))
              for x, c in enumerate(cols)]
    label_w = len(f"{n}:")
    lines = []
    for i in range(n, -1, -1):
        body = " ".join(v.rjust(w) for v, w in zip(cells[i], widths))
        lines.append(f"{i}:".rjust(label_w) + " " + body)
    index = " ".join(str(c).rjust(w) for c, w in zip(cols, widths))
    lines.append(" " * label_w + " " + index)
    return "\n".join(lines) + "\n"


def parse_ascii(text: str) -> LiteralTable:
    """Inverse of render_ascii up to whitespace width.

    The last token of the index line may carry a single trailing period
    (tables copied from print sometimes end in one).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("table text needs at least one row and an index line")
    *row_lines, index_line = lines
    idx_tokens = index_line.split()
    if idx_tokens and idx_tokens[-1].endswith("."):
        idx_tokens[-1] = idx_tokens[-1][:-1]
    try:
        cols = [int(tok) for tok in idx_tokens]
    except ValueError:
        raise ValueError(f"malformed index line: {index_line!r}") from None
    if not cols:
        raise ValueError("missing index line")
    if any(b != a + 1 for a, b in zip(cols, cols[1:])):
        raise ValueError(f"index line is not consecutive: {cols}")
    lo, hi = cols[0], cols[-1]

    n = len(row_lines) - 1
    rows_by_i = [None] * (n + 1)
    for expected, line in zip(range(n, -1, -1), row_lines):
        tokens = line.split()
        if not tokens or not tokens[0].endswith(":"):
            raise ValueError(f"row line lacks a label: {line!r}")
        try:
            label = int(tokens[0][:-1])
        except ValueError:
            raise ValueError(f"bad row label in {line!r}") from None
        if label != expected:
            raise ValueError(f"row label {label} out of order; expected {expected}")
        body = tokens[1:]
        if len(body) != len(cols):
            raise ValueError(
                f"row {label} has {len(body)} cells, expected {len(cols)}"
            )
        vals = []
        for tok in body:
            if tok == ".":
                vals.append(0)
                continue
            try:
                v = int(tok)
            except ValueError:
                raise ValueError(f"bad cell {tok!r} in row {label}") from None
            if v < 0:
                raise ValueError(f"negative entry {v} in row {label}")
            vals.append(v)
        rows_by_i[label] = vals
    return LiteralTable(n, lo, hi, rows_by_i)


def ascii_normalize(text: str) -> str:
    """Collapse whitespace runs so differently aligned renders compare equal.

    A single trailing period after the final index number is dropped, the
    same tolerance parse_ascii extends to tables copied from print.
    """
    lines = [" ".join(ln.split()) for ln in text.splitlines()]
    out = "\n".join(ln for ln in lines if ln)
    if out.endswith(".") and not out.endswith(" ."):
        out = out[:-1]
    return out


# --- JSON format ----------------------------------------------------------


def table_to_json(t: CohomologyTable, lo: int, hi: int) -> dict:
    """{"n", "window", "rows"} with rows listed from i = n down to 0.

    Entries that do not fit a signed 64-bit integer are emitted as decimal
    strings.
    """
    cells = _cells(t, lo, hi)
    rows = []
    for i in range(t.n, -1, -1):
        for c, v in enumerate(cells[i], lo):
            if isinstance(v, Fraction):
                raise ValueError(f"non-integral entry {v} at (i={i}, col={c})")
        rows.append([v if abs(v) <= INT64_MAX else str(v) for v in cells[i]])
    return {"n": t.n, "window": [lo, hi], "rows": rows}


def literal_from_json(obj: dict) -> LiteralTable:
    """The literal window ``table_to_json`` writes, read strictly.

    ``n`` (at least 0) and the window bounds must be JSON integers, and each
    cell a JSON integer or a string of ASCII digits, the form big entries
    are written in; booleans, floats and other strings are refused rather
    than rounded.
    """
    if not isinstance(obj, dict):
        raise ValueError(f"a table is a JSON object, got {reprlib.repr(obj)}")
    n, window, rows = obj["n"], obj["window"], obj["rows"]
    if not (type(n) is int and n >= 0 and isinstance(window, list) and len(window) == 2
            and all(type(v) is int for v in window)):
        raise ValueError("n must be a JSON integer >= 0 and window a pair of JSON integers, "
                         f"got {reprlib.repr(n)} and {reprlib.repr(window)}")
    if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
        raise ValueError("rows must be a JSON list of lists")
    return LiteralTable(n, *window, [[_json_cell(v) for v in row] for row in reversed(rows)])


def _json_cell(v):
    if type(v) is int:
        return v
    if isinstance(v, str) and _DIGITS.fullmatch(v):
        return int(v)
    raise ValueError("a cell must be a JSON integer or a string of ASCII digits, "
                     f"got {reprlib.repr(v)}")

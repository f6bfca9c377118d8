"""Queryable cohomology tables and their index profiles.

A table knows its ambient projective dimension n and answers ``entry(i, d)``
-- the dimension of the i-th cohomology group of the d-th twist -- exactly.
There are three backends: sums of homogeneous-bundle tables, pushforward
tables (``kunneth.KunnethTable``) and literal windows, plus ``SumTable`` for
direct sums of the first two.  Each backend is closed under Serre duality
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

A generator table keeps its natural pieces, built once with the table, in
``_pieces``: (p, q, increasing roots) with the exact constant p/q kept in
integers.  Twist d of a piece vanishes at a root and otherwise has one
group, of dimension p/q * |prod(d - r)|, in row #{r > d}.  A label is one
piece (``partitions._roots``), a pushforward one with constant 1 and the roots
-a_j - 1, and a direct sum has its summands' pieces, scaled by their
positive multiplicities.

A grid (a render, a profile sweep, a decomposition window) is read by
``_cells`` a row at a time, through ``_row(i, lo, hi)``: row i over display
columns lo..hi; a cell read alone (``entry``, as in ``beilinson_terms``)
is a one-column row.  One rule reads a generator row off the pieces
(``CohomologyTable._row``): each piece fills one interval of twists of the
row, and the pieces are summed in integers.  A literal window's row is a
slice of its stored row.  A homogeneous sum is the one exception, pinned
by the benchmark: it reads its row cell by cell, through ``entry``
(``BottSumTable._row`` says why).  The two writers share one pass over
the rows (``_printed_rows``), which refuses a fractional entry, since
neither file format can hold one, and, before any cell, a generator grid
whose entries the bound off its pieces puts past the interpreter's limit
on writing an integer as text (``ratpoly._check_digits``).

Every derived query asks a table one of two questions: its pieces or its
window.  The whole regularity profile, every k at once (``regularity_profile``,
by ``_roots_profile``), ``hilbert_polynomial``, ``is_natural`` and
``is_supernatural`` are derived from the pieces, for every generator
backend.  The twist polynomial is summed in integers over one
denominator, the lcm of the pieces' q, from each piece's integer expansion
of prod(x - r) (``ratpoly._expand``); ``bott.chi_polynomial`` is the
twist polynomial of a one-label table.  A windowed table, which is a
literal window (a direct sum holds generator tables only), gives instead its
``window``: the display columns (lo, hi) it defines; a generator table's
``window`` is None.  A literal window sweeps its cells for its profile
(``_grid_profile``): each display column keeps its top and bottom nonzero
rows, the two banks of the river, and an answer that touches the end of
the window carries a ``window_limited`` flag instead of being silently
extrapolated.  A window sweeps its cells for ``is_natural`` too, but
determines neither the twist polynomial nor supernaturality: both raise
``UndecidableError``.
"""

from __future__ import annotations

import reprlib
from bisect import bisect_right
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from math import lcm, prod
from typing import NamedTuple

from river_banks.bott import bott_cohomology
from river_banks.partitions import GenPartition, _roots
from river_banks.ratpoly import (RatPoly, _check_digits, _coeff, _exact, _expand, _int, _ints,
                                 _written)

#: Explicit index values for vacuous regularity conditions (never sentinels).
NEG_INFINITY = float("-inf")
POS_INFINITY = float("inf")

INT64_MAX = 2**63 - 1


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


def _ambient(n) -> int:
    """The ambient dimension ``n``, an int (``ratpoly._ints``) of at least 0."""
    (n,) = _ints((n,))
    if n < 0:
        raise ValueError(f"ambient dimension {n} < 0")
    return n


class CohomologyTable:
    """Base class; tables are immutable values and safe to share."""

    n: int
    #: display columns (lo, hi) of the cells a windowed table defines; None
    #: for a generator table, which defines every cell
    window = None
    #: (p, q, increasing roots) of each natural piece of a generator table,
    #: constant p/q, kept when the table is built; a window has none
    _pieces = ()

    def entry(self, i: int, d: int):
        if i < 0 or i > self.n:
            return 0
        return self._entry(i, d)

    def _entry(self, i, d):
        return self._row(i, i + d, i + d)[0]

    @cached_property
    def _den(self):
        """The lcm of the pieces' q: one denominator for every row and the twist polynomial."""
        return lcm(*[q for _, q, _ in self._pieces])

    def _row(self, i: int, lo: int, hi: int) -> list:
        """Row i (0 <= i <= n) over display columns lo..hi, summed over the pieces.

        Twist d of a piece (p, q, increasing roots r) sits in row #{r > d}, so
        row i holds the twists r[n-1-i] <= d <= r[n-i] - 1, open at the ends
        for i = 0 and i = n.  On them exactly i factors d - r are negative, so
        the entry is (-1)^i * p/q * prod(d - r); the root r[n-1-i] gives 0 by
        itself.  With D the lcm of the q, the pieces are summed in integers,
        scaled by D / q, and a cell is divided by D only when D is not 1.
        """
        n, pieces, den = self.n, self._pieces, self._den
        row = [0] * (hi - lo + 1)
        sign = (-1) ** i
        for p, q, r in pieces:
            first = lo - i if i == n else max(lo - i, r[n - 1 - i])
            last = hi - i if i == 0 else min(hi - i, r[n - i] - 1)
            c = sign * p * (den // q)
            for d in range(first, last + 1):
                row[d + i - lo] += prod(map(d.__sub__, r), start=c)
        return row if den == 1 else [_exact(Fraction(v, den)) for v in row]

    # --- regularity / coregularity ------------------------------------

    def reg(self, k: int):
        """k-th regularity index; NEG_INFINITY when the condition is vacuous."""
        if k < 0:
            raise ValueError(f"index {k} out of range")
        return NEG_INFINITY if k >= self.n else regularity_profile(self).reg[k]

    def coreg(self, k: int):
        """k-th coregularity index; POS_INFINITY when the condition is vacuous."""
        if k < 0:
            raise ValueError(f"index {k} out of range")
        return POS_INFINITY if k >= self.n else regularity_profile(self).coreg[k]

    # --- twist polynomial ---------------------------------------------

    def hilbert_polynomial(self) -> RatPoly:
        """The twist polynomial, the sum of p/q * prod(d - r) over the pieces.

        With Q = ``_den``, the lcm of the q, the integer sum of p * (Q / q) * prod(d - r)
        is divided by Q once, at the end.
        """
        if self.window is not None:
            raise UndecidableError("a finite window does not determine the twist polynomial")
        den = self._den
        total = [0] * (self.n + 1)
        for p, q, roots in self._pieces:
            scale = p * (den // q)
            for k, c in enumerate(_expand(roots)):
                total[k] += c * scale
        return RatPoly(Fraction(c, den) for c in total)


class BottSumTable(CohomologyTable):
    """Direct sum of homogeneous-bundle tables with positive multiplicities.

    Multiplicities may be integers or exact rationals (rational ones arise
    from decompositions); zero terms are dropped and equal labels merged.
    """

    def __init__(self, n, terms):
        # parts -> (multiplicity, label), the term itself: its parts are hashed
        # by one get and one store, and the sorted values are the terms
        n, merged = _ambient(n), {}
        for mult, lam in terms:
            if not isinstance(lam, GenPartition):
                lam = GenPartition(lam)
            parts = lam.parts
            if len(parts) != n:
                raise ValueError(f"label {lam} has length {len(parts)}, expected {n}")
            mult = _coeff(mult)
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} for {lam}")
            if mult:
                held = merged.get(parts)
                merged[parts] = (mult, lam) if held is None else (_exact(held[0] + mult), lam)
        self.n = n
        self.terms = tuple(term for _, term in sorted(merged.items()))
        self._pieces = tuple((m.numerator * num, m.denominator * den, neg)
                             for m, lam in self.terms for neg, num, den in [_roots(lam.parts)])

    def _entry(self, i, d):
        # read once per cell, at call time, so a rebound bott_cohomology is the one called
        n, bott = self.n, bott_cohomology
        total = 0
        for mult, lam in self.terms:
            hit = bott(n, lam, d)
            if hit is not None and hit.degree == i:
                total += mult * hit.dim
        return _exact(total)

    def _row(self, i, lo, hi):
        """Row i over display columns lo..hi, read cell by cell through ``entry``.

        The one exception to the row rule over the pieces: the benchmark's
        tracer test pins one ``entry`` and one ``bott_cohomology`` call per
        cell of a one-label render (28 each for 7 columns on P^3).  Once that
        pin counts what does not depend on the path, this override, ``_entry``
        and the ``bott._bott`` memo go, and a homogeneous sum reads its rows
        off its pieces like every other generator table.
        """
        return [self.entry(i, c - i) for c in range(lo, hi + 1)]

    def dual(self):
        return BottSumTable(self.n, [(m, GenPartition(-p for p in reversed(lam.parts)))
                                     for m, lam in self.terms])

    def twist(self, s):
        (s,) = _ints((s,))
        return BottSumTable(self.n, [(m, lam.shift(s)) for m, lam in self.terms])

    def __repr__(self):
        inner = " + ".join(f"{m}*S[{lam}]" for m, lam in self.terms) or "0"
        return f"<BottSumTable n={self.n} {inner}>"


def homogeneous_table(lam: GenPartition) -> BottSumTable:
    """Table of the single homogeneous bundle labelled by ``lam``."""
    return BottSumTable(lam.n, [(1, lam)])


def structure_sheaf_table(n: int, t: int = 0) -> BottSumTable:
    """Table of the t-th power of the hyperplane bundle on P^n."""
    return homogeneous_table(GenPartition((t,) * n))


class SumTable(CohomologyTable):
    """Entrywise direct sum of ``(multiplicity, table)`` terms on one ambient space.

    The summands are generator tables, defined at every twist; a literal
    window is refused, since a sum's cells would be defined only where every
    window is.  Multiplicities follow the exact-number rule of
    ``BottSumTable`` and must be positive.
    """

    def __init__(self, terms):
        terms = tuple((_coeff(m), t) for m, t in terms)
        if not terms:
            raise ValueError("empty sum; use an empty BottSumTable for the zero table")
        n = terms[0][1].n
        if any(t.n != n for _, t in terms):
            raise ValueError("summands live on different projective spaces")
        if any(m <= 0 for m, _ in terms):
            raise ValueError(f"non-positive multiplicity in {[m for m, _ in terms]}")
        window = next((t.window for _, t in terms if t.window is not None), None)
        if window is not None:
            raise ValueError("a direct sum holds generator tables only, "
                             f"got a summand with the window {window[0]}..{window[1]}")
        self.n = n
        self.terms = terms
        self._pieces = tuple((m.numerator * p, m.denominator * q, roots)
                             for m, t in terms for p, q, roots in t._pieces)

    def dual(self):
        return SumTable((m, t.dual()) for m, t in self.terms)

    def twist(self, s):
        return SumTable((m, t.twist(s)) for m, t in self.terms)


class LiteralTable(CohomologyTable):
    """Finite window of values; queries outside the window are hard errors.

    ``n`` (at least 0) is an int and ``lo..hi`` a grid by ``_check_grid``,
    and ``rows_by_i[i]`` holds row i over display columns ``lo..hi``;
    entries are nonnegative integers, given as ints or as strings of ASCII
    digits (the cell rule of both file formats) within the interpreter's digit
    limit (``ratpoly._check_digits``).
    A bool, a float, a Fraction or any other string is refused, not rounded.
    """

    def __init__(self, n, lo, hi, rows_by_i):
        n = _ambient(n)
        _check_grid(n, lo, hi)
        rows_by_i = tuple(rows_by_i)
        width = hi - lo + 1
        if len(rows_by_i) != n + 1:
            raise ValueError(f"expected {n + 1} rows, got {len(rows_by_i)}")
        rows = []
        for i, row in enumerate(rows_by_i):
            text = [c for c in row if type(c) is not int]
            for c in text:
                # '٣' passes isdigit alone
                if not (isinstance(c, str) and c.isascii() and c.isdigit()):
                    raise ValueError("a cell is an int or a string of ASCII digits, "
                                     f"got {reprlib.repr(c)} in row {i}")
            _check_digits(max(map(len, text), default=0), "an integer has")
            row = tuple(map(int, row))
            if len(row) != width:
                raise ValueError(f"row {i} has {len(row)} cells, expected {width}")
            if min(row, default=0) < 0:
                raise ValueError(f"negative entry in row {i}")
            rows.append(row)
        self.n = n
        self.lo = lo
        self.hi = hi
        self.window = (lo, hi)
        self.rows_by_i = tuple(rows)

    def _row(self, i, lo, hi):
        if not self.lo <= lo <= hi <= self.hi:
            # the first column outside the window, left to right
            c = self.hi + 1 if self.lo <= lo <= self.hi else lo
            raise WindowExceededError(i, c - i, self.lo, self.hi)
        return list(self.rows_by_i[i][lo - self.lo:hi - self.lo + 1])

    def dual(self):
        rows = [row[::-1] for row in reversed(self.rows_by_i)]
        return LiteralTable(self.n, -self.hi - 1, -self.lo - 1, rows)

    def twist(self, s):
        (s,) = _ints((s,))
        return LiteralTable(self.n, self.lo - s, self.hi - s, self.rows_by_i)


#: Refusals for hostile sizes, checked before any work: expressions on a
#: space past P^MAX_AMBIENT_DIM do not parse, no grid (a render, a profile
#: sweep, a decomposition window) holds more than MAX_CELLS cells
#: (``_check_grid``, which ``_cells`` runs first), and
#: ``bounds.tensor_homogeneous`` expands no product whose smaller factors,
#: summed over the pairs of labels, have dimension past MAX_TENSOR_DIM (an
#: expansion enumerates the weights of the smaller factor; the dearest
#: product at the limit, ``S[99999,0] on P2`` squared, takes 1.3-1.9 s with
#: start-up and peaks at 160 MiB, on CPython 3.11.7 on a 2-CPU shared host).
#: A label's Weyl product past ``partitions.MAX_WEYL_BITS`` is refused too.
#: A refusal writes a number past the interpreter's digit limit as its
#: digit count (``ratpoly._written``).
MAX_AMBIENT_DIM = 100
MAX_CELLS = 100_000
MAX_TENSOR_DIM = 100_000


def _check_grid(n: int, lo: int, hi: int):
    """Refuse display columns lo..hi of P^n when not ints, empty or past ``MAX_CELLS`` cells."""
    _ints((n, lo, hi))
    if hi < lo:
        raise ValueError(f"empty window {_written(lo)}..{_written(hi)}")
    size = (n + 1) * (hi - lo + 1)
    if size > MAX_CELLS:
        raise ValueError(f"display columns {_written(lo)}..{_written(hi)} of P{n} hold "
                         f"{_written(size)} cells, past the limit of {MAX_CELLS}")


def _cells(t: CohomologyTable, lo: int, hi: int):
    """Rows 0..n of ``t`` over display columns lo..hi, as a list of lists."""
    _check_grid(t.n, lo, hi)
    return [t._row(i, lo, hi) for i in range(t.n + 1)]


def _printed_rows(t: CohomologyTable, lo: int, hi: int):
    """Rows n..0 of ``t`` over display columns lo..hi, top first, for the writers.

    Both file formats hold integers only, so the first fractional entry from
    the top (a sum with rational multiplicities has them) is refused.  So is,
    before any cell is computed, a generator grid whose entries may pass the
    interpreter's limit on the digits of an integer written as text
    (``ratpoly._check_digits``).  The grid's twists d run
    over a = lo - n..hi, so a piece (p, q, roots) puts at most
    |p| / q * prod max(hi - r, r - a) in a cell, and a cell sums at most
    every piece; the bound is taken in bits, with the largest |p|, the least
    q and each root position's factor at its largest over the pieces.  The
    grid's own refusals (``_check_grid``) come first.
    """
    _check_grid(t.n, lo, hi)
    if t._pieces:
        ps, qs, seqs = zip(*t._pieces)
        # |p| / q < 2**(bits of |p| - bits of q + 1); 0.30103 > log10(2), so
        # a value below 2**bits has at most bits * 30103 // 100000 + 1 digits
        bits = len(ps).bit_length() + max(map(abs, ps)).bit_length() - min(qs).bit_length() + 1
        a = lo - t.n
        # zip(*seqs) gives each root position its roots, one per piece
        bits += sum(max(hi - min(r), max(r) - a).bit_length() for r in zip(*seqs))
        _check_digits(bits * 30103 // 100000 + 1,
                      f"an entry in display columns {lo}..{hi} of P{t.n} may have up to")
    rows = _cells(t, lo, hi)[::-1]
    for i, row in zip(range(t.n, -1, -1), rows):
        if Fraction in map(type, row):
            c, v = next((c, v) for c, v in enumerate(row, lo) if type(v) is Fraction)
            raise ValueError(f"non-integral entry {v} at (i={i}, col={c})")
    return rows


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


def _roots_profile(n, seqs):
    """The regularity profile of a sum of natural pieces with root sequences ``seqs``.

    With v_j = r_j + n - j for a piece's increasing roots r_0 <= ... <= r_(n-1),
    reg(k) is the largest v_j with j <= n - 1 - k and coreg(k) one less than the
    smallest v_j with j >= k, over every piece; no pieces give -inf and inf.
    Proof sketch: positive constants make a sum's nonzero cells its pieces'.
    Twist d of a piece sits in row #{r > d}, above row k when d < r_(n-1-k),
    and its column d + #{r > d} rises with d between roots, so it peaks at a
    twist r_j - 1, j <= n - 1 - k, in column v_j - 1.  If r_j - 1 is itself
    a root, or r_j repeats one, that earlier root's v is at least as large and
    in the same prefix.  coreg is symmetric, at the twists r_j + 1, and is
    computed on its own so that the duality identity stays a check.
    """
    # the extremes over the pieces and over j commute: take each j's first
    top, bottom = [NEG_INFINITY] * n, [POS_INFINITY] * n
    for j, roots_j in enumerate(zip(*seqs)):
        top[j] = max(roots_j) + n - j
        bottom[j] = min(roots_j) + n - j - 1
    return RegularityProfile(tuple(accumulate(top, max))[::-1],
                             tuple(accumulate(reversed(bottom), min))[::-1],
                             (False,) * n, (False,) * n)


def _record_json(v):
    """The JSON of a record (a ``NamedTuple``): the ``to_json`` of the index layer's records.

    A record is its fields in order, by name; a tuple is a list, a record
    within a record follows this rule, an infinite index is "-inf" or "inf",
    and an int, a bool or a string is as it is.
    """
    if hasattr(v, "_fields"):
        return dict(zip(v._fields, map(_record_json, v)))
    if isinstance(v, tuple):
        return list(map(_record_json, v))
    if v == NEG_INFINITY:
        return "-inf"
    if v == POS_INFINITY:
        return "inf"
    return v


class RegularityProfile(NamedTuple):
    """Index vectors for k = 0..n-1, with per-entry window flags."""

    reg: tuple
    coreg: tuple
    reg_window_limited: tuple
    coreg_window_limited: tuple

    to_json = _record_json


def regularity_profile(t: CohomologyTable) -> RegularityProfile:
    """The regularity profile: off the pieces' roots, or one sweep of the window."""
    if t.window is None:
        return _roots_profile(t.n, {roots for _, _, roots in t._pieces})
    lo, hi = t.window
    return _grid_profile(_cells(t, lo, hi), lo, hi)


# --- classification ------------------------------------------------------


def is_natural(t: CohomologyTable) -> bool:
    """True when no twist of ``t`` has two nonzero cohomology groups.

    A generator table compares the rows #{r > d} of its pieces' distinct
    root sequences at each root u and at u + 1: rows change only at roots,
    so these twists cover every case, whatever the size of the labels.  A
    windowed table consults the cells of its window, the only ones it has.
    """
    if t.window is not None:
        lo, hi = t.window
        # cell (i, c) holds twist c - i; two nonzero cells of one twist clash
        twists = [c - i for i, row in enumerate(_cells(t, lo, hi))
                  for c, v in enumerate(row, lo) if v]
        return len(twists) == len(set(twists))
    seqs = {roots for _, _, roots in t._pieces}
    for d in {u + s for roots in seqs for u in roots for s in (0, 1)}:
        if len({len(r) - bisect_right(r, d) for r in seqs if d not in r}) > 1:
            return False
    return True


def is_supernatural(t: CohomologyTable) -> bool:
    """Natural cohomology plus a twist polynomial with n distinct integer roots.

    A generator table is supernatural exactly when all its pieces share one
    sequence of n distinct roots, since with positive constants a natural
    table's polynomial vanishes at an integer only where every piece does.
    A windowed table raises ``UndecidableError``: a finite window determines
    neither naturality beyond it nor the twist polynomial.
    """
    if t.window is not None:
        raise UndecidableError("a finite window does not determine supernaturality")
    seqs = {roots for _, _, roots in t._pieces}
    return len(seqs) == 1 and len(set(seqs.pop())) == t.n


def beilinson_terms(t: CohomologyTable, e: int):
    """Multiplicities along display column e, as (row j, entry(j, e - j)) pairs.

    Rows run over max(0, e) <= j <= min(n, n + e); zero entries are omitted.
    """
    return [(j, v) for j in range(max(0, e), min(t.n, t.n + e) + 1) if (v := t.entry(j, e - j))]


# --- ASCII format ---------------------------------------------------------


def render_ascii(t: CohomologyTable, lo: int, hi: int) -> str:
    """Rows n..0 with ``i:`` prefixes, dots for zeros, then the column index line."""
    # the rows first: ``_printed_rows`` refuses an oversized window before any column
    cells = [[str(v) if v else "." for v in row] for row in _printed_rows(t, lo, hi)]
    index = list(map(str, range(lo, hi + 1)))
    widths = [max(map(len, col)) for col in zip(index, *cells)]
    label_w = len(f"{t.n}:")
    labels = [f"{i}:".rjust(label_w) for i in range(t.n, -1, -1)] + [" " * label_w]
    return "".join(f"{label} {' '.join(map(str.rjust, row, widths))}\n"
                   for label, row in zip(labels, cells + [index]))


def parse_ascii(text: str) -> LiteralTable:
    """Inverse of render_ascii up to whitespace width.

    Each row starts with its label ``i:``, and each cell is ``.`` (a zero) or
    ASCII digits, ``LiteralTable``'s cell rule, which refuses any other cell;
    the index numbers are read by the grammar's INT rule.  The last token of
    the index line may carry a single trailing period (tables copied from
    print sometimes end in one).
    """
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("table text needs at least one row and an index line")
    *row_lines, index_line = lines
    idx_tokens = index_line.split()
    if idx_tokens[-1].endswith("."):
        idx_tokens[-1] = idx_tokens[-1][:-1]
    cols = [_int(tok) for tok in idx_tokens]
    if any(b != a + 1 for a, b in zip(cols, cols[1:])):
        raise ValueError(f"index line is not consecutive: {reprlib.repr(cols)}")

    n = len(row_lines) - 1
    rows_by_i = [None] * (n + 1)
    for i, line in zip(range(n, -1, -1), row_lines):
        label, *cells = line.split()
        if label != f"{i}:":
            raise ValueError(f"row {i} must start with the label '{i}:': {reprlib.repr(line)}")
        rows_by_i[i] = [0 if c == "." else c for c in cells]
    return LiteralTable(n, cols[0], cols[-1], rows_by_i)


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
    rows = [[v if abs(v) <= INT64_MAX else str(v) for v in row]
            for row in _printed_rows(t, lo, hi)]
    return {"n": t.n, "window": [lo, hi], "rows": rows}


def literal_from_json(obj: dict) -> LiteralTable:
    """The literal window ``table_to_json`` writes, read strictly.

    Only the JSON shape is checked here: an object with "n", "window" (a
    list of two items) and "rows" (a list of lists); ``LiteralTable`` reads
    the values, and a big entry is written as a string of ASCII digits.
    """
    if not (isinstance(obj, dict) and obj.keys() >= {"n", "window", "rows"}):
        raise ValueError('a table is a JSON object with the keys "n", "window" and "rows", '
                         f"got {reprlib.repr(obj)}")
    window, rows = obj["window"], obj["rows"]
    if not (isinstance(window, list) and len(window) == 2 and isinstance(rows, list)
            and all(isinstance(row, list) for row in rows)):
        raise ValueError("window must be a JSON list of two items and rows must be a JSON list "
                         f"of lists, got {reprlib.repr(window)} and {reprlib.repr(rows)}")
    return LiteralTable(obj["n"], *window, reversed(rows))

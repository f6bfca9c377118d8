"""Seeded random inputs, expression strategies and entry-level oracles for the tests.

The scan oracles compute regularity indices, naturality, the twists where
every group vanishes and the Euler characteristic by scanning table entries
directly over a range the corpus certifies itself, independent of the closed
forms, root sequences and structural recursions under test; the subset-sum
oracle computes a pushforward entry by the full Kunneth sum, independent of
the one-row closed form; the strip oracle expands a tensor product by
Littlewood-Richardson tableaux, independent of the Brauer-Klimyk
straightening; the straightening oracle reads a Bott twist off the
dot-action straightening, independent of the root-sequence closed form;
the wedge oracle builds the paired wedge matrix from products signed by
sorting their indices, independent of the precomputed wedge table; the
cell oracles read a row, an ASCII render or a JSON window one ``entry`` at
a time and format it one cell at a time, independent of the row reads and
the whole-row writers.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from itertools import combinations

from hypothesis import strategies as st

from river_banks.bott import BottCohomology
from river_banks.kunneth import KunnethTable
from river_banks.partitions import GenPartition, schur_dim, straighten
from river_banks.tables import BottSumTable, LiteralTable, SumTable, WindowExceededError


def random_partition(rng, n, lo=0, hi=4):
    return GenPartition(sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True))


def random_bott_sum(rng, n=None, terms=None, lo=-3, hi=5):
    n = n or rng.randint(1, 4)
    terms = terms or rng.randint(1, 3)
    return BottSumTable(
        n, [(rng.randint(1, 4), random_partition(rng, n, lo, hi)) for _ in range(terms)]
    )


def random_kunneth(rng, n=None, lo=-5, hi=5):
    n = n or rng.randint(1, 4)
    return KunnethTable(tuple(rng.randint(lo, hi) for _ in range(n)))


def random_generator_table(rng):
    """A homogeneous sum or a pushforward, possibly twisted and dualized.

    Twists and duals return a table of the same backend, so the result is a
    ``BottSumTable`` or a ``KunnethTable``.
    """
    t = random_kunneth(rng) if rng.random() < 0.4 else random_bott_sum(rng)
    if rng.random() < 0.4:
        t = t.twist(rng.randint(-3, 3))
    if rng.random() < 0.4:
        t = t.dual()
    return t


def certified_range(t):
    """Display columns (lo, hi) outside which only the extreme rows of ``t`` are nonzero.

    A homogeneous label's twists vanish only at -parts[i] - n + i, a
    pushforward's only at -a_j - 1: below those roots a twist sits in row n,
    above them in row 0, and the columns of both stay inside the range.  A
    literal window is its own range, and a direct sum covers its summands'.
    """
    if isinstance(t, LiteralTable):
        return t.window
    if isinstance(t, SumTable):
        ranges = [certified_range(u) for _, u in t.terms]
        return min(lo for lo, _ in ranges), max(hi for _, hi in ranges)
    parts = t.a if isinstance(t, KunnethTable) else [p for _, lam in t.terms for p in lam.parts]
    if not parts:
        return (-t.n - 2, t.n + 2)
    return (-max(parts) - t.n - 2, -min(parts) + t.n + 2)


def visible_entries(t, d):
    """Rows 0..n of twist d, with None for a cell outside a literal window."""
    out = []
    for i in range(t.n + 1):
        try:
            out.append(t.entry(i, d))
        except WindowExceededError:
            out.append(None)
    return out


def scan_twists(t):
    """Every twist whose cells meet the certified range."""
    lo, hi = certified_range(t)
    return range(lo - t.n, hi + 1)


def scan_natural(t):
    """No twist of the certified range holds two nonzero groups."""
    return all(sum(1 for v in visible_entries(t, d) if v) <= 1 for d in scan_twists(t))


def scan_vanishing_twists(t):
    """The twists of the certified range whose every group vanishes."""
    return [d for d in scan_twists(t) if not any(visible_entries(t, d))]


def scan_euler(t, d):
    """The alternating sum of the groups of twist d of a generator table."""
    return sum((-1) ** i * v for i, v in enumerate(visible_entries(t, d)))


def bundle_exprs(n):
    """Well-formed expressions whose summands all live on P^n."""
    ints = st.integers(-3, 4)
    labels = st.lists(ints, min_size=n, max_size=n)
    leaves = st.one_of(
        labels.map(lambda p: f"S[{','.join(map(str, sorted(p, reverse=True)))}]"),
        ints.map(lambda t: f"O({t})"),
        labels.map(lambda a: f"push({','.join(map(str, a))})"),
    )

    def extend(inner):
        return st.one_of(
            inner.map(lambda e: f"dual({e})"),
            st.tuples(inner, ints).map(lambda p: f"twist({p[0]}, {p[1]})"),
            st.tuples(st.integers(1, 3), inner).map(lambda p: f"{p[0]}*({p[1]})"),
            st.lists(inner, min_size=2, max_size=3).map(" (+) ".join),
        )

    return st.recursive(leaves, extend, max_leaves=4).map(lambda e: f"{e} on P{n}")


def scan_reg(t, k):
    """Least antidiagonal above which rows j > k vanish, by direct entry scans."""
    lo, hi = certified_range(t)
    for m in range(hi, lo - 1, -1):
        if any(t.entry(j, m - j) for j in range(k + 1, t.n + 1)):
            return m + 1
    return None


def scan_coreg(t, k):
    lo, hi = certified_range(t)
    for m in range(lo, hi + 1):
        if any(t.entry(j, m - j) for j in range(0, t.n - k)):
            return m - 1
    return None


def reg_condition_holds(t, k, m):
    """The vanishing condition defining reg at antidiagonal m."""
    return not any(t.entry(j, m - j) for j in range(k + 1, t.n + 1))


def coreg_condition_holds(t, k, m):
    return not any(t.entry(j, m - j) for j in range(0, t.n - k))


def subset_sum_cohomology(a, i):
    """Row i of the multidegree-``a`` line bundle on a product of lines.

    Sums over the i-subsets of factors contributing their first cohomology
    while the rest contribute sections.
    """
    if i < 0:
        return 0
    total = 0
    for picked in combinations(range(len(a)), i):
        prod = 1
        for j, aj in enumerate(a):
            prod *= (-aj - 1 if aj <= -2 else 0) if j in picked else max(aj + 1, 0)
        total += prod
    return total


def bott_by_straightening(n, parts, d):
    """Twist d of the ``parts``-bundle on P^n by Bott's theorem as stated.

    The weight (parts, -d) is straightened by the dot action: a collision
    kills every group, otherwise the inversion count is the degree and the
    straightened label's Schur module over n + 1 dimensions the group.
    """
    hit = straighten(tuple(parts) + (-d,))
    return None if hit is None else BottCohomology(hit[0], schur_dim(hit[1], n + 1))


def lr_strips(lam, mu):
    """Littlewood-Richardson expansion by chains of horizontal strips.

    Both labels are shifted to classical partitions, one strip per part of
    mu is added under the row-wise ballot condition, shapes needing more
    than n rows are pruned, and the results are padded to length n and
    shifted back.
    """
    n = lam.n
    c1 = -min(lam.part(0), 0)
    c2 = -min(mu.part(0), 0)
    strips = [p + c2 for p in mu.parts if p + c2 > 0]
    counts = Counter()

    def grow(shape, prev_rows, vi):
        if vi == len(strips):
            counts[shape] += 1
            return
        for rows in _strip_placements(shape, strips[vi], prev_rows, n):
            new_shape = tuple(
                (shape[r] if r < len(shape) else 0) + rows[r] for r in range(len(rows))
            )
            while new_shape and new_shape[-1] == 0:
                new_shape = new_shape[:-1]
            grow(new_shape, rows, vi + 1)

    grow(tuple(p + c1 for p in lam.parts if p + c1 > 0), None, 0)
    back = c1 + c2
    return {GenPartition(q - back for q in shape + (0,) * (n - len(shape))): mult
            for shape, mult in counts.items()}


def _strip_placements(shape, size, prev_rows, maxrows):
    """Row counts for every admissible horizontal strip of ``size`` boxes.

    A placement assigns a_r boxes to row r (0-based) with the strip condition
    a_r <= shape[r-1] - shape[r] for r >= 1; when ``prev_rows`` is given
    (the row counts of the previous letter), the ballot condition requires
    the running total through row r to stay within the previous letter's
    total through row r - 1.
    """
    nrows = len(shape)
    top = min(nrows + 1, maxrows)
    prev_cum = None
    if prev_rows is not None:
        prev_cum = []
        s = 0
        for r in range(top):
            s += prev_rows[r] if r < len(prev_rows) else 0
            prev_cum.append(s)

    out = []

    def rec(r, remaining, cum, acc):
        if r == top:
            if remaining == 0:
                out.append(tuple(acc))
            return
        old_here = shape[r] if r < nrows else 0
        cap = remaining if r == 0 else min(remaining, shape[r - 1] - old_here)
        if prev_cum is not None:
            allowed = 0 if r == 0 else prev_cum[r - 1]
            cap = min(cap, allowed - cum)
        for a in range(0, max(cap, -1) + 1):
            acc.append(a)
            rec(r + 1, remaining - a, cum + a, acc)
            acc.pop()

    rec(0, size, 0, [])
    return out


def sort_with_sign(indices):
    """(sorted tuple, sign of the sorting permutation) by bubble sort; sign 0 on a repeat."""
    xs, sign = list(indices), 1
    for end in range(len(xs) - 1, 0, -1):
        for k in range(end):
            if xs[k] > xs[k + 1]:
                xs[k], xs[k + 1] = xs[k + 1], xs[k]
                sign = -sign
    return tuple(xs), (sign if len(set(xs)) == len(xs) else 0)


def wedge_matrix_by_sorting(eta1, eta2):
    """Matrix of w |-> (w ^ eta1, w ^ eta2) over the lexicographic bases of 2- and 4-forms.

    Reads each form through ``to_pairs`` and signs every product e_a e_b e_c e_d
    by sorting (a, b, c, d); rows are the 4-forms of the eta1 block, then of
    the eta2 block, columns the 2-forms.
    """
    basis2 = list(combinations(range(1, 6), 2))
    basis4 = list(combinations(range(1, 6), 4))
    rows = [[Fraction(0)] * len(basis2) for _ in range(2 * len(basis4))]
    for block, eta in enumerate((eta1, eta2)):
        for pair, coeff in eta.to_pairs():
            for col, w in enumerate(basis2):
                quad, sign = sort_with_sign(w + pair)
                if sign:
                    rows[block * len(basis4) + basis4.index(quad)][col] += sign * Fraction(coeff)
    return rows


def row_by_cells(t, i, lo, hi):
    """Row i of ``t`` over display columns lo..hi, one ``entry`` per column."""
    return [t.entry(i, c - i) for c in range(lo, hi + 1)]


def outcome(read, *args):
    """The (type, value) pairs of the row ``read(*args)`` returns, or the
    ``WindowExceededError`` it raises as ("window", i, d, lo, hi)."""
    try:
        return [(type(v), v) for v in read(*args)]
    except WindowExceededError as exc:
        return ("window", exc.i, exc.d, exc.lo, exc.hi)


@st.composite
def table_rows(draw, tables):
    """A table, one of its rows (often the extreme rows 0 and n) and a window lo..hi.

    A windowed table's row lies inside its window or runs past an end of
    it.  Other windows start left of, inside or right of the certified
    range, or near a pushforward's zero twists -a_j - 1, where the river
    crosses the rows, so they lie on either side of the river or straddle it.
    """
    t = draw(tables)
    i = draw(st.one_of(st.sampled_from((0, t.n)), st.integers(0, t.n)))
    if t.window is not None and t.window[0] <= t.window[1] and draw(st.booleans()):
        lo = draw(st.integers(*t.window))
        return t, i, lo, draw(st.integers(lo, t.window[1]))
    lo_range, hi_range = certified_range(t)
    anchors = {lo_range - 8, lo_range, (lo_range + hi_range) // 2, hi_range, hi_range + 1}
    if isinstance(t, KunnethTable):
        anchors |= {-aj - 1 for aj in t.a}
    lo = draw(st.sampled_from(sorted(anchors))) + draw(st.integers(-t.n - 3, t.n + 3))
    return t, i, lo, lo + draw(st.integers(0, 10))


def render_ascii_by_cells(t, lo, hi):
    """The ASCII render of ``t`` over lo..hi, read and formatted one cell at a time."""
    n = t.n
    cols = range(lo, hi + 1)
    cells = [[str(v) if v else "." for v in row_by_cells(t, i, lo, hi)]
             for i in range(n + 1)]
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


def json_by_cells(t, lo, hi):
    """The JSON window of ``t`` over lo..hi, read one cell at a time; entries past
    a signed 64-bit integer as decimal strings."""
    rows = [[v if v < 2**63 else str(v) for v in row_by_cells(t, i, lo, hi)]
            for i in range(t.n, -1, -1)]
    return {"n": t.n, "window": [lo, hi], "rows": rows}

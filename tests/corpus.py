"""Seeded random inputs, expression strategies and entry-level oracles for the tests.

The scan oracles compute regularity indices, naturality, the twists where
every group vanishes and the Euler characteristic by scanning table entries
directly over a range the corpus certifies itself, independent of the closed
forms, root sequences and structural recursions under test; the subset-sum
oracle computes a pushforward entry by the full Kunneth sum, independent of
the one-row closed form; the strip oracle expands a tensor product by
Littlewood-Richardson tableaux, independent of the Brauer-Klimyk
straightening; the product oracle reads the sharpness report off the whole
expanded product, independent of the PRV witnesses; the straightening
oracle reads a Bott twist off the dot-action straightening and the
hook-content formula, independent of the root-sequence closed form and its
Weyl product; the pattern oracle lists every weight of the Gelfand-Tsetlin
patterns, independent of the dominant weights spread over their
permutations; the wedge oracle builds the paired wedge matrix from products
signed by sorting their indices, independent of the precomputed wedge
table; the row oracle reads each cell off the subset-sum and straightening
oracles, the stored rows of a literal window and the weighted sum of a
direct sum's summands, never through a table's own rows, which ``entry``
reads too; the cell oracles read a row, an ASCII render or a JSON window
one ``entry`` at a time and format it one cell at a time, independent of
the row reads and the whole-row writers; the column oracle reads a grid's
regularity profile off each display column's top and bottom nonzero rows,
independent of the per-row banks; the fraction oracle runs the
greedy decomposition on a ``Fraction`` residual, independent of the integer
residual over one denominator, and the piece oracle sums a twist
polynomial one ``RatPoly`` per piece (``_from_roots``), independent of the
integer sum over one denominator.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import cache
from itertools import combinations, product, zip_longest

from hypothesis import strategies as st

from river_banks.boij_soderberg import (
    MAX_TERMS,
    Decomposition,
    NotDecomposableWithinScope,
    NotZeroRegularError,
    _partial,
    _pivot_label,
)
from river_banks.bott import BottCohomology
from river_banks.bounds import check_tensor_bounds, tensor_homogeneous
from river_banks.kunneth import KunnethTable
from river_banks.partitions import GenPartition, leq
from river_banks.ratpoly import RatPoly, _expand
from river_banks.tables import (
    NEG_INFINITY,
    POS_INFINITY,
    BottSumTable,
    LiteralTable,
    RegularityProfile,
    SumTable,
    UndecidableError,
    WindowExceededError,
    _cells,
    homogeneous_table,
    regularity_profile,
)


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


def grid_profile_by_columns(grid, lo, hi):
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


def straighten(weight):
    """Dot-action straightening of an integer weight of length k.

    Adds the staircase (k - 1, ..., 1, 0) and returns None when two entries
    collide; otherwise ``(inversions, nu)``, where nu is the strictly
    decreasing sort minus the staircase.  The code subtracts (0, 1, ...,
    k - 1) instead, which differs from the staircase by a constant and so
    sorts and collides alike.
    """
    beta = [w - i for i, w in enumerate(weight)]
    if len(set(beta)) < len(beta):
        return None
    srt = sorted(beta, reverse=True)
    # each entry, largest first, is inverted with the smaller ones still before it
    inv, rest = 0, beta[:]
    for b in srt:
        i = rest.index(b)
        inv += i
        del rest[i]
    return inv, tuple(b + i for i, b in enumerate(srt))


@cache
def pattern_weights_by_enumeration(row):
    """Multiplicities of every weight of the Gelfand-Tsetlin patterns with top ``row``.

    The next row interlaces it, row[i] >= sub[i] >= row[i + 1], and a
    pattern's weight lists the differences of successive row sums: every
    weight of every sub-row, kept across calls, gets the last difference
    appended.  No symmetry is used.
    """
    if len(row) == 1:
        return {row: 1}
    out, total = Counter(), sum(row)
    for sub in product(*(range(b, a + 1) for a, b in zip(row, row[1:]))):
        tail = (total - sum(sub),)
        for w, m in pattern_weights_by_enumeration(sub).items():
            out[w + tail] += m
    return dict(out)


def bott_by_straightening(n, parts, d):
    """Twist d of the ``parts``-bundle on P^n by Bott's theorem as stated.

    The weight (parts, -d) is straightened by the dot action: a collision
    kills every group, otherwise the inversion count is the degree and the
    straightened label's Schur module over n + 1 dimensions the group, its
    dimension by the hook-content formula.
    """
    hit = straighten(tuple(parts) + (-d,))
    return None if hit is None else BottCohomology(hit[0], hook_content_dim(hit[1], n + 1))


def hook_content_dim(parts, size):
    """Dimension of the Schur module of a label of length ``size``, by hook contents.

    The label ``parts``, largest first, is shifted to a classical shape, its
    least part 0, which twists the module by a power of the determinant and
    keeps its dimension; the value is the product over the shape's boxes of
    (size + content) / hook, with no root sequence and no Weyl product.
    """
    rows = [p - parts[-1] for p in parts if p > parts[-1]]
    cols = [sum(1 for p in rows if p > j) for j in range(rows[0])] if rows else []
    val = 1
    den = 1
    for i, row_len in enumerate(rows):
        for j in range(row_len):
            val *= size + j - i
            den *= (row_len - j) + (cols[j] - i) - 1
    assert val % den == 0
    return val // den


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


def sharpness_by_product(lam, mu):
    """The reg side of ``check_tensor_bounds`` on two bundles and their expanded product."""
    tl, tm = homogeneous_table(lam), homogeneous_table(mu)
    return check_tensor_bounds(tl, tm, tensor_homogeneous(tl, tm))[0]


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

    Reads each form's coefficients against its own list of the 2-forms, in
    the same lexicographic order, and signs every product e_a e_b e_c e_d
    by sorting (a, b, c, d); rows are the 4-forms of the eta1 block, then of
    the eta2 block, columns the 2-forms.
    """
    basis2 = list(combinations(range(1, 6), 2))
    basis4 = list(combinations(range(1, 6), 4))
    rows = [[Fraction(0)] * len(basis2) for _ in range(2 * len(basis4))]
    for block, eta in enumerate((eta1, eta2)):
        for pair, coeff in zip(basis2, eta.coeffs):
            for col, w in enumerate(basis2):
                quad, sign = sort_with_sign(w + pair)
                if sign:
                    rows[block * len(basis4) + basis4.index(quad)][col] += sign * Fraction(coeff)
    return rows


def cell_by_oracles(t, i, d):
    """Cell (i, d) of ``t``, 0 <= i <= n, by the independent oracles.

    A pushforward's cell is the subset sum of its twisted multidegree, a
    homogeneous sum's the straightened Bott twists of its labels, a literal
    window's its stored value (``WindowExceededError`` past the window) and
    a direct sum's the multiplicity-weighted sum of its summands' cells; an
    integral value is an int.
    """
    if isinstance(t, KunnethTable):
        return subset_sum_cohomology([aj + d for aj in t.a], i)
    if isinstance(t, LiteralTable):
        lo, hi = t.window
        if not lo <= i + d <= hi:
            raise WindowExceededError(i, d, lo, hi)
        return t.rows_by_i[i][i + d - lo]
    if isinstance(t, BottSumTable):
        hits = [(m, bott_by_straightening(t.n, lam.parts, d)) for m, lam in t.terms]
        total = Fraction(sum(m * hit.dim for m, hit in hits
                                if hit is not None and hit.degree == i))
    else:
        total = Fraction(sum(m * cell_by_oracles(u, i, d) for m, u in t.terms))
    return total.numerator if total.denominator == 1 else total


def row_by_oracles(t, i, lo, hi):
    """Row i of ``t`` over display columns lo..hi, one ``cell_by_oracles`` per column."""
    return [cell_by_oracles(t, i, c - i) for c in range(lo, hi + 1)]


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


def _from_roots(roots, lead=1) -> RatPoly:
    """``lead * prod(x - r for r in roots)``: the integer expansion ``_expand``, scaled."""
    return RatPoly(c * lead for c in _expand(roots))


def hilbert_by_pieces(t):
    """The twist polynomial of a generator table, summed one ``RatPoly`` per piece."""
    total = []
    for p, q, roots in t._pieces:
        total = [a + b for a, b in zip_longest(
            total, _from_roots(roots, Fraction(p, q)).coeffs, fillvalue=0)]
    return RatPoly(total)


def decompose_by_fractions(t):
    """The greedy chain decomposition with a ``Fraction`` residual, cell by cell.

    The loop as it stood before the residual became an integer grid over one
    denominator: each cell is a ``Fraction``, each ratio a division and each
    step a ``Fraction`` product per pivot cell.
    """
    n = t.n
    if n < 1:
        raise ValueError("the decomposition needs ambient dimension at least 1")
    prof = regularity_profile(t)
    reg0, coreg0 = prof.reg[0], prof.coreg[0]
    if reg0 == NEG_INFINITY and coreg0 == POS_INFINITY:
        return Decomposition((), True, True)
    if reg0 > 0:
        if prof.reg_window_limited[0]:
            # a nonzero cell of rows 1..n just left of reg(0), inside the window
            lo, hi = t.window
            if not (lo <= reg0 - 1 <= hi
                    and any(t.entry(j, reg0 - 1 - j) for j in range(1, n + 1))):
                raise UndecidableError(
                    "no visible cell certifies a positive regularity index at k=0")
        raise NotZeroRegularError(f"regularity index at k=0 is {reg0} > 0")

    maxpart = max(-coreg0 - 1, 0)
    lo, hi = -maxpart - n - 2, maxpart + n + 2
    grid = [[Fraction(v) for v in row] for row in _cells(t, lo, hi)]

    terms = []
    prev = None
    while any(any(row) for row in grid):
        if len(terms) == MAX_TERMS:
            raise NotDecomposableWithinScope(
                f"residual nonzero after {MAX_TERMS} terms", _partial(terms))
        lam = _pivot_label(grid, lo, hi, terms)
        if prev is not None and not leq(prev, lam):
            raise NotDecomposableWithinScope(
                f"chain order violated: {prev} vs {lam}", _partial(terms))
        pivot = _cells(homogeneous_table(lam), lo, hi)
        ratios = [grid[i][x] / pv
                  for i, prow in enumerate(pivot)
                  for x, pv in enumerate(prow) if pv]
        coeff = min(ratios)
        if coeff <= 0:
            raise NotDecomposableWithinScope(
                f"greedy coefficient for {lam} is zero", _partial(terms))
        for i in range(n + 1):
            for x, pv in enumerate(pivot[i]):
                if pv:
                    grid[i][x] -= coeff * pv
        terms.append((coeff, lam))
        prev = lam

    if t.window is None:
        if BottSumTable(n, terms).hilbert_polynomial() != t.hilbert_polynomial():
            raise NotDecomposableWithinScope(
                "twist polynomial of the recomposition differs from the input",
                _partial(terms))
    return Decomposition(tuple(terms), True, True)


def decomposition_outcome(run, t):
    """What ``run(t)`` gives, comparable across implementations.

    A decomposition as its terms, with each coefficient's type, and its
    flags; a ``NotDecomposableWithinScope`` as its reason and partial
    decomposition, the same way; any other error as its type and message.
    """
    def terms(dec):
        return ([(type(c), c, lam) for c, lam in dec.terms],
                dec.residual_zero, dec.chain_certified)

    try:
        return ("ok", terms(run(t)))
    except NotDecomposableWithinScope as exc:
        return ("partial", exc.reason, terms(exc.partial))
    except (ValueError, LookupError, UndecidableError) as exc:
        return (type(exc), str(exc))

"""The four benchmark workloads: seeded input streams, the timed op, the oracle.

A workload cycles through a fixed ladder of input sizes (``cycle``).  Its
stream draws one item per ladder position from a seeded generator and never
repeats an item, so a memo cache can only hit on work that two distinct
items genuinely share.  The first ``len(warmup)`` items of the stream are the
warm-up part; the timed ops read from the rest.

``run(item)`` is the only code inside the timed region.  ``check(item,
result)`` runs afterwards and raises ``Mismatch`` when the result disagrees
with an independent reference (see ``reference.py``) or with the outputs
recorded in ``cli_expected.json``.
"""

from __future__ import annotations

import hashlib
import io
import itertools
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout

import reference

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


class Mismatch(AssertionError):
    """An op's output disagrees with its oracle."""


def expect(ok, message):
    if not ok:
        raise Mismatch(message)


def item_key(item) -> str:
    return json.dumps(item, sort_keys=True, separators=(",", ":"))


def stream_digest(items) -> str:
    """sha256 over the canonical JSON of each item, one per line."""
    digest = hashlib.sha256()
    for item in items:
        digest.update(item_key(item).encode() + b"\n")
    return digest.hexdigest()


def read_grid(text, n):
    """Cells of an ascii table render, read without the package's parser.

    Returns (columns, {(row, column): value}); rows are listed n..0, each
    prefixed ``i:``, dots are zeros, the last line holds the column numbers.
    """
    lines = text.splitlines()
    expect(len(lines) == n + 2, f"render has {len(lines)} lines, expected {n + 2}")
    cols = [int(tok) for tok in lines[-1].split()]
    grid = {}
    for i, line in zip(range(n, -1, -1), lines[:-1]):
        label, *cells = line.split()
        expect(label == f"{i}:", f"row label {label!r}, expected '{i}:'")
        expect(len(cells) == len(cols), f"row {i} has {len(cells)} cells")
        for c, tok in zip(cols, cells):
            grid[i, c] = 0 if tok == "." else int(tok)
    return cols, grid


def literal_profile(n, lo, hi, entry):
    """Index profile of a literal window, scanned from reference entries.

    Mirrors the documented literal-table semantics: reg(k) is one past the
    last column with a nonzero cell in rows k+1..n, coreg(k) one before the
    first column with a nonzero cell in rows 0..n-k-1, each flagged when it
    leaves the window (or when no such column exists).
    """
    def dirty(c, rows):
        return any(entry(j, c - j) for j in rows)

    regs, rflags, coregs, cflags = [], [], [], []
    for k in range(n):
        cols = [c for c in range(lo, hi + 1) if dirty(c, range(k + 1, n + 1))]
        m = max(cols) + 1 if cols else lo
        regs.append(m)
        rflags.append(not cols or m > hi)
        cols = [c for c in range(lo, hi + 1) if dirty(c, range(0, n - k))]
        m = min(cols) - 1 if cols else hi
        coregs.append(m)
        cflags.append(not cols or m < lo)
    return tuple(regs), tuple(coregs), tuple(rflags), tuple(cflags)


class Workload:
    """Base: subclasses set ``name``, ``cycle``, ``warmup`` and the three hooks."""

    name = ""
    cycle = ()
    warmup = ()

    def draw(self, rng, spec):
        raise NotImplementedError

    def ladder(self, item):
        """Names of the ladder rungs this item's latency counts toward."""
        raise NotImplementedError

    def run(self, item):
        raise NotImplementedError

    def check(self, item, result):
        raise NotImplementedError

    def items(self, seed):
        """Deterministic stream: warm-up items, then the cycle, forever, all distinct.

        Ends early only if a ladder rung runs out of distinct items.
        """
        rng = random.Random(f"{self.name}:{seed}")
        seen = set()
        specs = itertools.chain(self.warmup, itertools.cycle(self.cycle))
        for spec in specs:
            for _ in range(10_000):
                item = self.draw(rng, spec)
                key = item_key(item)
                if key not in seen:
                    break
            else:
                return
            seen.add(key)
            yield item


class Pushforward(Workload):
    """Pushforwards of line bundles from (P^1)^m: Kunneth entries, no Bott calls."""

    name = "pushforward"
    # m = 3..11, with m = 3 and 6 twice and m = 7 and 11 three times: p50
    # falls in the middle of the m = 7 ops and p90 in the middle of the
    # m = 11 ops, never on a boundary between rungs.  m = 12 (about 1.3 s an
    # op) would not fit 100 ops into a 20 s run.
    cycle = (3, 4, 5, 6, 7, 8, 9, 10, 11, 3, 6, 7, 11, 7, 11)
    warmup = (3, 4, 5, 6)

    def draw(self, rng, m):
        # Both extremes always occur: the scans cover columns in proportion to
        # max(a) - min(a) + 3m, so every item of a rung costs about the same.
        a = [-6, 6] + [rng.randint(-6, 6) for _ in range(m - 2)]
        rng.shuffle(a)
        form = rng.choice(("push", "dual", "twist"))
        s = rng.choice((-3, -2, -1, 1, 2, 3)) if form == "twist" else 0
        inner = f"push({','.join(map(str, a))})"
        expr = {"push": inner, "dual": f"dual({inner})",
                "twist": f"twist({inner},{s})"}[form]
        return {"m": m, "a": a, "form": form, "s": s, "expr": f"{expr} on P{m}"}

    def ladder(self, item):
        return (f"ladder.pushforward.m{item['m']:02d}",)

    def run(self, item):
        from river_banks.expr import table_from_expr
        from river_banks.tables import is_natural, regularity_profile, render_ascii

        table = table_from_expr(item["expr"])
        prof = regularity_profile(table)
        # Two columns past every index on both sides, and n more on the
        # right so that every twist between the outermost indices shows all
        # of its rows.
        indices = prof.reg + prof.coreg
        lo, hi = min(indices) - 2, max(indices) + 2 + table.n
        text = render_ascii(table, lo, hi)
        return {"table": table, "profile": prof, "window": (lo, hi), "text": text,
                "natural": is_natural(table)}

    @staticmethod
    def reference(item):
        a, n, s = item["a"], item["m"], item["s"]
        if item["form"] == "dual":
            sign = (-1) ** n
            return (lambda i, d: reference.pushforward_entry(a, n - i, -d - n - 1),
                    lambda d: sign * reference.pushforward_chi(a, -d - n - 1))
        return (lambda i, d: reference.pushforward_entry(a, i, d + s),
                lambda d: reference.pushforward_chi(a, d + s))

    def check(self, item, result):
        n = item["m"]
        lo, hi = result["window"]
        entry, chi = self.reference(item)
        cols, grid = read_grid(result["text"], n)
        expect(cols == list(range(lo, hi + 1)), f"columns {cols[:3]}.. not {lo}..{hi}")
        for (i, c), v in grid.items():
            expect(v == entry(i, c - i), f"cell ({i}, {c}) is {v}, expected {entry(i, c - i)}")
        hilbert = result["table"].hilbert_polynomial()
        for d in range(lo, hi - n + 1):
            euler = sum((-1) ** i * grid[i, d + i] for i in range(n + 1))
            expect(euler == chi(d) == hilbert(d),
                   f"twist {d}: alternating sum {euler}, chi {chi(d)}, "
                   f"hilbert_polynomial {hilbert(d)}")

        def clean(rows, columns):
            return not any(grid[j, c] for j in rows for c in columns)

        prof = result["profile"]
        for k in range(n):
            r, q = prof.reg[k], prof.coreg[k]
            above, below = range(k + 1, n + 1), range(0, n - k)
            expect(clean(above, range(r, hi + 1)), f"reg({k}) = {r} condition fails")
            expect(not clean(above, [r - 1]), f"reg({k}) = {r} also holds at {r - 1}")
            expect(clean(below, range(lo, q + 1)), f"coreg({k}) = {q} condition fails")
            expect(not clean(below, [q + 1]), f"coreg({k}) = {q} also holds at {q + 1}")
        expect(result["natural"] is True, "a pushforward table reported not natural")


class Tensor(Workload):
    """Tensor products of homogeneous bundles: Littlewood-Richardson and Bott."""

    name = "tensor"
    # Four n = 4 ops around p50 and three n = 5 ops around p90.
    cycle = (2, 3, 4, 5, 4, 3, 4, 5, 4, 5)
    warmup = (2, 3)
    window = 20
    # Per rung, dim(lambda) * dim(mu) stays in a band near the 30-45 %
    # quantiles of random pairs with parts in 0..8.  The product tracks the
    # op's cost (log correlation 0.96 on cold caches), so each rung costs
    # about the same on every seed and run-to-run spread stays low.
    dim_bands = {2: (8, 12), 3: (250, 500), 4: (25_000, 50_000), 5: (5_000_000, 10_000_000)}

    def draw(self, rng, n):
        lo, hi = self.dim_bands[n]
        while True:
            lam, mu = ([sorted((rng.randint(0, 8) for _ in range(n)), reverse=True)
                        for _ in range(2)])
            if lo <= reference.weyl_dim(lam) * reference.weyl_dim(mu) <= hi:
                return {"n": n, "lam": lam, "mu": mu}

    def ladder(self, item):
        return (f"ladder.tensor.n{item['n']}",)

    def run(self, item):
        from river_banks.bounds import check_sharpness, lr_witness, tensor_homogeneous
        from river_banks.partitions import GenPartition
        from river_banks.tables import homogeneous_table, regularity_profile, render_ascii

        lam, mu = GenPartition(item["lam"]), GenPartition(item["mu"])
        product = tensor_homogeneous(homogeneous_table(lam), homogeneous_table(mu))
        sharpness = check_sharpness(lam, mu)
        witnesses = [lr_witness(lam, mu, p) for p in range(item["n"])]
        prof = regularity_profile(product)
        lo = min(prof.coreg) - 1
        text = render_ascii(product, lo, lo + self.window - 1)
        return {"terms": [(m, nu.parts) for m, nu in product.terms],
                "sharpness": sharpness, "witnesses": [w.parts for w in witnesses],
                "window": (lo, lo + self.window - 1), "text": text}

    def check(self, item, result):
        n, lam, mu = item["n"], item["lam"], item["mu"]
        total = sum(m * reference.weyl_dim(nu) for m, nu in result["terms"])
        expected = reference.weyl_dim(lam) * reference.weyl_dim(mu)
        expect(total == expected, f"Schur dimensions sum to {total}, expected {expected}")
        expect(result["sharpness"].all_equal, "sharpness report is not all-equal")
        labels = {tuple(nu) for _, nu in result["terms"]}
        for p, w in enumerate(result["witnesses"]):
            bound = max(lam[n - 1 - k] + mu[n - 1 - (p - k)] for k in range(p + 1))
            expect(tuple(w) in labels, f"witness {w} at p={p} is not an expansion term")
            expect(w[n - 1 - p] <= bound, f"witness {w} at p={p} exceeds {bound}")
        cols, _ = read_grid(result["text"], n)
        lo, hi = result["window"]
        expect(cols == list(range(lo, hi + 1)), "product render has the wrong columns")


class Chains(Workload):
    """Planted zero-regular chains: decomposition, both file formats, Bott tables."""

    name = "chains"
    # (n, render width): four cheaper ops, the block of four (4, 50) ops that
    # holds p50, two dearer ops, and the two (7, 200) ops that hold p90, so
    # neither percentile sits on a boundary between rungs.
    # Every n in 2..7 and every width in 20, 50, 100, 200 occurs.
    cycle = ((2, 20), (3, 20), (3, 50), (2, 100), (4, 50), (4, 50),
             (4, 50), (4, 50), (5, 100), (6, 100), (7, 200), (7, 200))
    warmup = ((2, 20), (3, 20), (4, 20))

    def draw(self, rng, spec):
        n, width = spec
        lam = sorted((rng.randint(0, 2) for _ in range(n)), reverse=True)
        chain = [list(lam)]
        for _ in range(n):
            bump = sorted((rng.randint(0, 1) for _ in range(n)), reverse=True)
            bump[0] = 1
            lam = [p + b for p, b in zip(lam, bump)]
            chain.append(list(lam))
        return {"n": n, "width": width,
                "chain": [[rng.randint(1, 5), parts] for parts in chain]}

    def ladder(self, item):
        return (f"ladder.chains.n{item['n']}", f"ladder.render.w{item['width']:03d}")

    def run(self, item):
        from river_banks.boij_soderberg import decompose
        from river_banks.bounds import unobstructed_criterion
        from river_banks.partitions import GenPartition
        from river_banks.tables import (
            BottSumTable, is_natural, literal_from_json, parse_ascii,
            regularity_profile, render_ascii, table_to_json,
        )

        n = item["n"]
        table = BottSumTable(n, [(c, GenPartition(p)) for c, p in item["chain"]])
        dec = decompose(table)
        prof = regularity_profile(table)
        lo = min(prof.coreg) - 2
        hi = lo + item["width"] - 1
        ascii_table = parse_ascii(render_ascii(table, lo, hi))
        json_table = literal_from_json(table_to_json(table.dual().twist(1), lo, hi))
        return {"decomposition": dec, "profile": prof, "window": (lo, hi),
                "ascii": ascii_table, "json": json_table,
                "ascii_profile": regularity_profile(ascii_table),
                "json_profile": regularity_profile(json_table),
                "natural": is_natural(table), "unobstructed": unobstructed_criterion(table)}

    def check(self, item, result):
        n, chain = item["n"], item["chain"]
        lo, hi = result["window"]
        dec = result["decomposition"]
        got = [[c, list(lam.parts)] for c, lam in dec.terms]
        expect(got == chain and dec.residual_zero, f"decomposition {got} != planted {chain}")

        prof = result["profile"]
        for k in range(n):
            expect(prof.reg[k] == max(-p[n - 1 - k] for _, p in chain), f"reg({k})")
            expect(prof.coreg[k] == min(-p[k] - 1 for _, p in chain), f"coreg({k})")

        # Twists shown in the window, for the table and for dual(t).twist(1).
        shown = range(lo - n, hi + 1)
        cells = reference.bott_sum_table(
            n, chain, set(shown) | {-d - n - 2 for d in shown})

        def plain(i, d):
            return cells.get((i, d), 0)

        def dual_twist(i, d):
            return plain(n - i, -d - n - 2)

        for fmt, entry in (("ascii", plain), ("json", dual_twist)):
            lit = result[fmt]
            expect(lit.window == (lo, hi), f"{fmt} window {lit.window}")
            for i in range(n + 1):
                for c in range(lo, hi + 1):
                    expect(lit.entry(i, c - i) == entry(i, c - i),
                           f"{fmt} round trip differs at ({i}, {c})")
            p = result[f"{fmt}_profile"]
            got = (p.reg, p.coreg, p.reg_window_limited, p.coreg_window_limited)
            expect(got == literal_profile(n, lo, hi, entry), f"{fmt} literal profile {got}")


CLI_CASES = {
    "table-ascii": (["table", "push(4,1,-1) on P3", "--window", "-4:3"], 0),
    "table-json": (["table", "S[2,1,0] on P3", "--window", "-8:2", "--format", "json"], 0),
    "indices-expr": (["indices", "S[1,0] on P2"], 0),
    "indices-ascii": (["indices", "src/river_banks/golden/push_4_1_m1.txt"], 0),
    "indices-json": (["indices", "bench/data/table.json"], 0),
    "tensor": (["tensor", "S[1,0] on P2", "S[1,0] on P2"], 0),
    "check-bounds": (["check-bounds", "push(4,1,-1) on P3", "push(3,-1,-2) on P3",
                      "src/river_banks/golden/tensor_f_g.txt"], 0),
    "check-sharpness": (["check-sharpness", "2,1,0", "1,1,0", "--n", "3"], 0),
    "decompose": (["decompose", "S[1,0] (+) O(0) on P2"], 0),
    "unobstructed": (["unobstructed", "O(0) on P3"], 0),
    # Three seeds so that three of the sixteen calls per cycle are this
    # slowest subcommand and p90 lands in their middle, not on their edge.
    "wedge-kernel-7": (["wedge-kernel", "--trials", "200", "--seed", "7"], 0),
    "wedge-kernel-11": (["wedge-kernel", "--trials", "200", "--seed", "11"], 0),
    "wedge-kernel-13": (["wedge-kernel", "--trials", "200", "--seed", "13"], 0),
    "golden-verify": (["golden", "verify"], 0),
    "malformed-expr": (["indices", "S[1,,0] on P2"], 2),
    # The documented contract is exit 2; the program crashes with exit 1.
    "wedge-kernel-div0": (["wedge-kernel", "--eta1", '[[[1,2],"1/0"]]', "--eta2", "[]"], 2),
}
CLI_WARMUP = {"warmup-indices": (["indices", "O(1) on P1"], 0)}
KNOWN_DEFECTS = {"wedge-kernel-div0"}
CLI_EXPECTED = os.path.join(BENCH_DIR, "cli_expected.json")


def cli_case(case):
    return CLI_CASES.get(case) or CLI_WARMUP[case]


class Cli(Workload):
    """``python -m river_banks`` subprocesses over every subcommand.

    With ``in_process`` the same argument vectors go to ``cli.main`` inside
    the benchmark process instead, which the traced run uses so that the
    layers below the command line can be attributed.
    """

    name = "cli"
    cycle = tuple(CLI_CASES)
    warmup = tuple(CLI_WARMUP)

    def __init__(self, root, in_process=False):
        self.root = root
        self.in_process = in_process
        with open(CLI_EXPECTED) as fh:
            self.expected = json.load(fh)

    def items(self, seed):
        """Warm-up call, then the fixed rotation reshuffled every cycle by the seed.

        The calls repeat by design: each one is a fresh interpreter, so no
        memo cache survives from one call to the next.
        """
        rng = random.Random(f"{self.name}:{seed}")
        for case in self.warmup:
            yield {"case": case}
        while True:
            order = list(self.cycle)
            rng.shuffle(order)
            for case in order:
                yield {"case": case}

    def ladder(self, item):
        return ()

    def run(self, item):
        argv = cli_case(item["case"])[0]
        if self.in_process:
            return run_cli_in_process(argv)
        return run_cli_subprocess(self.root, argv)

    def check(self, item, result):
        case = item["case"]
        want = self.expected[case]
        code, out = result
        expect(code == cli_case(case)[1], f"{case}: exit {code}, expected {cli_case(case)[1]}")
        digest = hashlib.sha256(out).hexdigest()
        expect(digest == want["stdout_sha256"], f"{case}: stdout differs from the recording")


def package_env(root):
    """The environment with ``PYTHONPATH`` pointing at the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


def run_cli_subprocess(root, argv):
    proc = subprocess.run([sys.executable, "-m", "river_banks", *argv], cwd=root,
                          env=package_env(root), capture_output=True, timeout=60)
    return proc.returncode, proc.stdout


def run_cli_in_process(argv):
    from river_banks import cli

    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue().encode()


def make(name, root, in_process=False):
    if name == "cli":
        return Cli(root, in_process)
    return {"pushforward": Pushforward, "tensor": Tensor, "chains": Chains}[name]()


NAMES = ("pushforward", "tensor", "chains", "cli")

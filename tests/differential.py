"""Differential run: this checkout's command line against a git ref's.

    python tests/differential.py <git-ref> [--seed S]

The ref's tree is exported with ``git archive`` into a temporary directory:
no network, and nothing in the repository changes, even when the run is
interrupted.  Both trees then run the same argument vectors, each call in a
fresh ``python -m river_banks`` interpreter with that tree's ``src`` on
``PYTHONPATH``, the tree as working directory, an address-space cap of
``MEMORY_CAP`` bytes and a 120 s timeout, two calls at a time.  The vectors
are every ``bench/workloads.CLI_CASES`` call, the hostile calls that tier-1
runs under the same cap (``hostile_calls``) and 30 random calls per family,
drawn from the seed (default 0):
well-formed and broken expressions for ``table``, ``indices``, ``tensor``,
``check-bounds``, ``decompose`` and ``unobstructed``, labels for
``check-sharpness``, seeds and forms for ``wedge-kernel``, and literal
JSON windows, written to the temporary directory, for ``indices``,
``decompose`` and ``unobstructed``.

Prints every vector whose exit code, stdout or stderr differ, with the
differing stdout and stderr lines (a traceback's file paths and line
numbers aside), then the vector count, and exits 1 when any vector
differs.  It needs the repository's history, so the run itself is no
tier-1 test; tier-1 imports ``hostile_calls`` and ``call`` from here.
Standard library only.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import random
import re
import resource
import subprocess
import sys
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NINES = "9" * 4300
# 100 parts whose differences are about 10^1200: a Weyl product of 2e7 bits
HOSTILE_LABEL = ",".join(str((99 - i) * 10**1199) for i in range(100))
# the address-space cap of every call, in bytes: ``ulimit -v 1000000``
MEMORY_CAP = 1_000_000 * 1024
PER_FAMILY = 30
TRACEBACK_LINE = re.compile(r'^(  File ".*", line )\d+', re.M)


def hostile_calls():
    """Calls that must be refused (exit 2) before any work; tier-1 runs them under the cap.

    A billion-column window, rendered or decomposed, ``HOSTILE_LABEL``, and
    indices, margins, arguments, product labels and coefficients past the
    interpreter's digit limit.
    """
    return [
        ["table", "O(0) on P1", "--window", "0:1000000000"],
        ["tensor", "S[1,0] on P2", "S[1,0] on P2", "--window", "0:1000000000"],
        ["decompose", "S[1000000000,0] on P2"],
        ["indices", f"S[{HOSTILE_LABEL}] on P100"],
        ["indices", f"S[{NINES},0] on P2"],
        ["unobstructed", f"S[{NINES},0,0] on P3"],
        ["table", "O(0) on P1", "--window", "0:" + "1" * 4400],
        ["tensor", f"S[{NINES},{NINES}] on P2", f"S[{NINES},{NINES}] on P2"],
        ["decompose", f"{NINES}*push(2,1,0) on P3"],
    ]


def label(rng, n, lo=-3, hi=5):
    return sorted((rng.randint(lo, hi) for _ in range(n)), reverse=True)


def ints(values):
    return ",".join(map(str, values))


def expr(rng, n, depth=2):
    """A well-formed expression on P^n, nested up to ``depth``."""
    kind = rng.randrange(7 if depth else 3)
    if kind == 0:
        return f"S[{ints(label(rng, n))}]"
    if kind == 1:
        return f"O({rng.randint(-4, 4)})"
    if kind == 2:
        return f"push({ints(rng.randint(-3, 4) for _ in range(n))})"
    inner = expr(rng, n, depth - 1)
    if kind == 3:
        return f"dual({inner})"
    if kind == 4:
        return f"twist({inner}, {rng.randint(-3, 3)})"
    if kind == 5:
        return f"{rng.randint(1, 3)}*({inner})"
    return f"{inner} (+) {expr(rng, n, depth - 1)}"


def bundle(rng, n):
    return f"{expr(rng, n)} on P{n}"


def label_sum(rng, n, size=3):
    """A sum of labels with multiplicities: a homogeneous sum ``tensor`` accepts."""
    terms = [f"{rng.randint(1, 3)}*S[{ints(label(rng, n, -2, 4))}]"
             for _ in range(rng.randint(1, size))]
    return f"{' (+) '.join(terms)} on P{n}"


def broken(rng, text):
    """``text`` with one character dropped, doubled or replaced."""
    i = rng.randrange(len(text))
    return rng.choice([text[:i] + text[i + 1:], text[:i] + text[i] + text[i:],
                       text[:i] + rng.choice("[](),*+-x0") + text[i + 1:]])


def window(rng):
    lo = rng.randint(-8, 2)
    return f"{lo}:{lo + rng.randint(-1, 10)}"


def chain(rng, n):
    """A sum of labels that often is a zero-regular chain, as ``decompose`` wants."""
    lam, terms = label(rng, n, 0, 1), []
    for _ in range(rng.randint(1, n + 1)):
        terms.append(f"{rng.randint(1, 4)}*S[{ints(lam)}]")
        lam = sorted((p + rng.randint(0, 1) for p in lam), reverse=True)
    return f"{' (+) '.join(terms)} on P{n}"


def form(rng):
    """A JSON 2-form: pairs of indices and "p/q" coefficients, sometimes malformed."""
    pairs = [[[rng.randint(1, 3), rng.randint(4, 6)],
              rng.choice([f"{rng.randint(-5, 5)}", f"{rng.randint(-5, 5)}/{rng.randint(0, 4)}",
                          rng.randint(-3, 3), "x", 1.5])]
             for _ in range(rng.randint(0, 3))]
    return json.dumps(pairs)


FAMILIES = {
    "table": lambda rng, n: ["table", bundle(rng, n), "--window", window(rng),
                             "--format", rng.choice(["ascii", "json"])],
    "indices": lambda rng, n: ["indices", bundle(rng, n)],
    "tensor": lambda rng, n: ["tensor", label_sum(rng, n), label_sum(rng, n)],
    "tensor-window": lambda rng, n: ["tensor", label_sum(rng, n, 2), label_sum(rng, n, 2),
                                     "--window", window(rng)],
    "check-bounds": lambda rng, n: ["check-bounds", bundle(rng, n), bundle(rng, n),
                                    bundle(rng, n)],
    "check-sharpness": lambda rng, n: ["check-sharpness", ints(label(rng, n)),
                                       ints(label(rng, n)), "--n", str(n)],
    "decompose": lambda rng, n: ["decompose", chain(rng, n) if rng.random() < 0.7
                                 else bundle(rng, n)],
    "unobstructed": lambda rng, n: ["unobstructed", bundle(rng, n)],
    "wedge-kernel": lambda rng, n: (
        ["wedge-kernel", "--trials", str(rng.randint(1, 30)), "--seed", str(rng.randint(0, 99))]
        if rng.random() < 0.5 else ["wedge-kernel", "--eta1", form(rng), "--eta2", form(rng)]),
    "broken": lambda rng, n: [rng.choice(["indices", "decompose", "unobstructed"]),
                              broken(rng, bundle(rng, n))],
}


def window_files(rng, files):
    """A literal window of small cells, written under ``files``, read by a table subcommand."""
    n, lo = rng.randint(1, 3), rng.randint(-4, 0)
    hi = lo + rng.randint(0, 4)
    rows = [[rng.choice([0, 0, 0, 1, 2, 5]) for _ in range(lo, hi + 1)] for _ in range(n + 1)]
    path = os.path.join(files, f"window-{rng.getrandbits(64):016x}.json")
    with open(path, "w") as fh:
        json.dump({"n": n, "window": [lo, hi], "rows": rows}, fh)
    return [rng.choice(["indices", "decompose", "unobstructed"]), path]


def vectors(seed, files):
    """Every argument vector of the run, in a fixed order; table files go under ``files``."""
    sys.path.insert(0, os.path.join(ROOT, "bench"))
    from workloads import CLI_CASES

    out = [argv for argv, _ in CLI_CASES.values()] + hostile_calls()
    for name, make in FAMILIES.items():
        rng = random.Random(f"{name}:{seed}")
        out += [make(rng, rng.randint(1, 4)) for _ in range(PER_FAMILY)]
    rng = random.Random(f"window:{seed}")
    return out + [window_files(rng, files) for _ in range(PER_FAMILY)]


def export(ref, dest):
    """The tree of ``ref``, written under ``dest`` by ``git archive``."""
    blob = subprocess.run(["git", "-C", ROOT, "archive", "--format=tar", ref],
                          check=True, capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=blob, check=True)


def cap_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_CAP, MEMORY_CAP))


def call(tree, argv, timeout=120):
    """(exit code, stdout, stderr) of one fresh, capped interpreter in ``tree``."""
    env = dict(os.environ, PYTHONPATH=os.path.join(tree, "src"), PYTHONDONTWRITEBYTECODE="1")
    env.pop("RIVER_BANKS_SEED", None)
    try:
        proc = subprocess.run([sys.executable, "-m", "river_banks", *argv], cwd=tree, env=env,
                              capture_output=True, text=True, timeout=timeout,
                              preexec_fn=cap_memory)
    except subprocess.TimeoutExpired:
        return "timeout", "", ""
    # a traceback names the tree's files and their line numbers
    err = TRACEBACK_LINE.sub(r"\1?", proc.stderr.replace(tree, "<tree>"))
    return proc.returncode, proc.stdout, err


def shown(argv):
    """``argv`` for the report, long arguments cut short."""
    return " ".join(json.dumps(a if len(a) <= 60 else f"{a[:40]}...<{len(a)} chars>")
                    for a in argv)


def report(argv, old, new):
    lines = [f"DIFF {shown(argv)}"]
    if old[0] != new[0]:
        lines.append(f"  exit code: {old[0]} -> {new[0]}")
    for name, a, b in (("stdout", old[1], new[1]), ("stderr", old[2], new[2])):
        if a != b:
            lines.append(f"  {name}:")
            lines += [f"    {ln}" for ln in difflib.unified_diff(
                a.splitlines(), b.splitlines(), "ref", "here", n=0, lineterm="")][2:]
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("ref", help="the git ref to compare with, e.g. HEAD~1")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()
    with tempfile.TemporaryDirectory(prefix="river-banks-differential-") as tmp:
        ref, files = os.path.join(tmp, "ref"), os.path.join(tmp, "files")
        os.mkdir(ref)
        os.mkdir(files)
        argvs = vectors(args.seed, files)
        export(args.ref, ref)
        with ThreadPoolExecutor(2) as pool:
            old = list(pool.map(lambda argv: call(ref, argv), argvs))
            new = list(pool.map(lambda argv: call(ROOT, argv), argvs))
    diffs = [report(argv, a, b) for argv, a, b in zip(argvs, old, new) if a != b]
    for text in diffs:
        print(text)
    codes = Counter(str(code) for code, _, _ in new)
    print(f"{len(diffs)} of {len(argvs)} vectors differ between {args.ref} and this checkout "
          f"(exit codes here: {', '.join(f'{c}: {k}' for c, k in sorted(codes.items()))})")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())

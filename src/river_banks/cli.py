"""Command-line front end.

JSON results go to stdout, diagnostics to stderr.  Exit codes: 0 for
success (bounds hold, criterion holds, verification passed), 1 for a
certified violation or failed verification, 2 for usage errors, and 3 when
the answer is window-limited or undecidable from the data given.

Randomized subcommands take --seed; without it the RIVER_BANKS_SEED
environment variable applies, and failing that the documented default 1729.

Start-up is most of a call, so the subcommands reach the package through
its lazy public names (``rb.X``): a call imports only the modules it runs.
The values it reads are refused by the library's rules: integers by
``ratpoly._int``, forms by ``TwoForm.from_pairs``, tables by ``LiteralTable``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import river_banks as rb
from river_banks.ratpoly import _check_digits, _decimal, _digits, _int

OK, VIOLATION, USAGE, LIMITED = 0, 1, 2, 3
DEFAULT_SEED = 1729


def _emit(obj):
    try:
        text = json.dumps(obj, indent=2)
    except ValueError:
        # json.dumps writes ints with repr, which refuses one past the digit limit
        _check_digits(max(map(_digits, _ints_in(obj)), default=0), "an integer in the answer has")
        raise
    print(text)


def _ints_in(obj):
    """Every int in the JSON value ``obj``."""
    items = obj.values() if isinstance(obj, dict) else obj if isinstance(obj, list) else ()
    return [obj] if type(obj) is int else [v for item in items for v in _ints_in(item)]


def _fail(message, code):
    print(message, file=sys.stderr)
    return code


def _seed(args):
    if args.seed is not None:
        return args.seed
    env = os.environ.get("RIVER_BANKS_SEED")
    return _int(env) if env else DEFAULT_SEED


def _json(text, what):
    """``json.loads``, with nesting past the recursion limit a usage error."""
    try:
        return json.loads(text, parse_int=_int)
    except RecursionError:
        raise ValueError(f"{what} JSON nests too deeply") from None


def _load_table(ref):
    """A table from a file path (ASCII or JSON by extension) or an expression."""
    if os.path.exists(ref):
        with open(ref) as fh:
            text = fh.read()
        if ref.endswith(".json"):
            return rb.literal_from_json(_json(text, "table"))
        return rb.parse_ascii(text)
    return rb.table_from_expr(ref)


def _window(text):
    lo, _, hi = text.partition(":")
    return _integer(lo), _integer(hi)


def _integer(text):
    try:
        return _int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _positive_int(text):
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def _cmd_table(args):
    t = rb.table_from_expr(args.expr)
    lo, hi = args.window
    if args.format == "ascii":
        sys.stdout.write(rb.render_ascii(t, lo, hi))
    else:
        _emit(rb.table_to_json(t, lo, hi))
    return OK


def _cmd_indices(args):
    t = _load_table(args.table)
    prof = rb.regularity_profile(t)
    _emit({"n": t.n, **prof.to_json()})
    limited = any(prof.reg_window_limited) or any(prof.coreg_window_limited)
    return LIMITED if limited else OK


def _cmd_tensor(args):
    tf = rb.table_from_expr(args.f)
    tg = rb.table_from_expr(args.g)
    product = rb.tensor_homogeneous(tf, tg)
    if args.window is not None:
        lo, hi = args.window
        sys.stdout.write(rb.render_ascii(product, lo, hi))
    else:
        _emit({
            "n": product.n,
            "terms": [{"mult": _decimal(m), "lambda": str(lam)} for m, lam in product.terms],
        })
    return OK


def _cmd_check_bounds(args):
    tf, tg, tfg = (_load_table(s) for s in (args.f, args.g, args.fg))
    reg_rep, coreg_rep = rb.check_tensor_bounds(tf, tg, tfg)
    _emit({"reg": reg_rep.to_json(), "coreg": coreg_rep.to_json()})
    if reg_rep.certified_violation or coreg_rep.certified_violation:
        return VIOLATION
    if reg_rep.window_limited or coreg_rep.window_limited:
        return LIMITED
    return OK


def _cmd_check_sharpness(args):
    # imported here: the module set of the other subcommands stays as it is
    from river_banks.tables import MAX_AMBIENT_DIM

    if args.n > MAX_AMBIENT_DIM:
        return _fail(f"--n {args.n} is past the limit P{MAX_AMBIENT_DIM} on the ambient "
                     "dimension", USAGE)
    lam = rb.GenPartition.parse(args.lam)
    mu = rb.GenPartition.parse(args.mu)
    if lam.n != args.n or mu.n != args.n:
        return _fail(f"partitions must have length {args.n}", USAGE)
    # the report states the theorem, every entry an equality, so it never fails
    _emit(rb.check_sharpness(lam, mu).to_json())
    return OK


def _cmd_decompose(args):
    t = _load_table(args.table)
    try:
        dec = rb.decompose(t)
    except rb.NotDecomposableWithinScope as exc:
        print(f"not decomposable within scope: {exc.reason}", file=sys.stderr)
        _emit(exc.partial.to_json())
        return LIMITED
    _emit(dec.to_json())
    return OK


def _cmd_unobstructed(args):
    t = _load_table(args.table)
    report = rb.unobstructed_criterion(t)
    _emit(report.to_json())
    if report.window_limited:
        return LIMITED
    return OK if report.holds else VIOLATION


#: Most random pairs one wedge-kernel call draws: 10 000 take about 3 s, and
#: the cost grows linearly past that.
MAX_TRIALS = 10_000


def _cmd_wedge_kernel(args):
    if (args.eta1 is None) != (args.eta2 is None):
        return _fail("--eta1 and --eta2 must be given together", USAGE)
    if args.eta1 is not None:
        dim = rb.kernel_dim(*(rb.TwoForm.from_pairs(_json(eta, "form"))
                               for eta in (args.eta1, args.eta2)))
        _emit({"kernel_dim": dim})
        return OK if dim >= 1 else VIOLATION
    if args.trials > MAX_TRIALS:
        return _fail(f"--trials {args.trials} is past the limit of {MAX_TRIALS} trials", USAGE)
    import random

    seed = _seed(args)
    rng = random.Random(seed)
    dims = [rb.kernel_dim(rb.TwoForm.random(rng), rb.TwoForm.random(rng))
            for _ in range(args.trials)]
    _emit({
        "trials": args.trials,
        "seed": seed,
        "min_kernel_dim": min(dims),
        "kernel_dims": dims,
    })
    return OK if min(dims) >= 1 else VIOLATION


def _cmd_golden(args):
    from river_banks import golden

    checks = golden.verify()
    ok = all(passed for _, passed, _ in checks)
    _emit({
        "ok": ok,
        "checks": [{"name": name, "ok": passed, **({"detail": detail} if detail else {})}
                   for name, passed, detail in checks],
    })
    return OK if ok else VIOLATION


def _allow_leading_dash(parser):
    # lets values like -4:3 pass as option arguments instead of option names
    parser._negative_number_matcher = re.compile(r"^-\d")
    return parser


def build_parser():
    parser = _allow_leading_dash(argparse.ArgumentParser(
        prog="river-banks",
        description="Exact cohomology tables of bundles on projective space",
    ))
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=lambda **kw: _allow_leading_dash(
                                    argparse.ArgumentParser(**kw)))

    p = sub.add_parser("table", help="render a table over a display window")
    p.add_argument("expr")
    p.add_argument("--window", type=_window, required=True, metavar="LO:HI")
    p.add_argument("--format", choices=("ascii", "json"), default="ascii")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("indices", help="regularity/coregularity profile")
    p.add_argument("table", help="expression or table file (.txt ascii / .json)")
    p.set_defaults(func=_cmd_indices)

    p = sub.add_parser("tensor", help="tensor product of homogeneous sums")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("--window", type=_window, default=None, metavar="LO:HI")
    p.set_defaults(func=_cmd_tensor)

    p = sub.add_parser("check-bounds", help="evaluate the tensor-product bounds")
    p.add_argument("f")
    p.add_argument("g")
    p.add_argument("fg", help="table of the product (usually a file)")
    p.set_defaults(func=_cmd_check_bounds)

    p = sub.add_parser("check-sharpness", help="equality report for a pair of labels")
    p.add_argument("lam", metavar="lambda", help="e.g. 1,0")
    p.add_argument("mu", help="e.g. 1,0")
    p.add_argument("--n", type=_integer, required=True)
    p.set_defaults(func=_cmd_check_sharpness)

    p = sub.add_parser("decompose", help="greedy chain decomposition")
    p.add_argument("table")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("unobstructed", help="obstruction-vanishing margin test")
    p.add_argument("table")
    p.set_defaults(func=_cmd_unobstructed)

    p = sub.add_parser("wedge-kernel", help="kernel dimensions of wedge pairs")
    p.add_argument("--trials", type=_positive_int, default=200)
    p.add_argument("--seed", type=_integer, default=None)
    p.add_argument("--eta1", help='JSON pairs, e.g. [[[1,2],"1"],[[3,4],"1/2"]]')
    p.add_argument("--eta2")
    p.set_defaults(func=_cmd_wedge_kernel)

    p = sub.add_parser("golden", help="verify the bundled reference tables")
    p.add_argument("action", choices=("verify",))
    p.set_defaults(func=_cmd_golden)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return USAGE if exc.code not in (0, None) else OK
    try:
        return args.func(args)
    except Exception as exc:
        # read only on failure, so that a call that succeeds loads neither
        # expr nor tables for them
        if isinstance(exc, rb.ExprError):
            return _fail(f"expression error: {exc}", USAGE)
        if isinstance(exc, (rb.WindowExceededError, rb.UndecidableError)):
            return _fail(str(exc), LIMITED)
        # json.JSONDecodeError is a ValueError
        if isinstance(exc, (ValueError, TypeError, OSError, KeyError)):
            return _fail(str(exc), USAGE)
        raise


def console_main():
    raise SystemExit(main())


if __name__ == "__main__":
    console_main()

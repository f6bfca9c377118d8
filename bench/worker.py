"""One workload in one fresh interpreter: set up, signal ready, run the timed loop.

Started by ``run.py`` with ``PYTHONPATH`` pointing at the checkout's ``src``.
It prints ``READY`` and one calibration time once set-up is over (the
parent times launch-to-ready as ``setup_s``), then, unless ``--setup-only``,
runs a closed loop: one op at a time, the next starting when the previous
one has returned.  The loop stops at a cycle boundary once the ops have
taken ``--seconds`` at the reference speed and at least ``--min-ops`` have
run.  Between ops, outside the timed region, it times the calibration loop,
and reports each latency scaled to the reference speed from the loops just
before and after it.  The last stdout line is one JSON object with the
results.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import resource
import statistics
import sys
from time import perf_counter

import calibration
import workloads

ROOT = os.path.dirname(workloads.BENCH_DIR)
PREFIX_ITEMS = 1000  # stream items generated during set-up and digested
MAX_FAILURE_MESSAGES = 5


def cache_infos():
    from river_banks.bott import _bott
    from river_banks.partitions import _lr_classical

    return _bott.cache_info(), _lr_classical.cache_info()


def summary(seconds):
    return {"ops_per_s": len(seconds) / sum(seconds),
            "op_p50_ms": statistics.median(seconds) * 1000,
            "op_p90_ms": p90_ms(seconds)}


def p90_ms(seconds):
    if len(seconds) < 2:
        return seconds[0] * 1000
    return statistics.quantiles(seconds, n=10)[8] * 1000


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--min-ops", type=int, default=1)
    ap.add_argument("--cap", type=float, required=True,
                    help="seconds after which the loop ends even mid-cycle")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--traced", action="store_true")
    ap.add_argument("--in-process", action="store_true")
    ap.add_argument("--spans-out")
    args = ap.parse_args(argv)

    os.chdir(ROOT)
    import river_banks

    if args.workload == "cli" and args.in_process:
        import river_banks.cli  # noqa: F401  (the traced run wraps cli.main)
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(river_banks.__file__), src]) != src:
        sys.exit(f"river_banks was imported from {river_banks.__file__}, not {src}")

    wl = workloads.make(args.workload, ROOT, in_process=args.in_process)
    stream = wl.items(args.seed)
    warm = list(itertools.islice(stream, len(wl.warmup)))
    prefix = list(itertools.islice(stream, PREFIX_ITEMS))
    digest = workloads.stream_digest(warm + prefix)

    warm_failures, failures = [], []

    def attempt(item, timed):
        start = perf_counter()
        try:
            result = timed(item)
        except Exception as exc:  # an op that raises is a failed op, not a crash
            return perf_counter() - start, f"{type(exc).__name__}: {exc}"
        elapsed = perf_counter() - start
        try:
            wl.check(item, result)
        except workloads.Mismatch as exc:
            return elapsed, str(exc)
        except Exception as exc:  # a result too malformed to compare fails too
            return elapsed, f"oracle: {type(exc).__name__}: {exc}"
        return elapsed, None

    for item in warm:
        _, error = attempt(item, wl.run)
        if error:
            warm_failures.append((item, f"warm-up: {error}"))
    print("READY", calibration.loop(), flush=True)
    if args.setup_only:
        return 0

    tracer = None
    timed = wl.run
    if args.traced:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

        def timed(item):
            tracer.enabled = True
            try:
                return tracer.op_span(f"{wl.name}.op", wl.run, item)
            finally:
                tracer.enabled = False

    latencies, rungs, calibrations = [], [], [calibration.loop()]
    bott_hits = bott_misses = lr_hits = lr_misses = 0
    source = itertools.chain(prefix, stream)
    cycle = len(wl.cycle)
    # The budget counts op time at the reference speed, so a run holds about
    # the same ops however fast the host is at the moment: the memo caches
    # then see the same history, which a wall-clock budget would change.
    measured = 0.0
    loop_start = perf_counter()
    for ops in itertools.count():
        if perf_counter() - loop_start >= args.cap or (
                measured >= args.seconds and ops >= args.min_ops and ops % cycle == 0):
            break
        item = next(source, None)
        if item is None:
            break
        if tracer:
            bott0, lr0 = cache_infos()
        seconds, error = attempt(item, timed)
        if tracer:
            bott1, lr1 = cache_infos()
            bott_hits += bott1.hits - bott0.hits
            bott_misses += bott1.misses - bott0.misses
            lr_hits += lr1.hits - lr0.hits
            lr_misses += lr1.misses - lr0.misses
        latencies.append(seconds)
        rungs.append(wl.ladder(item))
        calibrations.append(calibration.loop())
        measured += calibration.scaled(seconds, calibrations[-2], calibrations[-1])
        if error:
            failures.append((item, error))

    scaled = [calibration.scaled(t, before, after)
              for t, before, after in zip(latencies, calibrations, calibrations[1:])]
    ladder = {}
    for names, t in zip(rungs, scaled):
        for name in names:
            ladder.setdefault(name, []).append(t)
    children = args.workload == "cli" and not args.in_process
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    unexpected = warm_failures + [(item, msg) for item, msg in failures
                                  if item.get("case") not in workloads.KNOWN_DEFECTS]
    out = {
        "attempted": len(latencies),
        "failed": len(failures),
        "unexpected_failures": len(unexpected),
        "failure_messages": [f"{workloads.item_key(item)}: {msg}"
                             for item, msg in (unexpected or failures)[:MAX_FAILURE_MESSAGES]],
        **summary(scaled),
        "raw": summary(latencies),
        "calibration_median_s": statistics.median(calibrations),
        "peak_rss_mib": resource.getrusage(who).ru_maxrss / 1024,
        "ladder_ms": {rung: statistics.median(v) * 1000 for rung, v in ladder.items()},
        "stream_sha256": digest,
        "stream_prefix_items": len(warm) + len(prefix),
    }
    if tracer:
        bott_info, lr_info = cache_infos()
        out["trace"] = {
            "calls": dict(tracer.calls), "self_s": dict(tracer.self_s),
            "counts": dict(tracer.counts), "spans_stored": len(tracer.spans),
            "spans_dropped": tracer.dropped,
            "bott_cache": [bott_hits, bott_misses, bott_info.currsize],
            "lr_cache": [lr_hits, lr_misses, lr_info.currsize],
        }
        if args.spans_out:
            with open(args.spans_out, "w") as fh:
                json.dump({"fields": ["id", "parent", "op", "name", "start", "end"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

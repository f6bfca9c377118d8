"""Benchmark entry point: one workload, one seed, untraced or traced.

    python3 bench/run.py --workload pushforward --seed 1 --seconds 20 --trace 0

Run from anywhere; the checkout is the parent of this directory and the
package is imported from its ``src``.  Untraced (``--trace 0``) it launches
the workload in SETUP_RUNS fresh interpreters, reports the median
launch-to-ready time as ``setup_s`` and lets the last one run the timed loop
for the end-to-end metrics.  Times are scaled to a reference machine speed
(``calibration.py``).  Traced (``--trace 1``) it runs the loop twice
in fresh interpreters, half the seconds each, first untraced (ladder rungs,
baseline rate) then with spans and counters, and reports the per-layer
metrics.  The last stdout line is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A record of the run,
with the environment and the input-stream digest, goes to
``.bench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import subprocess
import sys
from time import perf_counter

import calibration
from workloads import package_env

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
OUT_DIR = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("pushforward", "tensor", "chains", "cli")
SETUP_RUNS = 5
MIN_OPS = 100  # at least ten samples beyond p90
START_SAMPLES = 5
# Loop caps (the loop ends there even mid-cycle) and the deadline for the
# whole run, which must end within three minutes even on a much slower commit.
CAP_UNTRACED_S = 100
CAP_TRACED_S = 55
DEADLINE_S = 170
START = perf_counter()

LADDERS = (
    [f"ladder.pushforward.m{m:02d}" for m in range(3, 12)]
    + [f"ladder.tensor.n{n}" for n in range(2, 6)]
    + [f"ladder.chains.n{n}" for n in range(2, 8)]
    + [f"ladder.render.w{w:03d}" for w in (20, 50, 100, 200)]
)
SPANS = (
    "kunneth.product_line_cohomology", "partitions.lr_expand", "partitions.schur_dim",
    "bott.bott_cohomology", "bott.chi_polynomial",
    "tables.render_ascii", "tables.regularity_profile", "tables.is_natural",
    "tables.table_to_json", "tables.parse_ascii", "tables.literal_from_json",
    "boij_soderberg.decompose", "bounds.tensor_homogeneous", "bounds.check_sharpness",
    "bounds.lr_witness", "bounds.check_tensor_bounds", "bounds.unobstructed_criterion",
    "expr.table_from_expr", "exterior.kernel_dim", "golden.verify", "cli.main",
)


def remaining():
    return max(1.0, START + DEADLINE_S - perf_counter())


def launch(args, seconds, min_ops, cap, *flags):
    """Start a worker; returns ((scaled, unscaled) seconds from launch to READY, result)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(seconds), "--min-ops", str(min_ops), "--cap", str(cap), *flags]
    before = calibration.loop()
    start = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=package_env(ROOT), stdout=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        if not select.select([proc.stdout], [], [], remaining())[0]:
            raise subprocess.TimeoutExpired(cmd, remaining())
        ready = proc.stdout.readline().split()
        setup = perf_counter() - start
        rest, _ = proc.communicate(timeout=remaining())
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the worker and any command it started
        proc.wait()
        sys.exit(f"{args.workload} worker did not finish before the deadline")
    if ready[:1] != ["READY"] or proc.returncode != 0:
        sys.exit(f"{args.workload} worker failed (exit {proc.returncode})")
    # The worker times the calibration loop just before READY: the parent's
    # own loop would then compete with the worker for the pinned CPU.
    setup = (calibration.scaled(setup, before, float(ready[1])), setup)
    lines = rest.strip().splitlines()
    return setup, (json.loads(lines[-1]) if lines else None)


def median_start_ms(code):
    """Median wall time of ``python -c code`` over START_SAMPLES fresh interpreters."""
    times = []
    for _ in range(START_SAMPLES):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=package_env(ROOT),
                       check=True)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1000


def git_commit():
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        except FileNotFoundError:
            with open(os.path.join(git, "packed-refs")) as fh:
                for line in fh:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except (FileNotFoundError, NotADirectoryError):
        pass
    return None


def environment(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "git_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(args):
    setups = [launch(args, args.seconds, MIN_OPS, CAP_UNTRACED_S, "--setup-only")[0]
              for _ in range(SETUP_RUNS - 1)]
    setup, res = launch(args, args.seconds, MIN_OPS, CAP_UNTRACED_S)
    setups.append(setup)
    metrics = {
        "setup_s": metric(statistics.median(s for s, _ in setups), "s"),
        "ops_per_s": metric(res["ops_per_s"], "1/s"),
        "op_p50_ms": metric(res["op_p50_ms"], "ms"),
        "op_p90_ms": metric(res["op_p90_ms"], "ms"),
        "peak_rss_mib": metric(res["peak_rss_mib"], "MiB"),
        "ok_ratio": metric(1 - res["failed"] / res["attempted"], "ratio"),
    }
    return [res], metrics, {"setup_runs_s": [s for s, _ in setups],
                            "setup_runs_unscaled_s": [u for _, u in setups]}


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(args):
    in_process = ["--in-process"] if args.workload == "cli" else []
    half = args.seconds / 2
    _, plain = launch(args, half, 1, CAP_TRACED_S, *in_process)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.json")
    _, traced = launch(args, half, 1, CAP_TRACED_S, "--traced", "--spans-out", spans_path,
                       *in_process)
    tr = traced["trace"]
    calls, self_s, counts = tr["calls"], tr["self_s"], tr["counts"]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = metric(calls.get(name, 0), "count")
        metrics[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    metrics["kunneth.product_line_cohomology.nonzero_ratio"] = metric(ratio(
        counts.get("kunneth.product_line_cohomology.nonzero", 0),
        calls.get("kunneth.product_line_cohomology", 0)), "ratio")
    metrics["bott.nonzero_ratio"] = metric(ratio(
        counts.get("bott.bott_cohomology.nonzero", 0), calls.get("bott.bott_cohomology", 0)),
        "ratio")
    metrics["partitions.lr_expand.terms"] = metric(counts.get("lr_expand.terms", 0), "count")
    metrics["partitions.lr_expand.tableaux"] = metric(counts.get("lr_expand.tableaux", 0), "count")
    lr_hits, lr_misses, lr_size = tr["lr_cache"]
    metrics["partitions.lr_cache_hit_ratio"] = metric(ratio(lr_hits, lr_hits + lr_misses), "ratio")
    metrics["partitions.lr_cache_size"] = metric(lr_size, "count")
    hits, misses, size = tr["bott_cache"]
    metrics["bott.cache_hits"] = metric(hits, "count")
    metrics["bott.cache_misses"] = metric(misses, "count")
    metrics["bott.cache_hit_ratio"] = metric(ratio(hits, hits + misses), "ratio")
    metrics["bott.cache_size"] = metric(size, "count")
    metrics["tables.entry.calls"] = metric(counts.get("entry.calls", 0), "count")
    metrics["tables.entry.nonzero_ratio"] = metric(
        ratio(counts.get("entry.nonzero", 0), counts.get("entry.calls", 0)), "ratio")
    metrics["boij_soderberg.decompose.steps"] = metric(counts.get("decompose.steps", 0), "count")
    bare = median_start_ms("pass")
    metrics["cli.interpreter_start_ms"] = metric(bare, "ms")
    metrics["cli.import_ms"] = metric(median_start_ms("import river_banks.cli") - bare, "ms")
    for rung in LADDERS:
        metrics[rung] = metric(plain["ladder_ms"].get(rung, 0.0), "ms")
    metrics["trace.overhead_ratio"] = metric(traced["ops_per_s"] / plain["ops_per_s"], "ratio")
    extra = {"spans_file": os.path.relpath(spans_path, ROOT),
             "spans_stored": tr["spans_stored"], "spans_dropped": tr["spans_dropped"],
             "untraced_ops_per_s": plain["ops_per_s"], "traced_ops_per_s": traced["ops_per_s"]}
    return [plain, traced], metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "river_banks", "__init__.py")):
        sys.exit(f"no river_banks package under {os.path.join(ROOT, 'src')}")
    # One CPU for this process, the workers and their children (affinity is
    # inherited): the two CPUs of a shared host can differ in speed by up to
    # 2x at the same moment, and the calibration loop must run on the CPU
    # that does the work it scales.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    os.makedirs(OUT_DIR, exist_ok=True)
    runs, metrics, extra = (per_layer if args.trace else end_to_end)(args)

    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    unexpected = sum(r["unexpected_failures"] for r in runs)
    digests = {r["stream_sha256"] for r in runs}
    record = {"environment": environment(args), "stream_sha256": sorted(digests),
              "stream_prefix_items": runs[0]["stream_prefix_items"],
              "attempted": attempted, "failed": failed, "unexpected_failures": unexpected,
              "failure_messages": [m for r in runs for m in r["failure_messages"]],
              "metrics": metrics, **extra}
    if not args.trace:
        record["ladder_ms"] = runs[0]["ladder_ms"]
        record["unscaled"] = runs[0]["raw"]
        record["calibration_median_s"] = runs[0]["calibration_median_s"]
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w") as fh:
        json.dump(record, fh, indent=1)

    for message in record["failure_messages"]:
        print(f"failure: {message}", file=sys.stderr)
    print(f"environment: {json.dumps(record['environment'])}")
    print(f"stream sha256: {' '.join(sorted(digests))}")
    print(f"failed_ratio: {failed / attempted:.6f} ({failed} of {attempted} ops; "
          f"{unexpected} outside the known defects)")
    for key, m in metrics.items():
        print(f"{key:48s} {m['value']:>16.6g} {m['unit']}")
    print(json.dumps({"correct": unexpected == 0 and len(digests) == 1,
                      "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

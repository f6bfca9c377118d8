"""Record the stdout digest of every command-line case into cli_expected.json.

    python3 bench/record_cli.py

Run it only on a commit whose command-line output is known to be right: the
``cli`` workload fails any call whose exit code differs from the one in
``workloads.CLI_CASES`` or whose stdout differs from this recording.  A case
listed in ``workloads.KNOWN_DEFECTS`` is recorded with empty stdout, which is
what the documented contract (exit 2, message on stderr) prints.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

import workloads

ROOT = os.path.dirname(workloads.BENCH_DIR)


def main():
    recorded = {}
    for case in [*workloads.CLI_WARMUP, *workloads.CLI_CASES]:
        argv, want = workloads.cli_case(case)
        code, out = workloads.run_cli_subprocess(ROOT, argv)
        if case in workloads.KNOWN_DEFECTS:
            out = b""
        elif code != want:
            sys.exit(f"{case}: exit {code}, expected {want}; nothing recorded")
        recorded[case] = {"stdout_sha256": hashlib.sha256(out).hexdigest()}
    with open(workloads.CLI_EXPECTED, "w") as fh:
        json.dump(recorded, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(recorded)} cases in {os.path.relpath(workloads.CLI_EXPECTED, ROOT)}")


if __name__ == "__main__":
    main()

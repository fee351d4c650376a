"""Regenerate the reference CSVs the benchmark checks its outputs against.

    python3 perfbench/make_reference.py

Each workload runs once at REFERENCE_SEED with its full trial count.
Only regenerate when the program's output is meant to change.
"""

from __future__ import annotations

import os
import sys

import run


def main() -> int:
    cli = run.load_program()
    os.environ.pop("FAS_SEED", None)
    run.REFERENCE_DIR.mkdir(exist_ok=True)
    for workload, (_, trials) in run.WORKLOADS.items():
        out = run.REFERENCE_DIR / f"{workload}.csv"
        rc = cli.main(run.experiment_argv(workload, run.REFERENCE_SEED, trials, str(out)))
        if rc != 0:
            return rc
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Self-test of the benchmark; takes well under a minute on two cores.

    python3 perfbench/selftest.py

1. The output checker accepts each reference against itself and rejects
   three planted faults: a Monte Carlo cell shifted by 10 binomial
   sigma, an analytic cell changed by a relative 1e-6, and a dropped row.
2. Every workload runs in smoke mode (few Monte Carlo trials) with
   --trace 0 and --trace 1, passes the output check, and reports
   exactly the metrics BENCHMARK.json names, with their units.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
import tempfile

import refcheck
import run


def _write(path: str, head, cols, rows) -> None:
    with open(path, "w", encoding="ascii") as fh:
        for key, val in head:
            fh.write(f"# {key}: {val}\n" if val else f"# {key}\n")
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")


def _mc_shift(cols, rows, trials):
    """Shift the Monte Carlo cell with the widest sigma by 10 sigma."""
    best = None
    for r, row in enumerate(rows):
        for c, name in enumerate(cols):
            if refcheck._is_mc(name) and row[c]:
                p = float(row[c])
                sigma = math.sqrt(p * (1.0 - p) / trials)
                if best is None or sigma > best[0]:
                    best = (sigma, r, c)
    sigma, r, c = best
    p = float(rows[r][c]) + 10.0 * sigma
    rows[r][c] = repr(p)
    # keep the std_err cell consistent so only the binomial check can fire
    se = cols.index("std_err_" + cols[c].split("_", 1)[1])
    rows[r][se] = repr(math.sqrt(p * (1.0 - p) / trials))
    return f"row {r} {cols[c]}"


def _analytic_nudge(cols, rows):
    """Change the largest analytic cell by a relative 1e-6."""
    cells = [(abs(float(row[c])), r, c) for r, row in enumerate(rows)
             for c, name in enumerate(cols) if refcheck._is_analytic(name) and row[c]]
    if not cells:
        return None
    _, r, c = max(cells)
    rows[r][c] = repr(float(rows[r][c]) * (1.0 + 1e-6))
    return f"row {r} {cols[c]}"


def _drop_row(rows):
    rows.pop(len(rows) // 2)
    return "rows"


def check_planted_faults(tmp: str) -> list[str]:
    failures = []
    for workload, (_, trials) in run.WORKLOADS.items():
        ref = str(run.REFERENCE_DIR / f"{workload}.csv")
        errs = refcheck.compare(ref, ref, run.REFERENCE_SEED, trials)
        if errs:
            failures.append(f"{workload}: reference fails against itself: {errs[:3]}")
        head, cols, rows = refcheck.read_csv(ref)
        planted = {
            "mc shift": lambda rw: _mc_shift(cols, rw, trials),
            "analytic 1e-6": lambda rw: _analytic_nudge(cols, rw),
            "dropped row": _drop_row,
        }
        for fault, plant in planted.items():
            faulty = [list(row) for row in rows]
            where = plant(faulty)
            if where is None:
                continue  # this workload has no cell of that kind
            path = f"{tmp}/{workload}-{fault.replace(' ', '_')}.csv"
            _write(path, head, cols, faulty)
            errs = refcheck.compare(path, ref, run.REFERENCE_SEED, trials)
            if not any(where in e for e in errs):
                failures.append(f"{workload}: {fault} at {where} not rejected: {errs[:3]}")
            else:
                print(f"ok  {workload}: {fault} rejected ({errs[0]})")
    return failures


def check_smoke() -> list[str]:
    with open(run.ROOT / "BENCHMARK.json", encoding="ascii") as fh:
        bench = json.load(fh)
    want = {
        0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        1: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    failures = []
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
                   "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=300)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                failures.append(f"{workload} trace {trace}: exit {proc.returncode}\n{proc.stderr}")
                continue
            result = json.loads(lines[-1])
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                failures.append(f"{workload} trace {trace}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                failures.append(f"{workload} trace {trace}: output check failed\n{proc.stderr}")
            if got != want[trace]:
                missing = sorted(set(want[trace]) - set(got))
                extra = sorted(set(got) - set(want[trace]))
                failures.append(f"{workload} trace {trace}: missing {missing}, extra {extra}")
            else:
                print(f"ok  {workload} trace {trace}: {len(got)} metrics, "
                      f"{result['attempted']} runs")
    return failures


def main() -> int:
    run.load_program()
    run.OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT_DIR) as tmp:
        failures = check_planted_faults(tmp)
    failures += check_smoke()
    for f in failures:
        print("FAIL " + f)
    print("selftest " + ("failed" if failures else "passed"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

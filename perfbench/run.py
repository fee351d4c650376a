"""Benchmark of the fas-extremes experiment CLI.

Runs one pinned experiment (a workload) in-process through
fas_extremes.cli.main(argv), repeatedly for a fixed time budget, checks
every CSV it writes against the committed reference, and prints the
result as one JSON object on the last line of standard output:

    python3 perfbench/run.py --workload snr-sweep --seed 1 --seconds 40 --trace 0

--trace 0 reports the end-to-end metrics (upper quartiles over the calls
made in the budget, scaled to a fixed host speed); --trace 1 reports the per-layer split from runs with every
layer function wrapped in a span (see spans.py). --workload all runs
each workload in its own process and prints a table. Run it from
anywhere; it benchmarks the src/ tree next to this directory and reads
and writes nothing outside that checkout. See README.md for the
workloads, metrics and the layer map.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import refcheck

# One BLAS thread, set before NumPy is first imported. On a machine of a
# few shared cores a second BLAS thread spin-waits for its sibling, so
# wall_s and cpu_s measure the host's scheduler more than the program.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE_DIR = HERE / "reference"

WORKERS = 2  # the cores of the machine the workloads were sized on
SMOKE_TRIALS = 2000
# upper-quartile seconds of reference_seconds() on that machine; the
# timings are scaled to the host speed at which it takes this long
REFERENCE_S = 0.1
REFERENCE_SEED = 42

# name -> (experiment argv without trials, trials); why each was chosen
# is in README.md. Each call takes one to two seconds, so a run makes
# tens of calls and its statistics do not hang on one slow stretch.
WORKLOADS = {
    "snr-sweep": (
        ["outage-snr", "--model", "gauss", "--N", "20", "--W", "1",
         "--snr-db", "-10,-5,0,5,10,15,20"],
        20_000,
    ),
    "dense-aperture": (["outage-aperture", "--W", "1", "--N", "200", "--snr-db", "-5,0,5"], 10_000),
    "kl-ladder": (
        ["kl-convergence", "--N", "64", "--W", "1", "--K", "12", "--snr-db", "-5,5"],
        6_000,
    ),
}

SETUP_CHILD = (
    "import time\n"
    "from fas_extremes import cli\n"
    "cli.build_parser()\n"
    "print(time.perf_counter(), cli.__file__)\n"
)


def experiment_argv(workload: str, seed: int, trials: int, out: str) -> list[str]:
    base, _ = WORKLOADS[workload]
    return [*base, "--trials", str(trials), "--workers", str(WORKERS),
            "--seed", str(seed), "--out", out]


def _under(path: str, root: Path) -> bool:
    return Path(path).resolve().is_relative_to(root.resolve())


def load_program():
    """Import fas_extremes.cli from this checkout's src/, or exit 2."""
    if not (SRC / "fas_extremes" / "cli.py").is_file():
        sys.exit(f"perfbench: no program at {SRC / 'fas_extremes'}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    from fas_extremes import cli

    if not _under(cli.__file__, SRC):
        sys.exit(f"perfbench: imported {cli.__file__}, not the checkout's src/")
    return cli


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "FAS_SEED"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS loaded into this process, if any."""
    try:
        with open("/proc/self/maps", encoding="ascii", errors="replace") as fh:
            libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                    "openblas_get_num_threads64_"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_facts() -> dict:
    import numpy as np

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name, blas_version = blas.get("name"), blas.get("version")
    except (KeyError, TypeError, ValueError):
        blas_name = blas_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_version": blas_version,
        "blas_threads": _blas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def setup_seconds() -> float:
    """Seconds from spawning a fresh interpreter to the CLI parser built."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", SETUP_CHILD], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=120, check=True,
    )
    stamp, path = proc.stdout.split(maxsplit=1)
    if not _under(path.strip(), SRC):
        raise RuntimeError(f"set-up child imported {path.strip()}")
    return float(stamp) - t0


def _cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _steal_seconds() -> float | None:
    """CPU time the hypervisor gave to other guests, summed over all CPUs."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return None


def run_once(cli, workload: str, seed: int, trials: int, tmp: str, tracer=None) -> dict:
    """One experiment run: time it, then check its CSV against the reference."""
    out = os.path.join(tmp, f"{workload}.csv")
    argv = experiment_argv(workload, seed, trials, out)
    gc.collect()
    steal0 = _steal_seconds()
    cpu0 = _cpu_seconds()
    t0 = time.perf_counter()
    try:
        if tracer is None:
            rc = cli.main(argv)
        else:
            with tracer.span("cli"):
                rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # a crash is a failed run, not a crashed benchmark
        traceback.print_exc()
        rc = 1
    wall = time.perf_counter() - t0
    cpu = _cpu_seconds() - cpu0

    steal1 = _steal_seconds()
    run = {"wall_s": wall, "cpu_s": cpu, "rc": rc}
    if steal0 is not None and steal1 is not None:
        run["steal_s"] = steal1 - steal0
    if rc != 0:
        errors = [f"exit code {rc}"]
    elif not os.path.exists(out):
        errors = ["no output file"]
    else:
        try:
            errors = refcheck.compare(out, str(REFERENCE_DIR / f"{workload}.csv"), seed, trials)
            run["rows"] = len(refcheck.read_csv(out)[2])
        except (ValueError, UnicodeError) as exc:
            errors = [f"unreadable output: {exc}"]
        run["csv_bytes"] = os.path.getsize(out)
    if os.path.exists(out):
        os.unlink(out)
    run["errors"] = errors[:20]
    for line in errors[:20]:
        print(f"perfbench: {workload} seed {seed}: {line}", file=sys.stderr)
    return run


def reference_seconds() -> float:
    """Seconds that a fixed piece of work outside the program takes now.

    Like the program it is part interpreted Python, part NumPy (normals
    and a matrix product). Its time follows only the speed the host
    gives this process, which on a shared host moves by up to 1.5x for
    minutes at a time; the timings are divided by it.
    """
    import numpy as np

    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    m = rng.standard_normal((200, 200))
    acc = 0.0
    for i in range(400_000):
        acc += i * i
    for _ in range(8):
        acc += float(np.max(rng.standard_normal((1000, 200)) @ m))
    return time.perf_counter() - t0


def upper_quartile(values: list[float]) -> float:
    """Upper quartile of the samples of a run: the statistic of every timing.

    On a shared host a call runs at one steady speed while the
    neighbours are busy and faster, but erratically, while they idle.
    The upper quartile follows the steady speed; the median wanders
    between the two and spread about twice as much from run to run.
    """
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def _budgeted(seconds: float, start: float, last: dict) -> bool:
    """Whether another run fits: never start one the budget cannot hold."""
    return time.perf_counter() - start + last["wall_s"] <= seconds


def measure(cli, workload: str, seed: int, seconds: float, trace: bool, trials: int,
            tmp: str) -> tuple[list[dict], dict, list]:
    """Run the workload for the budget; return (runs, metrics, tracers)."""
    import spans

    if not trace:
        # set-up and the reference work are sampled once after every call,
        # so that their samples span the run as the calls do; the first
        # spawn warms the file cache
        setup_seconds()
        reference_seconds()
        start = time.perf_counter()
        runs = []
        while not runs or _budgeted(seconds, start, runs[-1]):
            runs.append(run_once(cli, workload, seed, trials, tmp))
            runs[-1]["reference_s"] = reference_seconds()
            runs[-1]["setup_s"] = setup_seconds()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        scale = REFERENCE_S / upper_quartile([r["reference_s"] for r in runs])
        metrics = {
            name: (upper_quartile([r[name] for r in runs]) * scale, "s")
            for name in ("wall_s", "setup_s", "cpu_s")
        }
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
        return runs, metrics, []

    # untraced and traced runs alternate so both see the same machine state
    start = time.perf_counter()
    runs = [run_once(cli, workload, seed, trials, tmp)]
    tracers, layers = [], []
    while True:
        tracer = spans.Tracer()
        with spans.installed(tracer):
            runs.append(run_once(cli, workload, seed, trials, tmp, tracer))
        runs[-1]["traced"] = True
        tracers.append(tracer)
        per = spans.layer_metrics(tracer)
        per["cli.rows"] = (runs[-1].get("rows", 0), "count")
        per["cli.csv_bytes"] = (runs[-1].get("csv_bytes", 0), "B")
        layers.append(per)
        if not _budgeted(seconds, start, runs[-1]):
            break
        runs.append(run_once(cli, workload, seed, trials, tmp))
        if not _budgeted(seconds, start, runs[-1]):
            break
    metrics = spans.median_metrics(layers)
    traced = statistics.median(r["wall_s"] for r in runs if r.get("traced"))
    untraced = statistics.median(r["wall_s"] for r in runs if not r.get("traced"))
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    return runs, metrics, tracers


def run_workload(args) -> int:
    cli = load_program()
    os.environ.pop("FAS_SEED", None)
    OUT_DIR.mkdir(exist_ok=True)
    facts = machine_facts()
    print("perfbench: machine " + json.dumps(facts), file=sys.stderr)
    trials = SMOKE_TRIALS if args.smoke else WORKLOADS[args.workload][1]
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        runs, metrics, tracers = measure(
            cli, args.workload, args.seed, args.seconds, bool(args.trace), trials, tmp
        )
    failed = sum(1 for r in runs if r["errors"])
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if tracers:
        import spans

        spans.dump(tracers, f"{stem}-spans.json")
    detail = {
        "workload": args.workload,
        "argv": experiment_argv(args.workload, args.seed, trials, "OUT"),
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": facts,
        "runs": runs,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(f"{stem}.json", "w", encoding="ascii") as fh:
        json.dump(detail, fh, indent=1)

    walls = sorted(r["wall_s"] for r in runs)
    steal = sum(r.get("steal_s", 0.0) for r in runs)
    print(f"{args.workload}: {len(runs)} runs, unscaled wall_s min {walls[0]:.3f} "
          f"max {walls[-1]:.3f}, hypervisor steal {steal:.2f} CPU-s")
    if not args.trace:
        ref = upper_quartile([r["reference_s"] for r in runs])
        print(f"{args.workload}: reference work {ref:.4f} s, timings scaled by "
              f"{REFERENCE_S / ref:.4f}; unscaled upper quartiles: "
              + ", ".join(f"{n} {upper_quartile([r[n] for r in runs]):.4f} s"
                          for n in ("wall_s", "setup_s", "cpu_s")))
    for name, (value, unit) in metrics.items():
        print(f"{args.workload}  {name} = {value:.6g} {unit}")
    print(f"{args.workload}  error_rate = {failed / len(runs):.6g} ({failed}/{len(runs)} runs failed)")
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Run every workload in its own process and print one table."""
    load_program()
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    rows = []
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode or 1
        result = json.loads(lines[-1])
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            merged["metrics"][f"{workload}.{name}"] = m
        rate = result["failed"] / result["attempted"]
        rows.append((workload, result["metrics"], rate, result["attempted"]))
    for workload, metrics, rate, attempted in rows:
        cells = [f"{n} {m['value']:.4g} {m['unit']}" for n, m in metrics.items()]
        print(f"{workload:15s} " + "  ".join(cells) + f"  error_rate {rate:.3g} (of {attempted})")
    print(json.dumps(merged))
    return 0


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True,
                   help="passed to the CLI as --seed; must be in [0, 2**64)")
    p.add_argument("--seconds", type=float, required=True, help="measuring budget per workload")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help=f"{SMOKE_TRIALS} Monte Carlo trials per call, for the self-test")
    args = p.parse_args(argv)
    if not (0 <= args.seed < 2 ** 64):
        p.error("--seed must be in [0, 2**64)")
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())

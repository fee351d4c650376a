"""fas-extremes: experiment driver emitting CSV datasets.

Each experiment reproduces one figure-style sweep (kernel comparison,
spectra, eigenstructure, outage-vs-SNR and friends) as a CSV file with
a '#'-prefixed metadata header. Reruns with identical flags, seed, and
workers produce byte-identical bodies; only the timestamp line moves.
`fas-extremes -h` lists each experiment's flags and defaults from
EXPERIMENTS. The threshold is 0 dB, so x = 10^(-snr_db/10).

Exit codes: 0 success, 2 bad flags (argparse level, including any
experiment flag that EXPERIMENTS does not list for the experiment), 1
failure during computation (the partially written output is removed).
Cross-field semantic problems (say --blocks exceeding --N, or
slepian-blocks --model both) surface as computation failures, not flag
errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
import textwrap
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .bounds import block_refined_bound, rho_extremes, slepian_sandwich
from .continuum import outage_continuous
from .dof import keff_asymptotic, participation_ratio
from .fieldmodel import (
    ApertureConfig,
    cholesky,
    correlation_matrix,
    eigendecompose,
    kl_truncate,
)
from .kernels import (
    CorrelationModel,
    SingularityError,
    approx_error,
    correlation,
    psd,
    spectral_leakage,
)
from .kl_outage import ThresholdSpec, outage_rank1, outage_rank2
from .montecarlo import McConfig, simulate_outage, simulate_outage_truncated
from .specialfn import DomainError

# Philox streams the trial budget is split into unless --workers says
# otherwise; fixed, so one command writes one CSV on every machine
DEFAULT_WORKERS = 8

PORT_SWEEP = (3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 63, 79, 100)


def _fmt(v) -> str:
    if v is None or v == "":
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _parse_snr_list(text: str) -> list[float]:
    try:
        vals = [float(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad SNR list {text!r}") from None
    if not vals:
        raise argparse.ArgumentTypeError("empty SNR list")
    return vals


def _show(val) -> str:
    """A flag value as the # config: line and -h print it."""
    return ",".join(f"{v:g}" for v in val) if isinstance(val, list) else str(val)


def _experiments_help() -> str:
    lines = ["experiment flags and defaults (derived: swept, or set from the others):"]
    for name, (_, defaults) in EXPERIMENTS.items():
        flags = [f"--{k.replace('_', '-')}={'derived' if v is None else _show(v)}"
                 for k, v in defaults.items()]
        lines += textwrap.wrap(f"{name}: {' '.join(flags) or '(none)'}", 78, initial_indent="  ",
                               subsequent_indent="      ", break_long_words=False,
                               break_on_hyphens=False)
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    # an experiment flag is set only when given, so main can tell the
    # flags an experiment does not read from its defaults
    p = argparse.ArgumentParser(
        prog="fas-extremes",
        description="Fluid-antenna outage experiments; writes CSV datasets.",
        epilog=_experiments_help(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
        argument_default=argparse.SUPPRESS,
    )
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--model", choices=("jakes", "gauss", "both"))
    p.add_argument("--W", type=float, help="aperture in wavelengths")
    p.add_argument("--N", type=int, help="port count")
    p.add_argument("--snr-db", type=_parse_snr_list, metavar="LIST",
                   help="comma-separated average SNR values in dB")
    p.add_argument("--K", type=int, help="truncation rank sweep limit")
    p.add_argument("--blocks", type=int)
    p.add_argument("--trials", type=int)
    # a string default goes through type=int, so a bad FAS_SEED exits 2
    p.add_argument("--seed", type=int, default=os.environ.get("FAS_SEED") or "42")
    p.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    p.add_argument("--out", default=None, help="output CSV path")
    return p


def _matrix(model: str, N: int, W: float) -> np.ndarray:
    return correlation_matrix(ApertureConfig(W=W, N=N, model=model))


def _mc(model: str, N: int, W: float, xs: list[float], cfg: McConfig):
    """One Monte Carlo pass over the field, an estimate per threshold in xs."""
    return simulate_outage(cholesky(_matrix(model, N, W)), xs, cfg)


# one function per experiment: (flags with EXPERIMENTS' defaults filled
# in, plus xs and cfg where it samples) -> (rows, extra_meta)

def _run_kernel_compare(args):
    deltas = np.arange(0.0, 0.6 + 1e-12, 0.002)
    rows = []
    for d in deltas:
        actual, bound = approx_error(float(d))
        rows.append(
            {
                "delta": float(d),
                "rho_jakes": correlation(CorrelationModel.JAKES, float(d)),
                "rho_gauss": correlation(CorrelationModel.GAUSSIAN, float(d)),
                "abs_error": actual,
                "quartic_bound": bound,
            }
        )
    return rows, {}


def _run_psd(args):
    # integer-ratio grid so the band edges f = +-1 are hit exactly and
    # the Jakes singularity cell is written blank instead of a finite
    # sample of the blow-up
    grid = [k / 200.0 for k in range(-600, 601)]
    rows = []
    for f in grid:
        try:
            sj = psd(CorrelationModel.JAKES, f)
        except SingularityError:
            sj = None
        rows.append(
            {"f": f, "psd_jakes": sj, "psd_gauss": psd(CorrelationModel.GAUSSIAN, f)}
        )
    return rows, {"spectral_leakage": spectral_leakage()}


def _run_eigen(args):
    N = args.N
    spec_j = eigendecompose(_matrix("jakes", N, args.W))
    spec_g = eigendecompose(_matrix("gauss", N, args.W))
    cum_j = np.cumsum(spec_j.eigenvalues) / N
    cum_g = np.cumsum(spec_g.eigenvalues) / N
    rows = []
    for k in range(N):
        rows.append(
            {
                "k": k + 1,
                "lam_jakes_over_N": float(spec_j.eigenvalues[k]) / N,
                "lam_gauss_over_N": float(spec_g.eigenvalues[k]) / N,
                "cum_energy_jakes": float(cum_j[k]),
                "cum_energy_gauss": float(cum_g[k]),
            }
        )
    return rows, {}


def _run_outage_snr(args):
    analytic_model = "jakes" if args.model == "jakes" else "gauss"
    # the analytic model is always one of the sampled ones
    R = {m: _matrix(m, args.N, args.W) for m in ("jakes", "gauss")
         if args.model in (m, "both")}
    spec = eigendecompose(R[analytic_model])
    mc = {m: simulate_outage(cholesky(R_m), args.xs, args.cfg) for m, R_m in R.items()}
    rows = []
    for i, (snr, x) in enumerate(zip(args.snr_db, args.xs)):
        row = {"snr_db": snr, "x": x}
        for m in ("jakes", "gauss"):
            est = mc[m][i] if m in mc else None
            row[f"mc_{m}"] = None if est is None else est.p
            row[f"std_err_{m}"] = None if est is None else est.std_err
        row["rank1"] = outage_rank1(spec, x)
        row["rank2"] = outage_rank2(spec, x)
        lo, hi = slepian_sandwich(R[analytic_model], x)
        row["slepian_lo"] = lo
        row["slepian_hi"] = hi
        cont = outage_continuous(x, args.W)
        row["continuum"] = cont.value
        row["continuum_clamped"] = cont.clamped
        rows.append(row)
    return rows, {"analytic_model": analytic_model}


def _run_outage_aperture(args):
    Ws = [0.5 + 0.25 * i for i in range(11)] if args.W is None else [args.W]
    rows = []
    for W in Ws:
        N = max(2, math.ceil(20 * W)) if args.N is None else args.N
        mc = {m: _mc(m, N, W, args.xs, args.cfg) for m in ("jakes", "gauss")}
        for i, (snr, x) in enumerate(zip(args.snr_db, args.xs)):
            row = {"W": W, "N": N, "snr_db": snr, "x": x}
            for m in ("jakes", "gauss"):
                row[f"mc_{m}"] = mc[m][i].p
                row[f"std_err_{m}"] = mc[m][i].std_err
            cont = outage_continuous(x, W)
            row["continuum"] = cont.value
            row["continuum_clamped"] = cont.clamped
            rows.append(row)
    return rows, {}


def _run_dof(args):
    Ws = [0.5 + 0.25 * i for i in range(19)] if args.W is None else [args.W]
    rows = []
    for W in Ws:
        pr = {m: participation_ratio(_matrix(m, args.N, W)) for m in ("jakes", "gauss")}
        rows.append(
            {
                "W": W,
                "pr_jakes": pr["jakes"],
                "pr_gauss": pr["gauss"],
                "keff_jakes": keff_asymptotic(CorrelationModel.JAKES, W),
                "keff_gauss": keff_asymptotic(CorrelationModel.GAUSSIAN, W),
            }
        )
    return rows, {}


def _run_outage_ports(args):
    Ws = [1.0, 2.0, 3.0] if args.W is None else [args.W]
    Ns = PORT_SWEEP if args.N is None else (args.N,)
    rows = []
    for W in Ws:
        mc = {(N, m): _mc(m, N, W, args.xs, args.cfg) for N in Ns for m in ("jakes", "gauss")}
        for i, (snr, x) in enumerate(zip(args.snr_db, args.xs)):
            cont = outage_continuous(x, W)
            for N in Ns:
                row = {"N": N, "W": W, "snr_db": snr, "x": x}
                for m in ("jakes", "gauss"):
                    row[f"mc_{m}"] = mc[N, m][i].p
                    row[f"std_err_{m}"] = mc[N, m][i].std_err
                row["continuum"] = cont.value
                rows.append(row)
    return rows, {}


def _run_kl_convergence(args):
    N = args.N
    specs = {m: eigendecompose(_matrix(m, N, args.W)) for m in ("jakes", "gauss")}  # names a bad N
    k_max = N if args.K is None else args.K
    if not (1 <= k_max <= N):
        raise DomainError(f"K sweep limit must be in [1, {N}], got {k_max}")
    meta = {}
    tags = [("m" if s < 0 else "p") + f"{abs(s):g}".replace(".", "_") for s in args.snr_db]
    for m in ("jakes", "gauss"):
        for tag, est in zip(tags, _mc(m, N, args.W, args.xs, args.cfg)):
            meta[f"mc_full_{m}_{tag}"] = f"{est.p:.17g} (std_err {est.std_err:.3g})"
    rows = []
    for K in range(1, k_max + 1):
        row = {"K": K}
        kls = {m: kl_truncate(specs[m], K) for m in ("jakes", "gauss")}
        for m in ("jakes", "gauss"):
            row[f"eps_{m}"] = kls[m].truncation_error
        for m in ("jakes", "gauss"):
            for tag, est in zip(tags, simulate_outage_truncated(kls[m], args.xs, args.cfg)):
                row[f"trunc_{m}_{tag}"] = est.p
                row[f"std_err_{m}_{tag}"] = est.std_err
        rows.append(row)
    return rows, meta


def _run_slepian_blocks(args):
    if args.model == "both":
        raise DomainError("slepian-blocks samples one model: --model must be jakes or gauss")
    R = _matrix(args.model, args.N, args.W)  # before the checks on N, so a bad N is named
    if len(args.snr_db) != 1:
        raise DomainError(f"slepian-blocks takes one --snr-db value, got {len(args.snr_db)}")
    if not (1 <= args.blocks <= args.N):
        raise DomainError(f"--blocks must be in [1, {args.N}], got {args.blocks}")
    x = args.xs[0]
    est = simulate_outage(cholesky(R), x, args.cfg)
    lo, hi = slepian_sandwich(R, x)
    ext = rho_extremes(R)
    rows = []
    for B in range(1, args.blocks + 1):
        bound, part = block_refined_bound(R, x, B)
        rows.append(
            {
                "B": B,
                "bound": bound,
                "rho_cross_max": part.rho_cross_max,
                "rho_b_min_smallest": min(part.rho_b_min),
            }
        )
    meta = {
        "model": args.model,
        "x": f"{x:.17g}",
        "sandwich_lo": f"{lo:.17g}",
        "sandwich_hi": f"{hi:.17g}",
        "rho_min": f"{ext.rho_min:.17g}",
        "rho_max": f"{ext.rho_max:.17g}",
        "mc": f"{est.p:.17g} (std_err {est.std_err:.3g})",
    }
    return rows, meta


def _run_gauss_error(args):
    Ws = [0.5 * i for i in range(1, 11)] if args.W is None else [args.W]
    rows = []
    for W in Ws:
        mc = {m: _mc(m, args.N, W, args.xs, args.cfg) for m in ("jakes", "gauss")}
        for snr, x, ej, eg in zip(args.snr_db, args.xs, mc["jakes"], mc["gauss"]):
            pj, pg = ej.p, eg.p
            rel = abs(pg - pj) / pj if pj > 0 else None
            rows.append(
                {
                    "W": W,
                    "snr_db": snr,
                    "x": x,
                    "mc_jakes": pj,
                    "hits_jakes": ej.hits,
                    "std_err_jakes": ej.std_err,
                    "mc_gauss": pg,
                    "hits_gauss": eg.hits,
                    "std_err_gauss": eg.std_err,
                    "rel_error": rel,
                }
            )
    return rows, {}


# experiment -> (runner, {flag: default} for every flag it reads). Any
# other experiment flag exits 2. A None default is derived in the runner
# from the other values: outage-aperture's N = max(2, ceil(20 W)),
# outage-ports' PORT_SWEEP, kl-convergence's K = N, and a W sweep.
EXPERIMENTS = {
    "kernel-compare": (_run_kernel_compare, {}),
    "psd": (_run_psd, {}),
    "eigen": (_run_eigen, {"W": 3.0, "N": 50}),
    "outage-snr": (_run_outage_snr, {
        "model": "both", "W": 1.0, "N": 10, "snr_db": [float(s) for s in range(-10, 21)],
        "trials": 100_000}),
    "outage-aperture": (_run_outage_aperture, {
        "W": None, "N": None, "snr_db": [-5.0, 0.0, 5.0], "trials": 1_000_000}),
    "dof": (_run_dof, {"W": None, "N": 200}),
    "outage-ports": (_run_outage_ports, {
        "W": None, "N": None, "snr_db": [-5.0], "trials": 1_000_000}),
    "kl-convergence": (_run_kl_convergence, {
        "W": 2.0, "N": 20, "snr_db": [-5.0, 5.0], "K": None, "trials": 1_000_000}),
    "slepian-blocks": (_run_slepian_blocks, {
        "model": "gauss", "W": 1.0, "N": 20, "snr_db": [-5.0], "blocks": 8,
        "trials": 1_000_000}),
    "gauss-error": (_run_gauss_error, {
        "W": None, "N": 20, "snr_db": [-5.0, 0.0, 5.0, 10.0], "trials": 1_000_000}),
}


def _config_line(given: dict) -> str:
    # perfbench/reference/*.csv pins this line until a benchmark change: the
    # flags as given, plus th_db, quad_order and blocks on every experiment,
    # read or not. th_db=0.0 and quad_order=16 are the constants in force.
    given = {"th_db": 0.0, "quad_order": 16, "blocks": 8, **given}
    keys = ("model", "W", "N", "snr_db", "th_db", "K", "quad_order", "blocks", "trials")
    return " ".join(f"{key}={_show(given[key])}" for key in keys if key in given)


def _join_valued_flags(argv: list[str]) -> list[str]:
    """Rewrite ['--snr-db', '-5,0,5'] as ['--snr-db=-5,0,5'].

    argparse lexes a leading dash as an option string, so negative dB
    values would otherwise need the '=' form; smooth that over here.
    """
    out = []
    for tok in argv:
        if out and out[-1] == "--snr-db":
            out[-1] += f"={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_valued_flags(list(argv)))
    runner, defaults = EXPERIMENTS[args.experiment]
    given = vars(args)
    # every header records seed and workers, so every experiment takes them
    run_level = ("experiment", "seed", "workers", "out")
    unread = ["--" + k.replace("_", "-") for k in given if k not in (*defaults, *run_level)]
    if unread:
        parser.error(f"{args.experiment} does not read {', '.join(unread)}")
    config = _config_line(given)
    args = argparse.Namespace(**{**defaults, **given})

    if "trials" in defaults and args.trials < 1:
        parser.error("--trials must be positive")
    if args.workers < 1:
        parser.error("--workers must be positive")
    out_path = args.out or f"{args.experiment}.csv"

    try:
        if "trials" in defaults:
            args.xs = [ThresholdSpec(snr, 0.0).x for snr in args.snr_db]
            args.cfg = McConfig(trials=args.trials, seed=args.seed, workers=args.workers)
        rows, meta = runner(args)
    except (DomainError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"fas-extremes: {args.experiment} failed: {exc}", file=sys.stderr)
        return 1
    fieldnames = list(rows[0])

    out_dir = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=out_dir, suffix=".csv.part")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="") as fh:
            fh.write(f"# fas-extremes {__version__}\n")
            fh.write(f"# experiment: {args.experiment}\n")
            fh.write(f"# config: {config}\n")
            fh.write(f"# seed: {args.seed}\n")
            fh.write(f"# workers: {args.workers}\n")
            for key, val in meta.items():
                fh.write(f"# {key}: {val}\n")
            fh.write(f"# timestamp: {datetime.now(timezone.utc).isoformat()}\n")
            fh.write(",".join(fieldnames) + "\n")
            for row in rows:
                fh.write(",".join(_fmt(row.get(name)) for name in fieldnames) + "\n")
        os.replace(tmp_path, out_path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    print(f"wrote {out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())

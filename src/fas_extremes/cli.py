"""fas-extremes: experiment driver emitting CSV datasets.

Each experiment reproduces one figure-style sweep (kernel comparison,
spectra, eigenstructure, outage-vs-SNR and friends) as a CSV file with
a '#'-prefixed metadata header. Reruns with identical flags, seed, and
workers produce byte-identical bodies; only the timestamp line moves.

Exit codes: 0 success, 2 bad flags (argparse level), 1 failure during
computation (the partially written output is removed). Cross-field
semantic problems (say --blocks exceeding --N) surface as computation
failures, not flag errors.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
import tempfile
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

EXPERIMENTS = (
    "kernel-compare",
    "psd",
    "eigen",
    "outage-snr",
    "outage-aperture",
    "dof",
    "outage-ports",
    "kl-convergence",
    "slepian-blocks",
    "gauss-error",
)

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


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="fas-extremes",
        description="Fluid-antenna outage experiments; writes CSV datasets.",
    )
    p.add_argument("experiment", choices=EXPERIMENTS)
    p.add_argument("--model", choices=("jakes", "gauss", "both"), default=None)
    p.add_argument("--W", type=float, default=None, help="aperture in wavelengths")
    p.add_argument("--N", type=int, default=None, help="port count")
    p.add_argument("--snr-db", type=_parse_snr_list, default=None, metavar="LIST",
                   help="comma-separated average SNR values in dB")
    p.add_argument("--th-db", type=float, default=0.0, help="threshold in dB")
    p.add_argument("--K", type=int, default=None, help="truncation rank sweep limit")
    p.add_argument("--quad-order", type=int, default=16)
    p.add_argument("--blocks", type=int, default=8)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    p.add_argument("--out", default=None, help="output CSV path")
    return p


def _mc(model: str, N: int, W: float, xs: list[float], cfg: McConfig):
    """One Monte Carlo pass over the field, an estimate per threshold in xs."""
    config = ApertureConfig(W=W, N=N, model=CorrelationModel.parse(model))
    return simulate_outage(cholesky(correlation_matrix(config)), xs, cfg)


def _spectrum(model: str, N: int, W: float):
    config = ApertureConfig(W=W, N=N, model=CorrelationModel.parse(model))
    return eigendecompose(correlation_matrix(config))


def _snr_tag(snr: float) -> str:
    tag = f"{abs(snr):g}".replace(".", "_")
    return ("m" if snr < 0 else "p") + tag


# one function per experiment; each returns (fieldnames, rows, extra_meta)

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
    return list(rows[0].keys()), rows, {}


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
    return ["f", "psd_jakes", "psd_gauss"], rows, {"spectral_leakage": spectral_leakage()}


def _run_eigen(args):
    N = args.N if args.N is not None else 50
    W = args.W if args.W is not None else 3.0
    spec_j = _spectrum("jakes", N, W)
    spec_g = _spectrum("gauss", N, W)
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
    return list(rows[0].keys()), rows, {}


def _run_outage_snr(args):
    model = args.model or "both"
    N = args.N if args.N is not None else 10
    W = args.W if args.W is not None else 1.0
    snrs = args.snr_db or [float(s) for s in range(-10, 21)]
    trials = args.trials if args.trials is not None else 100_000
    analytic_model = "jakes" if model == "jakes" else "gauss"
    spec = _spectrum(analytic_model, N, W)
    R_analytic = correlation_matrix(
        ApertureConfig(W=W, N=N, model=CorrelationModel.parse(analytic_model))
    )
    factors = {}
    for m in ("jakes", "gauss"):
        if model in (m, "both"):
            cfgm = ApertureConfig(W=W, N=N, model=CorrelationModel.parse(m))
            factors[m] = cholesky(correlation_matrix(cfgm))
    xs = [ThresholdSpec(snr, args.th_db).x for snr in snrs]
    cfg = McConfig(trials=trials, seed=args.seed, workers=args.workers)
    mc = {m: simulate_outage(factor, xs, cfg) for m, factor in factors.items()}
    rows = []
    for i, (snr, x) in enumerate(zip(snrs, xs)):
        row = {"snr_db": snr, "x": x}
        for m in ("jakes", "gauss"):
            if m in mc:
                row[f"mc_{m}"] = mc[m][i].p
                row[f"std_err_{m}"] = mc[m][i].std_err
            else:
                row[f"mc_{m}"] = None
                row[f"std_err_{m}"] = None
        row["rank1"] = outage_rank1(spec, x)
        row["rank2"] = outage_rank2(spec, x, quad_order=args.quad_order)
        lo, hi = slepian_sandwich(R_analytic, x)
        row["slepian_lo"] = lo
        row["slepian_hi"] = hi
        cont = outage_continuous(x, W)
        row["continuum"] = cont.value
        row["continuum_clamped"] = cont.clamped
        rows.append(row)
    names = list(rows[0].keys())
    return names, rows, {"analytic_model": analytic_model}


def _run_outage_aperture(args):
    snrs = args.snr_db or [-5.0, 0.0, 5.0]
    trials = args.trials if args.trials is not None else 1_000_000
    Ws = [0.5 + 0.25 * i for i in range(11)] if args.W is None else [args.W]
    xs = [ThresholdSpec(snr, args.th_db).x for snr in snrs]
    cfg = McConfig(trials=trials, seed=args.seed, workers=args.workers)
    rows = []
    for W in Ws:
        N = args.N if args.N is not None else max(2, math.ceil(20 * W))
        mc = {m: _mc(m, N, W, xs, cfg) for m in ("jakes", "gauss")}
        for i, (snr, x) in enumerate(zip(snrs, xs)):
            row = {"W": W, "N": N, "snr_db": snr, "x": x}
            for m in ("jakes", "gauss"):
                row[f"mc_{m}"] = mc[m][i].p
                row[f"std_err_{m}"] = mc[m][i].std_err
            cont = outage_continuous(x, W)
            row["continuum"] = cont.value
            row["continuum_clamped"] = cont.clamped
            rows.append(row)
    return list(rows[0].keys()), rows, {}


def _run_dof(args):
    N = args.N if args.N is not None else 200
    Ws = [0.5 + 0.25 * i for i in range(19)] if args.W is None else [args.W]
    rows = []
    for W in Ws:
        pr = {}
        for m in ("jakes", "gauss"):
            cfgm = ApertureConfig(W=W, N=N, model=CorrelationModel.parse(m))
            pr[m] = participation_ratio(correlation_matrix(cfgm))
        rows.append(
            {
                "W": W,
                "pr_jakes": pr["jakes"],
                "pr_gauss": pr["gauss"],
                "keff_jakes": keff_asymptotic(CorrelationModel.JAKES, W),
                "keff_gauss": keff_asymptotic(CorrelationModel.GAUSSIAN, W),
            }
        )
    return list(rows[0].keys()), rows, {}


def _run_outage_ports(args):
    snrs = args.snr_db or [-5.0]
    trials = args.trials if args.trials is not None else 1_000_000
    Ws = [1.0, 2.0, 3.0] if args.W is None else [args.W]
    Ns = PORT_SWEEP if args.N is None else (args.N,)
    xs = [ThresholdSpec(snr, args.th_db).x for snr in snrs]
    cfg = McConfig(trials=trials, seed=args.seed, workers=args.workers)
    rows = []
    for W in Ws:
        mc = {(N, m): _mc(m, N, W, xs, cfg) for N in Ns for m in ("jakes", "gauss")}
        for i, (snr, x) in enumerate(zip(snrs, xs)):
            cont = outage_continuous(x, W)
            for N in Ns:
                row = {"N": N, "W": W, "snr_db": snr, "x": x}
                for m in ("jakes", "gauss"):
                    row[f"mc_{m}"] = mc[N, m][i].p
                    row[f"std_err_{m}"] = mc[N, m][i].std_err
                row["continuum"] = cont.value
                rows.append(row)
    return list(rows[0].keys()), rows, {}


def _run_kl_convergence(args):
    N = args.N if args.N is not None else 20
    W = args.W if args.W is not None else 2.0
    snrs = args.snr_db or [-5.0, 5.0]
    k_max = args.K if args.K is not None else N
    trials = args.trials if args.trials is not None else 1_000_000
    if not (1 <= k_max <= N):
        raise DomainError(f"K sweep limit must be in [1, {N}], got {k_max}")
    meta = {}
    specs = {m: _spectrum(m, N, W) for m in ("jakes", "gauss")}
    cfg = McConfig(trials=trials, seed=args.seed, workers=args.workers)
    xs = [ThresholdSpec(snr, args.th_db).x for snr in snrs]
    tags = [_snr_tag(snr) for snr in snrs]
    for m in ("jakes", "gauss"):
        for tag, est in zip(tags, _mc(m, N, W, xs, cfg)):
            meta[f"mc_full_{m}_{tag}"] = f"{est.p:.17g} (std_err {est.std_err:.3g})"
    rows = []
    for K in range(1, k_max + 1):
        row = {"K": K}
        kls = {m: kl_truncate(specs[m], K) for m in ("jakes", "gauss")}
        for m in ("jakes", "gauss"):
            row[f"eps_{m}"] = kls[m].truncation_error
        for m in ("jakes", "gauss"):
            for tag, est in zip(tags, simulate_outage_truncated(kls[m], xs, cfg)):
                row[f"trunc_{m}_{tag}"] = est.p
                row[f"std_err_{m}_{tag}"] = est.std_err
        rows.append(row)
    return list(rows[0].keys()), rows, meta


def _run_slepian_blocks(args):
    model = args.model or "gauss"
    if model == "both":
        model = "gauss"
    N = args.N if args.N is not None else 20
    W = args.W if args.W is not None else 1.0
    snr = (args.snr_db or [-5.0])[0]
    if not (1 <= args.blocks <= N):
        raise DomainError(f"--blocks must be in [1, {N}], got {args.blocks}")
    x = ThresholdSpec(snr, args.th_db).x
    trials = args.trials if args.trials is not None else 1_000_000
    config = ApertureConfig(W=W, N=N, model=CorrelationModel.parse(model))
    R = correlation_matrix(config)
    cfg = McConfig(trials=trials, seed=args.seed, workers=args.workers)
    est = simulate_outage(R, x, cfg)
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
        "model": model,
        "x": f"{x:.17g}",
        "sandwich_lo": f"{lo:.17g}",
        "sandwich_hi": f"{hi:.17g}",
        "rho_min": f"{ext.rho_min:.17g}",
        "rho_max": f"{ext.rho_max:.17g}",
        "mc": f"{est.p:.17g} (std_err {est.std_err:.3g})",
    }
    return list(rows[0].keys()), rows, meta


def _run_gauss_error(args):
    N = args.N if args.N is not None else 20
    snrs = args.snr_db or [-5.0, 0.0, 5.0, 10.0]
    trials = args.trials if args.trials is not None else 1_000_000
    Ws = [0.5 * i for i in range(1, 11)] if args.W is None else [args.W]
    xs = [ThresholdSpec(snr, args.th_db).x for snr in snrs]
    cfg = McConfig(trials=trials, seed=args.seed, workers=args.workers)
    rows = []
    for W in Ws:
        factors = {
            m: cholesky(
                correlation_matrix(
                    ApertureConfig(W=W, N=N, model=CorrelationModel.parse(m))
                )
            )
            for m in ("jakes", "gauss")
        }
        mc = {m: simulate_outage(factors[m], xs, cfg) for m in ("jakes", "gauss")}
        for snr, x, ej, eg in zip(snrs, xs, mc["jakes"], mc["gauss"]):
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
    return list(rows[0].keys()), rows, {}


_RUNNERS = {
    "kernel-compare": _run_kernel_compare,
    "psd": _run_psd,
    "eigen": _run_eigen,
    "outage-snr": _run_outage_snr,
    "outage-aperture": _run_outage_aperture,
    "dof": _run_dof,
    "outage-ports": _run_outage_ports,
    "kl-convergence": _run_kl_convergence,
    "slepian-blocks": _run_slepian_blocks,
    "gauss-error": _run_gauss_error,
}


def _config_line(args) -> str:
    parts = []
    for key in ("model", "W", "N", "snr_db", "th_db", "K",
                "quad_order", "blocks", "trials"):
        val = getattr(args, key)
        if val is None:
            continue
        if isinstance(val, list):
            val = ",".join(f"{v:g}" for v in val)
        parts.append(f"{key}={val}")
    return " ".join(parts) if parts else "(defaults)"


def _join_valued_flags(argv: list[str]) -> list[str]:
    """Rewrite ['--snr-db', '-5,0,5'] as ['--snr-db=-5,0,5'].

    argparse lexes a leading dash as an option string, so negative dB
    values would otherwise need the '=' form; smooth that over here.
    """
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--snr-db", "--th-db", "--W") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_join_valued_flags(list(argv)))

    if args.seed is None:
        env = os.environ.get("FAS_SEED")
        args.seed = int(env) if env else 42
    if args.trials is not None and args.trials < 1:
        parser.error("--trials must be positive")
    if args.workers < 1:
        parser.error("--workers must be positive")
    out_path = args.out or f"{args.experiment}.csv"

    try:
        fieldnames, rows, meta = _RUNNERS[args.experiment](args)
    except (DomainError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"fas-extremes: {args.experiment} failed: {exc}", file=sys.stderr)
        return 1

    out_dir = os.path.dirname(os.path.abspath(out_path))
    fd, tmp_path = tempfile.mkstemp(dir=out_dir, suffix=".csv.part")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="") as fh:
            fh.write(f"# fas-extremes {__version__}\n")
            fh.write(f"# experiment: {args.experiment}\n")
            fh.write(f"# config: {_config_line(args)}\n")
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

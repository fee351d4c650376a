"""fas-extremes: experiment driver emitting CSV datasets.

Each experiment reproduces one figure-style sweep (kernel comparison,
spectra, eigenstructure, outage-vs-SNR and friends) as a CSV file with
a '#'-prefixed metadata header. Reruns with identical flags, seed, and
workers produce byte-identical bodies; only the timestamp line moves.
`fas-extremes -h` lists each experiment's flags and defaults from
EXPERIMENTS. The threshold is 0 dB, so x = 10^(-snr_db/10).

Exit codes: 0 success, 2 bad flags (argparse level, including any
experiment flag that EXPERIMENTS does not list for the experiment, a
seed outside [0, 2^64) and an --out with no existing directory), 1
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
from .montecarlo import (
    McConfig,
    simulate_outage,
    simulate_outage_ladder,
    simulate_outage_truncated,  # not called here, but perfbench's spans wrap it
)
from .specialfn import DomainError

# Philox streams the trial budget is split into unless --workers says
# otherwise; fixed, so one command writes one CSV on every machine
DEFAULT_WORKERS = 8

PORT_SWEEP = (3, 4, 5, 6, 8, 10, 13, 16, 20, 25, 32, 40, 50, 63, 79, 100)

# the kernels the two-model experiments compare, in column order
MODELS = ("jakes", "gauss")


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
    p.add_argument("--model", choices=(*MODELS, "both"))
    p.add_argument("--W", type=float, help="aperture in wavelengths")
    p.add_argument("--N", type=int, help="port count")
    p.add_argument("--snr-db", type=_parse_snr_list, metavar="LIST",
                   help="comma-separated average SNR values in dB")
    p.add_argument("--K", type=int, help="truncation rank sweep limit")
    p.add_argument("--blocks", type=int)
    p.add_argument("--trials", type=int)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    p.add_argument("--out", default=None, help="output CSV path")
    return p


def _matrix(model: str, N: int, W: float) -> np.ndarray:
    return correlation_matrix(ApertureConfig(W=W, N=N, model=model))


def _mc(R: np.ndarray, xs: list[float], cfg: McConfig):
    """One Monte Carlo pass over the field R, an estimate per threshold in xs.

    The field is drawn through R's pivoted-Cholesky factor, so a trial
    takes as many latent normals per part as R's numerical rank."""
    return simulate_outage(cholesky(R), xs, cfg)


def _mc_cells(row: dict, ests: dict, prefix: str = "mc", hits: bool = False) -> dict:
    """row plus the {prefix}_KEY[, hits_KEY] and std_err_KEY cells of each KEY: estimate.

    A None estimate (a model outage-snr did not sample) leaves them blank."""
    for key, est in ests.items():
        row[f"{prefix}_{key}"] = None if est is None else est.p
        if hits:
            row[f"hits_{key}"] = None if est is None else est.hits
        row[f"std_err_{key}"] = None if est is None else est.std_err
    return row


def _mc_meta(est) -> str:
    """An estimate as a header value: p to 17 digits and its std_err."""
    return f"{est.p:.17g} (std_err {est.std_err:.3g})"


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
    lams = {m: eigendecompose(_matrix(m, N, args.W)).eigenvalues for m in MODELS}
    cums = {m: np.cumsum(lam) / N for m, lam in lams.items()}
    rows = []
    for k in range(N):
        row = {"k": k + 1}
        for m in MODELS:
            row[f"lam_{m}_over_N"] = float(lams[m][k]) / N
        for m in MODELS:
            row[f"cum_energy_{m}"] = float(cums[m][k])
        rows.append(row)
    return rows, {}


def _run_outage_snr(args):
    analytic_model = "jakes" if args.model == "jakes" else "gauss"
    # the analytic model is always one of the sampled ones
    R = {m: _matrix(m, args.N, args.W) for m in MODELS if args.model in (m, "both")}
    spec = eigendecompose(R[analytic_model])
    mc = {m: _mc(R_m, args.xs, args.cfg) for m, R_m in R.items()}
    sandwich = slepian_sandwich(R[analytic_model], args.xs)
    rows = []
    for i, (snr, x) in enumerate(zip(args.snr_db, args.xs)):
        ests = {m: mc[m][i] if m in mc else None for m in MODELS}
        row = _mc_cells({"snr_db": snr, "x": x}, ests)
        row["rank1"] = outage_rank1(spec, x)
        row["rank2"] = outage_rank2(spec, x)
        row["slepian_lo"], row["slepian_hi"] = sandwich[i]
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
        mc = {m: _mc(_matrix(m, N, W), args.xs, args.cfg) for m in MODELS}
        for i, (snr, x) in enumerate(zip(args.snr_db, args.xs)):
            row = _mc_cells({"W": W, "N": N, "snr_db": snr, "x": x}, {m: mc[m][i] for m in MODELS})
            cont = outage_continuous(x, W)
            row["continuum"] = cont.value
            row["continuum_clamped"] = cont.clamped
            rows.append(row)
    return rows, {}


def _run_dof(args):
    Ws = [0.5 + 0.25 * i for i in range(19)] if args.W is None else [args.W]
    rows = []
    for W in Ws:
        pr = {m: participation_ratio(_matrix(m, args.N, W)) for m in MODELS}
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
        mc = {(N, m): _mc(_matrix(m, N, W), args.xs, args.cfg) for N in Ns for m in MODELS}
        for i, (snr, x) in enumerate(zip(args.snr_db, args.xs)):
            cont = outage_continuous(x, W)
            for N in Ns:
                row = _mc_cells({"N": N, "W": W, "snr_db": snr, "x": x},
                                {m: mc[N, m][i] for m in MODELS})
                row["continuum"] = cont.value
                row["continuum_clamped"] = cont.clamped
                rows.append(row)
    return rows, {}


def _run_kl_convergence(args):
    N = args.N
    R = {m: _matrix(m, N, args.W) for m in MODELS}  # names a bad N
    specs = {m: eigendecompose(R_m) for m, R_m in R.items()}
    k_max = N if args.K is None else args.K
    if not (1 <= k_max <= N):
        raise DomainError(f"K sweep limit must be in [1, {N}], got {k_max}")
    meta = {}
    tags = [("m" if s < 0 else "p") + f"{abs(s):g}".replace(".", "_") for s in args.snr_db]
    if len(set(tags)) < len(tags):  # one column per tag: a repeat would drop cells
        raise DomainError(f"kl-convergence needs --snr-db values with distinct tags, got {tags}")
    for m in MODELS:
        for tag, est in zip(tags, _mc(R[m], args.xs, args.cfg)):
            meta[f"mc_full_{m}_{tag}"] = _mc_meta(est)
    # every rank K <= k_max of a model from one draw of k_max mode coordinates per trial
    ladders = {m: simulate_outage_ladder(kl_truncate(specs[m], k_max), args.xs, args.cfg)
               for m in MODELS}
    rows = []
    for K in range(1, k_max + 1):
        row = {"K": K}
        for m in MODELS:
            row[f"eps_{m}"] = kl_truncate(specs[m], K).truncation_error
        for m in MODELS:
            _mc_cells(row, {f"{m}_{tag}": est for tag, est in zip(tags, ladders[m][K - 1])},
                      "trunc")
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
    (est,) = _mc(R, [x], args.cfg)
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
        "mc": _mc_meta(est),
    }
    return rows, meta


def _run_gauss_error(args):
    Ws = [0.5 * i for i in range(1, 11)] if args.W is None else [args.W]
    rows = []
    for W in Ws:
        mc = {m: _mc(_matrix(m, args.N, W), args.xs, args.cfg) for m in MODELS}
        for i, (snr, x) in enumerate(zip(args.snr_db, args.xs)):
            row = _mc_cells({"W": W, "snr_db": snr, "x": x}, {m: mc[m][i] for m in MODELS},
                            hits=True)
            pj, pg = row["mc_jakes"], row["mc_gauss"]
            row["rel_error"] = abs(pg - pj) / pj if pj > 0 else None
            rows.append(row)
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
    if not 0 <= args.seed < 2**64:
        parser.error(f"--seed must be in [0, 2^64), got {args.seed}")
    out_path = args.out or f"{args.experiment}.csv"
    out_dir = os.path.dirname(out_path) or os.curdir
    if os.path.isdir(out_path) or not os.path.isdir(out_dir):
        parser.error(f"--out {out_path} must name a file in an existing directory")

    try:
        if "trials" in defaults:
            args.xs = [ThresholdSpec(snr, 0.0).x for snr in args.snr_db]
            args.cfg = McConfig(trials=args.trials, seed=args.seed, workers=args.workers)
        rows, meta = runner(args)
    except (DomainError, ArithmeticError, np.linalg.LinAlgError) as exc:
        print(f"fas-extremes: {args.experiment} failed: {exc}", file=sys.stderr)
        return 1
    fieldnames = list(rows[0])
    header = {"experiment": args.experiment, "config": config, "seed": args.seed,
              "workers": args.workers, **meta,
              "timestamp": datetime.now(timezone.utc).isoformat()}

    fd, tmp_path = tempfile.mkstemp(dir=out_dir, suffix=".csv.part")
    try:
        with os.fdopen(fd, "w", encoding="ascii", newline="") as fh:
            fh.write(f"# fas-extremes {__version__}\n")
            for key, val in header.items():
                fh.write(f"# {key}: {val}\n")
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

"""Compare a fas-extremes CSV against a committed reference CSV.

The reference was written at one seed; a run at another seed must agree
with it on everything that does not depend on the seed and agree within
sampling error on the Monte Carlo estimates:

* header: the same '#' keys in the same order, each value identical,
  except the timestamp (ignored), the seed (must be the seed the run
  asked for) and the trials= token of the config line (must be the
  trials the run asked for); mc_full_* lines are Monte Carlo estimates
  and are compared like the columns below
* columns: the same names in the same order, the same row count
* Monte Carlo columns (mc_*, trunc_*): |p - p_ref| within Z pooled
  binomial standard deviations of the difference, floored at one hit
* std_err_* columns: consistent with the row's estimate, that is
  sqrt(p (1 - p) / trials)
* analytic columns (rank1, rank2, slepian_*, continuum, eps_*):
  relative 1e-9 plus absolute 1e-12, loose enough for an eigensolver
  that differs in the last bits, tight enough to catch a 1e-6 change
* everything else (grid columns, flags): identical text
"""

from __future__ import annotations

import math
import re

Z = 5.0
ANALYTIC_REL = 1e-9
ANALYTIC_ABS = 1e-12
ANALYTIC_PREFIXES = ("rank1", "rank2", "slepian_", "eps_")
ANALYTIC_EXACT_NAMES = ("continuum",)
MC_PREFIXES = ("mc_", "trunc_")
_MC_FULL = re.compile(r"^(\S+) \(std_err (\S+)\)$")


def read_csv(path: str) -> tuple[list[tuple[str, str]], list[str], list[list[str]]]:
    """Return (header items, column names, rows) of a fas-extremes CSV."""
    header: list[tuple[str, str]] = []
    lines: list[str] = []
    with open(path, encoding="ascii") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line.startswith("# "):
                key, sep, val = line[2:].partition(": ")
                header.append((key, val) if sep else (key, ""))
            elif line:
                lines.append(line)
    if not lines:
        return header, [], []
    return header, lines[0].split(","), [ln.split(",") for ln in lines[1:]]


def _is_analytic(name: str) -> bool:
    return name in ANALYTIC_EXACT_NAMES or name.startswith(ANALYTIC_PREFIXES)


def _is_mc(name: str) -> bool:
    return name.startswith(MC_PREFIXES)


def binomial_ok(p: float, n: int, p_ref: float, n_ref: int) -> bool:
    """Two independent estimates of one probability agree within Z sigma."""
    pooled = (p * n + p_ref * n_ref) / (n + n_ref)
    sigma = math.sqrt(max(0.0, pooled * (1.0 - pooled)) * (1.0 / n + 1.0 / n_ref))
    return abs(p - p_ref) <= max(Z * sigma, 1.0 / min(n, n_ref))


def std_err_ok(se: float, p: float, n: int, rel: float) -> bool:
    want = math.sqrt(max(0.0, p * (1.0 - p)) / n)
    return abs(se - want) <= rel * want + 1e-15


def analytic_ok(a: float, b: float) -> bool:
    return abs(a - b) <= ANALYTIC_REL * max(abs(a), abs(b)) + ANALYTIC_ABS


def _trials_of(config: str) -> tuple[int | None, str]:
    """Split the trials= token out of a config line."""
    trials = None
    rest = []
    for tok in config.split(" "):
        if tok.startswith("trials="):
            trials = int(tok[len("trials="):])
        else:
            rest.append(tok)
    return trials, " ".join(rest)


def compare(out_path: str, ref_path: str, seed: int, trials: int) -> list[str]:
    """Return a list of mismatch descriptions; empty means the output passes."""
    head, cols, rows = read_csv(out_path)
    rhead, rcols, rrows = read_csv(ref_path)
    errors: list[str] = []

    keys = [k for k, _ in head]
    rkeys = [k for k, _ in rhead]
    if keys != rkeys:
        errors.append(f"header keys {keys} != reference {rkeys}")
        return errors
    got_trials, rest = _trials_of(dict(head).get("config", ""))
    ref_trials, rrest = _trials_of(dict(rhead).get("config", ""))
    if rest != rrest:
        errors.append(f"header config {rest!r} != reference {rrest!r}")
    if got_trials != trials:
        errors.append(f"header trials {got_trials} != requested {trials}")
    if ref_trials is None:
        errors.append("reference config has no trials")
        return errors
    for (key, val), (_, rval) in zip(head, rhead):
        if key in ("timestamp", "config"):
            continue
        if key == "seed":
            if val != str(seed):
                errors.append(f"header seed {val!r} != requested {seed}")
        elif key.startswith("mc_full_"):
            m, rm = _MC_FULL.match(val), _MC_FULL.match(rval)
            if not (m and rm):
                errors.append(f"header {key}: unparsable {val!r}")
                continue
            p, se, p_ref = float(m.group(1)), float(m.group(2)), float(rm.group(1))
            if not binomial_ok(p, trials, p_ref, ref_trials):
                errors.append(f"header {key}: {p} vs reference {p_ref} beyond {Z} sigma")
            # the header prints std_err to 3 significant digits
            if not std_err_ok(se, p, trials, 5e-3):
                errors.append(f"header {key}: std_err {se} inconsistent with p {p}")
        elif val != rval:
            errors.append(f"header {key}: {val!r} != reference {rval!r}")

    if cols != rcols:
        errors.append(f"columns {cols} != reference {rcols}")
        return errors
    if len(rows) != len(rrows):
        errors.append(f"{len(rows)} rows != reference {len(rrows)}")
        return errors

    estimate_col = {}
    for name in cols:
        if name.startswith("std_err_"):
            suffix = name[len("std_err_"):]
            estimate_col[name] = next(
                (i for i, c in enumerate(cols) if _is_mc(c) and c.endswith("_" + suffix)),
                None,
            )

    for r, (row, rrow) in enumerate(zip(rows, rrows)):
        if len(row) != len(cols):
            errors.append(f"row {r}: {len(row)} cells, expected {len(cols)}")
            continue
        for c, name in enumerate(cols):
            got, want = row[c], rrow[c]
            where = f"row {r} {name}"
            if got == "" or want == "":
                if got != want:
                    errors.append(f"{where}: {got!r} != reference {want!r}")
                continue
            try:
                if _is_mc(name):
                    if not binomial_ok(float(got), trials, float(want), ref_trials):
                        errors.append(f"{where}: {got} vs reference {want} beyond {Z} sigma")
                elif name in estimate_col:
                    i = estimate_col[name]
                    if i is None or not std_err_ok(float(got), float(row[i]), trials, 1e-9):
                        errors.append(f"{where}: {got} inconsistent with its estimate")
                elif _is_analytic(name):
                    if not analytic_ok(float(got), float(want)):
                        errors.append(f"{where}: {got} != reference {want}")
                elif got != want:
                    errors.append(f"{where}: {got!r} != reference {want!r}")
            except ValueError:
                errors.append(f"{where}: not a number: {got!r}")
    return errors

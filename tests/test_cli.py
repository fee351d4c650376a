"""Experiment CLI: exit codes, output determinism, metadata, the
per-experiment flag contract, and the flag preprocessing that lets comma
lists start with a negative number.

All invocations go through main(argv) in-process, so the tests see the
same byte stream a terminal run would produce without paying process
startup per case. Subprocesses check what needs a fresh interpreter:
which modules importing the CLI loads, and that the CSV does not depend
on the BLAS thread count, which BLAS reads at load.
"""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fas_extremes
from fas_extremes.bounds import slepian_sandwich
from fas_extremes.cli import DEFAULT_WORKERS, EXPERIMENTS, _join_valued_flags, main
from fas_extremes.fieldmodel import ApertureConfig, correlation_matrix
from fas_extremes.kernels import CorrelationModel


# the experiment flags each experiment reads: 32 of the 70 pairs
READS = {
    "kernel-compare": (),
    "psd": (),
    "eigen": ("W", "N"),
    "outage-snr": ("model", "W", "N", "snr_db", "trials"),
    "outage-aperture": ("W", "N", "snr_db", "trials"),
    "dof": ("W", "N"),
    "outage-ports": ("W", "N", "snr_db", "trials"),
    "kl-convergence": ("W", "N", "snr_db", "K", "trials"),
    "slepian-blocks": ("model", "W", "N", "snr_db", "blocks", "trials"),
    "gauss-error": ("W", "N", "snr_db", "trials"),
}

# every experiment flag: (value given, value the runner should see)
FLAG_VALUES = {
    "model": ("jakes", "jakes"),
    "W": ("1.5", 1.5),
    "N": ("7", 7),
    "snr_db": ("-3,4", [-3.0, 4.0]),
    "K": ("2", 2),
    "blocks": ("2", 2),
    "trials": ("50", 50),
}

# the benchmark's workloads, copied from perfbench/run.py
PERFBENCH_ARGV = {
    "snr-sweep": ["outage-snr", "--model", "gauss", "--N", "20", "--W", "1",
                  "--snr-db", "-10,-5,0,5,10,15,20"],
    "dense-aperture": ["outage-aperture", "--W", "1", "--N", "200", "--snr-db", "-5,0,5"],
    "kl-ladder": ["kl-convergence", "--N", "64", "--W", "1", "--K", "12", "--snr-db", "-5,5"],
}
REFERENCE_DIR = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def run(tmp_path, *argv):
    out = tmp_path / "out.csv"
    rc = main([*argv, "--out", str(out)])
    return rc, out


def body_lines(path):
    """File content minus the volatile timestamp line."""
    with open(path, encoding="ascii") as fh:
        return [ln for ln in fh if not ln.startswith("# timestamp:")]


def data_rows(path):
    with open(path, encoding="ascii") as fh:
        rows = [ln for ln in fh if not ln.startswith("#")]
    return list(csv.DictReader(rows))


class TestExitCodes:
    def test_success(self, tmp_path):
        rc, out = run(tmp_path, "psd")
        assert rc == 0
        assert out.exists()

    def test_usage_error_is_exit_two(self):
        with pytest.raises(SystemExit) as exc:
            main(["no-such-experiment"])
        assert exc.value.code == 2

    def test_compute_error_is_exit_one(self, tmp_path):
        out = tmp_path / "bad.csv"
        for argv in (
            # more blocks than ports is a domain error inside the runner
            ["slepian-blocks", "--N", "20", "--blocks", "25"],
            # a non-finite dB value has no threshold x
            ["outage-snr", "--N", "5", "--snr-db", "inf", "--trials", "100"],
            # slepian-blocks evaluates one SNR and must not drop the rest
            ["slepian-blocks", "--N", "8", "--snr-db", "-5,0", "--trials", "100"],
            # ... and samples one model, so "both" must not fall back to gauss
            ["slepian-blocks", "--N", "8", "--model", "both", "--trials", "100"],
            # near-coincident ports clamp rho_max to 1 - 1e-12, past the
            # Marcum window cap, which must raise rather than run for minutes
            ["outage-snr", "--W", "1e-7", "--N", "2", "--snr-db", "0", "--trials", "1000"],
            # kl-convergence names its columns by SNR, so a repeated one,
            # or -0 beside 0, would share a column and drop cells
            ["kl-convergence", "--N", "8", "--snr-db", "5,5", "--trials", "100"],
            ["kl-convergence", "--N", "8", "--snr-db=-0,0", "--trials", "100"],
        ):
            assert main([*argv, "--out", str(out)]) == 1, argv
            # atomic write: the failed run leaves nothing behind
            assert not out.exists()
            assert not list(tmp_path.iterdir())

    def test_unresolvable_rho_max_is_named(self, tmp_path, capsys):
        # adjacent ports 5e-5 apart put rho_max within 1e-7 of 1, past
        # the Marcum windows of the equi-correlated CDF
        out = tmp_path / "bad.csv"
        argv = ["outage-snr", "--model", "gauss", "--N", "1000", "--W", "0.05",
                "--snr-db", "0", "--trials", "100", "--out", str(out)]
        assert main(argv) == 1
        assert "rho_max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snr", ["-4000", "3300"])
    def test_snr_past_the_float_range_is_named(self, tmp_path, capsys, snr):
        # x = 10^(-snr/10) overflows at -4000 dB and rounds to 0 at 3300 dB
        out = tmp_path / "bad.csv"
        assert main(["outage-snr", "--N", "5", "--snr-db", snr, "--trials", "100",
                     "--out", str(out)]) == 1
        assert f"avg_snr_db = {snr}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["kl-convergence", "slepian-blocks"])
    def test_bad_port_count_is_named(self, tmp_path, capsys, experiment):
        # the port count, not the --K or --blocks range it would set
        out = tmp_path / "bad.csv"
        assert main([experiment, "--N", "0", "--trials", "100", "--out", str(out)]) == 1
        assert "port count N" in capsys.readouterr().err
        assert not out.exists()


class TestDeterminism:
    def test_rerun_identical_modulo_timestamp(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["outage-ports", "--trials", "2000", "--workers", "2", "--W", "1"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert body_lines(a) == body_lines(b)
        with open(a, encoding="ascii") as fh:
            assert any(ln.startswith("# timestamp:") for ln in fh)

    def test_warm_scratch_slab_leaves_bodies_unchanged(self, tmp_path, scratch):
        # the second round runs on a scratch slab the first one left,
        # filled with NaN, which any cell that read stale scratch would show
        runs = (
            ["kl-convergence", "--N", "20", "--K", "4", "--trials", "2000", "--workers", "2"],
            ["outage-snr", "--N", "10", "--snr-db", "-5,0,5", "--trials", "2000"],
        )
        bodies = []
        for warm in (False, True):
            for n, args in enumerate(runs):
                if warm:
                    (left,) = scratch
                    left.fill(np.nan)
                out = tmp_path / f"{warm}-{n}.csv"
                assert main([*args, "--out", str(out)]) == 0
                bodies.append(body_lines(out))
        assert bodies[:2] == bodies[2:]

    @pytest.mark.parametrize("env", ["777", "abc"])
    def test_seed_ignores_the_environment(self, tmp_path, monkeypatch, env):
        # --seed alone sets the seed: an exported FAS_SEED, valid or not,
        # changes neither the header nor a sampled cell
        argv = ("outage-snr", "--N", "5", "--snr-db", "0", "--trials", "200")
        monkeypatch.delenv("FAS_SEED", raising=False)
        bare = body_lines(run(tmp_path, *argv)[1])
        monkeypatch.setenv("FAS_SEED", env)
        rc, out = run(tmp_path, "psd")
        assert rc == 0
        assert "# seed: 42\n" in body_lines(out)
        assert "# seed: 5\n" in body_lines(run(tmp_path, "psd", "--seed", "5")[1])
        assert body_lines(run(tmp_path, *argv)[1]) == bare

    def test_default_seed_without_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv("FAS_SEED", raising=False)
        rc, out = run(tmp_path, "psd")
        assert any(ln == "# seed: 42\n" for ln in body_lines(out))

    def test_default_workers_ignore_cpu_count(self, tmp_path, monkeypatch):
        headers = []
        for cpus in (1, 64):
            monkeypatch.setattr(os, "cpu_count", lambda cpus=cpus: cpus)
            rc, out = run(tmp_path, "psd")
            assert rc == 0
            headers += [ln for ln in body_lines(out) if ln.startswith("# workers:")]
        assert headers == [f"# workers: {DEFAULT_WORKERS}\n"] * 2


class TestFlagPreprocessing:
    def test_join_valued_flags(self):
        assert _join_valued_flags(["--snr-db", "-5,0,5"]) == ["--snr-db=-5,0,5"]
        assert _join_valued_flags(["--snr-db=-5"]) == ["--snr-db=-5"]
        # --th-db is gone, so it passes through for argparse to reject
        assert _join_valued_flags(["--th-db", "-3"]) == ["--th-db", "-3"]
        # W is never negative, so argparse reads its value unaided
        assert _join_valued_flags(["--W", "1,2", "--N", "10"]) == [
            "--W", "1,2", "--N", "10"]
        assert _join_valued_flags([]) == []
        # flag at end of argv with no value: left for argparse to report
        assert _join_valued_flags(["--snr-db"]) == ["--snr-db"]

    def test_negative_snr_list_parses(self, tmp_path):
        rc, out = run(tmp_path, "outage-snr", "--snr-db", "-5,0",
                      "--trials", "1000", "--N", "5", "--workers", "1")
        assert rc == 0
        rows = data_rows(out)
        assert [float(r["snr_db"]) for r in rows] == [-5.0, 0.0]


class TestOutputs:
    def test_kernel_compare_grid(self, tmp_path):
        rc, out = run(tmp_path, "kernel-compare")
        rows = data_rows(out)
        assert len(rows) == 301
        assert float(rows[0]["delta"]) == 0.0
        assert float(rows[-1]["delta"]) == pytest.approx(0.6)
        assert float(rows[0]["rho_jakes"]) == 1.0
        assert float(rows[0]["abs_error"]) == 0.0

    def test_psd_singularity_cell_blank(self, tmp_path):
        rc, out = run(tmp_path, "psd")
        rows = data_rows(out)
        assert len(rows) == 1201
        at_edge = [r for r in rows if abs(float(r["f"])) == 1.0]
        assert len(at_edge) == 2
        assert all(r["psd_jakes"] == "" for r in at_edge)
        assert all(float(r["psd_gauss"]) > 0 for r in at_edge)
        meta = [ln for ln in body_lines(out)
                if ln.startswith("# spectral_leakage:")]
        assert len(meta) == 1
        assert float(meta[0].split(":")[1]) == pytest.approx(0.157299, abs=1e-5)

    def test_outage_snr_columns(self, tmp_path):
        rc, out = run(tmp_path, "outage-snr", "--trials", "1000", "--N", "5",
                      "--snr-db", "0", "--workers", "1")
        rows = data_rows(out)
        assert list(rows[0]) == [
            "snr_db", "x", "mc_jakes", "std_err_jakes", "mc_gauss",
            "std_err_gauss", "rank1", "rank2", "slepian_lo", "slepian_hi",
            "continuum", "continuum_clamped",
        ]
        r = rows[0]
        assert float(r["slepian_lo"]) <= float(r["slepian_hi"])
        assert r["continuum_clamped"] in ("true", "false")

    def test_outage_ports_columns(self, tmp_path):
        rc, out = run(tmp_path, "outage-ports", "--trials", "1000", "--N", "5",
                      "--W", "2", "--snr-db", "-5", "--workers", "1")
        rows = data_rows(out)
        assert list(rows[0]) == [
            "N", "W", "snr_db", "x", "mc_jakes", "std_err_jakes", "mc_gauss",
            "std_err_gauss", "continuum", "continuum_clamped",
        ]
        # the printed formula is about -0.23 here
        assert rows[0]["continuum"] == "0" and rows[0]["continuum_clamped"] == "true"

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_every_experiment_writes_wellformed_csv(self, tmp_path, name):
        argv = [name, "--workers", "1"]
        if "trials" in READS[name]:
            argv += ["--trials", "500"]
        if name in ("outage-snr", "outage-aperture", "outage-ports",
                    "kl-convergence"):
            argv += ["--N", "6"]
        if name == "slepian-blocks":
            argv += ["--N", "8", "--blocks", "2"]
        rc, out = run(tmp_path, *argv)
        assert rc == 0
        rows = data_rows(out)
        assert rows, f"{name} wrote no data rows"
        header = list(rows[0])
        for row in rows:
            assert list(row) == header
        lines = body_lines(out)
        assert lines[0].startswith("# fas-extremes ")
        assert lines[1] == f"# experiment: {name}\n"


class TestFlagContract:
    @pytest.mark.parametrize("flag", FLAG_VALUES)
    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_flag_taken_or_rejected(self, tmp_path, monkeypatch, capsys, name, flag):
        given, expected = FLAG_VALUES[flag]
        option = "--" + flag.replace("_", "-")
        seen = {}

        def fake_runner(args):
            seen.update(vars(args))
            return [{"col": 1}], {}

        monkeypatch.setitem(EXPERIMENTS, name, (fake_runner, EXPERIMENTS[name][1]))
        out = tmp_path / "out.csv"
        argv = [name, option, given, "--out", str(out)]
        if flag in READS[name]:
            assert main(argv) == 0
            assert seen[flag] == expected
            assert out.exists()
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2
            assert f"{name} does not read {option}" in capsys.readouterr().err
            assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("name", ["psd", "outage-snr"])
    def test_seed_out_of_range_exits_two(self, tmp_path, capsys, name):
        # checked in main for every experiment
        extra = ["--N", "5", "--snr-db", "0", "--trials", "10"] if name == "outage-snr" else []
        for seed in (-1, 2**64):
            with pytest.raises(SystemExit) as exc:
                run(tmp_path, name, *extra, "--seed", str(seed))
            assert exc.value.code == 2
            assert "--seed must be in [0, 2^64)" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())
        # the largest seed runs
        assert run(tmp_path, name, *extra, "--seed", str(2**64 - 1))[0] == 0

    def test_out_without_directory_exits_two_before_running(self, tmp_path, monkeypatch,
                                                            capsys):
        # a permission-denied directory is not tested: the suite may run as root
        def fail_runner(args):
            raise AssertionError("the runner ran")

        monkeypatch.setitem(EXPERIMENTS, "outage-snr", (fail_runner, EXPERIMENTS["outage-snr"][1]))
        for out in (tmp_path / "missing" / "x.csv", tmp_path, f"{tmp_path / 'missing'}{os.sep}"):
            with pytest.raises(SystemExit) as exc:
                main(["outage-snr", "--N", "5", "--snr-db", "0", "--trials", "10",
                      "--out", str(out)])
            assert exc.value.code == 2
            err = capsys.readouterr().err
            assert "must name a file in an existing directory" in err
            assert "Traceback" not in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("option", ["--th-db", "--quad-order"])
    def test_removed_flag_exits_two(self, tmp_path, option):
        # the threshold is 0 dB and the rank-2 rule 16 points, not flags
        with pytest.raises(SystemExit) as exc:
            run(tmp_path, "outage-snr", option, "3", "--trials", "10")
        assert exc.value.code == 2
        assert not list(tmp_path.iterdir())

    def test_help_lists_each_experiments_flags(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["-h"])
        assert exc.value.code == 0
        epilog = capsys.readouterr().out.split("experiment flags")[1]
        # an entry is a two-space-indented line plus its deeper continuations
        entries = re.findall(r"^  (\S+): (.*(?:\n {3,}.*)*)", epilog, re.M)
        listed = {name: re.findall(r"--([\w-]+)=", text) for name, text in entries}
        assert listed == {name: [f.replace("_", "-") for f in flags]
                          for name, flags in READS.items()}

    def test_table_lists_the_contract(self):
        assert {name: tuple(defaults) for name, (_, defaults) in EXPERIMENTS.items()} == READS

    @pytest.mark.parametrize("workload", PERFBENCH_ARGV)
    def test_config_line_matches_benchmark_reference(self, tmp_path, workload):
        # refcheck compares this line, minus trials=, with the reference
        def config(path):
            with open(path, encoding="ascii") as fh:
                line = next(ln for ln in fh if ln.startswith("# config:"))
            return re.sub(r" trials=\d+", "", line)

        rc, out = run(tmp_path, *PERFBENCH_ARGV[workload], "--trials", "10",
                      "--workers", "2", "--seed", "42")
        assert rc == 0
        assert config(out) == config(REFERENCE_DIR / f"{workload}.csv")


def test_cli_import_loads_numpy_only():
    # the runtime needs NumPy alone; test-only oracles must not leak in
    src = os.path.dirname(os.path.dirname(fas_extremes.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = ("import sys, fas_extremes.cli; "
             "print(sorted({m.split('.')[0] for m in sys.modules} "
             "& {'scipy', 'mpmath', 'hypothesis'}))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


@pytest.mark.parametrize(
    "argv",
    [
        ["outage-aperture", "--W", "1", "--N", "200", "--trials", "200000", "--workers", "2",
         "--snr-db", "-5,0,5"],
        ["outage-aperture", "--W", "5", "--N", "400", "--trials", "100000", "--workers", "3",
         "--snr-db", "-5,0,5"],
        ["kl-convergence", "--N", "400", "--W", "5", "--K", "30", "--trials", "4000",
         "--snr-db", "-5", "--workers", "2"],
        ["outage-snr", "--model", "both", "--N", "20", "--W", "1", "--trials", "2000"],
        ["eigen", "--N", "400", "--W", "5"],
    ],
    ids=["N200-W1", "N400-W5", "kl-convergence", "outage-snr", "eigen"],
)
def test_csv_does_not_depend_on_blas_threads(tmp_path, argv):
    # one command, one CSV: the factor, the modes taken from it, the draws
    # and the Marcum rows must not follow the BLAS thread count. LAPACK's
    # Cholesky gave the outage-aperture argvs different mc_* cells at
    # OPENBLAS_NUM_THREADS=1 and =2, and an N x N eigh moved the eps_*
    # cells of the kl-convergence argv and nearly every eigen row.
    src = os.path.dirname(os.path.dirname(fas_extremes.__file__))
    bodies = []
    for threads in ("1", "2"):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "OMP_NUM_THREADS": threads,
               "MKL_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                   p for p in (src, os.environ.get("PYTHONPATH")) if p)}
        out = tmp_path / f"threads{threads}.csv"
        done = subprocess.run(
            [sys.executable, "-m", "fas_extremes.cli", *argv, "--seed", "42", "--out", str(out)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        bodies.append(body_lines(out))
    assert bodies[0] == bodies[1]


def test_outage_snr_sandwich_cells_equal_scalar_calls(tmp_path):
    # one sandwich call per field covers every row, repeats included
    rc, out = run(tmp_path, "outage-snr", "--model", "jakes", "--N", "10", "--W", "2",
                  "--snr-db", "5,-5,5,0", "--trials", "200", "--seed", "1")
    assert rc == 0
    R = correlation_matrix(ApertureConfig(W=2.0, N=10, model=CorrelationModel.JAKES))
    rows = data_rows(out)
    assert [r["snr_db"] for r in rows] == ["5", "-5", "5", "0"]
    for row in rows:
        lo, hi = slepian_sandwich(R, float(row["x"]))
        assert (float(row["slepian_lo"]), float(row["slepian_hi"])) == (lo, hi)

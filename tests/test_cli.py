"""Experiment CLI: exit codes, output determinism, metadata, and the
flag preprocessing that lets comma lists start with a negative number.

All invocations go through main(argv) in-process; nothing here shells
out, so the tests see the same byte stream a terminal run would produce
without paying process startup per case.
"""

import csv
import os

import pytest

from fas_extremes.cli import DEFAULT_WORKERS, EXPERIMENTS, _join_valued_flags, main


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
        ):
            assert main([*argv, "--out", str(out)]) == 1, argv
            # atomic write: the failed run leaves nothing behind
            assert not out.exists()
            assert not list(tmp_path.iterdir())


class TestDeterminism:
    def test_rerun_identical_modulo_timestamp(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        args = ["outage-ports", "--trials", "2000", "--workers", "2",
                "--model", "gauss", "--W", "1"]
        assert main([*args, "--out", str(a)]) == 0
        assert main([*args, "--out", str(b)]) == 0
        assert body_lines(a) == body_lines(b)
        with open(a, encoding="ascii") as fh:
            assert any(ln.startswith("# timestamp:") for ln in fh)

    def test_seed_env_fallback_and_flag_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FAS_SEED", "777")
        rc, out = run(tmp_path, "psd")
        assert rc == 0
        assert any(ln == "# seed: 777\n" for ln in body_lines(out))
        rc, out2 = run(tmp_path, "psd", "--seed", "5")
        assert any(ln == "# seed: 5\n" for ln in body_lines(out2))

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
        assert _join_valued_flags(["--W", "1,2", "--N", "10"]) == [
            "--W=1,2", "--N", "10"]
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

    @pytest.mark.parametrize("name", EXPERIMENTS)
    def test_every_experiment_writes_wellformed_csv(self, tmp_path, name):
        argv = [name, "--trials", "500", "--workers", "1"]
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

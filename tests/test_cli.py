"""Command-line interface: files, exit codes, determinism."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import varcausal
from varcausal.cli import main, read_config_file
from varcausal.process import VarModel, values_from_csv
from varcausal.seeding import derive_rng


def write_model(tmp_path, name, coeffs, noise=1.0):
    path = tmp_path / name
    path.write_text(VarModel.from_coeffs(coeffs, noise).to_json())
    return str(path)


class TestSimulateCommand:
    def test_writes_csv_with_header(self, tmp_path):
        model = write_model(tmp_path, "m.json", [0.5])
        out = tmp_path / "path.csv"
        rc = main(["simulate", "--model", model, "--n", "100", "--seed", "3", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "t,x_1"
        assert len(lines) == 101

    def test_identical_reruns(self, tmp_path):
        model = write_model(tmp_path, "m.json", [0.5, 0.2])
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["simulate", "--model", model, "--n", "50", "--seed", "9", "--out", str(a)])
        main(["simulate", "--model", model, "--n", "50", "--seed", "9", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unstable_model_refused_with_diagnostic(self, tmp_path, capsys):
        model = write_model(tmp_path, "m.json", [1.5])
        out = tmp_path / "p.csv"
        rc = main(["simulate", "--model", model, "--n", "10", "--out", str(out)])
        assert rc == 3
        err = capsys.readouterr().err
        assert err.startswith("error: numerical:")
        assert "1.5" in err

    def test_allow_unstable_flag(self, tmp_path):
        model = write_model(tmp_path, "m.json", [1.5])
        out = tmp_path / "p.csv"
        rc = main(
            ["simulate", "--model", model, "--n", "10", "--seed", "4", "--allow-unstable",
             "--out", str(out)]
        )
        assert rc == 0
        got = values_from_csv(out.read_text())[:, 0]
        # Reference: the plain recursion from a zero start.
        eps = derive_rng(4).standard_normal(10)
        want = np.zeros(10)
        for t in range(10):
            want[t] = eps[t] + (1.5 * want[t - 1] if t else 0.0)
        assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    @pytest.mark.parametrize("flags", [[], ["--allow-unstable"]])
    def test_nonpositive_length_is_bad_input(self, tmp_path, capsys, flags):
        model = write_model(tmp_path, "m.json", [1.5])
        for n in ("0", "-1"):
            rc = main(["simulate", "--model", model, "--n", n, *flags,
                       "--out", str(tmp_path / "p.csv")])
            assert rc == 2
            assert capsys.readouterr().err.startswith("error: bad-input: n must be positive")

    def test_near_unit_root_burn_in_is_bad_input(self, tmp_path, capsys):
        # The default burn-in rule asks for 2.07e13 steps at this modulus.
        model = write_model(tmp_path, "m.json", [0.999999999999])
        out = tmp_path / "p.csv"
        rc = main(["simulate", "--model", model, "--n", "10", "--out", str(out)])
        assert rc == 2 and not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: bad-input:") and "--burn-in" in err
        rc = main(["simulate", "--model", model, "--n", "10", "--burn-in", "500", "--out", str(out)])
        assert rc == 0 and len(values_from_csv(out.read_text())) == 10

    def test_missing_model_file(self, tmp_path, capsys):
        rc = main(["simulate", "--model", str(tmp_path / "nope.json"), "--n", "5",
                   "--out", str(tmp_path / "o.csv")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad-input:")


class TestImportHygiene:
    def test_import_leaves_out_scipy_signal_and_stats(self):
        # Each takes most of a second to import, which every CLI call would
        # pay; the package needs neither.
        code = (
            "import sys, varcausal, varcausal.cli; "
            "print([m for m in ('scipy.signal', 'scipy.stats') if m in sys.modules])"
        )
        src = str(Path(varcausal.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            check=True,
        )
        assert result.stdout.strip() == "[]"


class TestRiskCommand:
    def test_identical_models_zero_diff(self, tmp_path, capsys):
        truth = write_model(tmp_path, "t.json", [0.5, 0.3])
        rc = main(["risk", "--truth", truth, "--fitted", truth])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["diff"] == pytest.approx(0.0, abs=1e-12)

    def test_first_order_equality(self, tmp_path, capsys):
        truth = write_model(tmp_path, "t.json", [0.5])
        fitted = write_model(tmp_path, "f.json", [0.8])
        rc = main(["risk", "--truth", truth, "--fitted", fitted])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["g_avg"] == pytest.approx(payload["s_omega"], abs=1e-12)

    def test_worked_two_lag_values(self, tmp_path, capsys):
        truth = write_model(tmp_path, "t.json", [0.5, 0.3])
        fitted = write_model(tmp_path, "f.json", [0.6, 0.2])
        rc = main(["risk", "--truth", truth, "--fitted", fitted])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        gamma1 = 1.6025641025641026
        assert payload["diff"] == pytest.approx(0.02 * gamma1, rel=1e-9)
        assert payload["noise_floor"] == pytest.approx(1.0)

    def test_nonstationary_truth_is_numerical_failure(self, tmp_path, capsys):
        truth = write_model(tmp_path, "t.json", [1.1])
        fitted = write_model(tmp_path, "f.json", [0.5])
        rc = main(["risk", "--truth", truth, "--fitted", fitted])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error: numerical:")

    def test_dimension_mismatch_is_bad_input(self, tmp_path, capsys):
        truth = write_model(tmp_path, "t.json", [0.5])
        fitted = tmp_path / "f.json"
        fitted.write_text(VarModel.from_coeffs([0.1 * np.eye(2)]).to_json())
        rc = main(["risk", "--truth", truth, "--fitted", str(fitted)])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error: bad-input:")


class TestBoundsCommand:
    def test_table_lists_all_closed_form_bounds(self, tmp_path, capsys):
        truth = write_model(tmp_path, "t.json", [0.5, 0.3])
        fitted = write_model(tmp_path, "f.json", [0.6, 0.2])
        rc = main(["bounds", "--truth", truth, "--fitted", fitted])
        assert rc == 0
        out = capsys.readouterr().out
        assert "prop1" in out and "cor2" in out and "schurTight" in out
        assert out.splitlines()[0].split() == ["name", "lhs", "rhs", "holds", "slack"]

    def test_with_path_adds_finite_sample_bound(self, tmp_path, capsys):
        truth = write_model(tmp_path, "t.json", [0.5, 0.3])
        fitted = write_model(tmp_path, "f.json", [0.6, 0.2])
        path_csv = tmp_path / "p.csv"
        main(["simulate", "--model", truth, "--n", "200", "--seed", "1", "--out", str(path_csv)])
        capsys.readouterr()
        rc = main(
            ["bounds", "--truth", truth, "--fitted", fitted, "--path", str(path_csv),
             "--rho", "0.85"]
        )
        assert rc == 0
        assert "thm1" in capsys.readouterr().out


class TestExperimentCommand:
    def _write_cfg(self, tmp_path, text):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(text)
        return str(cfg)

    def test_minimal_standard_run(self, tmp_path):
        cfg = self._write_cfg(
            tmp_path,
            "n_processes = 10\norders = 2\nn_train = 50\nn_test = 100\n"
            "bucket_size = 5\nmc_draws = 50\n",
        )
        out = tmp_path / "out"
        rc = main(["experiment", "--config", cfg, "--seed", "5", "--out", str(out)])
        assert rc == 0
        records = (out / "records.csv").read_text().strip().split("\n")
        assert records[0].startswith("process_id,")
        assert len(records) == 11
        summaries = (out / "summaries.csv").read_text().strip().split("\n")
        assert summaries[0] == "kappa_mid,max_diff,mean_diff,q90_diff,bound,count"
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["master_seed"] == 5

    def test_rerun_is_byte_identical(self, tmp_path):
        cfg = self._write_cfg(
            tmp_path,
            "n_processes = 6\norders = 2,3\nn_train = 40\nn_test = 80\n"
            "bucket_size = 6\nmc_draws = 20\n",
        )
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["experiment", "--config", cfg, "--seed", "2", "--out", str(out)])
            assert rc == 0
            outs.append(out)
        for fname in ("records.csv", "summaries.csv", "metadata.json"):
            assert (outs[0] / fname).read_bytes() == (outs[1] / fname).read_bytes()

    def test_sample_sweep_one_file_per_size(self, tmp_path):
        cfg = self._write_cfg(
            tmp_path,
            "mode = sampleSweep\nn_processes = 4\norders = 2\nestimators = ridge\n"
            "sweep_train_sizes = 20,40\nn_test = 60\nmc_draws = 0\n",
        )
        out = tmp_path / "sweep"
        rc = main(["experiment", "--config", cfg, "--seed", "1", "--out", str(out)])
        assert rc == 0
        assert (out / "summaries_n20.csv").exists()
        assert (out / "summaries_n40.csv").exists()

    def test_set_overrides_config_file(self, tmp_path):
        cfg = self._write_cfg(tmp_path, "n_processes = 50\norders = 2\nmc_draws = 0\n")
        out = tmp_path / "o"
        rc = main(
            ["experiment", "--config", cfg, "--set", "n_processes=4",
             "--set", "n_train=40", "--set", "bucket_size=4",
             "--set", "n_test=60", "--seed", "0", "--out", str(out)]
        )
        assert rc == 0
        meta = json.loads((out / "metadata.json").read_text())
        assert meta["config"]["n_processes"] == 4

    def test_bad_config_key_is_config_error(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, "bogus_key = 3\n")
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: config:")

    def test_threads_is_neither_flag_nor_config_key(self, tmp_path, capsys):
        # The study runs serially; there is no worker count to set.
        cfg = self._write_cfg(tmp_path, "n_processes = 2\norders = 2\nmc_draws = 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["experiment", "--config", cfg, "--threads", "2", "--out", str(tmp_path / "x")])
        assert exc.value.code == 2
        cfg = self._write_cfg(tmp_path, "threads = 4\n")
        capsys.readouterr()
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: config: unknown config key")

    @pytest.mark.parametrize("sizes", ["20,20", "3"])
    def test_bad_sweep_sizes_are_config_errors(self, tmp_path, capsys, sizes):
        # Duplicate sizes used to write every record twice; a size too
        # short for the order failed after sampling with exit 2.
        cfg = self._write_cfg(
            tmp_path,
            f"mode = sampleSweep\nn_processes = 2\norders = 3\nsweep_train_sizes = {sizes}\n"
            "mc_draws = 0\n",
        )
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: config: sweep_train_sizes")
        assert not (tmp_path / "x").exists()

    def test_bad_study_setting_is_config_error(self, tmp_path, capsys):
        # A non-positive order pair used to fail after sampling with exit 2.
        rc = main(
            ["experiment", "--set", "n_processes=2", "--set", "orders=2",
             "--set", "order_pairs=0:2", "--set", "mc_draws=0", "--out", str(tmp_path / "x")]
        )
        assert rc == 4
        assert capsys.readouterr().err.startswith("error: config: orders must be positive")
        assert not (tmp_path / "x").exists()

    def test_malformed_config_line(self, tmp_path, capsys):
        cfg = self._write_cfg(tmp_path, "n_processes 10\n")
        rc = main(["experiment", "--config", cfg, "--out", str(tmp_path / "x")])
        assert rc == 4


class TestConfigParsing:
    def test_types_and_comments(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text(
            "# a comment\nn_processes = 10\norders = 3,5,7  # inline\n"
            "coeff_lo = -2.0\nestimators = ols,ridge\norder_pairs = 1:3,3:1\n"
        )
        mapping = read_config_file(str(cfg))
        assert mapping["n_processes"] == 10
        assert mapping["orders"] == (3, 5, 7)
        assert mapping["coeff_lo"] == -2.0
        assert mapping["estimators"] == ("ols", "ridge")
        assert mapping["order_pairs"] == ((1, 3), (3, 1))

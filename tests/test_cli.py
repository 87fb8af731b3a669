import ast
import csv
import hashlib
import json
import os
import platform
import re
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
import scipy
import yaml
from hypothesis import given, settings, strategies as st

import sparselv
from sparselv import SweepConfig, __version__, cli, experiments
from sparselv.cli import EXIT_INVALID_CONFIG, EXIT_NUMERICAL_FAILURE, SOLVE_COLUMNS, main
from sparselv.experiments import MODELS, run_trials


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(kwargs))
    return str(path)


def read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


def assert_core_digest(path, digests):
    """The file's SHA-256 is the one ``digests`` records for the OpenBLAS
    core that its sidecar names; on a core with none recorded, the failure
    names the core and the digest the run wrote."""
    cores = json.loads(Path(f"{path}.meta.json").read_text())["blas_cores"]
    core = "+".join(sorted(set(cores.values())))
    digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
    assert core in digests, f"no digest recorded for OpenBLAS core {core!r}; it wrote {digest}"
    assert digest == digests[core], f"OpenBLAS core {core!r}"


class TestPattern:
    def test_stdout_text(self, capsys):
        assert main(["pattern", "--n", "12", "--d", "3", "--model", "general_regular"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].split()[:3] == ["12", "3", "general_regular"]
        assert len(lines) == 13

    def test_out_file_round_trip(self, tmp_path):
        out = str(tmp_path / "pattern.txt")
        assert main(["pattern", "--n", "12", "--d", "4", "--model",
                     "block_permutation", "--out", out]) == 0
        with open(out) as f:
            assert f.readline() == "12 4 block_permutation -\n"
        row_cols = np.loadtxt(out, dtype=np.int64, skiprows=1, ndmin=2)
        assert row_cols.shape == (12, 4)
        # Each row holds one of the three dense 4 x 4 blocks' column ranges.
        assert {tuple(r) for r in row_cols} <= {tuple(range(4 * b, 4 * b + 4)) for b in range(3)}

    # SHA-256 of the output bytes, recorded when the text writer was a
    # Python loop over rows; the same bytes on stdout and in the --out file.
    DIGESTS = {
        "--n 12 --d 3 --model block_permutation":
            "9f52afe81ca5e2feec1e85df44a6268f1c5a332c1f2427bf641c1a70db3d8b80",
        "--n 30 --d 4 --model general_regular --seed 11":
            "1161f658cd1497a82c57a3eb7c92884fab078ae57b64188a4f964dc8c24874c6",
        "--n 5 --model full":
            "c4dcf3e042320719a8e9b16c5293e27e05e60fe69d98185c11aa5583815a3f84",
        "--n 40 --model proportional --beta 0.25":
            "131c4d93ddd5e46accdadd97453ba908fbaea9ec6e3b42fe6765b01e051ae116",
    }

    @pytest.mark.parametrize("args", sorted(DIGESTS))
    def test_frozen_output_bytes(self, args, tmp_path, capsys):
        assert main(["pattern", *args.split()]) == 0
        stdout = capsys.readouterr().out.encode()
        out = tmp_path / "pattern.txt"
        assert main(["pattern", *args.split(), "--out", str(out)]) == 0
        for data in (stdout, out.read_bytes()):
            assert hashlib.sha256(data).hexdigest() == self.DIGESTS[args]

    def test_seed_changes_pattern(self, capsys):
        main(["pattern", "--n", "20", "--d", "3", "--model", "general_regular",
              "--seed", "1"])
        first = capsys.readouterr().out
        main(["pattern", "--n", "20", "--d", "3", "--model", "general_regular",
              "--seed", "2"])
        assert capsys.readouterr().out != first


class TestSolve:
    ARGS = ["solve", "--n", "60", "--d", "6", "--kappa", "8.0"]

    def test_csv_scalars(self, capsys):
        assert main(self.ARGS) == 0
        header, rows = capsys.readouterr().out.strip().split("\n")
        assert header.split(",")[:3] == ["feasible", "min_x", "argmin"]

    def test_json_keys(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {
            "feasible", "min_x", "argmin", "min_Z", "residual_inf",
            "alpha", "n", "d", "seed",
        }

    def test_full_state(self, capsys):
        assert main(self.ARGS + ["--full-state"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert list(payload) == ["x", *SOLVE_COLUMNS]
        assert len(payload["x"]) == 60

    def test_kappa_grid_needs_kappa_flag(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=60, d=6, kappa_grid=[8.0, 0.1])
        assert main(["solve", "--config", cfg]) == EXIT_INVALID_CONFIG
        assert "[0.1, 8.0]" in capsys.readouterr().err
        assert main(["solve", "--config", cfg, "--kappa", "8.0"]) == 0

    def test_oscillating_divergence_exits_numerical_failure(self, capsys):
        args = ["solve", "--n", "60", "--d", "6", "--kappa", "0.2", "--seed", "3"]
        assert main(args) == EXIT_NUMERICAL_FAILURE
        assert capsys.readouterr().out == ""

    def test_out_file_with_meta(self, tmp_path):
        out = str(tmp_path / "solve.json")
        assert main(self.ARGS + ["--format", "json", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload["n"] == 60
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["config"]["n"] == 60

    # SHA-256 of the JSON, recorded when the compiled product came in with
    # the import of scipy.sparse; the same bytes on stdout and in the file.
    FULL_STATE_DIGEST = "4a5997e087c5d0b4267c318db1ecabfb35e07a2bd446778e6533987cd6d707ef"

    def test_frozen_full_state_bytes(self, tmp_path, capsys):
        argv = self.ARGS + ["--full-state", "--format", "json"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out.encode()
        out = tmp_path / "solve.json"
        assert main(argv + ["--out", str(out)]) == 0
        for data in (stdout, out.read_bytes()):
            assert hashlib.sha256(data).hexdigest() == self.FULL_STATE_DIGEST

    def test_wall_time_covers_the_solve(self, monkeypatch, tmp_path):
        # The solve runs inside run_trials, whose wall time the sidecar records.
        solve = cli.solve_feasibility

        def slow(M):
            time.sleep(0.2)
            return solve(M)

        monkeypatch.setattr(cli, "solve_feasibility", slow)
        out = str(tmp_path / "solve.csv")
        assert main(self.ARGS + ["--out", out]) == 0
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["wall_time_s"] >= 0.2


class TestSweep:
    def test_csv_output(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path, n=60, d=6, kappa_grid=[0.5, 8.0], trials_per_point=3
        )
        assert main(["sweep", "--config", cfg]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == (
            "kappa,alpha,trials,feasible_count,diverged,feasible_fraction,"
            "mean_min_x,mean_max_R_normalized"
        )
        assert len(lines) == 3

    def test_json_and_meta(self, tmp_path):
        cfg = write_config(tmp_path, n=60, d=6, kappa_grid=[8.0], trials_per_point=2)
        out = str(tmp_path / "sweep.json")
        assert main(["sweep", "--config", cfg, "--format", "json", "--out", out]) == 0
        payload = json.loads(open(out).read())
        assert payload[0]["kappa"] == 8.0 and payload[0]["trials"] == 2
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["config"]["kappa_grid"] == [8.0]
        assert meta["wall_time_s"] >= 0.0

    def test_all_diverged_json_is_strict(self, tmp_path):
        cfg = write_config(tmp_path, n=60, d=6, kappa_grid=[0.2], trials_per_point=6,
                           master_seed=3)
        out = str(tmp_path / "sweep.json")
        assert main(["sweep", "--config", cfg, "--format", "json", "--out", out]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")

        (row,) = json.loads(open(out).read(), parse_constant=reject)
        assert row["diverged"] == 6
        assert row["mean_min_x"] is None and row["mean_max_R_normalized"] is None
        json.loads(open(out + ".meta.json").read(), parse_constant=reject)

    def test_seed_flag_sets_master_seed(self, tmp_path):
        cfg = write_config(tmp_path, n=60, d=6, kappa_grid=[8.0], trials_per_point=2)
        out_a = str(tmp_path / "a.csv")
        out_b = str(tmp_path / "b.csv")
        main(["sweep", "--config", cfg, "--seed", "1", "--out", out_a])
        main(["sweep", "--config", cfg, "--seed", "1", "--out", out_b])
        assert open(out_a).read() == open(out_b).read()
        out_c = str(tmp_path / "c.csv")
        main(["sweep", "--config", cfg, "--seed", "2", "--out", out_c])
        assert open(out_a).read() != open(out_c).read()


    def test_seed_flag_overrides_config_seed(self, tmp_path):
        cfg = write_config(tmp_path, n=60, d=6, kappa_grid=[8.0], trials_per_point=2,
                           master_seed=0)
        outs = {}
        for flags in ([], ["--seed", "0"], ["--seed", "5"]):
            out = tmp_path / f"sweep{len(outs)}.csv"
            assert main(["sweep", "--config", cfg, *flags, "--out", str(out)]) == 0
            seed = json.loads(open(f"{out}.meta.json").read())["config"]["master_seed"]
            outs[tuple(flags)] = (out.read_text(), seed)
        assert outs[()] == outs[("--seed", "0")]
        text, seed = outs[("--seed", "5")]
        assert seed == 5 and text != outs[()][0]

    # SHA-256 of the CSV, recorded when every Neumann product went through
    # scipy's csr @ x; one kappa diverges, one is partly feasible.
    DIGEST = "7a950cb57d394f87e17983bb970c77979892a4dbd6d2c5e04ab5ff6143ced619"

    def test_frozen_output_bytes(self, tmp_path):
        cfg = write_config(tmp_path, n=400, d=8, kappa_grid=[0.5, 1.6, 2.4, 8.0],
                           trials_per_point=5)
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGEST

    @pytest.mark.parametrize(
        "entry",
        ["trials_per_point: 2.5", "master_seed: 1.5", "fix_pattern: 'no'", "n: 100.0", "n: true",
         "kappa_grid: 2.0"],
    )
    def test_config_value_of_wrong_type(self, entry, tmp_path, capsys):
        (field, value), = yaml.safe_load(entry).items()
        cfg = write_config(tmp_path, **{"n": 60, "d": 6, field: value})
        assert main(["sweep", "--config", cfg]) == EXIT_INVALID_CONFIG
        assert f"error: {field} must be" in capsys.readouterr().err


class TestHistogram:
    def test_sidecar_config_reruns_the_same_histogram(self, tmp_path):
        # JSON is YAML, so the echoed config is a config file as it stands.
        cfg = write_config(tmp_path, n=60, d=6, trials_per_point=3,
                           kappa_grid=[1.0, 3.0], fix_pattern=False, master_seed=4)
        first = tmp_path / "first.csv"
        assert main(["histogram", "--config", cfg, "--kappa", "4", "--out", str(first)]) == 0
        echo = json.loads((tmp_path / "first.csv.meta.json").read_text())["config"]
        (tmp_path / "echo.yaml").write_text(json.dumps(echo))
        again = tmp_path / "again.csv"
        argv = ["histogram", "--config", str(tmp_path / "echo.yaml"),
                "--kappa", str(echo["kappa_grid"][0]), "--out", str(again)]
        assert main(argv) == 0
        assert again.read_bytes() == first.read_bytes()

    def test_bins_and_meta(self, tmp_path):
        cfg = write_config(tmp_path, n=100, d=10, trials_per_point=3)
        out = str(tmp_path / "hist.csv")
        assert main(["histogram", "--config", cfg, "--kappa", "6.0",
                     "--bins", "20", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["bin_left", "bin_right", "count"]
        assert len(rows) == 20
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["outside"] == 0 and meta["pooled"] == sum(int(r[2]) for r in rows)
        assert abs(meta["mean"] - 1.0) < 0.05

    # SHA-256 of the CSV, recorded when every Neumann product went through
    # scipy's csr @ x: a general pattern per trial.
    DIGEST = "09777794f7e773e43c0ccfeb3e315bf312350123b1f3125411b9740b45bbf35e"

    def test_frozen_output_bytes(self, tmp_path):
        cfg = write_config(tmp_path, n=300, d=6, model="general_regular", fix_pattern=False,
                           trials_per_point=4, master_seed=3)
        out = tmp_path / "hist.csv"
        assert main(["histogram", "--config", cfg, "--kappa", "4", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == self.DIGEST


class TestDynamics:
    def test_series_and_traces(self, tmp_path):
        cfg = write_config(tmp_path, n=60, d=6, t_end=20.0)
        out = str(tmp_path / "dyn.csv")
        assert main(["dynamics", "--config", cfg, "--kappa", "8.0", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "min", "max", "mean", "dist"]
        assert len(rows) == 201
        t_header, t_rows = read_csv(out + ".traces.csv")
        assert t_header[0] == "species" and len(t_rows) == 10
        assert len(t_header) == 202

    # SHA-256 of the CSV and of its .traces.csv, recorded when the stepper
    # began to sum in a fixed numpy order instead of in BLAS. They hold under
    # every OpenBLAS core.
    DIGESTS = {
        "block_permutation": (
            {"n": 1000, "d": 8, "t_end": 30.0}, "8",
            "e136c9118d9a873f413f1ffe3a14e185045abd77dd5999a6ecf9755fb1c5bbe8",
            "efe7c763a01032ffdfbebe9def432a9ccc5996ab6eb11c3d18026ab39eb4683f",
        ),
        "general_regular": (
            {"n": 300, "d": 6, "model": "general_regular", "t_end": 20.0, "master_seed": 3}, "4",
            "cdf2e7b241395950b62688021d7a369aaa926472884fe02e1dc3faf6f4d512fd",
            "d3c2ff9d510f97f3a5200eef3426e23514dbe1ad17b62bd8de133de14b7057a2",
        ),
    }

    @pytest.mark.parametrize("model", sorted(DIGESTS))
    def test_frozen_output_bytes(self, model, tmp_path):
        config, kappa, *digests = self.DIGESTS[model]
        out = str(tmp_path / "dyn.csv")
        assert main(["dynamics", "--config", write_config(tmp_path, **config),
                     "--kappa", kappa, "--out", out]) == 0
        for path, digest in zip((out, out + ".traces.csv"), digests):
            assert hashlib.sha256(Path(path).read_bytes()).hexdigest() == digest

    # A BLAS sum in the stepper shows in these traces' bytes: on SkylakeX
    # and Prescott, stage sums by np.dot change both, and an error norm by
    # np.linalg.norm changes the n=3000 one.
    CORE_CASES = {
        "block_permutation": ({"n": 1000, "d": 8, "t_end": 30.0}, "8"),
        "general_regular": ({"n": 3000, "d": 8, "model": "general_regular", "t_end": 20.0,
                             "master_seed": 2}, "6"),
    }

    @pytest.mark.parametrize("model", sorted(CORE_CASES))
    def test_same_bytes_on_another_blas_core(self, model, tmp_path):
        # Fresh interpreters on this host's OpenBLAS core and on Prescott's,
        # which any x86-64 host runs: the stepper calls no BLAS, so the
        # kernels do not show in its bytes.
        config, kappa = self.CORE_CASES[model]
        argv = ["dynamics", "--config", write_config(tmp_path, **config), "--kappa", kappa]
        src = str(Path(sparselv.__file__).resolve().parents[1])
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = src
        outs = [tmp_path / "native.csv", tmp_path / "prescott.csv"]
        for out, coretype in zip(outs, ({}, {"OPENBLAS_CORETYPE": "Prescott"})):
            subprocess.run([sys.executable, "-c", CLI_CALLS_SCRIPT,
                            json.dumps([argv + ["--out", str(out)]])],
                           env={**env, **coretype}, capture_output=True, check=True)
        for ext in ("", ".traces.csv"):
            assert len({Path(f"{out}{ext}").read_bytes() for out in outs}) == 1, ext
        cores = [json.loads(Path(f"{out}.meta.json").read_text())["blas_cores"] for out in outs]
        if platform.machine() in ("x86_64", "AMD64"):
            assert not cores[0] or cores[1] != cores[0]  # the variable took effect


class TestSpectrum:
    def test_rows(self, capsys, tmp_path):
        cfg = write_config(tmp_path, n=60, d=6, trials_per_point=2)
        assert main(["spectrum", "--config", cfg, "--kappa", "8.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "trial,max_real_part,localization_error,min_x"
        for line in lines[1:]:
            assert float(line.split(",")[1]) < 0.0

    def test_threads_do_not_change_output(self, tmp_path):
        cfg = write_config(tmp_path, n=200, d=6, model="general_regular",
                           trials_per_point=3, master_seed=6)
        outputs, metas = [], []
        for threads in ("1", "2"):
            out = tmp_path / f"spectrum{threads}.csv"
            argv = ["spectrum", "--config", cfg, "--kappa", "8.0", "--threads", threads]
            assert main(argv + ["--out", str(out)]) == 0
            outputs.append(out.read_text())
            metas.append(json.loads((tmp_path / f"{out.name}.meta.json").read_text()))
        assert len(outputs[0].splitlines()) == 4
        assert outputs[0] == outputs[1]
        assert [m["workers"] for m in metas] == [1, 2]


    # SHA-256 of the CSV on two workers, by OpenBLAS core: LAPACK's dgeev
    # rounds as the kernels of its core do. SkylakeX's were recorded when the
    # compiled product came in with the import of scipy.sparse, the others
    # with OPENBLAS_CORETYPE set to Haswell (Zen gives Haswell too),
    # Sandybridge and Prescott (named Katmai).
    DIGESTS = {
        "block_permutation": ({"n": 400, "d": 8, "trials_per_point": 3}, {
            "SkylakeX": "417b18b81403455c53c81a0fb7edb619d1b014baf9805c38063e262e5126ffc2",
            "Haswell": "98d7fad370ff77769fa6ec53951b4f4c1c271d243c9b99a05e3896f0fd648fa1",
            "Sandybridge": "fd298bcc5aade15a1e2d520b548ab15a52c648dd9a734df49876ad1535bb17fd",
            "Katmai": "c2bf9f8cf5f4a63fb8db5382f742333e299452f1b68ac2c21ba77e9649d106f9",
        }),
        "general_regular": ({"n": 200, "d": 6, "model": "general_regular", "fix_pattern": False,
                             "trials_per_point": 3, "master_seed": 6}, {
            "SkylakeX": "6127c6a2a63603a79a836c31418e683f623011b73205d1ccb56f57846e3348ab",
            "Haswell": "941826b547cafc72a1de809aa0264a4cad820376c7f23e8b4aab88a8e8beb2b3",
            "Sandybridge": "836528f0ff4297bab9f515f5b7b7a4f6cfe34b7921733fd7de46d3c2b7d841b5",
            "Katmai": "e7a1f9119ad4a9907e870db0f9303866d9a97208d239aa2e235ef51775f8d756",
        }),
    }

    @pytest.mark.parametrize("model", sorted(DIGESTS))
    def test_frozen_output_bytes(self, model, tmp_path):
        config, digests = self.DIGESTS[model]
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", "--config", write_config(tmp_path, **config), "--kappa", "8",
                     "--threads", "2", "--out", str(out)]) == 0
        assert_core_digest(out, digests)


class TestGap:
    def test_stdout(self, capsys):
        assert main(["gap", "--n", "30", "--d", "4", "--trials", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "trial,min_gap"
        assert len(lines) == 6
        assert all(float(line.split(",")[1]) > 0.0 for line in lines[1:])

    def test_one_blas_pin_per_run(self, monkeypatch, tmp_path):
        # run_trials' pin is the only one: its env gives the sidecar's counts.
        calls = []
        openblas = experiments._openblas

        def counted():
            calls.append(1)
            return openblas()

        monkeypatch.setattr(experiments, "_openblas", counted)
        out = tmp_path / "gap.csv"
        assert main(["gap", "--n", "30", "--d", "4", "--trials", "5", "--seed", "2",
                     "--out", str(out)]) == 0
        assert len(calls) == 1
        meta = json.loads((tmp_path / "gap.csv.meta.json").read_text())
        assert meta["blas_threads"] == {name: 1 for name in openblas()}
        gaps = experiments.run_singular_gap_trials(30, 4, 5, 2)
        assert out.read_text() == "trial,min_gap\n" + "".join(
            f"{t},{g!r}\n" for t, g in enumerate(gaps))
        assert meta["min_over_trials"] == min(gaps)

    # SHA-256 of the CSV, by OpenBLAS core: LAPACK's SVD rounds as the
    # kernels of its core do. SkylakeX's were recorded when the singular gap
    # expanded a scipy CSR matrix with toarray(), the others as the
    # spectrum's were; Sandybridge and Katmai agree here.
    DIGESTS = {
        "general_regular": ("30", {
            "SkylakeX": "fec51aeb5506df0461f941217f2cafd7f8e7092675b985bf82797d964b57348a",
            "Haswell": "275ec68306c4b2fc04108fefc264697e6cb2272af09b1ceed168e2996ff4748e",
            "Sandybridge": "c1f4f20a7bd45b9c69c4e23cfed30bc3b971e5abb28c4e3300724e90be3f5198",
            "Katmai": "c1f4f20a7bd45b9c69c4e23cfed30bc3b971e5abb28c4e3300724e90be3f5198",
        }),
        "block_permutation": ("32", {
            "SkylakeX": "8f6c5c1f17656b844268c413e810b339f29ab1548eef2469e63b6613e3ab731e",
            "Haswell": "c8768c51a6747d4ecd315690c331161f120321dba0fec34a4ce202e28d4e901a",
            "Sandybridge": "3cdf460c63b94780f65bc48b47edb0f699c1a039b1f91e9d857a119ba398184c",
            "Katmai": "3cdf460c63b94780f65bc48b47edb0f699c1a039b1f91e9d857a119ba398184c",
        }),
    }

    @pytest.mark.parametrize("model", sorted(DIGESTS))
    def test_frozen_output_bytes(self, model, tmp_path):
        n, digests = self.DIGESTS[model]
        out = tmp_path / "gap.csv"
        assert main(["gap", "--n", n, "--d", "4", "--trials", "5", "--seed", "2",
                     "--model", model, "--out", str(out)]) == 0
        assert_core_digest(out, digests)

    def test_one_species_is_invalid(self, capsys):
        assert main(["gap", "--n", "1", "--d", "1", "--trials", "3"]) == EXIT_INVALID_CONFIG
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "a 1x1 matrix has no singular gap" in captured.err


# Every subcommand that writes a file; CONFIG stands for a config file path.
# Each one runs its trials through run_trials, on one BLAS thread.
SIDECAR_CASES = {
    "pattern": ["pattern", "--n", "60", "--d", "6"],
    "solve_csv": ["solve", "--n", "60", "--d", "6", "--kappa", "8.0"],
    "solve_full_state": ["solve", "--n", "60", "--d", "6", "--kappa", "8.0", "--full-state"],
    "sweep": ["sweep", "--config", "CONFIG"],
    "histogram": ["histogram", "--config", "CONFIG", "--kappa", "6.0", "--bins", "10"],
    "dynamics": ["dynamics", "--config", "CONFIG", "--kappa", "8.0"],
    "spectrum": ["spectrum", "--config", "CONFIG", "--kappa", "8.0"],
    "gap": ["gap", "--n", "12", "--d", "3", "--trials", "3"],
}


@pytest.mark.parametrize("case", sorted(SIDECAR_CASES))
def test_sidecar_provenance(case, tmp_path):
    # The single-kappa commands echo the config they ran on, not this one.
    config = write_config(tmp_path, n=60, d=6, trials_per_point=2, t_end=5.0,
                          kappa_grid=[1.0, 3.0], fix_pattern=False)
    argv = [config if a == "CONFIG" else a for a in SIDECAR_CASES[case]]
    out = str(tmp_path / "out")
    assert main(argv + ["--out", out]) == 0
    meta = json.loads(open(out + ".meta.json").read())
    assert isinstance(meta["wall_time_s"], float) and meta["wall_time_s"] >= 0.0
    assert meta["version"] == __version__
    assert meta["python"] == platform.python_version()
    assert (meta["numpy"], meta["scipy"]) == (np.__version__, scipy.__version__)
    if case == "gap":  # gap echoes the config its flags make
        echo = meta["config"]
        assert (echo["n"], echo["d"], echo["model"]) == (12, 3, "general_regular")
        assert (echo["trials_per_point"], echo["master_seed"]) == (3, 0)
    else:
        assert meta["config"]["n"] == 60
    if "--kappa" in argv:
        kappa = float(argv[argv.index("--kappa") + 1])
        assert meta["config"]["kappa_grid"] == [kappa]
    elif case == "sweep":
        assert meta["config"]["kappa_grid"] == [1.0, 3.0]
    if "CONFIG" in SIDECAR_CASES[case]:  # the config as given, the trace's too
        assert meta["config"]["fix_pattern"] is False
    assert "kappa" not in meta
    assert meta["workers"] == 1
    threads = meta["blas_threads"]  # per OpenBLAS library; empty without one
    assert isinstance(threads, dict)
    assert all(isinstance(v, int) and v >= 1 for v in threads.values())
    assert set(threads.values()) <= {1}
    cores = meta["blas_cores"]  # the same libraries, by the core their kernels are for
    assert cores == {name: core for name, (_, _, core) in experiments._openblas().items()}
    assert set(cores) == set(threads)
    assert all(isinstance(v, str) and v for v in cores.values())


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=60, d=6, kapa_grid=[2.0])
        assert main(["sweep", "--config", cfg]) == EXIT_INVALID_CONFIG
        assert "error" in capsys.readouterr().err

    def test_unknown_keys_of_mixed_types(self, tmp_path, capsys):
        path = tmp_path / "mixed.yaml"
        path.write_text("n: 60\nd: 6\n1: 2\nfoo: 3\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_INVALID_CONFIG
        assert "error: unknown config keys: [1, 'foo']" in capsys.readouterr().err

    def test_invalid_model(self, capsys):
        cfg_args = ["solve", "--n", "10", "--d", "3", "--kappa", "2.0"]
        assert main(cfg_args) == EXIT_INVALID_CONFIG  # d does not divide n

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.yaml"]) == EXIT_INVALID_CONFIG

    def test_directory_as_config(self, tmp_path, capsys):
        assert main(["sweep", "--config", str(tmp_path)]) == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")

    def test_directory_as_out(self, tmp_path, capsys):
        args = ["pattern", "--n", "12", "--d", "3", "--out", str(tmp_path)]
        assert main(args) == EXIT_INVALID_CONFIG
        assert capsys.readouterr().err.startswith("error: [Errno 21] Is a directory")

    def test_non_mapping_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("- 1\n- 2\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_INVALID_CONFIG

    def test_malformed_yaml(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("n: [1, 2\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_INVALID_CONFIG
        assert "error: config file is not valid YAML" in capsys.readouterr().err

    def test_numerical_failure(self, capsys):
        # far below the threshold the fixed-point iteration diverges
        code = main(["solve", "--n", "60", "--d", "6", "--kappa", "0.1"])
        assert code == EXIT_NUMERICAL_FAILURE
        assert "numerical failure" in capsys.readouterr().err

    def test_unconverged_solve(self, capsys):
        # The Neumann iteration neither diverges nor converges in max_iter.
        args = ["solve", "--n", "2", "--model", "full", "--kappa", "3.145091936115901",
                "--seed", "3"]
        assert main(args) == EXIT_NUMERICAL_FAILURE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "numerical failure: Neumann solve did not converge in 10000 iterations "
            "(residual 8.781e-07)\n"
        )

    @pytest.mark.parametrize(
        "args",
        [
            ["--n", "6", "--d", "2", "--model", "full"],
            ["--n", "12", "--d", "2", "--model", "proportional", "--beta", "0.5"],
        ],
    )
    def test_d_other_than_the_models(self, args, capsys):
        assert main(["pattern", *args]) == EXIT_INVALID_CONFIG
        assert "sets d=6; got d=2" in capsys.readouterr().err

    def test_beta_off_the_proportional_model(self, capsys):
        args = ["pattern", "--n", "12", "--d", "3", "--model", "general_regular", "--beta", "0.5"]
        assert main(args) == EXIT_INVALID_CONFIG
        assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, config, message",
    [
        (["sweep"], {"d": 6}, "missing 1 required positional argument: 'n'"),
        (["histogram", "--kappa", "6", "--bins", "0"], {"n": 60, "d": 6},
         "error: bins must be >= 1, got 0"),
        (["sweep"], {"n": 1, "d": 1}, "error: alpha parameterization needs n >= 2"),
    ],
)
def test_invalid_input_exits_invalid_config(argv, config, message, tmp_path, capsys):
    path = write_config(tmp_path, **config)
    assert main(argv + ["--config", path]) == EXIT_INVALID_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("fix_pattern", [True, False])
@pytest.mark.parametrize("model", ["block_permutation", "general_regular"])
def test_every_subcommand_reads_one_draw(model, fix_pattern, tmp_path):
    """A config names one draw of M for trial 0, whichever subcommand
    reads it: solve, sweep, spectrum and dynamics report the same state."""
    config = write_config(tmp_path, n=200, d=8, model=model, fix_pattern=fix_pattern,
                          kappa_grid=[8.0], master_seed=4, t_end=1.0)
    outs = {}
    for name, argv in {
        "solve": ["solve", "--full-state"],
        "sweep": ["sweep", "--format", "json"],
        "spectrum": ["spectrum", "--kappa", "8", "--format", "json"],
        "dynamics": ["dynamics", "--kappa", "8", "--format", "json"],
    }.items():
        out = tmp_path / f"{name}.json"
        assert main(argv + ["--config", config, "--out", str(out)]) == 0
        outs[name] = json.loads(out.read_text())
    solve, [sweep], [spectrum] = outs["solve"], outs["sweep"], outs["spectrum"]
    assert spectrum["trial"] == 0
    assert solve["min_x"] == sweep["mean_min_x"] == spectrum["min_x"]
    x = np.array(solve["x"])
    assert outs["dynamics"][0]["dist"] == pytest.approx(np.linalg.norm(0.5 - x), rel=1e-12)


@st.composite
def pattern_configs(draw):
    """Small configs over the four models; n >= 2, so that trial 0 has an alpha."""
    model = draw(st.sampled_from(MODELS))
    mapping = {"model": model, "master_seed": draw(st.integers(0, 2**32)),
               "fix_pattern": draw(st.booleans())}
    if model == "block_permutation":
        d = draw(st.integers(1, 5))
        mapping.update(n=d * draw(st.integers(2 if d == 1 else 1, 6)), d=d)
    elif model == "general_regular":
        n = draw(st.integers(2, 24))
        mapping.update(n=n, d=draw(st.integers(1, n)))
    elif model == "proportional":
        mapping.update(n=draw(st.integers(2, 24)), beta=draw(st.floats(0.01, 1.0)))
    else:
        mapping.update(n=draw(st.integers(2, 8)))
    return mapping


@settings(max_examples=25, deadline=None)
@given(mapping=pattern_configs())
def test_pattern_writes_trial_zeros_pattern(tmp_path_factory, mapping):
    """The rows `sparselv pattern` writes are the pattern of trial 0's matrix."""
    tmp = tmp_path_factory.mktemp("pattern")
    out = tmp / "pattern.txt"
    assert main(["pattern", "--config", write_config(tmp, **mapping), "--out", str(out)]) == 0
    rows = np.loadtxt(out, dtype=np.int64, skiprows=1, ndmin=2)
    [M], _ = run_trials(SweepConfig(**mapping), [(0, 0)], experiments._matrix)
    np.testing.assert_array_equal(rows, M.pattern.row_cols)


@pytest.mark.parametrize("kappa", ["0", "-1", "inf", "nan"])
@pytest.mark.parametrize("command", ["histogram", "dynamics", "spectrum"])
def test_kappa_must_be_positive(command, kappa, tmp_path, capsys):
    config = write_config(tmp_path, n=60, d=6)
    assert main([command, "--config", config, f"--kappa={kappa}"]) == EXIT_INVALID_CONFIG
    assert "error: kappa must be positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--n", "60", "--d", "6", "--kappa", "8.0", "--seed", "-5"],
        ["histogram", "--config", "CONFIG", "--kappa", "8.0", "--seed", "-5"],
        ["gap", "--n", "12", "--d", "3", "--seed", "-1"],
    ],
)
def test_negative_seed_is_invalid(argv, tmp_path, capsys):
    config = write_config(tmp_path, n=60, d=6)
    argv = [config if a == "CONFIG" else a for a in argv]
    assert main(argv) == EXIT_INVALID_CONFIG
    seed = argv[argv.index("--seed") + 1]
    assert f"error: master_seed must be >= 0, got {seed}" in capsys.readouterr().err


@pytest.mark.parametrize("threads", ["0", "-3"])
@pytest.mark.parametrize("command", [["sweep"], ["histogram", "--kappa", "8"],
                                     ["spectrum", "--kappa", "8"]])
def test_threads_must_be_positive(command, threads, tmp_path, capsys):
    config = write_config(tmp_path, n=60, d=6)
    argv = command + ["--config", config, "--threads", threads]
    assert main(argv) == EXIT_INVALID_CONFIG
    assert f"error: workers must be at least 1, got {threads}" in capsys.readouterr().err


# Shared flags that a subcommand would accept and ignore are not registered.
@pytest.mark.parametrize(
    "command, flag",
    [
        (["pattern", "--n", "12", "--d", "3"], ["--threads", "2"]),
        (["pattern", "--n", "12", "--d", "3"], ["--format", "json"]),
        (["solve", "--n", "60", "--d", "6", "--kappa", "8.0"], ["--threads", "2"]),
        (["dynamics", "--kappa", "8.0"], ["--threads", "2"]),
        (["gap", "--n", "12", "--d", "3"], ["--threads", "2"]),
        (["gap", "--n", "12", "--d", "3"], ["--config", "x.yaml"]),
    ],
)
def test_unread_flags_rejected(command, flag, capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(command + flag)
    assert exc_info.value.code == 2
    assert f"unrecognized arguments: {' '.join(flag)}" in capsys.readouterr().err


# Run in a fresh interpreter with a JSON list of argv lists as argv[1]:
# calls cli.main on each in turn, and prints how many parsers they used.
CLI_CALLS_SCRIPT = """
import json, sys
from sparselv import cli
parsers = set()
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
    parsers.add(id(cli.build_parser()))
print(len(parsers))
"""


def test_one_process_many_calls_write_separate_process_bytes(tmp_path):
    """``main`` reuses one parser per process, and a call leaves nothing in
    it for the next: gap, sweep and histogram called in one interpreter
    write the bytes that each writes in an interpreter of its own.  The
    sweep's config sets master_seed 5, which gap's default seed of 0 would
    override if it leaked."""
    config = write_config(tmp_path, n=60, d=6, kappa_grid=[2.0, 8.0], trials_per_point=3,
                          master_seed=5)

    def calls(tag):
        return [
            ["gap", "--n", "12", "--d", "3", "--trials", "4", "--out", f"{tmp_path}/gap{tag}.csv"],
            ["sweep", "--config", config, "--out", f"{tmp_path}/sweep{tag}.csv"],
            ["histogram", "--config", config, "--kappa", "8", "--bins", "8",
             "--out", f"{tmp_path}/hist{tag}.csv"],
        ]

    src = str(Path(sparselv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}

    def run(argvs):
        return subprocess.run([sys.executable, "-c", CLI_CALLS_SCRIPT, json.dumps(argvs)],
                              env=env, capture_output=True, text=True, check=True).stdout

    assert run(calls("_one")) == "1\n"
    for argv in calls("_own"):
        run([argv])
    for name in ("gap", "sweep", "hist"):
        one, own = (tmp_path / f"{name}{tag}.csv" for tag in ("_one", "_own"))
        assert one.read_bytes() == own.read_bytes()


def test_version_help_and_usage_errors(capsys):
    """--version and --help exit 0, usage errors exit 2, and the reused
    parser serves a normal call after each of them."""
    with pytest.raises(SystemExit) as exc_info:
        main(["--version"])
    assert exc_info.value.code == 0
    assert capsys.readouterr().out == f"{__version__}\n"

    with pytest.raises(SystemExit) as exc_info:
        main(["--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    for command in ("pattern", "solve", "sweep", "histogram", "dynamics", "spectrum", "gap"):
        assert command in out

    with pytest.raises(SystemExit) as exc_info:
        main(["gap", "--help"])
    assert exc_info.value.code == 0
    out = capsys.readouterr().out
    assert "--trials" in out and "--config" not in out

    for argv, message in [
        ([], "the following arguments are required: command"),
        (["sweep", "--format", "xml"], "invalid choice: 'xml'"),
        (["histogram"], "the following arguments are required: --kappa"),
        (["solve", "--n", "six"], "invalid int value: 'six'"),
    ]:
        with pytest.raises(SystemExit) as exc_info:
            main(argv)
        assert exc_info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and message in captured.err

    assert main(["pattern", "--n", "12", "--d", "3", "--model", "general_regular"]) == 0
    assert capsys.readouterr().out.split()[:3] == ["12", "3", "general_regular"]


def test_readme_lists_every_config_key():
    """The README's --config list names each SweepConfig field once, so a
    new option is documented on purpose."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    cli_section = readme.split("\n## CLI\n")[1].split("\n## ")[0]
    listed = re.findall(r"^- `(\w+)`:", cli_section, flags=re.MULTILINE)
    assert sorted(listed) == sorted(f.name for f in fields(SweepConfig))


def _modules_loaded_after(code, names):
    """The ``names`` that a fresh interpreter has loaded after running ``code``."""
    src = str(Path(sparselv.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code += f"\nimport sys\nprint(' '.join(m for m in {names!r} if m in sys.modules))\n"
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout.split()


# Loaded only by the ARPACK helpers, spectral_norm and stability_certificate
# (scipy.sparse and scipy.sparse.linalg, which loads scipy.linalg). No
# subcommand loads any of them: a Jacobian spectrum splits the pattern in
# numpy and loads only LAPACK's _flapack extension, by file.
SPECTRUM_MODULES = ("scipy.sparse", "scipy.linalg", "scipy.sparse.linalg",
                    "scipy.sparse.csgraph")


def test_import_loads_no_ode_or_yaml():
    """A fresh ``import sparselv`` leaves scipy.integrate, scipy.optimize
    and yaml unloaded (only --config needs yaml), and the spectrum modules
    too, scipy.sparse included: it loads numpy and the compiled CSR kernel
    only.  numpy.random stays unloaded too: a pooled ``run_trials`` loads
    it before the fork, and an in-process trial on first use."""
    code = "import sparselv, sparselv.cli, sparselv.experiments"
    names = ("scipy.integrate", "scipy.optimize", "yaml", "numpy.random") + SPECTRUM_MODULES
    assert _modules_loaded_after(code, names) == []


def test_ode_paths_load_no_integrator_library():
    """Integrating the dynamics (a dynamics trace, and the ODE route of
    saturated_equilibrium) loads none of scipy's integrate, optimize or
    special, since the Dormand-Prince stepper is the package's own, nor
    any spectrum module."""
    code = (
        "from sparselv import assemble, saturated_equilibrium\n"
        "from sparselv.experiments import (SweepConfig, build_pattern, pattern_seed,\n"
        "    run_dynamics_trace, trial_seed)\n"
        "run_dynamics_trace(SweepConfig(n=40, d=4, t_end=5.0), 4.0)\n"
        "cfg = SweepConfig(n=40, d=4)\n"
        "M = assemble(build_pattern(cfg, pattern_seed(0)), cfg.alpha(4.0), trial_seed(0, 0, 0))\n"
        "saturated_equilibrium(M, method='ode_limit')\n"
    )
    names = ("scipy.integrate", "scipy.optimize", "scipy.special") + SPECTRUM_MODULES
    assert _modules_loaded_after(code, names) == []


def test_spectrum_run_loads_no_spectrum_module(tmp_path):
    """A ``sparselv spectrum`` run, and a ``sweep`` and a ``histogram``
    run, each on two workers, load none of the spectrum modules, in the
    caller or (the check runs on each worker's module list too) in their
    trials.  The histogram's per-trial general patterns take the compiled
    kernel at 1 x 1 blocks, the other runs' block pattern at d x d."""
    runs = [("spectrum", "_spectrum_trial", {}, ["--kappa", "8"]),
            ("sweep", "_sweep_trial", {}, []),
            ("histogram", "_hist_trial", {"model": "general_regular", "fix_pattern": False},
             ["--kappa", "4"])]
    for command, trial, model, args in runs:
        (tmp_path / command).mkdir()
        config = write_config(tmp_path / command, n=120, d=6, trials_per_point=2, **model)
        out = tmp_path / command / "out.csv"
        code = f"""
import sys
from sparselv import cli, experiments
trial = experiments.{trial}
def probed(*args, **kwargs):
    result = trial(*args, **kwargs)
    assert not [m for m in {SPECTRUM_MODULES!r} if m in sys.modules], "a trial loaded one"
    return result
experiments.{trial} = probed
assert cli.main([{command!r}, "--config", {config!r}, *{args!r}, "--threads", "2",
                 "--out", {str(out)!r}]) == 0
"""
        assert _modules_loaded_after(code, SPECTRUM_MODULES) == [], command
    assert len((tmp_path / "spectrum" / "out.csv").read_text().splitlines()) == 3


def test_only_the_cli_imports_format_modules():
    """Output formats are the CLI's decision: no other module of the package
    imports json, csv, io or yaml, at module scope or inside a function."""
    formats = {"json", "csv", "io", "yaml"}
    importers = set()
    for path in Path(sparselv.__file__).resolve().parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = {alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = {node.module.split(".")[0]}
            else:
                continue
            if names & formats:
                importers.add(path.name)
    assert importers == {"cli.py"}

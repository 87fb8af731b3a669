import csv
import json

import pytest
import yaml

from sparselv import __version__
from sparselv.cli import EXIT_INVALID_CONFIG, EXIT_NUMERICAL_FAILURE, main
from sparselv.patterns import load_pattern


def write_config(tmp_path, **kwargs):
    path = tmp_path / "config.yaml"
    path.write_text(yaml.safe_dump(kwargs))
    return str(path)


def read_csv(path):
    with open(path) as f:
        rows = list(csv.reader(f))
    return rows[0], rows[1:]


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
        p = load_pattern(out)
        assert p.n == 12 and p.d == 4

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


class TestHistogram:
    def test_bins_and_meta(self, tmp_path):
        cfg = write_config(tmp_path, n=100, d=10, trials_per_point=3)
        out = str(tmp_path / "hist.csv")
        assert main(["histogram", "--config", cfg, "--kappa", "6.0",
                     "--bins", "20", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["bin_left", "bin_right", "count"]
        assert len(rows) == 20
        meta = json.loads(open(out + ".meta.json").read())
        assert meta["pooled"] == sum(int(r[2]) for r in rows)
        assert abs(meta["mean"] - 1.0) < 0.05


class TestDynamics:
    def test_series_and_traces(self, tmp_path):
        cfg = write_config(
            tmp_path, n=60, d=6, t_end=20.0, sample_count=21, trace_species=5
        )
        out = str(tmp_path / "dyn.csv")
        assert main(["dynamics", "--config", cfg, "--kappa", "8.0", "--out", out]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "min", "max", "mean", "dist"]
        assert len(rows) == 21
        t_header, t_rows = read_csv(out + ".traces.csv")
        assert t_header[0] == "species" and len(t_rows) == 5
        assert len(t_header) == 22


class TestSpectrum:
    def test_rows(self, capsys, tmp_path):
        cfg = write_config(tmp_path, n=60, d=6, trials_per_point=2)
        assert main(["spectrum", "--config", cfg, "--kappa", "8.0"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "trial,max_real_part,localization_error,min_x"
        for line in lines[1:]:
            assert float(line.split(",")[1]) < 0.0


class TestGap:
    def test_stdout(self, capsys):
        assert main(["gap", "--n", "30", "--d", "4", "--trials", "5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "trial,min_gap"
        assert len(lines) == 6
        assert all(float(line.split(",")[1]) > 0.0 for line in lines[1:])


# Every subcommand that writes a file; CONFIG stands for a config file path.
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
    config = write_config(tmp_path, n=60, d=6, trials_per_point=2, t_end=5.0, sample_count=6)
    argv = [config if a == "CONFIG" else a for a in SIDECAR_CASES[case]]
    out = str(tmp_path / "out")
    assert main(argv + ["--out", out]) == 0
    meta = json.loads(open(out + ".meta.json").read())
    assert isinstance(meta["wall_time_s"], float) and meta["wall_time_s"] >= 0.0
    assert meta["version"] == __version__
    if case != "gap":  # gap builds its own config from its flags
        assert meta["config"]["n"] == 60


class TestExitCodes:
    def test_unknown_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, n=60, d=6, kapa_grid=[2.0])
        assert main(["sweep", "--config", cfg]) == EXIT_INVALID_CONFIG
        assert "error" in capsys.readouterr().err

    def test_invalid_model(self, capsys):
        cfg_args = ["solve", "--n", "10", "--d", "3", "--kappa", "2.0"]
        assert main(cfg_args) == EXIT_INVALID_CONFIG  # d does not divide n

    def test_missing_config_file(self, capsys):
        assert main(["sweep", "--config", "/nonexistent.yaml"]) == EXIT_INVALID_CONFIG

    def test_non_mapping_config(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text("- 1\n- 2\n")
        assert main(["sweep", "--config", str(path)]) == EXIT_INVALID_CONFIG

    def test_numerical_failure(self, capsys):
        # far below the threshold the fixed-point iteration diverges
        code = main(["solve", "--n", "60", "--d", "6", "--kappa", "0.1"])
        assert code == EXIT_NUMERICAL_FAILURE
        assert "numerical failure" in capsys.readouterr().err

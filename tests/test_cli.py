"""Command-line interface: argument handling, exit codes, artifacts."""
import json
from importlib import resources

import pytest

from esnode import cli


def write_config(path, **overrides):
    base = {
        "problem": "harmonic", "y0": [1.0, 0.0], "tau": 0.05,
        "n_points": 40, "n_washout": 20, "refine_factor": 10,
        "reservoir": {"n_neurons": 30, "connectivity": 0.2,
                      "spectral_norm": 10.0, "input_scale": 1.0, "seed": 0},
        "stage1": {"lambda": 1e-7, "max_iters": 3},
        "stage2": {"lambda": 1e-7, "max_iters": 3},
    }
    base.update(overrides)
    path.write_text(json.dumps(base))
    return str(path)


@pytest.fixture()
def config_path(tmp_path):
    return write_config(tmp_path / "config.json")


class TestRun:
    def test_writes_artifacts_and_summary(self, config_path, tmp_path,
                                          capsys):
        out = tmp_path / "out"
        code = cli.main(["run", "--config", config_path, "--out", str(out)])
        assert code == 0
        line = capsys.readouterr().out.strip()
        assert line.startswith("stage1 final loss ")
        assert "stage2 final loss " in line
        assert "max-abs error " in line
        assert line.endswith(f"-> {out}")
        assert (out / "report.json").exists()
        assert (out / "y_stage2.csv").exists()

    def test_set_override_reaches_report(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", "--config", config_path, "--out", str(out),
                         "--set", "reservoir.seed=5",
                         "--set", "stage2.max_iters=2"])
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        assert data["seed"] == 5
        assert data["config.stage2.max_iters"] == 2

    def test_set_limits_iterations(self, config_path, tmp_path):
        out = tmp_path / "out"
        code = cli.main(["run", "--config", config_path, "--out", str(out),
                         "--set", "stage1.max_iters=1"])
        assert code == 0
        log = (out / "convergence_stage1.log").read_text()
        assert log.count("\n") == 1

    def test_seed_env_var_wins(self, config_path, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "7")
        out = tmp_path / "out"
        code = cli.main(["run", "--config", config_path, "--out", str(out),
                         "--set", "reservoir.seed=3"])
        assert code == 0
        data = json.loads((out / "report.json").read_text())
        assert data["seed"] == 7

    def test_bad_seed_env_var(self, config_path, tmp_path, monkeypatch,
                              capsys):
        monkeypatch.setenv(cli.SEED_ENV_VAR, "not-a-number")
        code = cli.main(["run", "--config", config_path, "--out",
                         str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_rerun_is_byte_identical(self, config_path, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", config_path,
                         "--out", str(a)]) == 0
        assert cli.main(["run", "--config", config_path,
                         "--out", str(b)]) == 0
        assert (a / "report.json").read_bytes() == \
            (b / "report.json").read_bytes()
        assert (a / "y_stage2.csv").read_bytes() == \
            (b / "y_stage2.csv").read_bytes()


class TestErrorHandling:
    def test_missing_config_file(self, tmp_path, capsys):
        code = cli.main(["run", "--config", str(tmp_path / "nope.json"),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = cli.main(["run", "--config", str(bad),
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "not valid JSON" in capsys.readouterr().err

    def test_malformed_override(self, config_path, tmp_path, capsys):
        code = cli.main(["run", "--config", config_path,
                         "--out", str(tmp_path / "out"),
                         "--set", "no-equals-sign"])
        assert code == 1
        assert "KEY=VALUE" in capsys.readouterr().err

    def test_unknown_problem(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", problem="pendulum")
        code = cli.main(["run", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["e3_substitution=false",
                                      "stage1.backtracking=true",
                                      "n_point=5", "stage1.lam=5",
                                      "stage1.rel_loss_tol=1e-6",
                                      "stage2.backtrack_max_halvings=5",
                                      # a known key with a non-integer value
                                      "stage1.max_iters=1.5",
                                      "reservoir.n_neurons=20.5"])
    def test_unknown_config_key(self, config_path, tmp_path, capsys, spec):
        out = tmp_path / "out"
        code = cli.main(["run", "--config", config_path, "--out", str(out),
                         "--set", spec])
        assert code == 1
        key = spec.partition("=")[0].split(".")[-1]
        assert key in capsys.readouterr().err
        assert not out.exists()

    def test_missing_subcommand(self, capsys):
        assert cli.main([]) == 1

    def test_missing_required_out(self, config_path, capsys):
        assert cli.main(["run", "--config", config_path]) == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numerical_failure_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", problem="lorenz",
                            y0=[1.0, 1.0, 1.0], tau=5.0, refine_factor=1)
        code = cli.main(["run", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        assert "diverged" in capsys.readouterr().err


class TestTrial:
    def test_writes_only_trial_csv(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        code = cli.main(["trial", "--config", config_path, "--out",
                         str(out)])
        assert code == 0
        assert capsys.readouterr().out.strip() == \
            f"wrote trial.csv (61 rows) -> {out}"
        assert [p.name for p in out.iterdir()] == ["trial.csv"]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", problem="lorenz",
                            y0=[1.0, 1.0, 1.0], tau=5.0, refine_factor=1)
        code = cli.main(["trial", "--config", path,
                         "--out", str(tmp_path / "out")])
        assert code == 2


class TestGradcheck:
    def test_passes_on_stock_config(self, config_path, capsys):
        code = cli.main(["gradcheck", "--config", config_path])
        assert code == 0
        out = capsys.readouterr().out
        assert "stage1 jacobian max relative error" in out
        assert "stage2 jacobian max relative error" in out
        assert "gradcheck PASS" in out

    @pytest.mark.parametrize("name", ["harmonic", "vdp", "lorenz"])
    def test_passes_on_shipped_config(self, name, capsys):
        # gradcheck shrinks each to 10 points and 20 neurons
        path = resources.files("esnode").joinpath(f"configs/{name}.json")
        assert cli.main(["gradcheck", "--config", str(path)]) == 0
        assert "gradcheck PASS" in capsys.readouterr().out

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exit_code(self, tmp_path, capsys):
        path = write_config(tmp_path / "c.json", problem="lorenz",
                            y0=[1.0, 1.0, 1.0], tau=5.0, refine_factor=1)
        assert cli.main(["gradcheck", "--config", path]) == 2
        assert "trial integration diverged" in capsys.readouterr().err


class TestReport:
    def test_round_trip(self, config_path, tmp_path, capsys):
        out = tmp_path / "out"
        cli.main(["run", "--config", config_path, "--out", str(out)])
        capsys.readouterr()
        code = cli.main(["report", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "config.problem" in text
        assert "harmonic" in text
        assert "timing.total" in text

    def test_empty_directory(self, tmp_path, capsys):
        code = cli.main(["report", "--out", str(tmp_path / "empty")])
        assert code == 1
        assert "no run artifacts" in capsys.readouterr().err

    def test_partial_artifacts_flagged(self, config_path, tmp_path,
                                       capsys):
        out = tmp_path / "out"
        cli.main(["run", "--config", config_path, "--out", str(out)])
        (out / "reference.csv").unlink()
        capsys.readouterr()
        code = cli.main(["report", "--out", str(out)])
        assert code == 0
        assert "reference.csv" in capsys.readouterr().out

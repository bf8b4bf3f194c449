"""End-to-end training, evaluation, generation, and artifact writing."""
import dataclasses
import json
import os

import numpy as np
import pytest
import scipy.integrate

from esnode import pipeline
from esnode.errors import (DimensionMismatch, LengthMismatch, NonFinite,
                           TrialDiverged)
from esnode.pipeline import (PRNG_NAME, REFERENCE_REFINE, Metrics, RunConfig,
                             atomic_write_text, evaluate, generate,
                             reference_trajectory, report_flat_dict, train,
                             write_artifacts)
from esnode.problems import get_system
from esnode.regression import GnConfig
from esnode.reservoir import ReservoirParams
from esnode.trial import Trajectory, to_csv

from test_acceptance import shipped_config


def smoke_config(**overrides):
    base = dict(
        problem="harmonic", y0=(1.0, 0.0), tau=0.05, n_points=40,
        n_washout=20, refine_factor=10,
        reservoir=ReservoirParams(n_neurons=30, connectivity=0.2,
                                  spectral_norm=10.0, input_scale=1.0,
                                  seed=0),
        stage1=GnConfig(lam=1e-7, max_iters=3),
        stage2=GnConfig(lam=1e-7, max_iters=3),
    )
    base.update(overrides)
    return RunConfig(**base)


@pytest.fixture(scope="module")
def smoke_run():
    cfg = smoke_config()
    model, report = train(cfg)
    return cfg, model, report


class TestRunConfig:
    def test_round_trip(self):
        cfg = smoke_config()
        assert RunConfig.from_dict(cfg.to_dict()) == cfg

    def test_gn_serializes_under_lambda_key(self):
        d = smoke_config().to_dict()
        assert d["stage1"]["lambda"] == 1e-7
        assert "lam" not in d["stage1"]
        restored = RunConfig.from_dict(d)
        assert restored.stage1.lam == 1e-7

    @pytest.mark.parametrize("overrides", [
        {"tau": 0.0}, {"n_points": 0}, {"n_washout": -1},
        {"refine_factor": 0},
    ])
    def test_validation(self, overrides):
        with pytest.raises(ValueError):
            smoke_config(**overrides)

    def test_missing_key_raises(self):
        d = smoke_config().to_dict()
        del d["tau"]
        with pytest.raises(KeyError):
            RunConfig.from_dict(d)

    def test_y0_coerced_to_float_tuple(self):
        cfg = smoke_config(y0=[1, 0])
        assert cfg.y0 == (1.0, 0.0)
        assert isinstance(cfg.y0, tuple)


class TestEvaluate:
    def test_identical_trajectories(self):
        traj = Trajectory(t0=0.0, tau=0.1,
                          states=np.arange(8.0).reshape(4, 2))
        m = evaluate(traj, traj)
        assert m.max_abs == (0.0, 0.0)
        assert m.rmse == (0.0, 0.0)
        assert m.max_abs_overall == 0.0
        assert m.rmse_overall == 0.0

    def test_hand_case(self):
        cand = Trajectory(t0=0.0, tau=0.1,
                          states=np.array([[0.0, 0.0], [0.0, 1.0],
                                           [0.0, 2.0]]))
        ref = Trajectory(t0=0.0, tau=0.1, states=np.zeros((3, 2)))
        m = evaluate(cand, ref)
        assert m.max_abs == (0.0, 2.0)
        assert m.rmse[0] == 0.0
        assert m.rmse[1] == pytest.approx(np.sqrt(5.0 / 3.0), abs=1e-15)
        assert m.max_abs_overall == 2.0
        assert m.rmse_overall == pytest.approx(np.sqrt(5.0 / 6.0), abs=1e-15)

    def test_length_mismatch(self):
        a = Trajectory(t0=0.0, tau=0.1, states=np.zeros((4, 2)))
        b = Trajectory(t0=0.0, tau=0.1, states=np.zeros((3, 2)))
        with pytest.raises(LengthMismatch):
            evaluate(a, b)

    def test_dimension_mismatch(self):
        a = Trajectory(t0=0.0, tau=0.1, states=np.zeros((4, 2)))
        b = Trajectory(t0=0.0, tau=0.1, states=np.zeros((4, 3)))
        with pytest.raises(DimensionMismatch):
            evaluate(a, b)


class TestReferenceTrajectory:
    def test_harmonic_closed_form(self):
        cfg = smoke_config()
        ref = reference_trajectory(get_system("harmonic"), cfg)
        assert ref.t0 == pytest.approx(20 * 0.05)
        assert ref.n_points == 41
        t = ref.times
        np.testing.assert_allclose(ref.states[:, 0], np.cos(t), atol=1e-12)
        np.testing.assert_allclose(ref.states[:, 1], -np.sin(t), atol=1e-12)

    def test_rk4_fallback_matches_adaptive_integrator(self):
        cfg = smoke_config(problem="vdp", y0=(2.0, 0.0), tau=0.1,
                           n_points=5, n_washout=3)
        system = get_system("vdp")
        ref = reference_trajectory(system, cfg)
        assert ref.t0 == pytest.approx(0.3)
        assert ref.n_points == 6
        sol = scipy.integrate.solve_ivp(
            lambda t, y: system.rhs(y), (0.0, 0.8), [2.0, 0.0],
            t_eval=ref.times, rtol=1e-11, atol=1e-12)
        np.testing.assert_allclose(ref.states, sol.y.T, atol=1e-7)

    def test_refine_factor_does_not_change_reference(self):
        a = reference_trajectory(get_system("lorenz"),
                                 smoke_config(problem="lorenz",
                                              y0=(1.0, 1.0, 1.0), tau=0.03,
                                              n_points=10, n_washout=5))
        b = reference_trajectory(get_system("lorenz"),
                                 smoke_config(problem="lorenz",
                                              y0=(1.0, 1.0, 1.0), tau=0.03,
                                              n_points=10, n_washout=5,
                                              refine_factor=7))
        np.testing.assert_array_equal(a.states, b.states)

    @pytest.mark.parametrize("name", ["vdp", "lorenz"])
    def test_shipped_reference_is_self_converged(self, name, monkeypatch):
        # halving the RK4 step moves the shipped references by 2.2e-8 (vdp)
        # and 1.2e-7 (lorenz), far below any metric tolerance
        cfg = shipped_config(name)
        system = get_system(name)
        ref = reference_trajectory(system, cfg)
        monkeypatch.setattr(pipeline, "REFERENCE_REFINE",
                            2 * REFERENCE_REFINE)
        finer = reference_trajectory(system, cfg)
        assert finer.n_points == ref.n_points
        assert np.abs(finer.states - ref.states).max() <= 1e-6

    def test_reference_never_feeds_the_fit(self, monkeypatch):
        cfg = smoke_config(problem="vdp", y0=(2.0, 0.0), tau=0.1)
        model, report = train(cfg)
        monkeypatch.setattr(pipeline, "REFERENCE_REFINE", 40)
        model2, report2 = train(cfg)
        assert (report2.reference.states.tobytes()
                != report.reference.states.tobytes())
        assert to_csv(model2.y_final) == to_csv(model.y_final)
        assert model2.w_stage1.tobytes() == model.w_stage1.tobytes()
        assert model2.w_stage2.tobytes() == model.w_stage2.tobytes()


class TestTrain:
    def test_shapes_and_spans(self, smoke_run):
        cfg, model, report = smoke_run
        assert model.w_stage1.shape == (2, 30)
        assert model.w_stage2.shape == (2, 30)
        assert model.ybar.n_points == cfg.n_points + 1
        assert model.y_final.n_points == cfg.n_points + 1
        assert model.ybar.t0 == pytest.approx(cfg.n_washout * cfg.tau)
        assert model.washout_inputs.n_points == cfg.n_washout
        # the stored trial covers the whole integration, washout included
        assert report.trial.n_points == cfg.n_washout + cfg.n_points + 1
        assert report.trial.t0 == 0.0
        assert report.reference.n_points == cfg.n_points + 1

    def test_histories_and_losses(self, smoke_run):
        _, _, report = smoke_run
        assert len(report.stage1_history) >= 1
        assert len(report.stage2_history) >= 1
        assert report.stage1_final_loss <= report.stage1_initial_loss
        assert report.stage2_final_loss <= report.stage2_initial_loss
        assert np.isfinite(report.metrics_stage2.rmse_overall)

    def test_timings_and_provenance(self, smoke_run):
        cfg, _, report = smoke_run
        assert set(report.timings) == {"trial", "stage1", "stage2",
                                       "evaluate", "total"}
        assert all(v >= 0.0 for v in report.timings.values())
        assert report.seed == cfg.reservoir.seed
        assert report.prng_name == PRNG_NAME

    def test_deterministic(self, smoke_run):
        cfg, model, report = smoke_run
        model2, report2 = train(cfg)
        np.testing.assert_array_equal(model.w_stage2, model2.w_stage2)
        np.testing.assert_array_equal(model.y_final.states,
                                      model2.y_final.states)
        assert report_flat_dict(report) == report_flat_dict(report2)

    def test_washout_inputs_are_trial_prefix(self, smoke_run):
        cfg, model, report = smoke_run
        assert model.washout_inputs.t0 == 0.0
        np.testing.assert_array_equal(model.washout_inputs.states,
                                      report.trial.states[:cfg.n_washout])
        # the anchored readout resumes exactly where the washout ends
        assert model.ybar.t0 == pytest.approx(
            model.washout_inputs.n_points * cfg.tau)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergent_trial_raises(self):
        cfg = smoke_config(problem="lorenz", y0=(1.0, 1.0, 1.0), tau=5.0,
                           n_points=50, n_washout=5, refine_factor=1)
        with pytest.raises(TrialDiverged):
            train(cfg)

    def test_overflowing_vdp_trial_raises(self):
        cfg = smoke_config(problem="vdp", y0=(2.0, 0.0), tau=3.0,
                           n_points=40, n_washout=10, refine_factor=1)
        with pytest.raises(TrialDiverged, match="step 9"):
            train(cfg)


class TestGenerate:
    def test_zero_weights_hold_constant(self, smoke_run):
        _, model, _ = smoke_run
        frozen = dataclasses.replace(model,
                                     w_stage2=np.zeros_like(model.w_stage2))
        out = generate(frozen, np.array([0.3, -0.2]), 10)
        np.testing.assert_array_equal(out.states,
                                      np.tile([0.3, -0.2], (11, 1)))

    def test_first_step_matches_training_readout(self, smoke_run):
        _, model, _ = smoke_run
        out = generate(model, model.ybar.states[0], 1)
        np.testing.assert_allclose(out.states[1], model.y_final.states[1],
                                   rtol=0, atol=1e-13)

    def test_run_stays_finite(self, smoke_run):
        _, model, _ = smoke_run
        out = generate(model, model.ybar.states[0], 100)
        assert np.isfinite(out.states).all()
        assert out.n_points == 101

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises(self):
        # one neuron pinned at h = 0.5 and a near-overflow weight: the
        # output grows by 5e306 per step and exceeds the float range
        from test_constraints import single_neuron_reservoir
        from esnode.pipeline import TrainedModel
        res = single_neuron_reservoir(c=np.arctanh(0.5))
        flat = Trajectory(t0=0.0, tau=0.1, states=np.zeros((2, 1)))
        w = np.array([[1e308]])
        model = TrainedModel(reservoir=res, w_stage1=w, w_stage2=w,
                             ybar=flat, y_final=flat, washout_inputs=flat)
        with pytest.raises(NonFinite, match="step"):
            generate(model, np.array([0.0]), 50)


class TestReportAndArtifacts:
    def test_flat_dict_contents(self, smoke_run):
        _, _, report = smoke_run
        flat = report_flat_dict(report)
        assert flat["config.problem"] == "harmonic"
        assert flat["config.reservoir.n_neurons"] == 30
        assert flat["config.stage1.lambda"] == 1e-7
        assert flat["prng.name"] == "numpy.random.PCG64"
        assert flat["seed"] == 0
        assert isinstance(flat["metrics.rmse"], list)
        assert len(flat["metrics.rmse"]) == 2
        assert not any(k.startswith("timing") for k in flat)
        assert not any(isinstance(v, dict) for v in flat.values())

    def test_atomic_write(self, tmp_path):
        path = str(tmp_path / "x.txt")
        atomic_write_text(path, "hello\n")
        with open(path) as fh:
            assert fh.read() == "hello\n"
        assert not os.path.exists(path + ".tmp")

    def test_artifact_set(self, smoke_run, tmp_path):
        _, model, report = smoke_run
        out = tmp_path / "run"
        write_artifacts(model, report, str(out))
        names = sorted(p.name for p in out.iterdir())
        assert names == sorted([
            "trial.csv", "ybar_stage1.csv", "y_stage2.csv", "reference.csv",
            "residuals_stage1.csv", "residuals_stage2.csv",
            "convergence_stage1.log", "convergence_stage2.log",
            "report.json", "timing.json",
        ])

    def test_report_json_sorted_and_timing_separate(self, smoke_run,
                                                    tmp_path):
        _, model, report = smoke_run
        out = tmp_path / "run"
        write_artifacts(model, report, str(out))
        text = (out / "report.json").read_text()
        data = json.loads(text)
        assert list(data) == sorted(data)
        assert not any(k.startswith("timing") for k in data)
        timing = json.loads((out / "timing.json").read_text())
        assert set(timing) == {f"timing.{k}" for k in
                               ("trial", "stage1", "stage2", "evaluate",
                                "total")}

    def test_rerun_byte_identical_except_timing(self, smoke_run, tmp_path):
        cfg, model, report = smoke_run
        model2, report2 = train(cfg)
        a, b = tmp_path / "a", tmp_path / "b"
        write_artifacts(model, report, str(a))
        write_artifacts(model2, report2, str(b))
        for p in a.iterdir():
            if p.name == "timing.json":
                continue
            assert p.read_bytes() == (b / p.name).read_bytes(), p.name

    def test_convergence_log_parses(self, smoke_run, tmp_path):
        _, model, report = smoke_run
        out = tmp_path / "run"
        write_artifacts(model, report, str(out))
        for name in ("convergence_stage1.log", "convergence_stage2.log"):
            lines = (out / name).read_text().splitlines()
            assert len(lines) >= 1
            for line in lines:
                fields = line.split(",")
                assert len(fields) == 8
                float(fields[1])

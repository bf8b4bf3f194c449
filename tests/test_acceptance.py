"""Acceptance gate: the eight shipped criteria at their stated tolerances.

Each test prints one summary line (bypassing capture) so a full run shows a
visible pass/fail verdict per criterion. Expensive trainings are shared
through module-scoped fixtures: the harmonic sweep runs ten seeds once, and
the van der Pol and Lorenz configs each train exactly twice (the second run
feeds the determinism check).
"""
import dataclasses
import json
import statistics
import time
from importlib import resources

import numpy as np
import pytest

from esnode.constraints import (fd_jacobian, stage1_jacobian, stage1_readout,
                                stage1_residuals, stage2_jacobian,
                                stage2_residuals)
from esnode.pipeline import RunConfig, train, write_artifacts
from esnode.regression import GnConfig, solve_stage
from esnode.reservoir import drive
from esnode.trial import Trajectory

from test_constraints import make_instance

STOP_TOL = 1e-5


def shipped_config(name):
    text = resources.files("esnode").joinpath(
        f"configs/{name}.json").read_text()
    return RunConfig.from_dict(json.loads(text))


def with_seed(cfg, seed):
    return dataclasses.replace(
        cfg, reservoir=dataclasses.replace(cfg.reservoir, seed=seed))


@pytest.fixture()
def announce(capsys):
    def _announce(line):
        with capsys.disabled():
            print(line)
    return _announce


@pytest.fixture(scope="module")
def harmonic_sweep():
    cfg0 = shipped_config("harmonic")
    runs = []
    for seed in range(10):
        t = time.perf_counter()
        model, report = train(with_seed(cfg0, seed))
        runs.append((seed, model, report, time.perf_counter() - t))
    return runs


@pytest.fixture(scope="module")
def vdp_runs():
    cfg = shipped_config("vdp")
    return cfg, train(cfg), train(cfg)


@pytest.fixture(scope="module")
def lorenz_runs():
    cfg = shipped_config("lorenz")
    return cfg, train(cfg), train(cfg)


def test_criterion_1_harmonic_accuracy(harmonic_sweep, announce):
    errs = [r.metrics_stage2.max_abs_overall for _, _, r, _ in harmonic_sweep]
    times = [dt for *_, dt in harmonic_sweep]
    n_ok = sum(e <= 2e-2 for e in errs)
    med = statistics.median(errs)
    ok = n_ok >= 8 and med <= 1e-2 and max(times) <= 60.0
    announce(f"[criterion 1] harmonic: max-abs error <= 2e-2 on {n_ok}/10 "
             f"seeds (need 8), median {med:.3e} (<= 1e-2), slowest run "
             f"{max(times):.2f}s (<= 60s): {'PASS' if ok else 'FAIL'}")
    assert n_ok >= 8
    assert med <= 1e-2
    assert max(times) <= 60.0


def _stopped_by_tolerance(history, max_iters):
    return (len(history) <= max_iters
            and history[-1].rel_loss_change < STOP_TOL)


def test_criterion_2_stopping_behavior(harmonic_sweep, announce):
    n_ok = 0
    for _, _, report, _ in harmonic_sweep:
        stop_ok = (
            _stopped_by_tolerance(report.stage1_history,
                                  report.config.stage1.max_iters)
            and _stopped_by_tolerance(report.stage2_history,
                                      report.config.stage2.max_iters))
        err_ok = report.metrics_stage2.max_abs_overall <= 2e-2
        n_ok += stop_ok and err_ok
    ok = n_ok >= 8
    announce(f"[criterion 2] harmonic: both stages hit |dL/L| < 1e-5 within "
             f"10 iterations on {n_ok}/10 accurate seeds (need 8): "
             f"{'PASS' if ok else 'FAIL'}")
    assert n_ok >= 8


def test_criterion_3_van_der_pol(vdp_runs, announce):
    _, (model, report), _ = vdp_runs
    drop = report.stage1_initial_loss / report.stage1_final_loss
    rmse_model = report.metrics_stage2.rmse_overall
    rmse_trial = report.metrics_trial.rmse_overall
    y1_max = float(np.abs(model.y_final.states[:, 0]).max())
    ok = drop >= 1e2 and rmse_model < rmse_trial and y1_max <= 3.0
    announce(f"[criterion 3] vdp: stage-1 loss drop {drop:.0f}x (>= 100x), "
             f"stage-2 RMSE {rmse_model:.3f} < trial RMSE {rmse_trial:.3f}, "
             f"max |y1| {y1_max:.2f} (<= 3): {'PASS' if ok else 'FAIL'}")
    assert drop >= 1e2
    assert rmse_model < rmse_trial
    assert y1_max <= 3.0


def test_criterion_4_lorenz(lorenz_runs, announce):
    cfg, (model, report), _ = lorenz_runs
    ref = report.reference.states
    y = model.y_final.states
    trial_kept = report.trial.states[cfg.n_washout:]
    dev_model = float(np.abs(y[:31] - ref[:31]).max())
    dev_trial = float(np.abs(trial_kept[:31] - ref[:31]).max())
    ratio = dev_model / dev_trial
    in_box = (np.abs(y[:, 0]).max() <= 25.0
              and np.abs(y[:, 1]).max() <= 30.0
              and y[:, 2].min() >= -1.0 and y[:, 2].max() <= 55.0)
    ok = np.isfinite(y).all() and ratio <= 5.0 and in_box
    announce(f"[criterion 4] lorenz: trained without overflow, 30-step "
             f"deviation {dev_model:.3f} = {ratio:.2f}x trial (<= 5x), "
             f"attractor box {'held' if in_box else 'violated'}: "
             f"{'PASS' if ok else 'FAIL'}")
    assert np.isfinite(y).all()
    assert ratio <= 5.0
    assert in_box


def _second_stage_instance(name, tau, n_neurons):
    system, res, hs, kept = make_instance(name=name, n_neurons=n_neurons,
                                          n_points=10, tau=tau, norm=2.0)
    rng = np.random.default_rng(0)
    w = 0.3 * rng.standard_normal((system.dim, n_neurons))
    ybar = stage1_readout(w, hs, kept.states[0], tau, t0=kept.t0)
    hs2 = drive(res, Trajectory(t0=0.0, tau=tau, states=ybar.states[:-1]))
    return system, res, hs, kept, hs2, ybar, w


def test_criterion_5_jacobian_oracle(announce):
    t0 = time.perf_counter()
    worst = 0.0
    for name, tau in (("harmonic", 0.05), ("vdp", 0.1), ("lorenz", 0.03)):
        system, res, hs, kept, hs2, ybar, w = _second_stage_instance(
            name, tau, 20)
        anchor = kept.states[0]

        def res1(w_):
            return stage1_residuals(system, w_, hs, anchor, tau).stacked()

        def res2(w_):
            return stage2_residuals(system, w_, hs2, ybar, tau).stacked()

        j1 = stage1_jacobian(system, w, hs, anchor, tau)
        f1 = fd_jacobian(res1, w)
        j2 = stage2_jacobian(system, w, hs2, ybar, tau)
        f2 = fd_jacobian(res2, w)
        worst = max(worst,
                    float(np.abs(j1 - f1).max() / np.abs(f1).max()),
                    float(np.abs(j2 - f2).max() / np.abs(f2).max()))
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-5 and elapsed < 5.0
    announce(f"[criterion 5] jacobians vs finite differences on all three "
             f"systems (N=20, 10 steps): max relative error {worst:.2e} "
             f"(< 1e-5) in {elapsed:.2f}s (< 5s): {'PASS' if ok else 'FAIL'}")
    assert worst < 1e-5
    assert elapsed < 5.0


def test_criterion_6_invariance_constraint_fidelity(announce):
    worst = 0.0
    eps = 1e-6
    for name, tau in (("harmonic", 0.05), ("vdp", 0.1), ("lorenz", 0.03)):
        system, res, hs, kept, hs2, ybar, w = _second_stage_instance(
            name, tau, 20)
        omega = res.omega.toarray()
        g1a = hs.sig + (hs.z - hs.z0) * hs.sig_dot
        sr1 = stage1_residuals(system, w, hs, kept.states[0], tau)
        for k in range(hs.n_steps):
            u_z = omega @ hs.sig0[k]
            dd = (w @ np.tanh(hs.z[k] + eps * u_z)
                  - w @ np.tanh(hs.z[k] - eps * u_z)) / (2 * eps)
            expect = dd - w @ (g1a[k] - hs.sig0[k])
            worst = max(worst, float(np.abs(sr1.e3[k] - expect).max()))
        g1b = hs2.sig + (hs2.z - hs2.z0) * hs2.sig_dot
        sr2 = stage2_residuals(system, w, hs2, ybar, tau)
        for k in range(hs2.n_steps):
            u = w @ hs2.sig0[k]
            zp = hs2.z[k] + res.v @ (eps * u)
            zm = hs2.z[k] - res.v @ (eps * u)
            dd = ((eps * u + tau * (w @ np.tanh(zp)))
                  - (-eps * u + tau * (w @ np.tanh(zm)))) / (2 * eps)
            expect = dd - w @ g1b[k]
            worst = max(worst, float(np.abs(sr2.e3[k] - expect).max()))
    ok = worst < 1e-6
    announce(f"[criterion 6] inter-step constraint vs finite-difference "
             f"directional derivative, both stages, all systems: max abs "
             f"difference {worst:.2e} (< 1e-6): {'PASS' if ok else 'FAIL'}")
    assert worst < 1e-6


def test_criterion_7_linear_problem_exactness(announce):
    # a linear vector field makes every residual family affine in the
    # weights, so a single undamped step must land on the optimum
    system, _, hs, kept = make_instance(n_neurons=8, n_points=30,
                                        connectivity=0.6, norm=3.0)
    anchor = kept.states[0]

    def res_fn(w):
        return stage1_residuals(system, w, hs, anchor, 0.05).stacked()

    def jac_fn(w):
        return stage1_jacobian(system, w, hs, anchor, 0.05)

    w, history = solve_stage(res_fn, jac_fn, np.zeros((2, 8)),
                             GnConfig(lam=1e-12, max_iters=10))
    grad_inf = float(np.abs(jac_fn(w).T @ res_fn(w)).max())
    ok = (len(history) == 2 and history[0].halvings == 0
          and history[1].rel_step < 1e-8)
    announce(f"[criterion 7] affine instance: stopped after "
             f"{len(history)} iterations (first accepted at full step), "
             f"iteration-2 rel_step {history[1].rel_step:.2e} (< 1e-8), "
             f"gradient {grad_inf:.2e}: {'PASS' if ok else 'FAIL'}")
    assert len(history) == 2
    assert history[0].halvings == 0
    assert history[1].rel_step < 1e-8
    assert grad_inf < 1e-8


def test_criterion_8_determinism(harmonic_sweep, vdp_runs, lorenz_runs,
                                 tmp_path, announce):
    harmonic_cfg = shipped_config("harmonic")
    pairs = {
        "harmonic": ((harmonic_sweep[0][1], harmonic_sweep[0][2]),
                     train(harmonic_cfg)),
        "vdp": (vdp_runs[1], vdp_runs[2]),
        "lorenz": (lorenz_runs[1], lorenz_runs[2]),
    }
    assert harmonic_sweep[0][0] == harmonic_cfg.reservoir.seed
    n_files = 0
    identical = True
    for name, (run_a, run_b) in pairs.items():
        dir_a, dir_b = tmp_path / f"{name}_a", tmp_path / f"{name}_b"
        write_artifacts(run_a[0], run_a[1], str(dir_a))
        write_artifacts(run_b[0], run_b[1], str(dir_b))
        for path in sorted(dir_a.iterdir()):
            if path.name == "timing.json":  # wall clock, not a result
                continue
            same = path.read_bytes() == (dir_b / path.name).read_bytes()
            identical = identical and same
            n_files += 1
    announce(f"[criterion 8] determinism: {n_files} artifacts across the "
             f"three shipped configs byte-identical on rerun: "
             f"{'PASS' if identical else 'FAIL'}")
    assert identical

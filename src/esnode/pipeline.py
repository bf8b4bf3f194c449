"""Two-pass training orchestration.

A run proceeds in fixed order: integrate the trial solution, split off the
washout, drive the reservoir over the trial and fit the first readout against
the constraint residuals, re-drive the reservoir over the first-stage output
and refit, then score both stages against a reference trajectory. The
reference is the closed-form solution when the problem has one, otherwise
RK4 at step tau/20, whose O(h^4) global error stays far below what the
metrics resolve (see reference_trajectory). The reference never enters the
fit, so its step moves only reference.csv and the metrics. All artifacts a
run produces are written atomically so a crash never leaves a half-written
file.

The trained model keeps the hidden state the stage-2 drive reached at the
end of the washout, the state its readout was fitted from. Free runs
(`generate`) start from it and never drive the reservoir again.
"""
from __future__ import annotations

import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Dict, Tuple

import numpy as np

from . import constraints, regression
from . import trial as trial_mod
from .constraints import StageResiduals
from .errors import (DegenerateMatrix, DimensionMismatch, LengthMismatch,
                     NonFinite, SingularSystem, TrialDiverged)
from .problems import OdeSystem, get_system
from .regression import GnConfig, IterationRecord
from .reservoir import HiddenSequence, Reservoir, ReservoirParams, build, drive
from .trial import Trajectory

Array = np.ndarray

PRNG_NAME = "numpy.random.PCG64"

# refinement of the RK4 oracle used when no closed-form reference exists
REFERENCE_REFINE = 20


@dataclass(frozen=True)
class RunConfig:
    problem: str
    y0: tuple
    tau: float
    n_points: int
    n_washout: int
    refine_factor: int
    reservoir: ReservoirParams
    stage1: GnConfig
    stage2: GnConfig

    def __post_init__(self):
        object.__setattr__(self, "y0", tuple(float(x) for x in self.y0))
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")
        if self.n_washout < 0:
            raise ValueError("n_washout must be >= 0")
        if self.refine_factor < 1:
            raise ValueError("refine_factor must be >= 1")

    @classmethod
    def from_dict(cls, d: dict) -> "RunConfig":
        """Config from its JSON form; a key the program does not read is an
        error, at the top level as in every sub-object."""
        _reject_unknown(d, {f.name for f in fields(cls)})
        return cls(
            problem=str(d["problem"]),
            y0=tuple(float(x) for x in d["y0"]),
            tau=float(d["tau"]),
            n_points=int(d["n_points"]),
            n_washout=int(d["n_washout"]),
            refine_factor=int(d["refine_factor"]),
            reservoir=ReservoirParams(**d["reservoir"]),
            stage1=_gn_from_dict(d["stage1"]),
            stage2=_gn_from_dict(d["stage2"]),
        )

    def to_dict(self) -> dict:
        r = self.reservoir
        return {
            "problem": self.problem,
            "y0": list(self.y0),
            "tau": self.tau,
            "n_points": self.n_points,
            "n_washout": self.n_washout,
            "refine_factor": self.refine_factor,
            "reservoir": {
                "n_neurons": r.n_neurons,
                "connectivity": r.connectivity,
                "spectral_norm": r.spectral_norm,
                "input_scale": r.input_scale,
                "seed": r.seed,
            },
            "stage1": _gn_to_dict(self.stage1),
            "stage2": _gn_to_dict(self.stage2),
        }


def _reject_unknown(d: dict, known: set) -> None:
    unknown = sorted(set(d) - known)
    if unknown:
        raise ValueError(f"unknown config keys: {', '.join(unknown)}")


def _gn_from_dict(d: dict) -> GnConfig:
    """A stage's config. The damping is serialized as lambda, the name of
    the Tikhonov parameter; that is its only spelling."""
    _reject_unknown(d, {"lambda", "max_iters"})
    return GnConfig(lam=d["lambda"], max_iters=d["max_iters"])


def _gn_to_dict(cfg: GnConfig) -> dict:
    return {"lambda": cfg.lam, "max_iters": cfg.max_iters}


@dataclass(frozen=True)
class TrainedModel:
    """The fitted readouts with their reservoir.

    h_washout is the hidden state after the washout inputs, row 0 of the
    stage-2 drive: the state the stage-2 readout was fitted from and the
    one `generate` starts from.
    """

    reservoir: Reservoir
    w_stage1: Array
    w_stage2: Array
    ybar: Trajectory
    y_final: Trajectory
    h_washout: Array


@dataclass(frozen=True)
class Metrics:
    """Per-component and overall deviation of a trajectory from a reference."""

    max_abs: tuple
    rmse: tuple
    max_abs_overall: float
    rmse_overall: float


@dataclass(frozen=True)
class RunReport:
    config: RunConfig
    stage1_history: tuple
    stage2_history: tuple
    stage1_initial_loss: float
    stage2_initial_loss: float
    stage1_residuals: StageResiduals
    stage2_residuals: StageResiduals
    metrics_trial: Metrics
    metrics_stage2: Metrics
    trial: Trajectory
    reference: Trajectory
    timings: Dict[str, float]
    seed: int
    prng_name: str

    @property
    def stage1_final_loss(self) -> float:
        return self.stage1_history[-1].loss

    @property
    def stage2_final_loss(self) -> float:
        return self.stage2_history[-1].loss


@contextmanager
def _phase(name: str):
    """Re-raise numerical failures with the pipeline phase that hit them."""
    try:
        yield
    except (NonFinite, SingularSystem, DegenerateMatrix) as exc:
        raise type(exc)(f"{name}: {exc}") from exc


def reference_trajectory(system: OdeSystem, cfg: RunConfig) -> Trajectory:
    """Reference over the kept span: closed form if available, else fine RK4.

    The RK4 reference steps at tau/REFERENCE_REFINE from y0 and keeps every
    REFERENCE_REFINE-th state. On the shipped configs, max-abs gaps to a run
    at half that step are 2.2e-8 (vdp, state scale 2.7) and 1.2e-7 (lorenz,
    state scale 34); to tau/400 they are 2.4e-8 and 1.3e-7.
    """
    y0 = np.asarray(cfg.y0, dtype=float)
    t_anchor = cfg.n_washout * cfg.tau
    if system.reference is not None:
        times = t_anchor + cfg.tau * np.arange(cfg.n_points + 1)
        return Trajectory(t0=t_anchor, tau=cfg.tau,
                          states=system.reference(times, y0))
    n_total = cfg.n_washout + cfg.n_points
    fine = trial_mod.rk4(system, y0, cfg.tau / REFERENCE_REFINE,
                         n_total * REFERENCE_REFINE)
    coarse = fine.states[::REFERENCE_REFINE]
    return Trajectory(t0=t_anchor, tau=cfg.tau,
                      states=coarse[cfg.n_washout:].copy())


def evaluate(candidate: Trajectory, reference: Trajectory) -> Metrics:
    """Max-abs and RMSE per component and overall."""
    if candidate.n_points != reference.n_points:
        raise LengthMismatch(
            f"candidate has {candidate.n_points} points, reference "
            f"{reference.n_points}"
        )
    if candidate.dim != reference.dim:
        raise DimensionMismatch(
            f"candidate dimension {candidate.dim} != reference {reference.dim}"
        )
    diff = candidate.states - reference.states
    return Metrics(
        max_abs=tuple(float(x) for x in np.abs(diff).max(axis=0)),
        rmse=tuple(float(x) for x in np.sqrt((diff ** 2).mean(axis=0))),
        max_abs_overall=float(np.abs(diff).max()),
        rmse_overall=float(np.sqrt((diff ** 2).mean())),
    )


def integrate_trial(cfg: RunConfig
                    ) -> Tuple[OdeSystem, Trajectory, Trajectory, Trajectory]:
    """The problem's system, its trial solution over washout and kept span,
    and that trial split into washout inputs and the n_points + 1 kept
    points. A trial that leaves the finite range raises TrialDiverged."""
    system = get_system(cfg.problem)
    if len(cfg.y0) != system.dim:
        raise DimensionMismatch(
            f"{cfg.problem} has dimension {system.dim}, y0 has {len(cfg.y0)}"
        )
    try:
        full_trial = trial_mod.refine_downsample(
            system, cfg.y0, cfg.tau, cfg.n_washout + cfg.n_points,
            cfg.refine_factor)
    except NonFinite as exc:
        raise TrialDiverged(f"trial integration diverged: {exc}") from exc
    washout, kept = trial_mod.washout_crop(full_trial, cfg.n_washout,
                                           cfg.n_points + 1)
    return system, full_trial, washout, kept


def drive_past_washout(res: Reservoir, washout: Trajectory,
                       y: Trajectory) -> HiddenSequence:
    """Drive the reservoir over the washout inputs and then y[:-1], and drop
    the washout steps. The last point of y is never an input; it only
    anchors targets."""
    inputs = Trajectory(t0=washout.t0, tau=y.tau,
                        states=np.vstack([washout.states, y.states[:-1]]))
    return drive(res, inputs).drop_leading(washout.n_points)


def train(cfg: RunConfig) -> Tuple[TrainedModel, RunReport]:
    """Run the full two-pass scheme and score it against the reference."""
    timings: Dict[str, float] = {}
    t_start = time.perf_counter()

    t = time.perf_counter()
    system, full_trial, washout, kept = integrate_trial(cfg)
    anchor = kept.states[0]
    timings["trial"] = time.perf_counter() - t

    t = time.perf_counter()
    with _phase("stage1"):
        res = build(cfg.reservoir, system.dim)
        hs1 = drive_past_washout(res, washout, kept)
        w0 = regression.ridge_initial_guess(hs1, kept, cfg.tau, cfg.stage1.lam)

        def res1(w: Array) -> Array:
            return constraints.stage1_residuals(
                system, w, hs1, anchor, cfg.tau).stacked()

        e_init = res1(w0)
        stage1_initial_loss = float(e_init @ e_init)
        w1, hist1 = regression.solve_stage(
            res1, constraints.stage1_operator(system, hs1, anchor, cfg.tau),
            w0, cfg.stage1)
        ybar = constraints.stage1_readout(w1, hs1, anchor, cfg.tau, t0=kept.t0)
        sr1 = constraints.stage1_residuals(system, w1, hs1, anchor, cfg.tau)
        # stage 2 drives its own sequence; free this one and the features
        # cached on it before stage 2 allocates
        del hs1, res1
    timings["stage1"] = time.perf_counter() - t

    t = time.perf_counter()
    with _phase("stage2"):
        # hidden state is conditioned by the washout before ybar takes over
        hs2 = drive_past_washout(res, washout, ybar)

        def res2(w: Array) -> Array:
            return constraints.stage2_residuals(
                system, w, hs2, ybar, cfg.tau).stacked()

        e_init = res2(w1)
        stage2_initial_loss = float(e_init @ e_init)
        w2, hist2 = regression.solve_stage(
            res2, constraints.stage2_operator(system, hs2, ybar, cfg.tau),
            w1, cfg.stage2)
        y_final = constraints.stage2_readout(w2, hs2, ybar, cfg.tau)
        sr2 = constraints.stage2_residuals(system, w2, hs2, ybar, cfg.tau)
        # a copy, so the model does not keep the stage-2 sequence alive
        h_washout = hs2.h[0].copy()
    timings["stage2"] = time.perf_counter() - t

    t = time.perf_counter()
    with _phase("evaluate"):
        reference = reference_trajectory(system, cfg)
        metrics_trial = evaluate(kept, reference)
        metrics_stage2 = evaluate(y_final, reference)
    timings["evaluate"] = time.perf_counter() - t
    timings["total"] = time.perf_counter() - t_start

    model = TrainedModel(reservoir=res, w_stage1=w1, w_stage2=w2, ybar=ybar,
                         y_final=y_final, h_washout=h_washout)
    report = RunReport(
        config=cfg,
        stage1_history=tuple(hist1), stage2_history=tuple(hist2),
        stage1_initial_loss=stage1_initial_loss,
        stage2_initial_loss=stage2_initial_loss,
        stage1_residuals=sr1, stage2_residuals=sr2,
        metrics_trial=metrics_trial, metrics_stage2=metrics_stage2,
        trial=full_trial, reference=reference, timings=timings,
        seed=cfg.reservoir.seed, prng_name=PRNG_NAME,
    )
    return model, report


def generate(model: TrainedModel, y_start, n_steps: int) -> Trajectory:
    """Closed-loop generation: each output feeds back as the next input.

    The loop starts from model.h_washout, the post-washout state the
    stage-2 readout was trained on, so the first step matches the trained
    regime. Each step is z = (tau*b + c + omega.h) + v.y, h = tanh(z),
    y_next = y + tau*(w.h), written into preallocated buffers. Steps are not
    checked one by one: the rows are checked once after the loop, and the
    first non-finite row names the step that diverged.
    """
    res = model.reservoir
    tau = model.y_final.tau
    omega, v, w = res.omega, res.v, model.w_stage2
    y = np.asarray(y_start, dtype=float)
    states = np.empty((n_steps + 1, y.shape[0]))
    states[0] = y
    base = tau * res.b + res.c
    h = model.h_washout.copy()
    z = np.empty_like(h)
    with np.errstate(all="ignore"):
        for n in range(n_steps):
            np.add(base, omega @ h, out=z)
            z += v @ states[n]
            np.tanh(z, out=h)
            np.add(states[n], tau * (w @ h), out=states[n + 1])
    finite = np.isfinite(states[1:]).all(axis=1)
    if not finite.all():
        raise NonFinite("closed-loop generation diverged at step "
                        f"{int(np.argmin(finite)) + 1}")
    return Trajectory(t0=model.ybar.t0, tau=tau, states=states)


def report_flat_dict(report: RunReport) -> dict:
    """Flatten the report for serialization; timings are kept out because
    wall-clock varies between byte-identical runs."""
    flat: Dict[str, object] = {}

    def _walk(prefix: str, obj: dict) -> None:
        for key, val in obj.items():
            path = f"{prefix}.{key}"
            if isinstance(val, dict):
                _walk(path, val)
            else:
                flat[path] = val

    _walk("config", report.config.to_dict())
    flat["stage1.final_loss"] = report.stage1_final_loss
    flat["stage2.final_loss"] = report.stage2_final_loss
    flat["metrics.max_abs"] = list(report.metrics_stage2.max_abs)
    flat["metrics.rmse"] = list(report.metrics_stage2.rmse)
    flat["prng.name"] = report.prng_name
    flat["seed"] = report.seed
    return flat


def atomic_write_text(path: str, text: str) -> None:
    """Write text so the file appears complete or not at all."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def write_artifacts(model: TrainedModel, report: RunReport,
                    out_dir: str) -> None:
    """Write every run artifact; each file appears atomically or not at all."""
    os.makedirs(out_dir, exist_ok=True)
    files = {
        "trial.csv": trial_mod.to_csv(report.trial),
        "ybar_stage1.csv": trial_mod.to_csv(model.ybar),
        "y_stage2.csv": trial_mod.to_csv(model.y_final),
        "reference.csv": trial_mod.to_csv(report.reference),
        "residuals_stage1.csv":
            constraints.residuals_to_csv(report.stage1_residuals),
        "residuals_stage2.csv":
            constraints.residuals_to_csv(report.stage2_residuals),
        "convergence_stage1.log":
            regression.history_to_log(report.stage1_history),
        "convergence_stage2.log":
            regression.history_to_log(report.stage2_history),
        "report.json":
            json.dumps(report_flat_dict(report), sort_keys=True, indent=2)
            + "\n",
        "timing.json":
            json.dumps({f"timing.{k}": v for k, v in report.timings.items()},
                       sort_keys=True, indent=2) + "\n",
    }
    for name, text in files.items():
        atomic_write_text(os.path.join(out_dir, name), text)

"""Workloads, the fit cycle they repeat, and the checks on its outputs.

A fit cycle is what `esnode run` does plus a free-run: load a config copy
with one reservoir seed through `RunConfig.from_dict`, `pipeline.train`,
`pipeline.write_artifacts`, then `pipeline.generate` over the fitted
horizon several times. Every function is called through its module so the
wrappers in `tracer` see the call.
"""
from __future__ import annotations

import copy
import dataclasses
import os
import time
import warnings
from typing import Callable, Dict, List, Optional

import numpy as np
from scipy.linalg import LinAlgWarning

from esnode import pipeline
from esnode import trial as trial_mod
from esnode.errors import EsnodeError, NonFinite

from tracer import Tracer

# free-runs of the trained model after each fit
FREERUNS_PER_FIT = 5


def _harmonic_gate(cfg, model, report) -> Optional[str]:
    err = report.metrics_stage2.max_abs_overall
    return None if err <= 2e-2 else f"max-abs error {err:.3e} > 2e-2"


def _vdp_gate(cfg, model, report) -> Optional[str]:
    drop = report.stage1_initial_loss / report.stage1_final_loss
    rmse, rmse_trial = (report.metrics_stage2.rmse_overall,
                        report.metrics_trial.rmse_overall)
    y1_max = float(np.abs(model.y_final.states[:, 0]).max())
    misses = []
    if drop < 1e2:
        misses.append(f"stage-1 loss drop {drop:.1f}x < 100x")
    if rmse >= rmse_trial:
        misses.append(f"stage-2 RMSE {rmse:.4f} >= trial {rmse_trial:.4f}")
    if y1_max > 3.0:
        misses.append(f"max |y1| {y1_max:.3f} > 3")
    return "; ".join(misses) or None


def _lorenz_gate(cfg, model, report) -> Optional[str]:
    ref = report.reference.states
    y = model.y_final.states
    trial_kept = report.trial.states[cfg.n_washout:]
    ratio = (np.abs(y[:31] - ref[:31]).max()
             / np.abs(trial_kept[:31] - ref[:31]).max())
    in_box = (np.abs(y[:, 0]).max() <= 25.0 and np.abs(y[:, 1]).max() <= 30.0
              and y[:, 2].min() >= -1.0 and y[:, 2].max() <= 55.0)
    misses = []
    if ratio > 5.0:
        misses.append(f"30-step deviation {ratio:.2f}x trial > 5x")
    if not in_box:
        misses.append("states leave the attractor box")
    return "; ".join(misses) or None


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    config: str  # shipped config file name under src/esnode/configs
    why: str
    gate: Callable  # (cfg, model, report) -> reason the gate was missed
    top_self: tuple  # layer metrics expected to hold the largest self time
    # nominal seconds of one fit cycle at 1 BLAS thread on a 2-vCPU AMD
    # EPYC VM; sets how many fits a run makes
    cycle_s: float


# The gates are the ones tests/test_acceptance.py applies to each system.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("harmonic", "harmonic.json",
             "refined Euler trial is most of a 0.3 s fit; closed-form "
             "reference; small tall J; stage-2 iterations vary by seed",
             _harmonic_gate, ("trial.refine_downsample_s",), 0.30),
    Workload("vdp", "vdp.json",
             "Python RK4 reference is over half of a 0.75 s fit; tall "
             "3000x600 J; the roundoff-sensitive fit",
             _vdp_gate, ("trial.rk4_s",), 0.78),
    Workload("lorenz", "lorenz.json",
             "dense damped solves on a wide 1800x4500 J are over 90% of a "
             "19 s fit; memory-bound 162 MB normal matrix",
             _lorenz_gate, ("regression.gn_step_s", "regression.factor_s"),
             18.5),
)}


def reservoir_seeds(workload: str, seed: int):
    """Endless stream of reservoir seeds derived from the workload seed."""
    rng = np.random.default_rng([seed, list(WORKLOADS).index(workload)])
    while True:
        yield int(rng.integers(2 ** 31 - 1))


def n_cycles(workload: Workload, seconds: float, per_cycle: int,
             minimum: int) -> int:
    """Cycles of `per_cycle` fits that fill about `seconds` on the reference
    host. The count comes from the nominal cycle time, never from a clock,
    so a workload seed gives the same fits, and so the same failures, on
    every run."""
    return max(minimum, round(seconds / (per_cycle * workload.cycle_s)))


@dataclasses.dataclass
class FitResult:
    """Outcome of one fit cycle; failures count, wrong outputs void the run."""

    seed: int
    fit_s: Optional[float] = None
    rmse_ratio: Optional[float] = None
    failure: Optional[str] = None
    freerun_rates: List[float] = dataclasses.field(default_factory=list)
    freerun_failures: int = 0
    linalg_warnings: int = 0
    artifact_bytes: int = 0
    wrong: List[str] = dataclasses.field(default_factory=list)

    @property
    def attempted(self) -> int:
        return 1 + len(self.freerun_rates) + self.freerun_failures

    @property
    def failed(self) -> int:
        return (self.failure is not None) + self.freerun_failures


def _check_artifacts(model, out_dir: str) -> List[str]:
    with open(os.path.join(out_dir, "y_stage2.csv"), encoding="utf-8") as fh:
        written = trial_mod.from_csv(fh.read(), tau=model.y_final.tau)
    if not np.array_equal(written.states, model.y_final.states):
        return ["y_stage2.csv does not round-trip the trained trajectory"]
    return []


def fit_cycle(workload: Workload, base: dict, seed: int,
              out_dir: str) -> FitResult:
    """Fit one reservoir seed, write its artifacts, free-run it, check all."""
    result = FitResult(seed=seed)
    raw = copy.deepcopy(base)
    raw["reservoir"]["seed"] = seed
    cfg = pipeline.RunConfig.from_dict(raw)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _fit_and_freerun(workload, cfg, out_dir, result)
    for w in caught:
        if issubclass(w.category, LinAlgWarning):
            result.linalg_warnings += 1
        else:
            warnings.showwarning(w.message, w.category, w.filename, w.lineno)
    return result


def _fit_and_freerun(workload, cfg, out_dir, result) -> None:
    t = time.perf_counter()
    try:
        model, report = pipeline.train(cfg)
        pipeline.write_artifacts(model, report, out_dir)
    except EsnodeError as exc:
        result.failure = f"{type(exc).__name__}: {exc}"
        return
    result.fit_s = time.perf_counter() - t
    result.artifact_bytes = sum(
        os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))
    result.rmse_ratio = (report.metrics_stage2.rmse_overall
                         / report.metrics_trial.rmse_overall)
    if not np.isfinite(model.y_final.states).all():
        result.failure = "non-finite stage-2 states"
    else:
        result.failure = workload.gate(cfg, model, report)
    result.wrong += _check_artifacts(model, out_dir)

    y_start = model.ybar.states[0]
    first = None
    for _ in range(FREERUNS_PER_FIT):
        t = time.perf_counter()
        try:
            traj = pipeline.generate(model, y_start, cfg.n_points)
        except NonFinite:
            result.freerun_failures += 1
            continue
        result.freerun_rates.append(cfg.n_points / (time.perf_counter() - t))
        if first is None:
            first = traj.states
        elif not np.array_equal(first, traj.states):
            result.wrong.append("repeated free-runs of one model differ")


def layer_metrics(tracer: Tracer, result: FitResult) -> Dict[str, float]:
    """Per-layer numbers of one traced fit cycle; every time is a self time."""
    st = tracer.self_times()
    spans = tracer.spans

    def self_s(name: str) -> float:
        return st.get(name, 0.0)

    def total(name: str, attr: str) -> float:
        return sum(spans[i].attrs[attr] for i in tracer.indices(name))

    stages = tracer.indices("regression.solve_stage")
    gn = [len(tracer.indices("regression.gn_step", parent=s)) for s in stages]
    # every stage evaluates its residual once at the start, then once per
    # trial step: the full step plus each halving
    trial_evals = [len(tracer.indices("constraints.residual", parent=s)) - 1
                   for s in stages]
    jac = [spans[i] for i in tracer.indices("constraints.jacobian")]
    j_rows = max((s.attrs["rows"] for s in jac), default=0)
    j_cols = max((s.attrs["cols"] for s in jac), default=0)
    return {
        "trial.refine_downsample_s": self_s("trial.refine_downsample"),
        "trial.euler_steps": tracer.counts["trial.euler_steps"],
        "trial.rk4_s": self_s("trial.rk4"),
        "trial.rk4_steps": total("trial.rk4", "steps"),
        "problems.rhs_calls": tracer.counts["problems.rhs_calls"],
        "problems.jac_calls": tracer.counts["problems.jac_calls"],
        "reservoir.build_s": self_s("reservoir.build"),
        "reservoir.drive_s": self_s("reservoir.drive"),
        "reservoir.drive_steps": total("reservoir.drive", "steps"),
        "reservoir.omega_nnz": total("reservoir.build", "nnz"),
        "constraints.residual_s": self_s("constraints.residual"),
        "constraints.residual_calls":
            len(tracer.indices("constraints.residual")),
        "constraints.jacobian_s": self_s("constraints.jacobian"),
        "constraints.jacobian_calls": len(jac),
        "constraints.jacobian_mbytes": j_rows * j_cols * 8 / 1e6,
        "regression.ridge_s": self_s("regression.ridge"),
        "regression.gn_step_s": self_s("regression.gn_step"),
        "regression.factor_s": self_s("regression.factor"),
        "regression.j_rows": j_rows,
        "regression.j_cols": j_cols,
        "regression.gn_iters.stage1": gn[0],
        "regression.gn_iters.stage2": gn[1],
        "regression.halvings": sum(trial_evals) - sum(gn),
        "regression.accepted_ratio":
            total("regression.solve_stage", "accepted") / sum(trial_evals),
        "regression.linalg_warnings": result.linalg_warnings,
        "pipeline.train_s": self_s("pipeline.train"),
        "pipeline.reference_s": self_s("pipeline.reference"),
        "pipeline.evaluate_s": self_s("pipeline.evaluate"),
        "pipeline.write_artifacts_s": self_s("pipeline.write_artifacts"),
        "pipeline.artifact_bytes": result.artifact_bytes,
        "pipeline.generate_s": self_s("pipeline.generate"),
    }


def train_coverage(tracer: Tracer) -> float:
    """Share of pipeline.train wall time its direct child spans cover."""
    (idx,) = tracer.indices("pipeline.train")
    return tracer.covered(idx) / tracer.spans[idx].duration

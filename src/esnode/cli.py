"""Command-line front end.

Subcommands: run (full training, all artifacts), trial (trial trajectory
only), gradcheck (analytic vs finite-difference Jacobians on a shrunken
instance), report (pretty-print artifacts from a previous run). Exit codes:
0 success, 1 usage or configuration error, 2 numerical failure.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from typing import List, Optional

import numpy as np

from . import constraints, pipeline, regression
from . import trial as trial_mod
from .errors import (DegenerateMatrix, DimensionMismatch, LengthMismatch,
                     NonFinite, SingularSystem, TrialDiverged)
from .pipeline import RunConfig
from .reservoir import build

SEED_ENV_VAR = "ESNODE_SEED"

GRADCHECK_TOL = 1e-5

_ARTIFACTS = (
    "trial.csv", "ybar_stage1.csv", "y_stage2.csv", "reference.csv",
    "residuals_stage1.csv", "residuals_stage2.csv",
    "convergence_stage1.log", "convergence_stage2.log",
    "report.json", "timing.json",
)


class UsageError(Exception):
    """Bad invocation or unusable configuration."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; that status is reserved
    # for numerical failures here, so turn parse errors into UsageError
    def error(self, message):
        raise UsageError(message)


def _apply_override(config: dict, spec: str) -> None:
    """Apply one KEY=VALUE override; dotted keys descend into sub-objects."""
    key, sep, raw = spec.partition("=")
    if not sep or not key:
        raise UsageError(f"override '{spec}' is not of the form KEY=VALUE")
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    node = config
    parts = key.split(".")
    for part in parts[:-1]:
        node = node.setdefault(part, {})
        if not isinstance(node, dict):
            raise UsageError(f"cannot set '{key}': '{part}' is not an object")
    node[parts[-1]] = value


def _load_config(path: str, overrides: List[str]) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read config '{path}': {exc}") from exc
    except json.JSONDecodeError as exc:
        raise UsageError(f"config '{path}' is not valid JSON: {exc}") from exc
    for spec in overrides:
        _apply_override(raw, spec)
    env_seed = os.environ.get(SEED_ENV_VAR)
    if env_seed is not None:
        try:
            raw.setdefault("reservoir", {})["seed"] = int(env_seed)
        except ValueError as exc:
            raise UsageError(
                f"{SEED_ENV_VAR}='{env_seed}' is not an integer") from exc
    try:
        return RunConfig.from_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"config '{path}' is invalid: {exc}") from exc


def _cmd_run(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    model, report = pipeline.train(cfg)
    pipeline.write_artifacts(model, report, args.out)
    m = report.metrics_stage2
    print(f"stage1 final loss {report.stage1_final_loss:.6e}  "
          f"stage2 final loss {report.stage2_final_loss:.6e}  "
          f"max-abs error {m.max_abs_overall:.6e}  -> {args.out}")
    return 0


def _cmd_trial(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    _, traj, _, _ = pipeline.integrate_trial(cfg)
    os.makedirs(args.out, exist_ok=True)
    pipeline.atomic_write_text(os.path.join(args.out, "trial.csv"),
                               trial_mod.to_csv(traj))
    print(f"wrote trial.csv ({traj.n_points} rows) -> {args.out}")
    return 0


def _gradcheck_errors(cfg: RunConfig) -> tuple:
    """Max relative analytic-vs-FD Jacobian error of stage 1, then stage 2.

    Both stages are set up as pipeline.train sets them up, and both
    Jacobians are taken at the ridge warm start w; stage 2 is driven by the
    stage-1 readout at that w.
    """
    system, _, washout, kept = pipeline.integrate_trial(cfg)
    anchor = kept.states[0]
    res = build(cfg.reservoir, system.dim)
    hs1 = pipeline.drive_past_washout(res, washout, kept)
    w = regression.ridge_initial_guess(hs1, kept, cfg.tau, cfg.stage1.lam)
    ybar = constraints.stage1_readout(w, hs1, anchor, cfg.tau, t0=kept.t0)
    hs2 = pipeline.drive_past_washout(res, washout, ybar)
    errors = []
    for residuals, jacobian, hs, start in (
            (constraints.stage1_residuals, constraints.stage1_jacobian,
             hs1, anchor),
            (constraints.stage2_residuals, constraints.stage2_jacobian,
             hs2, ybar)):
        j_an = jacobian(system, w, hs, start, cfg.tau).j
        j_fd = constraints.fd_jacobian(
            lambda wx: residuals(system, wx, hs, start, cfg.tau).stacked(),
            w).j
        errors.append(float(np.abs(j_an - j_fd).max() / np.abs(j_fd).max()))
    return tuple(errors)


def _cmd_gradcheck(args) -> int:
    cfg = _load_config(args.config, args.overrides)
    cfg = replace(
        cfg,
        n_points=min(cfg.n_points, 10),
        n_washout=min(cfg.n_washout, 10),
        reservoir=replace(cfg.reservoir,
                          n_neurons=min(cfg.reservoir.n_neurons, 20)),
    )
    rel1, rel2 = _gradcheck_errors(cfg)
    ok = rel1 < GRADCHECK_TOL and rel2 < GRADCHECK_TOL
    print(f"stage1 jacobian max relative error: {rel1:.3e}")
    print(f"stage2 jacobian max relative error: {rel2:.3e}")
    print(f"gradcheck {'PASS' if ok else 'FAIL'} (tolerance {GRADCHECK_TOL})")
    return 0 if ok else 2


def _cmd_report(args) -> int:
    out_dir = args.out
    present = {name for name in _ARTIFACTS
               if os.path.exists(os.path.join(out_dir, name))}
    if not present:
        print(f"error: no run artifacts in '{out_dir}'", file=sys.stderr)
        return 1
    rows = []
    for name in ("report.json", "timing.json"):
        if name in present:
            with open(os.path.join(out_dir, name), encoding="utf-8") as fh:
                data = json.load(fh)
            rows.extend(sorted((k, str(v)) for k, v in data.items()))
        else:
            rows.append((name, "missing"))
    for name in _ARTIFACTS:
        if name not in present and name not in ("report.json", "timing.json"):
            rows.append((name, "missing"))
    width = max(len(key) for key, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(prog="esnode",
                     description="Constraint-trained reservoir ODE solver")
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p, need_out):
        p.add_argument("--config", required=True, metavar="PATH",
                       help="JSON run configuration")
        if need_out:
            p.add_argument("--out", required=True, metavar="DIR",
                           help="artifact output directory")
        p.add_argument("--set", dest="overrides", action="append",
                       default=[], metavar="KEY=VALUE",
                       help="override a config entry (dotted keys descend; "
                            "value parsed as JSON when possible)")

    _common(sub.add_parser("run", help="train and write all artifacts"), True)
    _common(sub.add_parser("trial", help="write the trial trajectory only"),
            True)
    _common(sub.add_parser("gradcheck",
                           help="compare analytic and finite-difference "
                                "Jacobians on a shrunken instance"), False)
    rp = sub.add_parser("report", help="print artifacts of a previous run")
    rp.add_argument("--out", required=True, metavar="DIR",
                    help="artifact directory of the run")
    return parser


_DISPATCH = {
    "run": _cmd_run,
    "trial": _cmd_trial,
    "gradcheck": _cmd_gradcheck,
    "report": _cmd_report,
}


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (NonFinite, SingularSystem, TrialDiverged, DegenerateMatrix) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DimensionMismatch, LengthMismatch, ValueError, KeyError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

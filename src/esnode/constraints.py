"""Readout maps, constraint residual families, and their analytic Jacobians.

Training never sees sampled target data. Instead, three residual families
tie the readout to the governing equations at every kept step:

  family 1: the vector field evaluated at the new readout point must equal
            the interval-derivative of the readout increment;
  family 2: the same constraint at interval zero, anchored on the previous
            point;
  family 3: an invariance condition that transports the previous increment
            through one update and compares it with the new increment.

Stage 1 accumulates its readout from its own previous value while the
reservoir is driven by the fixed trial inputs, so every residual depends on
the whole weight history through running activation sums. Stage 2 re-drives
the reservoir with the stage-1 output and anchors each step on it, making
all dependence single-step, but family 3 becomes quadratic in the weights.

By default family 3 uses the substituted form: f at the anchor is replaced
by the interval-zero readout and f at the new point by the
interval-derivative readout, which makes the residual polynomial in the
weights. Passing substitution=False evaluates f directly instead.
"""
from __future__ import annotations

import io
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .problems import OdeSystem
from .reservoir import HiddenSequence
from .trial import Trajectory

Array = np.ndarray


@dataclass(frozen=True)
class StageResiduals:
    """Residual blocks per family plus the squared-error losses."""

    e1: Array
    e2: Array
    e3: Array
    loss_by_family: tuple
    loss_total: float

    def stacked(self) -> Array:
        """Residuals as one vector, family-major, step-then-component within."""
        return np.concatenate([self.e1.ravel(), self.e2.ravel(), self.e3.ravel()])


@dataclass(frozen=True)
class ResidualJacobian:
    """Stacked residual derivative with respect to vec(w), row-major columns."""

    j: Array


def _check_w(w: Array, hs: HiddenSequence) -> None:
    if w.ndim != 2 or w.shape[1] != hs.sig.shape[1]:
        raise DimensionMismatch(
            f"readout shape {w.shape} does not match {hs.sig.shape[1]} neurons"
        )


def _make_residuals(e1: Array, e2: Array, e3: Array) -> StageResiduals:
    fam = (float((e1 ** 2).sum()), float((e2 ** 2).sum()), float((e3 ** 2).sum()))
    total = fam[0] + fam[1] + fam[2]
    if not np.isfinite(total):
        raise NonFinite("constraint residuals contain non-finite entries")
    return StageResiduals(e1=e1, e2=e2, e3=e3, loss_by_family=fam, loss_total=total)


def _g1(hs: HiddenSequence) -> Array:
    # interval-derivative feature sig + tau*b (.) sig_dot; the b*tau factor
    # is recovered from the cached identity z - z0 = b*tau
    return hs.sig + (hs.z - hs.z0) * hs.sig_dot


def stage1_readout(wbar: Array, hs: HiddenSequence, y_start: Array,
                   tau: float, t0: float = 0.0) -> Trajectory:
    """Accumulated first-stage readout: each point adds tau * wbar . sig."""
    _check_w(wbar, hs)
    y_start = np.asarray(y_start, dtype=float)
    states = np.empty((hs.n_steps + 1, y_start.shape[0]))
    states[0] = y_start
    np.cumsum(tau * (hs.sig @ wbar.T), axis=0, out=states[1:])
    states[1:] += y_start
    return Trajectory(t0=t0, tau=tau, states=states)


def stage2_readout(w: Array, hs: HiddenSequence, ybar: Trajectory,
                   tau: float) -> Trajectory:
    """Anchored second-stage readout: each point steps off the stage-1 point."""
    _check_w(w, hs)
    if ybar.n_points != hs.n_steps + 1:
        raise DimensionMismatch(
            f"stage-1 trajectory has {ybar.n_points} points, expected "
            f"{hs.n_steps + 1}"
        )
    states = np.empty_like(ybar.states)
    states[0] = ybar.states[0]
    states[1:] = ybar.states[:-1] + tau * (hs.sig @ w.T)
    return Trajectory(t0=ybar.t0, tau=tau, states=states)


def stage1_residuals(system: OdeSystem, wbar: Array, hs: HiddenSequence,
                     y_start: Array, tau: float,
                     substitution: bool = True) -> StageResiduals:
    """All three first-stage residual families at the given weights."""
    ybar = stage1_readout(wbar, hs, y_start, tau).states
    f_end = system.rhs_many(ybar[1:])
    f_beg = system.rhs_many(ybar[:-1])
    g1 = _g1(hs)
    e1 = f_end - g1 @ wbar.T
    e2 = f_beg - hs.sig0 @ wbar.T
    # previous increment transported through one recurrent update; the
    # interval ratio multiplying it is 1 on a constant grid
    transported = hs.sig_dot * (hs.res.omega @ hs.sig0.T).T
    if substitution:
        e3 = (transported - (g1 - hs.sig0)) @ wbar.T
    else:
        e3 = transported @ wbar.T - f_end + f_beg
    return _make_residuals(e1, e2, e3)


def stage2_residuals(system: OdeSystem, w: Array, hs: HiddenSequence,
                     ybar: Trajectory, tau: float,
                     substitution: bool = True) -> StageResiduals:
    """All three second-stage residual families at the given weights."""
    y = stage2_readout(w, hs, ybar, tau).states
    f_end = system.rhs_many(y[1:])
    f_beg = system.rhs_many(ybar.states[:-1])
    g1 = _g1(hs)
    v = hs.res.v
    e1 = f_end - g1 @ w.T
    e2 = f_beg - hs.sig0 @ w.T
    if substitution:
        prev_incr = hs.sig0 @ w.T
        e3 = tau * (hs.sig_dot * (prev_incr @ v.T)) @ w.T - (g1 - hs.sig0) @ w.T
    else:
        e3 = tau * (hs.sig_dot * (f_beg @ v.T)) @ w.T - f_end + f_beg
    return _make_residuals(e1, e2, e3)


def _tau_product(out: Array, jf: Array, feats: Array, tau: float) -> None:
    """out[k, i, a, b] = jf[k, i, a] * feats[k, b] * tau."""
    np.multiply(jf[:, :, :, None], feats[:, None, None, :], out=out)
    out *= tau


def stage1_jacobian(system: OdeSystem, wbar: Array, hs: HiddenSequence,
                    y_start: Array, tau: float,
                    substitution: bool = True) -> ResidualJacobian:
    """Analytic derivative of the stage-1 residuals with respect to wbar.

    The readout accumulates, so the derivative of the readout point at step
    n carries the running activation sum up to n through the vector-field
    Jacobian; the hidden cache itself is constant because the reservoir
    inputs are the fixed trial sequence. The terms linear in wbar sit on the
    component diagonal a = i only.
    """
    _check_w(wbar, hs)
    n_steps, n = hs.sig.shape
    d = wbar.shape[0]
    ybar = stage1_readout(wbar, hs, y_start, tau).states
    g1 = _g1(hs)
    s_run = np.cumsum(hs.sig, axis=0)
    s_prev = np.vstack([np.zeros(n), s_run[:-1]])
    # axes (family, step, component, weight row, neuron): the reshape at the
    # end gives the stacked residual rows and vec(w) columns without a copy
    jac = np.zeros((3, n_steps, d, d, n))
    j1, j2, j3 = jac
    _tau_product(j1, system.jac_many(ybar[1:]), s_run, tau)
    _tau_product(j2, system.jac_many(ybar[:-1]), s_prev, tau)
    transported = hs.sig_dot * (hs.res.omega @ hs.sig0.T).T
    if substitution:
        linear = transported - (g1 - hs.sig0)
    else:
        np.subtract(j2, j1, out=j3)
    for i in range(d):
        if substitution:
            j3[:, i, i] = linear
        else:
            np.subtract(transported, j1[:, i, i], out=j3[:, i, i])
            j3[:, i, i] += j2[:, i, i]
        j1[:, i, i] -= g1
        j2[:, i, i] -= hs.sig0
    return ResidualJacobian(j=jac.reshape(3 * n_steps * d, d * n))


def stage2_jacobian(system: OdeSystem, w: Array, hs: HiddenSequence,
                    ybar: Trajectory, tau: float,
                    substitution: bool = True) -> ResidualJacobian:
    """Analytic derivative of the stage-2 residuals with respect to w.

    Each output point depends on a single step. The substituted family-3
    residual is quadratic in w, so its derivative carries two product-rule
    contributions: one through the outer weight factor, on the component
    diagonal, and one through the transported previous increment.
    """
    _check_w(w, hs)
    n_steps, n = hs.sig.shape
    d = w.shape[0]
    y = stage2_readout(w, hs, ybar, tau).states
    g1 = _g1(hs)
    v = hs.res.v
    jac = np.zeros((3, n_steps, d, d, n))
    j1, j2, j3 = jac
    _tau_product(j1, system.jac_many(y[1:]), hs.sig, tau)
    if substitution:
        prev_incr = hs.sig0 @ w.T
        carried = hs.sig_dot * (prev_incr @ v.T)
        inner = np.einsum("im,km,ma->kia", w, hs.sig_dot, v)
        _tau_product(j3, inner, hs.sig0, tau)
        linear = tau * carried - (g1 - hs.sig0)
    else:
        f_beg = system.rhs_many(ybar.states[:-1])
        carried = hs.sig_dot * (f_beg @ v.T)
        np.negative(j1, out=j3)
        linear = tau * carried
    for i in range(d):
        j3[:, i, i] += linear
        j1[:, i, i] -= g1
        j2[:, i, i] -= hs.sig0
    return ResidualJacobian(j=jac.reshape(3 * n_steps * d, d * n))


def fd_jacobian(residual_fn, w: Array, step: float = 1e-6) -> ResidualJacobian:
    """Central-difference Jacobian of a stacked residual function.

    residual_fn maps a weight matrix shaped like w to a 1-D residual vector;
    columns follow vec(w) row-major, matching the analytic Jacobians.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    base = w.ravel()
    cols = []
    for j in range(base.size):
        wp = base.copy()
        wm = base.copy()
        wp[j] += step
        wm[j] -= step
        rp = residual_fn(wp.reshape(w.shape))
        rm = residual_fn(wm.reshape(w.shape))
        cols.append((rp - rm) / (2.0 * step))
    return ResidualJacobian(j=np.stack(cols, axis=1))


def residuals_to_csv(sr: StageResiduals) -> str:
    """Render residuals as CSV rows: step index, family, then components."""
    d = sr.e1.shape[1]
    buf = io.StringIO()
    buf.write("step,family," + ",".join(f"r{i + 1}" for i in range(d)) + "\n")
    for fam_idx, block in ((1, sr.e1), (2, sr.e2), (3, sr.e3)):
        for k, row in enumerate(block):
            vals = ",".join(format(x, ".17g") for x in row)
            buf.write(f"{k + 1},{fam_idx},{vals}\n")
    return buf.getvalue()

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

Each row block of a stage Jacobian is a sum of Kronecker terms: a d x d
factor per step (the vector-field Jacobian, the identity, or stage 2's
inner factor) times a row of reservoir features. The factors change with
the weights; the feature rows, apart from stage 2's family-3 linear
feature, are fixed for the whole stage. stage1_operator and
stage2_operator build those rows once per stage and return
StructuredJacobian operators. A wide solve builds the dual Gram J J^T from
the n_steps x n_steps Grams of the feature rows and never forms J; dense()
assembles J as a plain array for tall solves, and stage1_jacobian,
stage2_jacobian and fd_jacobian return arrays for gradient checks and tests.
"""
from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from .errors import DimensionMismatch, NonFinite
from .problems import OdeSystem
from .reservoir import HiddenSequence
from .trial import Trajectory

Array = np.ndarray


@dataclass(frozen=True)
class StageResiduals:
    """Residual blocks per family, each (n_steps, d)."""

    e1: Array
    e2: Array
    e3: Array

    def stacked(self) -> Array:
        """Residuals as one vector, family-major, step-then-component within."""
        return np.concatenate([self.e1.ravel(), self.e2.ravel(), self.e3.ravel()])


def _check_w(w: Array, hs: HiddenSequence) -> None:
    if w.ndim != 2 or w.shape[1] != hs.sig.shape[1]:
        raise DimensionMismatch(
            f"readout shape {w.shape} does not match {hs.sig.shape[1]} neurons"
        )


def _make_residuals(e1: Array, e2: Array, e3: Array) -> StageResiduals:
    # a sum of squares is non-finite on a nan or inf entry, and also when a
    # finite entry or the sum overflows
    total = (float((e1 ** 2).sum()) + float((e2 ** 2).sum())
             + float((e3 ** 2).sum()))
    if not np.isfinite(total):
        raise NonFinite("constraint residuals contain non-finite entries")
    return StageResiduals(e1=e1, e2=e2, e3=e3)


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
                     y_start: Array, tau: float) -> StageResiduals:
    """All three first-stage residual families at the given weights."""
    ybar = stage1_readout(wbar, hs, y_start, tau).states
    f_end = system.rhs_many(ybar[1:])
    f_beg = system.rhs_many(ybar[:-1])
    g1 = hs.g1
    e1 = f_end - g1 @ wbar.T
    e2 = f_beg - hs.sig0 @ wbar.T
    # previous increment transported through one recurrent update; the
    # interval ratio multiplying it is 1 on a constant grid
    e3 = (hs.transported - (g1 - hs.sig0)) @ wbar.T
    return _make_residuals(e1, e2, e3)


def stage2_residuals(system: OdeSystem, w: Array, hs: HiddenSequence,
                     ybar: Trajectory, tau: float) -> StageResiduals:
    """All three second-stage residual families at the given weights."""
    y = stage2_readout(w, hs, ybar, tau).states
    f_end = system.rhs_many(y[1:])
    f_beg = system.rhs_many(ybar.states[:-1])
    g1 = hs.g1
    v = hs.res.v
    prev_incr = hs.sig0 @ w.T
    e1 = f_end - g1 @ w.T
    e2 = f_beg - prev_incr
    e3 = tau * (hs.sig_dot * (prev_incr @ v.T)) @ w.T - (g1 - hs.sig0) @ w.T
    return _make_residuals(e1, e2, e3)


@dataclass(frozen=True)
class Term:
    """One Kronecker term scale * A[k] (x) F[k] of a family's row block.

    factor holds A as (n_steps, d, d), or None for the identity, in which
    case scale is +1 or -1; key names the feature rows F, (n_steps, N).
    """

    factor: Optional[Array]
    scale: float
    key: str


class FeatureGrams:
    """Fixed feature rows of one stage and their pairwise Grams F_a F_b^T.

    The Grams are computed on first use, as one product of the stacked rows,
    and kept for the rest of the stage.
    """

    def __init__(self, rows: Dict[str, Array]):
        self.rows = rows
        self._stack: Optional[Array] = None
        self._gram: Optional[Array] = None

    def blocks(self, extra: Dict[str, Array]) -> Dict[tuple, Array]:
        """Every pairwise Gram among the fixed rows and the extra rows, by
        key pair; only the pairs that involve an extra row are new work."""
        if self._gram is None:
            self._stack = np.concatenate(list(self.rows.values()))
            self._gram = self._stack @ self._stack.T
        gram = self._gram
        if extra:
            new = np.concatenate(list(extra.values()))
            cross = new @ self._stack.T
            gram = np.block([[gram, cross.T], [cross, new @ new.T]])
        k = self._stack.shape[0] // len(self.rows)
        keys = list(self.rows) + list(extra)
        return {(a, b): gram[i * k:(i + 1) * k, j * k:(j + 1) * k]
                for i, a in enumerate(keys) for j, b in enumerate(keys)}


class StructuredJacobian:
    """Stacked residual Jacobian held as Kronecker terms, not as a matrix.

    Row block f of J is the sum of its family's terms:
    J[(f, k, i), (a, m)] = sum_t scale_t A_t[k, i, a] F_t[k, m], with rows
    family-major, step then component, and columns vec(w) row-major. The
    factors A_t change with w; most feature rows F_t are fixed for a stage,
    so J J^T comes from the stage's n_steps x n_steps feature Grams without
    forming J. extra holds the feature rows that change with w.
    """

    def __init__(self, families: Tuple[Tuple[Term, ...], ...],
                 grams: FeatureGrams, dim: int,
                 extra: Optional[Dict[str, Array]] = None):
        self.families = families
        self.grams = grams
        self.extra = extra or {}
        self.rows = {**grams.rows, **self.extra}
        self.n_steps, self.n_neurons = next(iter(self.rows.values())).shape
        self.dim = dim
        self.shape = (len(families) * self.n_steps * dim, dim * self.n_neurons)

    def dense(self) -> Array:
        """J as one array, assembled term by term in family order.

        Terms add into a zeroed block, except that a +I term that comes
        first writes its values directly. A product term is formed as A * F
        in place and then scaled, so it must come first in its family, as
        it does in both stages. This is the operation order of the in-place
        assembly the tests compare against, so J is bit for bit the same.
        """
        d = self.dim
        jac = np.zeros((len(self.families), self.n_steps, d, d,
                        self.n_neurons))
        for block, terms in zip(jac, self.families):
            fresh = True
            for t in terms:
                feat = self.rows[t.key]
                if t.factor is None:
                    for i in range(d):
                        diag = block[:, i, i]
                        if t.scale < 0:
                            diag -= feat
                        elif fresh:
                            diag[...] = feat
                        else:
                            diag += feat
                else:
                    np.multiply(t.factor[:, :, :, None],
                                feat[:, None, None, :], out=block)
                    block *= t.scale
                fresh = False
        return jac.reshape(self.shape)

    def gram(self) -> Array:
        """J J^T from the feature Grams: the (f, k, i), (g, l, j) entry is
        sum over term pairs of scale_t scale_s (A_t[k] A_s[l]^T)[i, j]
        (F_t F_s^T)[k, l].

        A diagonal family block is formed as X + X^T from half its terms'
        self-pairs and one of each pair of distinct terms, and an
        off-diagonal one is mirrored, so the result is exactly symmetric.
        """
        nf, k, d = len(self.families), self.n_steps, self.dim
        phi = self.grams.blocks(self.extra)
        g = np.zeros((nf, k, d, nf, k, d))
        for f in range(nf):
            for h in range(f, nf):
                block = g[f, :, :, h]
                for ti, t in enumerate(self.families[f]):
                    for si, s in enumerate(self.families[h]):
                        if h == f and si < ti:
                            continue
                        half = h == f and si == ti
                        _add_term_pair(block, t, s, phi[t.key, s.key],
                                       0.5 if half else 1.0)
                if h == f:
                    block += block.transpose(2, 3, 0, 1).copy()
                else:
                    g[h, :, :, f] = block.transpose(2, 3, 0, 1)
        return g.reshape(nf * k * d, nf * k * d)

    def matvec(self, x: Array) -> Array:
        """J x for a 1-D x of length d * N."""
        w = x.reshape(self.dim, self.n_neurons)
        proj = {key: rows @ w.T for key, rows in self.rows.items()}
        out = np.zeros((len(self.families), self.n_steps, self.dim))
        for block, terms in zip(out, self.families):
            for t in terms:
                p = proj[t.key] if t.factor is None else \
                    np.einsum("kia,ka->ki", t.factor, proj[t.key])
                block += t.scale * p
        return out.ravel()

    def rmatvec(self, y: Array) -> Array:
        """J^T y for a 1-D y with one entry per residual row."""
        y = y.reshape(len(self.families), self.n_steps, self.dim)
        coef: Dict[str, Array] = {}
        for yf, terms in zip(y, self.families):
            for t in terms:
                c = yf if t.factor is None else \
                    np.einsum("kia,ki->ka", t.factor, yf)
                coef[t.key] = coef.get(t.key, 0.0) + t.scale * c
        out = sum(c.T @ self.rows[key] for key, c in coef.items())
        return out.ravel()


def _add_term_pair(block: Array, t: Term, s: Term, phi: Array,
                   weight: float) -> None:
    """block[k, i, l, j] += weight scale_t scale_s (A_t[k] A_s[l]^T)[i, j]
    phi[k, l]."""
    c = (weight * t.scale * s.scale) * phi
    cw = c[:, None, :, None]
    if t.factor is None and s.factor is None:
        for i in range(block.shape[1]):
            block[:, i, :, i] += c
    elif t.factor is None:
        block += cw * s.factor.transpose(2, 0, 1)[None]
    elif s.factor is None:
        block += cw * t.factor[:, :, None, :]
    else:
        k, d = t.factor.shape[:2]
        m = t.factor.reshape(k * d, d) @ s.factor.reshape(k * d, d).T
        block += cw * m.reshape(k, d, k, d)


def stage1_operator(system: OdeSystem, hs: HiddenSequence, y_start: Array,
                    tau: float) -> Callable[[Array], StructuredJacobian]:
    """Stage-1 Jacobian operator as a function of wbar.

    The readout accumulates, so the derivative of the readout point at step
    n carries the running activation sum up to n through the vector-field
    Jacobian; the hidden cache itself is constant because the reservoir
    inputs are the fixed trial sequence. The terms linear in wbar sit on the
    component diagonal a = i only. Every feature row is fixed for the stage,
    so it and its Grams are built once here.
    """
    n = hs.sig.shape[1]
    s_run = np.cumsum(hs.sig, axis=0)
    s_prev = np.vstack([np.zeros(n), s_run[:-1]])
    grams = FeatureGrams({"s_run": s_run, "s_prev": s_prev, "g1": hs.g1,
                          "sig0": hs.sig0,
                          "linear": hs.transported - (hs.g1 - hs.sig0)})

    def at(wbar: Array) -> StructuredJacobian:
        _check_w(wbar, hs)
        ybar = stage1_readout(wbar, hs, y_start, tau).states
        end = Term(system.jac_many(ybar[1:]), tau, "s_run")
        beg = Term(system.jac_many(ybar[:-1]), tau, "s_prev")
        return StructuredJacobian(((end, Term(None, -1.0, "g1")),
                                   (beg, Term(None, -1.0, "sig0")),
                                   (Term(None, 1.0, "linear"),)),
                                  grams, wbar.shape[0])

    return at


def stage2_operator(system: OdeSystem, hs: HiddenSequence, ybar: Trajectory,
                    tau: float) -> Callable[[Array], StructuredJacobian]:
    """Stage-2 Jacobian operator as a function of w.

    Each output point depends on a single step. The family-3 residual is
    quadratic in w, so its derivative carries two product-rule
    contributions: one through the outer weight factor, on the component
    diagonal, and one through the transported previous increment. That
    diagonal feature changes with w; the other feature rows and their
    Grams are built once here.
    """
    v = hs.res.v
    grams = FeatureGrams({"sig": hs.sig, "g1": hs.g1, "sig0": hs.sig0})

    def at(w: Array) -> StructuredJacobian:
        _check_w(w, hs)
        y = stage2_readout(w, hs, ybar, tau).states
        end = Term(system.jac_many(y[1:]), tau, "sig")
        carried = hs.sig_dot * ((hs.sig0 @ w.T) @ v.T)
        inner = np.einsum("im,km,ma->kia", w, hs.sig_dot, v)
        linear = tau * carried - (hs.g1 - hs.sig0)
        return StructuredJacobian(((end, Term(None, -1.0, "g1")),
                                   (Term(None, -1.0, "sig0"),),
                                   (Term(inner, tau, "sig0"),
                                    Term(None, 1.0, "linear"))),
                                  grams, w.shape[0], {"linear": linear})

    return at


def stage1_jacobian(system: OdeSystem, wbar: Array, hs: HiddenSequence,
                    y_start: Array, tau: float) -> Array:
    """Dense derivative of the stage-1 residuals with respect to vec(wbar),
    row-major columns."""
    return stage1_operator(system, hs, y_start, tau)(wbar).dense()


def stage2_jacobian(system: OdeSystem, w: Array, hs: HiddenSequence,
                    ybar: Trajectory, tau: float) -> Array:
    """Dense derivative of the stage-2 residuals with respect to vec(w),
    row-major columns."""
    return stage2_operator(system, hs, ybar, tau)(w).dense()


def fd_jacobian(residual_fn, w: Array, step: float = 1e-6) -> Array:
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
    return np.stack(cols, axis=1)


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

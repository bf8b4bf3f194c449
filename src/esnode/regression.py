"""Regularized Gauss-Newton engine with ridge warm start.

The readout weights solve a nonlinear least-squares problem over the stacked
constraint residuals. Each iteration solves a damped linear least-squares
problem for a descent step, halving it at most BACKTRACK_MAX_HALVINGS
times until the loss stops increasing, and the iteration ends when the
relative loss change falls below REL_LOSS_TOL. The initial guess replicates
the trial increments by ridge regression on the activation features.

Both solves go through damped_lstsq, which factors the smaller of the primal
Gram matrix a^T a and the dual one a a^T. Tall and square problems (harmonic,
vdp) take the primal form on the dense Jacobian, with the same
floating-point operations as a plain normal-equation solve. Wide problems
(lorenz) take the dual form plus one step of iterative refinement, which
agrees with the primal answer only to roundoff. A dense Jacobian is a
plain array. On the wide Gauss-Newton stages it arrives instead as a
structured operator (constraints.StructuredJacobian): the dual Gram is
built from the stage's cached Kronecker feature Grams and the products with
J and J^T are contractions of the same terms, so J itself is never formed.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, List, Tuple

import numpy as np
import scipy.linalg

from .errors import LengthMismatch, NonFinite, SingularSystem
from .reservoir import HiddenSequence
from .trial import Trajectory

Array = np.ndarray

# damping floor that keeps the normal matrix positive definite even when a
# caller asks for effectively zero regularization
LAMBDA_FLOOR = 1e-12

# a stage stops once an accepted step changes the loss by less than this
# fraction of it
REL_LOSS_TOL = 1e-5

# most halvings of one step before it is rejected
BACKTRACK_MAX_HALVINGS = 20


@dataclass(frozen=True)
class GnConfig:
    lam: float
    max_iters: int

    def __post_init__(self):
        if self.lam <= 0:
            raise ValueError("lam must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass(frozen=True)
class IterationRecord:
    """One accepted Gauss-Newton iteration."""

    iter: int
    loss: float
    loss_by_family: tuple
    rel_step: float
    rel_loss_change: float
    halvings: int


def _cholesky(gram: Array, what: str):
    """Upper Cholesky factor of gram, warning when it is ill-conditioned.

    The warning fires where scipy.linalg.solve's does: when LAPACK's
    estimate of the reciprocal 1-norm condition number is below machine
    epsilon. Every Gram here is one esnode built, so scipy's own
    finiteness scans are skipped; a non-finite entry shows in the 1-norm
    the condition estimate needs anyway and raises NonFinite.
    """
    anorm = np.linalg.norm(gram, 1)
    if not np.isfinite(anorm):
        raise NonFinite(f"damped Gram matrix is not finite (1-norm {anorm})")
    try:
        factor = scipy.linalg.cho_factor(gram, check_finite=False)
    except (scipy.linalg.LinAlgError, np.linalg.LinAlgError) as exc:
        raise SingularSystem(f"{what}: {exc}") from exc
    pocon, = scipy.linalg.get_lapack_funcs(("pocon",), (factor[0],))
    rcond, _ = pocon(factor[0], anorm)
    if rcond < np.finfo(gram.dtype).eps:
        warnings.warn(f"ill-conditioned damped Gram matrix (rcond={rcond}):"
                      " result may not be accurate",
                      scipy.linalg.LinAlgWarning, stacklevel=3)
    return factor


def damped_lstsq(a, b: Array, lam: float,
                 what: str = "normal equations are singular") -> Array:
    """x minimizing ||a x - b||^2 + lam ||x||^2, for 1-D or 2-D b.

    a is an array or a Jacobian operator with shape, dense, gram, matvec
    and rmatvec (constraints.StructuredJacobian); an operator takes a 1-D
    b. The damping is floored at LAMBDA_FLOOR. A tall or square a solves
    the primal normal equations (a^T a + lam I) x = a^T b on the dense
    matrix. A wide a solves the smaller dual system (a a^T + lam I) y = b
    and returns x = a^T y, which is the same x by the push-through
    identity; one step of iterative refinement on y, reusing the Cholesky
    factor, removes most of the error the unrefined dual solve makes when a
    is ill-conditioned. On an operator the dual path uses only gram, matvec
    and rmatvec, so a structured Jacobian is never formed; on an array it
    takes a a^T, a (a^T y) and a^T y. A failed factorization raises
    SingularSystem with the message what; a non-finite Gram or b raises
    NonFinite.
    """
    if not np.isfinite(b).all():
        raise NonFinite("least-squares right-hand side is not finite")
    lam = max(lam, LAMBDA_FLOOR)
    dense = isinstance(a, np.ndarray)
    if a.shape[0] >= a.shape[1]:
        j = a if dense else a.dense()
        gram = j.T @ j
        gram[np.diag_indices_from(gram)] += lam
        return scipy.linalg.cho_solve(_cholesky(gram, what), j.T @ b,
                                      check_finite=False)
    if dense:
        gram = a @ a.T
        matvec, rmatvec = (lambda x: a @ x), (lambda y: a.T @ y)
    else:
        gram, matvec, rmatvec = a.gram(), a.matvec, a.rmatvec
    gram[np.diag_indices_from(gram)] += lam
    factor = _cholesky(gram, what)
    y = scipy.linalg.cho_solve(factor, b, check_finite=False)
    y -= scipy.linalg.cho_solve(factor, matvec(rmatvec(y)) + lam * y - b,
                                check_finite=False)
    return rmatvec(y)


def _family_losses(e: Array) -> tuple:
    thirds = np.split(e, 3)
    return tuple(float(block @ block) for block in thirds)


def ridge_initial_guess(hs: HiddenSequence, trial: Trajectory, tau: float,
                        lam: float) -> Array:
    """Weights that replicate the trial increments, by ridge regression.

    trial must span one more point than hs has steps so that every
    activation row pairs with the increment it produced.
    """
    if trial.n_points != hs.n_steps + 1:
        raise LengthMismatch(
            f"trial has {trial.n_points} points for {hs.n_steps} steps; "
            f"need exactly one more point than steps"
        )
    targets = np.diff(trial.states, axis=0) / tau
    wt = damped_lstsq(hs.sig, targets, lam,
                      what="ridge normal matrix is singular")
    return wt.T


def gn_step(j, e: Array, lam: float) -> Array:
    """Damped Gauss-Newton step: solve the regularized least-squares problem.

    j is the Jacobian as an array or an operator (see damped_lstsq).
    Returns vec(delta) minimizing the linearized loss; the caller reshapes.
    """
    return -damped_lstsq(j, e, lam)


def solve_stage(residual_fn: Callable[[Array], Array],
                jacobian_fn: Callable[[Array], object],
                w0: Array, cfg: GnConfig) -> Tuple[Array, List[IterationRecord]]:
    """Iterate damped Gauss-Newton from w0 and return the best weights seen.

    residual_fn maps weights to the stacked residual vector (three equal
    family blocks); jacobian_fn returns the matching Jacobian, as an array
    or an operator (see damped_lstsq). A step is halved, at most
    BACKTRACK_MAX_HALVINGS times, until the loss stops increasing; if no
    halving helps the step is rejected, which reads as converged. The stage
    also ends after cfg.max_iters iterations, or once an accepted step
    changes the loss by less than REL_LOSS_TOL of it.
    """
    w = w0.copy()
    e = residual_fn(w)
    loss = float(e @ e)
    if not np.isfinite(loss):
        raise NonFinite("initial loss is non-finite; no fallback weights exist")
    best_w, best_loss = w.copy(), loss
    history: List[IterationRecord] = []
    for it in range(1, cfg.max_iters + 1):
        delta = gn_step(jacobian_fn(w), e, cfg.lam).reshape(w.shape)
        alpha = 1.0
        halvings = 0
        w_new = w + delta
        e_new = residual_fn(w_new)
        loss_new = float(e_new @ e_new)
        while (not np.isfinite(loss_new) or loss_new > loss) \
                and halvings < BACKTRACK_MAX_HALVINGS:
            alpha *= 0.5
            halvings += 1
            w_new = w + alpha * delta
            e_new = residual_fn(w_new)
            loss_new = float(e_new @ e_new)
        if not np.isfinite(loss_new) or loss_new > loss:
            # no step length helped; keep w and report a stall
            history.append(IterationRecord(
                iter=it, loss=loss, loss_by_family=_family_losses(e),
                rel_step=0.0, rel_loss_change=0.0, halvings=halvings))
            break
        w_norm = np.linalg.norm(w)
        rel_step = float(np.linalg.norm(alpha * delta) / w_norm) \
            if w_norm > 0 else float(np.linalg.norm(alpha * delta))
        rel_change = abs(loss_new - loss) / loss if loss > 0 else 0.0
        w, e, loss = w_new, e_new, loss_new
        if loss < best_loss:
            best_loss, best_w = loss, w.copy()
        history.append(IterationRecord(
            iter=it, loss=loss, loss_by_family=_family_losses(e),
            rel_step=rel_step, rel_loss_change=float(rel_change),
            halvings=halvings))
        if rel_change < REL_LOSS_TOL:
            break
    return best_w, history


def history_to_log(history: List[IterationRecord]) -> str:
    """One comma-separated line per iteration, in column order:
    iter, loss, family losses, rel_step, rel_loss_change, halvings."""
    lines = []
    for rec in history:
        fams = ",".join(format(x, ".17g") for x in rec.loss_by_family)
        lines.append(
            f"{rec.iter},{format(rec.loss, '.17g')},{fams},"
            f"{format(rec.rel_step, '.17g')},"
            f"{format(rec.rel_loss_change, '.17g')},{rec.halvings}"
        )
    return "\n".join(lines) + "\n"

"""Damped least-squares solves, ridge warm start, and the solver loop."""
import numpy as np
import pytest
import scipy.linalg

from esnode.constraints import (FeatureGrams, ResidualJacobian,
                                StructuredJacobian, Term, stage1_jacobian,
                                stage1_residuals)
from esnode.errors import LengthMismatch, NonFinite, SingularSystem
from esnode.pipeline import RunConfig, train
from esnode.regression import (GnConfig, IterationRecord, damped_lstsq,
                               gn_step, history_to_log, ridge_initial_guess,
                               solve_stage)
from esnode.reservoir import ReservoirParams
from esnode.trial import Trajectory

from test_constraints import make_instance, wide_operator


class TestGnConfig:
    def test_defaults(self):
        cfg = GnConfig(lam=1e-7, max_iters=10)
        assert cfg.rel_loss_tol == 1e-5
        assert cfg.backtrack_max_halvings == 20

    @pytest.mark.parametrize("kwargs", [
        {"lam": -1.0, "max_iters": 5},
        {"lam": 1e-7, "max_iters": 0},
        {"lam": 1e-7, "max_iters": 5, "rel_loss_tol": -1e-3},
        {"lam": 1e-7, "max_iters": 5, "backtrack_max_halvings": -1},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            GnConfig(**kwargs)


def svd_step(a, b, lam):
    """Reference minimizer of ||a x - b||^2 + lam ||x||^2 from the SVD
    a = U diag(s) V^T: V diag(s / (s^2 + lam)) U^T b."""
    u, s, vt = np.linalg.svd(a, full_matrices=False)
    filt = s / (s * s + lam)
    coef = u.T @ b
    return vt.T @ (filt[:, None] * coef if coef.ndim == 2 else filt * coef)


def rel_err(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


def wide_ill_conditioned(seed, rows=300, cols=750):
    """Wide a with singular values log-spaced from 10^4.5 down to 10^-9,
    the spread the Lorenz stage Jacobians show."""
    rng = np.random.default_rng(seed)
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, rows)))
    a = (u * np.logspace(4.5, -9, rows)) @ v.T
    return a, rng.standard_normal(rows)


class TestDampedLstsq:
    @pytest.mark.parametrize("shape", [(60, 20), (20, 20), (20, 60)],
                             ids=["tall", "square", "wide"])
    @pytest.mark.parametrize("b_cols", [None, 3], ids=["b1d", "b2d"])
    def test_matches_svd_reference(self, shape, b_cols):
        rng = np.random.default_rng(shape[0] * 100 + shape[1])
        a = rng.standard_normal(shape)
        b = rng.standard_normal(shape[0] if b_cols is None
                                else (shape[0], b_cols))
        lam = 1e-7
        x = damped_lstsq(a, b, lam)
        assert x.shape == (shape[1],) + b.shape[1:]
        assert rel_err(x, svd_step(a, b, lam)) < 1e-10

    def test_tall_path_is_the_plain_normal_equation_solve(self):
        # bitwise: tall and square problems must keep the exact operations
        # of a positive-definite normal-equation solve
        rng = np.random.default_rng(5)
        j = rng.standard_normal((300, 60))
        e = rng.standard_normal(300)
        lam = 1e-7
        expect = -scipy.linalg.solve(j.T @ j + lam * np.eye(60), j.T @ e,
                                     assume_a="pos")
        np.testing.assert_array_equal(gn_step(j, e, lam), expect)

    @pytest.mark.parametrize("seed", range(5))
    def test_refined_dual_beats_primal_when_ill_conditioned(self, seed):
        a, b = wide_ill_conditioned(seed)
        lam = 1e-6
        ref = svd_step(a, b, lam)
        with pytest.warns(scipy.linalg.LinAlgWarning):
            dual = damped_lstsq(a, b, lam)
        with pytest.warns(scipy.linalg.LinAlgWarning):
            primal = scipy.linalg.solve(a.T @ a + lam * np.eye(a.shape[1]),
                                        a.T @ b, assume_a="pos")
        assert 10 * rel_err(dual, ref) <= rel_err(primal, ref)

    @pytest.mark.parametrize("shape", [(4, 2), (2, 4)], ids=["tall", "wide"])
    def test_failed_factorization_is_singular_system(self, shape):
        a = np.full(shape, 1e8)
        with pytest.raises(SingularSystem, match="normal equations"):
            damped_lstsq(a, np.ones(shape[0]), 1e-12)
        with pytest.raises(SingularSystem, match="ridge normal matrix"):
            damped_lstsq(a, np.ones(shape[0]), 1e-12,
                         what="ridge normal matrix is singular")

    @pytest.mark.parametrize("shape", [(6, 3), (3, 6)], ids=["tall", "wide"])
    def test_non_finite_gram_is_non_finite(self, shape):
        a = np.ones(shape)
        a[1, 2] = np.nan
        with pytest.raises(NonFinite, match="Gram matrix is not finite"):
            damped_lstsq(a, np.ones(shape[0]), 1e-7)

    @pytest.mark.parametrize("shape", [(6, 3), (3, 6)], ids=["tall", "wide"])
    def test_non_finite_rhs_is_non_finite(self, shape):
        b = np.ones(shape[0])
        b[1] = np.inf
        with pytest.raises(NonFinite, match="right-hand side is not finite"):
            damped_lstsq(np.eye(*shape), b, 1e-7)


def feature_operator(feats):
    """StructuredJacobian with one family, one identity term and d = 1, so
    that J equals the given feature rows."""
    return StructuredJacobian(((Term(None, 1.0, "f"),),),
                              FeatureGrams({"f": feats}), 1)


class TestDampedLstsqOperator:
    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("name", ["harmonic", "vdp", "lorenz"])
    def test_matches_dense_solve(self, stage, name):
        op, rng = wide_operator(stage, name)
        b = rng.standard_normal(op.shape[0])
        assert op.shape[1] > op.shape[0]
        x = damped_lstsq(op, b, 1.0)
        assert rel_err(x, damped_lstsq(op.dense(), b, 1.0)) < 1e-10

    def test_operator_and_array_agree_when_tall(self):
        op, rng = wide_operator(1, "vdp", n_neurons=8)
        assert op.shape[0] >= op.shape[1]
        b = rng.standard_normal(op.shape[0])
        np.testing.assert_array_equal(damped_lstsq(op, b, 1e-7),
                                      damped_lstsq(op.dense(), b, 1e-7))

    def test_singular_gram_is_singular_system(self):
        op = feature_operator(np.full((2, 8), 1e8))
        with pytest.raises(SingularSystem,
                           match="normal equations are singular"):
            damped_lstsq(op, np.ones(2), 1e-12)

    def test_ill_conditioned_gram_warns(self):
        a, b = wide_ill_conditioned(0)
        with pytest.warns(scipy.linalg.LinAlgWarning):
            x = damped_lstsq(feature_operator(a), b, 1e-6)
        assert np.isfinite(x).all()

    def test_non_finite_gram_is_non_finite(self):
        feats = np.ones((2, 8))
        feats[0, 3] = np.nan
        with pytest.raises(NonFinite, match="Gram matrix is not finite"):
            damped_lstsq(feature_operator(feats), np.ones(2), 1e-7)


def small_config(problem, y0, n_neurons, n_points):
    gn = GnConfig(lam=1e-6, max_iters=3)
    return RunConfig(problem=problem, y0=y0, tau=0.03, n_points=n_points,
                     n_washout=5, refine_factor=2,
                     reservoir=ReservoirParams(n_neurons=n_neurons,
                                               connectivity=0.3,
                                               spectral_norm=2.0),
                     stage1=gn, stage2=gn)


def refuse(self):
    raise AssertionError("this path must not be taken")


class TestTrainSolvePaths:
    def test_wide_stages_never_form_j(self, monkeypatch):
        # 3 * 10 * 3 residual rows against 3 * 40 weights
        monkeypatch.setattr(StructuredJacobian, "dense", refuse)
        _, report = train(small_config("lorenz", (1.0, 1.0, 1.0), 40, 10))
        assert report.stage1_final_loss < report.stage1_initial_loss
        assert np.isfinite(report.stage2_final_loss)

    def test_tall_stages_never_build_the_dual_gram(self, monkeypatch):
        # 3 * 30 * 2 residual rows against 2 * 10 weights
        monkeypatch.setattr(StructuredJacobian, "gram", refuse)
        _, report = train(small_config("harmonic", (1.0, 0.0), 10, 30))
        assert report.stage1_final_loss < report.stage1_initial_loss


class TestRidgeInitialGuess:
    def test_heavy_damping_shrinks_to_zero(self):
        _, _, hs, kept = make_instance()
        w = ridge_initial_guess(hs, kept, 0.05, lam=1e12)
        assert np.abs(w).max() < 1e-9
        assert w.shape == (2, 10)

    def test_recovers_replicable_increments(self):
        # build a trial whose increments are exactly tau * sig @ e1; with
        # more steps than neurons the feature matrix has full column rank,
        # so the unit-row readout is the unique solution ridge must find
        _, _, hs, _ = make_instance(n_neurons=4, n_points=20)
        states = np.zeros((hs.n_steps + 1, 1))
        states[1:] = 0.05 * np.cumsum(hs.sig[:, :1], axis=0)
        trial = Trajectory(t0=0.0, tau=0.05, states=states)
        w = ridge_initial_guess(hs, trial, 0.05, lam=1e-12)
        expect = np.zeros((1, 4))
        expect[0, 0] = 1.0
        np.testing.assert_allclose(w, expect, atol=1e-6)

    def test_non_finite_features_are_non_finite(self):
        _, _, hs, kept = make_instance()
        hs.sig[2, 4] = np.nan
        with pytest.raises(NonFinite, match="Gram matrix is not finite"):
            ridge_initial_guess(hs, kept, 0.05, lam=1e-7)

    def test_length_mismatch(self):
        _, _, hs, kept = make_instance()
        short = Trajectory(t0=0.0, tau=0.05, states=kept.states[:-2])
        with pytest.raises(LengthMismatch):
            ridge_initial_guess(hs, short, 0.05, lam=1e-7)


class TestGnStep:
    def test_solves_damped_normal_equations(self):
        rng = np.random.default_rng(0)
        j = rng.standard_normal((30, 12))
        e = rng.standard_normal(30)
        lam = 1e-7
        delta = gn_step(j, e, lam)
        lhs = (j.T @ j + lam * np.eye(12)) @ delta
        rhs = -(j.T @ e)
        assert np.abs(lhs - rhs).max() <= 1e-8 * np.abs(rhs).max()
        assert delta.ndim == 1

    def test_heavy_damping_is_scaled_gradient(self):
        rng = np.random.default_rng(1)
        j = rng.standard_normal((20, 6))
        e = rng.standard_normal(20)
        delta = gn_step(j, e, 1e12)
        np.testing.assert_allclose(delta, -(j.T @ e) / 1e12, rtol=1e-6)

    def test_accepts_wrapped_jacobian(self):
        rng = np.random.default_rng(2)
        j = rng.standard_normal((10, 4))
        e = rng.standard_normal(10)
        np.testing.assert_array_equal(gn_step(ResidualJacobian(j=j), e, 1e-7),
                                      gn_step(j, e, 1e-7))


def affine_problem(shape=(2, 4), seed=0, lam=1e-9):
    """Residual e(w) = A vec(w) - beta; one undamped step reaches optimum."""
    rng = np.random.default_rng(seed)
    n = shape[0] * shape[1]
    a = rng.standard_normal((3 * n, n)) + 2 * np.eye(3 * n, n)
    beta = rng.standard_normal(3 * n)

    def res_fn(w):
        return a @ w.ravel() - beta

    def jac_fn(w):
        return ResidualJacobian(j=a)

    return res_fn, jac_fn, np.zeros(shape)


class TestSolveStage:
    def test_affine_converges_in_one_step(self):
        res_fn, jac_fn, w0 = affine_problem()
        cfg = GnConfig(lam=1e-9, max_iters=5)
        w, history = solve_stage(res_fn, jac_fn, w0, cfg)
        assert len(history) == 2
        assert history[0].loss < 1e-15 * max(1.0, history[0].loss) \
            or history[0].loss < history[0].loss + 1  # first iter recorded
        # second iteration sees the already-optimal point: negligible motion
        assert history[1].rel_step < 1e-8
        assert history[1].rel_loss_change < 1e-5
        grad = jac_fn(w).j.T @ res_fn(w)
        assert np.abs(grad).max() < 1e-6

    def test_descent_on_driven_instance(self):
        system, _, hs, kept = make_instance(n_points=5)
        anchor = kept.states[0]

        def res_fn(w):
            return stage1_residuals(system, w, hs, anchor, 0.05).stacked()

        def jac_fn(w):
            return stage1_jacobian(system, w, hs, anchor, 0.05)

        w0 = np.zeros((2, 10))
        loss0 = float(res_fn(w0) @ res_fn(w0))
        cfg = GnConfig(lam=1e-7, max_iters=8)
        w, history = solve_stage(res_fn, jac_fn, w0, cfg)
        assert history[-1].loss < loss0
        losses = [rec.loss for rec in history]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))
        assert history[0].iter == 1

    def test_max_iters_one(self):
        res_fn, jac_fn, w0 = affine_problem(seed=3)
        _, history = solve_stage(res_fn, jac_fn, w0,
                                 GnConfig(lam=1e-9, max_iters=1))
        assert len(history) == 1

    def test_backtracking_rescues_overshoot(self):
        # residual [atan(w), 0, 0]: the undamped step from w = 3 overshoots
        # the root and increases the loss, so halvings must engage
        def res_fn(w):
            return np.array([np.arctan(w[0, 0]), 0.0, 0.0])

        def jac_fn(w):
            return ResidualJacobian(
                j=np.array([[1.0 / (1.0 + w[0, 0] ** 2)], [0.0], [0.0]]))

        w0 = np.array([[3.0]])
        cfg = GnConfig(lam=1e-12, max_iters=1)
        w, history = solve_stage(res_fn, jac_fn, w0, cfg)
        assert history[0].halvings >= 1
        assert history[0].loss < np.arctan(3.0) ** 2

    def test_rejected_step_reports_stall(self):
        # a discontinuous residual no step can improve: every candidate is
        # worse, halvings exhaust, and the record reads as converged
        def res_fn(w):
            if abs(w[0, 0]) < 1e-30:
                return np.array([1.0, 0.0, 0.0])
            return np.array([2.0, 0.0, 0.0])

        def jac_fn(w):
            return ResidualJacobian(j=np.array([[1.0], [0.0], [0.0]]))

        w0 = np.zeros((1, 1))
        cfg = GnConfig(lam=1e-12, max_iters=5)
        w, history = solve_stage(res_fn, jac_fn, w0, cfg)
        assert len(history) == 1
        rec = history[0]
        assert rec.halvings == 20
        assert rec.rel_step == 0.0
        assert rec.rel_loss_change == 0.0
        assert rec.loss == pytest.approx(1.0)
        np.testing.assert_array_equal(w, w0)

    def test_best_iterate_returned(self):
        res_fn, jac_fn, w0 = affine_problem(seed=4)
        cfg = GnConfig(lam=1e-9, max_iters=6)
        w, history = solve_stage(res_fn, jac_fn, w0, cfg)
        final = res_fn(w)
        assert float(final @ final) <= min(r.loss for r in history) + 1e-12

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_start_raises(self):
        def res_fn(w):
            return np.array([np.inf, 0.0, 0.0])

        def jac_fn(w):
            return ResidualJacobian(j=np.zeros((3, 1)))

        with pytest.raises(NonFinite):
            solve_stage(res_fn, jac_fn, np.zeros((1, 1)),
                        GnConfig(lam=1e-9, max_iters=2))


class TestHistoryLog:
    def test_line_format(self):
        rec = IterationRecord(iter=1, loss=0.5,
                              loss_by_family=(0.25, 0.15, 0.1),
                              rel_step=1e-3, rel_loss_change=2e-2, halvings=0)
        text = history_to_log([rec])
        assert text.endswith("\n")
        fields = text.strip().split(",")
        assert len(fields) == 8
        assert fields[0] == "1"
        assert float(fields[1]) == 0.5
        assert float(fields[4]) == 0.1
        assert int(fields[7]) == 0

    def test_round_trip_precision(self):
        rec = IterationRecord(iter=2, loss=1.0 / 3.0,
                              loss_by_family=(0.1, 0.1, 2.0 / 15.0),
                              rel_step=np.pi * 1e-4,
                              rel_loss_change=1e-6, halvings=3)
        fields = history_to_log([rec]).strip().split(",")
        assert float(fields[1]) == 1.0 / 3.0
        assert float(fields[5]) == np.pi * 1e-4

    def test_one_line_per_record(self):
        recs = [IterationRecord(iter=i, loss=1.0 / i,
                                loss_by_family=(0.0, 0.0, 1.0 / i),
                                rel_step=0.0, rel_loss_change=0.0, halvings=0)
                for i in range(1, 4)]
        assert history_to_log(recs).count("\n") == 3

"""Readout maps, residual families, and analytic-vs-FD Jacobian checks."""
import numpy as np
import pytest
import scipy.sparse

from esnode.constraints import (StageResiduals, fd_jacobian, stage1_jacobian,
                                stage1_operator, stage1_readout,
                                stage1_residuals, stage2_jacobian,
                                stage2_operator, stage2_readout,
                                stage2_residuals)
from esnode.errors import DimensionMismatch, NonFinite
from esnode.problems import OdeSystem, get_system
from esnode.reservoir import Reservoir, ReservoirParams, build, drive
from esnode.trial import Trajectory, refine_downsample, washout_crop


def make_instance(name="harmonic", n_neurons=10, seed=0, n_washout=5,
                  n_points=6, tau=0.05, connectivity=0.3, norm=2.0,
                  input_scale=1.0, y0=None):
    """Small driven instance mirroring the training pipeline's indexing."""
    system = get_system(name)
    if y0 is None:
        y0 = {"harmonic": (1.0, 0.0), "vdp": (2.0, 0.0),
              "lorenz": (1.0, 1.0, 1.0)}[name]
    full = refine_downsample(system, y0, tau, n_washout + n_points, 1)
    washout, kept = washout_crop(full, n_washout, n_points + 1)
    params = ReservoirParams(n_neurons=n_neurons, connectivity=connectivity,
                             spectral_norm=norm, input_scale=input_scale,
                             seed=seed)
    res = build(params, system.dim)
    inputs = Trajectory(t0=0.0, tau=tau, states=full.states[:-1])
    hs = drive(res, inputs).drop_leading(n_washout)
    return system, res, hs, kept


def single_neuron_reservoir(v=0.0, b=0.0, c=0.0):
    params = ReservoirParams(n_neurons=1, connectivity=1.0,
                             spectral_norm=1.0, input_scale=1.0, seed=0)
    return Reservoir(omega=scipy.sparse.csr_array((1, 1)),
                     v=np.array([[v]]), b=np.array([b]), c=np.array([c]),
                     params=params)


def constant_rhs_system():
    return OdeSystem(name="const", dim=1,
                     rhs=lambda y: np.array([1.0]),
                     jac=lambda y: np.zeros((1, 1)))


class TestStage1Readout:
    def test_zero_weights_freeze_at_start(self):
        _, _, hs, kept = make_instance()
        out = stage1_readout(np.zeros((2, 10)), hs, kept.states[0], 0.05)
        assert (out.states == kept.states[0]).all()

    def test_constant_increment(self):
        res = single_neuron_reservoir(c=np.arctanh(0.5))
        inputs = Trajectory(t0=0.0, tau=0.1, states=np.zeros((5, 1)))
        hs = drive(res, inputs)
        out = stage1_readout(np.array([[2.0]]), hs, np.array([0.0]), 0.1)
        np.testing.assert_allclose(out.states[:, 0],
                                   0.1 * np.arange(6), atol=1e-15)

    def test_matches_telescoped_sum(self):
        _, _, hs, kept = make_instance(seed=3)
        rng = np.random.default_rng(4)
        wbar = rng.standard_normal((2, 10))
        out = stage1_readout(wbar, hs, kept.states[0], 0.05)
        for n in range(hs.n_steps + 1):
            direct = kept.states[0] + 0.05 * (wbar @ hs.sig[:n].sum(axis=0))
            np.testing.assert_allclose(out.states[n], direct, atol=1e-13)

    def test_wrong_shape_rejected(self):
        _, _, hs, kept = make_instance()
        with pytest.raises(DimensionMismatch):
            stage1_readout(np.zeros((2, 7)), hs, kept.states[0], 0.05)


class TestStage2Readout:
    def test_zero_weights_lag_copy(self):
        _, _, hs, kept = make_instance()
        ybar = stage1_readout(np.full((2, 10), 0.1), hs, kept.states[0], 0.05)
        out = stage2_readout(np.zeros((2, 10)), hs, ybar, 0.05)
        np.testing.assert_array_equal(out.states[1:], ybar.states[:-1])
        np.testing.assert_array_equal(out.states[0], ybar.states[0])

    def test_single_step_coincides_with_stage1(self):
        _, _, hs, kept = make_instance(n_points=1)
        rng = np.random.default_rng(0)
        w = rng.standard_normal((2, 10))
        anchored = stage1_readout(w, hs, kept.states[0], 0.05)
        out = stage2_readout(w, hs, anchored, 0.05)
        np.testing.assert_array_equal(out.states, anchored.states)

    def test_matches_per_step_recomputation(self):
        _, _, hs, kept = make_instance(seed=5)
        rng = np.random.default_rng(6)
        w = rng.standard_normal((2, 10))
        ybar = stage1_readout(w, hs, kept.states[0], 0.05)
        out = stage2_readout(w, hs, ybar, 0.05)
        for k in range(hs.n_steps):
            np.testing.assert_allclose(
                out.states[k + 1],
                ybar.states[k] + 0.05 * (w @ hs.sig[k]), atol=1e-14)

    def test_length_mismatch_rejected(self):
        _, _, hs, kept = make_instance()
        short = Trajectory(t0=0.0, tau=0.05, states=kept.states[:3])
        with pytest.raises(DimensionMismatch):
            stage2_readout(np.zeros((2, 10)), hs, short, 0.05)


class TestStage1Residuals:
    def test_zero_weights(self):
        system, _, hs, kept = make_instance()
        anchor = kept.states[0]
        sr = stage1_residuals(system, np.zeros((2, 10)), hs, anchor, 0.05)
        f0 = system.rhs(anchor)
        np.testing.assert_array_equal(sr.e1, np.tile(f0, (hs.n_steps, 1)))
        np.testing.assert_array_equal(sr.e2, np.tile(f0, (hs.n_steps, 1)))
        np.testing.assert_array_equal(sr.e3, 0.0)

    def test_satisfied_constraint_vanishes(self):
        # constant unit vector field; sig0 = 0.5 everywhere, so w = 2
        # reproduces f exactly and families 1 and 2 vanish
        system = constant_rhs_system()
        res = single_neuron_reservoir(c=np.arctanh(0.5))
        inputs = Trajectory(t0=0.0, tau=0.1, states=np.zeros((4, 1)))
        hs = drive(res, inputs)
        sr = stage1_residuals(system, np.array([[2.0]]), hs,
                              np.array([0.0]), 0.1)
        np.testing.assert_allclose(sr.e2, 0.0, atol=1e-15)
        np.testing.assert_allclose(sr.e1, 0.0, atol=1e-15)

    def test_interval_derivative_term_matches_fd(self):
        # the family-1 readout term is d/dtau of tau * wbar . sig(z0 + b tau)
        _, res, hs, kept = make_instance(seed=2)
        rng = np.random.default_rng(1)
        wbar = rng.standard_normal((2, 10))
        tau, eps = 0.05, 1e-6
        term = (hs.sig + (hs.z - hs.z0) * hs.sig_dot) @ wbar.T
        for k in range(hs.n_steps):
            gp = (tau + eps) * (wbar @ np.tanh(hs.z0[k] + res.b * (tau + eps)))
            gm = (tau - eps) * (wbar @ np.tanh(hs.z0[k] + res.b * (tau - eps)))
            np.testing.assert_allclose(term[k], (gp - gm) / (2 * eps),
                                       atol=1e-6)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_nonfinite_rejected(self):
        system, _, hs, kept = make_instance()
        w = np.full((2, 10), np.inf)
        with pytest.raises(NonFinite):
            stage1_residuals(system, w, hs, kept.states[0], 0.05)

    def test_loss_bookkeeping(self):
        system, _, hs, kept = make_instance(seed=9)
        rng = np.random.default_rng(10)
        wbar = rng.standard_normal((2, 10))
        sr = stage1_residuals(system, wbar, hs, kept.states[0], 0.05)
        stacked = sr.stacked()
        assert stacked.shape == (3 * hs.n_steps * 2,)


class TestStage2Residuals:
    def make_second_stage(self, seed=0, name="harmonic", norm=2.0):
        system, res, hs, kept = make_instance(name=name, seed=seed, norm=norm)
        rng = np.random.default_rng(seed + 100)
        wbar = 0.3 * rng.standard_normal((system.dim, 10))
        ybar = stage1_readout(wbar, hs, kept.states[0], 0.05, t0=kept.t0)
        inputs2 = Trajectory(t0=0.0, tau=0.05, states=ybar.states[:-1])
        hs2 = drive(res, inputs2)
        return system, res, hs2, ybar, wbar

    def test_zero_weights(self):
        system, _, hs2, ybar, _ = self.make_second_stage()
        sr = stage2_residuals(system, np.zeros((2, 10)), hs2, ybar, 0.05)
        f_prev = system.rhs_many(ybar.states[:-1])
        np.testing.assert_array_equal(sr.e1, f_prev)
        np.testing.assert_array_equal(sr.e2, f_prev)
        np.testing.assert_array_equal(sr.e3, 0.0)

    def test_hand_evaluated_quadratic_term(self):
        # one neuron, sig = sig0 = 0.5, sig_dot = 0.75, v = 1, b = 0,
        # tau = 0.1, w = 1: family 3 reduces to 0.1 * 0.75 * 0.5 = 0.0375
        system = OdeSystem(name="null", dim=1,
                           rhs=lambda y: np.zeros(1),
                           jac=lambda y: np.zeros((1, 1)))
        res = single_neuron_reservoir(v=1.0, c=np.arctanh(0.5))
        inputs = Trajectory(t0=0.0, tau=0.1, states=np.zeros((1, 1)))
        hs = drive(res, inputs)
        ybar = Trajectory(t0=0.0, tau=0.1, states=np.zeros((2, 1)))
        sr = stage2_residuals(system, np.array([[1.0]]), hs, ybar, 0.1)
        assert sr.e3[0, 0] == pytest.approx(0.0375, abs=1e-15)

    def test_quadratic_scaling(self):
        system, res, hs2, ybar, wbar = self.make_second_stage(seed=3)
        g1 = hs2.sig + (hs2.z - hs2.z0) * hs2.sig_dot
        quad = 0.05 * (hs2.sig_dot * ((hs2.sig0 @ wbar.T) @ res.v.T)) @ wbar.T
        lin = (g1 - hs2.sig0) @ wbar.T
        doubled = stage2_residuals(system, 2 * wbar, hs2, ybar, 0.05).e3
        np.testing.assert_allclose(doubled, 4 * quad - 2 * lin, atol=1e-12)


class TestInvarianceFdOracle:
    """Family 3 must equal the finite-difference directional derivative."""

    def test_stage1_transport(self):
        system, res, hs, kept = make_instance(seed=11)
        rng = np.random.default_rng(12)
        wbar = 0.4 * rng.standard_normal((2, 10))
        sr = stage1_residuals(system, wbar, hs, kept.states[0], 0.05)
        g1 = hs.sig + (hs.z - hs.z0) * hs.sig_dot
        eps = 1e-6
        omega = res.omega.toarray()
        for k in range(hs.n_steps):
            u_z = omega @ hs.sig0[k]
            dd = (wbar @ np.tanh(hs.z[k] + eps * u_z)
                  - wbar @ np.tanh(hs.z[k] - eps * u_z)) / (2 * eps)
            expect = dd - wbar @ (g1[k] - hs.sig0[k])
            np.testing.assert_allclose(sr.e3[k], expect, atol=1e-6)

    def test_stage2_directional_derivative(self):
        helper = TestStage2Residuals()
        system, res, hs2, ybar, wbar = helper.make_second_stage(seed=13)
        sr = stage2_residuals(system, wbar, hs2, ybar, 0.05)
        g1 = hs2.sig + (hs2.z - hs2.z0) * hs2.sig_dot
        eps, tau = 1e-6, 0.05
        for k in range(hs2.n_steps):
            u = wbar @ hs2.sig0[k]
            zp = hs2.z[k] + res.v @ (eps * u)
            zm = hs2.z[k] - res.v @ (eps * u)
            yp = eps * u + tau * (wbar @ np.tanh(zp))
            ym = -eps * u + tau * (wbar @ np.tanh(zm))
            dd = (yp - ym) / (2 * eps)
            expect = dd - wbar @ g1[k]
            np.testing.assert_allclose(sr.e3[k], expect, atol=1e-6)


def evaluated(at, w, fresh=True):
    """at(w) for a stage operator at. Unless fresh, at has first been
    evaluated at other weights and its dense J and Gram formed there, as in
    every Gauss-Newton iteration after a stage's first."""
    if not fresh:
        before = at(2.0 * w + 0.1)
        before.dense()
        before.gram()
    return at(w)


def stage1_fns(system, hs, anchor, tau, fresh=True):
    at = stage1_operator(system, hs, anchor, tau)

    def res_fn(w):
        return stage1_residuals(system, w, hs, anchor, tau).stacked()

    def jac_fn(w):
        if fresh:
            return stage1_jacobian(system, w, hs, anchor, tau)
        return evaluated(at, w, fresh=False).dense()
    return res_fn, jac_fn


def stage2_fns(system, hs, ybar, tau, fresh=True):
    at = stage2_operator(system, hs, ybar, tau)

    def res_fn(w):
        return stage2_residuals(system, w, hs, ybar, tau).stacked()

    def jac_fn(w):
        if fresh:
            return stage2_jacobian(system, w, hs, ybar, tau)
        return evaluated(at, w, fresh=False).dense()
    return res_fn, jac_fn


class TestJacobians:
    """Analytic against finite-difference Jacobians; fresh=False takes J
    from an operator already evaluated at other weights."""

    @pytest.mark.parametrize("name", ["harmonic", "vdp"])
    @pytest.mark.parametrize("fresh", [True, False])
    def test_stage1_matches_fd(self, name, fresh):
        system, _, hs, kept = make_instance(name=name, n_points=5)
        rng = np.random.default_rng(20)
        w = 0.3 * rng.standard_normal((2, 10))
        res_fn, jac_fn = stage1_fns(system, hs, kept.states[0], 0.05, fresh)
        j_an = jac_fn(w)
        j_fd = fd_jacobian(res_fn, w)
        assert np.abs(j_an - j_fd).max() / np.abs(j_fd).max() < 1e-5

    @pytest.mark.parametrize("name", ["harmonic", "vdp"])
    @pytest.mark.parametrize("fresh", [True, False])
    def test_stage2_matches_fd(self, name, fresh):
        helper = TestStage2Residuals()
        system, _, hs2, ybar, wbar = helper.make_second_stage(name=name)
        res_fn, jac_fn = stage2_fns(system, hs2, ybar, 0.05, fresh)
        j_an = jac_fn(wbar)
        j_fd = fd_jacobian(res_fn, wbar)
        assert np.abs(j_an - j_fd).max() / np.abs(j_fd).max() < 1e-5

    def test_shape_contract(self):
        system, _, hs, kept = make_instance(n_points=5)
        w = np.zeros((2, 10))
        j = stage1_jacobian(system, w, hs, kept.states[0], 0.05)
        assert j.shape == (3 * 5 * 2, 2 * 10)

    def test_stage1_family2_block_constant_for_linear_system(self):
        system, _, hs, kept = make_instance(n_points=5)
        rng = np.random.default_rng(21)
        rows = 5 * 2
        blocks = []
        for _ in range(2):
            w = rng.standard_normal((2, 10))
            j = stage1_jacobian(system, w, hs, kept.states[0], 0.05)
            blocks.append(j[rows:2 * rows])
        np.testing.assert_array_equal(blocks[0], blocks[1])

    def test_stage2_family2_block_is_w_independent_structure(self):
        helper = TestStage2Residuals()
        system, _, hs2, ybar, wbar = helper.make_second_stage(seed=6)
        rows = hs2.n_steps * 2
        j_a = stage2_jacobian(system, wbar, hs2, ybar, 0.05)[rows:2 * rows]
        j_b = stage2_jacobian(system, 3 * wbar, hs2, ybar,
                              0.05)[rows:2 * rows]
        np.testing.assert_array_equal(j_a, j_b)
        expect = -np.einsum("ia,kb->kiab", np.eye(2),
                            hs2.sig0).reshape(rows, 20)
        np.testing.assert_array_equal(j_a, expect)

    def test_family3_vanishes_without_recurrence_or_coupling(self):
        # omega = 0 and b = 0 make sig equal sig0, so family 3 is
        # identically zero in the weights and its block is zero
        system = get_system("harmonic")
        params = ReservoirParams(n_neurons=6, connectivity=0.5,
                                 spectral_norm=1.0, input_scale=1.0, seed=0)
        template = build(params, 2)
        res = Reservoir(omega=scipy.sparse.csr_array((6, 6)),
                        v=template.v, b=np.zeros(6), c=template.c,
                        params=params)
        inputs = Trajectory(t0=0.0, tau=0.05,
                            states=np.linspace(0, 1, 8).reshape(4, 2))
        hs = drive(res, inputs)
        rng = np.random.default_rng(22)
        w = rng.standard_normal((2, 6))
        sr = stage1_residuals(system, w, hs, inputs.states[0], 0.05)
        np.testing.assert_array_equal(sr.e3, 0.0)
        rows = hs.n_steps * 2
        j = stage1_jacobian(system, w, hs, inputs.states[0], 0.05)
        np.testing.assert_array_equal(j[2 * rows:], 0.0)


def einsum_stage1_jacobian(system, wbar, hs, y_start, tau):
    """Stage-1 Jacobian as 4-D einsum terms with an identity factor."""
    n_steps, n = hs.sig.shape
    d = wbar.shape[0]
    ybar = stage1_readout(wbar, hs, y_start, tau).states
    g1 = hs.sig + (hs.z - hs.z0) * hs.sig_dot
    s_run = np.cumsum(hs.sig, axis=0)
    s_prev = np.vstack([np.zeros(n), s_run[:-1]])
    jf_end = system.jac_many(ybar[1:])
    jf_beg = system.jac_many(ybar[:-1])
    eye = np.eye(d)
    j1 = tau * np.einsum("kia,kb->kiab", jf_end, s_run) \
        - np.einsum("ia,kb->kiab", eye, g1)
    j2 = tau * np.einsum("kia,kb->kiab", jf_beg, s_prev) \
        - np.einsum("ia,kb->kiab", eye, hs.sig0)
    transported = hs.sig_dot * (hs.res.omega @ hs.sig0.T).T
    j3 = np.einsum("ia,kb->kiab", eye, transported - (g1 - hs.sig0))
    rows = n_steps * d
    return np.concatenate([
        j1.reshape(rows, d * n), j2.reshape(rows, d * n), j3.reshape(rows, d * n)
    ])


def einsum_stage2_jacobian(system, w, hs, ybar, tau):
    """Stage-2 Jacobian as 4-D einsum terms with an identity factor."""
    n_steps, n = hs.sig.shape
    d = w.shape[0]
    y = stage2_readout(w, hs, ybar, tau).states
    g1 = hs.sig + (hs.z - hs.z0) * hs.sig_dot
    v = hs.res.v
    jf_end = system.jac_many(y[1:])
    eye = np.eye(d)
    j1 = tau * np.einsum("kia,kb->kiab", jf_end, hs.sig) \
        - np.einsum("ia,kb->kiab", eye, g1)
    j2 = -np.einsum("ia,kb->kiab", eye, hs.sig0)
    prev_incr = hs.sig0 @ w.T
    carried = hs.sig_dot * (prev_incr @ v.T)
    inner = np.einsum("im,km,ma->kia", w, hs.sig_dot, v)
    j3 = np.einsum("ia,kb->kiab", eye, tau * carried - (g1 - hs.sig0)) \
        + tau * np.einsum("kia,kb->kiab", inner, hs.sig0)
    rows = n_steps * d
    return np.concatenate([
        j1.reshape(rows, d * n), j2.reshape(rows, d * n), j3.reshape(rows, d * n)
    ])


class TestJacobianAssemblyOracle:
    """The in-place assembly gives the einsum Jacobians' values exactly.

    Signed zeros may differ: the einsum form subtracts 0 * g1 off the
    diagonal, the in-place form leaves an untouched zero. fresh=False takes
    J from an operator already evaluated at other weights.
    """

    @pytest.mark.parametrize("name", ["harmonic", "vdp", "lorenz"])
    @pytest.mark.parametrize("fresh", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stage1(self, name, fresh, seed):
        system, _, hs, kept = make_instance(name=name, seed=seed, n_points=7)
        rng = np.random.default_rng(seed + 300)
        w = 0.5 * rng.standard_normal((system.dim, 10))
        tau = 0.05 * (1 + seed)
        _, jac_fn = stage1_fns(system, hs, kept.states[0], tau, fresh)
        got = jac_fn(w)
        expect = einsum_stage1_jacobian(system, w, hs, kept.states[0], tau)
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)

    @pytest.mark.parametrize("name", ["harmonic", "vdp", "lorenz"])
    @pytest.mark.parametrize("fresh", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_stage2(self, name, fresh, seed):
        helper = TestStage2Residuals()
        system, _, hs2, ybar, wbar = helper.make_second_stage(seed=seed,
                                                              name=name)
        rng = np.random.default_rng(seed + 400)
        w = wbar + 0.5 * rng.standard_normal(wbar.shape)
        _, jac_fn = stage2_fns(system, hs2, ybar, 0.05, fresh)
        got = jac_fn(w)
        expect = einsum_stage2_jacobian(system, w, hs2, ybar, 0.05)
        assert got.shape == expect.shape
        assert np.array_equal(got, expect)


def wide_operator(stage, name="lorenz", fresh=True, seed=0,
                  n_neurons=40, n_points=6, tau=0.05):
    """A stage's structured Jacobian at random weights on an instance with
    more weight columns than residual rows (N d > 3 n d), plus a generator
    for test vectors. Unless fresh, the stage operator has first been
    evaluated at other weights."""
    system, res, hs, kept = make_instance(name=name, seed=seed,
                                          n_neurons=n_neurons,
                                          n_points=n_points, tau=tau)
    rng = np.random.default_rng(seed + 500)
    w = 0.3 * rng.standard_normal((system.dim, n_neurons))
    if stage == 1:
        op = evaluated(stage1_operator(system, hs, kept.states[0], tau), w,
                       fresh)
    else:
        ybar = stage1_readout(w, hs, kept.states[0], tau, t0=kept.t0)
        hs2 = drive(res, Trajectory(t0=0.0, tau=tau, states=ybar.states[:-1]))
        w2 = w + 0.3 * rng.standard_normal(w.shape)
        op = evaluated(stage2_operator(system, hs2, ybar, tau), w2, fresh)
    return op, rng


class TestStructuredJacobian:
    """Gram and products of the structured operator against its dense J;
    fresh=False reuses an operator already evaluated at other weights."""

    @pytest.mark.parametrize("name", ["harmonic", "vdp", "lorenz"])
    @pytest.mark.parametrize("stage", [1, 2])
    @pytest.mark.parametrize("fresh", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_products_match_dense(self, name, stage, fresh, seed):
        op, rng = wide_operator(stage, name, fresh, seed)
        j = op.dense()
        assert j.shape == op.shape
        assert j.shape[1] > j.shape[0]
        x = rng.standard_normal(j.shape[1])
        y = rng.standard_normal(j.shape[0])
        gram = op.gram()
        assert np.array_equal(gram, gram.T)
        for got, expect in ((gram, j @ j.T), (op.matvec(x), j @ x),
                            (op.rmatvec(y), j.T @ y)):
            assert got.shape == expect.shape
            assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()

    def test_feature_grams_computed_once_per_stage(self):
        system, _, hs, kept = make_instance(n_neurons=40)
        at = stage1_operator(system, hs, kept.states[0], 0.05)
        first = at(np.zeros((2, 40)))
        first.gram()
        cached = first.grams.blocks({})["g1", "sig0"]
        second = at(np.ones((2, 40)))
        second.gram()
        assert np.shares_memory(second.grams.blocks({})["g1", "sig0"], cached)


class TestFdJacobian:
    def test_exact_on_affine_map(self):
        rng = np.random.default_rng(30)
        a = rng.standard_normal((9, 8))
        beta = rng.standard_normal(9)
        j = fd_jacobian(lambda w: a @ w.ravel() - beta, np.zeros((2, 4)))
        np.testing.assert_allclose(j, a, atol=1e-9)

    def test_step_robustness(self):
        system, _, hs, kept = make_instance(n_points=4)
        rng = np.random.default_rng(31)
        w = 0.3 * rng.standard_normal((2, 10))
        res_fn, _ = stage1_fns(system, hs, kept.states[0], 0.05)
        j6 = fd_jacobian(res_fn, w, step=1e-6)
        j7 = fd_jacobian(res_fn, w, step=1e-7)
        assert np.abs(j6 - j7).max() / np.abs(j6).max() < 1e-4

    def test_rejects_bad_step(self):
        with pytest.raises(ValueError):
            fd_jacobian(lambda w: w.ravel(), np.zeros((1, 1)), step=0.0)


def test_residuals_to_csv_layout():
    from esnode.constraints import residuals_to_csv
    system, _, hs, kept = make_instance(n_points=4)
    sr = stage1_residuals(system, np.zeros((2, 10)), hs, kept.states[0], 0.05)
    lines = residuals_to_csv(sr).splitlines()
    assert lines[0] == "step,family,r1,r2"
    assert len(lines) == 1 + 3 * 4
    assert lines[1].startswith("1,1,")
    assert lines[1 + 4].startswith("1,2,")

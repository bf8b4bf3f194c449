"""Random network construction, norm control, and the drive recurrence."""
import numpy as np
import pytest
import scipy.sparse

from esnode.errors import DegenerateMatrix, DimensionMismatch
from esnode.reservoir import (HiddenSequence, Reservoir, ReservoirParams,
                              _scale_to_norm, build, drive, spectral_norm)
from esnode.trial import Trajectory


def make_params(**over):
    base = dict(n_neurons=50, connectivity=0.1, spectral_norm=10.0,
                input_scale=1.0, seed=0)
    base.update(over)
    return ReservoirParams(**base)


def random_inputs(n_points, dim, seed=0, tau=0.05):
    rng = np.random.default_rng(seed)
    return Trajectory(t0=0.0, tau=tau,
                      states=rng.uniform(-1, 1, size=(n_points, dim)))


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, 1.0, -7.0])) == pytest.approx(7.0)

    def test_identity(self):
        assert spectral_norm(np.eye(12)) == pytest.approx(1.0)

    def test_matches_dense_svd(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((50, 50))
        exact = np.linalg.svd(m, compute_uv=False)[0]
        assert spectral_norm(m) == pytest.approx(exact, rel=1e-8)

    def test_sparse_input(self):
        m = scipy.sparse.csr_array(np.diag([2.0, 5.0, 1.0]))
        assert spectral_norm(m) == pytest.approx(5.0)

    def test_zero_matrix_rejected(self):
        with pytest.raises(DegenerateMatrix):
            spectral_norm(np.zeros((4, 4)))


class TestScaling:
    def test_identity_scales_exactly(self):
        scaled = _scale_to_norm(np.eye(30), 10.0)
        np.testing.assert_allclose(scaled, 10.0 * np.eye(30), atol=1e-10)
        assert spectral_norm(scaled) == pytest.approx(10.0, abs=1e-8)


class TestParams:
    @pytest.mark.parametrize("field,value", [
        ("n_neurons", 0), ("connectivity", 0.0), ("connectivity", 1.5),
        ("spectral_norm", 0.0), ("spectral_norm", -1.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            make_params(**{field: value})


class TestBuild:
    def test_norm_and_density(self):
        res = build(make_params(n_neurons=200, connectivity=0.05), dim=2)
        dense = res.omega.toarray()
        exact = np.linalg.svd(dense, compute_uv=False)[0]
        assert exact == pytest.approx(10.0, abs=1e-5)
        assert res.omega.nnz == round(0.05 * 200 * 200)

    def test_builder_norm_matches_svd_oracle(self):
        res = build(make_params(n_neurons=80), dim=2)
        exact = np.linalg.svd(res.omega.toarray(), compute_uv=False)[0]
        assert abs(exact - 10.0) < 1e-6

    def test_deterministic_reconstruction(self):
        a = build(make_params(seed=42), dim=3)
        b = build(make_params(seed=42), dim=3)
        assert (a.omega.toarray() == b.omega.toarray()).all()
        np.testing.assert_array_equal(a.v, b.v)
        np.testing.assert_array_equal(a.b, b.b)
        np.testing.assert_array_equal(a.c, b.c)

    def test_different_seeds_differ(self):
        a = build(make_params(seed=0), dim=2)
        b = build(make_params(seed=1), dim=2)
        assert (a.omega.toarray() != b.omega.toarray()).any()

    def test_input_matrices_scaled(self):
        res = build(make_params(input_scale=0.25), dim=3)
        assert res.v.shape == (50, 3)
        assert res.b.shape == (50,)
        assert res.c.shape == (50,)
        for arr in (res.v, res.b, res.c):
            assert np.abs(arr).max() <= 0.25

    def test_empty_sample_rejected(self):
        # connectivity so low that zero entries are drawn
        with pytest.raises(DegenerateMatrix):
            build(make_params(n_neurons=5, connectivity=0.001), dim=2)


class TestDrive:
    def test_all_zero_weights_give_zero_states(self):
        res = Reservoir(omega=scipy.sparse.csr_array((3, 3)),
                        v=np.zeros((3, 2)), b=np.zeros(3), c=np.zeros(3),
                        params=make_params(n_neurons=3))
        hs = drive(res, random_inputs(5, 2))
        assert (hs.h == 0.0).all()

    def test_constant_bias_fixed_point(self):
        res = Reservoir(omega=scipy.sparse.csr_array((1, 1)),
                        v=np.zeros((1, 1)), b=np.zeros(1),
                        c=np.array([np.arctanh(0.5)]),
                        params=make_params(n_neurons=1))
        hs = drive(res, random_inputs(4, 1))
        np.testing.assert_allclose(hs.h[1:], 0.5, atol=1e-15)

    def test_matches_dense_recomputation(self):
        # dense BLAS and the sparse kernel order their sums differently,
        # so the independent oracle agrees to machine precision, not bitwise
        res = build(make_params(n_neurons=5), dim=2)
        inputs = random_inputs(3, 2, seed=9)
        hs = drive(res, inputs)
        omega = res.omega.toarray()
        h = np.zeros(5)
        tau = inputs.tau
        for k in range(3):
            z = res.b * tau + omega @ h + res.v @ inputs.states[k] + res.c
            np.testing.assert_allclose(hs.z[k], z, rtol=0, atol=1e-13)
            h = np.tanh(hs.z[k])
            np.testing.assert_array_equal(hs.h[k + 1], h)

    def test_cache_identities(self):
        res = build(make_params(), dim=2)
        inputs = random_inputs(6, 2, seed=3)
        hs = drive(res, inputs)
        # z0 is defined as z - b*tau; the expression is reproduced bitwise,
        # the semantic difference holds to machine precision
        np.testing.assert_array_equal(hs.z0, hs.z - res.b * inputs.tau)
        np.testing.assert_allclose(
            hs.z - hs.z0,
            np.broadcast_to(res.b * inputs.tau, hs.z.shape),
            rtol=0, atol=1e-13)
        np.testing.assert_array_equal(hs.sig, hs.h[1:])
        np.testing.assert_array_equal(hs.sig_dot, 1.0 - hs.sig ** 2)
        np.testing.assert_array_equal(hs.sig0, np.tanh(hs.z0))
        assert (np.abs(hs.h) < 1.0).all()

    def test_custom_initial_state(self):
        res = build(make_params(n_neurons=4), dim=2)
        h0 = np.full(4, 0.3)
        hs = drive(res, random_inputs(2, 2), h0=h0)
        np.testing.assert_array_equal(hs.h[0], h0)

    def test_dimension_mismatch(self):
        res = build(make_params(), dim=2)
        with pytest.raises(DimensionMismatch):
            drive(res, random_inputs(4, 3))

    def test_deterministic(self):
        res = build(make_params(), dim=2)
        inputs = random_inputs(5, 2)
        a = drive(res, inputs)
        b = drive(res, inputs)
        np.testing.assert_array_equal(a.h, b.h)

    def test_drop_leading(self):
        res = build(make_params(), dim=2)
        hs = drive(res, random_inputs(10, 2))
        kept = hs.drop_leading(4)
        assert kept.n_steps == 6
        np.testing.assert_array_equal(kept.sig, hs.sig[4:])
        np.testing.assert_array_equal(kept.sig0, hs.sig0[4:])
        np.testing.assert_array_equal(kept.h, hs.h[4:])
        assert kept.res is hs.res


"""Benchmark system definitions: right-hand sides, Jacobians, references."""
import numpy as np
import pytest

from esnode.problems import get_system, system_names


def fd_jac(rhs, y, step=1e-5):
    """Central-difference Jacobian oracle."""
    y = np.asarray(y, dtype=float)
    d = y.shape[0]
    cols = []
    for i in range(d):
        e = np.zeros(d)
        e[i] = step
        cols.append((np.asarray(rhs(y + e)) - np.asarray(rhs(y - e)))
                    / (2 * step))
    return np.stack(cols, axis=1)


class TestRegistry:
    def test_known_names(self):
        assert set(system_names()) == {"harmonic", "vdp", "lorenz"}

    def test_unknown_name_raises_and_lists_choices(self):
        with pytest.raises(ValueError, match="harmonic"):
            get_system("pendulum")

    def test_systems_are_self_describing(self):
        for name in system_names():
            system = get_system(name)
            assert system.name == name
            assert system.dim in (2, 3)


class TestHarmonic:
    def test_rhs_at_unit_state(self):
        system = get_system("harmonic")
        np.testing.assert_array_equal(system.rhs(np.array([1.0, 0.0])),
                                      [0.0, -1.0])

    def test_jac_constant(self):
        system = get_system("harmonic")
        for y in ([0.0, 0.0], [3.0, -2.0], [1.0, 1.0]):
            np.testing.assert_array_equal(system.jac(np.array(y)),
                                          [[0.0, 1.0], [-1.0, 0.0]])

    def test_reference_quarter_period(self):
        system = get_system("harmonic")
        out = system.reference(np.array([np.pi / 2]), np.array([1.0, 0.0]))
        np.testing.assert_allclose(out[0], [0.0, -1.0], atol=1e-12)

    def test_reference_matches_initial_state(self):
        system = get_system("harmonic")
        y0 = np.array([0.6, -0.8])
        out = system.reference(np.array([0.0]), y0)
        np.testing.assert_allclose(out[0], y0, atol=1e-15)

    def test_rhs_orthogonal_to_state(self):
        # energy-conserving direction: y . f(y) = 0 everywhere
        system = get_system("harmonic")
        rng = np.random.default_rng(1)
        for y in rng.uniform(-5, 5, size=(20, 2)):
            assert abs(y @ system.rhs(y)) < 1e-12


class TestVdp:
    def test_rhs_at_limit_cycle_start(self):
        system = get_system("vdp")
        np.testing.assert_array_equal(system.rhs(np.array([2.0, 0.0])),
                                      [0.0, -2.0])

    def test_rhs_on_axis(self):
        system = get_system("vdp")
        np.testing.assert_array_equal(system.rhs(np.array([0.0, 1.0])),
                                      [1.0, 1.0])

    def test_jac_hand_value(self):
        system = get_system("vdp")
        np.testing.assert_array_equal(system.jac(np.array([1.0, 1.0])),
                                      [[0.0, 1.0], [-3.0, 0.0]])


class TestLorenz:
    def test_origin_fixed_point(self):
        system = get_system("lorenz")
        np.testing.assert_array_equal(system.rhs(np.zeros(3)), np.zeros(3))

    def test_rhs_at_ones(self):
        system = get_system("lorenz")
        np.testing.assert_allclose(system.rhs(np.ones(3)),
                                   [0.0, 26.0, -5.0 / 3.0], rtol=1e-15)

    def test_jac_at_origin(self):
        system = get_system("lorenz")
        np.testing.assert_allclose(
            system.jac(np.zeros(3)),
            [[-10.0, 10.0, 0.0], [28.0, -1.0, 0.0], [0.0, 0.0, -8.0 / 3.0]],
            rtol=1e-15)


@pytest.mark.parametrize("name", ["harmonic", "vdp", "lorenz"])
def test_jac_matches_finite_differences(name):
    system = get_system(name)
    rng = np.random.default_rng(7)
    for y in rng.uniform(-5, 5, size=(100, system.dim)):
        analytic = system.jac(y)
        numeric = fd_jac(system.rhs, y)
        scale = max(np.abs(numeric).max(), 1.0)
        assert np.abs(analytic - numeric).max() / scale < 1e-6


@pytest.mark.parametrize("name", ["harmonic", "vdp", "lorenz"])
def test_batched_maps_match_single_state(name):
    system = get_system(name)
    rng = np.random.default_rng(3)
    ys = rng.uniform(-2, 2, size=(6, system.dim))
    np.testing.assert_array_equal(system.rhs_many(ys),
                                  np.stack([system.rhs(y) for y in ys]))
    np.testing.assert_array_equal(system.jac_many(ys),
                                  np.stack([system.jac(y) for y in ys]))

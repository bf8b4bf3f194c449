"""Trial integration, reference integration, cropping, CSV round trips."""
import dataclasses

import numpy as np
import pytest

from esnode.errors import LengthMismatch, NonFinite
from esnode.problems import get_system
from esnode.trial import (Trajectory, euler, from_csv, refine_downsample,
                          rk4, to_csv, washout_crop)


class TestTrajectory:
    def test_times_are_uniform(self):
        traj = Trajectory(t0=1.0, tau=0.5, states=np.zeros((4, 2)))
        np.testing.assert_allclose(traj.times, [1.0, 1.5, 2.0, 2.5])
        assert len(traj) == 4
        assert traj.dim == 2

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            Trajectory(t0=0.0, tau=0.1, states=np.zeros(5))
        with pytest.raises(ValueError):
            Trajectory(t0=0.0, tau=0.0, states=np.zeros((5, 2)))


class TestEuler:
    def test_harmonic_single_step(self):
        traj = euler(get_system("harmonic"), [1.0, 0.0], 0.05, 1)
        np.testing.assert_array_equal(traj.states, [[1.0, 0.0], [1.0, -0.05]])

    def test_vdp_single_step(self):
        traj = euler(get_system("vdp"), [2.0, 0.0], 0.1, 1)
        np.testing.assert_array_equal(traj.states, [[2.0, 0.0], [2.0, -0.2]])

    def test_lorenz_fixed_point(self):
        traj = euler(get_system("lorenz"), [0.0, 0.0, 0.0], 0.5, 20)
        assert (traj.states == 0.0).all()

    def test_step_identity_to_machine_precision(self):
        system = get_system("vdp")
        traj = euler(system, [2.0, 0.0], 0.1, 50)
        for k in range(50):
            np.testing.assert_allclose(
                traj.states[k + 1] - traj.states[k],
                0.1 * np.asarray(system.rhs(traj.states[k])),
                rtol=0, atol=1e-14)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_raises_with_step_index(self):
        with pytest.raises(NonFinite, match="step"):
            euler(get_system("lorenz"), [1.0, 1.0, 1.0], 5.0, 50)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("method, y0, tau, step", [
        (euler, [2.0, 0.0], 3.0, 9),
        (rk4, [2.0, 0.0], 3.0, 3),
        (euler, [1e200, 1.0], 0.1, 1),
        (rk4, [1e200, 1.0], 0.1, 1),
    ])
    def test_vdp_overflow_raises_with_step_index(self, method, y0, tau, step):
        # vdp's square raises OverflowError on a Python float; the step
        # reported is the one a numpy loop, which stores inf, reports
        with pytest.raises(NonFinite, match=f"at step {step}$"):
            method(get_system("vdp"), y0, tau, 50)
        expect = (numpy_euler if method is euler else numpy_rk4)(
            NUMPY_RHS["vdp"], y0, tau, 50)
        bad = np.argwhere(~np.isfinite(expect).all(axis=1))[0, 0]
        assert bad == step


class TestRk4:
    def test_harmonic_accuracy(self):
        # order analysis: per-step error tau^5/120 = 2.6e-9, so 100 steps
        # accumulate about 2.6e-7; bound set just above that
        traj = rk4(get_system("harmonic"), [1.0, 0.0], 0.05, 100)
        t = traj.times
        exact = np.stack([np.cos(t), -np.sin(t)], axis=1)
        assert np.abs(traj.states - exact).max() < 4e-7

    def test_harmonic_global_error_over_long_span(self):
        # qualifies rk4 as the truth oracle: over [0,25] the accumulated
        # error stays near 500 * 2.6e-9, three orders below the 1e-3
        # tolerances it is used to judge
        traj = rk4(get_system("harmonic"), [1.0, 0.0], 0.05, 500)
        t = traj.times
        exact = np.stack([np.cos(t), -np.sin(t)], axis=1)
        assert np.abs(traj.states - exact).max() < 2e-6

    def test_lorenz_fixed_point(self):
        traj = rk4(get_system("lorenz"), [0.0, 0.0, 0.0], 0.1, 10)
        assert (traj.states == 0.0).all()

    def test_fourth_order_convergence(self):
        system = get_system("harmonic")
        exact = np.array([np.cos(1.0), -np.sin(1.0)])
        err = []
        for tau, n in ((0.05, 20), (0.025, 40)):
            traj = rk4(system, [1.0, 0.0], tau, n)
            err.append(np.abs(traj.states[-1] - exact).max())
        ratio = err[0] / err[1]
        assert 12.0 < ratio < 20.0


# the right-hand sides as numpy-array functions, spelled as the array
# integrators used them; vdp squares through pow, like problems.py
NUMPY_RHS = {
    "harmonic": lambda y: np.array([y[1], -y[0]]),
    "vdp": lambda y: np.array([y[1], y[1] - y[0] - y[0] ** 2 * y[1]]),
    "lorenz": lambda y: np.array([
        10.0 * (y[1] - y[0]),
        y[0] * (28.0 - y[2]) - y[1],
        y[0] * y[1] - 8.0 / 3.0 * y[2],
    ]),
}


def numpy_euler(f, y0, tau, n_steps):
    """Euler stepping numpy arrays, one new array per step."""
    y0 = np.asarray(y0, dtype=float)
    states = np.empty((n_steps + 1, y0.shape[0]))
    states[0] = y0
    y = y0
    for n in range(n_steps):
        y = y + tau * f(y)
        states[n + 1] = y
    return states


def numpy_rk4(f, y0, tau, n_steps):
    """Classical RK4 stepping numpy arrays, one new array per stage."""
    y0 = np.asarray(y0, dtype=float)
    states = np.empty((n_steps + 1, y0.shape[0]))
    states[0] = y0
    y = y0
    for n in range(n_steps):
        k1 = f(y)
        k2 = f(y + 0.5 * tau * k1)
        k3 = f(y + 0.5 * tau * k2)
        k4 = f(y + tau * k3)
        y = y + (tau / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states[n + 1] = y
    return states


class TestPlainFloatIntegratorsOracle:
    """The plain-float loops reproduce numpy-array loops byte for byte."""

    @pytest.mark.parametrize("name, y0, tau", [
        ("harmonic", [1.0, 0.0], 0.01),
        ("vdp", [2.0, 0.0], 0.05),
        ("lorenz", [1.0, 1.0, 1.0], 0.002),
    ])
    @pytest.mark.parametrize("method, oracle", [
        (euler, numpy_euler), (rk4, numpy_rk4),
    ])
    def test_bytes_match(self, name, y0, tau, method, oracle):
        got = method(get_system(name), y0, tau, 12000).states
        expect = oracle(NUMPY_RHS[name], y0, tau, 12000)
        assert got.shape == expect.shape
        assert got.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("method", [euler, rk4])
    def test_vdp_run_is_sensitive_to_the_square_spelling(self, method):
        # x ** 2 rounds through pow and differs from x * x in the last bit
        # for about 0.1% of arguments; the vdp runs above pass through such
        # states, so a square respelled as x * x would fail them
        system = get_system("vdp")
        respelled = dataclasses.replace(
            system, rhs=lambda y: (y[1], y[1] - y[0] - y[0] * y[0] * y[1]))
        got = method(system, [2.0, 0.0], 0.05, 12000).states
        other = method(respelled, [2.0, 0.0], 0.05, 12000).states
        assert got.tobytes() != other.tobytes()


class TestRefineDownsample:
    def test_factor_one_is_plain_euler(self):
        system = get_system("vdp")
        a = refine_downsample(system, [2.0, 0.0], 0.1, 30, 1)
        b = euler(system, [2.0, 0.0], 0.1, 30)
        np.testing.assert_array_equal(a.states, b.states)

    def test_keeps_every_factor_th_fine_point(self):
        system = get_system("lorenz")
        coarse = refine_downsample(system, [1.0, 1.0, 1.0], 0.03, 40, 20)
        fine = euler(system, [1.0, 1.0, 1.0], 0.03 / 20, 40 * 20)
        np.testing.assert_array_equal(coarse.states, fine.states[::20])

    def test_output_span(self):
        traj = refine_downsample(get_system("lorenz"), [1.0, 1.0, 1.0],
                                 0.03, 200, 20)
        assert traj.n_points == 201
        assert traj.tau == 0.03

    def test_rejects_bad_factor(self):
        with pytest.raises(ValueError):
            refine_downsample(get_system("vdp"), [2.0, 0.0], 0.1, 10, 0)


class TestWashoutCrop:
    def test_benchmark_sized_split(self):
        traj = euler(get_system("harmonic"), [1.0, 0.0], 0.05, 649)
        washout, kept = washout_crop(traj, 150, 500)
        assert washout.n_points == 150
        assert kept.n_points == 500
        assert kept.t0 == pytest.approx(150 * 0.05)
        np.testing.assert_array_equal(kept.states, traj.states[150:650])

    def test_zero_drop_is_prefix(self):
        traj = euler(get_system("vdp"), [2.0, 0.0], 0.1, 20)
        washout, kept = washout_crop(traj, 0, 10)
        assert washout.n_points == 0
        np.testing.assert_array_equal(kept.states, traj.states[:10])

    def test_partition_identity(self):
        traj = euler(get_system("vdp"), [2.0, 0.0], 0.1, 20)
        washout, kept = washout_crop(traj, 7, 9)
        recombined = np.vstack([washout.states, kept.states])
        np.testing.assert_array_equal(recombined, traj.states[:16])

    def test_too_short_raises(self):
        traj = euler(get_system("vdp"), [2.0, 0.0], 0.1, 10)
        with pytest.raises(LengthMismatch):
            washout_crop(traj, 8, 8)


class TestCsv:
    def test_round_trip_is_exact(self):
        traj = rk4(get_system("lorenz"), [1.0, 1.0, 1.0], 0.03, 25)
        back = from_csv(to_csv(traj))
        np.testing.assert_array_equal(back.states, traj.states)
        assert back.t0 == traj.t0
        assert back.tau == pytest.approx(traj.tau)

    def test_header_names_components(self):
        traj = euler(get_system("lorenz"), [1.0, 1.0, 1.0], 0.03, 2)
        assert to_csv(traj).splitlines()[0] == "t,y1,y2,y3"

    def test_explicit_tau_for_short_files(self):
        traj = Trajectory(t0=0.0, tau=0.5, states=np.array([[1.0, 2.0]]))
        back = from_csv(to_csv(traj), tau=0.5)
        np.testing.assert_array_equal(back.states, traj.states)

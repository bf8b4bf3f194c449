"""Trial-solution generation and reference integration.

The trial solution is an explicit Euler trajectory, optionally computed on a
finer internal grid and downsampled back to the requested spacing. RK4 serves
as the reference oracle for evaluation. Washout cropping splits off the
leading segment whose reservoir states are discarded.

Both integrators step a list of d Python floats through `system.rhs`, which
returns a tuple of components, and append each state to one flat
`array("d")` buffer that becomes the (n_steps+1, d) result without a copy.
Per-step numpy arrays would cost more than the arithmetic. Each component
sees the same IEEE double operations in the same order as an elementwise
numpy update, so the trajectories are bitwise those of a numpy loop.
Python floats raise OverflowError where numpy would store inf (vdp's
`** 2`); the integrators report that step as NonFinite, like any other
non-finite state.
"""
from __future__ import annotations

import io
import math
from array import array
from dataclasses import dataclass

import numpy as np

from .errors import LengthMismatch, NonFinite
from .problems import OdeSystem

Array = np.ndarray


@dataclass(frozen=True)
class Trajectory:
    """Uniformly spaced states; the time of index n is t0 + n*tau."""

    t0: float
    tau: float
    states: Array

    def __post_init__(self):
        states = np.asarray(self.states, dtype=float)
        if states.ndim != 2:
            raise ValueError("states must be a 2-D array (n_points, dim)")
        if self.tau <= 0:
            raise ValueError("tau must be positive")
        object.__setattr__(self, "states", states)

    @property
    def n_points(self) -> int:
        return self.states.shape[0]

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def times(self) -> Array:
        return self.t0 + self.tau * np.arange(self.n_points)

    def __len__(self) -> int:
        return self.n_points


def _check_finite(states: Array, what: str) -> None:
    if not np.isfinite(states).all():
        bad = int(np.argwhere(~np.isfinite(states).all(axis=1))[0, 0])
        raise NonFinite(f"{what} produced a non-finite state at step {bad}")


def _states(buf: array, d: int, what: str) -> Array:
    """View the flat state buffer as (n_points, d) rows, all finite."""
    states = np.frombuffer(buf, dtype=float).reshape(-1, d)
    _check_finite(states, what)
    return states


def euler(system: OdeSystem, y0, tau: float, n_steps: int, t0: float = 0.0) -> Trajectory:
    """Explicit Euler trajectory of n_steps updates; output has n_steps+1 points."""
    y = np.asarray(y0, dtype=float).tolist()
    d = len(y)
    buf = array("d", y)
    f = system.rhs
    try:
        for _ in range(n_steps):
            y = [a + tau * k for a, k in zip(y, f(y), strict=True)]
            buf.extend(y)
    except OverflowError:
        # numpy would have stored inf in the state being computed
        buf.extend([math.inf] * d)
    return Trajectory(t0=t0, tau=tau, states=_states(buf, d, "euler"))


def rk4(system: OdeSystem, y0, tau: float, n_steps: int, t0: float = 0.0) -> Trajectory:
    """Classical fourth-order Runge-Kutta with the same shape contract as euler."""
    y = np.asarray(y0, dtype=float).tolist()
    d = len(y)
    buf = array("d", y)
    f = system.rhs
    half = 0.5 * tau
    sixth = tau / 6.0
    try:
        for _ in range(n_steps):
            k1 = f(y)
            # one length check per step: every stage calls the same f
            k2 = f([a + half * k for a, k in zip(y, k1, strict=True)])
            k3 = f([a + half * k for a, k in zip(y, k2)])
            k4 = f([a + tau * k for a, k in zip(y, k3)])
            y = [a + sixth * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                 for a, b1, b2, b3, b4 in zip(y, k1, k2, k3, k4)]
            buf.extend(y)
    except OverflowError:
        # numpy would have stored inf in the state being computed
        buf.extend([math.inf] * d)
    return Trajectory(t0=t0, tau=tau, states=_states(buf, d, "rk4"))


def refine_downsample(system: OdeSystem, y0, tau: float, n_steps: int,
                      factor: int, t0: float = 0.0) -> Trajectory:
    """Euler at interval tau/factor, keeping every factor-th point.

    Output length is n_steps+1 with spacing tau; factor=1 is plain Euler.
    """
    if factor < 1:
        raise ValueError("factor must be >= 1")
    fine = euler(system, y0, tau / factor, n_steps * factor, t0=t0)
    return Trajectory(t0=t0, tau=tau, states=fine.states[::factor].copy())


def washout_crop(traj: Trajectory, n_drop: int, n_keep: int):
    """Split a trajectory into its washout prefix and the kept segment."""
    if n_drop + n_keep > traj.n_points:
        raise LengthMismatch(
            f"cannot crop {n_drop}+{n_keep} points from a "
            f"{traj.n_points}-point trajectory"
        )
    washout = Trajectory(t0=traj.t0, tau=traj.tau,
                         states=traj.states[:n_drop].copy())
    kept = Trajectory(t0=traj.t0 + n_drop * traj.tau, tau=traj.tau,
                      states=traj.states[n_drop:n_drop + n_keep].copy())
    return washout, kept


def to_csv(traj: Trajectory) -> str:
    """Render a trajectory as CSV: header t,y1,...,yd then one row per point."""
    buf = io.StringIO()
    header = "t," + ",".join(f"y{i + 1}" for i in range(traj.dim))
    buf.write(header + "\n")
    times = traj.times
    for n in range(traj.n_points):
        row = [format(times[n], ".17g")]
        row.extend(format(x, ".17g") for x in traj.states[n])
        buf.write(",".join(row) + "\n")
    return buf.getvalue()


def from_csv(text: str, tau: float = None) -> Trajectory:
    """Parse the to_csv format back into a Trajectory."""
    lines = [ln for ln in text.strip().splitlines() if ln]
    if len(lines) < 2:
        raise LengthMismatch("trajectory CSV needs a header and at least one row")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    t = rows[:, 0]
    if tau is None:
        if len(t) < 2:
            raise LengthMismatch("cannot infer tau from a single-row CSV")
        tau = float(t[1] - t[0])
    return Trajectory(t0=float(t[0]), tau=tau, states=rows[:, 1:])

"""Benchmark ODE systems: right-hand sides, analytic Jacobians, reference solutions.

Each system is autonomous, dy/dt = f(y). The right-hand side returns a tuple
of the d components of f(y). It and the Jacobian index their argument
component by component, so one definition runs
on a list of Python floats and on a numpy row. The plain-float integrators of
`trial` and the row loops of `rhs_many`/`jac_many` pass Python floats. Both
give the same bits, because each component is the same sequence of IEEE
double operations. vdp squares with `y[0] ** 2`, which rounds through `pow`
for a Python float and for a numpy scalar alike, not `y[0] * y[0]`: the two
differ in the last bit for a small share of arguments, and vdp's chaotic fit
would amplify the difference.

The Jacobian is the d x d matrix df/dy used by the residual linearization;
it must match finite differences of the right-hand side.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

Array = np.ndarray


@dataclass(frozen=True)
class OdeSystem:
    """An autonomous vector field with its analytic Jacobian.

    reference, when present, maps (t, y0) to the exact state at time t for
    the trajectory through y0 at t=0. t may be a scalar or a 1-D array.
    """

    name: str
    dim: int
    rhs: Callable[[Sequence[float]], tuple]
    jac: Callable[[Sequence[float]], Array]
    reference: Optional[Callable[[object, Array], Array]] = None

    def rhs_many(self, states: Array) -> Array:
        """Evaluate f at each row of a (k, d) state block."""
        return np.array([self.rhs(y) for y in states.tolist()])

    def jac_many(self, states: Array) -> Array:
        """Evaluate df/dy at each row of a (k, d) state block."""
        return np.array([self.jac(y) for y in states.tolist()])


def _harmonic_rhs(y) -> tuple:
    return (y[1], -y[0])


_HARMONIC_JAC = np.array([[0.0, 1.0], [-1.0, 0.0]])


def _harmonic_reference(t, y0: Array) -> Array:
    # rotation of the initial state; exact for y'' = -y
    t = np.asarray(t, dtype=float)
    cos_t, sin_t = np.cos(t), np.sin(t)
    y1 = cos_t * y0[0] + sin_t * y0[1]
    y2 = -sin_t * y0[0] + cos_t * y0[1]
    return np.stack([y1, y2], axis=-1)


def harmonic() -> OdeSystem:
    """Simple harmonic oscillator, y1' = y2, y2' = -y1."""
    return OdeSystem(
        name="harmonic",
        dim=2,
        rhs=_harmonic_rhs,
        jac=lambda y: _HARMONIC_JAC.copy(),
        reference=_harmonic_reference,
    )


def _vdp_rhs(y) -> tuple:
    return (y[1], y[1] - y[0] - y[0] ** 2 * y[1])


def _vdp_jac(y) -> Array:
    return np.array([
        [0.0, 1.0],
        [-1.0 - 2.0 * y[0] * y[1], 1.0 - y[0] ** 2],
    ])


def van_der_pol() -> OdeSystem:
    """Van der Pol oscillator in first-order form, unit damping parameter."""
    return OdeSystem(name="vdp", dim=2, rhs=_vdp_rhs, jac=_vdp_jac)


_LORENZ_SIGMA = 10.0
_LORENZ_RHO = 28.0
_LORENZ_BETA = 8.0 / 3.0


def _lorenz_rhs(y) -> tuple:
    return (
        _LORENZ_SIGMA * (y[1] - y[0]),
        y[0] * (_LORENZ_RHO - y[2]) - y[1],
        y[0] * y[1] - _LORENZ_BETA * y[2],
    )


def _lorenz_jac(y) -> Array:
    return np.array([
        [-_LORENZ_SIGMA, _LORENZ_SIGMA, 0.0],
        [_LORENZ_RHO - y[2], -1.0, -y[0]],
        [y[1], y[0], -_LORENZ_BETA],
    ])


def lorenz() -> OdeSystem:
    """Lorenz system at the classic chaotic parameters (10, 28, 8/3)."""
    return OdeSystem(name="lorenz", dim=3, rhs=_lorenz_rhs, jac=_lorenz_jac)


_REGISTRY = {
    "harmonic": harmonic,
    "vdp": van_der_pol,
    "lorenz": lorenz,
}


def get_system(name: str) -> OdeSystem:
    """Look up a builtin system by its registry name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(_REGISTRY))
        raise ValueError(f"unknown system {name!r}; available: {known}") from None
    return factory()


def system_names() -> tuple:
    return tuple(sorted(_REGISTRY))

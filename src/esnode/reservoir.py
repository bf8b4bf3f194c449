"""Random recurrent reservoir: construction, norm control, and driving.

The reservoir weights are drawn once from a seeded generator and never
trained. The recurrent matrix omega is sparse with a prescribed fraction of
nonzero entries and is rescaled so its induced 2-norm (largest singular
value) hits the requested target. Driving the reservoir over an input
sequence caches every quantity the residual computations need: the
preactivations at the working interval and at interval zero, the
activations, and the activation derivatives.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse

from .errors import DegenerateMatrix, DimensionMismatch
from .trial import Trajectory

Array = np.ndarray


@dataclass(frozen=True)
class ReservoirParams:
    n_neurons: int
    connectivity: float
    spectral_norm: float
    input_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.n_neurons < 1:
            raise ValueError("n_neurons must be >= 1")
        if not 0.0 < self.connectivity <= 1.0:
            raise ValueError("connectivity must lie in (0, 1]")
        if self.spectral_norm <= 0:
            raise ValueError("spectral_norm must be positive")


@dataclass(frozen=True)
class Reservoir:
    """Fixed random weights: recurrent omega, input v, interval b, bias c."""

    omega: scipy.sparse.csr_array
    v: Array
    b: Array
    c: Array
    params: ReservoirParams

    @property
    def n_neurons(self) -> int:
        return self.v.shape[0]

    @property
    def dim(self) -> int:
        return self.v.shape[1]


@dataclass(frozen=True)
class HiddenSequence:
    """Driven hidden states with cached preactivations and derivatives.

    h has n_steps+1 rows (the initial state included). Row n of z, z0, sig,
    sig_dot, sig0 belongs to update n+1, i.e. z[n] is the preactivation that
    produced h[n+1]. z0 is the preactivation with the interval term removed
    (z - b*tau), sig0 its activation, and sig_dot = 1 - sig**2. The source
    reservoir rides along so downstream residuals can reach omega and v.
    """

    h: Array
    z: Array
    z0: Array
    sig: Array
    sig_dot: Array
    sig0: Array
    tau: float
    res: "Reservoir"

    @property
    def n_steps(self) -> int:
        return self.z.shape[0]

    def drop_leading(self, n_drop: int) -> "HiddenSequence":
        """Discard the first n_drop update rows (washout)."""
        return HiddenSequence(h=self.h[n_drop:], z=self.z[n_drop:],
                              z0=self.z0[n_drop:], sig=self.sig[n_drop:],
                              sig_dot=self.sig_dot[n_drop:],
                              sig0=self.sig0[n_drop:], tau=self.tau,
                              res=self.res)


def spectral_norm(m) -> float:
    """Largest singular value of m by power iteration on m^T m.

    Converges when successive estimates differ by less than 1e-10 relative,
    capped at 10^4 iterations.
    """
    m = scipy.sparse.csr_array(m) if scipy.sparse.issparse(m) else np.asarray(m, dtype=float)
    n = m.shape[1]
    # deterministic start with unequal components so no single axis is missed
    x = np.ones(n) + 0.5 * np.arange(n) / max(n - 1, 1)
    x /= np.linalg.norm(x)
    est = 0.0
    for _ in range(10_000):
        y = m.T @ (m @ x)
        norm_y = np.linalg.norm(y)
        if norm_y == 0.0:
            raise DegenerateMatrix("matrix is zero; 2-norm scaling undefined")
        new_est = float(np.sqrt(norm_y))
        x = y / norm_y
        if est > 0 and abs(new_est - est) <= 1e-10 * est:
            return new_est
        est = new_est
    return est


def _scale_to_norm(m, target: float):
    """Rescale m so its induced 2-norm equals target."""
    current = spectral_norm(m)
    return m * (target / current)


def build(params: ReservoirParams, dim: int) -> Reservoir:
    """Construct the seeded random reservoir for input dimension dim.

    Draw order is fixed: omega positions, omega values, then v, b, c rows.
    Changing it would silently re-randomize every seeded experiment.
    """
    n = params.n_neurons
    rng = np.random.default_rng(params.seed)
    nnz = int(round(params.connectivity * n * n))
    if nnz == 0:
        raise DegenerateMatrix(
            f"connectivity {params.connectivity} yields no nonzero entries "
            f"for {n} neurons"
        )
    idx = rng.choice(n * n, size=nnz, replace=False)
    vals = rng.uniform(-1.0, 1.0, size=nnz)
    flat = np.zeros(n * n)
    flat[idx] = vals
    dense = flat.reshape(n, n)
    if not dense.any():
        raise DegenerateMatrix("sampled recurrent matrix is identically zero")
    dense = _scale_to_norm(dense, params.spectral_norm)
    omega = scipy.sparse.csr_array(dense)
    v = rng.uniform(-1.0, 1.0, size=(n, dim)) * params.input_scale
    b = rng.uniform(-1.0, 1.0, size=n) * params.input_scale
    c = rng.uniform(-1.0, 1.0, size=n) * params.input_scale
    return Reservoir(omega=omega, v=v, b=b, c=c, params=params)


def drive(res: Reservoir, inputs: Trajectory, h0: Array = None) -> HiddenSequence:
    """Run the reservoir over an input sequence from hidden state h0.

    Each input point triggers one update: z = b*tau + omega.h + v.y + c,
    h_next = tanh(z). Sequential by construction; every row of the caches
    aligns with the update it produced.
    """
    if inputs.dim != res.dim:
        raise DimensionMismatch(
            f"reservoir expects dimension {res.dim}, inputs have {inputs.dim}"
        )
    n_steps = inputs.n_points
    n = res.n_neurons
    tau = inputs.tau
    if h0 is None:
        h0 = np.zeros(n)
    h = np.empty((n_steps + 1, n))
    z = np.empty((n_steps, n))
    h[0] = h0
    # input-dependent part of every preactivation, precomputed in one pass
    aff = inputs.states @ res.v.T + (res.b * tau + res.c)
    omega = res.omega
    for k in range(n_steps):
        z[k] = aff[k] + omega @ h[k]
        h[k + 1] = np.tanh(z[k])
    z0 = z - res.b * tau
    sig = h[1:]
    sig_dot = 1.0 - sig * sig
    sig0 = np.tanh(z0)
    return HiddenSequence(h=h, z=z, z0=z0, sig=sig, sig_dot=sig_dot,
                          sig0=sig0, tau=tau, res=res)


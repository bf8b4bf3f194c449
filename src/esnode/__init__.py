"""Reservoir-computing ODE approximator trained on physics constraints.

A fixed random recurrent network is driven by a cheap Euler trial solution;
only its linear readout is trained, and the training data are not samples of
the solution but per-step constraint residuals derived from the equation
itself. A second pass re-drives the network with the first pass's output so
the readout is fitted in the regime it will actually see.
"""
from .constraints import (ResidualJacobian, StageResiduals,
                          StructuredJacobian, fd_jacobian, stage1_jacobian,
                          stage1_operator, stage1_readout, stage1_residuals,
                          stage2_jacobian, stage2_operator, stage2_readout,
                          stage2_residuals)
from .errors import (DegenerateMatrix, DimensionMismatch, EsnodeError,
                     LengthMismatch, NonFinite, SingularSystem, TrialDiverged)
from .pipeline import (Metrics, RunConfig, RunReport, TrainedModel, evaluate,
                       generate, reference_trajectory, train, write_artifacts)
from .problems import OdeSystem, get_system, system_names
from .regression import (GnConfig, IterationRecord, gn_step,
                         ridge_initial_guess, solve_stage)
from .reservoir import (HiddenSequence, Reservoir, ReservoirParams, build,
                        drive, spectral_norm)
from .trial import (Trajectory, euler, from_csv, refine_downsample, rk4,
                    to_csv, washout_crop)

__version__ = "0.1.0"

__all__ = [
    "DegenerateMatrix", "DimensionMismatch", "EsnodeError", "GnConfig",
    "HiddenSequence", "IterationRecord", "LengthMismatch", "Metrics",
    "NonFinite", "OdeSystem", "Reservoir", "ReservoirParams",
    "ResidualJacobian", "RunConfig", "RunReport", "SingularSystem",
    "StageResiduals", "StructuredJacobian", "TrainedModel", "TrialDiverged",
    "Trajectory", "build", "drive", "euler", "evaluate", "fd_jacobian",
    "from_csv", "generate", "get_system", "gn_step", "reference_trajectory",
    "refine_downsample", "ridge_initial_guess", "rk4", "solve_stage",
    "spectral_norm", "stage1_jacobian", "stage1_operator", "stage1_readout",
    "stage1_residuals", "stage2_jacobian", "stage2_operator",
    "stage2_readout", "stage2_residuals", "system_names", "to_csv", "train",
    "washout_crop", "write_artifacts",
]

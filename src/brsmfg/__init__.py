"""Numerics for N-player stochastic differential games under the best reply
strategy, their mean-field Fokker-Planck limit, and the full mean-field-game
forward-backward system, with tools to quantify the agreement between them."""

__version__ = "0.1.0"

from .applications import CrowdParams, WealthParams, build_crowd_model, build_wealth_model
from .brs import brs_control_finite, brs_control_limit, mpc_value_surrogate
from .fokker_planck import DensityPath, FpkConfig, NumericalError, solve_fpk
from .measures import (
    EmpiricalMeasure,
    Grid,
    GridDensity,
    density_at,
    leave_one_out,
    moments,
    wasserstein_1d,
)
from .mfg import (
    PicardConfig,
    ValueField,
    compare_brs_mfg,
    hjb_backward,
    mpc_reduction_check,
    solve_mfg_picard,
)
from .model import (
    ControlPenalty,
    CostFunction,
    DiffusionFunction,
    DriftFunction,
    InitialLaw,
    ModelSpec,
    PopulationModel,
    brs_drift,
)
from .particle_sim import (
    EnsembleState,
    SimConfig,
    TrajectoryRecord,
    propagation_of_chaos_study,
    simulate_brs_nplayer,
)
from .presets import lq_model, mean_coupling_model, ou_model

__all__ = [
    "__version__",
    "ControlPenalty",
    "CostFunction",
    "CrowdParams",
    "DensityPath",
    "DiffusionFunction",
    "DriftFunction",
    "EmpiricalMeasure",
    "EnsembleState",
    "FpkConfig",
    "Grid",
    "GridDensity",
    "InitialLaw",
    "ModelSpec",
    "NumericalError",
    "PicardConfig",
    "PopulationModel",
    "SimConfig",
    "TrajectoryRecord",
    "ValueField",
    "brs_control_finite",
    "brs_control_limit",
    "brs_drift",
    "build_crowd_model",
    "build_wealth_model",
    "compare_brs_mfg",
    "density_at",
    "hjb_backward",
    "leave_one_out",
    "lq_model",
    "mean_coupling_model",
    "moments",
    "mpc_reduction_check",
    "mpc_value_surrogate",
    "ou_model",
    "propagation_of_chaos_study",
    "simulate_brs_nplayer",
    "solve_fpk",
    "solve_mfg_picard",
    "wasserstein_1d",
]

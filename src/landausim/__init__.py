"""Conservative stochastic particle simulator and entropy/dissipation toolkit
for the spatially homogeneous Landau equation with soft potentials."""

__version__ = "0.1.0"

from .errors import (ConfigError, BlowupError, CoverageError, CapabilityError,
                     DegenerateCloudError, StrideError)
from .potentials import PotentialSpec, alpha_reg, ratio_condition_margin, default_eta
from .dynamics import (SimConfig, ParticleState, Trajectory, init_iid, step, run,
                       conserved_quantities)
from .densities import GaussianModel, GaussianMixtureModel, TensorPower, ScaledModel, ShiftedModel
from .functionals import (MCSpec, FunctionalEstimate, entropy, fisher_information,
                          entropy_production_D, J_functional, k_family, tensor_consistency_D)
from .estimators import EmpiricalMeasure, pair_inverse_square, knn_entropy
from .reference import resolve_preset, maxwellian, aniso_gauss, bimodal, maxwell_molecule_moment_ode
from .diagnostics import (TestFunctionDictionary, default_dictionary, bl_distance,
                          holder_seminorm, weak_form_residual, bump_h,
                          is_delta_nonaligned, NonAlignedTriple, find_nonaligned_triple,
                          ball_mass, iota, increment_scaling_exponent)
from .runio import save_trajectory, load_trajectory, load_config

__all__ = [
    "ConfigError", "BlowupError", "CoverageError", "CapabilityError",
    "DegenerateCloudError", "StrideError",
    "PotentialSpec", "alpha_reg", "ratio_condition_margin", "default_eta",
    "SimConfig", "ParticleState", "Trajectory", "init_iid", "step", "run",
    "conserved_quantities",
    "GaussianModel", "GaussianMixtureModel", "TensorPower", "ScaledModel", "ShiftedModel",
    "MCSpec", "FunctionalEstimate", "entropy", "fisher_information",
    "entropy_production_D", "J_functional", "k_family", "tensor_consistency_D",
    "EmpiricalMeasure", "pair_inverse_square", "knn_entropy",
    "resolve_preset", "maxwellian", "aniso_gauss", "bimodal", "maxwell_molecule_moment_ode",
    "TestFunctionDictionary", "default_dictionary", "bl_distance",
    "holder_seminorm", "weak_form_residual", "bump_h",
    "is_delta_nonaligned", "NonAlignedTriple", "find_nonaligned_triple",
    "ball_mass", "iota", "increment_scaling_exponent",
    "save_trajectory", "load_trajectory", "load_config",
]

"""laplab: a numerical laboratory for limiting absorption of high-order
Schrodinger operators (-Laplace)^m + V on periodic spectral lattices."""

from .lattice import (Field, GridSpec, forward_transform, inverse_transform,
                      nudft_forward, parseval_defect, sample)
from .spaces import (CompositeNormConfig, DyadicShells, LorentzExponents,
                     WeightParams, b_norm, bstar_norm, lorentz_norm, lp_norm,
                     mu_weight, stein_tomas_exponent, x_norm_upper, xstar_norm)
from .multiplier import CutoffSpec, bessel_values, chi_values, free_resolvent
from .boundary import (BoundarySpec, boundary_apply, boundary_pairing,
                       decay_scan, epsilon_limit_pairing, graph_and_weight,
                       kernel_k_plus, sphere_restriction_norm)
from .perturb import (AdmissibilityConfig, EigenvalueCounter, Potential,
                      admissibility_check, bs_solve, direct_eigs, eigen_scan,
                      example_potential, lap_perturbed_sweep, radial_average)
from .family import FAMILY_VERSION, FamilySpec, shell_stress_family, standard_family

__version__ = "0.5.0"

__all__ = [
    "Field", "GridSpec", "forward_transform", "inverse_transform",
    "nudft_forward", "parseval_defect", "sample",
    "CompositeNormConfig", "DyadicShells", "LorentzExponents", "WeightParams",
    "b_norm", "bstar_norm", "lorentz_norm", "lp_norm", "mu_weight",
    "stein_tomas_exponent", "x_norm_upper", "xstar_norm",
    "CutoffSpec", "bessel_values", "chi_values", "free_resolvent",
    "BoundarySpec", "boundary_apply", "boundary_pairing", "decay_scan",
    "epsilon_limit_pairing", "graph_and_weight", "kernel_k_plus",
    "sphere_restriction_norm",
    "AdmissibilityConfig", "EigenvalueCounter", "Potential",
    "admissibility_check", "bs_solve", "direct_eigs", "eigen_scan",
    "example_potential", "lap_perturbed_sweep", "radial_average",
    "FAMILY_VERSION", "FamilySpec", "shell_stress_family", "standard_family",
]

"""laplab: a numerical laboratory for limiting absorption of high-order
Schrodinger operators (-Laplace)^m + V on periodic spectral lattices."""

from .lattice import (Field, GridSpec, forward_transform, inverse_transform,
                      nudft_forward, sample)
from .spaces import (DyadicShells, LorentzExponents, b_norm, bstar_norm,
                     lorentz_norm, lp_norm, stein_tomas_exponent, x_norm_upper,
                     xstar_norm)
from .multiplier import CutoffSpec, bessel_values, chi_values, free_resolvent
from .boundary import (BoundarySpec, boundary_apply, boundary_pairing,
                       decay_scan, epsilon_limit_pairing, graph_and_weight,
                       kernel_k_plus, sphere_restriction_norm)
from .perturb import (EigenvalueCounter, Potential, bs_solve, direct_eigs,
                      eigen_scan, example_potential, lap_perturbed_sweep)
from .family import FAMILY_VERSION, FamilySpec, shell_stress_family, standard_family

__version__ = "0.15.0"

__all__ = [
    "Field", "GridSpec", "forward_transform", "inverse_transform",
    "nudft_forward", "sample",
    "DyadicShells", "LorentzExponents",
    "b_norm", "bstar_norm", "lorentz_norm", "lp_norm", "stein_tomas_exponent",
    "x_norm_upper", "xstar_norm",
    "CutoffSpec", "bessel_values", "chi_values", "free_resolvent",
    "BoundarySpec", "boundary_apply", "boundary_pairing", "decay_scan",
    "epsilon_limit_pairing", "graph_and_weight", "kernel_k_plus",
    "sphere_restriction_norm",
    "EigenvalueCounter", "Potential", "bs_solve", "direct_eigs", "eigen_scan",
    "example_potential", "lap_perturbed_sweep",
    "FAMILY_VERSION", "FamilySpec", "shell_stress_family", "standard_family",
]

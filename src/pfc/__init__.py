"""Variable-step BDF2 solver for the phase field crystal equation.

Submodules: grid (spectral operators), mesh (time meshes and ratio
conditions), kernels (BDF2/DOC kernel identities and certificates),
model (energy and chemical potential), steppers (BDF2/CN/CNCS),
adaptive (step-size controller), experiments (harnesses), cli.
"""

from .adaptive import AdaptiveConfig, adaptive_advance, adaptive_run, tau_ada
from .grid import Field, Grid2D, gradient, inner, laplacian, norms
from .kernels import bdf2_coeffs, eigen_bounds, verify_orthogonality, verify_telescope
from .mesh import TimeMesh, analyze, check_restriction, random_mesh, uniform_mesh
from .model import PfcParams, chemical_potential, energy, mass, modified_energy
from .steppers import StepperState, bdf2_step, cn_step, cncs_step, cs1_step

__all__ = [
    "AdaptiveConfig", "adaptive_advance", "adaptive_run", "tau_ada",
    "Field", "Grid2D", "gradient", "inner", "laplacian", "norms",
    "bdf2_coeffs", "eigen_bounds", "verify_orthogonality", "verify_telescope",
    "TimeMesh", "analyze", "check_restriction", "random_mesh", "uniform_mesh",
    "PfcParams", "chemical_potential", "energy", "mass", "modified_energy",
    "StepperState", "bdf2_step", "cn_step", "cncs_step", "cs1_step",
]

__version__ = "0.1.0"

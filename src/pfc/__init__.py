"""Variable-step BDF2 solver for the phase field crystal equation.

Submodules: grid (spectral operators), mesh (time meshes and ratio
conditions), kernels (BDF2/DOC kernel identities and certificates),
model (energy, mass and the manufactured forcing), steppers (BDF2/CN/CNCS),
adaptive (step-size controller), experiments (harnesses), cli.
"""

from .adaptive import adaptive_advance, adaptive_run, tau_ada
from .grid import Field, Grid2D
from .kernels import bdf2_coeffs, eigen_bounds, verify_orthogonality
from .mesh import TimeMesh, analyze, check_restriction, random_mesh, uniform_mesh
from .model import PfcParams, energy, mass
from .steppers import StepperState, bdf2_step, cn_step, cncs_step

__all__ = [
    "adaptive_advance", "adaptive_run", "tau_ada",
    "Field", "Grid2D",
    "bdf2_coeffs", "eigen_bounds", "verify_orthogonality",
    "TimeMesh", "analyze", "check_restriction", "random_mesh", "uniform_mesh",
    "PfcParams", "energy", "mass",
    "StepperState", "bdf2_step", "cn_step", "cncs_step",
]

__version__ = "0.1.0"

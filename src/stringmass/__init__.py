"""Spectral analysis and Fock-space diagnostics for a Klein-Gordon string
coupled to harmonically bound point masses at its ends."""

from .model import CalibratedMeasure, ModelParams, calibrate, calibrate_alpha, coupling_A
from .mufunc import (
    Basis,
    GridSpec,
    MuFunction,
    inner_modified,
    inner_mu,
    laplacian_mu,
    leibniz_residual,
    rn_derivative,
    robin_residual,
)
from .spectrum import (
    Mode,
    Spectrum,
    basis_mode,
    build_spectrum,
    find_negative_modes,
    find_positive_modes,
    secular_negative,
    secular_positive,
    zero_mode_defect,
)
from .dynamics import (
    CauchyData,
    ModeCoefficients,
    evolve_modes,
    fd_evolve,
    hamiltonian,
    hamiltonian_modes,
    project,
)
from .fock import (
    OneParticleVector,
    boundary_indicator_coefficients,
    factorization_diagnostic,
    inner_plus,
    inner_plus_data,
    positive_frequency,
    quantum_frequencies,
)

__version__ = "0.1.0"

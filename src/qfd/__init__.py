"""Non-unitary dynamics of a two-level particle moving above a lossy metal surface.

The package is organised in layers:

``qfd.numerics``
    Self-contained numerical kernel: exponential integrals E1 and Ei,
    adaptive Gauss-Kronrod quadrature, cumulative integration and
    bracketed root solving.
``qfd.model``
    Physical data model: material / particle / kinematics parameters,
    surface spectral density, resonance pole and the algebraic envelope
    functions that encode the dipole orientation.
``qfd.coefficients``
    Time-dependent master-equation coefficients D, f, zeta computed three
    ways (semi-analytic E1 kernel, small-velocity expansion, brute-force
    double quadrature), the decoherence kernel table with its stationary
    read-out (trace end plus tail remainder), and the Markov limits read
    off it.
``qfd.dynamics``
    Reduced density-matrix evolution, purity, coherences and asymptotic
    populations.
``qfd.decoherence``
    Decoherence-time extraction (numeric / analytic / Markov) on the
    table ``qfd.coefficients`` builds, quadratic velocity-ratio fits and
    parameter sweeps.
``qfd.cli``
    Deterministic command-line interface emitting CSV/JSON data files.

Each module imports only the modules listed before it; ``qfd.errors``
and ``qfd.g17`` are leaves any of them may import.
"""

from qfd.model import (
    MaterialParams,
    ParticleParams,
    KinematicsParams,
    OrientationWeights,
    preset,
    material_preset,
)
from qfd.coefficients import (
    CoefficientTrace,
    MarkovCoefficients,
    coefficients_e1,
    coefficients_brute,
    coefficients_analytic_small_u,
    markov_limit,
)
from qfd.dynamics import QubitState, EvolutionResult, evolve, asymptotic_population
from qfd.decoherence import (
    DecoherenceTimeResult,
    QuadraticFit,
    tau_d_numeric,
    tau_d_analytic,
    quadratic_ratio_fit,
)

__version__ = "0.1.0"

__all__ = [
    "MaterialParams",
    "ParticleParams",
    "KinematicsParams",
    "OrientationWeights",
    "preset",
    "material_preset",
    "CoefficientTrace",
    "MarkovCoefficients",
    "coefficients_e1",
    "coefficients_brute",
    "coefficients_analytic_small_u",
    "markov_limit",
    "QubitState",
    "EvolutionResult",
    "evolve",
    "asymptotic_population",
    "DecoherenceTimeResult",
    "QuadraticFit",
    "tau_d_numeric",
    "tau_d_analytic",
    "quadratic_ratio_fit",
]

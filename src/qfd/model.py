"""Physical data model.

Dimensionless conventions used throughout the package: times are measured
in units of 1/omega_s (t = omega_s * t_real), frequencies in units of
omega_s, velocities as u = v / (omega_s * a) and the coupling strength as
r0_tilde = r0 / omega_s with r0 = d^2 omega_p^2 / (hbar omega_s^2 a^3).
For a Drude metal the plasma frequency obeys omega_p^2 = 2 omega_s^2, so
r0 = 2 d^2 / (hbar a^3).

All value types are immutable and all operations are pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from qfd.errors import ConfigError, DomainError
from qfd.numerics import quartic_roots

SPEED_OF_LIGHT = 2.99792458e8  # m/s
HBAR = 1.054571817e-34  # J s

_UNIT_TOL = 1e-12


@dataclass(frozen=True)
class MaterialParams:
    """Drude-Lorentz surface: plasmon frequency and dimensionless damping."""

    omega_s: float  # surface-plasmon angular frequency, rad/s
    gamma_tilde: float  # dissipation rate Gamma / omega_s
    name: str = ""

    def __post_init__(self):
        # chained comparisons also refuse NaN and infinity
        if not 0 < self.omega_s < math.inf:
            raise ConfigError(f"omega_s must be finite and > 0, got {self.omega_s}")
        if not 0 < self.gamma_tilde < math.inf:
            raise ConfigError(f"gamma_tilde must be finite and > 0, got {self.gamma_tilde}")


@dataclass(frozen=True)
class ParticleParams:
    """Two-level system: level spacing, coupling strength, dipole direction."""

    delta_tilde: float  # level spacing Delta / omega_s
    r0_tilde: float  # coupling r0 / omega_s
    orientation: tuple[float, float, float] = (1.0, 0.0, 0.0)
    name: str = ""

    def __post_init__(self):
        if not 0 < self.delta_tilde < math.inf:
            raise ConfigError(f"delta_tilde must be finite and > 0, got {self.delta_tilde}")
        if not 0 <= self.r0_tilde < math.inf:
            raise ConfigError(f"r0_tilde must be finite and >= 0, got {self.r0_tilde}")
        n = self.orientation
        if len(n) != 3:
            raise ConfigError("orientation must have 3 components")
        norm2 = n[0] * n[0] + n[1] * n[1] + n[2] * n[2]
        if not abs(norm2 - 1.0) <= _UNIT_TOL:
            raise ConfigError(
                f"orientation must be a unit vector (|n|^2 - 1 = {norm2 - 1.0:.2e})"
            )

    def with_orientation(self, n: Iterable[float]) -> "ParticleParams":
        return replace(self, orientation=unit_orientation(n))


@dataclass(frozen=True)
class KinematicsParams:
    """Dimensionless velocity and (optional) dimensional surface distance."""

    u: float  # v / (omega_s a); sign is irrelevant, dynamics are even in u
    a_nm: float | None = None  # surface distance in nanometers, metadata only

    def __post_init__(self):
        if not math.isfinite(self.u):
            raise ConfigError(f"u must be finite, got {self.u}")
        if self.a_nm is not None and not 0 < self.a_nm < math.inf:
            raise ConfigError(f"a_nm must be finite and > 0, got {self.a_nm}")


@dataclass(frozen=True)
class OrientationWeights:
    """Isotropic / anisotropic dipole weights entering the coefficients."""

    d_i: float  # 1 + nz^2
    d_a: float  # 3 nx^2 + ny^2 + 4 nz^2

    def __post_init__(self):
        if not (1.0 - 1e-12 <= self.d_i <= 2.0 + 1e-12):
            raise DomainError(f"d_i out of range [1, 2]: {self.d_i}")
        if not (1.0 - 1e-12 <= self.d_a <= 4.0 + 1e-12):
            raise DomainError(f"d_a out of range [1, 4]: {self.d_a}")


@dataclass(frozen=True)
class PoleData:
    """Upper-half-plane resonance pole of the surface response."""

    omega_r: complex
    sqrt_factor: complex  # sqrt(4 - gamma_tilde^2); imaginary above gt = 2

    def __post_init__(self):
        w = self.omega_r
        if w.real < 0 or not w.imag > 0:
            raise DomainError(f"pole must satisfy Re >= 0, Im > 0: {w}")


def unit_orientation(n: Iterable[float]) -> tuple[float, float, float]:
    """Normalize a nonzero 3-vector to a unit dipole direction."""
    v = np.asarray(tuple(n), dtype=float)
    if v.shape != (3,):
        raise ConfigError("orientation must have 3 components")
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        raise ConfigError("orientation must be nonzero")
    v = v / norm
    return (float(v[0]), float(v[1]), float(v[2]))


def orientation_from_angles(theta: float, phi: float) -> tuple[float, float, float]:
    """Dipole direction (sin t cos p, sin t sin p, cos t) from polar/azimuth angles."""
    st = math.sin(theta)
    return (st * math.cos(phi), st * math.sin(phi), math.cos(theta))


def orientation_weights(n: Iterable[float]) -> OrientationWeights:
    nx, ny, nz = unit_orientation(n)
    return OrientationWeights(d_i=1.0 + nz * nz, d_a=3.0 * nx * nx + ny * ny + 4.0 * nz * nz)


def r0_tilde_from_dipole(d_cm: float, omega_s: float, a_nm: float) -> float:
    """Dimensionless coupling from dipole moment (C m), omega_s and distance.

    Uses the Drude relation omega_p^2 = 2 omega_s^2, so
    r0 = 2 d^2 / (hbar a^3) and r0_tilde = r0 / omega_s.
    """
    a = a_nm * 1e-9
    return 2.0 * d_cm * d_cm / (HBAR * a**3 * omega_s)


def validate_dimensional(
    mat: MaterialParams, part: ParticleParams, kin: KinematicsParams
) -> list[str]:
    """Sanity checks that need dimensional inputs; returns warning strings.

    Checks the non-relativistic assumption v << c and the near-field
    condition a Delta / c <= 0.1.  No-ops when a_nm is absent.
    """
    warnings: list[str] = []
    if kin.a_nm is None:
        return warnings
    a = kin.a_nm * 1e-9
    v = abs(kin.u) * mat.omega_s * a
    if v / SPEED_OF_LIGHT > 1e-2:
        warnings.append(
            f"velocity v = {v:.3e} m/s is not safely non-relativistic (v/c = {v / SPEED_OF_LIGHT:.2e})"
        )
    retardation = a * part.delta_tilde * mat.omega_s / SPEED_OF_LIGHT
    if retardation > 0.1:
        warnings.append(
            f"near-field condition violated: a*Delta/c = {retardation:.2e} > 0.1"
        )
    return warnings


# ---------------------------------------------------------------------------
# Spectral density and pole structure
# ---------------------------------------------------------------------------


def spectral_density(omega, gamma_tilde: float):
    """Surface response spectral density J(w) = gt*w / ((w^2-1)^2 + gt^2 w^2).

    Dimensionless frequencies (units of omega_s).  J(0) = 0, J >= 0, and
    the response peaks near w = 1 for weak damping.
    """
    if not gamma_tilde > 0:
        raise DomainError("gamma_tilde must be > 0")
    w = np.asarray(omega, dtype=float)
    if np.any(w < 0):
        raise DomainError("omega must be >= 0")
    val = gamma_tilde * w / ((w * w - 1.0) ** 2 + gamma_tilde**2 * w * w)
    return float(val) if np.isscalar(omega) else val


def _density_denominator(x: float, gamma_tilde: float) -> tuple[float, float, float]:
    """Denominator (x^2 - 1)^2 + gt^2 x^2 of J(x) = gt x / den and its
    first and second x-derivatives."""
    g2 = gamma_tilde * gamma_tilde
    den = (x * x - 1.0) ** 2 + g2 * x * x
    dden = 4.0 * x * (x * x - 1.0) + 2.0 * g2 * x
    d2den = 12.0 * x * x - 4.0 + 2.0 * g2
    return den, dden, d2den


def spectral_density_d2(delta_tilde: float, gamma_tilde: float) -> float:
    """Analytic second derivative of the spectral density at w = delta_tilde."""
    x = delta_tilde
    den, dden, d2den = _density_denominator(x, gamma_tilde)
    return gamma_tilde * (-x * d2den * den - 2.0 * dden * (den - x * dden)) / den**3


def pole_omega_r(gamma_tilde: float) -> PoleData:
    """Upper-half-plane root of (w^2 - 1)^2 + gt^2 w^2 = 0.

    For gt < 2 the pole sits on the unit circle,
    w_r = (sqrt(4 - gt^2) + i gt) / 2; for gt > 2 it is purely imaginary.
    The quartic residual stays below 1e-10 in either regime.
    """
    if not gamma_tilde > 0:
        raise DomainError("gamma_tilde must be > 0")
    gt = float(gamma_tilde)
    if gt < 2.0:
        s = math.sqrt(4.0 - gt * gt)
        w = complex(0.5 * s, 0.5 * gt)
        sqrt_factor: complex = complex(s, 0.0)
    else:
        s_im = math.sqrt(gt * gt - 4.0)
        # continuation of w^2 = (2 - gt^2 + i gt sqrt(4 - gt^2)) / 2 with
        # the principal square root of the now-negative radicand
        w2 = 0.5 * (2.0 - gt * gt - gt * s_im)
        w = complex(0.0, math.sqrt(-w2))
        sqrt_factor = complex(0.0, s_im)
    return PoleData(omega_r=w, sqrt_factor=sqrt_factor)


def pole_from_quartic(gamma_tilde: float) -> complex:
    """Same pole extracted from the companion-matrix quartic solve."""
    gt = float(gamma_tilde)
    roots = quartic_roots(1.0, 0.0, gt * gt - 2.0, 0.0, 1.0)
    # upper-half-plane roots with Re >= 0; pick the one matching the
    # closed-form continuation (largest |Im| for gt > 2)
    cand = [r for r in roots if r.imag > 0 and r.real >= -1e-12]
    if not cand:
        raise DomainError(f"no admissible pole at gamma_tilde = {gt}")
    if gt < 2.0:
        return max(cand, key=lambda r: r.real)
    return max(cand, key=lambda r: r.imag)


# ---------------------------------------------------------------------------
# Algebraic envelope functions of the moving dipole
# ---------------------------------------------------------------------------


def kernel_P(x, orientation) -> np.ndarray | float:
    """Static-plus-motion envelope P(x), x = u * t'.

    P(0) = d_i / 8 for every unit orientation and P decays like 1/x^3.
    """
    nx, ny, nz = orientation
    xx = np.asarray(x, dtype=float)
    q = 4.0 + xx * xx
    val = (
        2.0 * nx * nx * (2.0 - xx * xx) / q**2.5
        + ny * ny / q**1.5
        + nz * nz * (8.0 - xx * xx) / q**2.5
    )
    return float(val) if np.isscalar(x) else val


def kernel_Q(x, orientation) -> np.ndarray | float:
    """First-derivative envelope: dP/dx = -3 x Q(x)."""
    nx, ny, nz = orientation
    xx = np.asarray(x, dtype=float)
    q = 4.0 + xx * xx
    val = (
        2.0 * nx * nx * (6.0 - xx * xx) / q**3.5
        + ny * ny / q**2.5
        + nz * nz * (16.0 - xx * xx) / q**3.5
    )
    return float(val) if np.isscalar(x) else val


def kernel_R(x, orientation) -> np.ndarray | float:
    """Second-derivative envelope: d2P/dx2 = -12 R(x); R(0) = d_a / 128."""
    nx, ny, nz = orientation
    xx = np.asarray(x, dtype=float)
    x2 = xx * xx
    q = 4.0 + x2
    val = (
        2.0 * nx * nx * ((6.0 - x2) ** 2 - 30.0) / q**4.5
        + ny * ny * (1.0 - x2) / q**3.5
        + nz * nz * (16.0 - 27.0 * x2 + x2 * x2) / q**4.5
    )
    return float(val) if np.isscalar(x) else val


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

_MATERAL_TABLE = {
    "nsi": MaterialParams(omega_s=2.47e14, gamma_tilde=1.0, name="n-Si"),
    "au": MaterialParams(omega_s=9.7e15, gamma_tilde=0.003, name="Au"),
}

# Rb transition frequency anchored to the tabulated delta_tilde = 8 on n-Si;
# the same dimensional frequency rescaled by omega_s fixes Rb on gold.
_OMEGA_RB = 8.0 * _MATERAL_TABLE["nsi"].omega_s

_DELTA_TABLE = {
    ("nv", "nsi"): 0.2,
    ("nv", "au"): 0.9,
    ("rb", "nsi"): 8.0,
    ("rb", "au"): _OMEGA_RB / _MATERAL_TABLE["au"].omega_s,
}

DEFAULT_R0_TILDE = 1e-2
DEFAULT_ORIENTATION = (1.0, 0.0, 0.0)

PRESET_NAMES = ("nv-nsi", "nv-au", "rb-nsi", "rb-au")
MATERIAL_PRESET_NAMES = tuple(sorted(_MATERAL_TABLE))


def _normalize(name: str) -> str:
    return name.strip().lower().replace("_", "-").replace(" ", "-").replace("-on-", "-")


def material_preset(name: str) -> MaterialParams:
    """Material parameters for 'nSi' or 'Au'."""
    key = _normalize(name)
    if key not in _MATERAL_TABLE:
        raise ConfigError(
            f"unknown material preset {name!r}; valid: {', '.join(MATERIAL_PRESET_NAMES)}"
        )
    return _MATERAL_TABLE[key]


def preset(name: str) -> tuple[MaterialParams, ParticleParams]:
    """Tabulated (material, particle) pair, e.g. 'nv-nsi' or 'Rb-on-Au'.

    NV / n-Si -> delta_tilde 0.2; NV / Au -> 0.9; Rb / n-Si -> 8;
    Rb / Au -> the Rb frequency rescaled by the gold plasmon frequency.
    Coupling defaults to r0_tilde = 1e-2 with the dipole along x.
    """
    key = _normalize(name)
    parts = key.split("-")
    if len(parts) == 2 and (parts[0], parts[1]) in _DELTA_TABLE:
        particle, material = parts
        mat = _MATERAL_TABLE[material]
        part = ParticleParams(
            delta_tilde=_DELTA_TABLE[(particle, material)],
            r0_tilde=DEFAULT_R0_TILDE,
            orientation=DEFAULT_ORIENTATION,
            name=particle.upper() if particle == "nv" else particle.capitalize(),
        )
        return mat, part
    raise ConfigError(f"unknown preset {name!r}; valid: {', '.join(PRESET_NAMES)}")

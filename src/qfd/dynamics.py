"""Reduced density-matrix evolution under the secular master equation.

With the coefficient trace in hand the equation integrates in closed
form.  Writing rm = rho11 - rho22 and using the cumulative integrals
cumD, cumF of the trace:

    rm(t)    = e^{-4 cumD} rm(0) - 4 e^{-4 cumD} int_0^t zeta e^{4 cumD} dt'
    rho12(t) = rho12(0) e^{-2 cumD} e^{-i (Dt t + 2 cumF)}
    rho21(t) = conj(rho12(t))

so the trace is one exactly and hermiticity is structural.  The
decoherence function is the coherence envelope e^{-2 cumD}.

Documentation note, not asserted anywhere: the populations obey the same
equation with or without the secular approximation (dropping the
fast-oscillating terms only decouples the two off-diagonal elements),
so rho11 here is exact to second order in the coupling even though only
the secular equation is implemented.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from qfd.coefficients import (
    MARKOV_REL_TOL,
    CoefficientTrace,
    csv_table,
    markov_limit,
)
from qfd.errors import DomainError, PhysicsError
from qfd.model import KinematicsParams, MaterialParams, ParticleParams
from qfd.numerics import cumulative_integral

POSITIVITY_SLACK = 1e-9


@dataclass(frozen=True)
class QubitState:
    """Two-level reduced state: excited population and coherence."""

    rho11: float
    rho12: complex

    def __post_init__(self):
        if not -POSITIVITY_SLACK <= self.rho11 <= 1.0 + POSITIVITY_SLACK:
            raise PhysicsError(f"population out of [0, 1]: rho11 = {self.rho11}")
        bound = self.rho11 * (1.0 - self.rho11) + POSITIVITY_SLACK
        if not abs(self.rho12) ** 2 <= bound:  # NaN fails too
            raise PhysicsError(
                f"coherence violates positivity: |rho12|^2 = {abs(self.rho12) ** 2}"
                f" > rho11 rho22 + slack = {bound}"
            )

    @property
    def purity(self) -> float:
        r22 = 1.0 - self.rho11
        return self.rho11**2 + r22**2 + 2.0 * abs(self.rho12) ** 2


@dataclass(frozen=True)
class EvolutionResult:
    """Time-ordered evolution data on the trace grid."""

    t: np.ndarray
    rho11: np.ndarray
    rho12: np.ndarray  # complex; rho21 = conj(rho12) implicitly
    purity: np.ndarray
    xi: np.ndarray  # accumulated coherence phase
    decoherence_factor: np.ndarray  # e^{-2 cumD}
    delta_tilde: float

    @property
    def cycles(self) -> np.ndarray:
        return self.t * self.delta_tilde / (2.0 * np.pi)

    def csv_columns(self) -> dict[str, np.ndarray]:
        """CSV export columns: t, N_cycles, rho11, re_rho12, im_rho12,
        abs_rho12, purity, decoherence_factor, xi."""
        return {
            "t": self.t, "N_cycles": self.cycles, "rho11": self.rho11,
            "re_rho12": self.rho12.real, "im_rho12": self.rho12.imag,
            # hypot is abs of a Python complex to the bit; np.abs is not
            "abs_rho12": np.hypot(self.rho12.real, self.rho12.imag),
            "purity": self.purity, "decoherence_factor": self.decoherence_factor,
            "xi": self.xi,
        }

    def to_csv(self) -> str:
        """The CSV export as one string."""
        return csv_table(self.csv_columns())


def evolve(initial: QubitState, trace: CoefficientTrace) -> EvolutionResult:
    """Evolve the reduced state over the full span of a coefficient trace.

    The population sector integrates the dissipative drive against the
    accumulated diffusion in blocks that keep every exponential in range,
    so long horizons cannot overflow.  Positivity is checked on every
    sample and violations beyond the slack abort loudly.
    """
    dt = trace.delta_tilde
    g = trace.grid
    cum_d = trace.cumD

    # int zeta e^{4 cumD} dt' in blocks over which 4 cumD spans under 600
    # (e^710 overflows), each rebased at its first point; the point before a
    # block brings rm in with a nonpositive exponent, however large the step
    rm = np.empty_like(cum_d)
    rm[0] = 2.0 * initial.rho11 - 1.0
    block = np.floor(4.0 * cum_d / 600.0)
    bounds = [0, *(np.flatnonzero(np.diff(block)) + 1), g.size]
    for b, e in zip(bounds[:-1], bounds[1:]):
        lo = max(b - 1, 0)
        if e - lo < 2:
            continue  # a lone first point
        rel = 4.0 * (cum_d[lo:e] - cum_d[b])
        v = cumulative_integral(g[lo:e], trace.zeta[lo:e] * np.exp(rel))
        k = b - lo
        rm[b:e] = np.exp(-rel[k:]) * (np.exp(rel[0]) * rm[lo] - 4.0 * v[k:])

    rho11 = 0.5 * (1.0 + rm)
    # both checks read as QubitState's `not lo <= x <= hi`, which NaN fails
    if not np.all((-POSITIVITY_SLACK <= rho11) & (rho11 <= 1.0 + POSITIVITY_SLACK)):
        worst = float(rho11[np.argmax(np.abs(rho11 - 0.5))])
        raise PhysicsError(f"population left [0, 1] beyond slack: rho11 = {worst}")
    rho11 = np.clip(rho11, 0.0, 1.0)

    envelope = np.exp(-2.0 * cum_d)
    xi = dt * g + 2.0 * trace.cumF
    rho12 = initial.rho12 * envelope * np.exp(-1j * xi)

    bound = rho11 * (1.0 - rho11) + POSITIVITY_SLACK
    if not np.all(np.abs(rho12) ** 2 <= bound):
        i = int(np.argmax(np.abs(rho12) ** 2 - bound))
        raise PhysicsError(
            f"coherence positivity broke at t = {g[i]}: |rho12|^2 = "
            f"{abs(rho12[i]) ** 2}, rho11 rho22 = {rho11[i] * (1 - rho11[i])}"
        )

    purity = rho11**2 + (1.0 - rho11) ** 2 + 2.0 * np.abs(rho12) ** 2
    return EvolutionResult(
        t=g,
        rho11=rho11,
        rho12=rho12,
        purity=purity,
        xi=xi,
        decoherence_factor=envelope,
        delta_tilde=dt,
    )


def asymptotic_population(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
) -> float:
    """Stationary excited-state population rho11(inf) = (1 - zeta/D)/2.

    Built from the exact stationary coefficients, which it reads off
    markov_limit, and clipped into [0, 1/2].  There is no sharp
    excitation threshold: the population follows the activation law
    rho11 ~ A exp(-2 delta_tilde / u) with A of order one (the Fourier
    decay of the image-dipole envelope kernel_P), so the nominal
    threshold u = delta_tilde / 2 marks a crossover at the ~2 % level.
    Populations below MARKOV_REL_TOL, which bounds the error of
    1 - zeta/D on those constants, are residue and read 0.  A D_inf of
    0 (zero coupling) or below leaves none to read: DomainError naming
    r0_tilde and u.
    """
    mk = markov_limit(mat, part, kin)
    if not mk.D_inf > 0.0:
        raise DomainError(f"diffusion coefficient is not positive at the horizon (D = "
                          f"{mk.D_inf:.3e}) at u = {kin.u}, r0_tilde = {part.r0_tilde}: no "
                          f"stationary population to read; raise r0_tilde or lower u")
    rm_inf = -mk.zeta_inf / mk.D_inf
    rho11 = float(np.clip(0.5 * (1.0 + rm_inf), 0.0, 0.5))
    return rho11 if rho11 >= MARKOV_REL_TOL else 0.0

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

from qfd.coefficients import MARKOV_REL_TOL, CoefficientTrace, MarkovCoefficients, markov_limit
from qfd.errors import GridError, PhysicsError
from qfd.model import KinematicsParams, MaterialParams, ParticleParams
from qfd.numerics import cumulative_integral

POSITIVITY_SLACK = 1e-9


@dataclass(frozen=True)
class QubitState:
    """Two-level reduced state: excited population and coherence at time t."""

    rho11: float
    rho12: complex
    t: float = 0.0

    def __post_init__(self):
        if not -POSITIVITY_SLACK <= self.rho11 <= 1.0 + POSITIVITY_SLACK:
            raise PhysicsError(f"population out of [0, 1]: rho11 = {self.rho11}")
        bound = self.rho11 * (1.0 - self.rho11) + POSITIVITY_SLACK
        if abs(self.rho12) ** 2 > bound:
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

    def to_csv(self) -> str:
        """CSV export: t, N_cycles, rho11, re_rho12, im_rho12, abs_rho12,
        purity, decoherence_factor, xi."""
        line = ",".join(["%.17g"] * 9) + "\n"
        columns = (self.t, self.cycles, self.rho11, self.rho12, self.purity,
                   self.decoherence_factor, self.xi)
        # abs of a Python complex: np.abs differs in the last bit on some rows
        rows = [
            line % (t, n, r11, c.real, c.imag, abs(c), p, df, xi)
            for t, n, r11, c, p, df, xi in zip(*(x.tolist() for x in columns))
        ]
        header = "t,N_cycles,rho11,re_rho12,im_rho12,abs_rho12,purity,decoherence_factor,xi\n"
        return header + "".join(rows)


def evolve(
    initial: QubitState,
    trace: CoefficientTrace,
    delta_tilde: float | None = None,
) -> EvolutionResult:
    """Evolve the reduced state over the full span of a coefficient trace.

    The population sector integrates the dissipative drive against the
    accumulated diffusion in blocks that keep every exponential in range,
    so long horizons cannot overflow.  Positivity is checked on every
    sample and violations beyond the slack abort loudly.
    """
    dt = trace.delta_tilde if delta_tilde is None else float(delta_tilde)
    if delta_tilde is not None and abs(dt - trace.delta_tilde) > 1e-12:
        raise GridError(
            f"delta_tilde {dt} does not match the trace ({trace.delta_tilde})"
        )
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
    if np.any(rho11 < -POSITIVITY_SLACK) or np.any(rho11 > 1.0 + POSITIVITY_SLACK):
        worst = float(rho11[np.argmax(np.abs(rho11 - 0.5))])
        raise PhysicsError(f"population left [0, 1] beyond slack: rho11 = {worst}")
    rho11 = np.clip(rho11, 0.0, 1.0)

    envelope = np.exp(-2.0 * cum_d)
    xi = dt * g + 2.0 * trace.cumF
    rho12 = initial.rho12 * envelope * np.exp(-1j * xi)

    bound = rho11 * (1.0 - rho11) + POSITIVITY_SLACK
    if np.any(np.abs(rho12) ** 2 > bound):
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
    markov: MarkovCoefficients | None = None,
) -> float:
    """Stationary excited-state population rho11(inf) = (1 - zeta/D)/2.

    Built from the exact stationary coefficients and clipped into
    [0, 1/2].  There is no sharp excitation threshold: the population
    follows the activation law rho11 ~ A exp(-2 delta_tilde / u) with
    A of order one (the Fourier decay of the image-dipole envelope
    kernel_P), so the nominal threshold u = delta_tilde / 2 marks a
    crossover at the ~2 % level.  Populations below MARKOV_REL_TOL,
    which bounds the error of 1 - zeta/D on the stationary constants
    of markov_limit, are residue and read 0.
    """
    mk = markov if markov is not None else markov_limit(mat, part, kin)
    rm_inf = -mk.zeta_inf / mk.D_inf
    rho11 = float(np.clip(0.5 * (1.0 + rm_inf), 0.0, 0.5))
    return rho11 if rho11 >= MARKOV_REL_TOL else 0.0


def coherence_difference(
    trace_u: CoefficientTrace,
    trace_0: CoefficientTrace,
    initial_rho12: complex = 0.5,
) -> np.ndarray:
    """Signed coherence gap |rho12(t; u)| - |rho12(t; 0)| on a shared grid.

    Negative while motion accelerates the coherence decay; the magnitude
    peaks at a finite time and dies off as both coherences vanish.
    """
    if trace_u.grid.shape != trace_0.grid.shape or np.any(trace_u.grid != trace_0.grid):
        raise GridError("coherence difference requires identical grids")
    amp = abs(initial_rho12)
    return amp * (np.exp(-2.0 * trace_u.cumD) - np.exp(-2.0 * trace_0.cumD))

"""Decoherence timescale extraction and parameter sweeps.

The coherence envelope is Dfun(t) = e^{-2 int_0^t D}, so the decoherence
time is the root of cumD(tau) = 1 (envelope down to e^-2).  Three routes:

* numeric  - exact crossing of the piecewise-linear accumulated
  diffusion of a reference trace, extended linearly once the kernels
  have died out, with the tail-corrected slope D_inf;
* analytic - closed small-velocity formula built from the stationary
  response h = J(delta) (spectral_response) and g below;
* markov   - plain 1 / D_inf, the numeric route's read-out (markov_limit).

The numeric and Markov routes build the particle's decoherence table at
their pts_per_cycle and read its stationary read-out, D alone, from
qfd.coefficients (decoherence_table, _stationary_readout); a sweep
reads all its points at one level spacing in one pass.

Sweeps over velocity, dipole angles, material/particle combinations and
level spacing emit flat result rows ready for CSV export.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace
from itertools import groupby
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from qfd.coefficients import (
    DEFAULT_PTS_PER_CYCLE,
    _pole_pair,
    _stationary_readout,
    _warn_past_small_u,
    csv_table,
    decoherence_table,
)
from qfd.errors import BracketError, ConfigError, DomainError, PhysicsError
from qfd.model import (
    KinematicsParams,
    MaterialParams,
    ParticleParams,
    kernel_P,  # noqa: F401  bench/test_bench.py checks that tracing reaches it here
    orientation_from_angles,
    orientation_weights,
    pole_omega_r,
    preset,
    spectral_response,
)

TWO_PI = 2.0 * math.pi

RESONANCE_EXCLUSION_BAND = 0.1

# velocity pairing for cross-material comparisons: comparable physical
# speeds give u = 3e-3 above n-Si and u = 1.5e-4 above gold
DEFAULT_COMBO_VELOCITY = {"nsi": 3e-3, "au": 1.5e-4}

# relative rms residual above which a quadratic velocity fit is flagged
FIT_RESIDUAL_THRESHOLD = 1e-3


@dataclass(frozen=True)
class DecoherenceTimeResult:
    """Decoherence time with its extraction method."""

    tau_d: float
    method: str

    def __post_init__(self):
        if not self.tau_d > 0:
            raise PhysicsError(f"decoherence time must be positive, got {self.tau_d}")


@dataclass(frozen=True)
class QuadraticFit:
    """Least-squares fit tau(u) = a - b u^2 over a velocity sample."""

    a_coef: float
    b_coef: float
    b_over_a: float
    fit_residual: float  # relative rms residual of the fit
    residual_warning: bool = False


# ---------------------------------------------------------------------------
# Numeric route
# ---------------------------------------------------------------------------


def tau_d_numeric(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    pts_per_cycle: int = DEFAULT_PTS_PER_CYCLE,
) -> DecoherenceTimeResult:
    """Decoherence time: the exact root of cumD = 1 (_stationary_readout
    on the particle's decoherence_table at pts_per_cycle): cumD, the
    trapezoid integral of D alone, is linear between grid points and
    past the trace's end, so the root is closed-form.
    """
    return next(_tau_results(mat, [(part, kin)], "numeric", pts_per_cycle))


# ---------------------------------------------------------------------------
# Analytic low-velocity route
# ---------------------------------------------------------------------------


def _g_funcs(delta: float, gt: float) -> tuple[float, float]:
    """Logarithmic response g and its second delta-derivative.

    g = Re[(1 + (2i/pi) Log(w_r/delta)) ((w_r+delta)^-2 + (w_r-delta)^-2)]
    with the principal branch; w_r sits in the upper half plane so the
    argument never crosses the cut for delta > 0.
    """
    w = pole_omega_r(gt)
    a = 1.0 + (2j / math.pi) * (np.log(w) - math.log(delta))
    da = -(2j / math.pi) / delta
    d2a = (2j / math.pi) / (delta * delta)
    bp = (w + delta) ** -2
    bm = (w - delta) ** -2
    b = bp + bm
    db = -2.0 * (w + delta) ** -3 + 2.0 * (w - delta) ** -3
    d2b = 6.0 * (w + delta) ** -4 + 6.0 * (w - delta) ** -4
    g = (a * b).real
    d2g = (d2a * b + 2.0 * da * db + a * d2b).real
    return g, d2g


def _finite_time_terms(delta: float, gt: float) -> tuple[float, float]:
    """Rest constant c = -g/(s4 h) + 2/(pi delta) of the analytic
    finite-time correction and its u^2 bracket c'' + 2 c' h'/h (delta
    derivatives): D is linear in P(x) = d_i/8 - (3/64) d_a x^2 + O(x^4), so
    the u^2 part of tau = (1 + int (D_inf - D))/D_inf is (3/8)(d_a/d_i) u^2
    times the bracket."""
    _, s4 = _pole_pair(gt)
    h, h2, hod2 = spectral_response(delta, gt)
    g, g2 = _g_funcs(delta, gt)
    return (-g / (s4 * h) + 2.0 / (math.pi * delta),
            (g * h2 / h**2 - g2 / h) / s4 + (2.0 / (math.pi * h)) * (hod2 - h2 / delta))


def tau_d_analytic(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
) -> DecoherenceTimeResult:
    """Closed low-velocity decoherence time.

    Markov term (32 / r0t d_i)(1/h - (3/8)(d_a/d_i) u^2 h''/h^2) plus the
    finite-time correction of _finite_time_terms.  Level spacings inside
    the resonance exclusion band (where the expansion blows up),
    gamma_tilde >= 2 (_pole_pair) and a velocity at which the expansion
    gives no positive time are refused; zero coupling raises a
    DomainError.  Warns past |u| = SMALL_U_LIMIT, as the trace's
    small-velocity route does.
    """
    delta = part.delta_tilde
    gt = mat.gamma_tilde
    if abs(delta - 1.0) < RESONANCE_EXCLUSION_BAND:
        raise ConfigError(
            f"the analytic route requires delta_tilde outside the near-resonance "
            f"band |delta_tilde - 1| < {RESONANCE_EXCLUSION_BAND} (got {delta}); "
            f"the numeric and markov methods run there"
        )
    if part.r0_tilde == 0.0:
        raise DomainError("no decoherence at zero coupling r0_tilde = 0: tau_D is infinite")
    _warn_past_small_u(kin.u)
    const, bracket = _finite_time_terms(delta, gt)
    wts = orientation_weights(part.orientation)
    di, da = wts.d_i, wts.d_a
    u2 = kin.u * kin.u
    h, h2, _ = spectral_response(delta, gt)

    tau_mark = 32.0 / (part.r0_tilde * di) * (1.0 / h - 0.375 * (da / di) * u2 * h2 / h**2)
    tau = tau_mark + const + 0.375 * (da / di) * u2 * bracket
    if not tau > 0.0:
        raise ConfigError(
            f"the analytic route gives tau_d = {tau:.6g} at u = {kin.u}, outside the "
            f"small-velocity expansion; the numeric and markov methods run there"
        )
    return DecoherenceTimeResult(tau, "analytic")


def tau_d(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    method: str = "numeric",
    pts_per_cycle: int = DEFAULT_PTS_PER_CYCLE,
) -> DecoherenceTimeResult:
    """Dispatch to one of the extraction routes by name; pts_per_cycle
    sets the numeric and Markov grid, the analytic route has none."""
    if method == "numeric":
        return tau_d_numeric(mat, part, kin, pts_per_cycle)
    return next(_tau_results(mat, [(part, kin)], method, pts_per_cycle))


def _tau_results(
    mat: MaterialParams, points: Sequence[tuple[ParticleParams, KinematicsParams]],
    method: str, pts_per_cycle: int,
) -> Iterator[DecoherenceTimeResult]:
    """tau_d of (part, kin) points at one level spacing, in order, each
    that of its own tau_d call: the numeric and Markov routes read all
    of them off one pass over one decoherence_table (_stationary_readout)."""
    if method == "analytic":
        yield from (tau_d_analytic(mat, part, kin) for part, kin in points)
        return
    if method not in ("numeric", "markov"):
        raise DomainError(f"unknown decoherence-time method {method!r}")
    table = decoherence_table(mat, points[0][0].delta_tilde, pts_per_cycle)
    for (part, kin), (d_inf, _, cum_d, tau) in zip(points, _stationary_readout(points, table)):
        if method == "markov":
            tau = 1.0 / d_inf if d_inf > 0.0 else math.nan
        if math.isnan(tau):
            raise (BracketError if method == "numeric" else DomainError)(
                f"diffusion coefficient is not positive at the horizon (D = {d_inf:.3e}, "
                f"cumD = {cum_d:.6g}) at u = {kin.u}, r0_tilde = {part.r0_tilde}: no "
                f"decoherence time to read; raise r0_tilde or lower u"
            )
        yield DecoherenceTimeResult(tau, method)


# ---------------------------------------------------------------------------
# Sweeps and velocity fits
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    """One sweep sample in the flat CSV layout."""

    sweep_param: str
    value: float
    tau_d: float
    tau_d_u0: float
    rate: float
    method: str
    material: str
    particle: str
    theta: float
    phi: float
    u: float
    delta_tilde: float
    gamma_tilde: float
    flag: str = ""


def sweep_columns(rows: Sequence[SweepRow]) -> dict[str, list]:
    """Sweep rows as CSV columns, one per SweepRow field in field order."""
    return {f.name: [getattr(r, f.name) for r in rows] for f in fields(SweepRow)}


def sweep_rows_to_csv(rows: Sequence[SweepRow]) -> str:
    """Sweep rows as CSV text."""
    return csv_table(sweep_columns(rows))


def angles_of(orientation: tuple[float, float, float]) -> tuple[float, float]:
    """Polar angle theta in [0, pi] and azimuth phi in [0, 2 pi) of a unit
    dipole direction (phi = 0 on the z axis)."""
    nx, ny, nz = orientation
    theta = math.acos(max(-1.0, min(1.0, nz)))
    phi = math.atan2(ny, nx) % TWO_PI if (nx, ny) != (0.0, 0.0) else 0.0
    return theta, phi


class _SweepPoint(NamedTuple):
    """One sweep sample: the swept axis and the value its row reports,
    the particle and kinematics to evaluate, and the row's dipole angles."""

    param: str
    value: float
    part: ParticleParams
    kin: KinematicsParams
    theta: float
    phi: float


def _sweep(
    mat: MaterialParams, points: Sequence[_SweepPoint], method: str,
    pts_per_cycle: int, rate_mode: bool,
) -> list[SweepRow]:
    """Rows for sweep points on one material, in point order.

    Each run of points at one level spacing is read in one pass
    (_tau_results) over its own table at pts_per_cycle, built after the
    previous one is dropped, so each row is tdec's.  In rate mode a row
    carries the rate tau_d / tau_d_u0 - 1 and the u = 0 reference, one
    per (r0_tilde, d_i) in the run as P = d_i / 8 at rest, read in the
    same pass; otherwise tau_d_u0 repeats tau_d and the rate is 0.
    """
    rows = []
    for _, run in groupby(points, lambda pt: pt.part.delta_tilde):
        evals, refs, at = [], {}, []
        for pt in run:
            key = (pt.part.r0_tilde, orientation_weights(pt.part.orientation).d_i)
            if rate_mode and key not in refs:
                refs[key] = len(evals)
                evals.append((pt.part, KinematicsParams(u=0.0)))
            at.append((pt, len(evals), refs[key] if rate_mode else len(evals)))
            evals.append((pt.part, pt.kin))
        taus = [r.tau_d for r in _tau_results(mat, evals, method, pts_per_cycle)]
        for pt, i, i0 in at:
            td, tau0 = taus[i], taus[i0]
            rows.append(
                SweepRow(
                    sweep_param=pt.param,
                    value=pt.value,
                    tau_d=td,
                    tau_d_u0=tau0,
                    rate=td / tau0 - 1.0 if rate_mode else 0.0,
                    method=method,
                    material=mat.name,
                    particle=pt.part.name,
                    theta=pt.theta,
                    phi=pt.phi,
                    u=pt.kin.u,
                    delta_tilde=pt.part.delta_tilde,
                    gamma_tilde=mat.gamma_tilde,
                )
            )
    return rows


def sweep_velocity(
    mat: MaterialParams,
    part: ParticleParams,
    velocities: Sequence[float],
    method: str = "numeric",
    pts_per_cycle: int = DEFAULT_PTS_PER_CYCLE,
) -> list[SweepRow]:
    """tau_D and the normalized rate across a velocity grid."""
    theta, phi = angles_of(part.orientation)
    points = [
        _SweepPoint("u", u, part, KinematicsParams(u=u), theta, phi)
        for u in velocities
    ]
    return _sweep(mat, points, method, pts_per_cycle, rate_mode=True)


def sweep_polarization(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    theta_grid: Sequence[float],
    phi_grid: Sequence[float],
    method: str = "numeric",
    rate_mode: bool = False,
    pts_per_cycle: int = DEFAULT_PTS_PER_CYCLE,
) -> list[SweepRow]:
    """tau_D (or the velocity rate) over a dipole-direction grid.

    theta in [0, pi], phi in [0, 2 pi); rows iterate theta-major.  The
    sweep columns name theta when the grid varies theta alone, and phi
    otherwise.
    """
    thetas = list(theta_grid)
    phis = list(phi_grid)
    if any(not 0.0 <= th <= math.pi for th in thetas):
        raise ConfigError("theta grid must lie in [0, pi]")
    if any(not 0.0 <= ph < TWO_PI for ph in phis):
        raise ConfigError("phi grid must lie in [0, 2 pi)")
    by_theta = len(thetas) > 1 and len(phis) == 1
    points = [
        _SweepPoint(
            "theta" if by_theta else "phi",
            th if by_theta else ph,
            part.with_orientation(orientation_from_angles(th, ph)),
            kin,
            th,
            ph,
        )
        for th in thetas
        for ph in phis
    ]
    return _sweep(mat, points, method, pts_per_cycle, rate_mode)


def sweep_material_particle(
    combos: Sequence[str],
    theta_grid: Sequence[float],
    phi_grid: Sequence[float],
    method: str = "numeric",
    pts_per_cycle: int = DEFAULT_PTS_PER_CYCLE,
) -> list[SweepRow]:
    """Velocity-rate curves over angles for preset material/particle pairs.

    Velocities follow the cross-material pairing u = 3e-3 (n-Si) and
    u = 1.5e-4 (Au) so the combinations are compared at comparable
    physical speeds.
    """
    out: list[SweepRow] = []
    for combo in combos:
        mat, part = preset(combo)
        key = "au" if "au" in combo.lower() else "nsi"
        u = DEFAULT_COMBO_VELOCITY[key]
        out += sweep_polarization(
            mat, part, KinematicsParams(u=u), theta_grid, phi_grid, method, rate_mode=True,
            pts_per_cycle=pts_per_cycle,
        )
    return out


def sweep_level_spacing(
    mat: MaterialParams,
    part_template: ParticleParams,
    kin: KinematicsParams,
    delta_grid: Sequence[float],
    method: str = "numeric",
    pts_per_cycle: int = DEFAULT_PTS_PER_CYCLE,
) -> list[SweepRow]:
    """Normalized rate tau(u)/tau(0) across level spacings.

    Each row equals tdec at its own level spacing; the analytic route
    refuses level spacings in the resonance exclusion band
    (tau_d_analytic).  Interior extrema of the ratio curve are flagged
    in the output (strict local min/max against both neighbours).
    """
    theta, phi = angles_of(part_template.orientation)
    points = [
        _SweepPoint("delta", d, replace(part_template, delta_tilde=d), kin, theta, phi)
        for d in delta_grid
    ]
    rows = _sweep(mat, points, method, pts_per_cycle, rate_mode=True)
    ratios = [r.tau_d / r.tau_d_u0 for r in rows]

    for i in range(1, len(rows) - 1):
        left, mid, right = ratios[i - 1 : i + 2]
        if (mid > left and mid > right) or (mid < left and mid < right):
            rows[i] = replace(rows[i], flag="extremum")
    return rows


def quadratic_ratio_fit(
    mat: MaterialParams,
    part: ParticleParams,
    velocities: Sequence[float],
    method: str = "numeric",
    pts_per_cycle: int = DEFAULT_PTS_PER_CYCLE,
) -> tuple[QuadraticFit, list[SweepRow]]:
    """Least-squares fit tau(u) = a - b u^2 over a velocity sweep
    (sweep_velocity at pts_per_cycle), returned with the sweep's rows.

    Requires >= 4 velocities, all below |u| = delta_tilde / 2, where the
    stationary excited population (activation law
    exp(-2 delta_tilde / u), see asymptotic_population) is still under
    its ~2 % crossover; they are checked before any tau_d is computed.
    """
    us = np.asarray(list(velocities), dtype=float)
    if len(us) < 4:
        raise ConfigError(f"a fit needs >= 4 velocities (--points >= 4), got {len(us)}")
    if np.any(np.abs(us) >= part.delta_tilde / 2.0):
        raise ConfigError(f"u sweeps feeding fits need |u| < delta_tilde/2 = "
                          f"{part.delta_tilde / 2.0:.17g}")
    rows = sweep_velocity(mat, part, us, method, pts_per_cycle)
    taus = np.array([r.tau_d for r in rows])
    design = np.vstack([np.ones_like(us), -(us**2)]).T
    coef, *_ = np.linalg.lstsq(design, taus, rcond=None)
    a_fit, b_fit = float(coef[0]), float(coef[1])
    resid = taus - design @ coef
    rel_rms = float(np.sqrt(np.mean(resid**2)) / np.mean(np.abs(taus)))
    return QuadraticFit(
        a_coef=a_fit,
        b_coef=b_fit,
        b_over_a=b_fit / a_fit,
        fit_residual=rel_rms,
        residual_warning=rel_rms > FIT_RESIDUAL_THRESHOLD,
    ), rows

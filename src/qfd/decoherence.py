"""Decoherence timescale extraction and parameter sweeps.

The coherence envelope is Dfun(t) = e^{-2 int_0^t D}, so the decoherence
time is the root of cumD(tau) = 1 (envelope down to e^-2).  Three routes:

* numeric  - exact crossing of the piecewise-linear accumulated
  diffusion of a reference trace, extended linearly once the kernels
  have died out, with the tail-corrected slope D_inf;
* analytic - closed small-velocity formula built from the stationary
  response functions h and g below;
* markov   - plain 1 / D_inf, read off the same trace (markov_limit).

Sweeps over velocity, dipole angles, material/particle combinations and
level spacing emit flat result rows ready for CSV export.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from qfd.coefficients import (
    CoefficientTrace,
    KernelTable,
    coefficients_from_table,
    kernel_decay_time,
    make_kernel_table,
    markov_limit,
    time_grid,
)
from qfd.errors import BracketError, DomainError, PhysicsError
from qfd.model import (
    KinematicsParams,
    MaterialParams,
    ParticleParams,
    _density_denominator,
    kernel_P,
    kernel_Q,
    kernel_R,
    orientation_from_angles,
    orientation_weights,
    pole_omega_r,
    preset,
    spectral_density,
    spectral_density_d2,
)

TWO_PI = 2.0 * math.pi

RESONANCE_EXCLUSION_BAND = 0.1

# velocity pairing for cross-material comparisons: comparable physical
# speeds give u = 3e-3 above n-Si and u = 1.5e-4 above gold
DEFAULT_COMBO_VELOCITY = {"nsi": 3e-3, "au": 1.5e-4}


@dataclass(frozen=True)
class DecoherenceTimeResult:
    """Decoherence time with its extraction method and input snapshot."""

    tau_d: float
    method: str
    params_snapshot: tuple[MaterialParams, ParticleParams, KinematicsParams]

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


# beyond the pole decay the cosine kernel still carries a -gt/t^2 tail;
# the window below plus the analytic slope correction in
# cumulative_diffusion keeps its influence under ~1e-8 on cumD
_TAIL_WINDOW = 1000.0


def decoherence_window(delta_tilde: float, gamma_tilde: float) -> float:
    """Trace horizon (dimensionless time) after which every coefficient
    is constant (up to the corrected algebraic tail) and the accumulated
    diffusion continues linearly."""
    cycle = TWO_PI / delta_tilde
    return max(kernel_decay_time(gamma_tilde) + 2.0 * cycle, 3.0 * cycle, _TAIL_WINDOW)


def _tail_slope_correction(
    mat: MaterialParams, part: ParticleParams, kin: KinematicsParams, t_end: float
) -> float:
    """Analytic remainder D_inf - D(t_end) of the kernel's 1/t^2 tail.

    Three integration-by-parts orders of
        int_T^inf cos(dt s) g(s) ds * r0t/(2 pi),  g = -gt P(u s)/s^2;
    the residual scales like 1/(dt^4 T^5) and is negligible past the
    decoherence window.
    """
    gt = mat.gamma_tilde
    dt = part.delta_tilde
    u = abs(kin.u)
    x = u * t_end
    p = kernel_P(x, part.orientation)
    dp = -3.0 * x * kernel_Q(x, part.orientation)  # dP/dx
    d2p = -12.0 * kernel_R(x, part.orientation)  # d2P/dx2
    term1 = p * math.sin(dt * t_end) / (dt * t_end * t_end)
    term2 = (u * dp * t_end - 2.0 * p) * math.cos(dt * t_end) / (dt * dt * t_end**3)
    d2g = u * u * d2p * t_end**2 - 4.0 * u * dp * t_end + 6.0 * p  # -(s^4/gt) g''
    term3 = -d2g * math.sin(dt * t_end) / (dt**3 * t_end**4)
    return part.r0_tilde * gt / TWO_PI * (term1 + term2 + term3)


def _graded_start(grid: np.ndarray) -> np.ndarray:
    """The grid graded toward t = 0, where Kc carries a t^2 log t term
    (Davis & Rabinowitz, Methods of Numerical Integration, 2.12): 4x the
    density up to t = 1, and 12 geometric points h 0.3^k below its first
    point h."""
    k = int(np.searchsorted(grid, 1.0, side="right")) - 1
    head = np.interp(np.arange(4 * k + 1) / 4, np.arange(k + 1), grid[: k + 1])
    geometric = head[1] * 0.3 ** np.arange(12, 0, -1)
    return np.concatenate([[0.0], geometric, head[1:], grid[k + 1 :]])


def decoherence_table(
    mat: MaterialParams,
    delta_tilde: float,
    pts_per_cycle: int = 400,
    horizon_cycles: float | None = None,
) -> KernelTable:
    """Kernel table on the decoherence-extraction grid, time_grid over
    the decoherence window graded toward t = 0.

    Building it once and sharing it across velocities, orientations and
    (shorter-window) level spacings avoids recomputing the kernels,
    which dominate the cost.
    """
    cycle = TWO_PI / delta_tilde
    window = decoherence_window(delta_tilde, mat.gamma_tilde)
    if horizon_cycles is not None:
        window = min(window, horizon_cycles * cycle)
    grid = time_grid(delta_tilde, mat.gamma_tilde, window / cycle, pts_per_cycle)
    return make_kernel_table(mat.gamma_tilde, _graded_start(grid))


def _trace_and_tail_slope(
    mat: MaterialParams, part: ParticleParams, kin: KinematicsParams,
    pts_per_cycle: int, horizon_cycles: float | None, table: KernelTable | None,
) -> tuple[CoefficientTrace, float]:
    """Reference trace plus the tail-corrected slope of cumD past its end.

    An explicit horizon_cycles cap that cuts the window short raises
    once the cap proves insufficient.
    """
    if table is None:
        table = decoherence_table(mat, part.delta_tilde, pts_per_cycle, horizon_cycles)
    trace = coefficients_from_table(table, part, kin)
    t_end = float(trace.grid[-1])
    c_end = float(trace.cumD[-1])
    capped = t_end < decoherence_window(part.delta_tilde, mat.gamma_tilde) * (1 - 1e-12)
    if capped and c_end < 1.0:
        raise PhysicsError(
            f"trace horizon cap reached before the envelope crossed e^-2 "
            f"(cumD = {c_end:.6g} at t = {t_end:.6g})"
        )
    return trace, float(trace.D[-1]) + _tail_slope_correction(mat, part, kin, t_end)


def cumulative_diffusion(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    pts_per_cycle: int = 400,
    horizon_cycles: float | None = None,
    table: KernelTable | None = None,
) -> tuple[CoefficientTrace, Callable[[float], float]]:
    """Reference trace plus a cumD(t) evaluator valid for all t >= 0.

    The trace spans the kernel-decay window (all coefficients are
    constant beyond it), and the evaluator continues cumD linearly with
    the tail-corrected slope.  An explicit horizon_cycles cap that cuts
    the window short raises once the cap proves insufficient.
    """
    trace, d_end = _trace_and_tail_slope(mat, part, kin, pts_per_cycle, horizon_cycles, table)
    t_end = float(trace.grid[-1])
    c_end = float(trace.cumD[-1])

    def cum_d(t: float) -> float:
        if t <= t_end:
            return float(np.interp(t, trace.grid, trace.cumD))
        return c_end + d_end * (t - t_end)

    return trace, cum_d


def tau_d_numeric(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    pts_per_cycle: int = 400,
    horizon_cycles: float | None = None,
    table: KernelTable | None = None,
) -> DecoherenceTimeResult:
    """Decoherence time: the exact root of cumD = 1.

    cumD (as in :func:`cumulative_diffusion`) is linear between grid
    points and past the trace's end, so the root is closed-form on the
    segment ``searchsorted`` finds or on the tail-corrected continuation.
    """
    trace, d_end = _trace_and_tail_slope(mat, part, kin, pts_per_cycle, horizon_cycles, table)
    g, c = trace.grid, trace.cumD
    if c[-1] >= 1.0:
        i = int(np.searchsorted(c, 1.0))
        tau = g[i - 1] + (1.0 - c[i - 1]) * (g[i] - g[i - 1]) / (c[i] - c[i - 1])
    elif d_end > 0.0:
        tau = g[-1] + (1.0 - c[-1]) / d_end
    else:
        raise BracketError(
            f"diffusion coefficient is not positive at the horizon "
            f"(D = {d_end:.3e}, cumD = {c[-1]:.6g}); cumD never reaches 1"
        )
    return DecoherenceTimeResult(float(tau), "numeric", (mat, part, kin))


def tau_d_markov(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    table: KernelTable | None = None,
) -> DecoherenceTimeResult:
    """Markov estimate tau = 1 / D_inf with the exact stationary constant."""
    mk = markov_limit(mat, part, kin, table)
    return DecoherenceTimeResult(
        tau_d=1.0 / mk.D_inf, method="markov", params_snapshot=(mat, part, kin)
    )


# ---------------------------------------------------------------------------
# Analytic low-velocity route
# ---------------------------------------------------------------------------


def _h_funcs(delta: float, gt: float) -> tuple[float, float, float]:
    """Stationary response h = J(delta), its second delta-derivative and
    the second derivative of h/delta."""
    h = spectral_density(delta, gt)
    h2 = spectral_density_d2(delta, gt)
    den, dden, d2den = _density_denominator(delta, gt)
    h_over_delta_2 = gt * (2.0 * dden * dden - den * d2den) / den**3
    return h, h2, h_over_delta_2


def _g_funcs(delta: float, gt: float) -> tuple[float, float]:
    """Logarithmic response g and its second delta-derivative.

    g = Re[(1 + (2i/pi) Log(w_r/delta)) ((w_r+delta)^-2 + (w_r-delta)^-2)]
    with the principal branch; w_r sits in the upper half plane so the
    argument never crosses the cut for delta > 0.
    """
    w = pole_omega_r(gt).omega_r
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


def tau_d_analytic(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    exclusion_band: float = RESONANCE_EXCLUSION_BAND,
) -> DecoherenceTimeResult:
    """Closed low-velocity decoherence time.

    Markov term (32 / r0t d_i)(1/h - (3/8)(d_a/d_i) u^2 h''/h^2) plus the
    velocity-independent finite-time correction -g/(s4 h) + 2/(pi delta)
    and the corresponding u^2 bracket.  Level spacings inside the
    resonance exclusion band are refused (the expansion blows up there).
    """
    delta = part.delta_tilde
    gt = mat.gamma_tilde
    if abs(delta - 1.0) < exclusion_band:
        raise DomainError(
            f"delta_tilde = {delta} falls in the prohibited near-resonance "
            f"band |delta - 1| < {exclusion_band}"
        )
    if gt >= 2.0:
        raise DomainError("analytic route requires gamma_tilde < 2")
    wts = orientation_weights(part.orientation)
    di, da = wts.d_i, wts.d_a
    u2 = kin.u * kin.u
    s4 = math.sqrt(4.0 - gt * gt)
    h, h2, hod2 = _h_funcs(delta, gt)
    g, g2 = _g_funcs(delta, gt)

    tau_mark = 32.0 / (part.r0_tilde * di) * (1.0 / h - 0.375 * (da / di) * u2 * h2 / h**2)
    const = -g / (s4 * h) + 2.0 / (math.pi * delta)
    bracket = (g * h2 / h**2 - g2 / h) + (2.0 / (math.pi * h)) * (hod2 - h2 / delta)
    tau = tau_mark + const + 0.375 * (da / di) * u2 * bracket
    return DecoherenceTimeResult(tau_d=tau, method="analytic", params_snapshot=(mat, part, kin))


def tau_d(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    method: str = "numeric",
    table: KernelTable | None = None,
    **kwargs,
) -> DecoherenceTimeResult:
    """Dispatch to one of the extraction routes by name."""
    if method == "numeric":
        return tau_d_numeric(mat, part, kin, table=table, **kwargs)
    if method == "analytic":
        return tau_d_analytic(mat, part, kin, **kwargs)
    if method == "markov":
        return tau_d_markov(mat, part, kin, table=table)
    raise DomainError(f"unknown decoherence-time method {method!r}")


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


SWEEP_CSV_HEADER = (
    "sweep_param,value,tau_d,tau_d_u0,rate,method,material,particle,"
    "theta,phi,u,delta_tilde,gamma_tilde,flag"
)


def sweep_rows_to_csv(rows: Iterable[SweepRow]) -> str:
    buf = io.StringIO()
    buf.write(SWEEP_CSV_HEADER + "\n")
    for r in rows:
        buf.write(
            f"{r.sweep_param},{r.value:.17g},{r.tau_d:.17g},{r.tau_d_u0:.17g},"
            f"{r.rate:.17g},{r.method},{r.material},{r.particle},"
            f"{r.theta:.17g},{r.phi:.17g},{r.u:.17g},{r.delta_tilde:.17g},"
            f"{r.gamma_tilde:.17g},{r.flag}\n"
        )
    return buf.getvalue()


def _angles_of(orientation: tuple[float, float, float]) -> tuple[float, float]:
    nx, ny, nz = orientation
    theta = math.acos(max(-1.0, min(1.0, nz)))
    phi = math.atan2(ny, nx) % TWO_PI if (nx, ny) != (0.0, 0.0) else 0.0
    return theta, phi


class _SweepPoint(NamedTuple):
    """One sweep sample: the swept axis and the value its row reports,
    the particle and kinematics to evaluate, and the row's dipole angles.
    An excluded point is reported but never evaluated."""

    param: str
    value: float
    part: ParticleParams
    kin: KinematicsParams
    theta: float
    phi: float
    excluded: bool = False


def _sweep(
    mat: MaterialParams, points: Sequence[_SweepPoint], method: str, rate_mode: bool
) -> list[SweepRow]:
    """Rows for sweep points on one material, in point order.

    A numeric or Markov sweep evaluates every point on one kernel
    table, built for the smallest level spacing, whose window is the
    longest.  In rate mode a row carries the u = 0 reference of its
    particle (evaluated once per distinct particle) and the rate
    tau_d / tau_d_u0 - 1;
    otherwise tau_d_u0 repeats tau_d and the rate is 0.  Excluded points
    get NaN entries and the flag 'excluded'.
    """
    deltas = [pt.part.delta_tilde for pt in points if not pt.excluded]
    table = None
    if deltas and method in ("numeric", "markov"):
        table = decoherence_table(mat, min(deltas))

    def tau(part: ParticleParams, kin: KinematicsParams) -> float:
        return tau_d(mat, part, kin, method=method, table=table).tau_d

    refs: dict[tuple[ParticleParams, KinematicsParams], float] = {}
    rows = []
    for pt in points:
        if pt.excluded:
            td = tau0 = rate = math.nan
        elif rate_mode:
            rest = KinematicsParams(u=0.0, a_nm=pt.kin.a_nm)
            if (pt.part, rest) not in refs:
                refs[pt.part, rest] = tau(pt.part, rest)
            tau0 = refs[pt.part, rest]
            td = tau(pt.part, pt.kin)
            rate = td / tau0 - 1.0
        else:
            td = tau0 = tau(pt.part, pt.kin)
            rate = 0.0
        rows.append(
            SweepRow(
                sweep_param=pt.param,
                value=pt.value,
                tau_d=td,
                tau_d_u0=tau0,
                rate=rate,
                method=method,
                material=mat.name,
                particle=pt.part.name,
                theta=pt.theta,
                phi=pt.phi,
                u=pt.kin.u,
                delta_tilde=pt.part.delta_tilde,
                gamma_tilde=mat.gamma_tilde,
                flag="excluded" if pt.excluded else "",
            )
        )
    return rows


def sweep_velocity(
    mat: MaterialParams,
    part: ParticleParams,
    velocities: Sequence[float],
    method: str = "numeric",
    a_nm: float | None = None,
) -> list[SweepRow]:
    """tau_D and the normalized rate across a velocity grid."""
    theta, phi = _angles_of(part.orientation)
    points = [
        _SweepPoint("u", u, part, KinematicsParams(u=u, a_nm=a_nm), theta, phi)
        for u in velocities
    ]
    return _sweep(mat, points, method, rate_mode=True)


def sweep_polarization(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    theta_grid: Sequence[float],
    phi_grid: Sequence[float],
    method: str = "numeric",
    rate_mode: bool = False,
) -> list[SweepRow]:
    """tau_D (or the velocity rate) over a dipole-direction grid.

    theta in [0, pi], phi in [0, 2 pi); rows iterate theta-major.  The
    sweep columns name theta when the grid varies theta alone, and phi
    otherwise.
    """
    thetas = list(theta_grid)
    phis = list(phi_grid)
    if any(not 0.0 <= th <= math.pi for th in thetas):
        raise DomainError("theta grid must lie in [0, pi]")
    if any(not 0.0 <= ph < TWO_PI for ph in phis):
        raise DomainError("phi grid must lie in [0, 2 pi)")
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
    return _sweep(mat, points, method, rate_mode)


def sweep_material_particle(
    combos: Sequence[str],
    theta_grid: Sequence[float],
    phi_grid: Sequence[float],
    velocities: dict[str, float] | None = None,
    method: str = "numeric",
) -> list[SweepRow]:
    """Velocity-rate curves over angles for preset material/particle pairs.

    Velocities default to the cross-material pairing u = 3e-3 (n-Si) and
    u = 1.5e-4 (Au) so the combinations are compared at comparable
    physical speeds.
    """
    out: list[SweepRow] = []
    for combo in combos:
        mat, part = preset(combo)
        key = "au" if "au" in combo.lower() else "nsi"
        u = (velocities or DEFAULT_COMBO_VELOCITY)[key]
        out += sweep_polarization(
            mat, part, KinematicsParams(u=u), theta_grid, phi_grid, method, rate_mode=True
        )
    return out


def sweep_level_spacing(
    mat: MaterialParams,
    part_template: ParticleParams,
    kin: KinematicsParams,
    delta_grid: Sequence[float],
    method: str = "numeric",
    exclusion_band: float = RESONANCE_EXCLUSION_BAND,
) -> list[SweepRow]:
    """Normalized rate tau(u)/tau(0) across level spacings.

    Grid points inside the resonance exclusion band are skipped with a
    flag; interior extrema of the ratio curve are flagged in the output
    (strict local min/max against both neighbours).
    """
    theta, phi = _angles_of(part_template.orientation)
    points = [
        _SweepPoint(
            "delta",
            d,
            replace(part_template, delta_tilde=d),
            kin,
            theta,
            phi,
            excluded=abs(d - 1.0) < exclusion_band,
        )
        for d in delta_grid
    ]
    rows = _sweep(mat, points, method, rate_mode=True)
    ratios = [None if r.flag else r.tau_d / r.tau_d_u0 for r in rows]

    flagged = []
    for i, row in enumerate(rows):
        if 0 < i < len(rows) - 1 and None not in (ratios[i - 1], ratios[i], ratios[i + 1]):
            left, mid, right = ratios[i - 1], ratios[i], ratios[i + 1]
            if (mid > left and mid > right) or (mid < left and mid < right):
                row = replace(row, flag="extremum")
        flagged.append(row)
    return flagged


def _check_fit_velocities(us: np.ndarray, delta_tilde: float) -> None:
    if us.size < 4:
        raise DomainError("need at least 4 velocities for the quadratic fit")
    if np.any(np.abs(us) >= delta_tilde / 2.0):
        raise DomainError("fit velocities must stay below the threshold delta/2")


def quadratic_fit_rows(
    rows: Sequence[SweepRow], residual_threshold: float = 1e-3
) -> QuadraticFit:
    """Fit tau(u) = a - b u^2 to the rows of one velocity sweep.

    Requires >= 4 rows, all below u = delta_tilde / 2, where the
    stationary excited population (activation law
    exp(-2 delta_tilde / u), see asymptotic_population) is still under
    its ~2 % crossover.
    """
    us = np.array([r.u for r in rows], dtype=float)
    _check_fit_velocities(us, rows[0].delta_tilde if rows else math.inf)
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
        residual_warning=rel_rms > residual_threshold,
    )


def quadratic_ratio_fit(
    mat: MaterialParams,
    part: ParticleParams,
    velocities: Sequence[float],
    method: str = "numeric",
    a_nm: float | None = None,
    residual_threshold: float = 1e-3,
) -> tuple[QuadraticFit, np.ndarray]:
    """Fit tau(u) = a - b u^2 over the velocity sample (quadratic_fit_rows).

    Returns the fit and the rate curve tau/tau_0 - 1 on the same
    velocities.  The velocities are checked before any tau_d is computed.
    """
    us = np.asarray(list(velocities), dtype=float)
    _check_fit_velocities(us, part.delta_tilde)
    rows = sweep_velocity(mat, part, us, method=method, a_nm=a_nm)
    return quadratic_fit_rows(rows, residual_threshold), np.array([r.rate for r in rows])

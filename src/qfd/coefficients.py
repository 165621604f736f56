"""Master-equation coefficients D(v,t), f(v,t), zeta(v,t).

The raw definitions are double integrals over delay time t' and field
frequency w of the surface spectral density J(w) times trigonometric
factors and the algebraic envelope P(u t'):

    D(t)    = (r0t / 2 pi) int_0^t dt' cos(Dt t') Kc(t') P(u t')
    f(t)    = (r0t / 2 pi) int_0^t dt' sin(Dt t') Kc(t') P(u t')
    zeta(t) = (r0t / 2 pi) int_0^t dt' sin(Dt t') Ks(t') P(u t')

with the frequency integrals folded into the kernels

    Kc(t') = int_0^inf J(w) cos(w t') dw
    Ks(t') = int_0^inf J(w) sin(w t') dw.

Three independent evaluation routes are provided:

* ``coefficients_e1``     - reference path; kernels in closed form built
  from the resonance pole and exponential integrals, the t' integral by
  high-order panel quadrature on the caller's grid.
* ``coefficients_brute``  - validation oracle; direct nested adaptive
  quadrature of the raw double integrals (cost grows quadratically,
  meant for coarse grids).
* ``coefficients_analytic_small_u`` - stationary-phase expansion to
  second order in the velocity, including the exponential-integral
  correction that keeps it accurate for damping of order one.

``markov_limit`` evaluates the t -> inf constants the same coefficients
relax to.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from qfd.errors import DomainError, GridError
from qfd.model import (
    KinematicsParams,
    MaterialParams,
    ParticleParams,
    kernel_P,
    kernel_Q,
    kernel_R,
    orientation_weights,
    pole_omega_r,
    spectral_density,
    spectral_density_d2,
)
from qfd.numerics import (
    cumulative_integral,
    exp_integral_e1,
    exp_integral_e1_scaled,
    integrate_adaptive,
)

TWO_PI = 2.0 * math.pi

# envelope of both kernels decays like exp(-gamma_tilde t / 2); beyond
# this many e-foldings the integrands are numerically dead
_KERNEL_DECAY_EFOLDS = 55.0

# horizon needed to push the cosine kernel's algebraic 1/t^2 remainder
# below ~1e-6 relative in stationary integrals
_ALGEBRAIC_TAIL_HORIZON = 3000.0

# 4-point Gauss-Legendre rule on [-1, 1]; degree-7 exactness makes the
# panel integration error negligible against every tolerance used here
_GL4_X = np.array(
    [-0.8611363115940526, -0.3399810435848563, 0.3399810435848563, 0.8611363115940526]
)
_GL4_W = np.array(
    [0.3478548451374538, 0.6521451548625461, 0.6521451548625461, 0.3478548451374538]
)


# ---------------------------------------------------------------------------
# Frequency kernels
# ---------------------------------------------------------------------------


def _pole_pair(gamma_tilde: float) -> tuple[complex, float]:
    if not 0.0 < gamma_tilde < 2.0:
        raise DomainError(
            "closed-form kernels require 0 < gamma_tilde < 2 "
            f"(got {gamma_tilde}); use the quadrature path instead"
        )
    p = pole_omega_r(gamma_tilde)
    return p.omega_r, float(p.sqrt_factor.real)


def kernel_cos_zero(gamma_tilde: float, omega_max: float = 200.0) -> float:
    """Limiting kernel value Kc(0) = int_0^inf J(w) dw by quadrature.

    The integral is truncated at max(omega_max, 200) and completed with
    the analytic 1/w^3 tail estimate of the spectral density.
    """
    m = max(float(omega_max), 200.0)
    res = integrate_adaptive(
        lambda w: spectral_density(w, gamma_tilde), 0.0, m, rel_tol=1e-12, abs_tol=1e-14
    )
    gt = gamma_tilde
    tail = 0.5 * gt / (m * m) * (1.0 + (2.0 - gt * gt) / (2.0 * m * m))
    return res.value + tail


def omega_kernel_cos(t_prime, gamma_tilde: float):
    """Cosine transform of the spectral density, Kc(t').

    Closed form for 0 < gamma_tilde < 2: with the upper-half-plane pole
    w_r and s4 = sqrt(4 - gamma_tilde^2),

        Kc(t) = [pi Re e^{i w_r t} + Im G(i w_r t) + Im G(-i w_r t)] / s4,

    where G(z) = e^z E1(z).  Even in t'.  The t' = 0 entry is filled with
    the quadrature limit of int J dw.  For gamma_tilde >= 2 the transform
    falls back to direct quadrature (the pole pair degenerates).
    """
    scalar = np.isscalar(t_prime)
    t = np.abs(np.atleast_1d(np.asarray(t_prime, dtype=float)))
    if gamma_tilde >= 2.0:
        out = _kernel_quadrature(t, gamma_tilde, kind="cos")
        return float(out[0]) if scalar else out
    w, s4 = _pole_pair(gamma_tilde)
    out = np.empty_like(t)
    zero = t == 0.0
    if np.any(zero):
        out[zero] = kernel_cos_zero(gamma_tilde)
    tp = t[~zero]
    if tp.size:
        z = 1j * w * tp
        g_plus = exp_integral_e1_scaled(z)
        g_minus = exp_integral_e1_scaled(-z)
        out[~zero] = (
            math.pi * np.exp(1j * w * tp).real + g_plus.imag + g_minus.imag
        ) / s4
    return float(out[0]) if scalar else out


def omega_kernel_sin(t_prime, gamma_tilde: float):
    """Sine transform of the spectral density, Ks(t').

    The odd extension of J is analytic, so the transform is a pure
    residue term with no exponential-integral remainder:

        Ks(t) = pi Im e^{i w_r t} / sqrt(4 - gamma_tilde^2),  t >= 0,

    extended to negative arguments as an odd function.
    """
    scalar = np.isscalar(t_prime)
    t = np.atleast_1d(np.asarray(t_prime, dtype=float))
    sign = np.sign(t)
    ta = np.abs(t)
    if gamma_tilde >= 2.0:
        out = sign * _kernel_quadrature(ta, gamma_tilde, kind="sin")
        return float(out[0]) if scalar else out
    w, s4 = _pole_pair(gamma_tilde)
    out = sign * math.pi * np.exp(1j * w * ta).imag / s4
    return float(out[0]) if scalar else out


def _tail_cos(omega_max: float, t: float, gamma_tilde: float) -> float:
    """Truncation tail int_M^inf J(w) cos(w t) dw, uniform in t.

    Expands J = gt/w^3 + gt(2-gt^2)/w^5 + O(1/w^7) and integrates both
    terms exactly through Re E1(i M t) = -Ci(M t); the residual is
    O(gt/M^6).
    """
    gt = gamma_tilde
    m = omega_max
    c2 = 2.0 - gt * gt
    if t == 0.0:
        return gt * (0.5 / (m * m) + 0.25 * c2 / m**4)
    mt = m * t
    cmt, smt = math.cos(mt), math.sin(mt)
    e1 = exp_integral_e1(1j * mt)
    t3 = cmt / (2 * m * m) - 0.5 * t * (smt / m + t * e1.real)
    t5 = cmt / (4 * m**4) - t * smt / (12 * m**3) - (t * t / 12.0) * t3
    return gt * (t3 + c2 * t5)


def _tail_sin(omega_max: float, t: float, gamma_tilde: float) -> float:
    """Truncation tail int_M^inf J(w) sin(w t) dw, uniform in t.

    Same two-term expansion as the cosine tail, built on
    Im E1(i M t) = Si(M t) - pi/2.
    """
    gt = gamma_tilde
    m = omega_max
    c2 = 2.0 - gt * gt
    if t == 0.0:
        return 0.0
    mt = m * t
    cmt, smt = math.cos(mt), math.sin(mt)
    e1 = exp_integral_e1(1j * mt)
    t3 = smt / (2 * m * m) + 0.5 * t * (cmt / m + t * e1.imag)
    t5 = smt / (4 * m**4) + t * cmt / (12 * m**3) - (t * t / 12.0) * t3
    return gt * (t3 + c2 * t5)


def _kernel_quadrature(
    t: np.ndarray, gamma_tilde: float, kind: str, omega_max: float = 200.0
) -> np.ndarray:
    """Kernel samples by direct frequency quadrature (gamma_tilde >= 2)."""
    return np.array(
        [_frequency_kernel(ti, gamma_tilde, kind, omega_max, 1e-11, 1e-13) for ti in t.flat]
    ).reshape(t.shape)


def _frequency_kernel(
    t: float,
    gamma_tilde: float,
    kind: str,
    omega_max: float,
    rel_tol: float,
    abs_tol: float,
    max_subdivisions: int = 4096,
) -> float:
    """int_0^inf J(w) trig(w t) dw at one delay t, trig = cos or sin by kind.

    Adaptive quadrature up to omega_max on panels split at the resonance
    breakpoints, plus the analytic tail of the truncated 1/w^3 falloff.
    """
    gt = gamma_tilde
    if t == 0.0:
        return kernel_cos_zero(gt, omega_max) if kind == "cos" else 0.0
    trig, tail = (np.cos, _tail_cos) if kind == "cos" else (np.sin, _tail_sin)
    breaks = _resonance_breakpoints(gt, omega_max)
    total = 0.0
    for a, b in zip(breaks[:-1], breaks[1:]):
        total += integrate_adaptive(
            lambda w: spectral_density(w, gt) * trig(w * t),
            a,
            b,
            rel_tol=rel_tol,
            abs_tol=abs_tol,
            max_subdivisions=max_subdivisions,
        ).value
    return total + tail(omega_max, t, gt)


def _resonance_breakpoints(gamma_tilde: float, omega_max: float) -> list[float]:
    """Panel seeds bracketing the w = 1 response peak for small damping."""
    half_width = min(40.0 * gamma_tilde, 0.5)
    pts = [0.0, 1.0 - half_width, 1.0 + half_width, omega_max]
    return sorted(p for p in pts if 0.0 <= p <= omega_max)


# ---------------------------------------------------------------------------
# Trace container and time grids
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientTrace:
    """Sampled coefficients with their cumulative integrals on one grid."""

    grid: np.ndarray
    D: np.ndarray
    f: np.ndarray
    zeta: np.ndarray
    cumD: np.ndarray
    cumF: np.ndarray
    method: str
    delta_tilde: float

    def __post_init__(self):
        n = self.grid.shape
        for arr in (self.D, self.f, self.zeta, self.cumD, self.cumF):
            if arr.shape != n:
                raise GridError("all trace arrays must share the grid length")
        if self.grid[0] != 0.0:
            raise GridError("trace grid must start at t = 0")
        if self.D[0] != 0.0 or self.f[0] != 0.0 or self.zeta[0] != 0.0:
            raise GridError("coefficients must vanish at t = 0")

    @property
    def cycles(self) -> np.ndarray:
        """Grid in natural cycles N = t / (2 pi / delta_tilde)."""
        return self.grid * self.delta_tilde / TWO_PI

    def to_csv(self) -> str:
        """CSV export: columns t, N_cycles, D, f, zeta, cumD, cumF, method."""
        line = ",".join(["%.17g"] * 7) + ",%s\n"
        columns = (self.grid, self.cycles, self.D, self.f, self.zeta, self.cumD, self.cumF)
        rows = [line % (*row, self.method) for row in zip(*(x.tolist() for x in columns))]
        return "t,N_cycles,D,f,zeta,cumD,cumF,method\n" + "".join(rows)


def kernel_decay_time(gamma_tilde: float) -> float:
    """Time beyond which both kernels are numerically negligible."""
    return 2.0 * _KERNEL_DECAY_EFOLDS / gamma_tilde


def time_grid(
    delta_tilde: float,
    gamma_tilde: float,
    n_cycles: float,
    pts_per_cycle: int = 400,
) -> np.ndarray:
    """Hybrid simulation grid over n_cycles natural cycles.

    Dense sampling (pts_per_cycle per cycle, capped at spacing 0.1 so the
    order-one kernel oscillations stay resolved) while the kernels are
    alive, then sparse sampling where every coefficient has become
    constant and only slow exponentials remain.
    """
    if n_cycles <= 0 or pts_per_cycle < 8:
        raise GridError("need n_cycles > 0 and pts_per_cycle >= 8")
    cycle = TWO_PI / delta_tilde
    t_end = n_cycles * cycle
    h_dense = min(cycle / pts_per_cycle, 0.1)
    t_dense_end = min(t_end, kernel_decay_time(gamma_tilde) + 2.0 * cycle)
    n_dense = int(math.ceil(t_dense_end / h_dense))
    dense = np.linspace(0.0, t_dense_end, n_dense + 1)
    if t_dense_end >= t_end:
        return dense
    h_sparse = cycle / 16.0
    n_sparse = int(math.ceil((t_end - t_dense_end) / h_sparse))
    sparse = np.linspace(t_dense_end, t_end, n_sparse + 1)[1:]
    return np.concatenate([dense, sparse])


def _check_grid(grid: np.ndarray) -> np.ndarray:
    g = np.asarray(grid, dtype=float)
    if g.ndim != 1 or g.size < 2:
        raise GridError("grid must be 1-D with at least 2 points")
    if g[0] != 0.0:
        raise GridError("grid must start at 0")
    if np.any(np.diff(g) <= 0):
        raise GridError("grid must be strictly increasing")
    return g


# ---------------------------------------------------------------------------
# Reference path: closed-form kernels + panel quadrature in t'
# ---------------------------------------------------------------------------


_MAX_SUBPANEL_WIDTH = 0.5


def _panel_nodes(grid: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """GL4 nodes/weights for every grid panel, internally refined.

    Panels wider than _MAX_SUBPANEL_WIDTH are split so the degree-7 rule
    stays far beyond any caller tolerance even on coarse oracle grids.
    Returns (nodes, weights, reduce_offsets) where reduce_offsets maps
    flattened node blocks back onto grid panels.
    """
    a = grid[:-1]
    b = grid[1:]
    counts = np.maximum(1, np.ceil((b - a) / _MAX_SUBPANEL_WIDTH).astype(int))
    first = np.concatenate([[0], np.cumsum(counts)[:-1]])
    j = np.arange(first[-1] + counts[-1]) - np.repeat(first, counts)
    # np.linspace(a, b, k + 1) arithmetic, edge j = j * ((b - a) / k) + a,
    # so the edges are bit-identical to a per-panel linspace; a panel's
    # last edge is the next panel's first, a exactly, and the grid's end
    sa = j * np.repeat((b - a) / counts, counts) + np.repeat(a, counts)
    sb = np.concatenate([sa[1:], grid[-1:]])
    mid = 0.5 * (sa + sb)
    half = 0.5 * (sb - sa)
    nodes = (mid[:, None] + half[:, None] * _GL4_X[None, :]).ravel()
    wts = (half[:, None] * _GL4_W[None, :]).ravel()
    return nodes, wts, first * 4


@dataclass(frozen=True)
class KernelTable:
    """Kernel samples on a grid's quadrature nodes, reusable across
    velocities, level spacings and dipole orientations (the kernels
    depend only on the damping)."""

    grid: np.ndarray
    gamma_tilde: float
    nodes: np.ndarray
    weights: np.ndarray
    offsets: np.ndarray
    kc: np.ndarray
    ks: np.ndarray


def make_kernel_table(gamma_tilde: float, grid) -> KernelTable:
    """Evaluate both closed-form kernels on the panel nodes of a grid."""
    g = _check_grid(grid)
    nodes, wts, offsets = _panel_nodes(g)
    return KernelTable(
        grid=g,
        gamma_tilde=gamma_tilde,
        nodes=nodes,
        weights=wts,
        offsets=offsets,
        kc=omega_kernel_cos(nodes, gamma_tilde),
        ks=omega_kernel_sin(nodes, gamma_tilde),
    )


def coefficients_from_table(
    table: KernelTable, part: ParticleParams, kin: KinematicsParams
) -> CoefficientTrace:
    """Coefficient trace from precomputed kernel samples."""
    g = table.grid
    dt = part.delta_tilde
    pref = part.r0_tilde / TWO_PI
    nodes = table.nodes
    pv = kernel_P(abs(kin.u) * nodes, part.orientation)
    cosn = np.cos(dt * nodes)
    sinn = np.sin(dt * nodes)

    def prefix(values: np.ndarray) -> np.ndarray:
        panel = np.add.reduceat(values * table.weights, table.offsets)
        out = np.empty(g.size)
        out[0] = 0.0
        np.cumsum(panel, out=out[1:])
        return pref * out

    D = prefix(cosn * table.kc * pv)
    f = prefix(sinn * table.kc * pv)
    zeta = prefix(sinn * table.ks * pv)
    return CoefficientTrace(
        grid=g,
        D=D,
        f=f,
        zeta=zeta,
        cumD=cumulative_integral(g, D),
        cumF=cumulative_integral(g, f),
        method="e1",
        delta_tilde=dt,
    )


def coefficients_e1(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    grid,
) -> CoefficientTrace:
    """Reference coefficient trace on the given grid (must start at 0).

    The frequency integral is always the closed kernel form, never
    numeric; the delay integral uses degree-7 panel quadrature between
    grid points, so the sampled values are quadrature-accurate on any
    reasonable grid.
    """
    return coefficients_from_table(
        make_kernel_table(mat.gamma_tilde, grid), part, kin
    )


# ---------------------------------------------------------------------------
# Brute-force oracle: nested adaptive quadrature of the raw integrals
# ---------------------------------------------------------------------------


def _delay_integrand(part: ParticleParams, kin: KinematicsParams, trig, kernel):
    """t' -> trig(Dt t') K(t') P(u t'), the delay integrand of the
    coefficient integrals for a frequency kernel K, on scalars or arrays."""
    dt = part.delta_tilde
    u = abs(kin.u)
    return lambda tp: trig(dt * tp) * kernel(tp) * kernel_P(u * tp, part.orientation)


def coefficients_brute(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    grid,
    omega_max: float = 50.0,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
) -> CoefficientTrace:
    """Validation oracle evaluating the raw double integrals numerically.

    The frequency integral is truncated at omega_max and completed with
    the analytic tail of the 1/w^3 falloff; the delay integral is
    adaptive per grid panel at (rel_tol, abs_tol).  Cost is quadratic in
    the horizon - use coarse grids.
    """
    g = _check_grid(grid)
    pref = part.r0_tilde / TWO_PI
    # the inner frequency quadrature must sit well below the outer
    # tolerance, otherwise its residual jitter looks like roughness to
    # the outer rule
    inner = dict(
        gamma_tilde=mat.gamma_tilde,
        omega_max=float(omega_max),
        rel_tol=1e-4 * rel_tol,
        abs_tol=1e-4 * abs_tol,
        max_subdivisions=65536,
    )
    # D and f share the cosine kernel: one frequency quadrature per node
    kc = functools.cache(functools.partial(_frequency_kernel, kind="cos", **inner))
    ks = functools.partial(_frequency_kernel, kind="sin", **inner)

    arrays = {}
    routes = (("D", math.cos, kc), ("f", math.sin, kc), ("zeta", math.sin, ks))
    for which, trig, kernel in routes:
        # node by node: every kernel value is its own frequency quadrature
        fn = np.vectorize(_delay_integrand(part, kin, trig, kernel), otypes=[float])
        vals = np.empty(g.size)
        vals[0] = 0.0
        acc = 0.0
        for i in range(1, g.size):
            res = integrate_adaptive(
                fn,
                g[i - 1],
                g[i],
                rel_tol=rel_tol,
                abs_tol=abs_tol,
                max_subdivisions=16384,
            )
            acc += res.value
            vals[i] = acc
        arrays[which] = pref * vals

    return CoefficientTrace(
        grid=g,
        D=arrays["D"],
        f=arrays["f"],
        zeta=arrays["zeta"],
        cumD=cumulative_integral(g, arrays["D"]),
        cumF=cumulative_integral(g, arrays["f"]),
        method="brute",
        delta_tilde=part.delta_tilde,
    )


# ---------------------------------------------------------------------------
# Small-velocity analytic expansion
# ---------------------------------------------------------------------------

SMALL_U_LIMIT = 0.05


def _ibp_terms(kappa: complex, t: np.ndarray, part, u: float):
    """Endpoint expansion of int_0^t exp(i kappa t') P(u t') dt' to O(u^2).

    Uses the exact envelope identities dP/dx = -3 x Q and d2P/dx2 = -12 R,
    so the truncation error is O(u^4).
    """
    n = part.orientation
    wts = orientation_weights(n)
    x = u * t
    E = np.exp(1j * kappa * t)
    p = kernel_P(x, n)
    q = kernel_Q(x, n)
    r = kernel_R(x, n)
    u2 = u * u
    return (
        -1j * (E * p - wts.d_i / 8.0) / kappa
        - 3.0 * u2 * t * E * q / kappa**2
        - 12j * u2 * (E * r - wts.d_a / 128.0) / kappa**3
    )


def _exp_e1_antiderivative(a: complex, b: complex, t: np.ndarray) -> np.ndarray:
    """int_0^t exp(a s) E1(b s) ds for rays Re(b s) along fixed directions.

    Equals [e^{at} E1(bt) - E1((b-a)t) - Log(b-a) + Log(b)] / a with both
    logarithms on their principal branches; every factor is evaluated in
    the overflow-free scaled form e^z E1(z).
    """
    d = b - a
    val = (
        np.exp((a - b) * t) * exp_integral_e1_scaled(b * t)
        - np.exp(-d * t) * exp_integral_e1_scaled(d * t)
        - np.log(d)
        + np.log(b)
    )
    return val / a


def _e1_correction_sums(w: complex, dt: float, t: np.ndarray):
    """Time integrals of the kernel's exponential-integral remainder.

    Returns (C, S): the cosine- and sine-weighted integrals
        C(t) = int_0^t cos(dt s) Im[G(i w s) + G(-i w s)] ds
        S(t) = int_0^t sin(dt s) Im[G(i w s) + G(-i w s)] ds.
    """
    t1 = _exp_e1_antiderivative(1j * (w + dt), 1j * w, t)
    t2 = _exp_e1_antiderivative(1j * (dt - w), -1j * w, t)
    t3 = _exp_e1_antiderivative(1j * (w - dt), 1j * w, t)
    t4 = _exp_e1_antiderivative(-1j * (w + dt), -1j * w, t)
    c = 0.5 * (t1 + t2 + t3 + t4).imag
    s = -0.5 * (t1 + t2 - t3 - t4).real
    return c, s


def coefficients_analytic_small_u(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    grid,
) -> CoefficientTrace:
    """Stationary-phase expansion of the coefficients, O(u^2) accurate.

    Three ingredient groups: constant endpoint terms, envelope-modulated
    oscillations (P, Q, R), and the exponential-integral correction that
    restores accuracy at damping of order one.  Warns outside the
    validity window |u| <= 0.05.
    """
    g = _check_grid(grid)
    gt = mat.gamma_tilde
    dt = part.delta_tilde
    u = abs(kin.u)
    if u > SMALL_U_LIMIT:
        warnings.warn(
            f"small-velocity expansion called with u = {u} > {SMALL_U_LIMIT}",
            stacklevel=2,
        )
    w, s4 = _pole_pair(gt)
    r0t = part.r0_tilde
    wts = orientation_weights(part.orientation)

    tpos = g[1:]  # every term vanishes identically at t = 0
    i_plus = _ibp_terms(w + dt, tpos, part, u)
    i_minus = _ibp_terms(w - dt, tpos, part, u)

    res_pref = r0t / (4.0 * s4)
    d_res = res_pref * (i_plus.real + i_minus.real)
    f_res = res_pref * (i_plus.imag - i_minus.imag)
    z_res = -res_pref * (i_plus.real - i_minus.real)

    # exponential-integral correction with the envelope expanded to u^2;
    # the second delta-derivative is taken by central differences
    h = 1e-3
    c0, s0 = _e1_correction_sums(w, dt, tpos)
    cp, sp = _e1_correction_sums(w, dt + h, tpos)
    cm, sm = _e1_correction_sums(w, dt - h, tpos)
    cdd = (cp - 2.0 * c0 + cm) / (h * h)
    sdd = (sp - 2.0 * s0 + sm) / (h * h)
    corr_pref = r0t / (TWO_PI * s4)
    u2 = u * u
    d_corr = corr_pref * (wts.d_i / 8.0 * c0 + 3.0 / 64.0 * wts.d_a * u2 * cdd)
    f_corr = corr_pref * (wts.d_i / 8.0 * s0 + 3.0 / 64.0 * wts.d_a * u2 * sdd)

    D = np.concatenate([[0.0], d_res + d_corr])
    f = np.concatenate([[0.0], f_res + f_corr])
    zeta = np.concatenate([[0.0], z_res])
    return CoefficientTrace(
        grid=g,
        D=D,
        f=f,
        zeta=zeta,
        cumD=cumulative_integral(g, D),
        cumF=cumulative_integral(g, f),
        method="analytic",
        delta_tilde=dt,
    )


# ---------------------------------------------------------------------------
# Markov (stationary) limits
# ---------------------------------------------------------------------------

# relative tolerance of the stationary quadratures (markov_limit,
# stationary_offset); it also bounds the error of 1 - zeta/D
MARKOV_REL_TOL = 1e-10


@dataclass(frozen=True)
class MarkovCoefficients:
    """Asymptotic coefficient values D_inf, f_inf, zeta_inf."""

    D_inf: float
    f_inf: float
    zeta_inf: float

    def __post_init__(self):
        if not self.D_inf > 0:
            raise DomainError(f"stationary diffusion must be positive, got {self.D_inf}")


def markov_limit(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
) -> MarkovCoefficients:
    """Exact t -> inf coefficient constants by stationary quadrature.

    The integrands die like exp(-gamma_tilde t / 2), so integrating over
    one kernel-decay window captures the limits to ~1e-12.  Exact in the
    velocity (no small-u expansion); at u = 0 the diffusion constant
    reduces to r0_tilde d_i J(delta_tilde) / 32.
    """
    gt = mat.gamma_tilde
    pref = part.r0_tilde / TWO_PI
    # the cosine kernel carries an algebraic 1/t^2 tail on top of the
    # exponential pole decay (the even extension of J has a slope kink at
    # w = 0), so its stationary integrals need a long horizon
    horizon_cos = max(kernel_decay_time(gt), _ALGEBRAIC_TAIL_HORIZON)
    horizon_sin = kernel_decay_time(gt)

    kc = functools.partial(omega_kernel_cos, gamma_tilde=gt)
    ks = functools.partial(omega_kernel_sin, gamma_tilde=gt)
    kwargs = dict(rel_tol=MARKOV_REL_TOL, abs_tol=1e-14, max_subdivisions=262144)

    def limit(trig, kernel, horizon: float) -> float:
        g = _delay_integrand(part, kin, trig, kernel)
        return pref * integrate_adaptive(g, 0.0, horizon, **kwargs).value

    d_inf = limit(np.cos, kc, horizon_cos)
    f_inf = limit(np.sin, kc, horizon_cos)
    z_inf = limit(np.sin, ks, horizon_sin)
    return MarkovCoefficients(D_inf=d_inf, f_inf=f_inf, zeta_inf=z_inf)


def markov_diffusion_small_u(
    mat: MaterialParams, part: ParticleParams, kin: KinematicsParams
) -> float:
    """Closed-form O(u^2) stationary diffusion constant.

    D_inf = (r0t/32) [d_i J(dt) + (3/8) d_a u^2 J''(dt)]; the curvature
    term raises the damping below resonance, which is what speeds up
    decoherence for a moving particle.
    """
    wts = orientation_weights(part.orientation)
    j = spectral_density(part.delta_tilde, mat.gamma_tilde)
    j2 = spectral_density_d2(part.delta_tilde, mat.gamma_tilde)
    u2 = kin.u * kin.u
    return part.r0_tilde / 32.0 * (wts.d_i * j + 0.375 * wts.d_a * u2 * j2)


def stationary_offset(
    mat: MaterialParams, part: ParticleParams, kin: KinematicsParams
) -> float:
    """Late-time offset C_inf = lim [cumD(t) - D_inf t] = -(r0t/2pi) int t g(t) dt.

    Captures the build-up transient of the diffusion coefficient; it is
    independent of r0_tilde only through the explicit prefactor.
    """
    gt = mat.gamma_tilde
    pref = part.r0_tilde / TWO_PI
    horizon = max(kernel_decay_time(gt), _ALGEBRAIC_TAIL_HORIZON)
    # first moment of the D integrand: the kernel carries the factor t'
    g = _delay_integrand(part, kin, np.cos, lambda tp: tp * omega_kernel_cos(tp, gt))
    res = integrate_adaptive(
        g, 0.0, horizon, rel_tol=MARKOV_REL_TOL, abs_tol=1e-14, max_subdivisions=262144
    )
    return -pref * res.value

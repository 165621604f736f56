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

* ``coefficients_e1``     - reference path; kernels in closed form for
  every damping, from the poles of J and exponential integrals, the t'
  integral by high-order panel quadrature on the caller's grid.
* ``coefficients_brute``  - validation oracle, the only adaptive quadrature;
  nested quadrature of the raw double integrals (cost grows
  quadratically, meant for coarse grids).
* ``coefficients_analytic_small_u`` - stationary-phase expansion to
  second order in the velocity (gamma_tilde < 2), with the
  exponential-integral correction that keeps it accurate for damping of
  order one.

``markov_limit`` reads the t -> inf constants the same coefficients
relax to off a trace on the decoherence table (``decoherence_table``),
the grid on which every coefficient has become constant.
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
    exp_integral_ei_scaled,
    integrate_adaptive,
)

TWO_PI = 2.0 * math.pi

# the pole terms of both kernels decay like exp(-gamma_tilde t / 2) below
# gamma_tilde = 2 and like exp(-t / b) above it (the slow pole i/b);
# beyond this many e-foldings the integrands are numerically dead
_KERNEL_DECAY_EFOLDS = 55.0

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
            "the small-velocity analytic route requires 0 < gamma_tilde < 2 "
            f"(got {gamma_tilde}); every other method runs at any damping"
        )
    p = pole_omega_r(gamma_tilde)
    return p.omega_r, float(p.sqrt_factor.real)


def _overdamped_rates(gamma_tilde: float) -> tuple[float, float, float]:
    """Rates a < b of the imaginary poles i a, i b above gamma_tilde = 2
    (a b = 1, b - a = s) and s = sqrt(gamma_tilde^2 - 4)."""
    b = pole_omega_r(gamma_tilde).omega_r.imag
    return 1.0 / b, b, math.sqrt(gamma_tilde * gamma_tilde - 4.0)


def omega_kernel_cos(t_prime, gamma_tilde: float):
    """Cosine transform of the spectral density, Kc(t'), even in t'.

    Closed form for every damping, with G(z) = e^z E1(z).  Below
    gamma_tilde = 2, with the pole w_r and s4 = sqrt(4 - gamma_tilde^2),
        Kc(t) = [pi Re e^{i w_r t} + Im G(i w_r t) + Im G(-i w_r t)] / s4,
    Kc(0) = (pi - 2 arg w_r) / s4.  Above it, J = [w/(w^2 + a^2) -
    w/(w^2 + b^2)] / s (_overdamped_rates) and, by G&R 3.723,
        Kc(t) = [H(a t) - H(b t)] / (2 s),  H(x) = G(x) - e^{-x} Ei(x),
    Kc(0) = 2 ln b / s.  At 2, the double-pole limit,
        Kc(t) = 1 - (t/2) [e^{-t} Ei(t) + G(t)],  Kc(0) = 1.
    """
    scalar = np.isscalar(t_prime)
    t = np.abs(np.atleast_1d(np.asarray(t_prime, dtype=float)))
    gt = gamma_tilde
    out = np.empty_like(t)
    zero = t == 0.0
    tp = t[~zero]
    if gt < 2.0:
        w, s4 = _pole_pair(gt)
        out[zero] = (math.pi - 2.0 * math.atan2(w.imag, w.real)) / s4
        z = 1j * w * tp
        g_plus = exp_integral_e1_scaled(z)
        g_minus = exp_integral_e1_scaled(-z)
        out[~zero] = (
            math.pi * np.exp(1j * w * tp).real + g_plus.imag + g_minus.imag
        ) / s4
    elif gt == 2.0:
        out[zero] = 1.0
        out[~zero] = 1.0 - 0.5 * tp * (
            exp_integral_ei_scaled(tp) + exp_integral_e1_scaled(tp).real
        )
        # that difference cancels to -2/t^2, so past t = 40 sum its
        # asymptotic series -sum_k (2k)!/t^(2k) instead
        far = t > 40.0
        steps = np.multiply.outer(t[far] ** -2.0, np.arange(2, 40, 2) * np.arange(1, 39, 2))
        out[far] = -np.cumprod(steps, axis=1).sum(axis=1)
    else:
        a, b, s = _overdamped_rates(gt)

        def h(x):
            return exp_integral_e1_scaled(x).real - exp_integral_ei_scaled(x)

        out[zero] = 2.0 * math.log(b) / s
        out[~zero] = (h(a * tp) - h(b * tp)) / (2.0 * s)
    return float(out[0]) if scalar else out


def omega_kernel_sin(t_prime, gamma_tilde: float):
    """Sine transform of the spectral density, Ks(t'), odd in t'.

    The odd extension of J is analytic, so the transform is a pure
    residue term with no exponential-integral remainder, for t >= 0
        pi Im e^{i w_r t} / s4,  pi (t/2) e^{-t}  and  pi (e^{-a t} - e^{-b t}) / (2 s)
    below, at and above gamma_tilde = 2 (as in omega_kernel_cos).
    """
    scalar = np.isscalar(t_prime)
    t = np.atleast_1d(np.asarray(t_prime, dtype=float))
    sign = np.sign(t)
    ta = np.abs(t)
    gt = gamma_tilde
    if gt < 2.0:
        w, s4 = _pole_pair(gt)
        out = sign * math.pi * np.exp(1j * w * ta).imag / s4
    elif gt == 2.0:
        out = sign * 0.5 * math.pi * ta * np.exp(-ta)
    else:
        a, b, s = _overdamped_rates(gt)
        out = sign * -math.pi * np.exp(-a * ta) * np.expm1(-s * ta) / (2.0 * s)
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
    """Time beyond which both kernels are numerically negligible, but
    for the cosine kernel's -gamma_tilde/t^2 tail."""
    if gamma_tilde < 2.0:
        return 2.0 * _KERNEL_DECAY_EFOLDS / gamma_tilde
    return _KERNEL_DECAY_EFOLDS * pole_omega_r(gamma_tilde).omega_r.imag


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

# node block of make_kernel_table, whose complex temporaries then take
# 64 KiB: blocks of 8192 raised the peak RSS of `coeffs --method all` by
# a further 0.7 MB, and each block adds a fixed E1 loop overhead
_KERNEL_BLOCK = 4096


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
    """Evaluate both closed-form kernels on the panel nodes of a grid.

    The kernels run over blocks of _KERNEL_BLOCK nodes, which bounds
    their complex temporaries; every value is bit-identical to one
    whole-array call.
    """
    g = _check_grid(grid)
    nodes, wts, offsets = _panel_nodes(g)
    kc = np.empty_like(nodes)
    ks = np.empty_like(nodes)
    for i in range(0, nodes.size, _KERNEL_BLOCK):
        block = slice(i, i + _KERNEL_BLOCK)
        kc[block] = omega_kernel_cos(nodes[block], gamma_tilde)
        ks[block] = omega_kernel_sin(nodes[block], gamma_tilde)
    return KernelTable(
        grid=g, gamma_tilde=gamma_tilde, nodes=nodes, weights=wts, offsets=offsets, kc=kc, ks=ks
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

# smallest resolved stationary population (1 - zeta/D)/2; the worst
# error of 1 - zeta/D at rest on the presets is 2.4e-10 (rb-nsi)
MARKOV_REL_TOL = 1e-9


@dataclass(frozen=True)
class MarkovCoefficients:
    """Asymptotic coefficient values D_inf, zeta_inf."""

    D_inf: float
    zeta_inf: float

    def __post_init__(self):
        if not self.D_inf > 0:
            raise DomainError(f"stationary diffusion must be positive, got {self.D_inf}")


def markov_limit(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    table: KernelTable | None = None,
) -> MarkovCoefficients:
    """Exact t -> inf coefficient constants, read off a trace on a
    decoherence table (built unless given; one built for a smaller level
    spacing spans a longer window and serves too).

    D_inf is D at the trace's end plus the analytic remainder of the
    cosine kernel's 1/t^2 tail; zeta_inf is zeta there, the sine kernel
    being a pure pole term.  Exact in the velocity; at u = 0 the
    diffusion constant reduces to r0_tilde d_i J(delta_tilde) / 32.
    """
    # deferred: qfd.decoherence, which owns the table, imports this module
    from qfd.decoherence import _tail_slope_correction, decoherence_table

    if table is None:
        table = decoherence_table(mat, part.delta_tilde)
    trace = coefficients_from_table(table, part, kin)
    t_end = float(trace.grid[-1])
    return MarkovCoefficients(
        D_inf=float(trace.D[-1]) + _tail_slope_correction(mat, part, kin, t_end),
        zeta_inf=float(trace.zeta[-1]),
    )


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

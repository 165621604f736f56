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
  nested quadrature of the raw double integrals, one pass per grid panel
  (cost grows quadratically, meant for coarse grids).
* ``coefficients_analytic_small_u`` - stationary-phase expansion to
  second order in the velocity (gamma_tilde < 2), with the
  exponential-integral correction that keeps it accurate for damping of
  order one.

A kernel table is a quadrature plan that holds no kernel: ``_panel_sums``,
the one pass over it, forms each block's points and nodes and evaluates
both kernels there, for every point at one level spacing.
``decoherence_table`` plans the window on which every coefficient has
become constant, as segments, at the particle's level spacing and the
caller's ``pts_per_cycle``, and ``_stationary_readout`` streams its end:
D's end plus the cosine kernel's tail remainder, zeta's for
``markov_limit`` and cumD's first crossing of 1 for qfd.decoherence.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from qfd.errors import ConfigError, GridError
from qfd.model import (
    KinematicsParams,
    MaterialParams,
    ParticleParams,
    envelope_derivatives,
    kernel_P,
    orientation_weights,
    pole_omega_r,
    spectral_density,
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

# the cosine kernel's large-delay branch: from p t = _FAR_PT on (p the
# distance of the nearest pole of J) its E1 remainder is summed as
# _FAR_TERMS orders of its 1/t^2 series, whose truncation error is then
# about e^{-p t}, below 1e-13 of the remainder at the threshold
_FAR_PT = 40.0
_FAR_TERMS = 20
# a term w^{2n+1} of J's Taylor series adds (-1)^{n+1} (2n+1)! / t^{2n+2}
# to the cosine kernel at large t
_FAR_FACTORS = np.array(
    [(-1) ** (n + 1) * math.factorial(2 * n + 1) for n in range(_FAR_TERMS)], dtype=float
)

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
    """w_r and s4 = sqrt(4 - gamma_tilde^2); bad input at or above 2."""
    if not 0.0 < gamma_tilde < 2.0:
        raise ConfigError(
            "the small-velocity analytic route requires 0 < gamma_tilde < 2 "
            f"(got {gamma_tilde}); every other method runs at any damping"
        )
    w = pole_omega_r(gamma_tilde)
    return w, 2.0 * w.real


def _cos_tail_coefficients(gamma_tilde: float, scale: float = 1.0) -> np.ndarray:
    """Coefficients C_n of the cosine kernel's large-delay series
        Kc(t) = pole term + sum_{n < _FAR_TERMS} C_n y^{n+1},  y = (scale t)^-2.

    At scale 1, C_n = (-1)^{n+1} (2n+1)! gt e_n with e_n the Taylor
    coefficients of 1/(1 + (gt^2 - 2) w^2 + w^4) in w^2 (e_0 = 1,
    e_1 = 2 - gt^2), so C_0 = -gt and C_1 = -6 gt (gt^2 - 2).  The
    recurrence runs on e_n scale^{2n}, which stays bounded at scale = a.
    """
    q = (2.0 - gamma_tilde * gamma_tilde) * scale * scale
    q2 = scale**4
    e = [1.0, q]
    for _ in range(2, _FAR_TERMS):
        e.append(q * e[-1] - q2 * e[-2])
    return _FAR_FACTORS * (gamma_tilde * scale * scale) * np.array(e)


def omega_kernels(t_prime, gamma_tilde: float) -> tuple[np.ndarray, np.ndarray]:
    """Both frequency kernels (Kc, Ks) at delays t' >= 0, in one pass.

    Kc(t') = int_0^inf J(w) cos(w t') dw is closed-form for every
    damping, with G(z) = e^z E1(z).  Below gamma_tilde = 2, with the pole
    w_r and s4 = sqrt(4 - gamma_tilde^2),
        Kc(t) = [pi Re e^{i w_r t} + Im G(i w_r t) + Im G(-i w_r t)] / s4,
    Kc(0) = (pi - 2 arg w_r) / s4.  Above it, J = [w/(w^2 + a^2) -
    w/(w^2 + b^2)] / s, with i a and i b the poles of J (a b = 1,
    s = b - a = sqrt(gamma_tilde^2 - 4)), and, by G&R 3.723,
        Kc(t) = [H(a t) - H(b t)] / (2 s),  H(x) = G(x) - e^{-x} Ei(x),
    Kc(0) = 2 ln b / s.  At 2, the double-pole limit,
        Kc(t) = 1 - (t/2) [e^{-t} Ei(t) + G(t)],  Kc(0) = 1.

    Far out, from p t = _FAR_PT on, with p the distance of the nearest
    pole of J (1 up to gamma_tilde = 2, a above), the E1 terms are
    summed as their large-delay series sum_n C_n (p t)^{-2n-2}
    (_cos_tail_coefficients), the endpoint expansion of the Fourier
    integral (A&S 5.1.51 termwise), free of the cancellation between
    G(z) and G(-z) that cost the continued fractions 3.5e-8 relative
    at gamma_tilde = 0.003, t = 1e6.  The pole term pi Re e^{i w_r t} / s4
    is kept below 2; from 2 on it is O(e^{-p t}) < e^{-40} and dropped.
    The series stops at _FAR_TERMS terms, near its smallest term, where
    its error is of that same order, so the far branch is exact to
    rounding.

    Ks(t') = int_0^inf J(w) sin(w t') dw: the odd extension of J is
    analytic, so it is a pure residue term with no exponential-integral
    remainder,
        pi Im e^{i w_r t} / s4,  pi (t/2) e^{-t}  and  pi (e^{-a t} - e^{-b t}) / (2 s)
    below, at and above gamma_tilde = 2.  Below 2, e^{i w_r t} is
    computed once per delay for both kernels.
    """
    t = np.atleast_1d(np.asarray(t_prime, dtype=float))
    gt = gamma_tilde
    if gt < 2.0:
        w, s4 = _pole_pair(gt)
        p, k0 = 1.0, (math.pi - 2.0 * math.atan2(w.imag, w.real)) / s4
        pole = np.exp(1j * w * t)
        residue = math.pi * pole.real
        ks = math.pi * pole.imag / s4

        def closed(sel):
            z = 1j * w * t[sel]
            g_plus = exp_integral_e1_scaled(z)
            g_minus = exp_integral_e1_scaled(-z)
            return (residue[sel] + g_plus.imag + g_minus.imag) / s4

    elif gt == 2.0:
        p, k0 = 1.0, 1.0
        ks = 0.5 * math.pi * t * np.exp(-t)

        def closed(sel):
            x = t[sel]
            return 1.0 - 0.5 * x * (exp_integral_ei_scaled(x) + exp_integral_e1_scaled(x).real)

    else:
        b = pole_omega_r(gt).imag
        a, s = 1.0 / b, math.sqrt(gt * gt - 4.0)
        p, k0 = a, 2.0 * math.log(b) / s
        ks = -math.pi * np.exp(-a * t) * np.expm1(-s * t) / (2.0 * s)

        def h(x):
            return exp_integral_e1_scaled(x).real - exp_integral_ei_scaled(x)

        def closed(sel):
            x = t[sel]
            return (h(a * x) - h(b * x)) / (2.0 * s)

    kc = np.empty_like(t)
    zero = t == 0.0
    far = p * t >= _FAR_PT
    near = ~(zero | far)
    kc[zero] = k0
    # a block past the threshold skips the E1 calls' fixed cost
    if near.any():
        kc[near] = closed(near)
    y = (p * t[far]) ** -2.0
    series = np.zeros_like(y)
    for c in _cos_tail_coefficients(gt, p)[::-1]:
        series += c
        series *= y
    if gt < 2.0:
        series += residue[far] / s4
    kc[far] = series
    return kc, ks


def omega_kernel_cos(t_prime, gamma_tilde: float):
    """Cosine transform of the spectral density, Kc(t'), even in t'
    (omega_kernels)."""
    kc, _ = omega_kernels(np.abs(t_prime), gamma_tilde)
    return float(kc[0]) if np.isscalar(t_prime) else kc


def omega_kernel_sin(t_prime, gamma_tilde: float):
    """Sine transform of the spectral density, Ks(t'), odd in t'
    (omega_kernels)."""
    _, ks = omega_kernels(np.abs(t_prime), gamma_tilde)
    out = np.sign(t_prime) * ks
    return float(out[0]) if np.isscalar(t_prime) else out


# the oracle's tolerances on (D, f, zeta); its frequency quadrature runs
# 1e-4 below them, as otherwise its residual jitter looks like roughness
# to the delay quadrature
_ORACLE_REL_TOL = 1e-8
_ORACLE_ABS_TOL = 1e-10
_FREQ_REL_TOL = 1e-4 * _ORACLE_REL_TOL
_FREQ_ABS_TOL = 1e-4 * _ORACLE_ABS_TOL


def _frequency_tail(omega_max: float, t: np.ndarray, gamma_tilde: float) -> np.ndarray:
    """Truncation tails int_M^inf J(w) e^{i w t} dw, uniform in t: the
    cosine tail as the real part and the sine tail as the imaginary part.

    Expands J = gt/w^3 + gt(2-gt^2)/w^5 + O(1/w^7) and integrates both
    terms exactly through E1(-i M t) = -Ci(M t) - i (Si(M t) - pi/2); the
    residual is O(gt^5/M^6).
    """
    m = omega_max
    e = np.exp(1j * m * t)
    # t^2 E1(-i M t) vanishes at t = 0, where E1 itself is singular
    t2e1 = np.zeros_like(e)
    nz = t != 0.0
    t2e1[nz] = t[nz] ** 2 * exp_integral_e1(-1j * m * t[nz])
    t3 = e / (2 * m * m) + 0.5j * t * e / m - 0.5 * t2e1
    t5 = e / (4 * m**4) + 1j * t * e / (12 * m**3) - (t * t / 12.0) * t3
    return gamma_tilde * (t3 + (2.0 - gamma_tilde**2) * t5)


def _frequency_kernels(t, gamma_tilde: float) -> tuple[np.ndarray, np.ndarray]:
    """(Kc, Ks) = int_0^inf J(w) (cos, sin)(w t) dw at an array of delays t.

    One adaptive quadrature of J(w) [cos(w t), sin(w t)] up to the cutoff
    M = 50 max(1, gamma_tilde) per segment between breakpoints, every
    delay and both kinds sharing its panels, plus the analytic tail past
    M.  The cutoff keeps gamma_tilde/M <= 1/50, so the tail's residual
    stays near 1e-10 of the kernels at every damping; the quadrature's
    cost grows with M.
    """
    gt = gamma_tilde
    t = np.atleast_1d(np.asarray(t, dtype=float))
    m = 50.0 * max(1.0, gt)
    # segments bracketing the w = 1 response peak for small damping
    hw = min(40.0 * gt, 0.5)
    breaks = (0.0, 1.0 - hw, 1.0 + hw, m)

    def integrand(w: np.ndarray) -> np.ndarray:
        wt = w[..., None] * t
        return spectral_density(w, gt)[..., None, None] * np.stack([np.cos(wt), np.sin(wt)], -2)

    total = sum(
        integrate_adaptive(integrand, lo, hi, _FREQ_REL_TOL, _FREQ_ABS_TOL, 65536).value
        for lo, hi in zip(breaks[:-1], breaks[1:])
    )
    tail = _frequency_tail(m, t, gt)
    return total[0] + tail.real, total[1] + tail.imag


# ---------------------------------------------------------------------------
# Trace container, CSV tables and time grids
# ---------------------------------------------------------------------------


# rows per block of csv_blocks: one block's cells are laid out as
# fixed-width bytes, one column at a time, and compacted into text, which
# the writer takes before the next block is formatted, so a table streams
# to its file and its output adds no memory that grows with the table;
# on the README evolve (34 k rows of 7 columns) 2048 formats as fast as
# 3072, 15 % faster than 1024 and 5 % slower than 4096, peaking 1.7 MB lower
_CSV_BLOCK = 2048


def _text_cells(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of '%s' % v for every v of a, as cells and lengths."""
    text = [str(v).encode() for v in a.tolist()]
    length = np.array([len(t) for t in text], np.int64)
    width = max(1, int(length.max()))
    return np.array(text, f"S{width}").view(np.uint8).reshape(len(text), width), length


def _join_cells(cells: list[tuple[np.ndarray, np.ndarray]]) -> str:
    """Rows of equal-height cell blocks as CSV lines: every cell cut to
    its length and followed by a comma, the last by a newline."""
    rows = len(cells[0][1])
    width = sum(c.shape[1] + 1 for c, _ in cells)
    buf = np.empty((rows, width), np.uint8)
    keep = np.empty((rows, width), bool)
    at = 0
    for c, length in cells:
        w = c.shape[1]
        buf[:, at:at + w] = c
        keep[:, at:at + w] = (np.arange(w) < np.arange(w + 1)[:, None])[length]
        buf[:, at + w] = ord(",")
        keep[:, at + w] = True
        at += w + 1
    buf[:, -1] = ord("\n")
    return buf[keep].tobytes().decode()


def csv_blocks(columns: dict[str, Sequence]) -> Iterator[str]:
    """CSV text of equal-length named columns, in the dict's order, as
    the header and then one block per _CSV_BLOCK rows, each formatted
    only when it is asked for.

    The names form the header.  Numeric columns print byte for byte as
    Python's '%.17g' % float(v) (NaN as nan), every other column verbatim
    with %s.  Unequal columns raise here, before any block is taken.
    """
    arrays = [np.asarray(c) for c in columns.values()]
    n = len(arrays[0])
    if any(len(a) != n for a in arrays):
        raise GridError("all CSV columns must have the same length")
    # imported on first use, so that runs writing no table (tdec) never
    # load it: compiled at import, with no bytecode cache, it raised gold
    # tdec's peak RSS by 0.4 MB
    from qfd.g17 import g17_cells

    formats = [g17_cells if a.dtype.kind in "fiu" else _text_cells for a in arrays]

    def blocks() -> Iterator[str]:
        yield ",".join(columns) + "\n"
        for i in range(0, n, _CSV_BLOCK):
            yield _join_cells([f(a[i:i + _CSV_BLOCK]) for f, a in zip(formats, arrays)])

    return blocks()


def csv_table(columns: dict[str, Sequence]) -> str:
    """The whole CSV text of csv_blocks(columns)."""
    return "".join(csv_blocks(columns))


@dataclass(frozen=True)
class CoefficientTrace:
    """Sampled coefficients on one grid, with cumD and cumF, the
    trapezoid cumulative integrals of D and f, formed on construction."""

    grid: np.ndarray
    D: np.ndarray
    f: np.ndarray
    zeta: np.ndarray
    method: str
    delta_tilde: float
    cumD: np.ndarray = field(init=False)
    cumF: np.ndarray = field(init=False)

    def __post_init__(self):
        n = self.grid.shape
        for arr in (self.D, self.f, self.zeta):
            if arr.shape != n:
                raise GridError("all trace arrays must share the grid length")
        if self.grid[0] != 0.0:
            raise GridError("trace grid must start at t = 0")
        if self.D[0] != 0.0 or self.f[0] != 0.0 or self.zeta[0] != 0.0:
            raise GridError("coefficients must vanish at t = 0")
        object.__setattr__(self, "cumD", cumulative_integral(self.grid, self.D))
        object.__setattr__(self, "cumF", cumulative_integral(self.grid, self.f))

    @property
    def cycles(self) -> np.ndarray:
        """Grid in natural cycles N = t / (2 pi / delta_tilde)."""
        return self.grid * self.delta_tilde / TWO_PI

    def csv_columns(self) -> dict[str, np.ndarray]:
        """CSV export columns: t, N_cycles, D, f, zeta, cumD, cumF, method."""
        return {
            "t": self.grid, "N_cycles": self.cycles, "D": self.D, "f": self.f,
            "zeta": self.zeta, "cumD": self.cumD, "cumF": self.cumF,
            "method": np.full(self.grid.shape, self.method),
        }

    def to_csv(self) -> str:
        """The CSV export as one string."""
        return csv_table(self.csv_columns())


def kernel_decay_time(gamma_tilde: float) -> float:
    """Time beyond which both kernels are numerically negligible, but
    for the cosine kernel's -gamma_tilde/t^2 tail."""
    if gamma_tilde < 2.0:
        return 2.0 * _KERNEL_DECAY_EFOLDS / gamma_tilde
    return _KERNEL_DECAY_EFOLDS * pole_omega_r(gamma_tilde).imag


# grid points per natural cycle of every grid that is not given one
DEFAULT_PTS_PER_CYCLE = 400

# most panel nodes a grid may span: it bounds the time of every pass over
# a plan, 4 kernel nodes per dense panel, and the array of a caller's
# grid, at most 2 B per node (0.13 GB at 2^26); the largest default plan,
# nv-au tdec, spans 8.4 M nodes and holds no grid-sized array
_MAX_TABLE_NODES = 2**26


def _check_table_nodes(nodes: float, remedy: str, grid: bool = True) -> None:
    """Refuse a plan of more than _MAX_TABLE_NODES panel nodes, counted
    before any array is built, with the remedy naming the parameter; the
    budget bounds a grid, or with grid=False the time of a pass."""
    if not nodes <= _MAX_TABLE_NODES:
        bound = (f" (up to {2e-9 * nodes:.3g} GB of grid), over the budget of {_MAX_TABLE_NODES} "
                 f"({2e-9 * _MAX_TABLE_NODES:.2g} GB)" if grid else
                 f", over the budget of {_MAX_TABLE_NODES} that bounds the time of a pass")
        raise ConfigError(f"the plan needs {nodes:.3g} panel nodes{bound}: {remedy}")


class _Uniform(NamedTuple):
    """Points first..n of np.linspace(start, stop, n + 1), formed on
    demand in its arithmetic: i ((stop - start) / n) + start, the last
    one stop itself.  In a plan, point first - 1 is the one before them."""

    start: float
    stop: float
    n: int
    first: int

    def points(self, i: int, j: int) -> np.ndarray:
        """Points i..j-1, 0 <= i < j <= n + 1."""
        out = np.arange(i, j, dtype=float) * ((self.stop - self.start) / self.n) + self.start
        if j == self.n + 1:
            out[-1] = self.stop
        return out


def _time_segments(
    delta_tilde: float, gamma_tilde: float, n_cycles: float, pts_per_cycle: int,
    remedy: str, grid: bool = True,
) -> list[_Uniform]:
    """The plan of time_grid, its uniform segments, dense and then sparse.

    Dense sampling (pts_per_cycle per cycle, capped at spacing 0.1 so the
    order-one kernel oscillations stay resolved) while the kernels are
    alive, then sparse sampling where every coefficient has become
    constant and only slow exponentials remain.

    A plan of more than _MAX_TABLE_NODES panel nodes is refused before
    any point is formed (ConfigError, _check_table_nodes, which says what
    the budget bounds: a grid, or with grid=False a pass's time).  The
    message names pts_per_cycle when its least value, 8, would fit the
    budget; else gamma_tilde when the kernels' decay time, reached by the
    horizon, spans a dense part that holds most nodes; else remedy, the
    caller's way to shorten the horizon.
    """
    if not 0 < n_cycles < math.inf or pts_per_cycle < 8:
        raise GridError("need finite n_cycles > 0 and pts_per_cycle >= 8")
    cycle = TWO_PI / delta_tilde
    t_end = n_cycles * cycle
    h_dense = min(cycle / pts_per_cycle, 0.1)
    decay = kernel_decay_time(gamma_tilde)
    t_dense_end = min(t_end, decay + 2.0 * cycle)
    h_sparse = cycle / 16.0
    # panel counts as floats: a horizon past the float range counts inf
    # panels and is refused, where math.ceil would raise OverflowError
    n_dense = np.ceil(t_dense_end / h_dense)
    n_sparse = np.ceil((t_end - t_dense_end) / h_sparse)
    # the plan's panel nodes (_plan_blocks): 4 per dense panel, 4 per
    # sub-panel of each sparse one
    dense_nodes = 4.0 * n_dense
    sparse_nodes = 4.0 * n_sparse * np.ceil(h_sparse / _MAX_SUBPANEL_WIDTH)
    dense_at_8 = 4.0 * np.ceil(t_dense_end / min(cycle / 8.0, 0.1))
    if dense_at_8 + sparse_nodes <= _MAX_TABLE_NODES:
        remedy = "lower pts_per_cycle"
    elif dense_at_8 > sparse_nodes and t_end >= decay >= 2.0 * cycle:
        # the decay time is shortest at gamma_tilde = 2
        remedy = ("raise" if gamma_tilde < 2.0 else "lower") + " gamma_tilde"
    _check_table_nodes(dense_nodes + sparse_nodes, remedy, grid)
    sparse = [_Uniform(t_dense_end, t_end, int(n_sparse), 1)] if t_dense_end < t_end else []
    return [_Uniform(0.0, t_dense_end, int(n_dense), 0), *sparse]


def time_grid(
    delta_tilde: float,
    gamma_tilde: float,
    n_cycles: float,
    pts_per_cycle: int = DEFAULT_PTS_PER_CYCLE,
    *,
    remedy: str = "lower n_cycles",
) -> np.ndarray:
    """Hybrid simulation grid over n_cycles natural cycles: the points
    of its plan (_time_segments), each segment's by _Uniform.points."""
    segments = _time_segments(delta_tilde, gamma_tilde, n_cycles, pts_per_cycle, remedy)
    return np.concatenate([s.points(s.first, s.n + 1) for s in segments])


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

# node block of the panel-sum pass, whose complex kernel temporaries then
# take 64 KiB: blocks of 8192 raised the peak RSS of `coeffs --method all`
# by a further 0.7 MB, and each block adds a fixed E1 loop overhead
_KERNEL_BLOCK = 4096


def _gl4(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """GL4 nodes mid + half x_j and weights half w_j of the sub-panels
    between consecutive edges, 4 per sub-panel, in node order."""
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1:] - edges[:-1])
    nodes, weights = np.empty((2, half.size, 4))
    # a column at a time: broadcasting rows of 4 runs numpy's inner loop 4 long
    for j in range(4):
        np.multiply(half, _GL4_X[j], out=nodes[:, j])
        nodes[:, j] += mid
        np.multiply(half, _GL4_W[j], out=weights[:, j])
    return nodes.ravel(), weights.ravel()


@dataclass(frozen=True)
class KernelTable:
    """The quadrature plan of a grid, reusable across velocities and
    dipole orientations (a decoherence_table's grid depends on the
    damping and the level spacing alone).

    It holds no kernel and no point past head, the caller's grid (or a
    decoherence grid's graded start): the uniform segments that follow it
    (_Uniform) form their points, and every block its sub-panel edges,
    as _plan_blocks reaches them.  The one pass over it, _panel_sums,
    evaluates the kernels a block at a time, so it adds only block-sized
    temporaries per point.  gamma_tilde is the damping of the kernels.
    """

    head: np.ndarray
    segments: tuple[_Uniform, ...]
    gamma_tilde: float

    @property
    def grid(self) -> np.ndarray:
        """Every grid point, built on each call but for a plain head."""
        if not self.segments:
            return self.head
        return np.concatenate([self.head, *(s.points(s.first, s.n + 1) for s in self.segments)])

    @property
    def nodes(self) -> np.ndarray:
        """Every GL4 node, built on each call."""
        return np.concatenate([_gl4(edges)[0] for _, edges, _ in _plan_blocks(self)])


def make_kernel_table(gamma_tilde: float, grid, segments: Sequence[_Uniform] = ()) -> KernelTable:
    """The quadrature plan (KernelTable) of a grid continued by uniform
    segments, whose node budget their planner checks, for the kernels at
    gamma_tilde; nothing is evaluated until a pass reads it."""
    g = _check_grid(grid)
    _check_table_nodes(4.0 * np.ceil(np.diff(g) / _MAX_SUBPANEL_WIDTH).sum(),
                       "lower the number or the span of the grid's points")
    return KernelTable(head=g, segments=tuple(segments), gamma_tilde=gamma_tilde)


def _plan_blocks(table: KernelTable) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(points, edges, offsets) of each block of whole grid panels, at most
    _KERNEL_BLOCK nodes (a wider panel is a block of its own), from the
    block alone: its grid points from the one before it, the edges that
    split each panel into ceil(width / _MAX_SUBPANEL_WIDTH) equal
    sub-panels, so the degree-7 rule stays far beyond any caller
    tolerance even on coarse oracle grids, and each panel's first node."""
    panels = _KERNEL_BLOCK // 4
    # runs of at most a dense block's panels, each from the point before it
    for g in chain(
        (table.head[i:i + panels + 1] for i in range(0, table.head.size - 1, panels)),
        (s.points(i - 1, min(i + panels, s.n + 1))
         for s in table.segments for i in range(s.first, s.n + 1, panels)),
    ):
        width = np.diff(g)
        if width.max() <= _MAX_SUBPANEL_WIDTH:
            # one sub-panel per panel, the dense part's: the edges are the points
            yield g, g, np.arange(0, 4 * width.size, 4)
            continue
        counts = np.ceil(width / _MAX_SUBPANEL_WIDTH).astype(int)
        first = np.zeros(g.size, int)
        np.cumsum(counts, out=first[1:])
        p = 0
        while p < counts.size:
            q = max(p + 1, int(np.searchsorted(first, first[p] + panels, "right")) - 1)
            k, at = counts[p:q], first[p:q] - first[p]
            # np.linspace(a, b, k + 1) arithmetic, edge j = j * ((b - a) / k) + a,
            # so the edges are bit-identical to a per-panel linspace; a panel's
            # last edge is the next panel's first, a exactly, and the block's end
            j = np.arange(first[q] - first[p]) - np.repeat(at, k)
            edges = np.empty(j.size + 1)
            edges[:-1] = j * np.repeat(width[p:q] / k, k) + np.repeat(g[p:q], k)
            edges[-1] = g[q]
            yield g[p:q + 1], edges, 4 * at
            p = q


def _panel_sums(
    table: KernelTable, points: Sequence[tuple[ParticleParams, KinematicsParams]], rows: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """The first rows of (D, zeta, f) of (part, kin) points at the first
    one's level spacing, a block of whole grid panels (_plan_blocks) at
    a time: the one pass over a kernel table.

    Yields (g, sums) per block: sums[k] holds point k's rows at the
    block's grid points g, the first of which closes the block before
    it, whose column is carried over (0 at t = 0).  Kc, Ks and trig K
    are formed once per block, and each point multiplies in P and w, in
    the order trig * kernel * P * w; a cumulative sum continued from its
    carry is bit-identical to one whole-grid pass.
    """
    pref = np.array([part.r0_tilde / TWO_PI for part, _ in points])[:, None, None]
    carry = np.zeros((len(points), rows, 1))
    for g, edges, panels in _plan_blocks(table):
        x, w = _gl4(edges)
        kc, ks = omega_kernels(x, table.gamma_tilde)
        phase = points[0][0].delta_tilde * x
        cosn = np.cos(phase)
        sinn = np.sin(phase) if rows > 1 else None
        trig_k = [t * k for t, k, _ in zip((cosn, sinn, sinn), (kc, ks, kc), range(rows))]
        sums = np.concatenate([carry, np.empty((len(points), rows, panels.size))], axis=2)
        for (part, kin), out in zip(points, sums[:, :, 1:]):
            pv = kernel_P(abs(kin.u) * x, part.orientation)
            for row, tk in zip(out, trig_k):
                term = tk * pv  # trig * kernel * P * w, multiplied in that order
                term *= w
                np.add.reduceat(term, panels, out=row)
        np.cumsum(sums, axis=2, out=sums)
        carry = sums[:, :, -1:]
        yield g, sums * pref


def coefficients_from_table(
    table: KernelTable, part: ParticleParams, kin: KinematicsParams
) -> CoefficientTrace:
    """Coefficient trace on a kernel table's grid (_panel_sums)."""
    grid = table.grid
    D, zeta, f = out = np.empty((3, grid.size))
    at = 0
    for g, (sums,) in _panel_sums(table, [(part, kin)], 3):
        out[:, at:at + g.size] = sums
        at += g.size - 1
    return CoefficientTrace(grid, D, f, zeta, "e1", part.delta_tilde)


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
    return coefficients_from_table(make_kernel_table(mat.gamma_tilde, grid), part, kin)


# ---------------------------------------------------------------------------
# Brute-force oracle: nested adaptive quadrature of the raw integrals
# ---------------------------------------------------------------------------


def coefficients_brute(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    grid,
) -> CoefficientTrace:
    """Validation oracle evaluating the raw double integrals numerically.

    The frequency integral runs up to 50 max(1, gamma_tilde) and is
    completed with the analytic tail of the 1/w^3 falloff
    (_frequency_kernels).  The delay integral of (D, f, zeta) is one
    adaptive quadrature per grid panel, each component to 1e-8 relative
    or 1e-10 absolute, whose G7K15 panels get both kernels at their 15
    delays from one frequency quadrature.  Cost is quadratic in the
    horizon and grows with gamma_tilde - use coarse grids.
    """
    g = _check_grid(grid)
    dt = part.delta_tilde
    gt = mat.gamma_tilde
    u = abs(kin.u)

    # (cos Kc P, sin Kc P, sin Ks P); one frequency quadrature per panel
    # row, as batching the rows multiplies the inner temporaries
    def integrand(tp: np.ndarray) -> np.ndarray:
        kc, ks = np.array([_frequency_kernels(row, gt) for row in tp]).swapaxes(0, 1)
        pv = kernel_P(u * tp, part.orientation)
        cosn, sinn = np.cos(dt * tp), np.sin(dt * tp)
        return np.stack([cosn * kc * pv, sinn * kc * pv, sinn * ks * pv], axis=-1)

    vals = np.zeros((g.size, 3))
    for i in range(1, g.size):
        vals[i] = vals[i - 1] + integrate_adaptive(
            integrand, g[i - 1], g[i], _ORACLE_REL_TOL, _ORACLE_ABS_TOL, max_subdivisions=16384
        ).value
    D, f, zeta = part.r0_tilde / TWO_PI * vals.T
    return CoefficientTrace(g, D, f, zeta, "brute", dt)


# ---------------------------------------------------------------------------
# Small-velocity analytic expansion
# ---------------------------------------------------------------------------

SMALL_U_LIMIT = 0.05


def _warn_past_small_u(u: float) -> None:
    """The one warning of both small-velocity routes (this module's
    trace and the analytic decoherence time) past |u| = SMALL_U_LIMIT,
    attributed to the route's caller."""
    if abs(u) > SMALL_U_LIMIT:
        warnings.warn(
            f"small-velocity expansion called with u = {abs(u)} > {SMALL_U_LIMIT}",
            stacklevel=3,
        )


def _by_parts(kappa: complex, t, derivs) -> np.ndarray:
    """Endpoint terms sum_k (-1)^k h^(k)(t) e^{i kappa t} / (i kappa)^{k+1}
    of int e^{i kappa s} h(s) ds, from derivs = [h, h', h'', ...] at t.

    Their difference between two endpoints is the integral up to the
    first omitted order, (-1)^K int e^{i kappa s} h^(K)(s) ds / (i kappa)^K.
    """
    terms = sum((-1) ** k * d / (1j * kappa) ** (k + 1) for k, d in enumerate(derivs))
    return np.exp(1j * kappa * t) * terms


def _exp_e1_antiderivative(a: complex, b: complex, t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """F(a) = int_0^t exp(a s) E1(b s) ds for rays Re(b s) along fixed
    directions, and its second derivative in a.

    F = N / a with N = e^{at} E1(bt) - E1(dt) - Log(d) + Log(b), d = b - a,
    both logarithms on their principal branches.  Only e^{at}, E1(dt) and
    Log(d) depend on a, with elementary derivatives:
        N'  = t e^{at} E1(bt) + (1 - e^{-dt}) / d,
        N'' = t^2 e^{at} E1(bt) + (1 - (1 + dt) e^{-dt}) / d^2,
    and F'' = (N'' - 2 N'/a + 2 N/a^2) / a.  Every factor is evaluated in
    the overflow-free scaled form e^z E1(z).
    """
    d = b - a
    decay = np.exp(-d * t)
    head = decay * exp_integral_e1_scaled(b * t)  # e^{at} E1(bt)
    n0 = head - decay * exp_integral_e1_scaled(d * t) - np.log(d) + np.log(b)
    rise = -np.expm1(-d * t)
    n1 = t * head + rise / d
    n2 = t * t * head + (rise - d * t * decay) / (d * d)
    return n0 / a, (n2 - 2.0 * n1 / a + 2.0 * n0 / (a * a)) / a


def _e1_correction_sums(w: complex, dt: float, t: np.ndarray):
    """Time integrals of the kernel's exponential-integral remainder.

    Returns (C, S, C'', S''): the cosine- and sine-weighted integrals
        C(t) = int_0^t cos(dt s) Im[G(i w s) + G(-i w s)] ds
        S(t) = int_0^t sin(dt s) Im[G(i w s) + G(-i w s)] ds
    and their second derivatives in dt, in closed form.
    """
    (t1, q1), (t2, q2), (t3, q3), (t4, q4) = [
        _exp_e1_antiderivative(a, b, t)
        for a, b in ((1j * (w + dt), 1j * w), (1j * (dt - w), -1j * w),
                     (1j * (w - dt), 1j * w), (-1j * (w + dt), -1j * w))
    ]
    # every a is +-i (w +- dt), so d2/d dt2 = (+-i)^2 d2/da2 = -d2/da2
    c = 0.5 * (t1 + t2 + t3 + t4).imag
    s = -0.5 * (t1 + t2 - t3 - t4).real
    cdd = -0.5 * (q1 + q2 + q3 + q4).imag
    sdd = 0.5 * (q1 + q2 - q3 - q4).real
    return c, s, cdd, sdd


def coefficients_analytic_small_u(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    grid,
) -> CoefficientTrace:
    """Stationary-phase expansion of the coefficients, O(u^2) accurate.

    Three ingredient groups: constant endpoint terms, envelope-modulated
    oscillations (envelope_derivatives), and the exponential-integral
    correction that restores accuracy at damping of order one.  Warns outside the
    validity window |u| <= 0.05.
    """
    g = _check_grid(grid)
    gt = mat.gamma_tilde
    dt = part.delta_tilde
    u = abs(kin.u)
    _warn_past_small_u(u)
    w, s4 = _pole_pair(gt)
    r0t = part.r0_tilde
    wts = orientation_weights(part.orientation)

    tpos = g[1:]  # every term vanishes identically at t = 0
    # int_0^t e^{i kappa s} P(u s) ds by parts, with the envelope's
    # derivatives exact, so the truncation error is O(u^4)
    u2 = u * u
    at_t = envelope_derivatives(u, tpos, part.orientation)
    at_0 = [wts.d_i / 8.0, 0.0, -12.0 * u2 * wts.d_a / 128.0]
    i_plus, i_minus = [
        _by_parts(kappa, tpos, at_t) - _by_parts(kappa, 0.0, at_0) for kappa in (w + dt, w - dt)
    ]

    res_pref = r0t / (4.0 * s4)
    d_res = res_pref * (i_plus.real + i_minus.real)
    f_res = res_pref * (i_plus.imag - i_minus.imag)
    z_res = -res_pref * (i_plus.real - i_minus.real)

    # exponential-integral correction with the envelope expanded to u^2
    c0, s0, cdd, sdd = _e1_correction_sums(w, dt, tpos)
    corr_pref = r0t / (TWO_PI * s4)
    d_corr = corr_pref * (wts.d_i / 8.0 * c0 + 3.0 / 64.0 * wts.d_a * u2 * cdd)
    f_corr = corr_pref * (wts.d_i / 8.0 * s0 + 3.0 / 64.0 * wts.d_a * u2 * sdd)

    D = np.concatenate([[0.0], d_res + d_corr])
    f = np.concatenate([[0.0], f_res + f_corr])
    zeta = np.concatenate([[0.0], z_res])
    return CoefficientTrace(g, D, f, zeta, "analytic", dt)


# ---------------------------------------------------------------------------
# Decoherence table and its stationary read-out (Markov limits)
# ---------------------------------------------------------------------------


# past this window the cosine kernel is its algebraic tail alone, whose
# remainder (_tail_slope_correction) leaves D_inf at rest within 4e-11 of
# its closed form up to gamma_tilde = 4 (6.3e-10 at 10) on the presets
_TAIL_WINDOW = 1000.0


def decoherence_window(delta_tilde: float, gamma_tilde: float) -> float:
    """Trace horizon (dimensionless time) after which every coefficient
    is constant (up to the corrected algebraic tail) and the accumulated
    diffusion continues linearly."""
    cycle = TWO_PI / delta_tilde
    return max(kernel_decay_time(gamma_tilde) + 2.0 * cycle, 3.0 * cycle, _TAIL_WINDOW)


def _tail_slope_correction(
    table: KernelTable, part: ParticleParams, kin: KinematicsParams
) -> float:
    """Analytic remainder D_inf - D(T) of the cosine kernel's tail past a
    decoherence_table's end T, at its damping, (r0t / 2 pi) times
        int_T^inf cos(dt s) g(s) ds,  g = (C_0/s^2 + C_1/s^4) P(u s),
    C_n from _cos_tail_coefficients, by parts (_by_parts) on g and its
    derivatives (envelope_derivatives) to O(T^-4); the residual scales
    like 1/(dt^4 T^5) and is negligible past the decoherence window."""
    c0, c1 = _cos_tail_coefficients(table.gamma_tilde)[:2]
    t = float(table.segments[-1].stop)
    p, dp, d2p = envelope_derivatives(abs(kin.u), t, part.orientation)
    # the tail and its derivatives; those of C_1/s^4 are O(T^-5)
    k, dk, d2k = c0 / t**2 + c1 / t**4, -2.0 * c0 / t**3, 6.0 * c0 / t**4
    g = [k * p, dk * p + k * dp, d2k * p + 2.0 * dk * dp + k * d2p]
    return -part.r0_tilde / TWO_PI * float(_by_parts(part.delta_tilde, t, g).real)


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
    pts_per_cycle: int = DEFAULT_PTS_PER_CYCLE,
) -> KernelTable:
    """Kernel table (the plan, KernelTable) on the decoherence-extraction
    grid, time_grid over the decoherence window graded toward t = 0
    (_graded_start), which it holds as that head and the segments after it.

    It serves every velocity and orientation at its level spacing; the
    kernels, which dominate the cost, are evaluated in each pass over it,
    once for all the points a sweep reads at that spacing.  The grid
    density is set here alone, from the pts_per_cycle of the numeric or
    Markov route that builds the table.  A window too long for the node
    budget is refused with the remedy on the level spacing: to lower it
    while the dense spacing is cycle / pts_per_cycle, else to raise it;
    a window of no finite length names the parameter that makes it so.
    """
    gt = mat.gamma_tilde
    cycle = TWO_PI / delta_tilde
    window = decoherence_window(delta_tilde, gt)
    if not window < math.inf:
        _check_table_nodes(math.inf, "raise delta_tilde" if cycle == math.inf else
                           ("raise" if gt < 2.0 else "lower") + " gamma_tilde", grid=False)
    remedy = ("lower" if cycle / pts_per_cycle < 0.1 else "raise") + " delta_tilde"
    dense, *sparse = _time_segments(delta_tilde, gt, window / cycle, pts_per_cycle, remedy,
                                    grid=False)
    # the dense points up to t = 1 and one past it, of spacing <= 0.1
    start = dense.points(0, min(dense.n + 1, int(dense.n / dense.stop) + 3))
    k = int(np.searchsorted(start, 1.0, side="right"))
    return make_kernel_table(gt, _graded_start(start[:k]), [dense._replace(first=k), *sparse])


def _stationary_readout(
    points: Sequence[tuple[ParticleParams, KinematicsParams]], table: KernelTable,
    rows: int = 1,
) -> list[tuple[float, float, float, float]]:
    """The read-out of the trace's end, shared by the numeric and Markov
    routes, of (part, kin) points at one level spacing, from one pass of
    their first rows of (D, zeta) (_panel_sums) over their
    decoherence_table, which holds no grid-sized array.

    Per point (D_inf, zeta_end, cumD_end, tau): D's end plus the tail
    remainder at the table's damping (_tail_slope_correction); zeta's
    end (nan unless rows = 2); cumD's end, D's cumulative_integral
    continued block to block from its carry; and cumD's first crossing
    of 1 (D may turn negative, so later ones may follow), closed-form on
    its linear segment, else on the continuation at slope D_inf, or nan.
    """
    t_end = float(table.segments[-1].stop)
    cum, tau = np.zeros(len(points)), np.full(len(points), math.nan)
    for g, sums in _panel_sums(table, points, rows):
        c = cumulative_integral(g, sums[:, 0], cum)
        cum = c[:, -1]
        for k in np.flatnonzero(np.isnan(tau) & np.any(c >= 1.0, axis=1)):
            i = int(np.argmax(c[k] >= 1.0))
            tau[k] = g[i - 1] + (1.0 - c[k, i - 1]) * (g[i] - g[i - 1]) / (c[k, i] - c[k, i - 1])
    out = []
    for (part, kin), end, c_end, t in zip(points, sums[:, :, -1], cum, tau):
        d_inf = float(end[0]) + _tail_slope_correction(table, part, kin)
        if math.isnan(t) and d_inf > 0.0:
            t = t_end + (1.0 - c_end) / d_inf
        out.append((d_inf, float(end[1]) if rows > 1 else math.nan, float(c_end), float(t)))
    return out


# smallest resolved stationary population (1 - zeta/D)/2; the worst
# error of 1 - zeta/D at rest on the presets is 2.4e-10 (rb-nsi)
MARKOV_REL_TOL = 1e-9


@dataclass(frozen=True)
class MarkovCoefficients:
    """Asymptotic coefficient values D_inf, zeta_inf, as read (D_inf may be <= 0)."""

    D_inf: float
    zeta_inf: float


def markov_limit(
    mat: MaterialParams,
    part: ParticleParams,
    kin: KinematicsParams,
    pts_per_cycle: int = DEFAULT_PTS_PER_CYCLE,
) -> MarkovCoefficients:
    """Exact t -> inf coefficient constants, read off a trace on the
    particle's decoherence_table at pts_per_cycle.

    D_inf is D at the trace's end plus the analytic remainder of the
    cosine kernel's 1/t^2 tail; zeta_inf is zeta there, the sine kernel
    being a pure pole term.  Exact in the velocity; at u = 0 the
    diffusion constant reduces to r0_tilde d_i J(delta_tilde) / 32.
    """
    table = decoherence_table(mat, part.delta_tilde, pts_per_cycle)
    d_inf, zeta_end, _, _ = _stationary_readout([(part, kin)], table, rows=2)[0]
    return MarkovCoefficients(d_inf, zeta_end)

"""Language-agnostic numerical kernel.

Pure functions only: exponential integrals E1 (complex) and Ei, globally
adaptive Gauss-Kronrod quadrature, cumulative trapezoid integration
continued from a carried start, and bracketed bisection root solving.
Everything accepts/returns plain floats, complex numbers or numpy arrays
and holds no shared mutable state, so concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from qfd.errors import BracketError, ConvergenceError, DomainError, GridError

EULER_GAMMA = 0.5772156649015328606065120900824024

# ---------------------------------------------------------------------------
# Complex exponential integral E1
# ---------------------------------------------------------------------------

_SERIES_RADIUS = 4.0
_SERIES_MAX_TERMS = 160
_CF_MAX_ITER = 500
# Arguments per block of _e1, which runs every branch on its share of a
# block.  Blocks bound the working arrays, and they keep the series below
# 16,384 arguments (256 KiB), the call size from which it rounded some
# results differently in the last bit (likely numpy reusing temporaries
# in place).  2^12 to 2^17 timed the same for the continued fraction.
_E1_BLOCK = 1 << 13
# Near the branch cut the continued fraction stalls while the power series
# stays perfectly conditioned (the sum grows like e^{-Re z}), so the series
# region is widened to a lens hugging the negative real axis; past
# |z| = 40 the lens takes 40 terms of the asymptotic series.
_SERIES_CUT_COS = -0.8
_SERIES_CUT_RADIUS = 40.0


def _e1_series(z: np.ndarray) -> np.ndarray:
    """Power series  E1(z) = -gamma - Log z - sum (-z)^k / (k k!)  (_e1_branches)."""
    term = np.ones_like(z)
    acc = np.zeros_like(z)
    for k in range(1, _SERIES_MAX_TERMS + 1):
        term = term * (-z) / k
        add = -term / k
        acc = acc + add
        if np.all(np.abs(add) <= 1e-18 * (np.abs(acc) + 1e-300)):
            break
    return -EULER_GAMMA - np.log(z) + acc


def _e1_cf_scaled(z: np.ndarray) -> tuple[np.ndarray, int | None]:
    """Scaled integral e^z E1(z) by the contracted continued fraction.

    Modified Lentz iteration on
        e^z E1(z) = 1 / (z + 1 - 1^2/(z + 3 - 2^2/(z + 5 - ...)))
    Converges off the negative real axis; slowest near the cut.  Each
    element follows the same recurrence until its own step meets the
    tolerance; it is then stored and dropped from the active set, so an
    iteration costs only the elements still running.  Returns the values
    and the index of the first element left unconverged (its value the
    best estimate), or None.
    """
    tiny = 1e-290
    b = z + 1.0
    c = np.full_like(z, 1.0 / tiny)
    h = out = 1.0 / b
    d = h.copy()
    active = np.arange(z.size)
    for i in range(1, _CF_MAX_ITER + 1):
        a = -float(i * i)
        b = b + 2.0
        d = 1.0 / (a * d + b)
        c = b + a / c
        delta = c * d
        h = h * delta
        done = np.abs(delta - 1.0) < 1e-16
        if done.any():
            out[active[done]] = h[done]
            running = ~done
            active = active[running]
            if active.size == 0:
                return out, None
            b = b[running]
            c = c[running]
            d = d[running]
            h = h[running]
    out[active] = h
    return out, int(active[0])


def _e1_asymptotic_scaled(z: np.ndarray) -> np.ndarray:
    """Asymptotic series  e^z E1(z) ~ sum_k<40 (-1)^k k! / z^(k+1)  (A&S
    5.1.51), for |z| > 40 in the lens about the negative real axis."""
    term = 1.0 / z
    acc = term
    for k in range(1, 40):
        term = term * (-k / z)
        acc = acc + term
    return acc


def _check_e1_domain(z: np.ndarray) -> None:
    if np.any(z == 0):
        raise DomainError("E1 is singular at z = 0")
    on_cut = (z.imag == 0) & (z.real < 0)
    if np.any(on_cut):
        raise DomainError("E1 principal branch is discontinuous on the negative real axis")


def _e1_branches(z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Power-series and asymptotic masks; the rest take the continued fraction."""
    az = np.abs(z)
    lens = z.real <= _SERIES_CUT_COS * az
    series = (az <= _SERIES_RADIUS) | (lens & (az <= _SERIES_CUT_RADIUS))
    return series, lens & ~series


def _e1(z, scaled: bool, check: bool = True):
    """E1(z), or e^z E1(z) if scaled, each argument by its branch; a
    scalar for a scalar z.  check=False admits the upper lip of the cut.
    Blocks of _E1_BLOCK arguments make every result the same whatever the
    size of the call; a stalled continued fraction raises after the last
    block, with every argument's best value.
    """
    scalar = np.isscalar(z) or (isinstance(z, np.ndarray) and z.ndim == 0)
    zz = np.atleast_1d(np.asarray(z, dtype=complex))
    if check:
        _check_e1_domain(zz)
    out = np.empty_like(zz)
    stuck = None
    for lo in range(0, zz.size, _E1_BLOCK):
        zb = zz[lo : lo + _E1_BLOCK]
        ob = out[lo : lo + _E1_BLOCK]
        series, asymptotic = _e1_branches(zb)
        if series.any():
            zm = zb[series]
            ob[series] = np.exp(zm) * _e1_series(zm) if scaled else _e1_series(zm)
        if asymptotic.any():
            zm = zb[asymptotic]
            value = _e1_asymptotic_scaled(zm)
            ob[asymptotic] = value if scaled else value * np.exp(-zm)
        cf = ~(series | asymptotic)
        if cf.any():
            zm = zb[cf]
            value, first = _e1_cf_scaled(zm)
            ob[cf] = value if scaled else value * np.exp(-zm)
            if stuck is None and first is not None:
                stuck = zm[first]
    if stuck is not None:
        raise ConvergenceError(
            f"continued fraction for E1 did not converge "
            f"(first unconverged argument {stuck!r})",
            best_estimate=out,
        )
    return complex(out[0]) if scalar else out


def exp_integral_e1(z):
    """Principal-branch exponential integral E1(z) for complex z.

    Power series for |z| <= 4 and in a lens about the negative real axis
    to |z| = 40, asymptotic series beyond it, continued fraction elsewhere;
    neighbouring branches agree to ~1e-13.  E1(conj z) = conj(E1(z)).

    Raises DomainError for z = 0 or z on the branch cut (negative real
    axis).  May overflow to inf for Re z << -700, where E1 itself exceeds
    float range; use :func:`exp_integral_e1_scaled` in that regime.
    """
    return _e1(z, scaled=False)


def exp_integral_e1_scaled(z):
    """Scaled exponential integral  e^z E1(z),  stable for large |z|.

    Same branches, conventions and domain restrictions as exp_integral_e1.
    """
    return _e1(z, scaled=True)


def exp_integral_ei_scaled(x) -> np.ndarray:
    """Scaled exponential integral  e^{-x} Ei(x)  for real x > 0, as an array:
    -Re[e^z E1(z)] on the upper lip z = -x + i0 of the cut, in the lens."""
    xx = np.atleast_1d(np.asarray(x, dtype=float))
    if not np.all(xx > 0):
        raise DomainError("Ei is evaluated here only for x > 0")
    return -_e1(-xx + 0j, scaled=True, check=False).real


# ---------------------------------------------------------------------------
# Adaptive Gauss-Kronrod quadrature (G7,K15)
# ---------------------------------------------------------------------------

# Classic QUADPACK 15-point Kronrod abscissae/weights with the embedded
# 7-point Gauss rule (positive half; symmetric).
_XGK = np.array([
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
])
_WGK = np.array([
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
])
_WG = np.array([
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
])

# Full 15-node layout: [-x0..-x6, 0, x6..x0] ordered ascending.
_NODES = np.concatenate([-_XGK[:7], _XGK[7:][::-1], _XGK[6::-1]])
_WK_FULL = np.concatenate([_WGK[:7], _WGK[7:][::-1], _WGK[6::-1]])
_WG_FULL = np.zeros(15)
_WG_FULL[1:14:2] = np.concatenate([_WG[:3], _WG[3:][::-1], _WG[2::-1]])


@dataclass(frozen=True)
class QuadratureResult:
    """Value, conservative error estimate and integrand evaluation count;
    arrays of the component shape for a vector-valued integrand."""

    value: float | np.ndarray
    abs_error_estimate: float | np.ndarray
    evaluations: int

    def __post_init__(self):
        if np.any(self.abs_error_estimate < 0):
            raise DomainError("abs_error_estimate must be >= 0")
        if self.evaluations < 1:
            raise DomainError("evaluations must be >= 1")


def integrate_adaptive(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    rel_tol: float = 1e-8,
    abs_tol: float = 1e-10,
    max_subdivisions: int = 4096,
) -> QuadratureResult:
    """Globally adaptive G7/K15 quadrature of f over [lo, hi].

    The panel set is refined by synchronous bisection: every panel whose
    Kronrod-Gauss discrepancy exceeds its width-proportional share of the
    global tolerance is split, so the evaluation order (and hence the
    result) is deterministic.  f is called on 2-D numpy arrays of nodes
    and must return an array of that shape, optionally followed by
    component axes: the components share one panel set, and a panel is
    split while any component misses its share of that component's own
    tolerance max(abs_tol, rel_tol |total|).  A result of another leading
    shape raises DomainError.

    Raises ConvergenceError carrying the best estimate when the panel
    budget is exhausted before the tolerance is met.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if rel_tol <= 0 or abs_tol <= 0:
        raise DomainError("tolerances must be positive")
    span = hi - lo

    def panel_eval(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        nodes = mid[:, None] + half[:, None] * _NODES[None, :]
        y = np.asarray(f(nodes), dtype=float)
        if y.shape[:2] != nodes.shape:
            raise DomainError(
                f"integrand returned shape {y.shape} for nodes of shape {nodes.shape}"
            )
        finite = np.isfinite(y).reshape(*nodes.shape, -1).all(axis=2)
        if not np.all(finite):
            raise DomainError(f"integrand not finite at x = {nodes[~finite][0]}")
        # weights along the node axis, the panel width over the panel axis
        trailing = (1,) * (y.ndim - 2)
        half = half.reshape(-1, *trailing)
        k15 = (y * _WK_FULL.reshape(15, *trailing)).sum(axis=1) * half
        g7 = (y * _WG_FULL.reshape(15, *trailing)).sum(axis=1) * half
        return k15, np.abs(k15 - g7)

    a = np.array([lo], dtype=float)
    b = np.array([hi], dtype=float)
    val, err = panel_eval(a, b)
    evaluations = 15
    # floats for a scalar integrand, component arrays otherwise
    out = float if val.ndim == 1 else np.asarray

    for _ in range(256):
        total = val.sum(axis=0)
        tol = np.maximum(abs_tol, rel_tol * np.abs(total))
        global_err = err.sum(axis=0)
        if np.all(global_err <= tol):
            return QuadratureResult(out(total), out(global_err), evaluations)
        # split every panel where some component's error exceeds its
        # width-proportional share of its budget; if all panels meet their
        # shares every global error is below its tol, so progress is
        # guaranteed
        share = tol * (b - a).reshape(err.shape[:1] + (1,) * (err.ndim - 1)) / span
        bad = (err > share).reshape(a.size, -1).any(axis=1)
        if not np.any(bad):
            return QuadratureResult(out(total), out(global_err), evaluations)
        if a.size + int(bad.sum()) > max_subdivisions:
            worst = float(np.max(global_err))
            raise ConvergenceError(
                f"quadrature did not converge within {max_subdivisions} panels "
                f"(largest error {worst!r})",
                best_estimate=out(total),
                error_estimate=out(global_err),
            )
        mid_bad = 0.5 * (a[bad] + b[bad])
        ca = np.concatenate([a[bad], mid_bad])
        cb = np.concatenate([mid_bad, b[bad]])
        cval, cerr = panel_eval(ca, cb)
        evaluations += 15 * ca.size
        a = np.concatenate([a[~bad], ca])
        b = np.concatenate([b[~bad], cb])
        val = np.concatenate([val[~bad], cval])
        err = np.concatenate([err[~bad], cerr])
        order = np.argsort(a, kind="stable")
        a, b, val, err = a[order], b[order], val[order], err[order]

    raise ConvergenceError(
        "quadrature exceeded maximum refinement depth",
        best_estimate=out(val.sum(axis=0)),
        error_estimate=out(err.sum(axis=0)),
    )


# ---------------------------------------------------------------------------
# Cumulative integration
# ---------------------------------------------------------------------------


def cumulative_integral(t: Sequence[float], y: np.ndarray, start=0.0) -> np.ndarray:
    """Composite-trapezoid cumulative integral Y(t_i) = start + int_{t_0}^{t_i} y dt
    along y's last axis, start one value or one per row.

    Second-order accurate on arbitrary strictly increasing grids;
    Y(t_0) = start exactly and Y is nondecreasing wherever y >= 0.  The
    trapezoids (y[1:] + y[:-1]) (0.5 dt) take one cumulative sum with
    start in front, so a row continued a block at a time from its carry
    is bit for bit the whole row's.
    """
    tt = np.asarray(t, dtype=float)
    yy = np.asarray(y, dtype=float)
    if tt.ndim != 1 or yy.shape[-1:] != tt.shape:
        raise GridError("t must be a 1-D array as long as y's last axis")
    if tt.size < 2:
        raise GridError("need at least 2 samples")
    dt = np.diff(tt)
    if np.any(dt <= 0):
        raise GridError("abscissae must be strictly increasing without duplicates")
    dt *= 0.5
    out = np.empty(yy.shape)
    out[..., 0] = start
    steps = np.add(yy[..., 1:], yy[..., :-1], out=out[..., 1:])
    steps *= dt
    return np.cumsum(out, axis=-1, out=out)


# ---------------------------------------------------------------------------
# Bracketed root solving
# ---------------------------------------------------------------------------


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: float = 1e-12,
) -> float:
    """Bisection root of f on [lo, hi] down to bracket width <= tol.

    Requires a sign change (f(lo) * f(hi) <= 0); deterministic.
    """
    if not lo < hi:
        raise DomainError(f"need lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise DomainError("tol must be positive")
    fa = float(f(lo))
    fb = float(f(hi))
    if fa == 0.0:
        return lo
    if fb == 0.0:
        return hi
    if fa * fb > 0:
        raise BracketError(f"no sign change on [{lo}, {hi}]: f={fa!r}, {fb!r}")
    a, b = lo, hi
    for _ in range(4096):
        m = 0.5 * (a + b)
        if (b - a) <= tol or m == a or m == b:
            return m
        fm = float(f(m))
        if fm == 0.0:
            return m
        if fa * fm < 0:
            b = m
        else:
            a, fa = m, fm
    return 0.5 * (a + b)

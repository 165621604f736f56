"""Numerical kernel tests: E1, quadrature, cumulative integrals, roots."""

import math

import mpmath
import numpy as np
import pytest

from qfd import numerics
from qfd.errors import BracketError, ConvergenceError, DomainError, GridError
from qfd.numerics import (
    QuadratureResult,
    cumulative_integral,
    exp_integral_e1,
    exp_integral_e1_scaled,
    exp_integral_ei_scaled,
    find_root_bracketed,
    integrate_adaptive,
    quartic_roots,
)


# ---------------------------------------------------------------------------
# exponential integral
# ---------------------------------------------------------------------------


def mp_e1(z: complex) -> complex:
    return complex(mpmath.e1(mpmath.mpc(z.real, z.imag)))


def test_e1_at_one():
    # high-precision series value, frozen: E1(1) = 0.21938393439552026...
    assert exp_integral_e1(1.0 + 0.0j) == pytest.approx(0.2193839344, abs=1e-9)


# 178 deg and 26 to 41: near the cut, where the continued fraction stalls,
# about the end of the series lens at |z| = 40
@pytest.mark.parametrize("deg", [5, 45, 89, 91, 120, 150, 170, 178, -30, -120])
@pytest.mark.parametrize("mag", [0.01, 0.5, 2.0, 4.0, 4.5, 10.0, 26.0, 39.9, 41.0, 50.0, 300.0])
def test_e1_against_mpmath(deg, mag):
    z = mag * np.exp(1j * math.radians(deg))
    ref = mp_e1(complex(z))
    got = exp_integral_e1(complex(z))
    assert abs(got - ref) <= 1e-12 * abs(ref)


def test_e1_reflection_symmetry():
    # Schwarz reflection across the real axis, 100 random points off the cut
    rng = np.random.default_rng(7)
    mags = rng.uniform(0.05, 80.0, 100)
    args = rng.uniform(-0.95 * np.pi, 0.95 * np.pi, 100)
    z = mags * np.exp(1j * args)
    lhs = exp_integral_e1(np.conj(z))
    rhs = np.conj(exp_integral_e1(z))
    scale = np.abs(rhs)
    assert np.all(np.abs(lhs - rhs) <= 1e-12 * np.maximum(scale, 1e-300))


def test_e1_reflection_specific():
    z = 0.5 + 2.0j
    assert abs(exp_integral_e1(z.conjugate()) - exp_integral_e1(z).conjugate()) <= 1e-12


@pytest.mark.parametrize("deg", [0, 30, 60, 85])
def test_e1_asymptotic_leading_term(deg):
    # E1(z) ~ e^-z / z within 1% for |z| >= 100 along rays with Re z > 0
    z = 100.0 * np.exp(1j * math.radians(deg))
    approx = np.exp(-z) / z
    exact = exp_integral_e1(complex(z))
    assert abs(approx - exact) <= 1e-2 * abs(exact)


def test_e1_series_cf_overlap():
    # the two evaluation regimes agree across the switchover circle
    rng = np.random.default_rng(11)
    for arg in np.linspace(-2.6, 2.6, 25):
        for eps in (-1e-9, 1e-9):
            z = (4.0 + eps) * np.exp(1j * arg)
            ref = mp_e1(complex(z))
            assert abs(exp_integral_e1(complex(z)) - ref) <= 1e-12 * abs(ref)


def test_e1_scaled_consistency():
    z = 3.0 + 1.5j
    assert exp_integral_e1_scaled(z) == pytest.approx(
        np.exp(z) * exp_integral_e1(z), rel=1e-14
    )
    # scaled form stays finite where the bare one would overflow
    big = -800.0 + 400.0j
    val = exp_integral_e1_scaled(big)
    assert np.isfinite(val.real) and np.isfinite(val.imag)


def test_e1_scaled_array_matches_scalar_calls_bitwise():
    # more than two blocks of continued-fraction (converging after 3 to
    # 120 iterations) and asymptotic arguments, shuffled with power-series
    # arguments; a pool of distinct arguments keeps the scalar reference
    # calls few.
    rng = np.random.default_rng(3)
    z = np.geomspace(0.05, 3000.0, 400) * np.exp(1j * rng.uniform(-3.0, 3.0, 400))
    z = np.concatenate([z, [-30.0 + 8.0j, -20.0 + 20.0j, -20.0 + 1.0j, -25.0 - 0.5j]])
    series = numerics._e1_branches(z)[0]
    pool = np.concatenate([z[~series], z[series]])
    n_cf = int((~series).sum())
    which = rng.permutation(np.concatenate([
        np.arange(2 * numerics._E1_BLOCK + 1000) % n_cf,
        n_cf + np.arange(20 * (pool.size - n_cf)) % (pool.size - n_cf),
    ]))
    got = exp_integral_e1_scaled(pool[which])
    ref = np.array([exp_integral_e1_scaled(complex(z)) for z in pool])[which]
    assert np.array_equal(got.view(float), ref.view(float))


def test_e1_series_array_matches_scalar_calls_bitwise():
    # a call of 16,384 or more series arguments once rounded some results
    # differently in the last bit from the same arguments taken alone
    rng = np.random.default_rng(5)
    pool = 4.0 * np.sqrt(rng.uniform(0.0, 1.0, 500)) * np.exp(
        1j * rng.uniform(-math.pi, math.pi, 500)
    )
    which = rng.integers(0, pool.size, 29_608)
    assert numerics._e1_branches(pool)[0].all()
    got = exp_integral_e1(pool[which])
    ref = np.array([exp_integral_e1(complex(z)) for z in pool])[which]
    assert np.array_equal(got.view(float), ref.view(float))


def test_e1_continued_fraction_failure_names_an_argument(monkeypatch):
    monkeypatch.setattr(numerics, "_CF_MAX_ITER", 2)
    # -30+24j: just outside the series lens, the slowest arguments the
    # continued fraction takes
    z = np.array([5.0 + 1.0j, 40.0 - 3.0j, -30.0 + 24.0j])
    with pytest.raises(ConvergenceError) as info:
        exp_integral_e1_scaled(z)
    assert info.value.best_estimate.shape == z.shape
    assert "(5+1j)" in str(info.value)


def test_e1_continued_fraction_failure_in_a_later_block(monkeypatch):
    # the first block converges; the error names the second block's argument
    monkeypatch.setattr(numerics, "_CF_MAX_ITER", 3)
    monkeypatch.setattr(numerics, "_E1_BLOCK", 2)
    z = np.array([3000.0j, 1e4 + 0.0j, 5.0 + 1.0j, 1e5 + 1.0j, 40.0 - 3.0j])
    with pytest.raises(ConvergenceError) as info:
        exp_integral_e1_scaled(z)
    best = info.value.best_estimate
    assert best.shape == z.shape
    assert "(5+1j)" in str(info.value)
    assert np.array_equal(best[[0, 1, 3]], exp_integral_e1_scaled(z[[0, 1, 3]]))


def test_e1_domain_errors():
    with pytest.raises(DomainError):
        exp_integral_e1(0.0 + 0.0j)
    with pytest.raises(DomainError):
        exp_integral_e1(-1.0 + 0.0j)
    with pytest.raises(DomainError):
        exp_integral_e1(np.array([1.0 + 0j, -2.0 + 0j]))
    with pytest.raises(DomainError):
        exp_integral_ei_scaled(np.array([1.0, 0.0]))


def test_ei_scaled_against_mpmath():
    # both E1 branches of the cut's upper lip: the series to x = 40 and
    # the asymptotic series beyond
    x = np.concatenate([np.geomspace(1e-6, 1e4, 120), [39.999, 40.0, 40.001]])
    got = exp_integral_ei_scaled(x)
    ref = np.array([float(mpmath.exp(-mpmath.mpf(v)) * mpmath.ei(v)) for v in x])
    assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref))


# ---------------------------------------------------------------------------
# adaptive quadrature
# ---------------------------------------------------------------------------


def test_quadrature_sine():
    res = integrate_adaptive(np.sin, 0.0, math.pi, rel_tol=1e-12, abs_tol=1e-14)
    assert res.value == pytest.approx(2.0, abs=1e-10)
    assert res.evaluations >= 15


def test_quadrature_zero_integrand():
    res = integrate_adaptive(lambda x: 0.0 * x, 0.0, 1.0)
    assert res.value == 0.0


@pytest.mark.parametrize("degree", [3, 7, 11, 13])
def test_quadrature_polynomial_exactness(degree):
    # K15 integrates polynomials up to degree 22 exactly; check a few on
    # an awkward interval against the closed-form antiderivative
    a, b = -1.7, 2.3
    exact = (b ** (degree + 1) - a ** (degree + 1)) / (degree + 1)
    res = integrate_adaptive(lambda x: x**degree, a, b)
    assert res.value == pytest.approx(exact, abs=1e-12 * max(1.0, abs(exact)))


def test_quadrature_spectral_density_vs_residue_form():
    # truncated integral of the surface response matches the exact value
    # (pi - 2 arg w_r)/sqrt(4 - gt^2) once the tail estimate is added
    from qfd.model import pole_omega_r, spectral_density
    from qfd.coefficients import _frequency_kernel

    gt = 1.0
    w = pole_omega_r(gt).omega_r
    exact = (math.pi - 2.0 * np.angle(w)) / math.sqrt(4.0 - gt * gt)
    got = _frequency_kernel(0.0, gt, "cos", 50.0, rel_tol=1e-12, abs_tol=1e-14)
    assert got == pytest.approx(exact, abs=1e-9)
    # raw truncation at 50 leaves a visible tail; the estimate closes it
    raw = integrate_adaptive(
        lambda om: spectral_density(om, gt), 0.0, 50.0, rel_tol=1e-12, abs_tol=1e-14
    ).value
    assert abs(raw - exact) > 1e-5
    assert abs(got - exact) < 1e-6


def test_quadrature_errors():
    with pytest.raises(DomainError):
        integrate_adaptive(np.sin, 1.0, 1.0)
    with pytest.raises(DomainError):
        integrate_adaptive(np.sin, 0.0, 1.0, rel_tol=-1.0)
    # exhausting the panel budget raises and carries the best estimate
    with pytest.raises(ConvergenceError) as info:
        integrate_adaptive(
            lambda x: np.cos(200.0 * x),
            0.0,
            40.0,
            rel_tol=1e-14,
            abs_tol=1e-16,
            max_subdivisions=8,
        )
    assert info.value.best_estimate is not None


def test_quadrature_result_invariants():
    with pytest.raises(DomainError):
        QuadratureResult(value=1.0, abs_error_estimate=-1.0, evaluations=15)
    with pytest.raises(DomainError):
        QuadratureResult(value=1.0, abs_error_estimate=0.0, evaluations=0)


def test_quadrature_wrong_shape_raises():
    # integrands get the node array; a result of another shape is refused,
    # not retried node by node
    with pytest.raises(DomainError, match="shape"):
        integrate_adaptive(lambda x: np.sum(np.exp(-x)), 0.0, 3.0)
    with pytest.raises(DomainError, match="shape"):
        integrate_adaptive(lambda x: np.exp(-x).ravel(), 0.0, 3.0)


# ---------------------------------------------------------------------------
# cumulative integration
# ---------------------------------------------------------------------------


def test_cumulative_constant_exact():
    t = np.linspace(0.0, 5.0, 6)
    out = cumulative_integral(t, np.ones(6))
    assert out[0] == 0.0
    assert out[-1] == 5.0


def test_cumulative_linear_exact():
    t = np.linspace(0.0, 2.0, 9)
    out = cumulative_integral(t, t)
    assert out[-1] == pytest.approx(2.0, abs=1e-14)


def test_cumulative_nonnegative_monotone():
    rng = np.random.default_rng(3)
    t = np.sort(rng.uniform(0, 10, 50))
    t[0] = 0.0
    y = rng.uniform(0, 1, 50)
    out = cumulative_integral(t, y)
    assert np.all(np.diff(out) >= 0.0)


def test_cumulative_matches_adaptive_of_interpolant():
    # diffusion-coefficient samples: trapezoid equals adaptive quadrature
    # of the piecewise-linear interpolant
    from qfd.coefficients import coefficients_e1, time_grid
    from qfd.model import KinematicsParams, preset

    mat, part = preset("nv-nsi")
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 2.0, 64)
    tr = coefficients_e1(mat, part, KinematicsParams(u=0.003), grid)
    ref = integrate_adaptive(
        lambda x: np.interp(x, grid, tr.D), grid[0], grid[-1],
        rel_tol=1e-10, abs_tol=1e-13,
    )
    assert tr.cumD[-1] == pytest.approx(ref.value, abs=1e-6)


def test_cumulative_errors():
    with pytest.raises(GridError):
        cumulative_integral([0.0, 1.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(GridError):
        cumulative_integral([0.0, 2.0, 1.0], [1.0, 1.0, 1.0])
    with pytest.raises(GridError):
        cumulative_integral([0.0], [1.0])
    with pytest.raises(GridError):
        cumulative_integral([0.0, 1.0], [1.0, 1.0, 1.0])


# ---------------------------------------------------------------------------
# root solving
# ---------------------------------------------------------------------------


def test_root_linear():
    assert find_root_bracketed(lambda x: x - 1.0, 0.0, 2.0, 1e-12) == pytest.approx(
        1.0, abs=1e-12
    )


def test_root_cosine():
    assert find_root_bracketed(math.cos, 1.0, 2.0, 1e-10) == pytest.approx(
        math.pi / 2, abs=1e-9
    )


def test_root_no_bracket():
    with pytest.raises(BracketError):
        find_root_bracketed(lambda x: x * x + 1.0, -1.0, 1.0)


def test_root_decoherence_crossing_vs_scan_oracle():
    # envelope crossing e^-2 <=> cumD = 1, against a dense-scan bisection
    from qfd.decoherence import cumulative_diffusion
    from qfd.model import KinematicsParams, preset

    mat, part = preset("nv-nsi")
    _, cum_d = cumulative_diffusion(mat, part, KinematicsParams(u=0.15))

    def f(t):
        return math.exp(-2.0 * cum_d(t)) - math.exp(-2.0)

    lo, hi = 1.0, 4.0e4
    tol = 1e-6
    root = find_root_bracketed(f, lo, hi, tol)
    # oracle: coarse scan for the sign change, then plain halving
    ts = np.linspace(lo, hi, 20001)
    vals = np.array([f(t) for t in ts])
    k = int(np.argmax(vals <= 0.0))
    a, b = ts[k - 1], ts[k]
    while b - a > tol:
        m = 0.5 * (a + b)
        if f(a) * f(m) <= 0:
            b = m
        else:
            a = m
    assert root == pytest.approx(0.5 * (a + b), abs=2 * tol)


# ---------------------------------------------------------------------------
# quartic roots
# ---------------------------------------------------------------------------


def _response_quartic(gt: float) -> tuple[float, float, float, float, float]:
    # (w^2 - 1)^2 + gt^2 w^2 as a quartic in w
    return (1.0, 0.0, gt * gt - 2.0, 0.0, 1.0)


def test_quartic_unit_damping():
    # factorizing x^2 - x + 1 = 0 in x = w^2 gives w = +-exp(+-i pi/6)
    roots = quartic_roots(*_response_quartic(1.0))
    expected = np.array(
        sorted(
            [
                math.sqrt(3) / 2 + 0.5j,
                math.sqrt(3) / 2 - 0.5j,
                -math.sqrt(3) / 2 + 0.5j,
                -math.sqrt(3) / 2 - 0.5j,
            ],
            key=lambda z: (z.real, z.imag),
        )
    )
    assert np.allclose(roots, expected, atol=1e-10)


def test_quartic_undamped_double_roots():
    roots = quartic_roots(*_response_quartic(0.0))
    assert np.allclose(np.sort(roots.real), [-1, -1, 1, 1], atol=1e-7)
    assert np.allclose(roots.imag, 0.0, atol=1e-7)


def test_quartic_overdamped_imaginary():
    # beyond critical damping every pole sits on the imaginary axis
    roots = quartic_roots(*_response_quartic(3.0))
    assert np.allclose(roots.real, 0.0, atol=1e-10)
    assert np.all(np.abs(roots.imag) > 0.1)


def test_quartic_conjugate_closure_and_residual():
    rng = np.random.default_rng(5)
    for _ in range(200):
        c = rng.uniform(-5, 5, 5)
        if abs(c[0]) < 0.1:
            c[0] = 1.0
        roots = quartic_roots(*c)
        scale = max(np.max(np.abs(roots)), 1.0)
        # conjugate-closed set
        for r in roots:
            assert np.min(np.abs(roots - np.conj(r))) <= 1e-10 * scale
        # residual after the polish step
        res = np.abs(np.polyval(c, roots))
        assert np.all(res <= 1e-10 * np.max(np.abs(c)) * scale**4)


def test_quartic_leading_zero():
    with pytest.raises(DomainError):
        quartic_roots(0.0, 1.0, 1.0, 1.0, 1.0)

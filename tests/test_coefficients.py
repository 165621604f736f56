"""Coefficient tests: kernels vs quadrature oracles, three-method agreement,
Markov limits, symmetry and linearity properties."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate

from qfd.coefficients import (
    _GL4_W,
    _GL4_X,
    _KERNEL_BLOCK,
    _MAX_SUBPANEL_WIDTH,
    _panel_nodes,
    coefficients_analytic_small_u,
    coefficients_brute,
    coefficients_e1,
    make_kernel_table,
    markov_diffusion_small_u,
    markov_limit,
    omega_kernel_cos,
    omega_kernel_sin,
    time_grid,
)
from qfd.dynamics import asymptotic_population
from qfd.errors import GridError
from qfd.model import (
    KinematicsParams,
    MaterialParams,
    ParticleParams,
    orientation_weights,
    pole_omega_r,
    preset,
    spectral_density,
    unit_orientation,
)

NV_NSI = preset("nv-nsi")


def scipy_kernel_oracle(t: float, gt: float, kind: str, m: float = 400.0) -> float:
    """Independent quadrature of the defining frequency integral.

    Splits at the response peak and completes the truncation with the
    1/w^3 integration-by-parts tail (valid here since m*t >> 1).
    """
    trig = np.cos if kind == "cos" else np.sin
    half = min(50.0 * gt, 0.5)
    total = 0.0
    for a, b in [(0.0, 1.0 - half), (1.0 - half, 1.0 + half), (1.0 + half, m)]:
        val, _ = sp_integrate.quad(
            lambda om: spectral_density(om, gt) * trig(om * t),
            a,
            b,
            limit=8000,
            epsabs=1e-14,
            epsrel=1e-13,
        )
        total += val
    jm = spectral_density(m, gt)
    jp = (spectral_density(m + 1e-4, gt) - spectral_density(m - 1e-4, gt)) / 2e-4
    if kind == "cos":
        total += -jm * math.sin(m * t) / t + jp * math.cos(m * t) / t**2
    else:
        total += jm * math.cos(m * t) / t + jp * math.sin(m * t) / t**2
    return total


def mpmath_kernel_oracle(t: float, gt: float, kind: str) -> float:
    """Independent quadrature of the defining frequency integral by mpmath.

    quadosc over the whole axis for t >= 1; below, quad on geometric
    panels out to ~1/t, where the oscillation starts, plus quadosc beyond.
    Too coarse for the narrow gold resonance, which scipy_kernel_oracle
    resolves with breakpoints.
    """
    with mpmath.workdps(20):
        gt, t = mpmath.mpf(gt), mpmath.mpf(t)
        trig = mpmath.cos if kind == "cos" else mpmath.sin

        def f(w):
            return gt * w / ((w * w - 1) ** 2 + gt * gt * w * w) * trig(w * t)

        if t >= 1:
            return float(mpmath.quadosc(f, [0, mpmath.inf], omega=t))
        pts = [0, 0.5, 1]
        while pts[-1] < 1 / t:
            pts.append(4 * pts[-1])
        return float(mpmath.quad(f, pts) + mpmath.quadosc(f, [pts[-1], mpmath.inf], omega=t))


def kernel_oracle_and_tolerance(t: float, gt: float, kind: str):
    """Reference kernel value and the pytest.approx tolerance it supports:
    scipy for gold, mpmath elsewhere (scipy warns of roundoff at t = 17
    and unit damping); 1e-12 relative above critical damping, where both
    the kernels and the oracle are exact enough, and 1e-15 absolute for
    the sine kernel past t = 20, where it is below e^{-100}."""
    if gt < 1.0:
        return scipy_kernel_oracle(t, gt, kind), dict(abs=1e-8)
    ref = mpmath_kernel_oracle(t, gt, kind)
    if gt < 2.0:
        return ref, dict(abs=1e-8)
    return ref, dict(rel=1e-12, abs=1e-15 if kind == "sin" and t > 20.0 else 0.0)


# ---------------------------------------------------------------------------
# frequency kernels
# ---------------------------------------------------------------------------

OVERDAMPED_KERNEL_ROWS = [
    (t, gt) for gt in (2.0, 2.5, 4.0) for t in (1e-6, 0.3, 1.0, 20.0, 1e3)
]


@pytest.mark.parametrize(
    "t, gt",
    [(t, gt) for t in (0.3, 1.0, 2.0, 5.0, 17.0) for gt in (0.003, 1.0)]
    + OVERDAMPED_KERNEL_ROWS,
)
def test_kernel_cos_matches_quadrature(t, gt):
    ref, tol = kernel_oracle_and_tolerance(t, gt, "cos")
    assert omega_kernel_cos(t, gt) == pytest.approx(ref, **tol)


@pytest.mark.parametrize(
    "t, gt",
    [(t, gt) for t in (0.3, 2.0, 9.0) for gt in (0.003, 1.0)] + OVERDAMPED_KERNEL_ROWS,
)
def test_kernel_sin_matches_quadrature(t, gt):
    ref, tol = kernel_oracle_and_tolerance(t, gt, "sin")
    assert omega_kernel_sin(t, gt) == pytest.approx(ref, **tol)


def test_kernel_cos_unit_damping_regression():
    # frozen from the quadrature oracle
    assert omega_kernel_cos(1.0, 1.0) == pytest.approx(0.4846826010528, abs=1e-10)


def test_kernel_cos_zero_limit():
    # t' -> 0 limit equals int_0^inf J dw; at unit damping the closed
    # value is 2 pi / (3 sqrt 3)
    exact = 2.0 * math.pi / (3.0 * math.sqrt(3.0))
    assert omega_kernel_cos(0.0, 1.0) == pytest.approx(exact, abs=1e-9)


def test_kernel_sin_vanishes_at_origin():
    assert omega_kernel_sin(0.0, 1.0) == 0.0
    assert abs(omega_kernel_sin(1e-12, 1.0)) < 1e-11


def test_kernel_symmetries():
    # cosine transform even, sine transform odd
    for t in (0.7, 3.0):
        assert omega_kernel_cos(-t, 1.0) == omega_kernel_cos(t, 1.0)
        assert omega_kernel_sin(-t, 1.0) == -omega_kernel_sin(t, 1.0)


def test_kernel_weak_damping_residue_dominates():
    # for tiny damping the pole term carries the whole kernel: envelope
    # exp(-gt t/2) oscillating at Re w_r
    gt = 0.003
    w = pole_omega_r(gt).omega_r
    s4 = math.sqrt(4.0 - gt * gt)
    for t in (500.0, 2000.0):
        residue = math.pi * math.exp(-0.5 * gt * t) * math.cos(w.real * t) / s4
        assert omega_kernel_cos(t, gt) == pytest.approx(residue, abs=2e-2 * math.pi / s4 * math.exp(-0.5 * gt * t) + 1e-6)


def test_kernel_overdamped_fallback():
    # gamma > 2: the closed form over the two imaginary poles, checked
    # against the scipy oracle
    assert omega_kernel_cos(1.0, 3.0) == pytest.approx(
        scipy_kernel_oracle(1.0, 3.0, "cos"), abs=1e-7
    )
    assert omega_kernel_sin(1.0, 3.0) == pytest.approx(
        scipy_kernel_oracle(1.0, 3.0, "sin"), abs=1e-7
    )


# ---------------------------------------------------------------------------
# trace container and grids
# ---------------------------------------------------------------------------


def test_trace_starts_at_zero():
    mat, part = NV_NSI
    tr = coefficients_e1(mat, part, KinematicsParams(u=0.0), np.linspace(0, 10, 11))
    assert tr.D[0] == tr.f[0] == tr.zeta[0] == 0.0
    assert tr.cumD[0] == 0.0


def test_grid_validation():
    mat, part = NV_NSI
    with pytest.raises(GridError):
        coefficients_e1(mat, part, KinematicsParams(u=0.0), np.linspace(1, 10, 10))
    with pytest.raises(GridError):
        coefficients_e1(mat, part, KinematicsParams(u=0.0), np.array([0.0, 1.0, 1.0]))


def test_time_grid_shapes():
    g = time_grid(0.2, 1.0, 6.0, 400)
    assert g[0] == 0.0
    assert np.all(np.diff(g) > 0)
    # six cycles at delta = 0.2
    assert g[-1] == pytest.approx(6 * 2 * math.pi / 0.2, rel=1e-12)
    with pytest.raises(GridError):
        time_grid(0.2, 1.0, 0.0)


def test_trace_csv_layout():
    mat, part = NV_NSI
    tr = coefficients_e1(mat, part, KinematicsParams(u=0.0), np.linspace(0, 5, 6))
    lines = tr.to_csv().splitlines()
    assert lines[0] == "t,N_cycles,D,f,zeta,cumD,cumF,method"
    assert lines[1].endswith(",e1")
    assert len(lines) == 7


def panel_nodes_reference(grid):
    """Per-panel np.linspace sub-panel edges, the loop _panel_nodes replaces."""
    counts = np.maximum(1, np.ceil(np.diff(grid) / _MAX_SUBPANEL_WIDTH).astype(int))
    edges = [np.linspace(a, b, k + 1) for a, b, k in zip(grid[:-1], grid[1:], counts)]
    sa = np.concatenate([e[:-1] for e in edges])
    sb = np.concatenate([e[1:] for e in edges])
    mid = 0.5 * (sa + sb)
    half = 0.5 * (sb - sa)
    nodes = (mid[:, None] + half[:, None] * _GL4_X[None, :]).ravel()
    wts = (half[:, None] * _GL4_W[None, :]).ravel()
    return nodes, wts, np.concatenate([[0], np.cumsum(counts)[:-1]]) * 4


@pytest.mark.parametrize(
    "grid",
    [
        # dense 0.1 panels, then cycle/16 = 1.96 panels past the decay window
        time_grid(0.2, 1.0, 20.0),
        # a coarse oracle grid: panels of 3.9, split into 8 sub-panels
        np.linspace(0.0, 31.4, 9),
        np.array([0.0, 0.05, 0.5, 0.5000001, 1.7, 1.75, 9.3, 9.4, 40.0]),
    ],
    ids=["time-grid", "coarse", "mixed"],
)
def test_panel_nodes_match_per_panel_linspace(grid):
    got = _panel_nodes(grid)
    ref = panel_nodes_reference(grid)
    assert np.diff(grid).max() > _MAX_SUBPANEL_WIDTH
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)


def test_kernel_table_blocks_match_whole_array_bitwise():
    # 3.5 node blocks on gold, whose nodes take both E1 branches
    gt = 0.003
    grid = np.linspace(0.0, 200.0, 7 * _KERNEL_BLOCK // 8 + 1)
    table = make_kernel_table(gt, grid)
    assert table.nodes.size > 3 * _KERNEL_BLOCK
    assert np.array_equal(table.kc, omega_kernel_cos(table.nodes, gt))
    assert np.array_equal(table.ks, omega_kernel_sin(table.nodes, gt))


# ---------------------------------------------------------------------------
# method agreement
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gt", [0.003, 1.0])
@pytest.mark.parametrize("u", [0.0, 0.003, 0.3])
def test_e1_vs_brute(gt, u):
    mat = MaterialParams(omega_s=2.47e14, gamma_tilde=gt, name="test")
    part = ParticleParams(delta_tilde=0.2, r0_tilde=1e-2, orientation=(1, 0, 0))
    grid = np.linspace(0.0, 60.0, 21)
    kin = KinematicsParams(u=u)
    ref = coefficients_e1(mat, part, kin, grid)
    oracle = coefficients_brute(mat, part, kin, grid)
    for name in ("D", "f", "zeta"):
        dev = np.max(np.abs(getattr(ref, name) - getattr(oracle, name)))
        assert dev <= 1e-6, f"{name} deviates by {dev}"


def test_brute_omega_max_stability():
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.003)
    grid = np.linspace(0.0, 30.0, 11)
    t50 = coefficients_brute(mat, part, kin, grid, omega_max=50.0)
    t100 = coefficients_brute(mat, part, kin, grid, omega_max=100.0)
    for name in ("D", "f", "zeta"):
        assert np.max(np.abs(getattr(t50, name) - getattr(t100, name))) <= 1e-8


def test_velocity_continuity():
    mat, part = NV_NSI
    grid = np.linspace(0.0, 40.0, 11)
    a = coefficients_e1(mat, part, KinematicsParams(u=0.0), grid)
    b = coefficients_e1(mat, part, KinematicsParams(u=1e-6), grid)
    assert np.max(np.abs(a.D - b.D)) <= 1e-9


def test_velocity_parity_exact():
    mat, part = NV_NSI
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 2.0, 64)
    plus = coefficients_e1(mat, part, KinematicsParams(u=0.3), grid)
    minus = coefficients_e1(mat, part, KinematicsParams(u=-0.3), grid)
    for name in ("D", "f", "zeta", "cumD", "cumF"):
        assert np.array_equal(getattr(plus, name), getattr(minus, name))


def test_zero_coupling_zero_traces():
    mat, part = NV_NSI
    part = ParticleParams(delta_tilde=0.2, r0_tilde=0.0, orientation=(1, 0, 0))
    grid = np.linspace(0.0, 20.0, 9)
    tr = coefficients_e1(mat, part, KinematicsParams(u=0.1), grid)
    assert np.all(tr.D == 0.0) and np.all(tr.f == 0.0) and np.all(tr.zeta == 0.0)


def test_orientation_linearity():
    # the envelope is linear in the squared direction cosines, so any
    # orientation decomposes into the three axis-aligned runs
    mat, _ = NV_NSI
    n = unit_orientation((0.4, -0.5, 0.768114574786861))
    grid = time_grid(0.2, 1.0, 1.0, 64)
    kin = KinematicsParams(u=0.2)

    def trace_for(orient):
        part = ParticleParams(delta_tilde=0.2, r0_tilde=1e-2, orientation=orient)
        return coefficients_e1(mat, part, kin, grid)

    full = trace_for(n)
    axes = [trace_for(o) for o in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    weights = (n[0] ** 2, n[1] ** 2, n[2] ** 2)
    for name in ("D", "f", "zeta"):
        combo = sum(w * getattr(t, name) for w, t in zip(weights, axes))
        assert np.max(np.abs(getattr(full, name) - combo)) <= 1e-12


def test_u_zero_plateau_matches_markov():
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.0)
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 4.0, 400)
    tr = coefficients_e1(mat, part, kin, grid)
    mk = markov_limit(mat, part, kin)
    assert tr.D[-1] == pytest.approx(mk.D_inf, rel=1e-2)


# ---------------------------------------------------------------------------
# small-velocity analytic expansion
# ---------------------------------------------------------------------------


def test_analytic_matches_e1_reference_point():
    # moving-atom benchmark: damping of order one, where the
    # exponential-integral correction is a leading-order effect
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.003)
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 6.0, 400)
    ref = coefficients_e1(mat, part, kin, grid)
    ana = coefficients_analytic_small_u(mat, part, kin, grid)
    mask = grid >= 2 * math.pi / part.delta_tilde  # N >= 1
    for name in ("D", "f", "zeta"):
        dev = np.max(np.abs(getattr(ana, name)[mask] - getattr(ref, name)[mask]))
        scale = np.max(np.abs(getattr(ref, name)[mask]))
        assert dev <= 0.02 * scale


def test_analytic_exact_at_rest():
    # with the particle at rest the endpoint expansion terminates, so the
    # two routes agree to quadrature accuracy
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.0)
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 6.0, 200)
    ref = coefficients_e1(mat, part, kin, grid)
    ana = coefficients_analytic_small_u(mat, part, kin, grid)
    late = grid >= grid[-1] / 2
    dev = np.max(np.abs(ana.D[late] - ref.D[late]))
    assert dev <= 5e-3 * np.max(np.abs(ref.D[late]))
    assert dev <= 1e-9  # far tighter in practice


def test_analytic_quadratic_velocity_scaling():
    mat, part = NV_NSI
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 3.0, 200)
    base = coefficients_analytic_small_u(mat, part, KinematicsParams(u=0.0), grid)

    def shifted(u):
        tr = coefficients_analytic_small_u(mat, part, KinematicsParams(u=u), grid)
        return (tr.D[-1] - base.D[-1]) / (u * u)

    assert shifted(1e-3) == pytest.approx(shifted(2e-3), rel=1e-2)


def test_analytic_error_order_in_velocity():
    mat, part = NV_NSI
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 6.0, 200)
    idx = np.argmin(np.abs(grid - 100.0))
    us = np.array([0.001, 0.002, 0.004, 0.008])
    errs = []
    for u in us:
        kin = KinematicsParams(u=u)
        e1 = coefficients_e1(mat, part, kin, grid)
        an = coefficients_analytic_small_u(mat, part, kin, grid)
        errs.append(abs(an.D[idx] - e1.D[idx]))
    order = np.polyfit(np.log(us), np.log(np.array(errs)), 1)[0]
    assert order >= 3.5


def test_analytic_warns_outside_window():
    mat, part = NV_NSI
    grid = np.linspace(0, 10, 11)
    with pytest.warns(UserWarning):
        coefficients_analytic_small_u(mat, part, KinematicsParams(u=0.2), grid)


# ---------------------------------------------------------------------------
# Markov limits
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("name", ["nv-nsi", "rb-nsi", "rb-au"])
def test_markov_static_value(name):
    # stationary-phase limit: D_inf = zeta_inf = r0t d_i J(delta)/32 at
    # rest, so the stationary excited population is exactly 0
    mat, part = preset(name)
    rest = KinematicsParams(u=0.0)
    mk = markov_limit(mat, part, rest)
    d_i = orientation_weights(part.orientation).d_i
    exact = part.r0_tilde * d_i * spectral_density(part.delta_tilde, mat.gamma_tilde) / 32.0
    assert mk.D_inf == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert mk.zeta_inf == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert asymptotic_population(mat, part, rest, mk) == 0.0
    if name == "nv-nsi":
        # the value the figure-level runs quote (rounded upstream arithmetic)
        assert mk.D_inf == pytest.approx(6.4997e-5, abs=2e-9)


@pytest.mark.parametrize("gt", [2.0, 2.5, 4.0])
@pytest.mark.parametrize("name", ["nv-nsi", "rb-nsi", "rb-au", "nv-au"])
def test_markov_static_value_overdamped(name, gt):
    # the same limit at and above critical damping, to 1e-8: the tail
    # correction omits the -6 gt (gt^2 - 2)/t^4 order of the cosine
    # kernel, 4.2e-9 of D_inf on rb-nsi at gt = 4
    mat, part = preset(name)
    mat = dataclasses.replace(mat, gamma_tilde=gt)
    mk = markov_limit(mat, part, KinematicsParams(u=0.0))
    d_i = orientation_weights(part.orientation).d_i
    exact = part.r0_tilde * d_i * spectral_density(part.delta_tilde, gt) / 32.0
    assert mk.D_inf == pytest.approx(exact, rel=1e-8, abs=0.0)
    assert mk.zeta_inf == pytest.approx(exact, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("gamma_tilde", [1.0, 2.0, 2.5])
def test_markov_route_runs_no_adaptive_quadrature(monkeypatch, gamma_tilde):
    # nor do the numeric route and coefficients_e1, at any damping: only
    # the brute oracle integrates adaptively
    import qfd.coefficients
    import qfd.numerics
    from qfd.decoherence import tau_d

    def refuse(*args, **kwargs):
        raise AssertionError("adaptive quadrature on the Markov route")

    monkeypatch.setattr(qfd.numerics, "integrate_adaptive", refuse)
    monkeypatch.setattr(qfd.coefficients, "integrate_adaptive", refuse)
    mat, part = NV_NSI
    mat = dataclasses.replace(mat, gamma_tilde=gamma_tilde)
    kin = KinematicsParams(u=0.003)
    mk = markov_limit(mat, part, kin)
    assert tau_d(mat, part, kin, method="markov").tau_d == 1.0 / mk.D_inf
    assert tau_d(mat, part, kin, method="numeric").tau_d > 0.0
    grid = time_grid(part.delta_tilde, gamma_tilde, 2.0)
    assert np.all(np.isfinite(coefficients_e1(mat, part, kin, grid).D))


def test_markov_closed_form_agreement():
    mat, part = NV_NSI
    for u in (0.0, 0.003, 0.01):
        kin = KinematicsParams(u=u)
        mk = markov_limit(mat, part, kin)
        assert mk.D_inf == pytest.approx(markov_diffusion_small_u(mat, part, kin), rel=1e-6)


def test_markov_ground_state_ratio():
    # below the excitation threshold the drive and diffusion constants
    # coincide, pinning the asymptote to the ground state
    mat, part = NV_NSI
    mk = markov_limit(mat, part, KinematicsParams(u=0.003))
    assert mk.zeta_inf / mk.D_inf == pytest.approx(1.0, abs=1e-5)


def test_markov_positive_diffusion_required():
    from qfd.errors import DomainError
    from qfd.coefficients import MarkovCoefficients

    with pytest.raises(DomainError):
        MarkovCoefficients(D_inf=0.0, zeta_inf=0.0)

"""Decoherence-time tests: extraction routes, fits, sweeps, scaling laws."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

from qfd.decoherence import (
    RESONANCE_EXCLUSION_BAND,
    DecoherenceTimeResult,
    quadratic_ratio_fit,
    sweep_level_spacing,
    sweep_polarization,
    sweep_rows_to_csv,
    sweep_velocity,
    tau_d,
    tau_d_analytic,
    tau_d_numeric,
)
from qfd.coefficients import (
    _KERNEL_BLOCK,
    coefficients_from_table,
    decoherence_table,
    markov_limit,
)
from qfd.errors import BracketError, ConfigError, DomainError, PhysicsError
from qfd.model import KinematicsParams, orientation_weights, preset
from dataclasses import replace

NV_NSI = preset("nv-nsi")
REST = KinematicsParams(u=0.0)


# ---------------------------------------------------------------------------
# numeric route
# ---------------------------------------------------------------------------


def test_tau_close_to_markov_estimate():
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.0)
    td = tau_d_numeric(mat, part, kin)
    mk = markov_limit(mat, part, kin)
    # transient correction shifts the crossing slightly off 1/D_inf; at
    # rest the analytic route is the exact (1 - C_inf)/D_inf
    assert td.tau_d == pytest.approx(1.0 / mk.D_inf, rel=0.05)
    assert td.tau_d == pytest.approx(tau_d_analytic(mat, part, kin).tau_d, rel=1e-7)
    assert td.method == "numeric"
    # the crossing lies past the table's end, where both routes read the
    # same D_inf off the trace's end
    trace = coefficients_from_table(decoherence_table(mat, part.delta_tilde), part, kin)
    t_end, c_end = trace.grid[-1], trace.cumD[-1]
    assert t_end < td.tau_d
    assert td.tau_d == t_end + (1.0 - c_end) / mk.D_inf


@pytest.mark.parametrize("name", ["nv-nsi", "rb-nsi", "rb-au", "nv-au"])
def test_tau_continuous_across_critical_damping(name):
    # the kernels change form at gamma_tilde = 2 (pole pair, double pole,
    # two imaginary poles), the decoherence time does not
    mat, part = preset(name)
    lo, at, hi = (
        tau_d_numeric(replace(mat, gamma_tilde=gt), part, REST).tau_d
        for gt in (2.0 - 1e-6, 2.0, 2.0 + 1e-6)
    )
    assert hi == pytest.approx(lo, rel=1e-5)
    assert at == pytest.approx(lo, rel=1e-5)


def test_tau_definition_consistency():
    # the envelope really is at e^-2: tau is the exact crossing cumD = 1.
    # At r0_tilde = 1 it lies inside the trace (the continuation past its
    # end is checked in test_tau_close_to_markov_estimate)
    mat, part = NV_NSI
    part = replace(part, r0_tilde=1.0)
    table = decoherence_table(mat, part.delta_tilde)
    for u in (0.0, 0.15):
        kin = KinematicsParams(u=u)
        trace = coefficients_from_table(table, part, kin)
        tau = tau_d_numeric(mat, part, kin).tau_d
        assert tau < trace.grid[-1]
        assert np.interp(tau, trace.grid, trace.cumD) == pytest.approx(1.0, abs=1e-12)


def test_tau_numeric_holds_no_grid_column():
    # tau_D streams D and cumD a block at a time over a plan of segments:
    # on nv-au's 2.1 M-point window, one grid column would take 16.8 MB
    mat, part = preset("nv-au")
    table = decoherence_table(mat, part.delta_tilde)
    points = table.head.size + sum(s.n + 1 - s.first for s in table.segments)
    assert 8 * points > 16e6
    tracemalloc.start()
    try:
        tau_d_numeric(mat, part, KinematicsParams(u=1.5e-4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2e6


def test_tau_is_the_first_crossing_of_a_non_monotone_cumd():
    # gold's D turns negative in the first cycles: at r0_tilde = 20 cumD
    # passes 1 near t = 2.4, falls back below it and crosses it again
    mat, part = preset("rb-au")
    mat = replace(mat, gamma_tilde=0.2)
    part = replace(part, r0_tilde=20.0)
    table = decoherence_table(mat, part.delta_tilde)
    c = coefficients_from_table(table, part, REST).cumD
    first = int(np.argmax(c >= 1.0))
    assert np.any(c[first:] < 1.0)
    tau = tau_d_numeric(mat, part, REST).tau_d
    assert table.grid[first - 1] < tau <= table.grid[first] < 2.5
    assert np.interp(tau, table.grid, c) == pytest.approx(1.0, abs=1e-12)


def test_small_velocity_rate_over_u2_is_smooth():
    # the rate is ~3e-7 of tau at these velocities; a root found only to
    # a tolerance scattered rate/u^2 by 6e-4 relative, out of order
    mat, part = NV_NSI
    us = [0.5e-4, 1e-4, 1.5e-4, 2e-4, 3e-4]
    ratio = np.array([row.rate / row.value**2 for row in sweep_velocity(mat, part, us)])
    steps = np.diff(ratio)
    assert np.all(steps < 0) or np.all(steps > 0)
    assert np.ptp(ratio) < 1e-4 * abs(ratio.mean())


@pytest.mark.parametrize(
    "name, us",
    [
        ("rb-nsi", np.geomspace(1e-3, 4e-3, 4)),
        ("nv-nsi", [1e-3, 3e-3]),
        ("rb-au", [1.5e-4, 1e-3]),
    ],
    ids=["rb-nsi", "nv-nsi", "rb-au"],
)
def test_markov_rates_match_numeric(name, us):
    # rates of 2e-7 to 6e-5 at the paper's velocities: the Markov route
    # must get the sign and the size of the velocity effect
    mat, part = preset(name)
    numeric = [row.rate for row in sweep_velocity(mat, part, us)]
    markov = [row.rate for row in sweep_velocity(mat, part, us, method="markov")]
    assert all(rate < 0 for rate in markov)
    assert markov == pytest.approx(numeric, rel=1e-3)


def test_tau_scales_inversely_with_coupling():
    mat, part = NV_NSI
    strong = replace(part, r0_tilde=2e-2)
    t1 = tau_d_numeric(mat, part, REST).tau_d
    t2 = tau_d_numeric(mat, strong, REST).tau_d
    assert t1 * part.r0_tilde == pytest.approx(t2 * strong.r0_tilde, rel=1e-2)


def test_tau_rate_independent_of_coupling():
    # the normalized velocity rate isolates the motion effect from the
    # overall coupling strength
    mat, part = NV_NSI
    u = 0.02

    def rate(r0t):
        p = replace(part, r0_tilde=r0t)
        t0 = tau_d_numeric(mat, p, REST).tau_d
        tu = tau_d_numeric(mat, p, KinematicsParams(u=u)).tau_d
        return tu / t0 - 1.0

    assert rate(1e-2) == pytest.approx(rate(2e-2), rel=5e-3)


def test_tau_monotone_decreasing_in_velocity():
    mat, part = NV_NSI
    taus = [tau_d_numeric(mat, part, KinematicsParams(u=u)).tau_d for u in (0.0, 0.02, 0.05, 0.09)]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_tau_zero_coupling_cannot_bracket():
    mat, part = NV_NSI
    dead = replace(part, r0_tilde=0.0)
    with pytest.raises(BracketError):
        tau_d_numeric(mat, dead, REST)


# ---------------------------------------------------------------------------
# analytic route
# ---------------------------------------------------------------------------


def test_analytic_agrees_with_numeric():
    mat, part = NV_NSI
    for u in (0.0, 0.01, 0.03):
        kin = KinematicsParams(u=u)
        ana = tau_d_analytic(mat, part, kin).tau_d
        num = tau_d_numeric(mat, part, kin).tau_d
        assert ana == pytest.approx(num, rel=0.10)


def test_analytic_velocity_term_is_quadratic():
    mat, part = NV_NSI
    t0 = tau_d_analytic(mat, part, REST).tau_d
    d1 = t0 - tau_d_analytic(mat, part, KinematicsParams(u=0.01)).tau_d
    d2 = t0 - tau_d_analytic(mat, part, KinematicsParams(u=0.02)).tau_d
    assert d2 == pytest.approx(4.0 * d1, rel=1e-10)


def test_analytic_warns_past_small_velocity_limit():
    # the same warning as the trace's small-velocity route, at the same
    # limit: on nv-nsi the expansion reads 4 % high at u = 0.1
    mat, part = NV_NSI
    with pytest.warns(UserWarning) as caught:
        tau_d_analytic(mat, part, KinematicsParams(u=-0.1))
    assert [str(w.message) for w in caught] == [
        "small-velocity expansion called with u = 0.1 > 0.05"
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau_d_analytic(mat, part, KinematicsParams(u=0.03))


def test_analytic_near_resonance_refused():
    mat, part = NV_NSI
    close = replace(part, delta_tilde=0.95)
    with pytest.raises(ConfigError, match="delta_tilde"):
        tau_d_analytic(mat, close, REST)


def test_analytic_ba_matches_numeric_fit():
    mat, part = NV_NSI
    us = [0.005, 0.01, 0.02, 0.03]
    fit_num, _ = quadratic_ratio_fit(mat, part, us, method="numeric")
    fit_ana, _ = quadratic_ratio_fit(mat, part, us, method="analytic")
    assert fit_ana.b_over_a == pytest.approx(fit_num.b_over_a, rel=0.15)


def test_g_function_second_derivative():
    # analytic curvature of the logarithmic response against differences
    from qfd.decoherence import _g_funcs

    for delta, gt in [(0.2, 1.0), (0.5, 0.5), (8.0, 1.0)]:
        h = 1e-4 * delta
        gp, _ = _g_funcs(delta + h, gt)
        g0, d2g = _g_funcs(delta, gt)
        gm, _ = _g_funcs(delta - h, gt)
        assert d2g == pytest.approx((gp - 2 * g0 + gm) / (h * h), rel=1e-5, abs=1e-9)


@pytest.mark.parametrize("name", ["nv-nsi", "nv-au", "rb-nsi", "rb-au"])
def test_analytic_u2_bracket_is_derivative_of_rest_constant(name):
    # D is linear in P(x) = d_i/8 - (3/64) d_a x^2, so the finite-time u^2
    # term is (3/8)(d_a/d_i) (c'' + 2 c' h'/h) with c the route's own rest
    # constant; nv-au's delta lies in the resonance band tau_d_analytic
    # refuses, so the terms are read directly
    from qfd.decoherence import _finite_time_terms
    from qfd.model import spectral_response

    mat, part = preset(name)
    delta, gt = part.delta_tilde, mat.gamma_tilde
    step = 1e-4 * delta
    cm, c0, cp = (_finite_time_terms(delta + k * step, gt)[0] for k in (-1, 0, 1))
    hm, h0, hp = (spectral_response(delta + k * step, gt)[0] for k in (-1, 0, 1))
    c1 = (cp - cm) / (2 * step)
    c2 = (cp - 2 * c0 + cm) / (step * step)
    const, bracket = _finite_time_terms(delta, gt)
    assert bracket == pytest.approx(c2 + 2 * c1 * (hp - hm) / (2 * step) / h0, rel=1e-5)
    if abs(delta - 1.0) >= RESONANCE_EXCLUSION_BAND:
        # the route adds exactly these terms
        u, wts = 0.01, orientation_weights(part.orientation)
        di, da = wts.d_i, wts.d_a
        kin = KinematicsParams(u=u)
        h, h2, _ = spectral_response(delta, gt)
        markov = 32.0 / (part.r0_tilde * di) * (1.0 / h - 0.375 * (da / di) * u * u * h2 / h**2)
        tau = tau_d_analytic(mat, part, kin).tau_d
        assert tau == pytest.approx(markov + const + 0.375 * (da / di) * u * u * bracket,
                                    rel=1e-14)


def test_method_dispatch():
    mat, part = NV_NSI
    assert tau_d(mat, part, REST, method="markov").method == "markov"
    with pytest.raises(DomainError):
        tau_d(mat, part, REST, method="magic")
    # the Markov tau reads D alone, the same D_inf as markov_limit's, at
    # the density it is given
    for pts in (400, 800):
        mk = tau_d(mat, part, REST, method="markov", pts_per_cycle=pts)
        assert mk.tau_d == 1.0 / markov_limit(mat, part, REST, pts).D_inf


def test_result_requires_positive_tau():
    mat, part = NV_NSI
    with pytest.raises(PhysicsError):
        DecoherenceTimeResult(tau_d=-1.0, method="numeric")


# ---------------------------------------------------------------------------
# quadratic velocity fit
# ---------------------------------------------------------------------------


def test_fit_nv_on_nsi():
    mat, part = NV_NSI
    fit, rows = quadratic_ratio_fit(mat, part, [0.001, 0.002, 0.004, 0.008, 0.016, 0.03])
    assert fit.b_over_a == pytest.approx(6.417, rel=0.10)
    assert not fit.residual_warning
    assert all(r.rate <= 0.0 for r in rows)


def test_fit_rb_on_nsi():
    mat, part = preset("rb-nsi")
    fit, _ = quadratic_ratio_fit(mat, part, [0.05, 0.1, 0.15, 0.2, 0.3, 0.4])
    assert fit.b_over_a == pytest.approx(0.216, rel=0.10)


def test_fit_quadratic_regime_deviation():
    # inside u <= delta/20 the fitted parabola tracks tau to 1%
    mat, part = NV_NSI
    us = [0.002, 0.004, 0.006, 0.008, 0.01]
    fit, _ = quadratic_ratio_fit(mat, part, us)
    for u in us:
        tau = tau_d_numeric(mat, part, KinematicsParams(u=u)).tau_d
        model = fit.a_coef - fit.b_coef * u * u
        assert abs(tau - model) <= 1e-2 * tau


def test_fit_loglog_slope():
    mat, part = NV_NSI
    us = np.geomspace(1e-3, 3e-2, 8)
    rows = sweep_velocity(mat, part, us)
    rates = np.abs([r.rate for r in rows])
    slope = np.polyfit(np.log(us), np.log(rates), 1)[0]
    assert slope == pytest.approx(2.0, abs=0.1)


def test_fit_preconditions():
    mat, part = NV_NSI
    with pytest.raises(ConfigError, match="4 velocities .*--points >= 4.*got 3"):
        quadratic_ratio_fit(mat, part, [0.001, 0.002, 0.004])  # too few
    with pytest.raises(ConfigError, match="delta_tilde/2"):
        quadratic_ratio_fit(mat, part, [0.001, 0.002, 0.004, 0.15])  # beyond threshold


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_polarization_ordering():
    # smallest tau with the dipole perpendicular to the surface; tilted,
    # the motion direction decoheres faster than the transverse one
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.3)
    rows = sweep_polarization(
        mat, part, kin, [0.0, math.pi / 2], [0.0, math.pi / 2], method="numeric"
    )
    by_angle = {(round(r.theta, 6), round(r.phi, 6)): r.tau_d for r in rows}
    tau_z = by_angle[(0.0, 0.0)]
    tau_x = by_angle[(round(math.pi / 2, 6), 0.0)]
    tau_y = by_angle[(round(math.pi / 2, 6), round(math.pi / 2, 6))]
    assert tau_z < tau_x < tau_y
    # gaps resolved far beyond the root tolerance
    tol = 1e-9 * tau_y
    assert tau_x - tau_z > 3 * tol and tau_y - tau_x > 3 * tol


def test_polarization_phi_periodicity_and_polar_degeneracy():
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.3)
    rows = sweep_polarization(
        mat, part, kin, [0.0, math.pi / 2], [0.0, math.pi], method="numeric"
    )
    by = {(round(r.theta, 6), round(r.phi, 6)): r.tau_d for r in rows}
    half = round(math.pi / 2, 6)
    # phi and phi + pi give the same squared direction cosines
    assert by[(half, 0.0)] == pytest.approx(by[(half, round(math.pi, 6))], rel=1e-12)
    # the polar axis does not know phi at all
    assert by[(0.0, 0.0)] == pytest.approx(by[(0.0, round(math.pi, 6))], rel=1e-12)


def test_phi_sweep_shares_one_rest_reference(monkeypatch):
    # at theta = pi/2 every phi has d_i = 1, and at rest P = d_i / 8, so
    # one u = 0 point serves all N angles: one pass of N + 1 points
    import qfd.coefficients

    calls = []
    panel_sums = qfd.coefficients._panel_sums

    def counted(table, points, rows):
        calls.append(len(points))
        return panel_sums(table, points, rows)

    monkeypatch.setattr(qfd.coefficients, "_panel_sums", counted)
    mat, part = NV_NSI
    phis = [0.0, 0.5, 1.0, 2.0]
    rows = sweep_polarization(
        mat, part, KinematicsParams(u=0.003), [math.pi / 2], phis, rate_mode=True
    )
    assert calls == [len(phis) + 1]
    assert len({r.tau_d_u0 for r in rows}) == 1


@pytest.mark.parametrize("method", ["numeric", "markov"])
def test_sweeps_evaluate_each_kernel_node_once_per_level_spacing(monkeypatch, method):
    # a 4-point u sweep and a rate-mode phi sweep each read their points
    # and their rest reference off one pass, which evaluates the kernels
    # once per node; a delta sweep once per node of each spacing's table
    import qfd.coefficients

    evaluated = []
    omega_kernels = qfd.coefficients.omega_kernels

    def counted(t, gamma_tilde):
        evaluated.append(np.size(t))
        return omega_kernels(t, gamma_tilde)

    monkeypatch.setattr(qfd.coefficients, "omega_kernels", counted)
    mat, part = NV_NSI
    nodes = decoherence_table(mat, part.delta_tilde).nodes.size
    sweeps = [
        lambda: sweep_velocity(mat, part, [0.001, 0.003, 0.01, 0.03], method=method),
        lambda: sweep_polarization(mat, part, KinematicsParams(u=0.003), [math.pi / 2],
                                   [0.0, 1.0, 2.0], method=method, rate_mode=True),
    ]
    for sweep in sweeps:
        evaluated.clear()
        sweep()
        assert sum(evaluated) == nodes
    evaluated.clear()
    sweep_level_spacing(mat, part, KinematicsParams(u=0.003), [0.2, 0.3], method=method)
    assert sum(evaluated) == nodes + decoherence_table(mat, 0.3).nodes.size


def test_phi_sweep_memory_grows_by_block_rows_per_angle():
    # a pass holds each point's rows for one block, never for the whole
    # grid: 100 angles on one table peak at most 100 block bounds above
    # one angle, where 100 grid-sized rows would take 18 MB
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.003)

    def peak(n):
        tracemalloc.start()
        try:
            sweep_polarization(mat, part, kin, [math.pi / 2], list(np.linspace(0.0, 6.0, n)),
                               rate_mode=True, pts_per_cycle=4000)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    grid = decoherence_table(mat, part.delta_tilde, 4000).grid
    block_bound = 8 * 8 * (_KERNEL_BLOCK // 4 + 1)
    assert 100 * grid.nbytes > 18e6 > 100 * block_bound
    assert peak(100) - peak(1) <= 100 * block_bound


def test_polarization_grid_validation():
    mat, part = NV_NSI
    with pytest.raises(ConfigError, match="theta"):
        sweep_polarization(mat, part, REST, [4.0], [0.0])
    with pytest.raises(ConfigError, match="phi"):
        sweep_polarization(mat, part, REST, [0.0], [7.0])


def test_level_spacing_sweep_below_resonance():
    # below resonance the normalized ratio tracks the curvature-to-value
    # ratio of the response, which shrinks monotonically toward the
    # curvature zero near delta ~ 0.55: all rates negative, fading out
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.003)
    deltas = np.linspace(0.05, 0.5, 10)
    rows = sweep_level_spacing(mat, part, kin, deltas)
    rates = np.array([r.rate for r in rows])
    assert np.all(rates < 0.0)
    assert np.all(np.diff(rates) > 0.0)  # monotone toward zero effect
    assert abs(rates[-1]) < 0.5 * abs(rates[0])


def test_level_spacing_sweep_extremum_beyond_resonance():
    # past the resonance the velocity effect peaks at a finite spacing
    # and fades far from resonance; the interior extremum is flagged
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.003)
    deltas = np.linspace(1.2, 4.0, 8)
    rows = sweep_level_spacing(mat, part, kin, deltas)
    rates = np.array([r.rate for r in rows])
    assert any(r.flag == "extremum" for r in rows[1:-1])
    peak = np.max(np.abs(rates))
    assert abs(rates[-1]) < 0.35 * peak


def test_level_spacing_exclusion_band():
    # the numeric route evaluates the resonance band like any other row
    mat, part = NV_NSI
    rows = sweep_level_spacing(mat, part, REST, [0.5, 0.95, 1.05])
    assert [r.flag for r in rows] == ["", "", ""]
    assert all(math.isfinite(r.tau_d) and r.tau_d > 0 for r in rows)
    # at rest the ratio is identically one
    assert [r.rate for r in rows] == [0.0, 0.0, 0.0]


def test_level_spacing_rows_equal_tdec_at_their_own_spacing():
    # each row reads its own level spacing's table, so it is the
    # standalone numeric tau_d there to the bit, in the band too
    mat, part = NV_NSI
    kin = KinematicsParams(u=0.003)
    deltas = [0.5, 0.95, 1.0, 1.05]
    rows = sweep_level_spacing(mat, part, kin, deltas)
    for row, delta in zip(rows, deltas):
        at = replace(part, delta_tilde=delta)
        assert row.tau_d == tau_d_numeric(mat, at, kin).tau_d
        assert row.tau_d_u0 == tau_d_numeric(mat, at, REST).tau_d


def test_sweep_csv_layout():
    mat, part = NV_NSI
    rows = sweep_velocity(mat, part, [0.01, 0.02], method="markov")
    text = sweep_rows_to_csv(rows)
    lines = text.splitlines()
    assert lines[0] == (
        "sweep_param,value,tau_d,tau_d_u0,rate,method,material,particle,"
        "theta,phi,u,delta_tilde,gamma_tilde,flag"
    )
    assert len(lines) == 3
    assert ",markov," in lines[1]

"""Decoherence-time tests: extraction routes, fits, sweeps, scaling laws."""

import math

import numpy as np
import pytest

from qfd.decoherence import (
    DecoherenceTimeResult,
    cumulative_diffusion,
    decoherence_table,
    quadratic_ratio_fit,
    sweep_level_spacing,
    sweep_polarization,
    sweep_rows_to_csv,
    sweep_velocity,
    tau_d,
    tau_d_analytic,
    tau_d_markov,
    tau_d_numeric,
)
from qfd.coefficients import markov_limit
from qfd.errors import BracketError, DomainError, PhysicsError
from qfd.model import KinematicsParams, preset
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
    # the envelope really is at e^-2: tau is the exact crossing cumD = 1
    mat, part = NV_NSI
    for u in (0.0, 0.15):
        kin = KinematicsParams(u=u)
        _, cum_d = cumulative_diffusion(mat, part, kin)
        tau = tau_d_numeric(mat, part, kin).tau_d
        assert cum_d(tau) == pytest.approx(1.0, abs=1e-12)


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
    table = decoherence_table(mat, part.delta_tilde)
    taus = [
        tau_d_numeric(mat, part, KinematicsParams(u=u), table=table).tau_d
        for u in (0.0, 0.02, 0.05, 0.09)
    ]
    assert all(a > b for a, b in zip(taus, taus[1:]))


def test_tau_zero_coupling_cannot_bracket():
    mat, part = NV_NSI
    dead = replace(part, r0_tilde=0.0)
    with pytest.raises(BracketError):
        tau_d_numeric(mat, dead, REST)


def test_tau_horizon_cap_errors():
    mat, part = NV_NSI
    with pytest.raises(PhysicsError):
        tau_d_numeric(mat, part, REST, horizon_cycles=1.0)


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


def test_analytic_near_resonance_refused():
    mat, part = NV_NSI
    close = replace(part, delta_tilde=0.95)
    with pytest.raises(DomainError):
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


def test_method_dispatch():
    mat, part = NV_NSI
    assert tau_d(mat, part, REST, method="markov").method == "markov"
    with pytest.raises(DomainError):
        tau_d(mat, part, REST, method="magic")
    mk = tau_d_markov(mat, part, REST)
    assert mk.tau_d == pytest.approx(1.0 / markov_limit(mat, part, REST).D_inf, rel=1e-12)


def test_result_requires_positive_tau():
    mat, part = NV_NSI
    with pytest.raises(PhysicsError):
        DecoherenceTimeResult(tau_d=-1.0, method="numeric", params_snapshot=(mat, part, REST))


# ---------------------------------------------------------------------------
# quadratic velocity fit
# ---------------------------------------------------------------------------


def test_fit_nv_on_nsi():
    mat, part = NV_NSI
    fit, rates = quadratic_ratio_fit(mat, part, [0.001, 0.002, 0.004, 0.008, 0.016, 0.03])
    assert fit.b_over_a == pytest.approx(6.417, rel=0.10)
    assert not fit.residual_warning
    assert np.all(rates <= 0.0)


def test_fit_rb_on_nsi():
    mat, part = preset("rb-nsi")
    fit, _ = quadratic_ratio_fit(mat, part, [0.05, 0.1, 0.15, 0.2, 0.3, 0.4])
    assert fit.b_over_a == pytest.approx(0.216, rel=0.10)


def test_fit_quadratic_regime_deviation():
    # inside u <= delta/20 the fitted parabola tracks tau to 1%
    mat, part = NV_NSI
    us = [0.002, 0.004, 0.006, 0.008, 0.01]
    fit, _ = quadratic_ratio_fit(mat, part, us)
    table = decoherence_table(mat, part.delta_tilde)
    for u in us:
        tau = tau_d_numeric(mat, part, KinematicsParams(u=u), table=table).tau_d
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
    with pytest.raises(DomainError):
        quadratic_ratio_fit(mat, part, [0.001, 0.002, 0.004])  # too few
    with pytest.raises(DomainError):
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


def test_polarization_grid_validation():
    mat, part = NV_NSI
    with pytest.raises(DomainError):
        sweep_polarization(mat, part, REST, [4.0], [0.0])
    with pytest.raises(DomainError):
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
    mat, part = NV_NSI
    rows = sweep_level_spacing(mat, part, REST, [0.5, 0.95, 1.05])
    flags = [r.flag for r in rows]
    assert flags[1] == "excluded" and flags[2] == "excluded"
    assert math.isnan(rows[1].tau_d)
    # at rest the ratio is identically one
    assert rows[0].rate == 0.0


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

"""Density-matrix evolution tests: limits, invariants, asymptotics."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qfd.coefficients import coefficients_e1, time_grid
from qfd.dynamics import (
    QubitState,
    asymptotic_population,
    evolve,
)
from qfd.errors import PhysicsError
from qfd.model import KinematicsParams, ParticleParams, preset

NV_NSI = preset("nv-nsi")
PLUS_STATE = QubitState(rho11=0.5, rho12=0.5)


def make_run(u: float, cycles: float = 2000.0, pts: int = 400):
    mat, part = NV_NSI
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, cycles, pts)
    trace = coefficients_e1(mat, part, KinematicsParams(u=u), grid)
    return trace, evolve(PLUS_STATE, trace)


# ---------------------------------------------------------------------------
# state type
# ---------------------------------------------------------------------------


def test_state_invariants():
    QubitState(rho11=0.5, rho12=0.5)
    with pytest.raises(PhysicsError):
        QubitState(rho11=1.5, rho12=0.0)
    with pytest.raises(PhysicsError):
        QubitState(rho11=0.0, rho12=0.5)  # coherence exceeds positivity bound
    with pytest.raises(PhysicsError):
        QubitState(rho11=0.5, rho12=complex(0.0, math.nan))
    assert QubitState(rho11=0.5, rho12=0.5).purity == pytest.approx(1.0)
    assert QubitState(rho11=0.5, rho12=0.0).purity == pytest.approx(0.5)


# ---------------------------------------------------------------------------
# evolution
# ---------------------------------------------------------------------------


def test_free_evolution_is_unitary():
    mat, part = NV_NSI
    part = ParticleParams(delta_tilde=0.2, r0_tilde=0.0, orientation=(1, 0, 0))
    grid = time_grid(0.2, 1.0, 5.0, 100)
    trace = coefficients_e1(mat, part, KinematicsParams(u=0.0), grid)
    initial = QubitState(rho11=0.3, rho12=0.25)
    res = evolve(initial, trace)
    assert np.allclose(np.abs(res.rho12), 0.25, atol=1e-15)
    assert np.allclose(res.rho11, 0.3, atol=1e-15)
    assert np.allclose(res.purity, initial.purity, atol=1e-15)
    # phase still advances at the bare level spacing
    assert np.allclose(res.xi, 0.2 * res.t, atol=1e-12)


def test_slow_motion_relaxes_to_ground_state():
    _, res = make_run(u=0.003)
    assert res.rho11[-1] <= 1e-3
    assert res.purity[-1] >= 0.999
    # purity dips below one mid-way before recovering
    assert res.purity.min() < 0.9


def test_fast_motion_reaches_mixed_state():
    _, res = make_run(u=0.3)
    n = res.cycles
    last = res.rho11[n >= n[-1] - 10.0]
    assert 0.0 < res.rho11[-1] < 0.5
    assert last.max() - last.min() <= 1e-3
    predicted = res.rho11[-1] ** 2 + (1 - res.rho11[-1]) ** 2
    assert res.purity[-1] == pytest.approx(predicted, abs=1e-3)


def test_structural_invariants_along_run():
    trace, res = make_run(u=0.15, cycles=50.0)
    # trace one and hermiticity are structural: populations bounded,
    # coherences bounded by the positivity disc on every sample
    assert np.all((res.rho11 >= 0.0) & (res.rho11 <= 1.0))
    bound = res.rho11 * (1 - res.rho11) + 1e-9
    assert np.all(np.abs(res.rho12) ** 2 <= bound)
    # envelope bookkeeping
    assert res.decoherence_factor[0] == 1.0
    assert np.all(np.diff(res.decoherence_factor) <= 1e-15)
    assert np.allclose(
        np.abs(res.rho12), 0.5 * res.decoherence_factor, atol=1e-15
    )
    # phase accumulates the drift plus twice the shift integral
    assert np.allclose(res.xi, 0.2 * res.t + 2.0 * trace.cumF, atol=1e-15)


def test_monotone_coherence_death():
    trace, res = make_run(u=0.0, cycles=100.0)
    assert np.all(trace.D >= -1e-18)
    assert np.all(np.diff(np.abs(res.rho12)) <= 1e-15)


def test_velocity_ordering_of_coherences():
    mat, part = NV_NSI
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 120.0, 400)
    runs = {
        u: evolve(PLUS_STATE, coefficients_e1(mat, part, KinematicsParams(u=u), grid))
        for u in (0.0, 0.15, 0.3)
    }
    n = runs[0.0].cycles
    mask = n >= 1.0
    a0 = np.abs(runs[0.0].rho12)[mask]
    a15 = np.abs(runs[0.15].rho12)[mask]
    a30 = np.abs(runs[0.3].rho12)[mask]
    assert np.all(a0 >= a15 - 1e-15)
    assert np.all(a15 >= a30 - 1e-15)


def stepwise_rho11(initial: QubitState, trace) -> np.ndarray:
    """Reference: the trapezoid recurrence one step at a time, every
    exponent nonpositive."""
    rm = np.empty_like(trace.cumD)
    rm[0] = 2.0 * initial.rho11 - 1.0
    for i in range(1, rm.size):
        decay = math.exp(-4.0 * (trace.cumD[i] - trace.cumD[i - 1]))
        step = trace.grid[i] - trace.grid[i - 1]
        drive = 0.5 * step * (trace.zeta[i - 1] * decay + trace.zeta[i])
        rm[i] = decay * rm[i - 1] - 4.0 * drive
    return np.clip(0.5 * (1.0 + rm), 0.0, 1.0)


def test_long_horizon_matches_stepwise_recurrence():
    # 4 max cumD is about 3,600 here: the drive integral runs in several
    # rebased blocks
    mat, part = NV_NSI
    part = replace(part, r0_tilde=1.0)
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 2000.0, 400)
    trace = coefficients_e1(mat, part, KinematicsParams(u=0.3), grid)
    assert 4.0 * trace.cumD[-1] > 3000.0
    initial = QubitState(rho11=0.9, rho12=0.25)
    res = evolve(initial, trace)
    rho11 = stepwise_rho11(initial, trace)
    np.testing.assert_allclose(res.rho11, rho11, rtol=1e-12, atol=0.0)
    purity = rho11**2 + (1.0 - rho11) ** 2 + 2.0 * np.abs(res.rho12) ** 2
    np.testing.assert_allclose(res.purity, purity, rtol=1e-12, atol=0.0)
    envelope = np.exp(-2.0 * trace.cumD)
    xi = trace.delta_tilde * grid + 2.0 * trace.cumF
    assert np.array_equal(res.t, grid)
    assert np.array_equal(res.decoherence_factor, envelope)
    assert np.array_equal(res.xi, xi)
    assert np.array_equal(res.rho12, 0.25 * envelope * np.exp(-1j * xi))


@pytest.mark.parametrize("r0, cycles", [(1e5, 200.0), (1e9, 20.0)])
def test_huge_cumd_steps_abort_without_overflow(r0, cycles):
    # one grid step moves 4 cumD by up to ~1e4 (r0 = 1e5) or ~1e8, and by
    # ~3e5 already on the first step (r0 = 1e9); no exponential may
    # overflow on the way to the positivity check
    mat, part = NV_NSI
    part = replace(part, r0_tilde=r0)
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, cycles, 400)
    trace = coefficients_e1(mat, part, KinematicsParams(u=0.3), grid)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(PhysicsError):
            evolve(QubitState(rho11=1.0, rho12=0.0), trace)


def test_positivity_breakdown_aborts():
    # corrupt a trace with an unphysical drive so the population leaves
    # [0, 1] beyond the slack
    trace, _ = make_run(u=0.0, cycles=2.0, pts=64)
    bad = type(trace)(
        grid=trace.grid,
        D=trace.D,
        f=trace.f,
        zeta=np.where(trace.grid > 0, -1.0, 0.0),
        method="e1",
        delta_tilde=trace.delta_tilde,
    )
    with pytest.raises(PhysicsError):
        evolve(PLUS_STATE, bad)


def test_evolution_csv_layout():
    _, res = make_run(u=0.0, cycles=1.0, pts=64)
    lines = res.to_csv().splitlines()
    assert lines[0] == (
        "t,N_cycles,rho11,re_rho12,im_rho12,abs_rho12,purity,decoherence_factor,xi"
    )
    assert len(lines) == res.t.size + 1


# ---------------------------------------------------------------------------
# asymptotic population
# ---------------------------------------------------------------------------


def test_asymptote_slow_is_ground_state():
    mat, part = NV_NSI
    assert asymptotic_population(mat, part, KinematicsParams(u=0.003)) <= 1e-3


def test_asymptote_fast_is_mixed():
    mat, part = NV_NSI
    val = asymptotic_population(mat, part, KinematicsParams(u=0.3))
    assert 0.0 < val < 0.5


def test_asymptote_matches_evolution_plateau():
    mat, part = NV_NSI
    val = asymptotic_population(mat, part, KinematicsParams(u=0.3))
    _, res = make_run(u=0.3)
    assert res.rho11[-1] == pytest.approx(val, abs=1e-6)


def test_threshold_departure():
    # the asymptote leaves the ground state once the velocity allows
    # excitation; the crossover sits at u ~ delta/2 on the visible scale
    mat, part = NV_NSI
    below = asymptotic_population(mat, part, KinematicsParams(u=0.02))
    above = asymptotic_population(mat, part, KinematicsParams(u=0.2))
    assert below <= 1e-6
    assert above > 1e-2


def test_asymptote_below_resolution_reads_zero():
    # populations below MARKOV_REL_TOL (1e-9), which bounds the error of
    # 1 - zeta/D, read 0: at u = 0.01 the activation law gives ~1e-17
    mat, part = NV_NSI
    assert asymptotic_population(mat, part, KinematicsParams(u=0.01)) == 0.0
    resolved = asymptotic_population(mat, part, KinematicsParams(u=0.02))
    assert resolved == pytest.approx(4.06e-9, rel=0.01)


# ---------------------------------------------------------------------------
# coherence difference |rho12(t; u)| - |rho12(t; 0)| on one grid
# ---------------------------------------------------------------------------


def test_coherence_difference_zero_for_identical():
    _, run_a = make_run(u=0.0, cycles=2.0, pts=64)
    _, run_b = make_run(u=0.0, cycles=2.0, pts=64)
    assert np.all(np.abs(run_a.rho12) - np.abs(run_b.rho12) == 0.0)


def test_coherence_difference_peak_and_decay():
    mat, part = NV_NSI
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 2000.0, 400)
    traces = {
        u: coefficients_e1(mat, part, KinematicsParams(u=u), grid)
        for u in (0.0, 0.15, 0.3)
    }
    mags = {u: np.abs(evolve(PLUS_STATE, tr).rho12) for u, tr in traces.items()}
    d15 = mags[0.15] - mags[0.0]
    d30 = mags[0.3] - mags[0.0]
    cyc = grid * part.delta_tilde / (2 * math.pi)
    for d in (d15, d30):
        i = int(np.argmax(np.abs(d)))
        assert 0 < i < d.size - 1  # interior peak
        assert 1.0 < cyc[i] < cyc[-1]
        assert abs(d[-1]) < 0.01 * abs(d[i])  # decays toward zero
    # faster motion digs a deeper trench, and the curves are depletions
    assert np.max(np.abs(d30)) > np.max(np.abs(d15))
    mask = cyc >= 1.0
    assert np.all(d15[mask] <= 1e-15) and np.all(d30[mask] <= 1e-15)

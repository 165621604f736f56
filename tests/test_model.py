"""Data-model tests: parameters, spectral density, poles, envelopes, presets."""

import math

import numpy as np
import pytest

from qfd.errors import ConfigError, DomainError
from qfd.model import (
    KinematicsParams,
    MaterialParams,
    ParticleParams,
    envelope_derivatives,
    kernel_P,
    material_preset,
    orientation_from_angles,
    orientation_weights,
    pole_omega_r,
    preset,
    spectral_density,
    spectral_response,
    unit_orientation,
    validate_dimensional,
)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_material_validation():
    MaterialParams(omega_s=1e15, gamma_tilde=0.5)
    with pytest.raises(ConfigError):
        MaterialParams(omega_s=-1.0, gamma_tilde=0.5)
    with pytest.raises(ConfigError):
        MaterialParams(omega_s=1e15, gamma_tilde=0.0)


def test_particle_validation():
    ParticleParams(delta_tilde=0.2, r0_tilde=1e-2)
    with pytest.raises(ConfigError):
        ParticleParams(delta_tilde=0.0, r0_tilde=1e-2)
    with pytest.raises(ConfigError):
        ParticleParams(delta_tilde=0.2, r0_tilde=1e-2, orientation=(1.0, 1.0, 0.0))
    p = ParticleParams(delta_tilde=0.2, r0_tilde=1e-2).with_orientation([2.0, 0.0, 0.0])
    assert p.orientation == (1.0, 0.0, 0.0)


def test_kinematics_validation():
    KinematicsParams(u=0.0)
    KinematicsParams(u=-0.3)  # sign carries no physics; accepted
    with pytest.raises(ConfigError):
        KinematicsParams(u=0.1, a_nm=-5.0)


def test_orientation_helpers():
    n = orientation_from_angles(math.pi / 2, 0.0)
    assert n == pytest.approx((1.0, 0.0, 0.0), abs=1e-15)
    with pytest.raises(ConfigError):
        unit_orientation((0.0, 0.0, 0.0))
    w = orientation_weights((0.0, 0.0, 1.0))
    assert (w.d_i, w.d_a) == (2.0, 4.0)


def test_dimensional_checks():
    mat = material_preset("nsi")
    part = ParticleParams(delta_tilde=0.2, r0_tilde=1e-2)
    # v = u omega_s a: huge u at 5 nm trips the non-relativistic guard
    warnings = validate_dimensional(mat, part, KinematicsParams(u=1e4, a_nm=5.0))
    assert any("non-relativistic" in w for w in warnings)
    # near-field violation needs a Delta / c > 0.1
    big = ParticleParams(delta_tilde=5.0, r0_tilde=1e-2)
    warnings = validate_dimensional(
        MaterialParams(omega_s=9.7e15, gamma_tilde=0.003), big, KinematicsParams(u=0.0, a_nm=2000.0)
    )
    assert any("near-field" in w for w in warnings)
    assert validate_dimensional(mat, part, KinematicsParams(u=0.003, a_nm=5.0)) == []


# ---------------------------------------------------------------------------
# spectral density
# ---------------------------------------------------------------------------


def test_spectral_density_values():
    assert spectral_density(0.0, 1.0) == 0.0
    assert spectral_density(1.0, 1.0) == pytest.approx(1.0, abs=1e-15)
    # direct substitution: 0.006 / (9 + 3.6e-5)
    assert spectral_density(2.0, 0.003) == pytest.approx(0.006 / 9.000036, rel=1e-12)
    assert spectral_density(2.0, 0.003) == pytest.approx(6.6666e-4, abs=1e-8)


def test_spectral_density_errors_and_vector():
    with pytest.raises(DomainError):
        spectral_density(-1.0, 1.0)
    with pytest.raises(DomainError):
        spectral_density(1.0, 0.0)
    vals = spectral_density(np.array([0.0, 1.0, 2.0]), 1.0)
    assert vals.shape == (3,)
    assert np.all(vals >= 0.0)


def test_spectral_density_second_derivative():
    # analytic curvatures of J and J/x against central differences
    def second_difference(f, x, h=1e-4):
        return (f(x + h) - 2 * f(x) + f(x - h)) / (h * h)

    for x, gt in [(0.2, 1.0), (8.0, 1.0), (0.2, 0.003), (0.5, 0.5)]:
        j, j2, j_over_x_2 = spectral_response(x, gt)
        assert j == pytest.approx(spectral_density(x, gt), rel=1e-15)
        fd = second_difference(lambda w: spectral_density(w, gt), x)
        assert j2 == pytest.approx(fd, rel=1e-6, abs=1e-10)
        fd = second_difference(lambda w: spectral_density(w, gt) / w, x)
        assert j_over_x_2 == pytest.approx(fd, rel=1e-6, abs=1e-10)


# ---------------------------------------------------------------------------
# pole structure
# ---------------------------------------------------------------------------


def test_pole_unit_damping():
    assert pole_omega_r(1.0) == pytest.approx(math.sqrt(3) / 2 + 0.5j, abs=1e-12)


def test_pole_overdamped_imaginary():
    w = pole_omega_r(3.0)
    assert w.real == 0.0
    assert w.imag > 0.0


def test_pole_weak_damping_limit():
    assert pole_omega_r(1e-8) == pytest.approx(1.0 + 0.0j, abs=1e-7)


@pytest.mark.parametrize("gt", [0.003, 0.5, 1.0, 1.9, 3.0])
def test_pole_quartic_consistency(gt):
    w = pole_omega_r(gt)
    # residual of the defining quartic
    assert abs((w * w - 1.0) ** 2 + gt * gt * w * w) <= 1e-10
    # agreement with the companion-matrix eigenvalues: the upper-half-plane
    # root with Re >= 0, the largest |Im| one above critical damping
    roots = np.roots([1.0, 0.0, gt * gt - 2.0, 0.0, 1.0])
    cand = [r for r in roots if r.imag > 0 and r.real >= -1e-12]
    ref = max(cand, key=lambda r: r.real if gt < 2.0 else r.imag)
    assert abs(w - ref) <= 1e-10


# ---------------------------------------------------------------------------
# envelope functions
# ---------------------------------------------------------------------------


def test_envelope_values():
    assert kernel_P(0.0, (1, 0, 0)) == pytest.approx(0.125, abs=1e-15)
    assert kernel_P(0.0, (0, 0, 1)) == pytest.approx(0.25, abs=1e-15)
    assert kernel_P(2.0, (0, 1, 0)) == pytest.approx(1.0 / 8.0**1.5, rel=1e-12)
    # Q(0) = 3/32 for the x dipole, from P' = -3 u^2 s Q(u s) near s = 0
    assert envelope_derivatives(1.0, 1e-8, (1, 0, 0))[1] / -3e-8 == pytest.approx(
        0.09375, rel=1e-12)


def test_envelope_decay():
    # P and its first two delay derivatives at s = 1e4 (x = 1e4 at u = 1)
    for value in envelope_derivatives(1.0, 1e4, (0.5, 0.5, math.sqrt(0.5))):
        assert abs(value) < 1e-10


def test_envelope_static_identity_on_sphere():
    # P(0) = d_i/8 for 100 directions
    rng = np.random.default_rng(1)
    for _ in range(100):
        v = rng.normal(size=3)
        n = unit_orientation(v)
        w = orientation_weights(n)
        assert kernel_P(0.0, n) == pytest.approx(w.d_i / 8.0, abs=1e-14)


def test_envelope_taylor_remainder_order():
    # |P(x) - (d_i/8 - 3/64 d_a x^2)| should shrink like x^4
    n = unit_orientation((0.3, -0.5, 0.81))
    w = orientation_weights(n)
    xs = np.array([0.1, 0.05, 0.025, 0.0125])
    rem = np.array(
        [abs(kernel_P(x, n) - (w.d_i / 8.0 - 3.0 / 64.0 * w.d_a * x * x)) for x in xs]
    )
    order = np.polyfit(np.log(xs), np.log(rem), 1)[0]
    assert order >= 3.9


def test_envelope_derivative_identities():
    # central differences of kernel_P(u s) in s against the closed forms;
    # at x = u s = 0.3, 1 and 2.5, the last also at u = 2
    n = unit_orientation((0.48, 0.6, 0.64))
    h = 1e-5
    for u, s in ((1.0, 0.3), (1.0, 1.0), (1.0, 2.5), (2.0, 1.25)):
        p, dp, d2p = envelope_derivatives(u, s, n)
        fd1 = (kernel_P(u * (s + h), n) - kernel_P(u * (s - h), n)) / (2 * h)
        fd2 = (kernel_P(u * (s + h), n) - 2 * p + kernel_P(u * (s - h), n)) / (h * h)
        assert fd1 == pytest.approx(dp, rel=1e-8, abs=1e-10)
        assert fd2 == pytest.approx(d2p, rel=1e-5, abs=1e-8)


def test_envelope_derivatives_at_rest_on_sphere():
    # at s = 0, P' = 0 and P'' = -12 u^2 d_a / 128 for 100 directions
    rng = np.random.default_rng(2)
    u = 0.3
    for _ in range(100):
        n = unit_orientation(rng.normal(size=3))
        _, dp, d2p = envelope_derivatives(u, 0.0, n)
        assert dp == 0.0
        assert d2p == pytest.approx(-12.0 * u * u * orientation_weights(n).d_a / 128.0,
                                    rel=1e-14, abs=1e-15)


# ---------------------------------------------------------------------------
# presets
# ---------------------------------------------------------------------------


def test_material_presets():
    nsi = material_preset("nSi")
    assert nsi.omega_s == 2.47e14 and nsi.gamma_tilde == 1.0
    au = material_preset("Au")
    assert au.omega_s == 9.7e15 and au.gamma_tilde == 0.003


def test_pair_presets():
    mat, part = preset("NV-on-nSi")
    assert part.delta_tilde == 0.2
    assert part.r0_tilde == 1e-2
    assert mat.name == "n-Si"
    _, part = preset("nv-au")
    assert part.delta_tilde == 0.9
    _, part = preset("rb-nsi")
    assert part.delta_tilde == 8.0
    _, part = preset("rb-au")
    # the same Rb transition frequency rescaled by the gold plasmon scale
    assert part.delta_tilde == pytest.approx(8.0 * 2.47e14 / 9.7e15, rel=1e-12)


def test_preset_errors_list_valid_names():
    with pytest.raises(ConfigError) as info:
        preset("cs-on-si")
    assert "nv-nsi" in str(info.value)
    with pytest.raises(ConfigError) as info:
        material_preset("gold")
    assert "au" in str(info.value)

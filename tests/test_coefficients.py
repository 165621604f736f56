"""Coefficient tests: kernels vs quadrature oracles, three-method agreement,
Markov limits, symmetry and linearity properties."""

import dataclasses
import math
import tracemalloc

import mpmath
import numpy as np
import pytest
from scipy import integrate as sp_integrate

from qfd.coefficients import (
    _CSV_BLOCK,
    _FAR_PT,
    _GL4_W,
    _GL4_X,
    _KERNEL_BLOCK,
    _MAX_SUBPANEL_WIDTH,
    _cos_tail_coefficients,
    _e1_correction_sums,
    _gl4,
    _graded_start,
    _plan_blocks,
    _pole_pair,
    _stationary_readout,
    _tail_slope_correction,
    _time_segments,
    coefficients_analytic_small_u,
    coefficients_brute,
    coefficients_e1,
    coefficients_from_table,
    csv_blocks,
    csv_table,
    decoherence_table,
    decoherence_window,
    make_kernel_table,
    markov_limit,
    omega_kernel_cos,
    omega_kernel_sin,
    omega_kernels,
    time_grid,
)
from qfd.decoherence import sweep_level_spacing, sweep_rows_to_csv, tau_d_numeric
from qfd.dynamics import QubitState, asymptotic_population, evolve
from qfd.errors import ConfigError, DomainError, GridError
from qfd.model import (
    KinematicsParams,
    MaterialParams,
    ParticleParams,
    kernel_P,
    orientation_weights,
    pole_omega_r,
    preset,
    spectral_density,
    spectral_response,
    unit_orientation,
)
from qfd.numerics import cumulative_integral

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
    w = pole_omega_r(gt)
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


def closed_form_cos_kernel(t: float, gt: float) -> tuple[float, float]:
    """omega_kernel_cos's closed forms at 50 digits: (Kc, the size of the
    terms it sums).  Below gt = 2 that size is |pole term| + |E1
    remainder|, which keeps the error measure finite where Kc crosses
    zero; at and above 2 Kc is a one-signed tail and the size is |Kc|."""
    with mpmath.workdps(50):
        t, g = mpmath.mpf(t), mpmath.mpf(gt)
        if gt < 2.0:
            s4 = mpmath.sqrt(4 - g * g)
            w = mpmath.mpc(s4 / 2, g / 2)
            pole = mpmath.pi * mpmath.re(mpmath.exp(1j * w * t)) / s4
            rem = sum(mpmath.im(mpmath.exp(z) * mpmath.e1(z)) for z in (1j * w * t, -1j * w * t))
            rem /= s4
            return float(pole + rem), float(abs(pole) + abs(rem))
        if gt == 2.0:
            kc = 1 - t / 2 * (mpmath.exp(-t) * mpmath.ei(t) + mpmath.exp(t) * mpmath.e1(t))
        else:
            s = mpmath.sqrt(g * g - 4)
            b = (g + s) / 2

            def h(x):
                return mpmath.exp(x) * mpmath.e1(x) - mpmath.exp(-x) * mpmath.ei(x)

            kc = (h(t / b) - h(b * t)) / (2 * s)
        return float(kc), float(abs(kc))


def nearest_pole_distance(gt: float) -> float:
    """p of the far branch: |w_r| = 1 up to gt = 2, the slow rate a above."""
    return 1.0 if gt <= 2.0 else 1.0 / pole_omega_r(gt).imag


@pytest.mark.parametrize("gt", [0.003, 0.3, 1.0, 1.999, 2.0, 2.001, 2.5, 100.0])
def test_kernel_cos_far_branch_matches_closed_form(gt):
    # p t from the threshold to 1e6, dense on [40, 70].  The E1 form,
    # whose G(z) + G(-z) cancels, is off by up to 2.7e-13 on [40, 70]
    # (gt = 2.001) and by up to 3.5e-8 beyond (gt = 0.003 at p t = 1e6);
    # the series holds 1.1e-13 and 1.3e-12, the latter the rounding of
    # the pole term's phase w_r t at gt = 0.003.  gt = 1 has e_2 = 0.
    pt = np.concatenate([np.linspace(_FAR_PT, 70.0, 61), np.geomspace(70.0, 1e6, 15)[1:]])
    t = pt / nearest_pole_distance(gt)
    got = omega_kernel_cos(t, gt)
    ref, size = np.array([closed_form_cos_kernel(x, gt) for x in t]).T
    err = np.abs(got - ref) / size
    assert err[:61].max() < 2e-13
    assert err[61:].max() < 2e-12


def test_kernel_cos_far_branch_regression():
    # the E1 form loses 1.5e-10 here, where G(z) + G(-z) cancels its
    # leading 1/z terms
    ref, _ = closed_form_cos_kernel(3e4, 0.009)
    assert omega_kernel_cos(3e4, 0.009) == pytest.approx(ref, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("gt", [0.003, 1.0, 2.0, 2.5, 100.0])
def test_cos_tail_leading_coefficients(gt):
    # the tail orders -gt/t^2 and -6 gt (gt^2 - 2)/t^4 of Kc
    c = _cos_tail_coefficients(gt)
    assert c[0] == -gt
    assert c[1] == pytest.approx(-6.0 * gt * (gt * gt - 2.0), rel=1e-15)


def test_cos_tail_coefficients_scale():
    # C_n(scale) = C_n(1) scale^(2n+2): the series in (p t)^-2
    gt, p = 2.5, 0.5
    n = np.arange(_cos_tail_coefficients(gt).size)
    assert np.allclose(
        _cos_tail_coefficients(gt, p), _cos_tail_coefficients(gt) * p ** (2 * n + 2),
        rtol=1e-13, atol=0.0,
    )


@pytest.mark.parametrize("gt, per_node", [(0.003, 2), (2.0, 2), (2.5, 4)])
def test_kernel_table_far_nodes_skip_e1(monkeypatch, gt, per_node):
    # only nodes below the far threshold reach the exponential integrals:
    # two complex E1 below gt = 2, E1 and Ei at 2, both at a t and b t above
    import qfd.coefficients

    seen = []
    for name in ("exp_integral_e1_scaled", "exp_integral_ei_scaled"):
        real = getattr(qfd.coefficients, name)

        def counted(x, real=real):
            seen.append(np.size(x))
            return real(x)

        monkeypatch.setattr(qfd.coefficients, name, counted)
    table = make_kernel_table(gt, np.linspace(0.0, 2000.0, 4001))
    assert seen == []  # the plan evaluates nothing; the pass does
    coefficients_from_table(table, NV_NSI[1], KinematicsParams(u=0.0))
    near = np.count_nonzero(nearest_pole_distance(gt) * table.nodes < _FAR_PT)
    assert 0 < near < table.nodes.size
    assert sum(seen) == per_node * near


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
    for cycles in (0.0, math.nan, math.inf):
        with pytest.raises(GridError):
            time_grid(0.2, 1.0, cycles)


def test_trace_csv_layout():
    mat, part = NV_NSI
    tr = coefficients_e1(mat, part, KinematicsParams(u=0.0), np.linspace(0, 5, 6))
    lines = tr.to_csv().splitlines()
    assert lines[0] == "t,N_cycles,D,f,zeta,cumD,cumF,method"
    assert lines[1].endswith(",e1")
    assert len(lines) == 7


def test_csv_table_blocks_nan_and_strings():
    # one row past a block: the second block carries the NaN and the last row
    n = _CSV_BLOCK + 1
    x = np.arange(n) / 3.0
    x[-1] = math.nan
    labels = [f"row {i}" if i else "" for i in range(n)]
    lines = csv_table({"x": x, "i": np.arange(n), "label": labels}).splitlines()
    assert lines[0] == "x,i,label"
    assert len(lines) == n + 1
    assert lines[2] == f"{1 / 3:.17g},1,row 1"
    assert lines[1] == "0,0,"
    assert lines[-1] == f"nan,{n - 1},row {n - 1}"
    assert [float(line.split(",")[0]) for line in lines[1:-1]] == x[:-1].tolist()
    with pytest.raises(GridError):
        csv_table({"x": x, "short": x[:-1]})


def csv_table_reference(columns):
    """The per-row '%' formatting loop that csv_table replaces."""
    arrays = [np.asarray(c) for c in columns.values()]
    line = ",".join("%.17g" if a.dtype.kind in "fiu" else "%s" for a in arrays) + "\n"
    rows = zip(*(a.tolist() for a in arrays))
    return ",".join(columns) + "\n" + "".join([line % row for row in rows])


@pytest.mark.parametrize("n", [0, 1, _CSV_BLOCK - 1, _CSV_BLOCK, _CSV_BLOCK + 1])
def test_csv_blocks_join_to_the_table(n):
    # the header, then one block per _CSV_BLOCK rows, the last one partial
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * 10.0 ** rng.integers(-20, 20, n)
    columns = {"x": x, "i": np.arange(n), "label": [f"row {i}" for i in range(n)]}
    blocks = list(csv_blocks(columns))
    assert len(blocks) == 1 + -(-n // _CSV_BLOCK)
    assert "".join(blocks) == csv_table(columns) == csv_table_reference(columns)
    # unequal columns raise on the call, before any block is taken
    with pytest.raises(GridError):
        csv_blocks({"x": x, "short": x[:-1] if n else [0.0]})


def test_csv_table_matches_reference_on_evolve_and_sweep_tables():
    # the README evolve table, 34 k rows in fixed notation and with
    # two-digit negative exponents, and sweep rows with NaN cells and text
    # columns
    mat, part = NV_NSI
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 2000.0)
    trace = coefficients_e1(mat, part, KinematicsParams(u=0.3), grid)
    run = evolve(QubitState(rho11=0.5, rho12=0.5), trace)
    columns = {
        "t": run.t, "N_cycles": run.cycles, "rho11": run.rho11,
        "re_rho12": run.rho12.real, "im_rho12": run.rho12.imag,
        "abs_rho12": np.hypot(run.rho12.real, run.rho12.imag), "purity": run.purity,
        "decoherence_factor": run.decoherence_factor, "xi": run.xi,
    }
    assert run.to_csv() == csv_table(columns) == csv_table_reference(columns)
    assert trace.to_csv() == csv_table_reference({
        "t": trace.grid, "N_cycles": trace.cycles, "D": trace.D, "f": trace.f,
        "zeta": trace.zeta, "cumD": trace.cumD, "cumF": trace.cumF,
        "method": np.full(grid.shape, "e1"),
    })
    rows = sweep_level_spacing(mat, part, KinematicsParams(u=0.003), [0.5, 0.95, 1.05],
                               method="markov")
    nan = math.nan
    rows[1:] = [dataclasses.replace(r, tau_d=nan, tau_d_u0=nan, rate=nan) for r in rows[1:]]
    sweep = {f.name: [getattr(r, f.name) for r in rows] for f in dataclasses.fields(rows[0])}
    assert sweep_rows_to_csv(rows) == csv_table_reference(sweep)


def test_csv_table_prints_every_double_as_percent_17g():
    rng = np.random.default_rng(20261019)
    edges = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 2.2250738585072014e-308,
             1.7976931348623157e308, 9.9999999999999999e16]
    # doubles just below a power of ten whose 17 digits round up to it
    edges += [1e-14, 1e-70, 1e98, 1e220]
    for k in range(-5, 18):
        p = 10.0**k
        edges += [p, math.nextafter(p, 0.0), math.nextafter(p, math.inf)]
    x = np.concatenate([
        rng.integers(0, 2**64, 10**5, dtype=np.uint64).view(np.float64),
        # fixed notation, and ties of the 17th digit (k/4 near 1e15)
        rng.choice([-1.0, 1.0], 10**5) * rng.random(10**5) * 10.0 ** rng.integers(-6, 19, 10**5),
        1e15 + np.arange(-50, 50) / 4.0,
        np.array(edges + [-v for v in edges]),
    ])
    expected = "x\n" + "".join(["%.17g\n" % v for v in x.tolist()])
    assert csv_table({"x": x}) == expected


def test_csv_table_integer_bool_text_and_empty_columns():
    # doubles nearest to integers past 2^53, ties to even among them
    big = [0, 1, 2**53 + 1, 2**53 + 3, 2**63 - 1, 2**63 + 1024, 2**63 + 3072, 2**64 - 1]
    columns = {
        "i": np.array([-(2**63), -1, 0, 7, 2**53 + 1, 2**53 + 3, 2**62 + 123, 2**63 - 1]),
        "u": np.array(big, np.uint64),
        "f32": np.linspace(-1.0, 1.0, 8, dtype=np.float32) / 3,
        "b": np.array([True, False] * 4),
        "s": ["a", "", "ü", "x y", "nan", "1e5", "-", "last"],
        "o": [None, 1.5, "z", 2, frozenset(), b"b", 0.1, 3j],
    }
    assert csv_table(columns) == csv_table_reference(columns)
    empty = {name: np.asarray(c)[:0] for name, c in columns.items()}
    assert csv_table(empty) == csv_table_reference(empty) == "i,u,f32,b,s,o\n"


def panel_nodes_reference(grid):
    """GL4 nodes, weights and panel offsets from per-panel np.linspace
    sub-panel edges, the loop _plan_blocks replaces, all at once."""
    counts = np.maximum(1, np.ceil(np.diff(grid) / _MAX_SUBPANEL_WIDTH).astype(int))
    edges = [np.linspace(a, b, k + 1) for a, b, k in zip(grid[:-1], grid[1:], counts)]
    sa = np.concatenate([e[:-1] for e in edges])
    sb = np.concatenate([e[1:] for e in edges])
    mid = 0.5 * (sa + sb)
    half = 0.5 * (sb - sa)
    nodes = (mid[:, None] + half[:, None] * _GL4_X[None, :]).ravel()
    wts = (half[:, None] * _GL4_W[None, :]).ravel()
    return nodes, wts, np.concatenate([[0], np.cumsum(counts)[:-1]]) * 4


def plan_layout(table):
    """(nodes, weights, offsets, grid) of the whole plan, joined from the
    blocks of _plan_blocks: each block's GL4 nodes and weights (_gl4) as
    the pass forms them, its panel offsets shifted by the nodes before
    it, and its grid points after the one it shares with the block
    before."""
    parts, start = [[], [], [], [table.grid[:1]]], 0
    for g, edges, offsets in _plan_blocks(table):
        x, w = _gl4(edges)
        for part, a in zip(parts, (x, w, offsets + start, g[1:])):
            part.append(a)
        start += x.size
    return tuple(np.concatenate(p) for p in parts)


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
def test_block_nodes_match_per_panel_linspace(grid):
    # the nodes and weights each panel block forms from its edges, as
    # coefficients_from_table forms them, and the table's on-demand nodes
    table = make_kernel_table(1.0, grid)
    *got, points = plan_layout(table)
    ref = panel_nodes_reference(grid)
    assert np.diff(grid).max() > _MAX_SUBPANEL_WIDTH
    for g, r in zip(got, ref):
        assert g.dtype == r.dtype
        assert np.array_equal(g, r)
    assert np.array_equal(points, grid)
    assert np.array_equal(table.nodes, ref[0])


def test_kernel_table_blocks_match_whole_array_bitwise(monkeypatch):
    # 3.5 node blocks, whose nodes take both E1 branches and, from the
    # far threshold on, which falls inside a block, the 1/t^2 series;
    # the kernels the pass evaluates a block at a time are those of one
    # whole-array call
    import qfd.coefficients

    blocks = []

    def recorded(t, gt):
        blocks.append(omega_kernels(t, gt))
        return blocks[-1]

    monkeypatch.setattr(qfd.coefficients, "omega_kernels", recorded)
    grid = np.linspace(0.0, 200.0, 7 * _KERNEL_BLOCK // 8 + 1)
    part = ParticleParams(delta_tilde=0.9, r0_tilde=1e-2, orientation=(1.0, 0.0, 0.0))
    # 2.0 is the double-pole form, dispatched beside the other two
    for gt in (0.003, 1.0, 2.0, 2.5):
        table = make_kernel_table(gt, grid)
        assert table.nodes.size > 3 * _KERNEL_BLOCK
        first_far = np.searchsorted(nearest_pole_distance(gt) * table.nodes, _FAR_PT)
        assert 0 < first_far % _KERNEL_BLOCK and first_far < table.nodes.size
        blocks.clear()
        coefficients_from_table(table, part, KinematicsParams(u=0.3))
        assert len(blocks) == 4
        kc, ks = omega_kernels(table.nodes, gt)
        assert np.array_equal(np.concatenate([b[0] for b in blocks]), kc)
        assert np.array_equal(np.concatenate([b[1] for b in blocks]), ks)
        assert np.array_equal(kc, omega_kernel_cos(table.nodes, gt))
        assert np.array_equal(ks, omega_kernel_sin(table.nodes, gt))


def trace_reference(table, part, kin):
    """(D, f, zeta, cumD, cumF) from one whole-table pass: both kernels
    and every node's integrand at once, summed per panel by one reduceat."""
    pref = part.r0_tilde / (2.0 * math.pi)
    nodes, weights, offsets = panel_nodes_reference(table.grid)
    assert np.array_equal(offsets, plan_layout(table)[2])
    kc, ks = omega_kernels(nodes, table.gamma_tilde)
    pv = kernel_P(abs(kin.u) * nodes, part.orientation)
    cosn = np.cos(part.delta_tilde * nodes)
    sinn = np.sin(part.delta_tilde * nodes)

    def prefix(values):
        panel = np.add.reduceat(values * weights, offsets)
        out = np.empty(table.grid.size)
        out[0] = 0.0
        np.cumsum(panel, out=out[1:])
        return pref * out

    D = prefix(cosn * kc * pv)
    f = prefix(sinn * kc * pv)
    zeta = prefix(sinn * ks * pv)
    return D, f, zeta, cumulative_integral(table.grid, D), cumulative_integral(table.grid, f)


# 1,000 panels of 4 nodes, then 500 of 5 sub-panels (20 nodes), so that
# no multiple of _KERNEL_BLOCK is a panel edge
BLOCKED_GRID = np.concatenate([np.linspace(0.0, 100.0, 1001), 100.0 + 2.3 * np.arange(1, 501)])


@pytest.mark.parametrize("gt", [0.003, 1.0, 2.5])
@pytest.mark.parametrize(
    "grid", [BLOCKED_GRID, np.array([0.0, 5000.0])], ids=["panel-blocks", "one-wide-panel"]
)
def test_blocked_trace_matches_whole_table_bitwise(gt, grid):
    table = make_kernel_table(gt, grid)
    if grid.size == 2:
        # a single panel of 40,000 nodes, one block of its own
        assert table.nodes.size > _KERNEL_BLOCK
    else:
        assert table.nodes.size > 3 * _KERNEL_BLOCK
        multiples = set(range(_KERNEL_BLOCK, table.nodes.size, _KERNEL_BLOCK))
        assert not multiples & set(plan_layout(table)[2])
    oblique = unit_orientation((0.3, 0.5, 0.8))
    for u in (0.0, 0.3):
        for n in ((1.0, 0.0, 0.0), oblique):
            part = ParticleParams(delta_tilde=0.9, r0_tilde=1e-2, orientation=n)
            kin = KinematicsParams(u=u)
            trace = coefficients_from_table(table, part, kin)
            got = (trace.D, trace.f, trace.zeta, trace.cumD, trace.cumF)
            for name, a, b in zip(("D", "f", "zeta", "cumD", "cumF"), got,
                                  trace_reference(table, part, kin)):
                assert np.array_equal(a, b), (name, u, n)


def test_trace_temporaries_stay_block_sized():
    # 130 k panels, 520 k nodes, most on the cheap far branch of Kc; the
    # trace holds its 3 coefficient and 2 cumulative arrays plus the
    # trapezoids' grid-sized temporary, about 6 grid.nbytes, where a
    # whole-table pass holds several node-sized arrays on top
    table = make_kernel_table(1.0, np.linspace(0.0, 13000.0, 130001))
    assert table.nodes.size >= 500_000
    part = ParticleParams(delta_tilde=0.9, r0_tilde=1e-2, orientation=unit_orientation((1, 1, 1)))
    tracemalloc.start()
    try:
        coefficients_from_table(table, part, KinematicsParams(u=0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * table.grid.nbytes


def test_table_holds_no_node_sized_array_and_neither_does_a_trace():
    # 40 panels of 4,000 nodes, each a block of its own: 160 k nodes, of
    # 1.25 MB per float array, against a block's 32 KiB
    grid = np.linspace(0.0, 20000.0, 41)
    tracemalloc.start()
    try:
        table = make_kernel_table(1.0, grid)
        build_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = table.nodes.size
    blocks = list(_plan_blocks(table))
    assert n == 160_000 and len(blocks) == 40
    fields = [getattr(table, f.name) for f in dataclasses.fields(table)]
    assert [a for a in fields if np.size(a) >= n] == []
    assert sum(edges.size - 1 for _, edges, _ in blocks) == n // 4
    # block-sized temporaries: no edge, offset or node array
    block_bound = 24 * 8 * _KERNEL_BLOCK
    assert build_peak <= block_bound

    part = ParticleParams(delta_tilde=0.9, r0_tilde=1e-2, orientation=unit_orientation((1, 1, 1)))
    tracemalloc.start()
    try:
        coefficients_from_table(table, part, KinematicsParams(u=0.3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9 * grid.nbytes + block_bound < 8 * n


# the decoherence tables of nv-nsi, rb-nsi and gold at three times its
# damping, the bench's gold tdec
READOUT_CASES = {
    "nv-nsi": NV_NSI,
    "rb-nsi": preset("rb-nsi"),
    "rb-au-gamma-0.009": (dataclasses.replace(preset("rb-au")[0], gamma_tilde=0.009),
                          preset("rb-au")[1]),
}


def whole_row_root(trace, d_inf):
    """tau_D off a whole cumD row and the index of its crossing: the
    first crossing of 1, closed-form on its segment, else (index None)
    the continuation past the end at slope d_inf."""
    g, c = trace.grid, trace.cumD
    i = int(np.argmax(c >= 1.0))
    if c[i] >= 1.0:
        return g[i - 1] + (1.0 - c[i - 1]) * (g[i] - g[i - 1]) / (c[i] - c[i - 1]), i
    return g[-1] + (1.0 - c[-1]) / d_inf, None


@pytest.mark.parametrize("name", READOUT_CASES)
def test_stationary_readout_matches_full_trace_bitwise(name):
    # the streamed tau_D is the root of the full trace's cumD, and the
    # Markov read-out's ends are the trace's, bit for bit
    mat, part = READOUT_CASES[name]
    table = decoherence_table(mat, part.delta_tilde)
    for u in (0.0, 1.5e-4, 3e-3):
        kin = KinematicsParams(u=u)
        trace = coefficients_from_table(table, part, kin)
        markov = markov_limit(mat, part, kin)
        tail = _tail_slope_correction(table, part, kin)
        assert markov.D_inf == float(trace.D[-1]) + tail, u
        assert markov.zeta_inf == trace.zeta[-1], u
        ((d_inf, _, cum_d, _),) = _stationary_readout([(part, kin)], table)
        assert d_inf == markov.D_inf and cum_d == trace.cumD[-1], u
        tau = tau_d_numeric(mat, part, kin).tau_d
        assert tau == whole_row_root(trace, markov.D_inf)[0], u


def test_streamed_tau_is_the_whole_row_root_in_and_past_the_window():
    # past the window (the continuation), inside it (r0_tilde = 1), and
    # on the first grid point of a block, where the crossing's left end
    # is the cumD carried over from the block before
    mat, part = NV_NSI
    table = decoherence_table(mat, part.delta_tilde)
    kin = KinematicsParams(u=0.003)
    first = sum(g.size - 1 for g, _, _ in list(_plan_blocks(table))[:2]) + 1
    unit = coefficients_from_table(table, dataclasses.replace(part, r0_tilde=1.0), kin).cumD
    at_first = 2.0 / (unit[first - 1] + unit[first])
    crossings = []
    for r0 in (1e-2, 1.0, at_first):
        at = dataclasses.replace(part, r0_tilde=r0)
        trace = coefficients_from_table(table, at, kin)
        tau, i = whole_row_root(trace, markov_limit(mat, at, kin).D_inf)
        assert tau_d_numeric(mat, at, kin).tau_d == tau, r0
        crossings.append(i)
    assert crossings[0] is None and crossings[1] is not None and crossings[2] == first


def linspace_grid(segments):
    """The points of a time_grid plan by np.linspace over each segment."""
    return np.concatenate([np.linspace(s.start, s.stop, s.n + 1)[s.first:] for s in segments])


@pytest.mark.parametrize("name", ["nv-nsi", "rb-nsi", "rb-au", "nv-au"])
def test_decoherence_plan_blocks_form_the_graded_time_grid_bitwise(name):
    # time_grid over the decoherence window is np.linspace over its
    # segments, and the points each block forms from the plan's segments
    # are those of its graded start, bit for bit
    mat, part = preset(name)
    table = decoherence_table(mat, part.delta_tilde)
    assert table.head.size < 4 * _KERNEL_BLOCK
    cycle = 2.0 * math.pi / part.delta_tilde
    window = decoherence_window(part.delta_tilde, mat.gamma_tilde)
    ref = linspace_grid(_time_segments(part.delta_tilde, mat.gamma_tilde, window / cycle, 400, ""))
    assert np.array_equal(time_grid(part.delta_tilde, mat.gamma_tilde, window / cycle), ref)
    ref = _graded_start(ref)
    points = plan_layout(table)[3]
    assert points.dtype == ref.dtype and np.array_equal(points, ref)
    assert np.array_equal(table.grid, ref)


@pytest.mark.parametrize("name", ["nv-nsi", "rb-nsi", "rb-au", "nv-au"])
@pytest.mark.parametrize("cycles", [1.0, 6.0, 2000.0])
def test_time_grid_is_np_linspace_over_its_segments_bitwise(name, cycles):
    # the coeffs and evolve grids, at the default density and at the
    # oracle's coarse one (coeffs --method brute|all)
    mat, part = preset(name)
    for pts in (400, 8):
        grid = time_grid(part.delta_tilde, mat.gamma_tilde, cycles, pts)
        ref = linspace_grid(_time_segments(part.delta_tilde, mat.gamma_tilde, cycles, pts, ""))
        assert grid.dtype == ref.dtype and np.array_equal(grid, ref)


@pytest.mark.parametrize("gamma_tilde", [0.003, 0.001])
def test_decoherence_plan_build_is_block_sized_whatever_the_window(gamma_tilde):
    # nv-au's plan spans 2.1 M grid points (8.4 M nodes), 6.3 M at a third
    # of its damping; building it holds less than one block's node array
    mat, part = preset("nv-au")
    mat = dataclasses.replace(mat, gamma_tilde=gamma_tilde)
    tracemalloc.start()
    try:
        table = decoherence_table(mat, part.delta_tilde)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    points = table.head.size + sum(s.n + 1 - s.first for s in table.segments)
    assert points > 2_000_000
    assert peak <= 8 * _KERNEL_BLOCK < points


def test_oversized_grid_is_refused_before_allocating():
    # one panel of 8e12 nodes, refused from the sub-panel counts (the CLI
    # plans are refused earlier, by time_grid)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match="panel nodes"):
            make_kernel_table(1.0, np.array([0.0, 1e12]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1e6


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


def test_brute_overdamped_matches_fine_e1():
    # at gamma_tilde = 20 the oracle's frequency cutoff, 50 gamma_tilde,
    # keeps its truncation tail accurate; the reference is e1 on a grid
    # fine enough for the fast pole at 1/b ~ 0.05 (ten times finer
    # moves the deviations by under 2e-14 of the column maxima)
    mat, part = NV_NSI
    mat = dataclasses.replace(mat, gamma_tilde=20.0)
    kin = KinematicsParams(u=0.003)
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, 0.1, 8)
    oracle = coefficients_brute(mat, part, kin, grid)
    fine = np.union1d(grid, np.linspace(0.0, grid[-1], 20001))
    ref = coefficients_e1(mat, part, kin, fine)
    at = np.searchsorted(fine, grid)
    for name in ("D", "f", "zeta"):
        column = getattr(ref, name)
        dev = np.max(np.abs(getattr(oracle, name) - column[at]))
        assert dev <= 1e-9 * np.max(np.abs(column)), f"{name} deviates by {dev}"


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


def test_pole_pair_square_root_factor():
    # s4 = sqrt(4 - gt^2), which the gt < 2 kernels and the analytic bracket divide by
    w, s4 = _pole_pair(1.0)
    assert w == pytest.approx(math.sqrt(3) / 2 + 0.5j, abs=1e-12)
    assert s4 == pytest.approx(math.sqrt(3), abs=1e-12)


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


def mpmath_e1_correction_sums(w: complex, dt, t: float):
    """(C, S) of _e1_correction_sums at 30 digits, from the same closed
    form int_0^t e^{as} E1(bs) ds = [e^{at} E1(bt) - E1((b-a)t) - Log(b-a)
    + Log(b)] / a."""
    w, t, i = mpmath.mpc(w), mpmath.mpf(t), mpmath.mpc(0, 1)

    def f(a, b):
        return (mpmath.exp(a * t) * mpmath.e1(b * t) - mpmath.e1((b - a) * t)
                - mpmath.log(b - a) + mpmath.log(b)) / a

    t1, t2 = f(i * (w + dt), i * w), f(i * (dt - w), -i * w)
    t3, t4 = f(i * (w - dt), i * w), f(-i * (w + dt), -i * w)
    return 0.5 * mpmath.im(t1 + t2 + t3 + t4), -0.5 * mpmath.re(t1 + t2 - t3 - t4)


def test_e1_correction_second_delta_derivative_is_exact():
    # central differences at h = 1e-3 were 5.4 % and 19 % off at t = 1000
    # and 2000 on nv-nsi; the closed form holds to rounding at any t
    w, _ = _pole_pair(NV_NSI[0].gamma_tilde)
    dt = NV_NSI[1].delta_tilde
    ts = [1.0, 100.0, 1000.0, 2000.0]
    _, _, cdd, sdd = _e1_correction_sums(w, dt, np.array(ts))
    with mpmath.workdps(30):
        for t, c, s in zip(ts, cdd, sdd):
            ref_c = mpmath.diff(lambda d: mpmath_e1_correction_sums(w, d, t)[0], dt, 2)
            ref_s = mpmath.diff(lambda d: mpmath_e1_correction_sums(w, d, t)[1], dt, 2)
            assert c == pytest.approx(float(ref_c), rel=1e-8)
            assert s == pytest.approx(float(ref_s), rel=1e-8)
        # and the closed form is the integral it stands for
        g = lambda z: mpmath.exp(z) * mpmath.e1(z)  # noqa: E731
        iw = mpmath.mpc(0, 1) * mpmath.mpc(w)
        direct = mpmath.quad(
            lambda s: -s * s * mpmath.cos(dt * s) * mpmath.im(g(iw * s) + g(-iw * s)), [0, 0.5, 1]
        )
    assert cdd[0] == pytest.approx(float(direct), rel=1e-10)


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
    assert mk.D_inf == pytest.approx(exact, rel=1e-10, abs=0.0)
    assert mk.zeta_inf == pytest.approx(exact, rel=1e-9, abs=0.0)
    assert asymptotic_population(mat, part, rest) == 0.0
    if name == "nv-nsi":
        # the value the figure-level runs quote (rounded upstream arithmetic)
        assert mk.D_inf == pytest.approx(6.4997e-5, abs=2e-9)


@pytest.mark.parametrize("gt", [2.0, 2.5, 4.0, 10.0])
@pytest.mark.parametrize("name", ["nv-nsi", "rb-nsi", "rb-au", "nv-au"])
def test_markov_static_value_overdamped(name, gt):
    # the same limit at and above critical damping: the tail correction
    # takes the kernel's -gt/t^2 and -6 gt (gt^2 - 2)/t^4 orders and
    # leaves an O(T^-5) residual that grows with the damping, 3.9e-11 of
    # D_inf at worst up to gt = 4 and 6.3e-10 at gt = 10 (rb-au)
    mat, part = preset(name)
    mat = dataclasses.replace(mat, gamma_tilde=gt)
    mk = markov_limit(mat, part, KinematicsParams(u=0.0))
    d_i = orientation_weights(part.orientation).d_i
    exact = part.r0_tilde * d_i * spectral_density(part.delta_tilde, gt) / 32.0
    assert mk.D_inf == pytest.approx(exact, rel=1e-9 if gt == 10.0 else 1e-10, abs=0.0)
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


def _markov_diffusion_small_u(mat, part, kin):
    """Closed-form O(u^2) stationary diffusion constant,
    D_inf = (r0t/32) [d_i J(dt) + (3/8) d_a u^2 J''(dt)]."""
    wts = orientation_weights(part.orientation)
    j, j2, _ = spectral_response(part.delta_tilde, mat.gamma_tilde)
    u2 = kin.u * kin.u
    return part.r0_tilde / 32.0 * (wts.d_i * j + 0.375 * wts.d_a * u2 * j2)


def test_markov_closed_form_agreement():
    mat, part = NV_NSI
    for u in (0.0, 0.003, 0.01):
        kin = KinematicsParams(u=u)
        mk = markov_limit(mat, part, kin)
        assert mk.D_inf == pytest.approx(_markov_diffusion_small_u(mat, part, kin), rel=1e-6)


def test_markov_ground_state_ratio():
    # below the excitation threshold the drive and diffusion constants
    # coincide, pinning the asymptote to the ground state
    mat, part = NV_NSI
    mk = markov_limit(mat, part, KinematicsParams(u=0.003))
    assert mk.zeta_inf / mk.D_inf == pytest.approx(1.0, abs=1e-5)


def test_asymptotic_population_at_zero_coupling_names_r0_tilde():
    # the Markov constants read D_inf = 0 as it is; the population, which
    # divides by it, refuses with the parameter to raise
    mat, part = NV_NSI
    part = dataclasses.replace(part, r0_tilde=0.0)
    kin = KinematicsParams(u=0.003)
    assert markov_limit(mat, part, kin).D_inf == 0.0
    with pytest.raises(DomainError, match=r"u = 0\.003, r0_tilde = 0\.0: .*raise r0_tilde"):
        asymptotic_population(mat, part, kin)

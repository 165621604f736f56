"""Output checks for the benchmark workloads.

Two kinds, both returning a list of problems (empty when the output
passes):

* ``compare_*`` - against a reference output stored in ``refs/``.  A
  tau_d, tau_d_u0, coefficient or density-matrix value fails when it is
  more than ``REL_TOL`` away from the reference, relative.  That is the
  size by which raising ``pts_per_cycle`` from 400 to 1600 moves tau_d
  (8e-8), so arithmetic reordering and finer quadrature pass while a
  1e-5 error does not.  Quantities derived from such values are checked
  to the absolute error that REL_TOL on their inputs implies.
* ``check_*`` - reference-free invariants, checked in addition on every
  input variant other than 0 (workloads.py).
"""

from __future__ import annotations

import json
import math

import numpy as np

REL_TOL = 1e-7
# Inputs echoed into the output (grids, angles, velocities) may only move
# by arithmetic reordering.
ECHO_TOL = 1e-12
# Sign-changing coefficient columns are compared relative to this share
# of the column's largest magnitude near their zero crossings, where a
# relative comparison against ~0 is meaningless.
ZERO_CROSSING_FLOOR = 1e-3


def read_csv(text: str) -> tuple[list[str], dict[str, np.ndarray]]:
    """Header and columns; numeric columns as float arrays, others as str."""
    lines = text.splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    if any(len(r) != len(header) for r in rows):
        raise ValueError("ragged CSV")
    columns = {}
    for j, name in enumerate(header):
        cells = [r[j] for r in rows]
        try:
            columns[name] = np.array([float(c) for c in cells])
        except ValueError:
            columns[name] = np.array(cells, dtype=object)
    return header, columns


def excess(out, ref, tol) -> float:
    """Largest |out - ref| / tol; > 1 means failure.  Where tol is 0 the
    values must be equal; non-finite output or a shape mismatch is inf."""
    out = np.asarray(out, dtype=float)
    ref = np.asarray(ref, dtype=float)
    tol = np.broadcast_to(np.asarray(tol, dtype=float), ref.shape)
    if out.shape != ref.shape or not np.all(np.isfinite(out)):
        return math.inf
    diff = np.abs(out - ref)
    zero = tol == 0
    if np.any(diff[zero] != 0):
        return math.inf
    return float(np.max(diff[~zero] / tol[~zero], initial=0.0))


def rel_excess(out, ref, rel: float, floor=0.0) -> float:
    """excess() against rel * max(|ref|, floor)."""
    return excess(out, ref, rel * np.maximum(np.abs(np.asarray(ref, dtype=float)), floor))


def _require(problems: list[str], label: str, ratio: float) -> None:
    if not ratio <= 1.0:
        problems.append(f"{label}: off by {ratio:.3g} x tolerance")


def _same_layout(problems, header, ref_header, cols, ref_cols) -> bool:
    if header != ref_header:
        problems.append(f"header {header} != reference {ref_header}")
        return False
    n, m = len(next(iter(cols.values()))), len(next(iter(ref_cols.values())))
    if n != m:
        problems.append(f"{n} rows, reference has {m}")
        return False
    return True


def _rate_tol(tau_ratio: np.ndarray) -> np.ndarray:
    """Absolute rate tolerance implied by REL_TOL on tau_d and tau_d_u0."""
    return np.abs(tau_ratio) * ((1 + REL_TOL) / (1 - REL_TOL) - 1)


# ---------------------------------------------------------------------------
# Against stored references
# ---------------------------------------------------------------------------


def compare_tdec(out_text: str, ref_text: str) -> list[str]:
    out, ref = json.loads(out_text), json.loads(ref_text)
    problems = []
    if {k: v for k, v in out.items() if k != "tau_d"} != {
        k: v for k, v in ref.items() if k != "tau_d"
    }:
        problems.append("method or params differ from the reference")
    _require(problems, "tau_d", rel_excess(out.get("tau_d", math.nan), ref["tau_d"], REL_TOL))
    return problems


def compare_sweep(out_text: str, ref_text: str) -> list[str]:
    header, cols = read_csv(out_text)
    ref_header, ref = read_csv(ref_text)
    problems: list[str] = []
    if not _same_layout(problems, header, ref_header, cols, ref):
        return problems
    for name in ("sweep_param", "method", "material", "particle", "flag"):
        if list(cols[name]) != list(ref[name]):
            problems.append(f"{name} column differs from the reference")
    for name in ("value", "theta", "phi", "u", "delta_tilde", "gamma_tilde"):
        _require(problems, name, rel_excess(cols[name], ref[name], ECHO_TOL))
    for name in ("tau_d", "tau_d_u0"):
        _require(problems, name, rel_excess(cols[name], ref[name], REL_TOL))
    _require(problems, "rate", excess(cols["rate"], ref["rate"], _rate_tol(1.0 + ref["rate"])))
    return problems


EVOLVE_VALUE_COLUMNS = ("rho11", "abs_rho12", "purity", "decoherence_factor", "xi")


def compare_evolve(out_text: str, ref_text: str) -> list[str]:
    header, cols = read_csv(out_text)
    ref_header, ref = read_csv(ref_text)
    problems: list[str] = []
    if not _same_layout(problems, header, ref_header, cols, ref):
        return problems
    for name in ("t", "N_cycles"):
        _require(problems, name, rel_excess(cols[name], ref[name], ECHO_TOL))
    for name in EVOLVE_VALUE_COLUMNS:
        _require(problems, name, rel_excess(cols[name], ref[name], REL_TOL))
    # re/im of rho12 = |rho12| (cos xi, -sin xi): the error REL_TOL on
    # |rho12| and on the phase xi implies
    tol = REL_TOL * ref["abs_rho12"] * (1.0 + np.abs(ref["xi"]))
    for name in ("re_rho12", "im_rho12"):
        _require(problems, name, excess(cols[name], ref[name], tol))
    return problems


def compare_coeffs(out_text: str, ref_text: str) -> list[str]:
    header, cols = read_csv(out_text)
    ref_header, ref = read_csv(ref_text)
    problems: list[str] = []
    if not _same_layout(problems, header, ref_header, cols, ref):
        return problems
    for name in ("t", "N_cycles"):
        _require(problems, name, rel_excess(cols[name], ref[name], ECHO_TOL))
    for name in header[2:]:
        floor = ZERO_CROSSING_FLOOR * float(np.max(np.abs(ref[name])))
        _require(problems, name, rel_excess(cols[name], ref[name], REL_TOL, floor))
    return problems


# ---------------------------------------------------------------------------
# Reference-free invariants (variants other than 0)
# ---------------------------------------------------------------------------

# Positivity slack of qfd.dynamics; identities below hold to rounding.
POSITIVITY_SLACK = 1e-9
IDENTITY_TOL = 1e-12
# Route agreement on the oracle workload, as a share of the largest |e1|
# value.  Every variant measures 2.2e-8 for both routes.
ROUTE_TOL = 1e-6
# Mirror pairs phi, 2 pi - phi have equal nx^2, ny^2, so their tau_d agree
# up to the bisection tolerance of the root (1e-10 relative).
MIRROR_TOL = 1e-9


def check_tdec(out_text: str, u: float) -> list[str]:
    out = json.loads(out_text)
    problems = []
    tau = out.get("tau_d")
    if not (isinstance(tau, float) and math.isfinite(tau) and tau > 0):
        problems.append(f"tau_d = {tau!r} is not finite and positive")
    if out.get("params", {}).get("u") != u:
        problems.append("params.u does not echo the requested velocity")
    return problems


def check_sweep(out_text: str, phis: np.ndarray, n_combos: int) -> list[str]:
    """Rows of a phi sweep over n_combos presets on a grid symmetric about pi."""
    _header, cols = read_csv(out_text)
    problems: list[str] = []
    n = phis.size
    if cols["tau_d"].size != n * n_combos:
        return [f"{cols['tau_d'].size} rows, expected {n * n_combos}"]
    for name in ("tau_d", "tau_d_u0"):
        v = cols[name]
        if not np.all(np.isfinite(v) & (v > 0)):
            problems.append(f"{name} not finite and positive")
    # below the excitation threshold motion speeds decoherence up
    if not np.all(cols["rate"] < 0):
        problems.append("rate is not negative on every row")
    for k in range(n_combos):
        block = slice(k * n, (k + 1) * n)
        _require(problems, "phi", rel_excess(cols["phi"][block], phis, ECHO_TOL))
        for name in ("tau_d", "tau_d_u0"):
            v = cols[name][block]
            _require(problems, f"{name} mirror symmetry", rel_excess(v, v[::-1], MIRROR_TOL))
        r = cols["rate"][block]
        _require(problems, "rate mirror symmetry",
                 excess(r, r[::-1], 2 * MIRROR_TOL * np.abs(1.0 + r)))
    return problems


def check_evolve(out_text: str, ref_t: np.ndarray) -> list[str]:
    _header, c = read_csv(out_text)
    problems: list[str] = []
    if c["t"].size != ref_t.size:
        return [f"{c['t'].size} rows, expected {ref_t.size}"]
    _require(problems, "t", rel_excess(c["t"], ref_t, ECHO_TOL))
    if not all(np.all(np.isfinite(v)) for v in c.values()):
        return problems + ["non-finite values"]
    rho11, ab, df = c["rho11"], c["abs_rho12"], c["decoherence_factor"]
    if np.any(rho11 < 0) or np.any(rho11 > 1):
        problems.append("rho11 outside [0, 1]")
    if np.any(ab**2 > rho11 * (1 - rho11) + POSITIVITY_SLACK):
        problems.append("coherence positivity |rho12|^2 <= rho11 rho22 broken")
    if np.any(np.diff(df) > 0) or df[0] != 1.0 or np.any(df <= 0):
        problems.append("decoherence factor is not a decreasing envelope from 1")
    _require(problems, "|rho12| = |rho12(0)| x envelope",
             rel_excess(ab, 0.5 * df, IDENTITY_TOL))
    _require(problems, "|rho12| = hypot(re, im)",
             rel_excess(ab, np.hypot(c["re_rho12"], c["im_rho12"]), IDENTITY_TOL))
    purity = rho11**2 + (1 - rho11) ** 2 + 2 * ab**2
    if np.max(np.abs(c["purity"] - purity)) > IDENTITY_TOL:
        problems.append("purity does not match the density matrix")
    return problems


def check_coeffs(out_text: str, ref_t: np.ndarray) -> list[str]:
    _header, c = read_csv(out_text)
    problems: list[str] = []
    if c["t"].size != ref_t.size:
        return [f"{c['t'].size} rows, expected {ref_t.size}"]
    _require(problems, "t", rel_excess(c["t"], ref_t, ECHO_TOL))
    if not all(np.all(np.isfinite(v)) for v in c.values()):
        return problems + ["non-finite values"]
    for q in ("D", "f", "zeta"):
        e1 = c[f"{q}_e1"]
        if e1[0] != 0.0:
            problems.append(f"{q}_e1 does not vanish at t = 0")
        scale = ROUTE_TOL * float(np.max(np.abs(e1)))
        for route in ("brute", "analytic"):
            _require(problems, f"{q}_{route} vs {q}_e1", excess(c[f"{q}_{route}"], e1, scale))
    dm = c["D_markov"]
    if not (dm[0] > 0 and np.all(dm == dm[0])):
        problems.append("D_markov is not one positive constant")
    return problems

"""Command-line interface.

Subcommands map one-to-one onto the package's figure-level experiments:

* ``qfd coeffs``  - coefficient traces (one method or all side by side)
* ``qfd evolve``  - density-matrix evolution from a chosen initial state
* ``qfd tdec``    - decoherence-time scalar report (JSON)
* ``qfd sweep``   - velocity / angle / level-spacing sweeps as flat CSV

Configuration is a flat INI file (sections material, particle,
kinematics, numerics, output) with every CLI flag acting as an override;
``--dump-config`` emits the fully resolved file, which re-ingests to the
byte-identical result.  Floats are always printed with 17 significant
digits and files are written atomically.

Exit codes: 0 success, 2 configuration error, 3 numerical failure,
4 physics-invariant breach.
"""

from __future__ import annotations

import argparse
import configparser
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, fields

import numpy as np

from qfd.coefficients import (
    coefficients_analytic_small_u,
    coefficients_brute,
    coefficients_e1,
    markov_limit,
    time_grid,
)
from qfd.decoherence import (
    decoherence_table,
    quadratic_fit_rows,
    sweep_level_spacing,
    sweep_material_particle,
    sweep_polarization,
    sweep_rows_to_csv,
    sweep_velocity,
    tau_d,
)
from qfd.dynamics import QubitState, evolve
from qfd.errors import (
    BracketError,
    ConfigError,
    ConvergenceError,
    DomainError,
    GridError,
    PhysicsError,
    QfdError,
)
from qfd.model import (
    KinematicsParams,
    MaterialParams,
    ParticleParams,
    material_preset,
    orientation_from_angles,
    preset,
    unit_orientation,
    validate_dimensional,
)

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class NumericsOptions:
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    omega_max: float = 50.0
    pts_per_cycle: int = 400
    horizon_cycles: float | None = None  # None = automatic window

    def __post_init__(self):
        # chained comparisons also refuse NaN and infinity
        if not 0 < self.rel_tol < math.inf:
            raise ConfigError(f"rel_tol must be finite and > 0, got {self.rel_tol}")
        if not 0 < self.abs_tol < math.inf:
            raise ConfigError(f"abs_tol must be finite and > 0, got {self.abs_tol}")
        if not 1 < self.omega_max < math.inf:
            raise ConfigError(
                f"omega_max must be finite and exceed the resonance at 1, got {self.omega_max}"
            )
        if self.pts_per_cycle < 8:
            raise ConfigError(f"pts_per_cycle must be >= 8, got {self.pts_per_cycle}")
        if self.horizon_cycles is not None and not 0 < self.horizon_cycles < math.inf:
            raise ConfigError(
                f"horizon_cycles must be finite and > 0, got {self.horizon_cycles}"
            )


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; nothing is lazy at compute time."""

    material: MaterialParams
    particle: ParticleParams
    kinematics: KinematicsParams
    numerics: NumericsOptions
    out_path: str = "-"
    out_format: str = "csv"

    def to_ini(self) -> str:
        """Serialize so that re-ingestion reproduces this config exactly."""
        n = self.particle.orientation
        lines = [
            "[material]",
            f"omega_s_rad_s = {self.material.omega_s:.17g}",
            f"gamma_tilde = {self.material.gamma_tilde:.17g}",
            f"name = {self.material.name}",
            "",
            "[particle]",
            f"delta_tilde = {self.particle.delta_tilde:.17g}",
            f"r0_tilde = {self.particle.r0_tilde:.17g}",
            f"orientation = {n[0]:.17g},{n[1]:.17g},{n[2]:.17g}",
            f"name = {self.particle.name}",
            "",
            "[kinematics]",
            f"u = {self.kinematics.u:.17g}",
        ]
        if self.kinematics.a_nm is not None:
            lines.append(f"a_nm = {self.kinematics.a_nm:.17g}")
        lines += [
            "",
            "[numerics]",
            f"rel_tol = {self.numerics.rel_tol:.17g}",
            f"abs_tol = {self.numerics.abs_tol:.17g}",
            f"omega_max = {self.numerics.omega_max:.17g}",
            f"pts_per_cycle = {self.numerics.pts_per_cycle}",
            "horizon_cycles = "
            + ("auto" if self.numerics.horizon_cycles is None
               else f"{self.numerics.horizon_cycles:.17g}"),
            "",
            "[output]",
            f"path = {self.out_path}",
            f"format = {self.out_format}",
            "",
        ]
        return "\n".join(lines)


def parse_angle(text: str) -> float:
    """Angles are radians by default; a 'deg' suffix switches to degrees."""
    s = text.strip().lower()
    try:
        if s.endswith("deg"):
            return math.radians(float(s[:-3]))
        if s.endswith("rad"):
            return float(s[:-3])
        return float(s)
    except ValueError as exc:
        raise ConfigError(f"cannot parse angle {text!r}") from exc


def _components(text: str) -> tuple[float, ...]:
    """Comma-separated floats, e.g. an orientation nx,ny,nz."""
    return tuple(float(x) for x in text.split(","))


def _horizon(text: str) -> float | None:
    """Trace horizon in cycles; auto, none or empty select the automatic window."""
    return None if text.strip().lower() in ("auto", "none", "") else float(text)


def _load_ini(path: str) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    return cp


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge defaults, config file and CLI overrides into explicit params."""
    cp = _load_ini(args.config) if getattr(args, "config", None) else None

    def ini(section: str, key: str, default=None, kind=str):
        if cp is None or not cp.has_option(section, key):
            return default
        text = cp.get(section, key)
        try:
            return kind(text)
        except ValueError as exc:
            raise ConfigError(f"cannot parse [{section}] {key} = {text!r}: {exc}") from exc

    mat: MaterialParams | None = None
    part_delta = None
    part_r0 = None
    part_orient = None
    part_name = ""

    # combo rows take every parameter from their own presets; without a
    # preset the first combo completes the config of --out and --dump-config
    preset_name = (
        getattr(args, "preset", None)
        or ini("material", "preset")
        or (getattr(args, "combos", None) or "").split(",")[0].strip()
    )
    if preset_name:
        mat, p = preset(preset_name)
        part_delta, part_r0, part_orient, part_name = (
            p.delta_tilde,
            p.r0_tilde,
            p.orientation,
            p.name,
        )

    mat_name = ini("material", "name", mat.name if mat else "")
    omega_s = ini("material", "omega_s_rad_s", mat.omega_s if mat else None, float)
    gamma = ini("material", "gamma_tilde", mat.gamma_tilde if mat else None, float)
    if getattr(args, "material", None):
        m = material_preset(args.material)
        omega_s, gamma, mat_name = m.omega_s, m.gamma_tilde, m.name
    if getattr(args, "omega_s", None) is not None:
        omega_s = args.omega_s
    if getattr(args, "gamma", None) is not None:
        gamma = args.gamma
    if omega_s is None or gamma is None:
        raise ConfigError("material underspecified: give --preset, --material or explicit values")
    material = MaterialParams(omega_s=omega_s, gamma_tilde=gamma, name=mat_name)

    part_delta = ini("particle", "delta_tilde", part_delta, float)
    part_r0 = ini("particle", "r0_tilde", part_r0, float)
    if ini("particle", "orientation"):
        part_orient = ini("particle", "orientation", kind=_components)
    part_name = ini("particle", "name", part_name)
    if getattr(args, "delta", None) is not None:
        part_delta = args.delta
    if getattr(args, "r0", None) is not None:
        part_r0 = args.r0
    if getattr(args, "orientation", None):
        try:
            part_orient = _components(args.orientation)
        except ValueError as exc:
            raise ConfigError(f"cannot parse --orientation {args.orientation!r}: {exc}") from exc
    if getattr(args, "theta", None) is not None or getattr(args, "phi", None) is not None:
        th = parse_angle(args.theta) if getattr(args, "theta", None) is not None else math.pi / 2
        ph = parse_angle(args.phi) if getattr(args, "phi", None) is not None else 0.0
        part_orient = orientation_from_angles(th, ph)
    if part_delta is None:
        raise ConfigError("particle underspecified: need delta_tilde (via --preset or --delta)")
    if part_r0 is None:
        part_r0 = 1e-2
    if part_orient is None:
        part_orient = (1.0, 0.0, 0.0)
    particle = ParticleParams(
        delta_tilde=part_delta,
        r0_tilde=part_r0,
        orientation=unit_orientation(part_orient),
        name=part_name,
    )

    u = ini("kinematics", "u", 0.0, float)
    a_nm = ini("kinematics", "a_nm", None, float)
    if getattr(args, "u", None) is not None:
        u = args.u
    if getattr(args, "a_nm", None) is not None:
        a_nm = args.a_nm
    kinematics = KinematicsParams(u=u, a_nm=a_nm)

    numerics = {
        "rel_tol": ini("numerics", "rel_tol", 1e-8, float),
        "abs_tol": ini("numerics", "abs_tol", 1e-10, float),
        "omega_max": ini("numerics", "omega_max", 50.0, float),
        "pts_per_cycle": ini("numerics", "pts_per_cycle", 400, int),
        "horizon_cycles": ini("numerics", "horizon_cycles", None, _horizon),
    }
    for name in ("omega_max", "pts_per_cycle", "horizon_cycles"):
        if getattr(args, name, None) is not None:
            numerics[name] = getattr(args, name)

    out_path = getattr(args, "out", None) or ini("output", "path", "-") or "-"
    out_format = getattr(args, "format", None) or ini("output", "format", "csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"unknown output format {out_format!r}")

    cfg = RunConfig(
        material=material,
        particle=particle,
        kinematics=kinematics,
        numerics=NumericsOptions(**numerics),
        out_path=out_path,
        out_format=out_format,
    )
    for warning in validate_dimensional(material, particle, kinematics):
        print(f"qfd: warning: {warning}", file=sys.stderr)
    return cfg


def _write_atomic(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qfd-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _check_out_path(path: str, flag: str) -> None:
    """Refuse an output file that cannot be written, before any work runs."""
    if path == "-":
        return
    if os.path.isdir(path):
        raise ConfigError(f"{flag} {path!r} is a directory")
    directory = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(directory):
        raise ConfigError(f"{flag} {path!r}: {directory!r} is not an existing directory")


def _fmt(x: float) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_coeffs(args: argparse.Namespace, cfg: RunConfig) -> int:
    mat, part, kin, num = cfg.material, cfg.particle, cfg.kinematics, cfg.numerics
    method = args.method
    if method in ("brute", "all"):
        # the oracle path is quadratically expensive; sample coarsely
        pts = max(8, num.pts_per_cycle // 100)
    else:
        pts = num.pts_per_cycle
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, args.cycles, pts)

    routes = {
        "e1": lambda: coefficients_e1(mat, part, kin, grid),
        "analytic": lambda: coefficients_analytic_small_u(mat, part, kin, grid),
        "brute": lambda: coefficients_brute(
            mat, part, kin, grid,
            omega_max=num.omega_max, rel_tol=num.rel_tol, abs_tol=num.abs_tol,
        ),
    }
    if method != "all":
        text = routes[method]().to_csv()
    else:  # all methods side by side plus the Markov constant
        tr_e1, tr_an, tr_br = (routes[m]() for m in ("e1", "analytic", "brute"))
        mk = markov_limit(mat, part, kin)
        buf = io.StringIO()
        buf.write(
            "t,N_cycles,"
            "D_e1,f_e1,zeta_e1,cumD_e1,cumF_e1,"
            "D_analytic,f_analytic,zeta_analytic,"
            "D_brute,f_brute,zeta_brute,D_markov\n"
        )
        cyc = tr_e1.cycles
        for i in range(grid.size):
            row = [
                grid[i], cyc[i],
                tr_e1.D[i], tr_e1.f[i], tr_e1.zeta[i], tr_e1.cumD[i], tr_e1.cumF[i],
                tr_an.D[i], tr_an.f[i], tr_an.zeta[i],
                tr_br.D[i], tr_br.f[i], tr_br.zeta[i],
                mk.D_inf,
            ]
            buf.write(",".join(_fmt(v) for v in row) + "\n")
        text = buf.getvalue()
    _write_atomic(cfg.out_path, text)
    return 0


def cmd_evolve(args: argparse.Namespace, cfg: RunConfig) -> int:
    mat, part, kin, num = cfg.material, cfg.particle, cfg.kinematics, cfg.numerics
    initial = QubitState(rho11=args.rho11, rho12=complex(args.re_rho12, args.im_rho12))
    grid = time_grid(part.delta_tilde, mat.gamma_tilde, args.cycles, num.pts_per_cycle)
    trace = coefficients_e1(mat, part, kin, grid)
    result = evolve(initial, trace)
    _write_atomic(cfg.out_path, result.to_csv())
    return 0


def cmd_tdec(args: argparse.Namespace, cfg: RunConfig) -> int:
    mat, part, kin, num = cfg.material, cfg.particle, cfg.kinematics, cfg.numerics
    table = None
    if args.method != "analytic":
        # a horizon cap would leave the Markov constants short of stationary
        horizon = num.horizon_cycles if args.method == "numeric" else None
        table = decoherence_table(mat, part.delta_tilde, num.pts_per_cycle, horizon)
    res = tau_d(mat, part, kin, method=args.method, table=table)
    report = {
        "tau_d": res.tau_d,
        "method": res.method,
        "params": {
            "material": mat.name,
            "omega_s_rad_s": mat.omega_s,
            "gamma_tilde": mat.gamma_tilde,
            "particle": part.name,
            "delta_tilde": part.delta_tilde,
            "r0_tilde": part.r0_tilde,
            "orientation": list(part.orientation),
            "u": kin.u,
            "a_nm": kin.a_nm,
        },
    }
    _write_atomic(cfg.out_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    return 0


def _sweep_values(args: argparse.Namespace) -> np.ndarray:
    if args.points < 2:
        raise ConfigError("sweep needs --points >= 2")
    if args.param == "u" and args.start > 0 and args.stop > args.start:
        return np.geomspace(args.start, args.stop, args.points)
    return np.linspace(args.start, args.stop, args.points)


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    mat, part, kin = cfg.material, cfg.particle, cfg.kinematics
    values = _sweep_values(args)
    method = args.method

    if args.param in ("theta", "phi"):
        thetas = [parse_angle(args.theta) if args.theta else math.pi / 2]
        phis = [parse_angle(args.phi) if args.phi else 0.0]
        if args.param == "theta":
            thetas = list(values)
        else:
            phis = list(values)
        if args.combos:
            combos = [c.strip() for c in args.combos.split(",") if c.strip()]
            rows = sweep_material_particle(combos, thetas, phis, method=method)
        else:
            rows = sweep_polarization(mat, part, kin, thetas, phis, method=method)
    elif args.combos:
        raise ConfigError("--combos applies to theta/phi sweeps only")
    elif args.param == "u":
        if args.points < 4:
            raise ConfigError("u sweeps feeding fits need --points >= 4")
        rows = sweep_velocity(mat, part, values, method=method, a_nm=kin.a_nm)
    else:
        rows = sweep_level_spacing(mat, part, kin, values, method=method)

    if cfg.out_format == "json":
        payload = [
            {f.name: getattr(r, f.name) for f in fields(r)} for r in rows
        ]
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        text = sweep_rows_to_csv(rows)
    _write_atomic(cfg.out_path, text)

    if args.param == "u":
        fit = quadratic_fit_rows(rows)
        fit_payload = {
            "fit": {
                "a": fit.a_coef,
                "b": fit.b_coef,
                "b_over_a": fit.b_over_a,
                "residual": fit.fit_residual,
                "residual_warning": fit.residual_warning,
            }
        }
        sidecar = (cfg.out_path + ".fit.json") if cfg.out_path != "-" else "-"
        _write_atomic(sidecar, json.dumps(fit_payload, indent=2, sort_keys=True) + "\n")
    return 0


# ---------------------------------------------------------------------------
# Parser and entry point
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="INI config file; CLI flags override it")
    p.add_argument("--preset", help="material/particle pair, e.g. nv-nsi, rb-au")
    p.add_argument("--material", help="material preset only: nsi or au")
    p.add_argument("--omega-s", dest="omega_s", type=float, help="omega_s in rad/s")
    p.add_argument("--gamma", type=float, help="dimensionless damping Gamma/omega_s")
    p.add_argument("--delta", type=float, help="dimensionless level spacing")
    p.add_argument("--r0", type=float, help="dimensionless coupling r0/omega_s")
    p.add_argument("--orientation", help="dipole direction as nx,ny,nz")
    p.add_argument("--theta", help="dipole polar angle (rad, or e.g. 90deg)")
    p.add_argument("--phi", help="dipole azimuth (rad, or e.g. 45deg)")
    p.add_argument("--u", type=float, help="dimensionless velocity v/(omega_s a)")
    p.add_argument("--a-nm", dest="a_nm", type=float, help="surface distance in nm")
    p.add_argument("--pts-per-cycle", dest="pts_per_cycle", type=int)
    p.add_argument("--omega-max", dest="omega_max", type=float)
    p.add_argument("--horizon-cycles", dest="horizon_cycles", type=float)
    p.add_argument("--out", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=("csv", "json"))
    p.add_argument(
        "--dump-config",
        metavar="PATH",
        help="write the fully resolved config to PATH and exit",
    )


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="qfd",
        description="Moving-qubit decoherence above a Drude-Lorentz surface",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("coeffs", help="master-equation coefficient traces")
    _add_common(p)
    p.add_argument("--method", choices=("e1", "analytic", "brute", "all"), default="e1")
    p.add_argument("--cycles", type=float, default=6.0)
    p.set_defaults(func=cmd_coeffs)

    p = sub.add_parser("evolve", help="density-matrix evolution")
    _add_common(p)
    p.add_argument("--cycles", type=float, default=100.0)
    p.add_argument("--rho11", type=float, default=0.5, help="initial population")
    p.add_argument("--re-rho12", dest="re_rho12", type=float, default=0.5)
    p.add_argument("--im-rho12", dest="im_rho12", type=float, default=0.0)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("tdec", help="decoherence-time report")
    _add_common(p)
    p.add_argument("--method", choices=("numeric", "analytic", "markov"), default="numeric")
    p.set_defaults(func=cmd_tdec)

    p = sub.add_parser("sweep", help="parameter sweeps")
    _add_common(p)
    p.add_argument("--param", choices=("u", "theta", "phi", "delta"), required=True)
    p.add_argument("--from", dest="start", type=float, required=True)
    p.add_argument("--to", dest="stop", type=float, required=True)
    p.add_argument("--points", type=int, required=True)
    p.add_argument("--method", choices=("numeric", "analytic", "markov"), default="numeric")
    p.add_argument("--combos", help="comma list of presets for material comparisons")
    p.set_defaults(func=cmd_sweep)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        cfg = resolve_config(args)
        if args.dump_config:
            _check_out_path(args.dump_config, "--dump-config")
            _write_atomic(args.dump_config, cfg.to_ini())
            return 0
        _check_out_path(cfg.out_path, "--out")
        return args.func(args, cfg)
    except ConfigError as exc:
        print(f"qfd: config error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, GridError, BracketError, ConvergenceError) as exc:
        print(f"qfd: numerical failure: {exc}", file=sys.stderr)
        return 3
    except PhysicsError as exc:
        print(f"qfd: physics invariant breached: {exc}", file=sys.stderr)
        return 4
    except QfdError as exc:  # any stragglers
        print(f"qfd: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

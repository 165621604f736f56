"""Command-line interface.

Subcommands map one-to-one onto the package's figure-level experiments:

* ``qfd coeffs``  - coefficient traces (one method or all side by side)
* ``qfd evolve``  - density-matrix evolution from a chosen initial state
* ``qfd tdec``    - decoherence-time scalar report (JSON)
* ``qfd sweep``   - velocity / angle / level-spacing sweeps as flat CSV

Configuration is a flat INI file whose keys are declared once, in
``_KEYS``, with CLI flags as overrides (resolve_config gives the order);
``--dump-config`` emits the fully resolved file, which re-ingests to the
byte-identical result; a section or key it does not declare is refused.
The only numerics key is ``pts_per_cycle``: the brute-force oracle sets
its own cutoff and tolerances (``qfd.coefficients.coefficients_brute``).
Tables are formatted by ``qfd.coefficients.csv_blocks``, every number
byte for byte as Python's ``'%.17g' % float(v)``, and stream to their
file in 2,048-row blocks, so output adds no memory that grows with the
table.  Files are written atomically, with the mode a plain ``open``
gives (0o666 less the umask).

Exit codes: 0 success, 2 configuration error (ConfigError), 4 physics
invariant breach (PhysicsError), 3 numerical failure (other QfdError).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import os
import sys
import tempfile
import warnings
from dataclasses import asdict, dataclass, fields
from functools import reduce
from itertools import groupby
from typing import Iterable

import numpy as np

from qfd.coefficients import (
    DEFAULT_PTS_PER_CYCLE,
    coefficients_analytic_small_u,
    coefficients_brute,
    coefficients_e1,
    csv_blocks,
    markov_limit,
    time_grid,
)
from qfd.decoherence import (
    angles_of,
    quadratic_ratio_fit,
    sweep_level_spacing,
    sweep_material_particle,
    sweep_polarization,
    sweep_columns,
    tau_d,
)
from qfd.dynamics import QubitState, evolve
from qfd.errors import ConfigError, PhysicsError, QfdError
from qfd.model import (
    DEFAULT_ORIENTATION,
    DEFAULT_R0_TILDE,
    KinematicsParams,
    MaterialParams,
    ParticleParams,
    material_preset,
    orientation_from_angles,
    preset,
    unit_orientation,
    validate_dimensional,
)


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


# Every config key in INI order: section, key, the RunConfig field it
# fills, the dest of the flag that overrides it (None for INI-only keys)
# and the parser of its INI text.  An INI value that parses to None (a
# blank orientation or path) leaves the field as the earlier layers set
# it.
_KEYS = (
    ("material", "omega_s_rad_s", "material.omega_s", "omega_s", float),
    ("material", "gamma_tilde", "material.gamma_tilde", "gamma", float),
    ("material", "name", "material.name", None, str),
    ("particle", "delta_tilde", "particle.delta_tilde", "delta", float),
    ("particle", "r0_tilde", "particle.r0_tilde", "r0", float),
    ("particle", "orientation", "particle.orientation", None,
     lambda text: _components(text) if text else None),
    ("particle", "name", "particle.name", None, str),
    ("kinematics", "u", "kinematics.u", "u", float),
    ("kinematics", "a_nm", "kinematics.a_nm", "a_nm", float),
    ("numerics", "pts_per_cycle", "pts_per_cycle", "pts_per_cycle", int),
    ("output", "path", "out_path", "out", lambda text: text or None),
    ("output", "format", "out_format", "format", str),
)

# field defaults; every other field starts as None until a layer sets it
_DEFAULTS = {
    "material.name": "", "particle.name": "", "kinematics.u": 0.0,
    "particle.r0_tilde": DEFAULT_R0_TILDE, "particle.orientation": DEFAULT_ORIENTATION,
    "pts_per_cycle": DEFAULT_PTS_PER_CYCLE, "out_path": "-", "out_format": "csv",
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved run parameters; nothing is lazy at compute time."""

    material: MaterialParams
    particle: ParticleParams
    kinematics: KinematicsParams
    pts_per_cycle: int
    out_path: str
    out_format: str

    def __post_init__(self):
        if self.pts_per_cycle < 8:
            raise ConfigError(f"pts_per_cycle must be >= 8, got {self.pts_per_cycle}")

    def to_ini(self) -> str:
        """Serialize so that re-ingestion reproduces this config exactly:
        floats with 17 significant digits, tuples comma-joined and an
        unset a_nm left out."""
        blocks = []
        for section, keys in groupby(_KEYS, key=lambda row: row[0]):
            lines = [f"[{section}]\n"]
            for _, key, field, _, _ in keys:
                v = reduce(getattr, field.split("."), self)
                if v is None:
                    continue
                text = (",".join(map(_fmt, v)) if isinstance(v, tuple)
                        else _fmt(v) if isinstance(v, float) else v)
                lines.append(f"{key} = {text}\n")
            blocks.append("".join(lines))
        return "\n".join(blocks)


def resolve_config(args: argparse.Namespace) -> RunConfig:
    """Merge the config layers into explicit params, each layer over the
    ones before it: defaults, preset, config file, --material, flags,
    --orientation and --theta/--phi."""
    cp = configparser.ConfigParser(interpolation=None)  # a '%' is literal
    try:
        if args.config and not cp.read(args.config):
            raise ConfigError(f"config file not found: {args.config}")
    except configparser.Error as exc:
        raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
    keys = {(section, key) for section, key, *_ in _KEYS} | {("material", "preset")}
    for section in cp:  # DEFAULT first, whose keys would reach every section
        if section != cp.default_section and section not in {s for s, _ in keys}:
            raise ConfigError(f"unknown config section [{section}] in {args.config}")
        for key in cp[section]:
            if (section, key) not in keys:
                raise ConfigError(f"unknown config key [{section}] {key} in {args.config}")
    values = dict.fromkeys(row[2] for row in _KEYS) | _DEFAULTS

    def take(group: str, params) -> None:
        values.update({f"{group}.{f.name}": getattr(params, f.name) for f in fields(params)})

    # combo rows take every parameter from their own presets; without a
    # preset the first combo completes the config of --out and --dump-config
    preset_name = (
        args.preset
        or cp.get("material", "preset", fallback=None)
        or (getattr(args, "combos", None) or "").split(",")[0].strip()
    )
    if preset_name:
        mat, part = preset(preset_name)
        take("material", mat)
        take("particle", part)
    for section, key, field, _, parse in _KEYS:
        if cp.has_option(section, key):
            text = cp.get(section, key)
            try:
                value = parse(text)
            except ValueError as exc:
                raise ConfigError(f"cannot parse [{section}] {key} = {text!r}: {exc}") from exc
            if value is not None:
                values[field] = value
    if args.material:
        take("material", material_preset(args.material))
    for _, _, field, flag, _ in _KEYS:
        if flag and getattr(args, flag) not in (None, ""):
            values[field] = getattr(args, flag)
    if args.orientation:
        try:
            values["particle.orientation"] = _components(args.orientation)
        except ValueError as exc:
            raise ConfigError(f"cannot parse --orientation {args.orientation!r}: {exc}") from exc
    if args.theta is not None or args.phi is not None:
        values["particle.orientation"] = orientation_from_angles(
            parse_angle(args.theta) if args.theta is not None else math.pi / 2,
            parse_angle(args.phi) if args.phi is not None else 0.0,
        )

    groups: dict[str, dict] = {}
    for path, value in values.items():
        group, _, name = path.rpartition(".")
        groups.setdefault(group, {})[name] = value
    mat, part, top = groups["material"], groups["particle"], groups[""]
    if None in mat.values():
        raise ConfigError("material underspecified: give --preset, --material or explicit values")
    material = MaterialParams(**mat)
    if None in part.values():
        raise ConfigError("particle underspecified: need delta_tilde (via --preset or --delta)")
    particle = ParticleParams(**{**part, "orientation": unit_orientation(part["orientation"])})
    kinematics = KinematicsParams(**groups["kinematics"])
    if top["out_format"] not in ("csv", "json"):
        raise ConfigError(f"unknown output format {top['out_format']!r}")
    cfg = RunConfig(material, particle, kinematics, **top)
    for warning in validate_dimensional(material, particle, kinematics):
        print(f"qfd: warning: {warning}", file=sys.stderr)
    return cfg


def _write_atomic(path: str, text: str | Iterable[str]) -> None:
    """Write text, or its blocks each as it comes, to stdout for '-' or
    to a temporary file renamed over path, so that a failed write leaves
    neither a partial file nor the temporary one."""
    blocks = [text] if isinstance(text, str) else text
    if path == "-":
        sys.stdout.writelines(blocks)
        return
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qfd-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            # mkstemp makes the file 0o600; give it the mode a plain open would
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            handle.writelines(blocks)
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


def _grid(args: argparse.Namespace, cfg: RunConfig, pts_per_cycle: int) -> np.ndarray:
    """Time grid over --cycles natural cycles, for coeffs and evolve."""
    if not 0 < args.cycles < math.inf:
        raise ConfigError(f"--cycles must be finite and > 0, got {args.cycles}")
    return time_grid(cfg.particle.delta_tilde, cfg.material.gamma_tilde, args.cycles,
                     pts_per_cycle, remedy="lower --cycles")


def cmd_coeffs(args: argparse.Namespace, cfg: RunConfig) -> int:
    mat, part, kin = cfg.material, cfg.particle, cfg.kinematics
    method = args.method
    if method in ("brute", "all"):
        # the oracle path is quadratically expensive; sample coarsely
        pts = max(8, cfg.pts_per_cycle // 100)
    else:
        pts = cfg.pts_per_cycle
    grid = _grid(args, cfg, pts)

    routes = {
        "e1": lambda: coefficients_e1(mat, part, kin, grid),
        "analytic": lambda: coefficients_analytic_small_u(mat, part, kin, grid),
        "brute": lambda: coefficients_brute(mat, part, kin, grid),
    }
    if method != "all":
        columns = routes[method]().csv_columns()
    else:  # all methods side by side plus the Markov constant
        traces = {route: trace() for route, trace in routes.items()}
        columns = {"t": grid, "N_cycles": traces["e1"].cycles}
        for route, trace in traces.items():
            names = ("D", "f", "zeta", "cumD", "cumF") if route == "e1" else ("D", "f", "zeta")
            columns |= {f"{name}_{route}": getattr(trace, name) for name in names}
        d_inf = markov_limit(mat, part, kin, cfg.pts_per_cycle).D_inf
        columns["D_markov"] = np.full(grid.shape, d_inf)
    _write_atomic(cfg.out_path, csv_blocks(columns))
    return 0


def cmd_evolve(args: argparse.Namespace, cfg: RunConfig) -> int:
    try:
        initial = QubitState(rho11=args.rho11, rho12=complex(args.re_rho12, args.im_rho12))
    except PhysicsError as exc:
        raise ConfigError(
            f"--rho11 {args.rho11}, --re-rho12 {args.re_rho12}, --im-rho12 {args.im_rho12}"
            f" is no initial state: {exc}"
        ) from exc
    trace = coefficients_e1(cfg.material, cfg.particle, cfg.kinematics,
                            _grid(args, cfg, cfg.pts_per_cycle))
    _write_atomic(cfg.out_path, csv_blocks(evolve(initial, trace).csv_columns()))
    return 0


def cmd_tdec(args: argparse.Namespace, cfg: RunConfig) -> int:
    mat, part, kin = cfg.material, cfg.particle, cfg.kinematics
    res = tau_d(mat, part, kin, method=args.method, pts_per_cycle=cfg.pts_per_cycle)
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
    if args.param == "u" and args.start > 0 and args.stop > 0:
        return np.geomspace(args.start, args.stop, args.points)
    return np.linspace(args.start, args.stop, args.points)


def cmd_sweep(args: argparse.Namespace, cfg: RunConfig) -> int:
    mat, part, kin = cfg.material, cfg.particle, cfg.kinematics
    values = _sweep_values(args)
    opts = dict(method=args.method, pts_per_cycle=cfg.pts_per_cycle)

    if args.param in ("theta", "phi"):
        # the fixed angle is the resolved orientation's, or the flag as given
        theta, phi = angles_of(part.orientation)
        thetas = [parse_angle(args.theta) if args.theta else theta]
        phis = [parse_angle(args.phi) if args.phi else phi]
        if args.param == "theta":
            thetas = list(values)
        else:
            phis = list(values)
        if args.combos:
            combos = [c.strip() for c in args.combos.split(",") if c.strip()]
            rows = sweep_material_particle(combos, thetas, phis, **opts)
        else:
            rows = sweep_polarization(mat, part, kin, thetas, phis, **opts)
    elif args.combos:
        raise ConfigError("--combos applies to theta/phi sweeps only")
    elif args.param == "u":
        fit, rows = quadratic_ratio_fit(mat, part, values, **opts)
    else:
        rows = sweep_level_spacing(mat, part, kin, values, **opts)

    if cfg.out_format == "json":
        text = json.dumps([asdict(r) for r in rows], indent=2, sort_keys=True) + "\n"
    else:
        text = csv_blocks(sweep_columns(rows))
    _write_atomic(cfg.out_path, text)

    if args.param == "u":
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
    p.add_argument("--out", help="output path ('-' for stdout)")
    p.add_argument("--format", choices=("csv", "json"), help="sweep only: csv or json rows")
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


def _show_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """Print a library warning as the CLI prints its own."""
    print(f"qfd: warning: {message}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    # the active filters stay; only the way a shown warning prints changes
    with warnings.catch_warnings():
        warnings.showwarning = _show_warning
        try:
            cfg = resolve_config(args)
            if args.dump_config:
                _check_out_path(args.dump_config, "--dump-config")
                _write_atomic(args.dump_config, cfg.to_ini())
                return 0
            _check_out_path(cfg.out_path, "--out")
            if cfg.out_format != "csv" and args.command in ("coeffs", "evolve"):
                raise ConfigError(f"format {cfg.out_format!r}: {args.command} writes CSV only")
            return args.func(args, cfg)
        except ConfigError as exc:
            print(f"qfd: config error: {exc}", file=sys.stderr)
            return 2
        except PhysicsError as exc:
            print(f"qfd: physics invariant breached: {exc}", file=sys.stderr)
            return 4
        except QfdError as exc:  # every other package error is a numerical one
            print(f"qfd: numerical failure: {exc}", file=sys.stderr)
            return 3


if __name__ == "__main__":
    sys.exit(main())

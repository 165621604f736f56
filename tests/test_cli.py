"""CLI integration tests: subcommands, exit codes, determinism, round trips."""

import configparser
import json
import math
import os
import stat
import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest

import qfd.cli
from qfd.cli import _write_atomic, main, parse_angle
from qfd.coefficients import csv_blocks, markov_limit
from qfd.decoherence import quadratic_ratio_fit, sweep_columns, sweep_velocity, tau_d
from qfd.errors import ConfigError, PhysicsError, QfdError
from qfd.model import KinematicsParams, preset, unit_orientation


def run(args, tmp_path=None):
    return main(list(args))


def read_csv(path):
    with open(path) as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------------------
# angle parsing
# ---------------------------------------------------------------------------


def test_parse_angle():
    assert parse_angle("90deg") == pytest.approx(math.pi / 2)
    assert parse_angle("1.5") == 1.5
    assert parse_angle("0.5rad") == 0.5
    with pytest.raises(ConfigError):
        parse_angle("ninety")


# ---------------------------------------------------------------------------
# coeffs
# ---------------------------------------------------------------------------


def test_coeffs_e1_csv(tmp_path):
    out = tmp_path / "trace.csv"
    code = run(
        [
            "coeffs", "--preset", "nv-nsi", "--u", "0.003",
            "--cycles", "1", "--pts-per-cycle", "64", "--out", str(out),
        ]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == ["t", "N_cycles", "D", "f", "zeta", "cumD", "cumF", "method"]
    assert rows[0][0] == "0"
    assert rows[-1][-1] == "e1"
    assert float(rows[-1][1]) == pytest.approx(1.0, rel=1e-12)


def test_coeffs_zero_coupling_zero_columns(tmp_path):
    out = tmp_path / "zero.csv"
    assert run(
        ["coeffs", "--preset", "nv-nsi", "--r0", "0", "--cycles", "1",
         "--pts-per-cycle", "64", "--out", str(out)]
    ) == 0
    _, rows = read_csv(out)
    for row in rows:
        assert float(row[2]) == 0.0 and float(row[3]) == 0.0 and float(row[4]) == 0.0
    # every method side by side, the Markov constant a zero column too
    assert run(
        ["coeffs", "--preset", "nv-nsi", "--r0", "0", "--cycles", "0.1", "--method", "all",
         "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    zero = [i for i, name in enumerate(header) if name.split("_")[0] in ("D", "f", "zeta")]
    assert "D_markov" in [header[i] for i in zero] and len(zero) == 10
    assert all(float(row[i]) == 0.0 for row in rows for i in zero)


def test_coeffs_velocity_parity_byte_identical(tmp_path):
    a = tmp_path / "plus.csv"
    b = tmp_path / "minus.csv"
    common = ["coeffs", "--preset", "nv-nsi", "--cycles", "1",
              "--pts-per-cycle", "64"]
    assert run(common + ["--u", "0.003", "--out", str(a)]) == 0
    assert run(common + ["--u", "-0.003", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_coeffs_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    args = ["coeffs", "--preset", "nv-nsi", "--u", "0.01", "--cycles", "1",
            "--pts-per-cycle", "64"]
    assert run(args + ["--out", str(a)]) == 0
    assert run(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_coeffs_all_methods(tmp_path):
    out = tmp_path / "all.csv"
    code = run(
        ["coeffs", "--preset", "nv-nsi", "--u", "0.003", "--cycles", "0.5",
         "--method", "all", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header[-1] == "D_markov"
    assert "D_e1" in header and "D_analytic" in header and "D_brute" in header
    # all three methods agree on this easy window; markov column constant
    i_e1, i_br = header.index("D_e1"), header.index("D_brute")
    for row in rows[1:]:
        assert float(row[i_e1]) == pytest.approx(float(row[i_br]), abs=1e-8)
    markov = {row[-1] for row in rows}
    assert len(markov) == 1
    # the e1 columns are, as text, the e1 trace on the same coarse grid
    # (max(8, 400 // 100) = 8 points per cycle)
    e1 = tmp_path / "e1.csv"
    assert run(
        ["coeffs", "--preset", "nv-nsi", "--u", "0.003", "--cycles", "0.5",
         "--method", "e1", "--pts-per-cycle", "8", "--out", str(e1)]
    ) == 0
    e1_header, e1_rows = read_csv(e1)
    assert len(e1_rows) == len(rows)
    for name in e1_header[:-1]:
        i = header.index(name if name in ("t", "N_cycles") else f"{name}_e1")
        j = e1_header.index(name)
        assert [row[i] for row in rows] == [row[j] for row in e1_rows], name


def test_coeffs_all_markov_column_reads_the_run_density(tmp_path):
    # D_markov comes off a decoherence table at --pts-per-cycle, not the default
    out = tmp_path / "all.csv"
    assert run(
        ["coeffs", "--preset", "nv-nsi", "--u", "0.003", "--cycles", "0.05",
         "--method", "all", "--pts-per-cycle", "800", "--out", str(out)]
    ) == 0
    header, rows = read_csv(out)
    mat, part = preset("nv-nsi")
    d_inf = markov_limit(mat, part, KinematicsParams(u=0.003), 800).D_inf
    assert {row[header.index("D_markov")] for row in rows} == {f"{d_inf:.17g}"}


def test_library_warning_prints_with_the_cli_prefix(tmp_path, capsys):
    code = run(
        ["coeffs", "--preset", "nv-nsi", "--method", "analytic", "--u", "0.1",
         "--cycles", "1", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 0
    err = capsys.readouterr().err
    assert err == "qfd: warning: small-velocity expansion called with u = 0.1 > 0.05\n"
    assert "UserWarning" not in err


def test_analytic_tdec_warns_once_past_small_velocity_limit(tmp_path, capsys):
    code = run(["tdec", "--preset", "nv-nsi", "--method", "analytic", "--u", "0.1",
                "--out", str(tmp_path / "t.json")])
    assert code == 0
    err = capsys.readouterr().err
    assert err == "qfd: warning: small-velocity expansion called with u = 0.1 > 0.05\n"


def test_dimensional_warning_prints_with_the_cli_prefix(tmp_path, capsys):
    # 2 um above n-Si, NV's spacing breaks the near-field condition
    code = run(["tdec", "--preset", "nv-nsi", "--u", "0.003", "--a-nm", "2000",
                "--out", str(tmp_path / "t.json")])
    assert code == 0
    err = capsys.readouterr().err
    assert err == "qfd: warning: near-field condition violated: a*Delta/c = 3.30e-01 > 0.1\n"


# ---------------------------------------------------------------------------
# evolve
# ---------------------------------------------------------------------------


def test_evolve_csv(tmp_path):
    out = tmp_path / "evo.csv"
    code = run(
        ["evolve", "--preset", "nv-nsi", "--u", "0.003", "--cycles", "2",
         "--pts-per-cycle", "64", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    assert header == [
        "t", "N_cycles", "rho11", "re_rho12", "im_rho12", "abs_rho12",
        "purity", "decoherence_factor", "xi",
    ]
    assert float(rows[0][6]) == pytest.approx(1.0)  # pure initial state
    assert float(rows[0][7]) == 1.0


def test_evolve_invalid_initial_state_exit_2(tmp_path, capsys):
    # a state that is no density matrix is bad input naming its flags
    out = tmp_path / "x.csv"
    for state, name in [
        (["--rho11", "1.5"], "--rho11"),
        (["--rho11", "nan"], "--rho11"),
        (["--rho11", "0.5", "--re-rho12", "0.9"], "--re-rho12"),
        (["--im-rho12", "nan"], "--im-rho12"),
    ]:
        code = run(
            ["evolve", "--preset", "nv-nsi", *state, "--cycles", "1",
             "--pts-per-cycle", "64", "--out", str(out)]
        )
        assert code == 2, state
        assert name in capsys.readouterr().err
    assert not out.exists()


def test_evolve_free_columns_constant(tmp_path):
    out = tmp_path / "free.csv"
    assert run(
        ["evolve", "--preset", "nv-nsi", "--r0", "0", "--cycles", "1",
         "--pts-per-cycle", "64", "--out", str(out)]
    ) == 0
    _, rows = read_csv(out)
    vals = np.array([float(row[5]) for row in rows])  # abs_rho12 column
    assert vals.max() - vals.min() <= 1e-15
    pops = {row[2] for row in rows}  # rho11 column is exactly constant
    assert len(pops) == 1


# ---------------------------------------------------------------------------
# tdec
# ---------------------------------------------------------------------------


# gamma 1 is the preset's own; 2 and above have closed-form kernels too
@pytest.mark.parametrize("gamma", ["1", "2", "2.5", "4"])
def test_tdec_json_report(tmp_path, gamma):
    out = tmp_path / "tdec.json"
    code = run(
        ["tdec", "--preset", "nv-nsi", "--u", "0.003", "--method", "markov",
         "--gamma", gamma, "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert payload["method"] == "markov"
    assert payload["tau_d"] > 0
    assert payload["params"]["delta_tilde"] == 0.2
    assert payload["params"]["gamma_tilde"] == float(gamma)


def test_tdec_json_report_echoes_the_resolved_config(tmp_path):
    # the report is the result's fields plus the nine [material],
    # [particle] and [kinematics] keys, a_nm and the normalised
    # orientation included
    out = tmp_path / "tdec.json"
    assert run(["tdec", "--preset", "nv-nsi", "--u", "0.003", "--method", "markov",
                "--a-nm", "5", "--orientation", "0.3,0.4,0.5", "--out", str(out)]) == 0
    mat, part = preset("nv-nsi")
    part = replace(part, orientation=unit_orientation((0.3, 0.4, 0.5)))
    kin = KinematicsParams(u=0.003, a_nm=5.0)
    assert json.loads(out.read_text()) == {
        "tau_d": tau_d(mat, part, kin, method="markov").tau_d,
        "method": "markov",
        "params": {
            "material": mat.name, "omega_s_rad_s": mat.omega_s,
            "gamma_tilde": mat.gamma_tilde, "particle": part.name,
            "delta_tilde": part.delta_tilde, "r0_tilde": part.r0_tilde,
            "orientation": list(part.orientation), "u": 0.003, "a_nm": 5.0,
        },
    }


def test_tdec_markov_on_gold(tmp_path):
    out = tmp_path / "tdec.json"
    code = run(["tdec", "--preset", "rb-au", "--method", "markov", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["tau_d"] > 0


def test_tdec_near_resonance_exit_2(tmp_path, capsys):
    code = run(
        ["tdec", "--preset", "nv-nsi", "--delta", "0.97", "--method", "analytic",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 2
    assert "delta_tilde" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["numeric", "markov", "analytic"])
def test_tdec_zero_coupling_exit_3(tmp_path, capsys, method):
    code = run(
        ["tdec", "--preset", "nv-nsi", "--r0", "0", "--method", method,
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 3
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv", [["--u", "1e20"], ["--u", "1e20", "--method", "markov"], ["--r0", "0"]],
    ids=["u-numeric", "u-markov", "r0"],
)
def test_tdec_nothing_to_read_names_u_and_r0_exit_3(tmp_path, capsys, argv):
    # D at the horizon is not positive: -2e-44 far past the paper's
    # velocities, 0 at zero coupling; the message names both knobs
    code = run(["tdec", "--preset", "nv-nsi", *argv, "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert list(tmp_path.iterdir()) == []
    err = capsys.readouterr().err
    assert "at u = " in err and ", r0_tilde = " in err
    assert err.endswith("; raise r0_tilde or lower u\n")


def test_physics_breach_exit_4_writes_nothing(tmp_path, capsys):
    # a coupling this strong drives the population out of [0, 1]
    code = run(["evolve", "--preset", "nv-nsi", "--r0", "1e5", "--u", "0.3",
                "--cycles", "200", "--out", str(tmp_path / "e.csv")])
    assert code == 4
    assert list(tmp_path.iterdir()) == []
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("qfd: physics invariant breached: ")


def _error_classes(cls):
    return {c for sub in cls.__subclasses__() for c in (sub, *_error_classes(sub))}


# every QfdError subclass, pinned so that a new one is placed on purpose;
# those without an entry in EXIT_OF are numerical failures
ERROR_CLASSES = ("BracketError", "ConfigError", "ConvergenceError", "DomainError",
                 "GridError", "PhysicsError")
EXIT_OF = {ConfigError: (2, "qfd: config error: "),
           PhysicsError: (4, "qfd: physics invariant breached: ")}


@pytest.mark.parametrize("error", sorted(_error_classes(QfdError), key=lambda c: c.__name__),
                         ids=lambda c: c.__name__)
def test_each_error_class_maps_to_its_exit_code(tmp_path, capsys, monkeypatch, error):
    assert sorted(c.__name__ for c in _error_classes(QfdError)) == list(ERROR_CLASSES)

    def fail(args, cfg):
        raise error("planted")

    monkeypatch.setattr(qfd.cli, "cmd_tdec", fail)
    code, prefix = EXIT_OF.get(error, (3, "qfd: numerical failure: "))
    assert run(["tdec", "--preset", "nv-nsi", "--out", str(tmp_path / "t.json")]) == code
    assert capsys.readouterr().err == prefix + "planted\n"
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------


def test_sweep_phi_periodicity(tmp_path):
    out = tmp_path / "phi.csv"
    code = run(
        ["sweep", "--param", "phi", "--from", "0", "--to", str(math.pi),
         "--points", "2", "--theta", "90deg", "--preset", "nv-nsi",
         "--u", "0.3", "--method", "markov", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert float(rows[0][2]) == pytest.approx(float(rows[1][2]), rel=1e-12)


def test_sweep_fixed_angle_follows_orientation(tmp_path):
    # without --theta, a phi sweep keeps the resolved dipole's polar angle
    out, report = tmp_path / "phi.csv", tmp_path / "tdec.json"
    given = ["--preset", "nv-nsi", "--orientation", "0,0,1", "--u", "0.3",
             "--method", "markov"]
    assert run(["sweep", "--param", "phi", "--from", "0", "--to", "1", "--points", "2",
                *given, "--out", str(out)]) == 0
    assert run(["tdec", *given, "--out", str(report)]) == 0
    header, rows = read_csv(out)
    tau = json.loads(report.read_text())["tau_d"]
    assert [float(r[header.index("theta")]) for r in rows] == [0.0, 0.0]
    assert [float(r[header.index("tau_d")]) for r in rows] == [tau, tau]


def test_sweep_u_emits_fit_sidecar(tmp_path):
    out = tmp_path / "u.csv"
    code = run(
        ["sweep", "--param", "u", "--from", "0.005", "--to", "0.03",
         "--points", "4", "--preset", "nv-nsi", "--method", "markov",
         "--out", str(out)]
    )
    assert code == 0
    sidecar = json.loads((tmp_path / "u.csv.fit.json").read_text())
    assert "b_over_a" in sidecar["fit"]
    header, rows = read_csv(out)
    assert len(rows) == 4
    assert header[0] == "sweep_param"


def test_descending_u_sweep_is_log_spaced(tmp_path):
    out = tmp_path / "u.csv"
    assert run(["sweep", "--param", "u", "--from", "0.03", "--to", "0.001", "--points", "8",
                "--preset", "nv-nsi", "--method", "markov", "--pts-per-cycle", "64",
                "--out", str(out)]) == 0
    header, rows = read_csv(out)
    u = np.array([float(r[header.index("u")]) for r in rows])
    assert u[0] == 0.03 and u[-1] == 0.001
    ratio = u[1:] / u[:-1]
    np.testing.assert_allclose(ratio, ratio[0], rtol=1e-12, atol=0.0)


def test_sweep_delta_exclusion_flag(tmp_path):
    # only the analytic route refuses the resonance band: a Markov sweep
    # evaluates its rows there and flags none of them excluded
    out = tmp_path / "delta.csv"
    code = run(
        ["sweep", "--param", "delta", "--from", "0.9", "--to", "1.0",
         "--points", "2", "--preset", "nv-nsi", "--u", "0.003",
         "--method", "markov", "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    for row in rows:
        assert row[header.index("flag")] == ""
        for name in ("tau_d", "tau_d_u0", "rate"):
            assert math.isfinite(float(row[header.index(name)]))


class TableCalls(list):
    """The arguments of every decoherence_table call, in order, with a
    weak reference to each table built (`tables`) and, per call, how
    many earlier tables were still alive when it was made (`held`)."""

    def __init__(self):
        super().__init__()
        self.tables, self.held = [], []


@pytest.fixture
def table_calls(monkeypatch):
    """The decoherence_table calls a sweep makes (TableCalls)."""
    import qfd.decoherence as dec

    calls = TableCalls()
    build = dec.decoherence_table

    def counted(*args, **kwargs):
        calls.held.append(sum(ref() is not None for ref in calls.tables))
        calls.append(args)
        table = build(*args, **kwargs)
        calls.tables.append(weakref.ref(table))
        return table

    monkeypatch.setattr(dec, "decoherence_table", counted)
    return calls


def test_delta_sweep_holds_one_table_at_a_time(tmp_path, table_calls):
    # one table per distinct level spacing, in point order, each dropped
    # before the next is built: the peak is one table
    code = run(
        ["sweep", "--param", "delta", "--from", "0.5", "--to", "1.5", "--points", "3",
         "--preset", "nv-nsi", "--u", "0.003", "--method", "markov",
         "--out", str(tmp_path / "delta.csv")]
    )
    assert code == 0
    assert [delta for _, delta, *_ in table_calls] == [0.5, 1.0, 1.5]
    assert table_calls.held == [0, 0, 0]


def test_sweep_u_builds_one_kernel_table(tmp_path, table_calls):
    # the fit sidecar reuses the sweep's rows instead of a second table
    code = run(
        ["sweep", "--param", "u", "--from", "0.005", "--to", "0.03",
         "--points", "4", "--preset", "nv-nsi", "--out", str(tmp_path / "u.csv")]
    )
    assert code == 0
    assert len(table_calls) == 1
    assert (tmp_path / "u.csv.fit.json").exists()


def test_markov_combo_sweep_builds_one_table_per_combo(tmp_path, table_calls):
    # the Markov constants are read off the sweep's kernel table, gold too
    code = run(
        ["sweep", "--param", "phi", "--from", "0", "--to", "6", "--points", "7",
         "--combos", "nv-nsi,rb-au", "--method", "markov",
         "--out", str(tmp_path / "combo.csv")]
    )
    assert code == 0
    assert [mat.name for mat, *_ in table_calls] == ["n-Si", "Au"]


def test_sweep_theta_combos_label_the_theta_axis(tmp_path):
    out = tmp_path / "combo.csv"
    code = run(
        ["sweep", "--param", "theta", "--from", "0.5", "--to", "1.5",
         "--points", "3", "--combos", "nv-nsi", "--method", "markov",
         "--out", str(out)]
    )
    assert code == 0
    header, rows = read_csv(out)
    theta = header.index("theta")
    assert [r[0] for r in rows] == ["theta"] * 3
    assert [r[1] for r in rows] == [r[theta] for r in rows]
    assert float(rows[-1][1]) == 1.5


@pytest.mark.parametrize(
    "flag, value, name",
    [
        ("--u", "nan", "u"),
        ("--u", "inf", "u"),
        ("--r0", "nan", "r0_tilde"),
        ("--delta", "inf", "delta_tilde"),
        ("--delta", "nan", "delta_tilde"),
        ("--gamma", "inf", "gamma_tilde"),
        ("--omega-s", "inf", "omega_s"),
        ("--a-nm", "inf", "a_nm"),
        ("--pts-per-cycle", "0", "pts_per_cycle"),
        ("[numerics] rel_tol", "abc", "[numerics] rel_tol"),
        ("[numerics] pts_per_cycle", "1.5", "[numerics] pts_per_cycle"),
        ("[kinematics] u", "fast", "[kinematics] u"),
        # a key that no longer exists is refused, not ignored
        ("[numerics] horizon_cycles", "auto", "[numerics] horizon_cycles"),
        ("--orientation", "1,x,0", "--orientation"),
    ],
)
def test_non_finite_input_exit_2(tmp_path, capsys, flag, value, name):
    # bad numbers exit 2 with a message that names the parameter; a flag
    # written "[section] key" is given in a config file instead
    if flag.startswith("["):
        section, key = flag[1:].split("] ")
        ini = tmp_path / "bad.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        given = ["--config", str(ini)]
    else:
        given = [flag, value]
    code = run(["tdec", "--preset", "nv-nsi", *given, "--out", str(tmp_path / "t.json")])
    assert code == 2
    err = capsys.readouterr().err
    assert name in err
    if value in ("nan", "inf"):
        assert f"{name} must be finite" in err


@pytest.mark.parametrize(
    "flag, value",
    [
        ("--omega-max", "50"),
        ("[numerics] rel_tol", "1e-08"),
        ("[numerics] abs_tol", "1e-10"),
        ("[numerics] omega_max", "50"),
    ],
)
def test_removed_oracle_knob_exit_2(tmp_path, capsys, flag, value):
    # the oracle sets its own accuracy: its old flag and keys are refused,
    # not ignored, even at the values older --dump-config files carry
    if flag.startswith("["):
        section, key = flag[1:].split("] ")
        ini = tmp_path / "old.ini"
        ini.write_text(f"[{section}]\n{key} = {value}\n")
        given, expected = ["--config", str(ini)], f"unknown config key {flag}"
    else:
        given, expected = [flag, value], f"unrecognized arguments: {flag}"
    try:
        code = run(["tdec", "--preset", "nv-nsi", *given, "--out", str(tmp_path / "t.json")])
    except SystemExit as exc:  # argparse refuses an unknown flag itself
        code = exc.code
    assert code == 2
    assert expected in capsys.readouterr().err
    assert not (tmp_path / "t.json").exists()


def test_sweep_config_error_exit_2(tmp_path, capsys):
    u_sweep = ["sweep", "--param", "u", "--from", "0.01", "--to", "0.02"]
    above_critical = ["--preset", "nv-nsi", "--gamma", "2.5"]
    headless = tmp_path / "headless.ini"
    headless.write_text("u = 0.1\n")
    as_json = tmp_path / "json.ini"
    as_json.write_text("[output]\nformat = json\n")
    misspelt = tmp_path / "misspelt.ini"
    misspelt.write_text("[numerics]\npts_per_cylce = 800\n")
    bogus = tmp_path / "bogus.ini"
    bogus.write_text("[material]\npreset = nv-nsi\n\n[bogus]\n")
    angle_sweep = ["--points", "3", "--preset", "nv-nsi"]
    cases = [
        # an INI file that configparser refuses is bad input naming the file
        (["tdec", "--preset", "nv-nsi", "--config", str(headless)], "headless.ini"),
        (u_sweep + ["--points", "3", "--preset", "nv-nsi"], "--points >= 4"),
        (["coeffs", "--preset", "unobtainium"], "unobtainium"),
        # only the small-velocity analytic route needs gamma_tilde < 2, and
        # a damping outside its range is bad input, not a numerical failure
        (["tdec", *above_critical, "--method", "analytic"], "gamma_tilde"),
        (u_sweep + ["--points", "4", *above_critical, "--method", "analytic"], "gamma_tilde"),
        (["coeffs", *above_critical, "--method", "analytic", "--cycles", "0.1"], "gamma_tilde"),
        (["coeffs", *above_critical, "--method", "all", "--cycles", "0.1"], "gamma_tilde"),
        # the expansion past its range, where it gives no positive tau_d
        (["tdec", "--preset", "nv-nsi", "--method", "analytic", "--u", "1"], "u = 1"),
        # a fit sweep past the threshold is refused before any tau_d is computed
        (["sweep", "--param", "u", "--from", "0.01", "--to", "0.2", "--points", "4",
          "--preset", "nv-nsi"], "delta_tilde/2"),
        # coeffs and evolve write CSV only
        (["evolve", "--preset", "nv-nsi", "--cycles", "1", "--format", "json"], "format"),
        (["coeffs", "--preset", "nv-nsi", "--cycles", "1", "--config", str(as_json)], "format"),
        # a horizon of no positive, finite number of cycles
        *[([command, "--preset", "nv-nsi", "--cycles", cycles], "--cycles")
          for command in ("coeffs", "evolve") for cycles in ("nan", "inf", "0", "-1")],
        # dipole angles outside [0, pi] and [0, 2 pi)
        (["sweep", "--param", "theta", "--from", "-1", "--to", "1", *angle_sweep], "theta"),
        (["sweep", "--param", "phi", "--from", "0", "--to", "7", *angle_sweep], "phi"),
        # an INI key or section the schema does not declare is refused, not ignored
        (["tdec", "--preset", "nv-nsi", "--config", str(misspelt)], "[numerics] pts_per_cylce"),
        (["tdec", "--config", str(bogus)], "[bogus]"),
        # an analytic delta sweep that reaches the resonance band
        (["sweep", "--param", "delta", "--from", "0.8", "--to", "1.2", "--points", "9",
          "--preset", "nv-nsi", "--method", "analytic"], "delta_tilde"),
    ]
    for argv, name in cases:
        assert run(argv + ["--out", str(tmp_path / "x.out")]) == 2, argv
        assert name in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists() and not (tmp_path / "x.out.fit.json").exists()


@pytest.mark.parametrize(
    "argv, remedy",
    [
        (["evolve", "--preset", "nv-nsi", "--u", "0.3", "--cycles", "1e12"], "lower --cycles"),
        # a horizon past the float range, inf panels
        (["coeffs", "--preset", "nv-nsi", "--cycles", "1e308"], "lower --cycles"),
        (["tdec", "--preset", "nv-au", "--pts-per-cycle", "10000000"], "lower pts_per_cycle"),
        # a window of 3 cycles of 6e7 at the spacing cap 0.1
        (["tdec", "--preset", "nv-nsi", "--delta", "1e-7"], "raise delta_tilde"),
        # kernels alive for 1.1e8 and 5.5e6 at the spacing cap 0.1, which no
        # pts_per_cycle lifts; the decay time is shortest at gamma_tilde = 2
        (["tdec", "--preset", "nv-nsi", "--gamma", "1e-6"], "raise gamma_tilde"),
        (["tdec", "--preset", "nv-nsi", "--gamma", "1e5"], "lower gamma_tilde"),
        # the float range's ends: a dense spacing of cycle / 400 = 2e-302,
        # which a lower level spacing widens, and a window of 3 cycles of 6e300
        (["tdec", "--preset", "nv-nsi", "--u", "0.003", "--delta", "1e300"], "lower delta_tilde"),
        (["tdec", "--preset", "nv-nsi", "--u", "0.003", "--delta", "1e-300"], "raise delta_tilde"),
        # kernels that never decay in floats: a window of no finite length
        (["tdec", "--preset", "nv-nsi", "--u", "0.003", "--gamma", "1e300"], "lower gamma_tilde"),
        (["tdec", "--preset", "nv-nsi", "--u", "0.003", "--gamma", "5e-324"], "raise gamma_tilde"),
    ],
    ids=["evolve-cycles", "coeffs-cycles-inf", "tdec-pts-per-cycle", "tdec-window",
         "tdec-gamma-low", "tdec-gamma-high", "tdec-delta-1e300", "tdec-delta-1e-300",
         "tdec-gamma-1e300", "tdec-gamma-5e-324"],
)
def test_oversized_plan_exit_2_before_allocating(tmp_path, capsys, argv, remedy):
    # a kernel table of terabytes is refused from its node count, before
    # any grid, node or kernel array is built; the message says what the
    # budget bounds: a caller's grid, or the time of a decoherence pass,
    # whose plan holds no grid-sized array
    out = tmp_path / "x.out"
    tracemalloc.start()
    try:
        code = run(argv + ["--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    bound = "that bounds the time of a pass" if argv[0] == "tdec" else "(0.13 GB)"
    assert err.rstrip().endswith(f"budget of {2**26} {bound}: {remedy}")
    assert peak < 1e6
    assert not out.exists()


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    code = run(
        ["sweep", "--param", "u", "--from", "0.005", "--to", "0.02",
         "--points", "4", "--preset", "nv-nsi", "--method", "markov",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    mat, part = preset("nv-nsi")
    rows = sweep_velocity(mat, part, np.geomspace(0.005, 0.02, 4), method="markov")
    assert json.loads(out.read_text()) == [asdict(r) for r in rows]


U_SWEEP = ["sweep", "--param", "u", "--from", "0.005", "--to", "0.03", "--points", "4",
           "--preset", "nv-nsi"]


def test_sweep_u_fits_through_quadratic_ratio_fit(tmp_path):
    # the CLI u sweep is the library fit: its sidecar holds
    # quadratic_ratio_fit's fit field for field, its table the fit's rows
    out = tmp_path / "u.csv"
    assert run(U_SWEEP + ["--pts-per-cycle", "600", "--out", str(out)]) == 0
    mat, part = preset("nv-nsi")
    us = np.geomspace(0.005, 0.03, 4)
    fit, rows = quadratic_ratio_fit(mat, part, us, pts_per_cycle=600)
    assert rows == sweep_velocity(mat, part, us, pts_per_cycle=600)
    sidecar = json.loads((tmp_path / "u.csv.fit.json").read_text())
    assert sidecar == {"fit": {"a": fit.a, "b": fit.b, "b_over_a": fit.b_over_a,
                               "residual": fit.residual,
                               "residual_warning": fit.residual_warning}}
    assert out.read_text() == "".join(csv_blocks(sweep_columns(rows)))


def test_sweep_honours_pts_per_cycle(tmp_path):
    # the numeric and the Markov route each read --pts-per-cycle, in the
    # sweep and in tdec alike
    for method in ("numeric", "markov"):
        coarse, fine = tmp_path / "400.csv", tmp_path / "1600.csv"
        sweep = U_SWEEP + ["--method", method]
        assert run(sweep + ["--out", str(coarse)]) == 0
        assert run(sweep + ["--pts-per-cycle", "1600", "--out", str(fine)]) == 0
        _, coarse_rows = read_csv(coarse)
        header, rows = read_csv(fine)
        tau, u = header.index("tau_d"), header.index("u")
        assert all(a[tau] != b[tau] for a, b in zip(coarse_rows, rows)), method
        # each row is the tdec of its velocity on the same grid
        report = tmp_path / "tdec.json"
        for row in rows:
            assert run(["tdec", "--preset", "nv-nsi", "--u", row[u], "--pts-per-cycle",
                        "1600", "--method", method, "--out", str(report)]) == 0
            assert float(row[tau]) == pytest.approx(json.loads(report.read_text())["tau_d"],
                                                    rel=1e-12), method


# ---------------------------------------------------------------------------
# config schema and round trip
# ---------------------------------------------------------------------------


# Precedence chains, one key each.  Row i of a chain applies the chain's
# layers 0..i, each of which sets the key; the dump must show layer i's
# value, so each layer beats every layer before it.
PRECEDENCE = {
    ("material", "gamma_tilde"): [
        ("preset", "", ["--preset", "nv-nsi"], 1.0),
        ("config", "[material]\ngamma_tilde = 0.5\n", [], 0.5),
        ("material", "", ["--material", "au"], 0.003),
        ("flag", "", ["--gamma", "0.75"], 0.75),
    ],
    ("particle", "orientation"): [
        ("default", "", ["--omega-s", "1e14", "--gamma", "1", "--delta", "0.3"], (1.0, 0.0, 0.0)),
        ("config", "[particle]\norientation = 0,3,4\n", [], (0.0, 0.6, 0.8)),
        ("orientation", "", ["--orientation", "0,1,0"], (0.0, 1.0, 0.0)),
        ("angles", "", ["--theta", "0"], (0.0, 0.0, 1.0)),
    ],
    ("numerics", "pts_per_cycle"): [
        ("default", "", ["--preset", "rb-nsi"], 400),
        ("config", "[numerics]\npts_per_cycle = 200\n", [], 200),
        ("flag", "", ["--pts-per-cycle", "100"], 100),
    ],
    ("output", "path"): [
        ("default", "", ["--preset", "rb-nsi"], "-"),
        ("config", "[output]\npath = from-config.csv\n", [], "from-config.csv"),
        ("flag", "", ["--out", "from-flag.csv"], "from-flag.csv"),
    ],
}


def _precedence_rows():
    rows = []
    for (section, key), chain in PRECEDENCE.items():
        ini, flags = "", []
        for layer, ini_text, layer_flags, value in chain:
            ini, flags = ini + ini_text, flags + layer_flags
            rows.append(pytest.param(section, key, ini, flags, value, id=f"{key}-{layer}"))
    return rows


def _ini_value(value) -> str:
    if isinstance(value, tuple):
        return ",".join(f"{x:.17g}" for x in value)
    return f"{value:.17g}" if isinstance(value, float) else str(value)


@pytest.mark.parametrize("section, key, ini, flags, value", _precedence_rows())
def test_config_precedence(tmp_path, section, key, ini, flags, value):
    dump = tmp_path / "resolved.ini"
    argv = ["tdec", *flags, "--dump-config", str(dump)]
    if ini:
        (tmp_path / "run.ini").write_text(ini)
        argv += ["--config", str(tmp_path / "run.ini")]
    assert run(argv) == 0
    resolved = configparser.ConfigParser()
    resolved.read(dump)
    assert resolved[section][key] == _ini_value(value)


def test_every_schema_flag_is_on_every_subcommand():
    from qfd.cli import _KEYS, build_parser

    dests = {row[3] for row in _KEYS} - {None}
    assert dests >= {"gamma", "u", "pts_per_cycle", "out", "format"}
    required = {"sweep": ["--param", "u", "--from", "0", "--to", "1", "--points", "4"]}
    for command in ("coeffs", "evolve", "tdec", "sweep"):
        parsed = build_parser().parse_args([command, *required.get(command, [])])
        assert dests <= set(vars(parsed)), command



def test_dump_config_round_trip(tmp_path):
    cfg = tmp_path / "resolved.ini"
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    # a '%' in a name is literal, not configparser interpolation
    named = tmp_path / "named.ini"
    named.write_text("[material]\nname = 50%\n")
    base = ["coeffs", "--preset", "nv-nsi", "--u", "0.007", "--cycles", "1",
            "--pts-per-cycle", "64", "--config", str(named)]
    assert run(base + ["--dump-config", str(cfg)]) == 0
    assert "\nname = 50%\n" in cfg.read_text()
    assert run(base + ["--out", str(out1)]) == 0
    # re-ingest the resolved config with no other flags
    assert run(["coeffs", "--config", str(cfg), "--cycles", "1",
                "--pts-per-cycle", "64", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    # and the dump itself is reproducible from its own re-ingestion
    cfg2 = tmp_path / "resolved2.ini"
    assert run(["coeffs", "--config", str(cfg), "--dump-config", str(cfg2)]) == 0
    assert cfg.read_text() == cfg2.read_text()


def test_config_file_with_overrides(tmp_path):
    cfg = tmp_path / "run.ini"
    cfg.write_text(
        "[material]\npreset = nv-nsi\n\n[kinematics]\nu = 0.003\n\n"
        "[output]\nformat = csv\n"
    )
    out = tmp_path / "o.csv"
    assert run(["coeffs", "--config", str(cfg), "--cycles", "1",
                "--pts-per-cycle", "64", "--u", "0.01", "--out", str(out)]) == 0
    header, rows = read_csv(out)
    assert len(rows) > 10


def test_dump_config_into_a_directory_exit_2(tmp_path, capsys):
    assert run(["tdec", "--preset", "nv-nsi", "--dump-config", str(tmp_path)]) == 2
    assert "--dump-config" in capsys.readouterr().err


def test_missing_config_exit_2(tmp_path):
    assert run(["coeffs", "--config", str(tmp_path / "nope.ini"),
                "--out", "-"]) == 2


@pytest.mark.parametrize("where", ["directory", "missing directory"])
def test_unwritable_out_exit_2_before_any_work(tmp_path, capsys, monkeypatch, where):
    import qfd.cli as cli

    calls = []
    monkeypatch.setattr(cli, "time_grid", lambda *a, **k: calls.append(a))
    out = tmp_path if where == "directory" else tmp_path / "missing" / "e.csv"
    code = run(["evolve", "--preset", "nv-nsi", "--u", "0.3", "--cycles", "20",
                "--out", str(out)])
    assert code == 2
    assert "--out" in capsys.readouterr().err
    assert calls == []
    assert not (tmp_path / "missing").exists()


def test_fit_sidecar_into_a_directory_exit_2_before_any_work(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setattr(qfd.cli, "quadratic_ratio_fit", lambda *a, **k: calls.append(a))
    out = tmp_path / "u.csv"
    (tmp_path / "u.csv.fit.json").mkdir()
    assert run(U_SWEEP + ["--out", str(out)]) == 2
    assert f"--out '{out}.fit.json' is a directory" in capsys.readouterr().err
    assert calls == []
    assert [p.name for p in tmp_path.iterdir()] == ["u.csv.fit.json"]
    assert not any((tmp_path / "u.csv.fit.json").iterdir())


@pytest.mark.filterwarnings("default::RuntimeWarning")  # the envelope overflows on purpose
def test_evolve_past_the_envelope_range_exit_4(tmp_path, capsys):
    # past |u t| ~ 1.3e154 the trace turns NaN, which the positivity check refuses
    out = tmp_path / "e.csv"
    assert run(["evolve", "--preset", "nv-nsi", "--u", "1e160", "--cycles", "1",
                "--out", str(out)]) == 4
    assert "qfd: physics invariant breached: population left [0, 1]" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


# ---------------------------------------------------------------------------
# writing
# ---------------------------------------------------------------------------


def test_failed_streamed_write_leaves_no_file(tmp_path):
    # blocks that fail after the first: no partial target, no temporary
    # file, and a target that existed before is left as it was
    def blocks():
        yield "t\n"
        raise RuntimeError("block 2")

    old = tmp_path / "old.csv"
    old.write_text("kept\n")
    for target in (tmp_path / "new.csv", old):
        with pytest.raises(RuntimeError, match="block 2"):
            _write_atomic(str(target), blocks())
    assert old.read_text() == "kept\n"
    assert [p.name for p in tmp_path.iterdir()] == ["old.csv"]


def test_written_files_take_the_mode_of_a_plain_open(tmp_path):
    umask = os.umask(0o022)
    try:
        assert run(["tdec", "--preset", "nv-nsi", "--u", "0.003",
                    "--out", str(tmp_path / "perm.json")]) == 0
        _write_atomic(str(tmp_path / "blocks.csv"), iter(["t\n", "0\n"]))
    finally:
        os.umask(umask)
    for path in tmp_path.iterdir():
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path.name


def test_evolve_stdout_matches_the_file(tmp_path, capsys):
    # 2.7 k rows: the header and two blocks
    argv = ["evolve", "--preset", "nv-nsi", "--u", "0.3", "--cycles", "50"]
    out = tmp_path / "evo.csv"
    assert run(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert run(argv + ["--out", "-"]) == 0
    text = capsys.readouterr().out
    assert text.count("\n") > 2048 + 1
    assert text.encode() == out.read_bytes()


def test_streamed_table_write_holds_a_block_not_the_file(tmp_path):
    # writing 100 k rows holds block-sized buffers only; a write of the
    # joined text would hold it twice, as text and encoded
    rng = np.random.default_rng(7)
    columns = {name: rng.standard_normal(100_000) for name in "abcdefg"}
    out = tmp_path / "big.csv"
    tracemalloc.start()
    try:
        _write_atomic(str(out), csv_blocks(columns))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < out.stat().st_size / 4

"""CLI integration tests: subcommands, exit codes, determinism, round trips."""

import json
import math

import numpy as np
import pytest

from qfd.cli import main, parse_angle
from qfd.errors import ConfigError


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


def test_evolve_invalid_initial_state_exit_4(tmp_path):
    code = run(
        ["evolve", "--preset", "nv-nsi", "--rho11", "1.5", "--cycles", "1",
         "--pts-per-cycle", "64", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 4


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


def test_tdec_markov_on_gold(tmp_path):
    out = tmp_path / "tdec.json"
    code = run(["tdec", "--preset", "rb-au", "--method", "markov", "--out", str(out)])
    assert code == 0
    assert json.loads(out.read_text())["tau_d"] > 0


def test_tdec_near_resonance_exit_3(tmp_path):
    code = run(
        ["tdec", "--preset", "nv-nsi", "--delta", "0.97", "--method", "analytic",
         "--out", str(tmp_path / "x.json")]
    )
    assert code == 3


def test_tdec_zero_coupling_exit_3(tmp_path):
    code = run(
        ["tdec", "--preset", "nv-nsi", "--r0", "0", "--out", str(tmp_path / "x.json")]
    )
    assert code == 3


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


def test_sweep_delta_exclusion_flag(tmp_path):
    out = tmp_path / "delta.csv"
    code = run(
        ["sweep", "--param", "delta", "--from", "0.9", "--to", "1.0",
         "--points", "2", "--preset", "nv-nsi", "--u", "0.003",
         "--method", "markov", "--out", str(out)]
    )
    assert code == 0
    _, rows = read_csv(out)
    assert rows[0][-1] == "excluded" and rows[1][-1] == "excluded"


@pytest.fixture
def table_calls(monkeypatch):
    """The arguments of every decoherence_table call a sweep makes."""
    import qfd.decoherence as dec

    calls = []
    build = dec.decoherence_table
    monkeypatch.setattr(
        dec, "decoherence_table", lambda *a, **k: calls.append(a) or build(*a, **k)
    )
    return calls


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
        ("--horizon-cycles", "0", "horizon_cycles"),
        ("--horizon-cycles", "nan", "horizon_cycles"),
        ("--omega-max", "nan", "omega_max"),
        ("[numerics] rel_tol", "nan", "rel_tol"),
        ("[numerics] rel_tol", "abc", "[numerics] rel_tol"),
        ("[numerics] pts_per_cycle", "1.5", "[numerics] pts_per_cycle"),
        ("[kinematics] u", "fast", "[kinematics] u"),
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


def test_sweep_config_error_exit_2(tmp_path):
    assert run(
        ["sweep", "--param", "u", "--from", "0.01", "--to", "0.02",
         "--points", "3", "--preset", "nv-nsi", "--out", str(tmp_path / "x.csv")]
    ) == 2  # u sweeps need >= 4 points
    assert run(
        ["coeffs", "--preset", "unobtainium", "--out", str(tmp_path / "y.csv")]
    ) == 2


def test_sweep_json_format(tmp_path):
    out = tmp_path / "sweep.json"
    code = run(
        ["sweep", "--param", "u", "--from", "0.005", "--to", "0.02",
         "--points", "4", "--preset", "nv-nsi", "--method", "markov",
         "--format", "json", "--out", str(out)]
    )
    assert code == 0
    payload = json.loads(out.read_text())
    assert len(payload) == 4
    assert {"tau_d", "rate", "u"} <= set(payload[0])


# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------


def test_dump_config_round_trip(tmp_path):
    cfg = tmp_path / "resolved.ini"
    out1 = tmp_path / "run1.csv"
    out2 = tmp_path / "run2.csv"
    base = ["coeffs", "--preset", "nv-nsi", "--u", "0.007", "--cycles", "1",
            "--pts-per-cycle", "64"]
    assert run(base + ["--dump-config", str(cfg)]) == 0
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

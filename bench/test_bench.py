"""Tests of the benchmark's own machinery: span arithmetic, output
comparators and the tracing wrappers."""

import json

import numpy as np
import pytest

import checks
import tracing
from workloads import VARIANTS, WORKLOADS, read_ref, shifted_u, stride_rows

import qfd.cli
import qfd.coefficients
import qfd.decoherence
import qfd.model
import qfd.numerics
from qfd.errors import ConvergenceError
from qfd.model import KinematicsParams, preset


# ---------------------------------------------------------------------------
# Self time on nested spans
# ---------------------------------------------------------------------------


def test_self_time_subtracts_direct_children_only():
    # layer 0 "outer" [0, 10] holds layer 1 [1, 6], which holds another
    # layer-1 span [2, 4] (a quadrature nested in a quadrature), and
    # layer 2 [7, 9]
    layer = [0, 1, 1, 2]
    parent = [-1, 0, 1, 0]
    start = [0.0, 1.0, 2.0, 7.0]
    end = [10.0, 6.0, 4.0, 9.0]
    selfs = tracing.self_times(layer, parent, start, end, 3)
    assert list(selfs) == [3.0, 5.0, 2.0]
    assert selfs.sum() == 10.0  # self times partition the root span


def test_tracer_records_parents_with_recursion():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    traced_leaf = tracer.wrap(lambda: 1, "leaf")

    def node(depth):
        return traced_leaf() + (traced_node(depth - 1) if depth else 0)

    traced_node = tracer.wrap(node, "node")
    assert traced_node(1) == 2

    arr = tracer.arrays()
    # spans in call order: node [0, 7], leaf [1, 2], node [3, 6], leaf [4, 5]
    assert tracer.layers == ["leaf", "node"]
    assert list(arr["layer"]) == [1, 0, 1, 0]
    assert list(arr["parent"]) == [-1, 0, 0, 2]
    selfs = tracing.self_times(arr["layer"], arr["parent"], arr["start"], arr["end"], 2)
    assert list(selfs) == [2.0, 5.0]
    assert tracer.counts["node.calls"] == 2 and tracer.counts["leaf.calls"] == 2


# ---------------------------------------------------------------------------
# Comparators
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", range(VARIANTS))
@pytest.mark.parametrize("name", list(WORKLOADS))
def test_comparator_accepts_its_reference(name, seed):
    w = WORKLOADS[name]
    ref = read_ref(w.ref_file(seed))
    assert w.compare(ref, ref) == []


def test_seeds_pick_variants_with_distinct_inputs():
    for w in WORKLOADS.values():
        assert w.args(VARIANTS) == w.args(0) and w.ref_file(VARIANTS + 3) == w.ref_file(3)
        assert len({tuple(w.args(k)) for k in range(VARIANTS)}) == VARIANTS
    args = WORKLOADS["gold-tdec"].args(3)
    assert float(args[args.index("--u") + 1]) == shifted_u(1.5e-4, 3) > 1.5e-4


def test_variant_references_check_the_velocity_and_strided_rows():
    # every variant's tau_d differs from its neighbour's by far more than 1e-7
    gold = WORKLOADS["gold-tdec"]
    refs = [read_ref(gold.ref_file(k)) for k in range(VARIANTS)]
    for a, b in zip(refs, refs[1:]):
        assert checks.compare_tdec(b, a)
    # a strided reference holds the header and rows 0, stride, 2 stride, ...
    evolve = WORKLOADS["evolve-long"]
    full = read_ref(evolve.ref_name)
    rows = full.splitlines()
    strided = stride_rows(full, evolve.stride).splitlines()
    assert strided[0] == rows[0] and strided[2] == rows[1 + evolve.stride]
    assert len(strided) == 1 + -(-(len(rows) - 1) // evolve.stride)


def _scale_tau(text, factor):
    data = json.loads(text)
    data["tau_d"] *= factor
    return json.dumps(data)


def test_tdec_comparator_rejects_tau_off_by_1e5_only():
    ref = read_ref("gold-tdec.json")
    assert checks.compare_tdec(_scale_tau(ref, 1 + 1e-5), ref)
    assert checks.compare_tdec(_scale_tau(ref, 1 + 5e-8), ref) == []


def _perturb_csv(text, column, row, factor):
    lines = text.splitlines()
    j = lines[0].split(",").index(column)
    cells = lines[row + 1].split(",")
    cells[j] = repr(float(cells[j]) * factor)
    lines[row + 1] = ",".join(cells)
    return "\n".join(lines) + "\n"


def test_sweep_comparator_rejects_tau_off_by_1e5_only():
    ref = read_ref("combo-sweep.csv")
    assert checks.compare_sweep(_perturb_csv(ref, "tau_d", 37, 1 + 1e-5), ref)
    assert checks.compare_sweep(_perturb_csv(ref, "tau_d", 37, 1 + 5e-8), ref) == []
    assert checks.compare_sweep(_perturb_csv(ref, "tau_d_u0", 3, 1 - 1e-5), ref)


def test_coeffs_comparator_rejects_a_coefficient_off_by_1e5():
    ref = read_ref("oracle.csv")
    assert checks.compare_coeffs(_perturb_csv(ref, "D_brute", 20, 1 + 1e-5), ref)


def test_invariants_hold_on_the_references():
    tdec = read_ref(WORKLOADS["gold-tdec"].ref_file(3))
    assert checks.check_tdec(tdec, shifted_u(1.5e-4, 3)) == []
    assert checks.check_tdec(_scale_tau(tdec, -1.0), shifted_u(1.5e-4, 3))
    coeffs = read_ref("oracle.csv")
    t = checks.read_csv(coeffs)[1]["t"]
    assert checks.check_coeffs(coeffs, t) == []
    assert checks.check_coeffs(_perturb_csv(coeffs, "D_brute", 20, 1 + 1e-4), t)


# ---------------------------------------------------------------------------
# Wrappers
# ---------------------------------------------------------------------------


def _calls():
    mat, part = preset("nv-nsi")
    grid = qfd.coefficients.time_grid(part.delta_tilde, mat.gamma_tilde, 2.0)
    z = np.array([0.5 + 0.5j, 3.0 - 1.0j, 30.0 + 2.0j, -5.0 + 1e-3j])
    return {
        "e1": lambda: qfd.numerics.exp_integral_e1_scaled(z),
        "e1_scalar": lambda: qfd.numerics.exp_integral_e1(2.0 + 1.0j),
        "quad": lambda: qfd.numerics.integrate_adaptive(np.cos, 0.0, 3.0),
        "root": lambda: qfd.numerics.find_root_bracketed(lambda x: x * x - 0.3, 0.0, 1.0),
        "trace": lambda: qfd.coefficients.coefficients_e1(
            mat, part, KinematicsParams(u=0.01), grid
        ),
        "tau": lambda: qfd.decoherence.tau_d_numeric(
            mat, part, KinematicsParams(u=0.003)
        ).tau_d,
    }


def _same(a, b):
    if hasattr(a, "__dataclass_fields__"):
        return all(_same(getattr(a, f), getattr(b, f)) for f in a.__dataclass_fields__)
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and np.array_equal(a, b)
    return a == b


def test_wrappers_return_identical_results():
    plain = {k: f() for k, f in _calls().items()}
    e1, kernel_p = qfd.numerics.exp_integral_e1_scaled, qfd.model.kernel_P
    tracer = tracing.Tracer()
    try:
        replaced = tracer.install()
        # the wrapper reaches the modules that imported a function by name
        assert qfd.coefficients.exp_integral_e1_scaled is qfd.numerics.exp_integral_e1_scaled
        assert qfd.numerics.exp_integral_e1_scaled is not e1
        assert qfd.decoherence.kernel_P is qfd.model.kernel_P is not kernel_p
        assert replaced > len(tracing.LAYERS)
        traced = {k: f() for k, f in _calls().items()}
        with pytest.raises(ConvergenceError):
            qfd.numerics.integrate_adaptive(
                lambda x: np.sin(1e4 * x), 0.0, 50.0, max_subdivisions=4
            )
    finally:
        tracer.uninstall()
    for key in plain:
        assert _same(plain[key], traced[key]), key
    counts = tracer.counts
    assert counts["numerics.quad.failed"] == 1
    assert counts["numerics.root.f_evals"] > 10
    assert counts["decoherence.table.calls"] == 1
    assert counts["decoherence.tau_numeric.calls"] == 1
    assert counts["coefficients.kernel_table.nodes"] > 0
    assert qfd.coefficients.exp_integral_e1_scaled is qfd.numerics.exp_integral_e1_scaled is e1
    assert qfd.decoherence.kernel_P is kernel_p


def test_traced_cli_output_is_byte_identical(tmp_path):
    argv = ["tdec", "--preset", "nv-nsi", "--u", "0.003"]
    assert qfd.cli.main(argv + ["--out", str(tmp_path / "plain.json")]) == 0
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert qfd.cli.main(argv + ["--out", str(tmp_path / "traced.json")]) == 0
    finally:
        tracer.uninstall()
    assert (tmp_path / "plain.json").read_bytes() == (tmp_path / "traced.json").read_bytes()
    tracer.dump(str(tmp_path / "spans.npz"))
    selfs, counts, n = tracing.load(str(tmp_path / "spans.npz"))
    metrics = tracing.layer_metrics(selfs, counts)
    assert n > 0 and metrics["cli.bytes_out"] == (tmp_path / "traced.json").stat().st_size
    assert tracing.info(counts) == {"numerics.quad.failed": 0.0, "decoherence.tau_per_table": 1.0}

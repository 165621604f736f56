"""Layer spans for qfd, recorded from outside the package.

``Tracer.install`` replaces the public functions listed in ``LAYERS`` by
wrappers that record one span per call (layer name, parent span, start,
end) plus per-layer counters.  A function is replaced in every loaded
``qfd`` module that holds it under some name, so calls through
``from qfd.numerics import exp_integral_e1_scaled`` in another module are
traced too.  Spans stay in memory until ``dump`` writes them once.

A layer's self time is the summed duration of its spans minus the part
covered by their direct child spans (``self_times``).  The tracer keeps
one span stack, so it assumes the traced program runs on one thread,
which qfd does while ``QFD_THREADS`` is unset.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import sys
import time
from array import array
from collections import defaultdict

import numpy as np

MODULES = (
    "qfd.numerics",
    "qfd.model",
    "qfd.coefficients",
    "qfd.dynamics",
    "qfd.decoherence",
    "qfd.cli",
)


def _size_of_first(counter):
    def count(counts, args, result):
        counts[counter] += np.size(args[0])

    return count


def _count_result_size(counter):
    def count(counts, args, result):
        counts[counter] += np.size(result)

    return count


def _count_quad(counts, args, result):
    counts["numerics.quad.evaluations"] += result.evaluations


def _count_table(counts, args, result):
    nodes = result.nodes.size
    counts["coefficients.kernel_table.nodes"] += nodes
    # nodes, weights, kc and ks: four float64 arrays per node, as computed
    counts["coefficients.kernel_table.bytes_computed"] += 4 * 8 * nodes


def _count_evolve(counts, args, result):
    counts["dynamics.evolve.points"] += result.t.size


def _count_write(counts, args, result):
    path, text = args
    counts["cli.bytes_out"] += (
        len(text.encode()) if path == "-" else os.path.getsize(path)
    )


def _count_root_callback(counts, args, kwargs):
    f = args[0]

    def counted(x):
        counts["numerics.root.f_evals"] += 1
        return f(x)

    return (counted,) + tuple(args[1:]), kwargs


# (module, attribute path, layer, counter after the call, argument hook)
LAYERS = (
    ("qfd.numerics", "exp_integral_e1_scaled", "numerics.e1",
     _size_of_first("numerics.e1.elements"), None),
    ("qfd.numerics", "exp_integral_e1", "numerics.e1_scalar", None, None),
    ("qfd.numerics", "integrate_adaptive", "numerics.quad", _count_quad, None),
    ("qfd.numerics", "cumulative_integral", "numerics.cumint",
     _size_of_first("numerics.cumint.elements"), None),
    ("qfd.numerics", "find_root_bracketed", "numerics.root", None,
     _count_root_callback),
    ("qfd.model", "kernel_P", "model.kernel_P",
     _size_of_first("model.kernel_P.elements"), None),
    ("qfd.model", "spectral_density", "model.spectral_density",
     _size_of_first("model.spectral_density.elements"), None),
    ("qfd.coefficients", "time_grid", "coefficients.time_grid",
     _count_result_size("coefficients.time_grid.points"), None),
    ("qfd.coefficients", "make_kernel_table", "coefficients.kernel_table",
     _count_table, None),
    ("qfd.coefficients", "omega_kernel_cos", "coefficients.kernel_cos", None, None),
    ("qfd.coefficients", "omega_kernel_sin", "coefficients.kernel_sin", None, None),
    ("qfd.coefficients", "coefficients_from_table", "coefficients.from_table",
     None, None),
    ("qfd.coefficients", "coefficients_brute", "coefficients.brute", None, None),
    ("qfd.coefficients", "markov_limit", "coefficients.markov", None, None),
    ("qfd.coefficients", "coefficients_analytic_small_u", "coefficients.analytic",
     None, None),
    ("qfd.coefficients", "CoefficientTrace.to_csv", "cli.format", None, None),
    ("qfd.dynamics", "evolve", "dynamics.evolve", _count_evolve, None),
    ("qfd.dynamics", "EvolutionResult.to_csv", "cli.format", None, None),
    ("qfd.decoherence", "tau_d_numeric", "decoherence.tau_numeric", None, None),
    ("qfd.decoherence", "decoherence_table", "decoherence.table", None, None),
    ("qfd.decoherence", "sweep_velocity", "decoherence.sweep", None, None),
    ("qfd.decoherence", "sweep_polarization", "decoherence.sweep", None, None),
    ("qfd.decoherence", "sweep_material_particle", "decoherence.sweep", None, None),
    ("qfd.decoherence", "sweep_level_spacing", "decoherence.sweep", None, None),
    ("qfd.decoherence", "quadratic_ratio_fit", "decoherence.sweep", None, None),
    ("qfd.decoherence", "sweep_rows_to_csv", "cli.format", None, None),
    ("qfd.cli", "_write_atomic", "cli.write", _count_write, None),
    ("qfd.cli", "cmd_coeffs", "cli.cmd", None, None),
    ("qfd.cli", "cmd_evolve", "cli.cmd", None, None),
    ("qfd.cli", "cmd_tdec", "cli.cmd", None, None),
    ("qfd.cli", "cmd_sweep", "cli.cmd", None, None),
    ("qfd.cli", "main", "cli.main", None, None),
)

class Tracer:
    """In-memory span recorder for one single-threaded process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.layers: list[str] = []
        self.layer_ids: dict[str, int] = {}
        self.layer = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, float] = defaultdict(float)
        self._stack = [-1]
        self._replaced: list[tuple[object, str, object]] = []

    def _layer_id(self, name: str) -> int:
        if name not in self.layer_ids:
            self.layer_ids[name] = len(self.layers)
            self.layers.append(name)
        return self.layer_ids[name]

    def wrap(self, fn, layer: str, count=None, prepare=None, failure=None):
        """Return fn wrapped in a span of the given layer."""
        lid = self._layer_id(layer)
        calls = layer + ".calls"
        failed = layer + ".failed"
        counts, stack, clock = self.counts, self._stack, self.clock
        spans_layer, spans_parent = self.layer, self.parent
        spans_start, spans_end = self.start, self.end

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if prepare is not None:
                args, kwargs = prepare(counts, args, kwargs)
            i = len(spans_start)
            spans_layer.append(lid)
            spans_parent.append(stack[-1])
            spans_end.append(0.0)
            stack.append(i)
            spans_start.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                if failure is not None and isinstance(exc, failure):
                    counts[failed] += 1
                raise
            finally:
                spans_end[i] = clock()
                stack.pop()
                counts[calls] += 1
            if count is not None:
                count(counts, args, result)
            return result

        return traced

    def install(self) -> int:
        """Wrap every function of LAYERS wherever qfd modules refer to it.

        A ConvergenceError from the quadrature counts as a failed
        operation and still propagates.  Returns the number of module or
        class attributes replaced.
        """
        for m in MODULES:
            importlib.import_module(m)
        mods = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "qfd"]
        convergence_error = importlib.import_module("qfd.errors").ConvergenceError
        for modname, path, layer, count, prepare in LAYERS:
            owner = importlib.import_module(modname)
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            failure = convergence_error if layer == "numerics.quad" else None
            wrapper = self.wrap(original, layer, count, prepare, failure)
            # a method lives on one class object, shared by all importers
            targets = [(owner, attr)] if cls_path else [
                (mod, name) for mod in mods
                for name, value in vars(mod).items() if value is original
            ]
            for target, name in targets:
                self._replaced.append((target, name, original))
                setattr(target, name, wrapper)
        return len(self._replaced)

    def uninstall(self) -> None:
        """Put back every attribute that install replaced."""
        for target, name, original in reversed(self._replaced):
            setattr(target, name, original)
        self._replaced.clear()

    def arrays(self) -> dict[str, np.ndarray]:
        return {
            "layer": np.frombuffer(self.layer, dtype=np.int32).copy(),
            "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
            "start": np.frombuffer(self.start, dtype=np.float64).copy(),
            "end": np.frombuffer(self.end, dtype=np.float64).copy(),
        }

    def dump(self, path: str) -> None:
        """Write all spans, layer names and counters to an .npz file."""
        np.savez(
            path,
            layers=np.array(json.dumps(self.layers)),
            counts=np.array(json.dumps(dict(self.counts))),
            **self.arrays(),
        )


def self_times(layer, parent, start, end, n_layers: int) -> np.ndarray:
    """Per-layer self time: span durations minus their direct children's."""
    dur = np.asarray(end) - np.asarray(start)
    parent = np.asarray(parent)
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=dur.size)
    return np.bincount(np.asarray(layer), weights=dur - child, minlength=n_layers)


def load(path: str) -> tuple[dict[str, float], dict[str, float], int]:
    """Read a span dump; return (self seconds per layer, counters, spans)."""
    with np.load(path) as z:
        layers = json.loads(str(z["layers"]))
        counts = json.loads(str(z["counts"]))
        selfs = self_times(z["layer"], z["parent"], z["start"], z["end"], len(layers))
        n = int(z["layer"].size)
    return {name: float(s) for name, s in zip(layers, selfs)}, counts, n


# Per-layer metrics reported by a traced run: (name, unit, source).  A
# source "self:<layer>" is the layer's self time, "count:<key>" a counter.
# Every one is above 0 on at least one workload of BENCHMARK.json.  The
# self time of decoherence.sweep, which only combo-sweep enters, is
# printed by run.py with every other layer's self time instead.
PER_LAYER = (
    ("numerics.e1.self_s", "s", "self:numerics.e1"),
    ("numerics.e1.calls", "count", "count:numerics.e1.calls"),
    ("numerics.e1.elements", "count", "count:numerics.e1.elements"),
    ("numerics.e1_scalar.self_s", "s", "self:numerics.e1_scalar"),
    ("numerics.e1_scalar.calls", "count", "count:numerics.e1_scalar.calls"),
    ("numerics.quad.self_s", "s", "self:numerics.quad"),
    ("numerics.quad.calls", "count", "count:numerics.quad.calls"),
    ("numerics.quad.evaluations", "count", "count:numerics.quad.evaluations"),
    ("numerics.cumint.self_s", "s", "self:numerics.cumint"),
    ("numerics.cumint.elements", "count", "count:numerics.cumint.elements"),
    ("numerics.root.self_s", "s", "self:numerics.root"),
    ("numerics.root.calls", "count", "count:numerics.root.calls"),
    ("numerics.root.f_evals", "count", "count:numerics.root.f_evals"),
    ("model.kernel_P.self_s", "s", "self:model.kernel_P"),
    ("model.kernel_P.elements", "count", "count:model.kernel_P.elements"),
    ("model.spectral_density.self_s", "s", "self:model.spectral_density"),
    ("model.spectral_density.elements", "count",
     "count:model.spectral_density.elements"),
    ("coefficients.time_grid.points", "count", "count:coefficients.time_grid.points"),
    ("coefficients.kernel_table.self_s", "s", "self:coefficients.kernel_table"),
    ("coefficients.kernel_table.nodes", "count", "count:coefficients.kernel_table.nodes"),
    ("coefficients.kernel_table.bytes_computed", "B",
     "count:coefficients.kernel_table.bytes_computed"),
    ("coefficients.kernel_cos.self_s", "s", "self:coefficients.kernel_cos"),
    ("coefficients.kernel_sin.self_s", "s", "self:coefficients.kernel_sin"),
    ("coefficients.from_table.self_s", "s", "self:coefficients.from_table"),
    ("coefficients.from_table.calls", "count", "count:coefficients.from_table.calls"),
    ("coefficients.brute.self_s", "s", "self:coefficients.brute"),
    ("coefficients.markov.self_s", "s", "self:coefficients.markov"),
    ("coefficients.analytic.self_s", "s", "self:coefficients.analytic"),
    ("dynamics.evolve.self_s", "s", "self:dynamics.evolve"),
    ("dynamics.evolve.points", "count", "count:dynamics.evolve.points"),
    ("decoherence.tau_numeric.self_s", "s", "self:decoherence.tau_numeric"),
    ("decoherence.tau_numeric.calls", "count", "count:decoherence.tau_numeric.calls"),
    ("decoherence.table.calls", "count", "count:decoherence.table.calls"),
    ("cli.format.self_s", "s", "self:cli.format"),
    ("cli.write.self_s", "s", "self:cli.write"),
    ("cli.bytes_out", "B", "count:cli.bytes_out"),
    ("cli.cmd.self_s", "s", "self:cli.cmd"),
)


UNITS = {name: unit for name, unit, _source in PER_LAYER}


def layer_metrics(selfs: dict[str, float], counts: dict[str, float]) -> dict[str, float]:
    """Map one traced run onto the PER_LAYER metric names."""
    out = {}
    for name, _unit, source in PER_LAYER:
        kind, key = source.split(":", 1)
        out[name] = float((selfs if kind == "self" else counts).get(key, 0.0))
    return out


def info(counts: dict[str, float]) -> dict[str, float]:
    """Figures of one traced run that are printed but are not metrics: on
    a correct program the first is 0, and the second is nan without a
    decoherence table."""
    tables = counts.get("decoherence.table.calls", 0.0)
    return {
        "numerics.quad.failed": counts.get("numerics.quad.failed", 0.0),
        "decoherence.tau_per_table": (
            counts.get("decoherence.tau_numeric.calls", 0.0) / tables if tables else math.nan
        ),
    }

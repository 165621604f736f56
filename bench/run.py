"""qfd benchmark: end-to-end and per-layer metrics of four CLI workloads.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is gold-tdec, combo-sweep, evolve-long or oracle (see NOTES.md), or
``all``, which interleaves every workload, S seconds each.  Each rep is
one fresh, single-threaded ``python3 -m qfd.cli`` process on the qfd
source next to this directory, started only after the previous one has
ended (a closed loop with one client).  Reps repeat, at least once,
while the next one is expected to end within S seconds, and every output
is checked (workloads.py).  Fresh interpreters importing qfd.cli, timed
between the reps, give setup_s.

--trace 0 reports the end-to-end metrics (medians over the reps).
--trace 1 alternates untraced and traced reps and reports the per-layer
metrics of the traced ones (tracing.py), plus the tracing overhead.
The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing
from workloads import WORKLOADS, read_ref, variant

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

# setup_s samples: this many at the start, after one untimed warm-up, and
# this many after every rep, so that they spread over the run.
SETUP_FIRST = 4
SETUP_PER_STEP = 1
BLAS_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB"))
PER_LAYER_UNITS = {**tracing.UNITS, "trace.wall_s": "s", "trace.spans": "count"}
# Layer groups whose share of the traced wall time shows which layer a
# workload stresses (NOTES.md).
GROUPS = {
    "tables (e1 + kernel_table)": ("numerics.e1", "coefficients.kernel_table"),
    "per-point (from_table + kernel_P + cumint)": (
        "coefficients.from_table", "model.kernel_P", "numerics.cumint"),
    "quadrature (quad + spectral_density + e1_scalar)": (
        "numerics.quad", "model.spectral_density", "numerics.e1_scalar"),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict[str, str]:
    """Environment of every child: qfd from SRC, QFD_THREADS unset and
    BLAS threads capped at nproc."""
    env = {k: v for k, v in os.environ.items() if k not in ("QFD_THREADS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    n = nproc()
    for var in BLAS_VARS:
        try:
            cur = int(env.get(var, n))
        except ValueError:
            cur = n
        env[var] = str(max(1, min(cur, n)))
    return env


class Launcher:
    """Client of launcher.py, which starts and times the measured children.

    Children start on the CPUs this process may use in turn (``slot``
    counts the children of one kind) and may use every CPU after that.
    Left to the scheduler, a child tends to run on the CPU of the one
    before it, so all reps of a run could land on the slower CPU of a
    shared host; taking turns spreads every run over all of them alike
    (NOTES.md).
    """

    cpus = sorted(os.sched_getaffinity(0))

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()  # the launcher exits at the end of its input
        self.proc.wait()

    def run(self, argv: list[str], env: dict[str, str], cwd: Path, slot: int) -> dict:
        """Run argv to completion: wall_s, cpu_s (user + sys), peak_rss_mb, code."""
        cpu = self.cpus[slot % len(self.cpus)]
        request = {"argv": argv, "cwd": str(cwd), "env": env, "cpu": cpu}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise SystemExit("bench: the launcher process ended unexpectedly")
        return json.loads(reply)


def measure_setup(
    launcher: Launcher, env: dict[str, str], cwd: Path, n: int, first_slot: int
) -> list[float]:
    """Wall times of n fresh interpreters importing qfd.cli."""
    argv = [sys.executable, "-c", "import qfd.cli"]
    samples = []
    for slot in range(first_slot, first_slot + n):
        res = launcher.run(argv, env, cwd, slot)
        if res["code"] != 0:
            err = (cwd / "stderr.txt").read_text(errors="replace").strip()
            raise SystemExit(f"bench: 'import qfd.cli' failed with exit {res['code']}: {err}")
        samples.append(res["wall_s"])
    return samples


@dataclass
class Rep:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    code: int
    problems: list[str]
    digest: str
    layers: dict[str, float] = field(default_factory=dict)
    info: dict[str, float] = field(default_factory=dict)
    selfs: dict[str, float] = field(default_factory=dict)
    spans: int = 0

    @property
    def ok(self) -> bool:
        return self.code == 0 and not self.problems


class Session:
    """Reps of one workload for one seed, in a private directory."""

    def __init__(
        self, name: str, seed: int, trace: bool, launcher: Launcher,
        env: dict[str, str], workdir: Path,
    ):
        self.w = WORKLOADS[name]
        self.launcher = launcher
        self.seed = seed
        self.trace = trace
        self.env = env
        self.dir = workdir / name
        self.dir.mkdir()
        self.plain: list[Rep] = []
        self.traced: list[Rep] = []
        self.elapsed = 0.0  # seconds spent in steps, setup probes included
        self.last_step = 0.0

    def fits(self, seconds: float) -> bool:
        """Whether another step is due: the first, or one that is expected
        to end within the run's seconds."""
        return not self.plain or self.elapsed + self.last_step <= seconds

    def step(self) -> None:
        """One untraced rep, followed by one traced rep in trace mode."""
        plain = self._rep(traced=False)
        self.plain.append(plain)
        if self.trace:
            rep = self._rep(traced=True)
            if rep.code == 0 and rep.digest != plain.digest:
                rep.problems.append("traced output is not byte-identical to the untraced output")
            self.traced.append(rep)

    def _rep(self, traced: bool) -> Rep:
        out = self.dir / self.w.out_name
        spans = self.dir / "spans.npz"
        runner = [str(HERE / "traced_qfd.py"), str(spans)] if traced else ["-m", "qfd.cli"]
        argv = [sys.executable, *runner, *self.w.args(self.seed), "--out", str(out)]
        slot = len(self.traced if traced else self.plain)
        rep = Rep(**self.launcher.run(argv, self.env, self.dir, slot), problems=[], digest="")
        if rep.code != 0:
            err = (self.dir / "stderr.txt").read_text(errors="replace").strip()
            rep.problems.append(f"exit code {rep.code}: {err[-300:]}")
            return rep
        data = out.read_bytes()
        out.unlink()
        rep.digest = hashlib.sha256(data).hexdigest()
        try:
            rep.problems = self.w.verify(data.decode(), self.seed)
        except (ValueError, KeyError, IndexError) as exc:
            rep.problems = [f"unreadable output: {exc!r}"]
        if traced:
            rep.selfs, counts, rep.spans = tracing.load(str(spans))
            spans.unlink()
            rep.layers = tracing.layer_metrics(rep.selfs, counts)
            rep.info = tracing.info(counts)
        return rep

    @property
    def reps(self) -> list[Rep]:
        return self.plain + self.traced

    def per_layer(self) -> dict[str, float]:
        out = {
            name: statistics.median(r.layers.get(name, 0.0) for r in self.traced)
            for name in tracing.UNITS
        }
        traced_wall = statistics.median(r.wall_s for r in self.traced)
        out["trace.wall_s"] = traced_wall
        out["trace.spans"] = float(statistics.median(r.spans for r in self.traced))
        return out

    def info(self) -> dict[str, float]:
        """Median traced figures that are printed but are not metrics."""
        done = [r for r in self.traced if r.info]  # failed reps have none
        return {
            name: statistics.median(r.info[name] for r in done)
            for name in (done[0].info if done else ())
        }

    def self_times(self) -> dict[str, float]:
        """Median self time of every layer, including the unreported ones."""
        names = {name for r in self.traced for name in r.selfs}
        return {
            name: statistics.median(r.selfs.get(name, 0.0) for r in self.traced)
            for name in names
        }


def machine_facts() -> dict[str, object]:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in f if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg": os.getloadavg(),
    }


def report(sessions: list[Session], setup: list[float], facts: dict, trace: bool) -> dict:
    """Print the human-readable summary; return the final JSON object."""
    env = sessions[0].env
    print(
        f"machine: nproc={facts['nproc']} cpu={facts['cpu']!r} python={facts['python']} "
        f"numpy={facts['numpy']} loadavg before={facts['loadavg']} after={os.getloadavg()}"
    )
    print("threads: " + " ".join(f"{v}={env[v]}" for v in BLAS_VARS) + " QFD_THREADS=unset")
    print(f"setup_s: median {statistics.median(setup):.4f} s over n={len(setup)} "
          f"(fresh interpreter, import qfd.cli)")
    multi = len(sessions) > 1
    metrics = {} if trace else {"setup_s": (statistics.median(setup), "s")}
    for s in sessions:
        prefix = f"{s.w.name}." if multi else ""
        failed = sum(not r.ok for r in s.reps)
        print(f"{s.w.name} seed={s.seed} fail_frac={failed}/{len(s.reps)}")
        for r in s.reps:
            for p in r.problems:
                print(f"  FAILED: {p}")
        if variant(s.seed) == 0 and s.plain[0].code == 0:
            ref = hashlib.sha256(read_ref(s.w.ref_name).encode()).hexdigest()
            same = all(r.digest == ref for r in s.reps)
            print(f"  byte-identical to the reference (information, not a gate): {same}")
        if not trace:
            for name, unit in END_TO_END:
                values = [getattr(r, name) for r in s.plain]
                metrics[prefix + name] = (statistics.median(values), unit)
                print(f"  {name}: median {statistics.median(values):.4f} {unit} "
                      f"n={len(values)} values={[round(v, 4) for v in values]}")
            continue
        layers = s.per_layer()
        wall = layers["trace.wall_s"]
        overhead = wall - statistics.median(r.wall_s for r in s.plain)
        print(f"  traced wall {wall:.3f} s, overhead {overhead:+.3f} s "
              f"over n={len(s.traced)} traced reps, {int(layers['trace.spans'])} spans")
        for name, value in s.info().items():
            print(f"  {name}: {value:g}")
        selfs = s.self_times()
        for label, names in GROUPS.items():
            share = sum(selfs.get(n, 0.0) for n in names) / wall
            print(f"  share of traced wall, {label}: {100 * share:.1f} %")
        busy = [n for n in selfs if selfs[n] > 0]
        for name in sorted(busy, key=selfs.get, reverse=True):
            print(f"  self time {name}: {selfs[name]:.4f} s ({100 * selfs[name] / wall:.1f} %)")
        metrics.update({prefix + k: (v, PER_LAYER_UNITS[k]) for k, v in layers.items()})
    attempted = sum(len(s.reps) for s in sessions)
    failed = sum(not r.ok for s in sessions for r in s.reps)
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "qfd" / "cli.py").is_file():
        print(f"bench: no qfd source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    facts = machine_facts()
    env = child_env()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=WORK, prefix="run-"))
    try:
        with Launcher() as launcher:
            # one untimed import first fills the bytecode and file caches
            setup = measure_setup(launcher, env, workdir, SETUP_FIRST + 1, 0)[1:]
            names = list(WORKLOADS) if args.workload == "all" else [args.workload]
            sessions = [
                Session(n, args.seed, bool(args.trace), launcher, env, workdir)
                for n in names
            ]
            # round-robin, so that drift of a shared machine spreads over all workloads
            while pending := [s for s in sessions if s.fits(args.seconds)]:
                for s in pending:
                    t0 = time.perf_counter()
                    s.step()
                    setup += measure_setup(
                        launcher, env, workdir, SETUP_PER_STEP, len(setup) + 1)
                    s.last_step = time.perf_counter() - t0
                    s.elapsed += s.last_step
        result = report(sessions, setup, facts, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

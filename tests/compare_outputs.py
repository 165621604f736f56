"""Compare what two qfd source trees write, byte for byte.

    python tests/compare_outputs.py PARENT_SRC CHANGE_SRC [--case NAME ...]

Runs every make_golden.CASES entry and the EXTRA commands below as
``python -m qfd.cli ... --out NAME``, once with PYTHONPATH set to each
tree, each run in a fresh directory, and reports every difference in
the files written, stdout, stderr and the exit code.  Exits 1 if there
is any, else 0.  --case picks cases by name; by default all run.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

from make_golden import CASES

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
from workloads import WORKLOADS  # noqa: E402

AT_U = ["--u", "0.003"]

# output file name -> arguments, beside the golden cases
EXTRA = {
    # the benchmark workloads' variant-0 commands, named after their references
    **{w.ref_name.removesuffix(".gz"): w.args(0) for w in WORKLOADS.values()},
    # tdec on the presets the golden cases (nv-nsi) leave out, by every method;
    # nv-au analytic is refused (exit 2)
    **{f"tdec-{name}-{method}.json": ["tdec", "--preset", name, *AT_U, "--method", method]
       for name in ("nv-au", "rb-nsi", "rb-au")
       for method in ("numeric", "markov", "analytic")},
    "tdec-gamma3.json": ["tdec", "--preset", "nv-nsi", *AT_U, "--gamma", "3"],
    # nothing to read at zero coupling (exit 3)
    "tdec-r0-0.json": ["tdec", "--preset", "nv-nsi", *AT_U, "--r0", "0"],
    # too few velocities for the fit (exit 2)
    "sweep-u-3.csv": ["sweep", "--param", "u", "--from", "0.001", "--to", "0.03",
                      "--points", "3", "--preset", "nv-nsi"],
    "coeffs-e1.csv": ["coeffs", "--preset", "nv-nsi", *AT_U, "--method", "e1",
                      "--cycles", "6"],
    "coeffs-analytic.csv": ["coeffs", "--preset", "nv-nsi", *AT_U, "--method", "analytic",
                            "--cycles", "1"],
}

COMMANDS = {name: [*args, "--out", name] for name, args in {**CASES, **EXTRA}.items()}


def start(src: Path, argv: list[str], directory: str) -> subprocess.Popen:
    env = {**os.environ, "PYTHONPATH": str(src)}
    return subprocess.Popen([sys.executable, "-m", "qfd.cli", *argv], cwd=directory, env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)


def outcome(proc: subprocess.Popen, src: Path, directory: str) -> dict[str, object]:
    """Exit code, stdout, stderr (with the tree's path as SRC) and every
    file the run left in its directory."""
    out, err = proc.communicate()
    found = {"exit code": proc.returncode, "stdout": out,
             "stderr": err.replace(str(src).encode(), b"SRC")}
    found |= {f"file {p.name}": p.read_bytes() for p in sorted(Path(directory).iterdir())}
    return found


def compare(parent: Path, change: Path, argv: list[str]) -> list[str]:
    """Run argv on both trees at once; the differences between the two."""
    with (tempfile.TemporaryDirectory() as a, tempfile.TemporaryDirectory() as b,
          start(parent, argv, a) as on_parent, start(change, argv, b) as on_change):
        left, right = outcome(on_parent, parent, a), outcome(on_change, change, b)
    problems = []
    for key in sorted(left.keys() | right.keys()):
        if key not in right or key not in left:
            problems.append(f"{key} written by the {'parent' if key in left else 'change'} only")
        elif left[key] != right[key]:
            shown = (f": {left[key]} != {right[key]}" if key == "exit code"
                     else first_difference(left[key], right[key]))
            problems.append(f"{key} differs{shown}")
    return problems


def first_difference(a: bytes, b: bytes) -> str:
    """Where two outputs first differ: the line number and both lines."""
    lines_a, lines_b = a.splitlines(), b.splitlines()
    i = next((i for i, (x, y) in enumerate(zip(lines_a, lines_b)) if x != y),
             min(len(lines_a), len(lines_b)))

    def line(lines: list[bytes]) -> str:
        return repr(lines[i][:120].decode(errors="replace")) if i < len(lines) else "<end>"

    return f" at line {i + 1}: {line(lines_a)} != {line(lines_b)}"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="the parent's src directory")
    ap.add_argument("change", type=Path, help="the change's src directory")
    ap.add_argument("--case", action="append", choices=sorted(COMMANDS),
                    help="run only this case (repeatable)")
    args = ap.parse_args(argv)
    names = args.case or list(COMMANDS)
    differing = 0
    for name in names:
        problems = compare(args.parent.resolve(), args.change.resolve(), COMMANDS[name])
        differing += bool(problems)
        print(f"{'DIFF' if problems else 'same'} {name}", flush=True)
        for problem in problems:
            print(f"    {problem}", flush=True)
    print(f"{differing} of {len(names)} cases differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

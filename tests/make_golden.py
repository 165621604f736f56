"""Write the golden outputs that tests/test_golden.py compares against.

    PYTHONPATH=src python tests/make_golden.py

Each case runs `qfd` in a fresh directory and stores every file it
writes, gzipped, as tests/golden/<file>.gz.  Regenerate them only for a
change that is meant to alter qfd's results, and state the largest move
per column with that change.
"""

import gzip
import sys
import tempfile
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"

NV_NSI = ["--preset", "nv-nsi", "--u", "0.003"]

# output file name -> arguments of the run that writes it
CASES = {
    "tdec-numeric.json": ["tdec", *NV_NSI, "--method", "numeric"],
    "tdec-markov.json": ["tdec", *NV_NSI, "--method", "markov"],
    "tdec-analytic.json": ["tdec", *NV_NSI, "--method", "analytic"],
    # also writes its fit, sweep-u.csv.fit.json
    "sweep-u.csv": ["sweep", "--param", "u", "--from", "0.001", "--to", "0.03",
                    "--points", "8", "--preset", "nv-nsi"],
    "sweep-phi.csv": ["sweep", "--param", "phi", "--from", "0", "--to", "6.28318",
                      "--points", "25", "--theta", "90deg", "--preset", "nv-nsi",
                      "--u", "0.3"],
    "sweep-delta.csv": ["sweep", "--param", "delta", "--from", "0.05", "--to", "0.5",
                        "--points", "10", *NV_NSI],
    "sweep-combos.csv": ["sweep", "--param", "phi", "--from", "0", "--to", "6.28318",
                         "--points", "5", "--combos", "nv-nsi,rb-nsi", "--preset", "nv-nsi"],
    # also writes its fit, sweep-u-markov.csv.fit.json
    "sweep-u-markov.csv": ["sweep", "--param", "u", "--from", "0.001", "--to", "0.03",
                           "--points", "8", "--preset", "nv-nsi", "--method", "markov"],
    "sweep-phi-markov.csv": ["sweep", "--param", "phi", "--from", "0", "--to", "6.28318",
                             "--points", "25", "--theta", "90deg", "--preset", "nv-nsi",
                             "--u", "0.3", "--method", "markov"],
    "sweep-delta-analytic.csv": ["sweep", "--param", "delta", "--from", "1.2", "--to", "4",
                                 "--points", "29", *NV_NSI, "--method", "analytic"],
    "evolve.csv": ["evolve", "--preset", "nv-nsi", "--u", "0.3", "--cycles", "10"],
    "coeffs-gamma2.csv": ["coeffs", *NV_NSI, "--gamma", "2", "--method", "e1",
                          "--cycles", "1"],
    "coeffs-gamma3.csv": ["coeffs", *NV_NSI, "--gamma", "3", "--method", "e1",
                          "--cycles", "1"],
}


def run_case(name: str, directory: Path) -> dict[str, bytes]:
    """Every file the case writes into an empty directory, by name."""
    from qfd.cli import main  # compare_outputs.py reads CASES without qfd

    if main([*CASES[name], "--out", str(directory / name)]) != 0:
        raise RuntimeError(f"qfd {' '.join(CASES[name])} failed")
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


def main_golden() -> int:
    GOLDEN.mkdir(exist_ok=True)
    for name in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            for file, data in run_case(name, Path(tmp)).items():
                (GOLDEN / f"{file}.gz").write_bytes(gzip.compress(data, mtime=0))
                print(GOLDEN / f"{file}.gz", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main_golden())

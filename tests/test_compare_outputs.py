"""tests/compare_outputs.py finds no difference between the package and
an unchanged copy of it, and reports one once a default that shapes the
output moves."""

import shutil
import subprocess
import sys
from pathlib import Path

import qfd

SRC = Path(qfd.__file__).resolve().parent.parent
SCRIPT = Path(__file__).resolve().parent / "compare_outputs.py"
# a run without a grid and one on the default grid density
CASES = ["--case", "tdec-analytic.json", "--case", "coeffs-gamma2.csv"]


def compare_with_copy(tmp_path, old="", new=""):
    """compare_outputs.py on SRC against a copy of it, with old replaced
    by new in qfd/coefficients.py."""
    copy = tmp_path / "src"
    shutil.copytree(SRC / "qfd", copy / "qfd", ignore=shutil.ignore_patterns("__pycache__"))
    coefficients = copy / "qfd" / "coefficients.py"
    text = coefficients.read_text()
    assert old in text
    coefficients.write_text(text.replace(old, new))
    return subprocess.run([sys.executable, str(SCRIPT), str(SRC), str(copy), *CASES],
                          capture_output=True, text=True)


def test_unchanged_copy_reports_no_difference(tmp_path):
    res = compare_with_copy(tmp_path)
    assert res.returncode == 0, res.stdout + res.stderr
    assert res.stdout.splitlines() == ["same tdec-analytic.json", "same coeffs-gamma2.csv",
                                       "0 of 2 cases differ"]


def test_moved_grid_density_reports_differences(tmp_path):
    res = compare_with_copy(tmp_path, "DEFAULT_PTS_PER_CYCLE = 400",
                            "DEFAULT_PTS_PER_CYCLE = 401")
    assert res.returncode == 1, res.stdout + res.stderr
    lines = res.stdout.splitlines()
    assert lines[0] == "same tdec-analytic.json" and lines[1] == "DIFF coeffs-gamma2.csv"
    assert any(line.strip().startswith("file coeffs-gamma2.csv differs at line") for line in lines)
    assert lines[-1] == "1 of 2 cases differ"

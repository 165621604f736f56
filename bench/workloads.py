"""The benchmark workloads: qfd arguments for a seed, and the output check.

qfd has no randomness, so a seed picks one of ``VARIANTS`` input sets:
seed s runs variant s mod VARIANTS.  Variant 0 (seed 0) is the fixed
inputs below.  Variant k > 0 shifts the velocity up by k/VARIANTS % and
the phi grid by a small offset, which leaves the work per run unchanged.
Every variant's output is compared with its reference in ``refs/``,
written by ``make_refs.py``; variants other than 0 are also checked by
reference-free invariants.  Why each workload is in the set is in
NOTES.md.
"""

from __future__ import annotations

import functools
import gzip
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks

REFS = Path(__file__).resolve().parent / "refs"

VARIANTS = 8
U_SHIFT = 0.01
PHI_SHIFT = 0.01
COMBOS = ("nv-nsi", "rb-nsi")
PHI_POINTS = 100
# References of variants other than 0 keep every EVOLVE_STRIDE-th row of
# the 34 k-row evolve-long output; the invariants check every row.
EVOLVE_STRIDE = 32


def variant(seed: int) -> int:
    return seed % VARIANTS


def jitter(seed: int) -> float:
    """The variant's fraction in [0, 1): 0 for variant 0."""
    return variant(seed) / VARIANTS


def shifted_u(u0: float, seed: int) -> float:
    return u0 * (1.0 + U_SHIFT * jitter(seed))


def phi_range(seed: int) -> tuple[float, float]:
    """Variant 0: the README range.  Otherwise [o, 2 pi - o], whose
    points pair up as phi and 2 pi - phi for the mirror check."""
    if variant(seed) == 0:
        return 0.0, 6.28318
    offset = PHI_SHIFT * (0.5 + jitter(seed))
    return offset, 2.0 * math.pi - offset


def stride_rows(text: str, stride: int) -> str:
    """The CSV header and every stride-th data row, from the first."""
    header, *rows = text.splitlines()
    return "\n".join([header, *rows[::stride]]) + "\n"


@functools.cache
def read_ref(name: str) -> str:
    path = REFS / name
    data = path.read_bytes()
    return (gzip.decompress(data) if path.suffix == ".gz" else data).decode()


def _num(x: float) -> str:
    return f"{x:.17g}"


@dataclass(frozen=True)
class Workload:
    name: str
    out_name: str
    ref_name: str  # the variant-0 reference; variant k adds "-k" and ".gz"
    args: Callable[[int], list[str]]  # qfd arguments for a seed, without --out
    compare: Callable[[str, str], list[str]]  # (output, reference) -> problems
    invariants: Callable[[str, int], list[str]]  # (output, seed) -> problems
    stride: int = 1  # rows kept in the references of variants other than 0

    def ref_file(self, seed: int) -> str:
        k = variant(seed)
        if k == 0:
            return self.ref_name
        stem, ext = self.ref_name.removesuffix(".gz").split(".")
        return f"{stem}-{k}.{ext}.gz"

    def ref_text(self, text: str, seed: int) -> str:
        """The part of an output that the seed's reference stores."""
        if variant(seed) == 0 or self.stride == 1:
            return text
        return stride_rows(text, self.stride)

    def verify(self, text: str, seed: int) -> list[str]:
        problems = self.compare(self.ref_text(text, seed), read_ref(self.ref_file(seed)))
        if variant(seed):
            problems += self.invariants(text, seed)
        return problems


@functools.cache
def _ref_column(ref_name: str, column: str) -> np.ndarray:
    return checks.read_csv(read_ref(ref_name))[1][column]


def _gold_args(seed: int) -> list[str]:
    u = shifted_u(1.5e-4, seed)
    # three times gold's damping: a table a third the size, so that a
    # 42 s run holds enough reps for a steady median (NOTES.md)
    return ["tdec", "--preset", "rb-au", "--gamma", "0.009", "--u", _num(u),
            "--method", "numeric"]


def _combo_args(seed: int) -> list[str]:
    lo, hi = phi_range(seed)
    # --preset is ignored on the combo path but required (NOTES.md, known failure 1)
    return ["sweep", "--param", "phi", "--from", _num(lo), "--to", _num(hi),
            "--points", str(PHI_POINTS), "--combos", ",".join(COMBOS),
            "--preset", "nv-nsi"]


def _evolve_args(seed: int) -> list[str]:
    u = shifted_u(0.3, seed)
    return ["evolve", "--preset", "nv-nsi", "--u", _num(u), "--cycles", "2000"]


def _oracle_args(seed: int) -> list[str]:
    u = shifted_u(0.003, seed)
    # 0.1 cycles: ~2.5 s reps, so that a 42 s run holds 11 or more (NOTES.md)
    return ["coeffs", "--preset", "nv-nsi", "--u", _num(u), "--cycles", "0.1",
            "--method", "all"]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "gold-tdec", "tdec.json", "gold-tdec.json", _gold_args,
            checks.compare_tdec,
            lambda text, seed: checks.check_tdec(text, shifted_u(1.5e-4, seed)),
        ),
        Workload(
            "combo-sweep", "materials.csv", "combo-sweep.csv", _combo_args,
            checks.compare_sweep,
            lambda text, seed: checks.check_sweep(
                text, np.linspace(*phi_range(seed), PHI_POINTS), len(COMBOS)
            ),
        ),
        Workload(
            "evolve-long", "evolution.csv", "evolve-long.csv.gz", _evolve_args,
            checks.compare_evolve,
            lambda text, seed: checks.check_evolve(
                text, _ref_column("evolve-long.csv.gz", "t")
            ),
            stride=EVOLVE_STRIDE,
        ),
        Workload(
            "oracle", "coeffs.csv", "oracle.csv", _oracle_args,
            checks.compare_coeffs,
            lambda text, seed: checks.check_coeffs(text, _ref_column("oracle.csv", "t")),
        ),
    )
}

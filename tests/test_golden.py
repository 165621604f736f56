"""Figure-level outputs match the golden files of tests/golden/
(make_golden.py): text cells exactly, numbers within 1e-12 of their
column's largest magnitude.

A tolerance rather than a hash, since numpy's SIMD sin, cos and exp may
differ in the last bit across CPUs; floored at the column's scale so
that values near a zero crossing compare.
"""

import csv
import gzip
import io
import json

import numpy as np
import pytest

from make_golden import CASES, GOLDEN, run_case

REL_TOL = 1e-12


def _json_leaves(value, path="") -> dict[str, list]:
    """Every leaf of a JSON document by its key path; numbers stay
    numbers, any other leaf becomes its JSON text."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        number = isinstance(value, (int, float)) and not isinstance(value, bool)
        return {path: [value if number else json.dumps(value)]}
    return {k: v for key, item in items for k, v in _json_leaves(item, f"{path}/{key}").items()}


def columns(file: str, data: bytes) -> dict[str, list]:
    """The cells of an output file by column: a CSV column by its
    header name, a JSON leaf as a column of one cell."""
    if file.endswith(".json"):
        return _json_leaves(json.loads(data))
    header, *rows = csv.reader(io.StringIO(data.decode()))
    assert all(len(row) == len(header) for row in rows), f"{file}: ragged rows"
    return {name: [row[i] for row in rows] for i, name in enumerate(header)}


def _numbers(cells: list) -> np.ndarray | None:
    try:
        return np.array([float(c) for c in cells])
    except ValueError:
        return None


def assert_same_column(got: list, ref: list, where: str) -> None:
    assert len(got) == len(ref), f"{where}: {len(got)} cells, golden has {len(ref)}"
    ref_num = _numbers(ref)
    if ref_num is None:
        assert got == ref, where
        return
    got_num = _numbers(got)
    assert got_num is not None, f"{where}: text where the golden file has numbers"
    scale = np.max(np.abs(ref_num[np.isfinite(ref_num)]), initial=0.0)
    np.testing.assert_allclose(
        got_num, ref_num, rtol=0.0, atol=REL_TOL * scale, equal_nan=True, err_msg=where
    )


@pytest.mark.parametrize("name", CASES)
def test_output_matches_golden(name, tmp_path):
    written = run_case(name, tmp_path)
    golden = {p.name[: -len(".gz")]: gzip.decompress(p.read_bytes())
              for p in GOLDEN.glob(f"{name}*.gz")}
    assert sorted(written) == sorted(golden)
    for file, data in written.items():
        got, ref = columns(file, data), columns(file, golden[file])
        assert list(got) == list(ref), f"{file}: columns differ"
        for column in ref:
            assert_same_column(got[column], ref[column], f"{file}: {column}")

"""Property test: one corruption of a valid CSV either loads the same data
or raises a DataError that names the file and a line."""

import csv
import io
import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from alssnn.dataio import Dataset, load_csv, save_csv  # noqa: E402
from alssnn.errors import DataError  # noqa: E402

N, M, P = 6, 2, 1
WIDTH = 1 + M + P

CELL_TEXT = st.one_of(
    st.text(max_size=12),
    st.sampled_from(["", " ", ",", '"', '""', "\n", "\r\n", "nan", "-inf", "1e999",
                     "1,2", '"1"', '"1\n"', "0x10", "1_0", "0.25", "t", "u1"]),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
)

# (kind, line index, cell index, text); each kind picks what it needs
CORRUPTION = st.one_of(
    st.tuples(st.just("replace"), st.integers(0, N), st.integers(0, WIDTH - 1), CELL_TEXT),
    st.tuples(st.just("delete"), st.integers(0, N), st.integers(0, WIDTH - 1), st.just("")),
    st.tuples(st.just("blank"), st.integers(0, N + 1), st.just(0), st.just("")),
    st.tuples(st.just("move_time"), st.integers(1, N), st.integers(1, N), st.just("")),
)


def base_lines(tmp_path):
    rng = np.random.default_rng(7)
    path = tmp_path / "clean.csv"
    save_csv(Dataset(rng.normal(size=(N, M)), rng.normal(size=(N, P)), dt=0.25), path)
    text = path.read_bytes().decode("utf-8")
    return path, [line.split(",") for line in text.split("\r\n")[:-1]]


def as_cell(text):
    """The float a csv reader makes of `text` alone as one cell, else None."""
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if len(rows) == 1 and len(rows[0]) == 1:
            return float(rows[0][0])
    except (csv.Error, ValueError):
        pass
    return None


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(corruption=CORRUPTION)
def test_corrupted_csv_loads_same_data_or_names_a_line(tmp_path, corruption):
    clean, rows = base_lines(tmp_path)
    ref = load_csv(clean)
    u, y = ref.u.copy(), ref.y.copy()
    kind, i, j, text = corruption
    lines = [",".join(r) for r in rows]
    if kind == "replace":
        rows[i][j] = text
        lines[i] = ",".join(rows[i])
        value = as_cell(text)
        if i > 0 and 0 < j <= M and value is not None:
            u[i - 1, j - 1] = value
        elif i > 0 and j > M and value is not None:
            y[i - 1, j - 1 - M] = value
    elif kind == "delete":
        del rows[i][j]
        lines[i] = ",".join(rows[i])
    elif kind == "blank":
        lines.insert(i, "")
    else:
        ti, tj = rows[i][0], rows[j][0]
        lines[i] = ",".join([tj] + rows[i][1:])
        lines[j] = ",".join([ti] + rows[j][1:])
    content = "\r\n".join(lines) + "\r\n"
    path = tmp_path / "corrupt.csv"
    path.write_bytes(content.encode("utf-8"))

    try:
        ds = load_csv(path)
    except DataError as exc:
        msg = str(exc)
        found = re.search(r"\bline (\d+)\b", msg)
        assert msg.startswith(f"{path}: ") and found, msg
        assert 1 <= int(found.group(1)) <= len(content.splitlines()) + 1, msg
        return
    assert np.array_equal(ds.u, u) and np.array_equal(ds.y, y)
    assert math.isclose(ds.dt, ref.dt, rel_tol=1e-6)

"""Property tests: one corruption of a valid CSV either loads the same data
or raises a DataError that names the file and a line; and the bulk reader
gives the answer of a per-row reference reader, bit for bit or message for
message."""

import csv
import io
import math
import re

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from alssnn.dataio import (_NON_NUMBER_CHARS, Dataset, _is_plain,  # noqa: E402
                           _parse_header, load_csv, save_csv)
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


def _is_number(cell):
    """True if the cell is plain ASCII and float() takes it."""
    if not _is_plain(cell):
        return False
    try:
        float(cell)
        return True
    except ValueError:
        return False


def reference_load(path):
    """load_csv as a per-row loop, the reader before the bulk pass: (u, y, dt)
    of a valid file, else the DataError of its first bad line."""
    with open(path, "r", newline="", encoding="utf-8-sig") as fh:
        text = fh.read()
    start = text.find("\n") + 1
    suspect = not text.isascii() or any(text.find(c, start) >= 0 for c in _NON_NUMBER_CHARS)
    reader = csv.reader(io.StringIO(text, newline=""))
    t_vals, linenos, u_rows, y_rows = [], [], [], []
    try:
        header = next(reader, None)
        if header is None:
            raise DataError(f"{path}: empty file")
        m, p = _parse_header([h.strip() for h in header], path)
        for row in reader:
            lineno = reader.line_num
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 1 + m + p:
                raise DataError(f"{path}: line {lineno}: expected {1 + m + p} cells, "
                                f"got {len(row)}")
            try:
                if suspect and not all(map(_is_plain, row)):
                    raise ValueError
                vals = [float(c) for c in row]
            except ValueError:
                bad = next(c for c in row if not _is_number(c))
                raise DataError(f"{path}: line {lineno}: non-numeric cell {bad!r}") from None
            if not all(map(math.isfinite, vals)):
                bad = next(c for c, v in zip(row, vals) if not math.isfinite(v))
                raise DataError(f"{path}: line {lineno}: non-finite cell {bad!r}")
            t_vals.append(vals[0])
            linenos.append(lineno)
            u_rows.append(vals[1 : 1 + m])
            y_rows.append(vals[1 + m :])
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(t_vals) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(t_vals)}")
    dt = t_vals[1] - t_vals[0]
    if not (math.isfinite(dt) and dt > 0):
        raise DataError(f"{path}: line {linenos[1]}: non-increasing time column (dt={dt})")
    t = np.array(t_vals)
    k = np.arange(t.size)
    grid = t[0] + k * dt
    off = ~(np.abs(t - grid) <= 1e-9 * (abs(t[0]) + k * dt))
    if np.any(off):
        i = int(np.argmax(off))
        raise DataError(
            f"{path}: line {linenos[i]}: time {float(t[i])!r} is off the uniform "
            f"grid t0 + k*dt = {float(grid[i])!r} (dt={dt!r} from the first two rows)")
    return np.array(u_rows), np.array(y_rows), dt


def outcome(load, path):
    """("ok", u bytes, y bytes, shapes, dt) or ("error", message)."""
    try:
        u, y, dt = load(path)
    except DataError as exc:
        return "error", str(exc)
    return "ok", u.tobytes(), y.tobytes(), u.shape, y.shape, dt


def bulk_load(path):
    ds = load_csv(path)
    return ds.u, ds.y, ds.dt


def corrupt(lines, rows, corruption):
    """Apply one CORRUPTION to the file's lines, in place; rows are the
    lines' cells. A cell index past a shortened row names its last cell."""
    kind, i, j, text = corruption
    j = min(j, len(rows[i]) - 1) if kind in ("replace", "delete") else j
    if kind == "replace":
        rows[i][j] = text
        lines[i] = ",".join(rows[i])
    elif kind == "delete":
        del rows[i][j]
        lines[i] = ",".join(rows[i])
    elif kind == "blank":
        lines.insert(i, "")
    else:
        ti, tj = rows[i][0], rows[j][0]
        rows[i][0], rows[j][0] = tj, ti
        lines[i], lines[j] = ",".join(rows[i]), ",".join(rows[j])


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(pair=st.tuples(CORRUPTION, CORRUPTION).filter(lambda c: c[0][0] != c[1][0]))
def test_two_corruptions_of_different_kinds_match_the_row_reader(tmp_path, pair):
    # the bulk reader returns the per-row reader's arrays bit for bit, or
    # raises its exact message: the first bad line in file order, ahead of
    # the time column's rules, which need every row
    _, rows = base_lines(tmp_path)
    lines = [",".join(r) for r in rows]
    for corruption in sorted(pair, key=lambda c: c[0] == "blank"):   # indices name clean lines
        corrupt(lines, rows, corruption)
    path = tmp_path / "corrupt2.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    assert outcome(bulk_load, path) == outcome(reference_load, path)


@pytest.mark.parametrize("bad_line, huge_line", [(3, 5), (5, 3)])
def test_a_csv_error_and_a_bad_row_are_cited_in_file_order(tmp_path, bad_line, huge_line):
    # a cell past the csv module's field size limit fails the whole bulk
    # parse; the row scan still names whichever problem comes first
    lines = ["t,u1,y1"] + [f"{k},1,2" for k in range(6)]
    lines[bad_line - 1] = lines[bad_line - 1].replace(",1,", ",oops,")
    lines[huge_line - 1] = lines[huge_line - 1].replace(",1,", "," + "1" * 200_000 + ",")
    path = tmp_path / "huge.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    want = outcome(reference_load, path)
    assert want[0] == "error" and want[1].startswith(f"{path}: line {min(bad_line, huge_line)}: ")
    assert outcome(bulk_load, path) == want


# lines 1-8: a record whose quoted cell '1\n' spans lines 2-3, an empty and
# a blank line, then three one-line records at t = 1, 2, 3
SPANNED = ["t,u1,y1", '0,"1', '",2', "", "  ", "1,2,3", "2,3,4", "3,4,5"]


@pytest.mark.parametrize("at, row, cited", [
    (7, "2,3", 7), (7, "2,x,4", 7), (7, "2,inf,4", 7), (7, "2," + "1" * 200_000 + ",4", 7),
    (7, "2.5,3,4", 7), (6, "0,2,3", 6), (2, '0,"inf', 3),
], ids=["width", "non-numeric", "non-finite", "csv-error", "off-grid", "non-increasing",
        "spanned-non-finite"])
def test_a_bad_row_after_a_spanned_record_and_blank_lines_is_cited_at_its_line(
        tmp_path, at, row, cited):
    # the rule-free re-read that finds the line counts physical lines, not
    # records or data rows
    lines = SPANNED.copy()
    lines[at - 1] = row
    path = tmp_path / "spanned.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))
    want = outcome(reference_load, path)
    assert want[0] == "error" and want[1].startswith(f"{path}: line {cited}: ")
    assert outcome(bulk_load, path) == want


def test_a_spanned_record_and_blank_lines_load_the_row_readers_arrays(tmp_path):
    path = tmp_path / "spanned.csv"
    path.write_bytes(("\r\n".join(SPANNED) + "\r\n").encode("utf-8"))
    got = outcome(bulk_load, path)
    assert got[0] == "ok" and got == outcome(reference_load, path)


@pytest.mark.parametrize("eols", [["\n"], ["\r"], ["\r\n", "\n", "\r"]], ids=["lf", "cr", "mixed"])
def test_line_endings_blank_lines_and_quoted_cells_load_the_row_readers_arrays(tmp_path, eols):
    clean, rows = base_lines(tmp_path)
    ref = load_csv(clean)
    lines = [",".join(rows[0])]
    for k, row in enumerate(rows[1:]):
        lines += [",".join(f'"{c}"' if (k + j) % 3 == 0 else c for j, c in enumerate(row))]
        lines += ["", "  "] if k % 2 else []
    text = "".join(line + eols[k % len(eols)] for k, line in enumerate(lines))
    path = tmp_path / "rewritten.csv"
    path.write_bytes(text.encode("utf-8"))
    got = outcome(bulk_load, path)
    assert got == outcome(reference_load, path)
    assert got == ("ok", ref.u.tobytes(), ref.y.tobytes(), ref.u.shape, ref.y.shape, ref.dt)


def reference_parse_header(header, path):
    """_parse_header as two loops, the recognizer before the header was
    compared with _expected_header: (m, p), or the DataError it raised."""
    if not header or header[0] != "t":
        raise DataError(f"{path}: line 1: header must start with 't', got {header[:1]}")
    m = 0
    i = 1
    while i < len(header) and header[i] == f"u{m+1}":
        m += 1
        i += 1
    p = 0
    while i < len(header) and header[i] == f"y{p+1}":
        p += 1
        i += 1
    if i != len(header) or m < 1 or p < 1:
        raise DataError(f"{path}: line 1: malformed header {header}; expected t,u1..um,y1..yp")
    return m, p


def edit_cells(cells, i, text, kind):
    """cells with cell i replaced by text, text inserted before it, cell i
    deleted, or kept as they are."""
    i = min(i, len(cells) - 1)
    if kind == "replace":
        cells[i] = text
    elif kind == "insert":
        cells.insert(i, text)
    elif kind == "delete":
        del cells[i]
    return cells


HEADER_CELL = st.one_of(
    st.sampled_from(["t", "u1", "u2", "u3", "y1", "y2", "y3", "u0", "y0", "u", "y", "U1",
                     "u01", "u1 ", "t1", "uu1", "y-1", ""]),
    st.text(alphabet="tuy0123 ", max_size=3),
)


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(header=st.one_of(
    st.lists(HEADER_CELL, max_size=8),
    # a valid header, whole or with one cell replaced, inserted or dropped
    st.tuples(st.integers(1, 3), st.integers(1, 3), st.integers(0, 6), HEADER_CELL,
              st.sampled_from(["replace", "insert", "delete", "keep"])).map(
        lambda c: edit_cells(["t"] + [f"u{i + 1}" for i in range(c[0])]
                             + [f"y{i + 1}" for i in range(c[1])], *c[2:])),
))
def test_parse_header_agrees_with_the_two_loop_recognizer(header):
    def result(parse):
        try:
            return parse(list(header), "f.csv")
        except DataError as exc:
            return str(exc)
    assert result(_parse_header) == result(reference_parse_header)

import csv
import gc
import itertools
import re
import sys

import numpy as np
import pytest

from alssnn.dataio import Dataset, SplitSpec, load_csv, normalize, save_csv, split
from alssnn.errors import DataError


def make_ds(n=20, m=2, p=1, seed=0):
    rng = np.random.default_rng(seed)
    return Dataset(rng.normal(size=(n, m)), rng.normal(size=(n, p)), dt=0.1, name="x")


def test_dataset_shapes_and_props():
    ds = make_ds(n=15, m=3, p=2)
    assert ds.n_samples == 15
    assert ds.n_inputs == 3
    assert ds.n_outputs == 2


def test_dataset_accepts_1d_channels():
    ds = Dataset(np.arange(5.0), np.arange(5.0), dt=1.0)
    assert ds.u.shape == (5, 1)
    assert ds.y.shape == (5, 1)


def test_dataset_rejects_length_mismatch():
    with pytest.raises(DataError):
        Dataset(np.zeros((4, 1)), np.zeros((5, 1)))


def test_dataset_rejects_nonfinite():
    u = np.zeros((4, 1))
    y = np.zeros((4, 1))
    y[2, 0] = np.nan
    with pytest.raises(DataError):
        Dataset(u, y)


def test_dataset_rejects_bad_dt():
    with pytest.raises(DataError):
        Dataset(np.zeros((4, 1)), np.zeros((4, 1)), dt=0.0)


def test_dataset_arrays_read_only():
    ds = make_ds()
    with pytest.raises(ValueError):
        ds.u[0, 0] = 1.0


def test_split_sizes_and_order():
    ds = make_ds(n=21)
    tr, te = split(ds, SplitSpec(0.5))
    assert tr.n_samples == 10  # floor(21 * 0.5)
    assert te.n_samples == 11
    assert np.array_equal(np.vstack([tr.u, te.u]), ds.u)
    assert tr.name.endswith(":train")
    assert te.name.endswith(":test")


def test_split_fraction_validated():
    with pytest.raises(DataError):
        SplitSpec(0.0)
    with pytest.raises(DataError):
        SplitSpec(1.0)


def test_split_requires_two_samples_per_side():
    ds = make_ds(n=5)
    with pytest.raises(DataError):
        split(ds, SplitSpec(0.1))  # train side would get 0 samples


def test_csv_round_trip_bit_exact(tmp_path):
    ds = make_ds(n=30, m=2, p=2, seed=3)
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    back = load_csv(path)
    # %.17g is enough digits for float64 round trips
    assert np.array_equal(back.u, ds.u)
    assert np.array_equal(back.y, ds.y)
    assert back.dt == ds.dt


def test_csv_header_layout(tmp_path):
    ds = make_ds(n=5, m=2, p=1)
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,u1,u2,y1"


def reference_save_csv(ds, path):
    """save_csv as first written, one csv.writer row per sample."""
    n, m = ds.u.shape
    p = ds.y.shape[1]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"u{i+1}" for i in range(m)] + [f"y{i+1}" for i in range(p)])
        for k in range(n):
            t = k * ds.dt
            row = [f"{t:.17g}"]
            row += [f"{v:.17g}" for v in ds.u[k]]
            row += [f"{v:.17g}" for v in ds.y[k]]
            writer.writerow(row)


@pytest.mark.parametrize("n, m, p, dt", [(1000, 1, 1, 0.1), (300, 3, 2, 0.37),
                                         (50, 2, 1, 1e-300)])
def test_save_csv_bytes_match_csv_writer(tmp_path, n, m, p, dt):
    rng = np.random.default_rng(n)
    u = rng.normal(size=(n, m)) * 10.0 ** rng.integers(-300, 300, (n, m))
    y = rng.normal(size=(n, p))
    y[:3, 0] = [0.0, -0.0, 5e-324]
    ds = Dataset(u, y, dt=dt)
    reference_save_csv(ds, tmp_path / "ref.csv")
    save_csv(ds, tmp_path / "new.csv")
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


# save_csv's bytes for EXTREMES (u) and EXTREMES reversed (y) at dt = 0.1: signed
# zero, the smallest subnormal, the largest float, and values whose %.17g text
# differs from their shortest repr
EXTREMES = [-0.0, 5e-324, 1.7976931348623157e308, 0.1, 1e16, -2.5e-7]
EXTREMES_CSV = (
    b"t,u1,y1\r\n"
    b"0,-0,-2.4999999999999999e-07\r\n"
    b"0.10000000000000001,4.9406564584124654e-324,10000000000000000\r\n"
    b"0.20000000000000001,1.7976931348623157e+308,0.10000000000000001\r\n"
    b"0.30000000000000004,0.10000000000000001,1.7976931348623157e+308\r\n"
    b"0.40000000000000002,10000000000000000,4.9406564584124654e-324\r\n"
    b"0.5,-2.4999999999999999e-07,-0\r\n"
)


def test_save_csv_writes_pinned_bytes_that_load_back_bit_for_bit(tmp_path):
    ds = Dataset(np.array(EXTREMES), np.array(EXTREMES[::-1]), dt=0.1)
    path = tmp_path / "extremes.csv"
    save_csv(ds, path)
    assert path.read_bytes() == EXTREMES_CSV
    back = load_csv(path)
    assert back.u.tobytes() == ds.u.tobytes() and back.y.tobytes() == ds.y.tobytes()
    assert back.dt == 0.1


def python_calls(fn, *args):
    """Number of Python-level function calls (profile "call" events) made by
    fn(*args); the collector is paused so that no gc callback counts."""
    count = 0

    def hook(frame, event, arg):
        nonlocal count
        count += event == "call"

    gc.disable()
    sys.setprofile(hook)
    try:
        fn(*args)
    finally:
        sys.setprofile(None)
        gc.enable()
    return count


def test_load_csv_reads_a_clean_file_in_bulk(tmp_path):
    # a per-row Python function or generator would make the larger file's
    # count grow with its rows
    paths = []
    for n in (200, 20_000):
        paths.append(tmp_path / f"clean{n}.csv")
        save_csv(make_ds(n=n, m=2, p=1, seed=n), paths[-1])
    load_csv(paths[0])   # first-call work, such as lazy imports, is not the reader's
    small, large = (python_calls(load_csv, path) for path in paths)
    assert small == large


def test_load_csv_missing_file():
    with pytest.raises(DataError):
        load_csv("/nonexistent/nowhere.csv")


def test_load_csv_bad_cell_cites_line(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("t,u1,y1\n0,1,2\n0.1,oops,3\n")
    with pytest.raises(DataError, match="line 3"):
        load_csv(path)


def test_load_csv_rejects_non_uniform_time(tmp_path):
    path = tmp_path / "jump.csv"
    path.write_text("t,u1,y1\n0,1,2\n1,1,2\n5,1,2\n2,1,2\n")
    with pytest.raises(DataError, match=r"line 4: time 5.0 is off the uniform "
                                        r"grid t0 \+ k\*dt = 2.0"):
        load_csv(path)
    # skipped blank lines still count toward the cited line
    path.write_text("t,u1,y1\n0,1,2\n\n1,1,2\n2,1,2\n\n2.5,1,2\n")
    with pytest.raises(DataError, match="line 7:"):
        load_csv(path)
    path.write_text("t,u1,y1\n0,1,2\n1,1,2\nnan,1,2\n")
    with pytest.raises(DataError, match="line 4:"):
        load_csv(path)


def test_load_csv_non_finite_cell_cites_file_and_line(tmp_path):
    path = tmp_path / "nonfinite.csv"
    path.write_text("t,u1,y1\n0,1,2\n1,1,nan\n2,1,2\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: line 3: non-finite cell 'nan'")):
        load_csv(path)
    path.write_text("t,u1,y1\n0,1,2\n1,1,2\n2,-inf,2\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: line 4: non-finite cell '-inf'")):
        load_csv(path)


def test_load_csv_non_utf8_cites_line(tmp_path):
    # the bad row is line n_rows + 2, after the header and n_rows good rows,
    # with its bad byte first, inside or last; with 10,000 rows it lies past
    # the first 64 KiB
    path = tmp_path / "latin1.csv"
    for bom, n_rows, eol, bad in itertools.product(
            [b"", b"\xef\xbb\xbf"], [3, 10_000], [b"\n", b"\r\n", b"\r"],
            [b"\xe9,1,2", b"2,\xe9,2", b"2,1,\xe9"]):
        rows = [b"%d,1,2" % k for k in range(n_rows)]
        text = bom + eol.join([b"t,u1,y1", *rows, bad, b"0,1,2"])
        assert n_rows < 10 or text.index(b"\xe9") > 64 * 1024
        path.write_bytes(text)
        message = f"{path}: line {n_rows + 2}: not UTF-8 text"
        with pytest.raises(DataError, match=re.escape(message)):
            load_csv(path)


def test_load_csv_csv_module_error_cites_line(tmp_path):
    # a cell past the csv module's field size limit used to escape as csv.Error
    path = tmp_path / "huge.csv"
    path.write_text("t,u1,y1\n0,1,2\n1,1,2\n2," + "1" * 200_000 + ",2\n")
    with pytest.raises(DataError, match=re.escape(f"{path}: line 4: field larger")):
        load_csv(path)


def test_load_csv_cites_physical_line_after_quoted_newline(tmp_path):
    # the record on lines 2-3 holds a newline in a quoted cell; the bad
    # cell sits on physical line 5
    path = tmp_path / "quoted.csv"
    path.write_text('t,u1,y1\n0,"1\n",2\n1,1,2\n2,oops,3\n')
    with pytest.raises(DataError, match="line 5: non-numeric cell 'oops'"):
        load_csv(path)


def test_load_csv_accepts_utf8_byte_order_mark(tmp_path):
    # spreadsheet programs write "CSV UTF-8" with a leading byte-order mark
    ds = make_ds(n=5)
    plain = tmp_path / "plain.csv"
    save_csv(ds, plain)
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    back = load_csv(marked)
    assert np.array_equal(back.u, ds.u) and np.array_equal(back.y, ds.y)


@pytest.mark.parametrize("cell, line", [("1_0", 3), (" 3 ", 4), ("3\t", 4),
                                         ("\u0661", 3), ("1e1_0", 3)])
def test_load_csv_rejects_python_literal_syntax(tmp_path, cell, line):
    # float() reads '1_0' as 10 and ' 3 ' as 3; the file format has neither
    rows = ["t,u1,y1", "0,1,2", "1,1,2", "2,1,2", "3,1,2"]
    rows[line - 1] = rows[line - 1].replace(",1,", f",{cell},", 1)
    path = tmp_path / "literal.csv"
    path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    with pytest.raises(DataError, match=rf"line {line}: non-numeric cell {re.escape(repr(cell))}"):
        load_csv(path)


def test_load_csv_padded_header_and_blank_line_still_load(tmp_path):
    path = tmp_path / "padded.csv"
    path.write_text("t, u1 , y1\n0,1,2\n   \n1,3,4\n")
    ds = load_csv(path)
    assert ds.u.ravel().tolist() == [1.0, 3.0] and ds.y.ravel().tolist() == [2.0, 4.0]


def test_load_csv_accepts_rounded_uniform_time(tmp_path):
    # short decimal times are off t0 + k*dt by rounding only; dt stays t1 - t0
    rows = "".join(f"{1000 + 0.1 * k:.1f},{k},{-k}\n" for k in range(2000))
    path = tmp_path / "decimal.csv"
    path.write_text("t,u1,y1\n" + rows)
    ds = load_csv(path)
    assert ds.n_samples == 2000
    assert ds.dt == 1000.1 - 1000.0


def test_normalize_zero_mean_unit_std():
    ds = make_ds(n=200, m=2, p=2, seed=1)
    out, params = normalize(ds)
    assert np.allclose(out.u.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.u.std(axis=0), 1.0, rtol=1e-12)
    assert np.allclose(out.y.mean(axis=0), 0.0, atol=1e-12)
    assert np.allclose(out.y.std(axis=0), 1.0, rtol=1e-12)
    # recorded parameters invert the transform
    restored = out.y * np.asarray(params["y_std"]) + np.asarray(params["y_mean"])
    assert np.allclose(restored, ds.y, atol=1e-12)


def test_normalize_constant_channel_guard():
    u = np.ones((10, 1))
    y = np.arange(10.0)
    ds = Dataset(u, y, dt=1.0)
    out, params = normalize(ds)
    assert np.allclose(out.u, 0.0)
    assert params["u_std"] == [1.0]

"""Sampled input/output datasets: CSV persistence, splitting, summary stats,
and `_frozen`, the one rule by which every frozen value owns its arrays.

On-disk format: UTF-8 CSV with header ``t,u1,...,um,y1,...,yp`` (a leading
byte-order mark is skipped), one row per sample, decimal point '.', values
written with 17 significant digits so that a save/load round trip is
bit-exact. A file is read in one bulk pass (one csv parse, one float() of
every cell, vectorized checks on the table); its rows are scanned one by one
only when a check fails, to name the first bad line. Every file the package
writes, CSV or JSON, goes through `_write_text`, by the one write rule of
README's "File formats".
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "SplitSpec", "load_csv", "load_json", "normalize", "save_csv", "split"]

# ASCII characters that float() skips or accepts inside a number but the
# file format does not: digit separators and blanks around the digits. (A line
# break can only enter a cell by csv quoting, which keeps its own rules.)
_NON_NUMBER_CHARS = "_ \t\v\f\x1c\x1d\x1e\x1f"


def _frozen(value, what: str, ndmin: int = 0, flat: bool = False) -> np.ndarray:
    """A finite, read-only float copy of `value` (at least `ndmin`-D, or 1-D if
    `flat`) in the caller's memory layout, or a DataError naming `what`."""
    try:
        a = np.asarray(value)
        if np.iscomplexobj(a):   # a float cast would drop the imaginary parts
            raise TypeError("complex entries")
        a = np.array(a, dtype=float, ndmin=ndmin)
    except (TypeError, ValueError, OverflowError) as exc:   # strings, ragged lists, huge ints
        raise DataError(f"{what} is not a numeric array: {exc}") from None
    a = a.reshape(-1) if flat else a
    if not np.isfinite(a).all():
        raise DataError(f"{what} has non-finite entries")
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Dataset:
    """Immutable container for one input/output record.

    Parameters
    ----------
    u : np.ndarray, shape (N, m)
        Input samples, plant units.
    y : np.ndarray, shape (N, p)
        Output samples.
    dt : float
        Sample period in seconds (informational).
    name : str
        Identifier used in reports.
    """

    u: np.ndarray
    y: np.ndarray
    dt: float = 1.0
    name: str = "dataset"

    def __post_init__(self):
        for key in ("u", "y"):
            a = _frozen(getattr(self, key), f"Dataset.{key}")
            object.__setattr__(self, key, a.reshape(-1, 1) if a.ndim == 1 else a)
        u, y = self.u, self.y
        if u.ndim != 2 or y.ndim != 2:
            raise DataError("u and y must be 1-D or 2-D arrays")
        if u.shape[0] != y.shape[0]:
            raise DataError(
                f"u and y must have the same length, got {u.shape[0]} and {y.shape[0]}"
            )
        if u.shape[0] < 2:
            raise DataError(f"dataset needs at least 2 samples, got {u.shape[0]}")
        if u.shape[1] < 1 or y.shape[1] < 1:
            raise DataError("input and output dimensions must be at least 1")
        if not (math.isfinite(self.dt) and self.dt > 0):
            raise DataError(f"sample period must be finite and positive, got {self.dt}")

    @property
    def n_samples(self) -> int:
        return self.u.shape[0]

    @property
    def n_inputs(self) -> int:
        return self.u.shape[1]

    @property
    def n_outputs(self) -> int:
        return self.y.shape[1]


def normalize(ds: Dataset) -> tuple[Dataset, dict]:
    """Per-channel zero-mean unit-std rescaling of u and y.

    Returns the rescaled dataset together with the affine parameters so the
    transformation is recorded and invertible. Channels with std below 1e-12
    keep scale 1 to avoid blowing up constant signals.
    """
    u_mean = ds.u.mean(axis=0)
    y_mean = ds.y.mean(axis=0)
    u_std = ds.u.std(axis=0)
    y_std = ds.y.std(axis=0)
    u_std = np.where(u_std < 1e-12, 1.0, u_std)
    y_std = np.where(y_std < 1e-12, 1.0, y_std)
    out = Dataset(
        u=(ds.u - u_mean) / u_std,
        y=(ds.y - y_mean) / y_std,
        dt=ds.dt,
        name=ds.name + ":normalized",
    )
    params = {
        "u_mean": [float(v) for v in u_mean],
        "u_std": [float(v) for v in u_std],
        "y_mean": [float(v) for v in y_mean],
        "y_std": [float(v) for v in y_std],
    }
    return out, params


@dataclass(frozen=True)
class SplitSpec:
    """Contiguous-prefix train/test partition.

    The split index is floor(N * train_fraction); both sides must keep at
    least 2 samples.
    """

    train_fraction: float = 0.5

    def __post_init__(self):
        if not (0.0 < self.train_fraction < 1.0):
            raise DataError(
                f"train_fraction must lie in (0, 1), got {self.train_fraction}"
            )

    def index(self, n: int) -> int:
        k = int(math.floor(n * self.train_fraction))
        if k < 2 or n - k < 2:
            raise DataError(
                f"split of {n} samples at fraction {self.train_fraction} leaves "
                f"fewer than 2 samples on one side"
            )
        return k


def split(ds: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Split into (prefix, remainder) preserving temporal order."""
    k = spec.index(ds.n_samples)
    head = Dataset(ds.u[:k], ds.y[:k], dt=ds.dt, name=ds.name + ":train")
    tail = Dataset(ds.u[k:], ds.y[k:], dt=ds.dt, name=ds.name + ":test")
    return head, tail


def _expected_header(m: int, p: int) -> list[str]:
    return ["t"] + [f"u{i+1}" for i in range(m)] + [f"y{i+1}" for i in range(p)]


def save_csv(ds: Dataset, path) -> None:
    """Write a dataset in the canonical CSV layout (17 significant digits);
    time k is written as k * dt."""
    n, m = ds.u.shape
    table = np.column_stack([np.arange(n) * ds.dt, ds.u, ds.y])
    _write_table(path, _expected_header(m, ds.y.shape[1]), table)


def _write_table(path, header: list[str], table: np.ndarray) -> None:
    """Write `header` and the rows of `table`: one ``%.17g`` cell per value,
    CRLF line ends (the csv module's default dialect). The body is formatted
    by one ``%`` over the row template repeated once per row."""
    n, width = table.shape
    row = ",".join(["%.17g"] * width) + "\r\n"
    _write_text(path, ",".join(header) + "\r\n" + (row * n) % tuple(table.ravel().tolist()))


def _write_text(path, text: str) -> None:
    """Write `text` as UTF-8 with its line ends as given, making the parent
    directory; any failure is a DataError naming the path. Every write is here."""
    try:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


def load_csv(path, name: str | None = None) -> Dataset:
    """Load a dataset written by :func:`save_csv` (or compatible).

    The header must be ``t,u1..um,y1..yp``; dt is inferred from the first
    two t values, and every row k must sit at t0 + k*dt up to a relative
    1e-9 (rounding of the written times). Every cell must be a finite
    number in plain ASCII, with no digit separator or padding blank ('1_0'
    and ' 3 ' are errors). A leading UTF-8 byte-order mark is skipped.
    Errors cite the offending 1-based physical line; a record that spans
    lines (a quoted newline) is cited by its last line.

    A file is read in one bulk pass: one csv parse, one float conversion of
    every cell and vectorized checks on the table. Only a file that fails a
    check is scanned again row by row, to name its first bad line.
    """
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8-sig")
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:   # lines end at LF, CR or CRLF, as csv counts them
        line = len((exc.object[: exc.start] + b"x").splitlines())
        raise DataError(f"{path}: line {line}: not UTF-8 text") from None
    # float() takes Python literal syntax ('1_0', ' 3 '). Cells are searched
    # for it only when a scan of the text after the header line (whose cells
    # may be padded) finds a non-ASCII or non-number character.
    start = text.find("\n") + 1
    suspect = not text.isascii() or any(
        text.find(c, start) >= 0 for c in _NON_NUMBER_CHARS)
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
        if not rows:
            raise DataError(f"{path}: empty file")
        m, p = _parse_header([h.strip() for h in rows[0]], path)
        width = 1 + m + p
        body = [row for row in rows[1:] if row and (len(row) > 1 or row[0].strip())]
        cells = [c for row in body for c in row]
        if set(map(len, body)) - {width} or (suspect and not all(map(_is_plain, cells))):
            raise ValueError
        table = np.fromiter(map(float, cells), float, len(cells)).reshape(len(body), width)
        if not np.isfinite(table).all():
            raise ValueError
        if len(body) < 2:
            raise DataError(f"{path}: need at least 2 data rows, got {len(body)}")
        t = table[:, 0]
        dt = float(t[1] - t[0])
        if not (math.isfinite(dt) and dt > 0) or _off_grid(t, dt).any():
            raise ValueError
    except (csv.Error, ValueError):
        _raise_first_bad_line(text, path, suspect)
        raise   # not reached: the scan applies the rules that refused the file
    return Dataset(u=table[:, 1 : 1 + m], y=table[:, 1 + m :], dt=dt,
                   name=name if name is not None else str(path))


def _raise_first_bad_line(text: str, path, suspect: bool) -> None:
    """Raise the DataError of the first line, in file order, that breaks a
    rule of `load_csv`; return if there is none.

    Rows are read one by one so that `reader.line_num` gives each problem its
    physical line: a csv error, a short or long row, a non-numeric or
    non-finite cell, then the time column's rules, which need every row.
    """
    reader = csv.reader(io.StringIO(text, newline=""))
    t_vals: list[float] = []
    linenos: list[int] = []
    m = p = 0
    try:
        for row in reader:
            lineno = reader.line_num
            if not m:   # the first row is the header, which sets m >= 1
                m, p = _parse_header([h.strip() for h in row], path)
                continue
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != 1 + m + p:
                raise DataError(
                    f"{path}: line {lineno}: expected {1 + m + p} cells, got {len(row)}"
                )
            try:
                if suspect and not all(map(_is_plain, row)):
                    raise ValueError
                vals = [float(c) for c in row]
            except ValueError:
                bad = next(c for c in row if not _is_number(c))
                raise DataError(
                    f"{path}: line {lineno}: non-numeric cell {bad!r}"
                ) from None
            if not all(map(math.isfinite, vals)):
                bad = next(c for c, v in zip(row, vals) if not math.isfinite(v))
                raise DataError(f"{path}: line {lineno}: non-finite cell {bad!r}")
            t_vals.append(vals[0])
            linenos.append(lineno)
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(t_vals) < 2:
        return
    t = np.array(t_vals)
    dt = float(t[1] - t[0])
    if not (math.isfinite(dt) and dt > 0):
        raise DataError(
            f"{path}: line {linenos[1]}: non-increasing time column (dt={dt})"
        )
    off = _off_grid(t, dt)
    if np.any(off):
        i = int(np.argmax(off))
        grid = t[0] + i * dt
        raise DataError(
            f"{path}: line {linenos[i]}: time {float(t[i])!r} is off the uniform "
            f"grid t0 + k*dt = {float(grid)!r} (dt={dt!r} from the first two rows)"
        )


def _off_grid(t: np.ndarray, dt: float) -> np.ndarray:
    """Mask of the times off the grid t0 + k*dt by more than a relative 1e-9."""
    k = np.arange(t.size)
    return ~(np.abs(t - (t[0] + k * dt)) <= 1e-9 * (abs(t[0]) + k * dt))


def _parse_header(header: list[str], path) -> tuple[int, int]:
    if not header or header[0] != "t":
        raise DataError(f"{path}: line 1: header must start with 't', got {header[:1]}")
    m = sum(h.startswith("u") for h in header)
    p = len(header) - 1 - m
    if min(m, p) < 1 or header != _expected_header(m, p):
        raise DataError(
            f"{path}: line 1: malformed header {header}; expected t,u1..um,y1..yp"
        )
    return m, p


def _is_plain(cell: str) -> bool:
    """True unless the cell holds a non-ASCII character or one of _NON_NUMBER_CHARS."""
    return cell.isascii() and not any(map(cell.__contains__, _NON_NUMBER_CHARS))


def _is_number(cell: str) -> bool:
    if not _is_plain(cell):
        return False
    try:
        float(cell)
        return True
    except ValueError:
        return False


def load_json(path):
    """The JSON value a UTF-8 file holds (a leading byte-order mark is
    skipped). A file that cannot be read, is not UTF-8, is not JSON or nests
    past the parser's depth is a DataError naming the file."""
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise DataError(f"{path}: invalid JSON: arrays or objects nested too deeply") from None

"""Sampled input/output datasets: CSV persistence, splitting, summary stats.

On-disk format: UTF-8 CSV with header ``t,u1,...,um,y1,...,yp`` (a leading
byte-order mark is skipped), one row per sample, decimal point '.', values
written with 17 significant digits so that a save/load round trip is
bit-exact.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError

__all__ = ["Dataset", "SplitSpec", "load_csv", "load_json", "normalize", "save_csv", "split"]

# ASCII characters that float() skips or accepts inside a number but the
# file format does not: digit separators and blanks around the digits. (A line
# break can only enter a cell by csv quoting, which keeps its own rules.)
_NON_NUMBER_CHARS = "_ \t\v\f\x1c\x1d\x1e\x1f"


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
        u = np.asarray(self.u, dtype=float)
        y = np.asarray(self.y, dtype=float)
        if u.ndim == 1:
            u = u.reshape(-1, 1)
        if y.ndim == 1:
            y = y.reshape(-1, 1)
        if u.ndim != 2 or y.ndim != 2:
            raise DataError("u and y must be 1-D or 2-D arrays")
        u = u.copy()
        y = y.copy()
        u.setflags(write=False)
        y.setflags(write=False)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "y", y)
        if u.shape[0] != y.shape[0]:
            raise DataError(
                f"u and y must have the same length, got {u.shape[0]} and {y.shape[0]}"
            )
        if u.shape[0] < 2:
            raise DataError(f"dataset needs at least 2 samples, got {u.shape[0]}")
        if u.shape[1] < 1 or y.shape[1] < 1:
            raise DataError("input and output dimensions must be at least 1")
        if not (np.all(np.isfinite(u)) and np.all(np.isfinite(y))):
            raise DataError("dataset contains non-finite entries")
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
    """Write a dataset in the canonical CSV layout (17 significant digits).

    One ``%.17g`` cell per value, CRLF line endings (the csv module's
    default dialect). Time k is written as k * dt.
    """
    n, m = ds.u.shape
    p = ds.y.shape[1]
    table = np.column_stack([np.arange(n) * ds.dt, ds.u, ds.y]).tolist()
    row = ",".join(["%.17g"] * (1 + m + p)) + "\r\n"
    try:
        fh = open(path, "w", newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
    with fh:
        fh.write(",".join(_expected_header(m, p)) + "\r\n")
        fh.writelines([row % tuple(r) for r in table])


def load_csv(path, name: str | None = None) -> Dataset:
    """Load a dataset written by :func:`save_csv` (or compatible).

    The header must be ``t,u1..um,y1..yp``; dt is inferred from the first
    two t values, and every row k must sit at t0 + k*dt up to a relative
    1e-9 (rounding of the written times). Every cell must be a finite
    number in plain ASCII, with no digit separator or padding blank ('1_0'
    and ' 3 ' are errors). A leading UTF-8 byte-order mark is skipped.
    Errors cite the offending 1-based physical line; a record that spans
    lines (a quoted newline) is cited by its last line.
    """
    try:
        with open(path, "r", newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError:
        raise DataError(
            f"{path}: line {_first_undecodable_line(path)}: not UTF-8 text"
        ) from None
    # float() takes Python literal syntax ('1_0', ' 3 '). Cells are searched
    # for it only when a scan of the text after the header line (whose cells
    # may be padded) finds a non-ASCII or non-number character.
    start = text.find("\n") + 1
    suspect = not text.isascii() or any(
        text.find(c, start) >= 0 for c in _NON_NUMBER_CHARS)
    reader = csv.reader(io.StringIO(text, newline=""))
    rows = _checked_rows(reader, path)
    try:
        header = next(rows)
    except StopIteration:
        raise DataError(f"{path}: empty file") from None
    header = [h.strip() for h in header]
    m, p = _parse_header(header, path)
    width = 1 + m + p
    t_vals: list[float] = []
    linenos: list[int] = []
    u_rows: list[list[float]] = []
    y_rows: list[list[float]] = []
    for row in rows:
        lineno = reader.line_num
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != width:
            raise DataError(
                f"{path}: line {lineno}: expected {width} cells, got {len(row)}"
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
        u_rows.append(vals[1 : 1 + m])
        y_rows.append(vals[1 + m :])
    if len(t_vals) < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {len(t_vals)}")
    dt = t_vals[1] - t_vals[0]
    if not (math.isfinite(dt) and dt > 0):
        raise DataError(
            f"{path}: line {linenos[1]}: non-increasing time column (dt={dt})"
        )
    _check_uniform_time(np.array(t_vals), dt, linenos, path)
    return Dataset(
        u=np.array(u_rows, dtype=float),
        y=np.array(y_rows, dtype=float),
        dt=dt,
        name=name if name is not None else str(path),
    )


def _checked_rows(reader, path):
    """The reader's rows; csv errors become DataError."""
    try:
        yield from reader
    except csv.Error as exc:
        raise DataError(f"{path}: line {reader.line_num}: {exc}") from None


def _first_undecodable_line(path) -> int:
    """1-based number of the first line of `path` that is not valid UTF-8.

    Lines end at LF, CR or CRLF, as the csv reader counts them.
    """
    with open(path, "rb") as fh:
        lines = fh.read().splitlines()
    for lineno, raw in enumerate(lines, start=1):
        try:
            raw.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return len(lines)


def _check_uniform_time(t: np.ndarray, dt: float, linenos: list[int], path) -> None:
    """Raise DataError at the first row off the grid t0 + k*dt."""
    k = np.arange(t.size)
    grid = t[0] + k * dt
    off = ~(np.abs(t - grid) <= 1e-9 * (abs(t[0]) + k * dt))
    if np.any(off):
        i = int(np.argmax(off))
        raise DataError(
            f"{path}: line {linenos[i]}: time {float(t[i])!r} is off the uniform "
            f"grid t0 + k*dt = {float(grid[i])!r} (dt={dt!r} from the first two rows)"
        )


def _parse_header(header: list[str], path) -> tuple[int, int]:
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
    """The JSON value a UTF-8 file holds. A file that cannot be read, is not
    UTF-8, is not JSON or nests past the parser's depth is a DataError
    naming the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: invalid JSON: {exc}") from exc
    except RecursionError:
        raise DataError(f"{path}: invalid JSON: arrays or objects nested too deeply") from None

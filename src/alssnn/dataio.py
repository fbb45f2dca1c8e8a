"""Sampled input/output datasets: CSV persistence, splitting, summary stats,
and `_frozen`, the one rule by which every frozen value owns its arrays.

On-disk format: UTF-8 CSV with header ``t,u1,...,um,y1,...,yp`` (a leading
byte-order mark is skipped), one row per sample, decimal point '.', values
written with 17 significant digits so that a save/load round trip is
bit-exact. A file is read in one pass that applies each rule once, to the
whole table; only a file that breaks a rule is read again, by a csv reader
that applies no rules, to name the first bad line. Every file the package
writes, CSV or JSON, goes through `_write_text`, by the one write rule of
README's "File formats".
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import operator
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
    transformation is recorded and invertible. A channel whose std is at
    most 1e-12 times its largest |value| is constant up to roundoff and
    keeps scale 1, so that its roundoff is not blown up.
    """
    (u_mean, u_std), (y_mean, y_std) = _affine(ds.u), _affine(ds.y)
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


def _affine(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-column mean and std of `a`, the std replaced by 1 where it is at
    most 1e-12 times the column's largest |value|."""
    std = a.std(axis=0)
    return a.mean(axis=0), np.where(std <= 1e-12 * np.abs(a).max(axis=0), 1.0, std)


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

    Each rule is applied once, to the whole table: one csv parse, one float
    conversion of the cells, vectorized checks. The first bad data row in
    file order (a wrong width, then a cell that is not a plain number, then a
    non-finite cell) is raised first, then a csv error, then the row count
    and the time column's rules. Only a file that breaks a rule is read
    again, by a csv reader that applies no rules, to turn the bad row into
    its physical line.
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
    reader = csv.reader(io.StringIO(text, newline=""))
    rows: list[list[str]] = []
    csv_error = None
    try:
        rows.extend(reader)   # keeps the rows read before a csv error
    except csv.Error as exc:
        csv_error = f"{path}: line {reader.line_num}: {exc}"
    if not rows:
        raise DataError(csv_error or f"{path}: empty file")
    m, p = _parse_header([h.strip() for h in rows[0]], path)
    width = 1 + m + p
    body = [row for row in rows[1:] if row and (len(row) > 1 or row[0].strip())]

    def fail(i: int, what: str):   # a re-read that applies no rules finds body[i]'s line
        j = next(j for j, row in enumerate(rows) if row is body[i])
        reader = csv.reader(io.StringIO(text, newline=""))
        next(itertools.islice(reader, j, None))
        raise DataError(f"{path}: line {reader.line_num}: {what}")

    # The table holds the rows ahead of the first one of the wrong width or
    # with a cell that is not a plain number.
    wrong = np.fromiter(map(len, body), int, len(body)) != width
    n = int(wrong.argmax()) if wrong.any() else len(body)
    bad = f"expected {width} cells, got {len(body[n])}" if n < len(body) else None
    cells = list(itertools.chain.from_iterable(body[:n]))
    to_float = _plain_float if suspect else float
    rest = iter(cells)
    try:
        values = np.fromiter(map(to_float, rest), float, len(cells))
    except ValueError:   # cells[c] failed; a list iterator's length hint is exact
        c = len(cells) - operator.length_hint(rest) - 1
        n, bad = c // width, f"non-numeric cell {cells[c]!r}"
        values = np.fromiter(map(to_float, cells[: n * width]), float, n * width)
    table = values.reshape(n, width)
    finite = np.isfinite(table)
    if not finite.all():
        i = int(finite.all(axis=1).argmin())
        fail(i, f"non-finite cell {body[i][int(finite[i].argmin())]!r}")
    if bad:
        fail(n, bad)
    if csv_error:
        raise DataError(csv_error)
    if n < 2:
        raise DataError(f"{path}: need at least 2 data rows, got {n}")
    t = table[:, 0]
    dt = float(t[1] - t[0])
    if not (math.isfinite(dt) and dt > 0):
        fail(1, f"non-increasing time column (dt={dt})")
    k = np.arange(n)   # row k must sit at t0 + k*dt up to a relative 1e-9
    off = ~(np.abs(t - (t[0] + k * dt)) <= 1e-9 * (abs(t[0]) + k * dt))
    if off.any():
        i = int(off.argmax())
        fail(i, f"time {float(t[i])!r} is off the uniform grid t0 + k*dt = "
             f"{float(t[0] + i * dt)!r} (dt={dt!r} from the first two rows)")
    return Dataset(u=table[:, 1 : 1 + m], y=table[:, 1 + m :], dt=dt,
                   name=name if name is not None else str(path))


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


def _plain_float(cell: str) -> float:
    """float(cell) of a cell that _is_plain, else a ValueError."""
    if not _is_plain(cell):
        raise ValueError(cell)
    return float(cell)


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

"""Point clouds, base distance functions, and distance-matrix materialization.

Everything downstream (the punctured-space constructors, the four-point
delta engine, the inequality checkers) reads a distance input, or the few
entries ``_pairs`` gives a scalar of it. One gate reads each input kind, and
what it refuses is an ``InputError``: ``_as_entries`` every distance input
(a ragged or non-numeric array), ``_parse_json`` every JSON text,
``_point_rows`` all coordinates (ragged, non-numeric, boolean or not
finite), ``_metric`` every metric name (unknown, or d1/d2 off dim 2),
``_index`` every index and ``_count`` every count, seed and worker count
(an ``int`` or numpy integer that is not a ``bool``, in range).

Base distances:

* ``euclidean_distance`` -- the l2 distance in any dimension.
* ``taxicab_distance``   -- sum of coordinate differences, any dimension.
* ``arctan_split_distance`` -- the planar metrics
  ``d1(x, y) = |x1 - y1| + arctan|x2 - y2|`` and
  ``d2(x, y) = |x2 - y2| + arctan|x1 - y1|``, plus their sum ``d1 + d2``
  (the sum fails to be Gromov hyperbolic even though d1 and d2 are).

Each formula lives once, in ``_cross``, the distances between two point
sets. ``pairwise_distances`` evaluates it over consecutive row blocks
[r0, r1) x [r0, n) of the matrix's upper triangle, each within the step
budget ``_STEP_BYTES`` (``_row_blocks``), and copies each block into its
mirror below the diagonal (``_mirrored``); a matrix that fits one block is
that block, with no copy. Entry (j, i) is the same float operations as
(i, j) on swapped operands, so the mirror has the bits the lower triangle
would have on its own. The scalar functions are views of the matrix,
evaluating it on the two-row stack of their arguments, so a matrix built
from them equals the named matrix bit for bit.

The Euclidean and taxicab formulas take coordinate differences on the
coordinates as given, so none is rounded; a difference overflows only
where the distance overflows too, and reads inf as the distance does. A
Euclidean entry whose sum of squares overflows, or lies below 2^-969
(2^53 times the smallest normal float), where a subnormal square can have
lost bits the sum would keep, is taken again in units of the power of two
of its largest coordinate difference. A tiny cloud thus keeps the
distances of the same cloud scaled up, scaled back, and a point next to
another keeps its distance even when the cloud spans the float range.
Against 80-digit values of the exact coordinate differences (144,000 pairs
of planar clouds at scales 2^-1074 to 2^1020, some a few ulps apart) the
worst errors were 1.51 ulps (Euclidean) and 1.22 (taxicab);
tests/test_reference.py allows 2 and 1.5.

Matrix files are byte-stable: ``DistanceMatrix.save`` writes the bytes of
``json.dumps(m.to_dict(), indent=2)`` (or of a ``csv.writer`` of ``repr``
rows) for any worker count. It formats each symmetric pair once, in row
bands of equal upper-triangle size run on the process pool of ``_pool``
(one band, in the calling process, below ``2 * _BAND_ENTRIES`` entries),
and writes the rows once every band is done. ``load_distance_matrix``
decodes a large JSON matrix file in row pieces on the same pool, and
otherwise reads it as ``json.loads`` does, with the same bits and errors.
A worker count below 1 is an ``InputError``, whatever the file.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import tempfile
from contextlib import ExitStack
from itertools import chain
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from ._pool import _runner
from .errors import InputError

Vector = Sequence[float]
MetricFn = Callable[[Vector, Vector], float]

#: Metric selector strings accepted everywhere a base metric is named.
METRIC_NAMES = ("euclidean", "taxicab", "d1", "d2", "d1+d2")

#: Scratch bytes of one step: a row block of a symmetric matrix here and
#: in ``cassinian``, and a step of the exact delta kernel in ``delta``.
#: Bounds the temporaries independently of the input.
_STEP_BYTES = 1 << 19

#: Entries per band of the matrix-file writer and per piece of the reader,
#: at least: about 100 ms of formatting, against the 15-20 ms it costs to
#: open the process pool.
_BAND_ENTRIES = 1 << 17

#: The matrix-file reader's patterns, tokens separated by JSON whitespace;
#: ``re`` compiles them on first use.
_WS = "[ \t\n\r]*"
_MATRIX_HEAD = _WS.join(
    ["", r"\{", '"n"', ":", "(0|[1-9][0-9]{0,17})", ",", '"entries"', ":", r"\[", ""]
)
_MATRIX_TAIL = _WS.join(["", r"\]", r"\}", r"\Z"])
_ROW_BREAK = _WS.join([r"\]", ",", r"\["])
_ROW_GAP = _WS.join(["", ",", ""])


def euclidean_distance(x: Vector, y: Vector) -> float:
    """l2 distance between two coordinate vectors of equal dimension."""
    return float(pairwise_distances([x, y], "euclidean")[0, 1])


def taxicab_distance(x: Vector, y: Vector) -> float:
    """Sum of absolute coordinate differences (dimension-agnostic)."""
    return float(pairwise_distances([x, y], "taxicab")[0, 1])


def arctan_split_distance(which: str, x: Vector, y: Vector) -> float:
    """One of the planar arctan-split metrics: ``d1``, ``d2``, or their sum.

    ``d1 = |x1-y1| + arctan|x2-y2|``; ``d2`` swaps the coordinate roles;
    ``sum`` returns ``d1 + d2``. Points must be 2-dimensional.
    """
    if which not in ("d1", "d2", "sum", "d1+d2"):
        raise InputError(f"unknown arctan-split selector {which!r} (want d1, d2, or sum)")
    return float(pairwise_distances([x, y], "d1+d2" if which == "sum" else which)[0, 1])


def _count(c, least: int, what: str) -> int:
    """A count, seed or index ``c`` named ``what``: an ``int`` or numpy
    integer, not a ``bool``, of at least ``least``."""
    if isinstance(c, bool) or not isinstance(c, (int, np.integer)):
        raise InputError(f"{what} must be an integer, got {c!r}")
    if c < least:
        raise InputError(f"need {what} >= {least}, got {c}")
    return int(c)


def _index(i, n: int, what: str) -> int:
    """An index ``i`` named ``what`` into n items: ``_count``'s integer in [0, n)."""
    i = _count(i, 0, what)
    if i >= n:
        raise InputError(f"{what} {i} out of range [0, {n})")
    return i


def _worker_count(workers) -> int:
    """``None`` means one worker per core; anything else is a count of at least 1."""
    return (os.cpu_count() or 1) if workers is None else _count(workers, 1, "workers")


def _metric(name, dim: int) -> str:
    """``name``, one of ``METRIC_NAMES``, for points of ``dim`` coordinates: d1/d2 need 2."""
    if name not in METRIC_NAMES:
        raise InputError(f"unknown metric {name!r}; expected one of {METRIC_NAMES}")
    if name in ("d1", "d2", "d1+d2") and dim != 2:
        raise InputError(f"metric {name!r} needs dim 2, got dim {dim}")
    return name


def _booleans(x) -> bool:
    """Whether ``x`` is a boolean or a boolean array, or holds one within
    two levels of lists and tuples; rows of floats cost one type scan."""
    if not isinstance(x, (list, tuple)):
        return isinstance(x, (bool, np.bool_)) or getattr(x, "dtype", None) == bool
    items = list(chain(x, *(v for v in x if isinstance(v, (list, tuple)))))
    kinds = set(map(type, items))
    return not kinds.isdisjoint((bool, np.bool_, np.ndarray)) and any(map(_booleans, items))


def _point_rows(points, what: str = "point coordinates", convert=np.asarray) -> np.ndarray:
    """``convert(points, dtype=float)`` as an n x dim array of finite
    coordinates, a flat list being n points of dim 1. Ragged, non-numeric,
    boolean, non-finite or deeper input is an InputError that starts
    ``f"{what} must form a numeric n x dim array"``."""
    refuse = f"{what} must form a numeric n x dim array"
    if _booleans(points):
        raise InputError(f"{refuse}, got a boolean")
    try:
        pts = convert(points, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{refuse}: {exc}") from exc
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2:
        raise InputError(f"{refuse}, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise InputError(f"{refuse} of finite values, got NaN or infinity")
    return pts


class PointCloud:
    """Immutable ordered collection of labeled points in R^dim."""

    __slots__ = ("_points", "_labels")

    def __init__(self, points, labels: Sequence[str] | None = None):
        pts = _point_rows(points, convert=np.array)
        if pts.shape[0] == 0 or pts.shape[1] == 0:
            raise InputError("point cloud must be a nonempty n x dim array")
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != pts.shape[0]:
                raise InputError("label count does not match point count")
            if len(set(labels)) != len(labels):
                raise InputError("point labels must be unique")
        pts.setflags(write=False)
        self._points = pts
        self._labels = labels

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def labels(self) -> tuple[str, ...] | None:
        return self._labels

    @property
    def dim(self) -> int:
        return self._points.shape[1]

    def __len__(self) -> int:
        return self._points.shape[0]

    def label(self, i: int) -> str:
        return self._labels[i] if self._labels is not None else f"x{i}"

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "points": [
                {"label": self.label(i), "coords": coords}
                for i, coords in enumerate(self._points.tolist())
            ],
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PointCloud":
        try:
            dim = int(obj["dim"])
            rows = obj["points"]
            coords = [row["coords"] for row in rows]
            labels = [row["label"] for row in rows] if rows and "label" in rows[0] else None
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed point-cloud JSON: {exc}") from exc
        cloud = cls(coords, labels)
        if cloud.dim != dim:
            raise InputError(f"declared dim {dim} does not match coords of dim {cloud.dim}")
        return cloud

    def save(self, path: str | Path) -> None:
        path = Path(path)
        if path.suffix == ".json":
            path.write_text(json.dumps(self.to_dict(), indent=2) + "\n", encoding="utf-8")
            return
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["label"] + [f"x{j + 1}" for j in range(self.dim)])
            for i in range(len(self)):
                writer.writerow([self.label(i)] + [repr(float(v)) for v in self._points[i]])

    @classmethod
    def from_csv(cls, path: str | Path) -> "PointCloud":
        rows = list(_csv_rows(path))
        if len(rows) < 2:
            raise InputError(f"{path}: expected a header row and at least one point")
        labels, coords = [], []
        for row in rows[1:]:
            if not row:
                continue
            labels.append(row[0])
            try:
                coords.append([float(v) for v in row[1:]])
            except ValueError as exc:
                raise InputError(f"{path}: bad coordinate in row {row!r}: {exc}") from exc
        return cls(coords, labels)


def _read_text(path: str | Path) -> str:
    """The UTF-8 text of a file, line endings untranslated; undecodable
    bytes raise an InputError that names the file."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise InputError(f"{path}: not UTF-8 text: {exc}") from exc


def _csv_rows(path: str | Path):
    return csv.reader(io.StringIO(_read_text(path), newline=""))


def _parse_json(text: str, source) -> object:
    """``json.loads`` that reports any text it rejects as an InputError."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"{source}: malformed JSON: {exc}") from exc


def _read_json(path: str | Path) -> object:
    return _parse_json(_read_text(path), path)


def load_point_cloud(path: str | Path) -> PointCloud:
    """Load a cloud from ``.json`` or ``.csv`` (dispatch on suffix)."""
    path = Path(path)
    if path.suffix == ".json":
        return PointCloud.from_dict(_read_json(path))
    return PointCloud.from_csv(path)


def random_cloud(
    n: int, dim: int = 2, seed: int = 0, low: float = 0.0, high: float = 1.0
) -> PointCloud:
    """Seeded uniform cloud in ``[low, high)^dim``.

    The generator is pinned to PCG64 with a single row-major
    ``uniform(low, high, size=(n, dim))`` draw, so a given seed reproduces
    the same cloud on any platform.
    """
    n, dim, seed = _count(n, 1, "n"), _count(dim, 1, "dim"), _count(seed, 0, "seed")
    if not (np.isfinite(high - low) and low <= high):
        raise InputError(f"need finite bounds with low <= high, got [{low}, {high})")
    rng = np.random.Generator(np.random.PCG64(seed))
    pts = rng.uniform(low, high + 0.0, size=(n, dim))  # numpy reads a -0.0 high as a negative range
    return PointCloud(pts, [f"x{i}" for i in range(n)])


def _float_matrix(entries, convert=np.asarray) -> np.ndarray:
    """``convert(entries, dtype=float)``; ragged or non-numeric entries are an InputError."""
    try:
        return convert(entries, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"distance matrix must be a numeric square array: {exc}") from exc


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.isfinite(m).all() for m in arrays):
        raise InputError("distance matrix contains NaN or infinite entries")


def _require_symmetric(m: np.ndarray) -> None:
    if not np.array_equal(m, m.T):
        raise InputError("distance matrix must be exactly symmetric")


class DistanceMatrix:
    """Symmetric nonnegative matrix with zero diagonal.

    The structural invariants (symmetry, zero diagonal, nonnegativity) are
    validated exactly on construction -- not within a tolerance. The
    triangle inequality is deliberately NOT an invariant: several distance
    functions materialized here fail it, and the checkers must be able to
    see that.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries):
        m = _float_matrix(entries, np.array)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InputError("distance matrix must be square and nonempty")
        _require_finite(m)
        if np.any(m < 0.0):
            raise InputError("distance matrix has negative entries")
        if np.any(np.diagonal(m) != 0.0):
            raise InputError("distance matrix diagonal must be exactly zero")
        _require_symmetric(m)
        m.setflags(write=False)
        self._entries = m

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def __call__(self, i: int, j: int) -> float:
        return float(_pairs(self, [i], [j])[0])

    def to_dict(self) -> dict:
        return {"n": self.n, "entries": self._entries.tolist()}

    @classmethod
    def from_dict(cls, obj: dict) -> "DistanceMatrix":
        try:
            n = int(obj["n"])
            entries = obj["entries"]
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InputError(f"malformed distance-matrix JSON: {exc}") from exc
        dm = cls(entries)
        if dm.n != n:
            raise InputError(f"declared n {n} does not match {dm.n} rows")
        return dm

    def save(self, path: str | Path) -> None:
        """Write ``.csv`` (excel dialect, one row per line) or, for any other
        suffix, JSON in the layout of ``json.dumps(self.to_dict(), indent=2)``.

        Every entry is written as its ``float.__repr__``, so a load gives back
        the same bits. The text is formatted in ``_bands`` of rows by
        ``_band_text`` on one process per core, up to one per band. Each
        band writes its text to a file of its own in a temporary directory
        and returns the length of each piece, and once every band is done the
        rows are copied from those files: the pool carries lengths, not text,
        and no process holds more than one band's text.
        """
        path = Path(path)
        sep = "," if path.suffix == ".csv" else ",\n      "
        bands = _bands(self.n, _worker_count(None))
        with tempfile.TemporaryDirectory() as tmp, ExitStack() as stack:
            names = [os.path.join(tmp, str(b)) for b in range(len(bands))]
            with _runner(self._entries, len(bands)) as run:
                sizes = run(_band_text, [(*band, sep, name) for band, name in zip(bands, names)])
            files = [stack.enter_context(open(name, "rb")) for name in names]
            rows = _band_rows(bands, files, sizes, sep.encode())
            with open(path, "wb") as fh:
                if path.suffix == ".csv":
                    for row in rows:
                        fh.write(row + b"\r\n")
                    return
                head = f'{{\n  "n": {self.n},\n  "entries": [\n'.encode()
                for row in rows:
                    fh.write(head + b"    [\n      " + row + b"\n    ]")
                    head = b",\n"
                fh.write(b"\n  ]\n}\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "DistanceMatrix":
        try:
            rows = [[float(v) for v in row] for row in _csv_rows(path) if row]
        except ValueError as exc:
            raise InputError(f"{path}: bad matrix entry: {exc}") from exc
        return cls(rows)


def _bands(n: int, workers: int) -> list[tuple[int, int]]:
    """Row bands ``[r0, r1)`` of an n-point matrix that split its n(n+1)/2
    upper-triangle entries, diagonal included, into equal parts: one per
    worker, but none below ``_BAND_ENTRIES`` entries, and at least one."""
    total = n * (n + 1) // 2
    parts = max(1, min(workers, total // _BAND_ENTRIES))
    above = np.concatenate([[0], np.cumsum(np.arange(n, 0, -1))])  # entries in rows < i
    cuts = np.unique(np.searchsorted(above, [total * k // parts for k in range(parts + 1)]))
    return [(int(r0), int(r1)) for r0, r1 in zip(cuts[:-1], cuts[1:])]


def _band_rows(bands, files, sizes, sep: bytes):
    """Yield the bytes of each row from the open ``_band_text`` ``files``
    of the ``bands`` and the lengths ``sizes`` of their pieces: row i is the
    next piece of each band above its own (its column text), then the next
    piece of its own band (its row text). Each file is read in the order it
    was written."""
    lengths = [iter(s) for s in sizes]
    for b, (r0, r1) in enumerate(bands):
        for _ in range(r0, r1):
            yield sep.join([fh.read(next(n)) for fh, n in zip(files[: b + 1], lengths)])


def _band_text(m: np.ndarray, r0: int, r1: int, sep: str, out: str) -> list[int]:
    """Write the text of the row band ``[r0, r1)`` of a symmetric matrix to
    the file ``out``, entries as ``float.__repr__`` joined by ``sep``: each
    row from column r0 on, then for each later column c >= r1 its entries
    in the band's rows, which are row c's entries in the band's columns.
    Return the length of each of these pieces, in that order.

    Each symmetric pair of the band is formatted once: the band's upper
    triangle with the diagonal, mirrored below it. An entry whose bits
    differ from its mirror's (``0.0`` against ``-0.0``, which the ``==``
    symmetry check accepts) gets its own repr.
    """
    size = r1 - r0
    upper = [list(map(float.__repr__, m[i, i:].tolist())) for i in range(r0, r1)]
    # padded[j][c] for c > j: the text of entry (r0 + c, r0 + j), its mirror's
    # unless their bits differ
    padded = [[None] * j + row for j, row in enumerate(upper)]
    bits = m.view(np.uint64)
    for c, j in zip(*np.nonzero(np.tril(bits[r0:, r0:r1] != bits[r0:r1, r0:].T, -1))):
        padded[j][c] = repr(float(m[r0 + c, r0 + j]))
    below = list(zip(*padded))  # below[c][j] = padded[j][c]
    del padded
    cols = [sep.join(col) for col in below[size:]]
    del below[size:]
    # last row first: once a row is joined, the strings of its upper part
    # are in texts already and are freed with it
    rows = [sep.join([*below.pop()[:i], *upper.pop()]) for i in reversed(range(size))]
    pieces = rows[::-1] + cols
    with open(out, "w", encoding="ascii", newline="") as fh:
        fh.writelines(pieces)
    return [len(p) for p in pieces]


def _as_entries(d, n: int | None = None) -> np.ndarray:
    """The nonempty square array behind a DistanceMatrix, an array or
    nested list, or a callable ``(i, j) -> float`` oracle over ``n`` points.

    An oracle is read once: n(n-1)/2 calls fill the upper triangle
    (``i < j``), which is mirrored below a zero diagonal.
    """
    if isinstance(d, DistanceMatrix):
        return d.entries
    if callable(d):
        if n is None or n < 1:
            raise InputError(f"a callable oracle needs a point count n >= 1, got {n}")
        m = np.zeros((n, n))
        for i in range(n):
            for j in range(i + 1, n):
                m[i, j] = m[j, i] = d(i, j)
        return m
    arr = _float_matrix(d)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InputError("expected a square, nonempty distance matrix")
    return arr


def _pairs(d, rows, cols) -> np.ndarray:
    """The entries ``(rows[t], cols[t])`` of a distance input: an oracle called on
    each pair in turn, or ``_as_entries`` at the indices ``_index`` reads."""
    if callable(d) and not isinstance(d, DistanceMatrix):  # a DistanceMatrix is callable too
        return np.array([float(d(i, j)) for i, j in zip(rows, cols)])
    e = _as_entries(d)
    rows, cols = ([_index(i, e.shape[0], "point index") for i in ix] for ix in (rows, cols))
    return e[rows, cols]


def load_distance_matrix(path: str | Path, workers: int | None = None) -> DistanceMatrix:
    """Load a matrix from ``.csv`` or, for any other suffix, JSON.

    A JSON file is read as ``DistanceMatrix.from_dict(json.loads(text))``
    reads it, with the same bits, errors and messages. A file of at least
    ``2 * _BAND_ENTRIES`` declared entries in the layout
    ``{"n": <digits>, "entries": [<rows>]}``, JSON whitespace allowed between
    tokens, takes a fast path: its rows are cut into pieces at row breaks
    ``]``, ``,``, ``[``, one per worker of ``workers`` (default one per core)
    but none below ``_BAND_ENTRIES`` entries, and ``_read_rows`` decodes each
    piece into a float64 array on the process pool. The file is read the
    exact way instead when the fast path finds anything else: another
    layout, a row that is not a flat list of numbers, ragged rows, a
    separator between rows other than a comma and JSON whitespace, or a
    number that does not convert. A worker count below 1 is an InputError,
    whatever the file.
    """
    workers = _worker_count(workers)
    path = Path(path)
    if path.suffix == ".csv":
        return DistanceMatrix.from_csv(path)
    text = _read_text(path)
    matrix = _read_matrix(text, workers)
    return DistanceMatrix.from_dict(_parse_json(text, path)) if matrix is None else matrix


def _read_matrix(text: str, workers: int) -> DistanceMatrix | None:
    """The fast path of ``load_distance_matrix``: the matrix of a JSON
    matrix file, or None where the exact path must read it."""
    head = re.match(_MATRIX_HEAD, text)
    n = int(head[1]) if head else 0
    if n * n < 2 * _BAND_ENTRIES:
        return None
    # the tail is read from the end, not searched for through the rows
    window = text[-256:]
    tail = re.search(_MATRIX_TAIL, window)
    if tail is None:
        return None
    start, end = head.end(), len(text) - len(window) + tail.start()
    if end <= start:
        return None
    parts = max(1, min(workers, n * n // _BAND_ENTRIES))
    row_break = re.compile(_ROW_BREAK)
    pieces, at = [], start
    for k in range(1, parts):
        cut = row_break.search(text, max(at, start + (end - start) * k // parts), end)
        if cut is None:
            break
        pieces.append((at, cut.start() + 1))
        at = cut.end() - 1
    pieces.append((at, end))
    with _runner(text, len(pieces)) as run:
        rows = run(_read_rows, pieces)
    if any(r is None for r in rows) or len({r.shape[1] for r in rows}) > 1:
        return None
    return DistanceMatrix.from_dict({"n": n, "entries": [row for piece in rows for row in piece]})


def _read_rows(text: str, start: int, end: int) -> np.ndarray | None:
    """The rows of the piece ``text[start:end]``, JSON lists of numbers
    separated by a comma and JSON whitespace, as one float64 array; None
    when the piece holds anything else. Each row is decoded in place with
    ``raw_decode`` and written into the array, so the piece is never
    copied and no list holds more than one row."""
    decode, gap = json.JSONDecoder().raw_decode, re.compile(_ROW_GAP)
    out, count, at = None, 0, start
    try:
        while True:
            row, at = decode(text, at)
            if type(row) is not list or not set(map(type, row)) <= {float, int}:
                return None
            if out is None:  # each flat row closes with one of the piece's "]"
                out = np.empty((text.count("]", start, end), len(row)))
            out[count] = row  # a ragged row raises
            count += 1
            if at == end:
                return out[:count]
            sep = gap.match(text, at, end)
            if sep is None:
                return None
            at = sep.end()
    except Exception:  # the exact path reads the file and reports what it finds
        return None


def _norms(diff: np.ndarray, metric: str) -> np.ndarray:
    """The Euclidean or taxicab norm of each coordinate-difference row along
    the last axis of ``diff``; a norm past the float range reads inf."""
    with np.errstate(over="ignore"):
        if metric == "taxicab":
            return np.sum(np.abs(diff), axis=-1)
        squares = np.sum(diff * diff, axis=-1)
        d = np.sqrt(squares)
        # Where the sum of squares may hold a subnormal square or overflows,
        # take the norm again in units of the power of two of its largest
        # term, which puts the largest square in [1/4, 1). An all-zero
        # difference (a diagonal entry) already has its norm 0; a sum of
        # squares 0 from subnormal differences does not, so the rows are
        # told apart by their largest term, not by the sum.
        off = (squares < 2.0**-969) | (squares == np.inf)
        if off.any():
            at = np.flatnonzero(off)
            rows = diff.reshape(-1, diff.shape[-1])[at]
            big = np.abs(rows).max(axis=-1, initial=0.0)
            keep = big > 0
            top = np.frexp(big[keep])[1]
            terms = np.ldexp(rows[keep], -top[:, None])
            d.reshape(-1)[at[keep]] = np.ldexp(np.sqrt(np.sum(terms * terms, axis=-1)), top)
        return d


def _cross(a: np.ndarray, b: np.ndarray, metric: str) -> np.ndarray:
    """The named ``metric``'s distance from each row of ``a`` to each row
    of ``b``, as a (len(a), len(b)) array; a distance past the float range
    reads inf."""
    with np.errstate(over="ignore"):
        if metric in ("euclidean", "taxicab"):
            return _norms(a[:, None, :] - b[None, :, :], metric)
        du = np.abs(a[:, 0][:, None] - b[:, 0][None, :])
        dv = np.abs(a[:, 1][:, None] - b[:, 1][None, :])
        if metric == "d1":
            return du + np.arctan(dv)
        if metric == "d2":
            return dv + np.arctan(du)
        return (du + np.arctan(dv)) + (dv + np.arctan(du))


def _row_blocks(n: int) -> list[tuple[int, int]]:
    """Consecutive row blocks ``[r0, r1)`` of an n x n matrix whose upper
    parts ``[r0, r1) x [r0, n)`` hold at most ``_STEP_BYTES`` of float64
    entries each, and at least one row: the single block ``(0, n)`` when
    the whole matrix fits."""
    per_block = _STEP_BYTES // 8
    blocks, r0 = [], 0
    while r0 < n:
        r1 = min(n, r0 + max(1, per_block // (n - r0)))
        blocks.append((r0, r1))
        r0 = r1
    return blocks


def _mirrored(n: int, block) -> list[np.ndarray]:
    """Symmetric n x n matrices from their upper row blocks: ``block(r0,
    r1)`` gives each matrix's entries over rows ``[r0, r1)`` and columns
    ``[r0, n)``, for the ``_row_blocks`` of n. Each block is written in
    place and copied into its mirror, the columns ``[r0, r1)`` of the rows
    below it. When one block covers the matrix, its arrays are returned as
    they are."""
    blocks = _row_blocks(n)
    if len(blocks) <= 1:
        return block(0, n)
    outs = None
    for r0, r1 in blocks:
        parts = block(r0, r1)
        if outs is None:
            outs = [np.empty((n, n)) for _ in parts]
        for out, part in zip(outs, parts):
            out[r0:r1, r0:] = part
            out[r1:, r0:r1] = part[:, r1 - r0 :].T
    return outs


def pairwise_distances(points: np.ndarray, metric: str | MetricFn) -> np.ndarray:
    """Dense pairwise distances under a named metric or a scalar callable.

    A named metric is ``_cross`` over the upper row blocks of the matrix,
    mirrored below the diagonal (``_mirrored``). A callable is read as an
    ``(i, j)`` oracle by ``_as_entries``, which fills the upper triangle and
    mirrors it, so user-supplied functions give exactly symmetric matrices.
    The points are read by ``_point_rows`` (a flat list is n points of dim
    1) and a metric name by ``_metric``; what either refuses is an InputError.
    """
    pts = _point_rows(points)
    n = pts.shape[0]
    if callable(metric):
        return _as_entries(lambda i, j: metric(pts[i], pts[j]), n)
    _metric(metric, pts.shape[1])
    return _mirrored(n, lambda r0, r1: [_cross(pts[r0:r1], pts[r0:], metric)])[0]


def build_distance_matrix(cloud: PointCloud, metric: str | MetricFn = "euclidean") -> DistanceMatrix:
    """Materialize the full distance matrix of a cloud under a base metric."""
    return DistanceMatrix(pairwise_distances(cloud.points, metric))

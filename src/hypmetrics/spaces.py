"""Point clouds, base distance functions, and distance-matrix materialization.

Everything downstream (the punctured-space constructors, the four-point
delta engine, the inequality checkers) consumes either a ``DistanceMatrix``
or a bare ``(i, j) -> float`` oracle built here.

Base distances:

* ``euclidean_distance`` -- the l2 distance in any dimension.
* ``taxicab_distance``   -- sum of coordinate differences, any dimension.
* ``arctan_split_distance`` -- the planar metrics
  ``d1(x, y) = |x1 - y1| + arctan|x2 - y2|`` and
  ``d2(x, y) = |x2 - y2| + arctan|x1 - y1|``, plus their sum ``d1 + d2``
  (the sum fails to be Gromov hyperbolic even though d1 and d2 are).

Each formula lives once, in the vectorized ``pairwise_distances``; the
scalar functions are views of it, evaluating it on the two-row stack of
their arguments, so a matrix built from them equals the named matrix bit
for bit.

The Euclidean and taxicab formulas take coordinate differences on
coordinates scaled up by an exact power of two when their largest
magnitude lies below 2^-500 (``_unit_scale``), and scale the distances
back; coordinates are never scaled down, so none is rounded. A coordinate
difference overflows only where the distance overflows too, and reads inf
as the distance does. A Euclidean entry whose sum of squares underflows or
overflows is taken again in units of the power of two of its largest
coordinate difference, so a point next to another keeps its distance even
when the cloud spans the float range.

Matrix files are byte-stable: ``DistanceMatrix.save`` writes the bytes of
``json.dumps(m.to_dict(), indent=2)`` (or of a ``csv.writer`` of ``repr``
rows), streamed row by row from one grid of reprs that formats each
symmetric pair once.
"""

from __future__ import annotations

import csv
import io
import json
import math
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .errors import InputError

Vector = Sequence[float]
MetricFn = Callable[[Vector, Vector], float]

#: Metric selector strings accepted everywhere a base metric is named.
METRIC_NAMES = ("euclidean", "taxicab", "d1", "d2", "d1+d2")

#: Arrays whose largest magnitude lies in [2^-500, 2^500] are used as given:
#: their squares and pairwise products neither underflow nor overflow.
_SAFE_EXPONENT = 500


def _vec_pair(x: Vector, y: Vector) -> tuple[np.ndarray, np.ndarray]:
    a = np.asarray(x, dtype=float)
    b = np.asarray(y, dtype=float)
    if a.ndim != 1 or b.ndim != 1 or a.shape != b.shape:
        raise InputError(
            f"coordinate vectors must share one dimension, got shapes {a.shape} and {b.shape}"
        )
    return a, b


def _pair_distance(a: np.ndarray, b: np.ndarray, metric: str) -> float:
    """Entry (0, 1) of ``pairwise_distances`` on the two-row stack of a and b."""
    return float(pairwise_distances(np.stack([a, b]), metric)[0, 1])


def euclidean_distance(x: Vector, y: Vector) -> float:
    """l2 distance between two coordinate vectors of equal dimension."""
    return _pair_distance(*_vec_pair(x, y), "euclidean")


def taxicab_distance(x: Vector, y: Vector) -> float:
    """Sum of absolute coordinate differences (dimension-agnostic)."""
    return _pair_distance(*_vec_pair(x, y), "taxicab")


def arctan_split_distance(which: str, x: Vector, y: Vector) -> float:
    """One of the planar arctan-split metrics: ``d1``, ``d2``, or their sum.

    ``d1 = |x1-y1| + arctan|x2-y2|``; ``d2`` swaps the coordinate roles;
    ``sum`` returns ``d1 + d2``. Points must be 2-dimensional.
    """
    a, b = _vec_pair(x, y)
    if a.shape[0] != 2:
        raise InputError(f"arctan-split metrics need dim 2, got dim {a.shape[0]}")
    if which not in ("d1", "d2", "sum", "d1+d2"):
        raise InputError(f"unknown arctan-split selector {which!r} (want d1, d2, or sum)")
    return _pair_distance(a, b, "d1+d2" if which == "sum" else which)


class PointCloud:
    """Immutable ordered collection of labeled points in R^dim."""

    __slots__ = ("_points", "_labels")

    def __init__(self, points, labels: Sequence[str] | None = None):
        try:
            pts = np.array(points, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"point coordinates must form a numeric n x dim array: {exc}") from exc
        if pts.ndim == 1:
            pts = pts.reshape(-1, 1)
        if pts.ndim != 2 or pts.shape[0] == 0 or pts.shape[1] == 0:
            raise InputError("point cloud must be a nonempty n x dim array")
        if not np.all(np.isfinite(pts)):
            raise InputError("point cloud contains NaN or infinite coordinates")
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
    """``json.loads`` that reports malformed text as an InputError."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
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
    if n < 1:
        raise InputError("need n >= 1 points")
    if dim < 1:
        raise InputError("need dim >= 1")
    if not (np.isfinite(high - low) and low <= high):
        raise InputError(f"need finite bounds with low <= high, got [{low}, {high})")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    pts = rng.uniform(low, high + 0.0, size=(n, dim))  # numpy reads a -0.0 high as a negative range
    return PointCloud(pts, [f"x{i}" for i in range(n)])


def _unit_scale(a: np.ndarray) -> tuple[np.ndarray, int]:
    """``(a * 2^-e, e)``: ``e`` brings the largest magnitude of ``a`` into
    [1/2, 1) when it lies below 2^-500; ``(a, 0)`` otherwise, and when it is
    zero. Arrays are scaled up, never down, so the scaling is exact."""
    top = max(float(a.max(initial=0.0)), -float(a.min(initial=0.0)))
    if top >= 2.0**-_SAFE_EXPONENT or top == 0.0:
        return a, 0
    e = math.frexp(top)[1]
    return np.ldexp(a, -e), e


def _require_finite(m: np.ndarray) -> None:
    if not np.all(np.isfinite(m)):
        raise InputError("distance matrix contains NaN or infinite entries")


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
        try:
            m = np.array(entries, dtype=float)
        except (TypeError, ValueError) as exc:
            raise InputError(f"distance matrix must be a numeric square array: {exc}") from exc
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] == 0:
            raise InputError("distance matrix must be square and nonempty")
        _require_finite(m)
        if np.any(m < 0.0):
            raise InputError("distance matrix has negative entries")
        if np.any(np.diagonal(m) != 0.0):
            raise InputError("distance matrix diagonal must be exactly zero")
        if not np.array_equal(m, m.T):
            raise InputError("distance matrix must be exactly symmetric")
        m.setflags(write=False)
        self._entries = m

    @property
    def entries(self) -> np.ndarray:
        return self._entries

    @property
    def n(self) -> int:
        return self._entries.shape[0]

    def __call__(self, i: int, j: int) -> float:
        return float(self._entries[i, j])

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

        Both are streamed row by row from ``_repr_rows``; every entry is
        written as its ``float.__repr__``, so a load gives back the same bits.
        """
        path = Path(path)
        rows = _repr_rows(self._entries)
        if path.suffix == ".csv":
            with open(path, "w", newline="", encoding="utf-8") as fh:
                for row in rows:
                    fh.write(",".join(row) + "\r\n")
            return
        with open(path, "w", encoding="utf-8") as fh:
            sep = f'{{\n  "n": {self.n},\n  "entries": [\n'
            for row in rows:
                fh.write(sep + "    [\n      " + ",\n      ".join(row) + "\n    ]")
                sep = ",\n"
            fh.write("\n  ]\n}\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "DistanceMatrix":
        try:
            rows = [[float(v) for v in row] for row in _csv_rows(path) if row]
        except ValueError as exc:
            raise InputError(f"{path}: bad matrix entry: {exc}") from exc
        return cls(rows)


def _repr_rows(m: np.ndarray):
    """The rows of a symmetric matrix as ``float.__repr__`` strings.

    Each symmetric pair is formatted once: the upper triangle with the
    diagonal, mirrored below it. An entry whose bits differ from its
    mirror's (``0.0`` against ``-0.0``, which the ``==`` symmetry check
    accepts) gets its own repr.
    """
    upper = [list(map(float.__repr__, m[i, i:].tolist())) for i in range(m.shape[0])]
    bits = m.view(np.uint64)
    for i, tail in enumerate(upper):
        row = [upper[j][i - j] for j in range(i)] + tail
        for j in np.flatnonzero(bits[i, :i] != bits[:i, i]):
            row[j] = repr(float(m[i, j]))
        yield row


def _as_entries(d, n: int | None = None) -> np.ndarray:
    """The nonempty square array behind a DistanceMatrix, an array, or a
    callable ``(i, j) -> float`` oracle over ``n`` points.

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
    arr = np.asarray(d, dtype=float)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1] or arr.shape[0] == 0:
        raise InputError("expected a square, nonempty distance matrix")
    return arr


def load_distance_matrix(path: str | Path) -> DistanceMatrix:
    path = Path(path)
    if path.suffix == ".csv":
        return DistanceMatrix.from_csv(path)
    return DistanceMatrix.from_dict(_read_json(path))


def _norms(diff: np.ndarray, metric: str) -> np.ndarray:
    """The Euclidean or taxicab norm of each coordinate-difference row along
    the last axis of ``diff``; a norm past the float range reads inf."""
    with np.errstate(over="ignore"):
        if metric == "taxicab":
            return np.sum(np.abs(diff), axis=-1)
        squares = np.sum(diff * diff, axis=-1)
        d = np.sqrt(squares)
        # Where the sum of squares underflows or overflows, take the norm
        # again in units of the power of two of its largest term, which
        # puts the largest square in [1/4, 1).
        off = (squares < np.finfo(float).tiny) | (squares == np.inf)
        top = np.frexp(np.abs(diff[off]).max(axis=-1, initial=0.0))[1]
        terms = np.ldexp(diff[off], -top[:, None])
        d[off] = np.ldexp(np.sqrt(np.sum(terms * terms, axis=-1)), top)
        return d


def pairwise_distances(points: np.ndarray, metric: str | MetricFn) -> np.ndarray:
    """Dense pairwise distances under a named metric or a scalar callable.

    The named paths are vectorized; a callable is read as an ``(i, j)``
    oracle by ``_as_entries``, which fills the upper triangle and mirrors
    it, so user-supplied functions give exactly symmetric matrices.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    n = pts.shape[0]
    if callable(metric):
        return _as_entries(lambda i, j: metric(pts[i], pts[j]), n)
    if metric in ("euclidean", "taxicab"):
        unit, e = _unit_scale(pts)  # the squares of a tiny cloud do not underflow
        with np.errstate(over="ignore"):  # a distance past the float range reads inf
            d = _norms(unit[:, None, :] - unit[None, :, :], metric)
            return np.ldexp(d, e) if e else d
    if metric in ("d1", "d2", "d1+d2"):
        if pts.shape[1] != 2:
            raise InputError(f"metric {metric!r} needs dim 2, got dim {pts.shape[1]}")
        with np.errstate(over="ignore"):  # a distance past the float range reads inf
            du = np.abs(pts[:, 0][:, None] - pts[:, 0][None, :])
            dv = np.abs(pts[:, 1][:, None] - pts[:, 1][None, :])
            if metric == "d1":
                return du + np.arctan(dv)
            if metric == "d2":
                return dv + np.arctan(du)
            return (du + np.arctan(dv)) + (dv + np.arctan(du))
    raise InputError(f"unknown metric {metric!r}; expected one of {METRIC_NAMES}")


def build_distance_matrix(cloud: PointCloud, metric: str | MetricFn = "euclidean") -> DistanceMatrix:
    """Materialize the full distance matrix of a cloud under a base metric."""
    return DistanceMatrix(pairwise_distances(cloud.points, metric))

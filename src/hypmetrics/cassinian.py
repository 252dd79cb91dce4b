"""Hyperbolic-type metric constructors over punctured spaces.

Given a base distance ``d`` on a finite set X and punctures
P = {p_1, ..., p_k}, this module builds the distance functions living on
D = X \\ P:

* ``tau_p``        -- log(1 + 2 d(x,y) / sqrt(d(x,p) d(y,p))); a metric on
                      any base space.
* ``tilde_tau_p``  -- log(1 + d(x,y) / sqrt(d(x,p) d(y,p))); the one-point
                      scale-invariant Cassinian distance. Not a metric in
                      general, a metric when the base space is Ptolemaic.
* ``avg_tau`` / ``tilde_avg_tau`` -- arithmetic means of the one-point
                      functions over P.
* ``sup_tau``      -- pointwise maximum over P.
* ``j_metric`` / ``j_tilde_metric`` -- boundary-distance variants using
                      dist(x, P) = min_i d(x, p_i).
* ``mu_p`` / ``mu_P`` -- the auxiliary quantities
                      d(x,y) + sqrt(d(x,p) d(y,p)) and their product over P,
                      which carry the quasi-triangle machinery the checkers
                      exercise.

All constructors are ratios of base distances (scale-invariant), except the
mu family, which keeps base units.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, PunctureDomainError
from .spaces import (
    METRIC_NAMES,
    DistanceMatrix,
    PointCloud,
    _as_entries,
    _unit_scale,
    pairwise_distances,
)

LOG2 = math.log(2.0)

#: Variant selector strings accepted by PuncturedSpec and the CLI.
VARIANTS = ("tau_p", "tilde_tau_p", "avg_tau", "tilde_avg_tau", "sup_tau", "j", "j_tilde")

#: Variants that measure from a single anchor puncture.
ONE_POINT_VARIANTS = ("tau_p", "tilde_tau_p")

Oracle = Callable[[int, int], float]


def as_oracle(d) -> Oracle:
    """Normalize a DistanceMatrix, a square ndarray, or a callable to an
    ``(i, j) -> float`` evaluation."""
    if callable(d):  # a DistanceMatrix evaluates itself
        return d
    if isinstance(d, np.ndarray):
        entries = _as_entries(d)
        return lambda i, j: float(entries[i, j])
    raise InputError(f"expected a DistanceMatrix, ndarray, or callable oracle, got {type(d)!r}")


def _mu(dxy, gx, gy):
    """d(x,y) + sqrt(d(x,p) d(y,p)) over broadcastable arrays of base
    distances ``dxy`` and anchor distances ``gx``, ``gy``."""
    return dxy + np.sqrt(gx * gy)


def _tau(dxy, gx, gy, factor: float):
    """log(1 + factor d(x,y) / sqrt(d(x,p) d(y,p))): tau_p for factor 2,
    tilde_tau_p for factor 1."""
    return np.log1p(factor * dxy / np.sqrt(gx * gy))


def _fold(op, start: float, dxy, gx, gy, factor: float):
    """Reduce the one-point values over the puncture axis, one 2-D step per
    puncture, so no array with a puncture axis is materialized."""
    out = np.full_like(dxy, start)
    for a in range(len(gx)):
        op(out, _tau(dxy, gx[a], gy[a], factor), out=out)
    return out


def _variant_values(variant: str, dxy, gx, gy, anchor: int | None):
    """The single formula of each variant.

    ``dxy`` holds base distances d(x,y); ``gx[a]`` and ``gy[a]`` hold the
    gaps d(x,p_a) and d(y,p_a) to puncture a. The axes after the puncture
    axis broadcast: ``punctured_matrix`` passes (n,n), (k,n,1) and (k,1,n),
    the scalar constructors a 0-d distance and (k,) gaps.
    """
    factor = 1.0 if variant.startswith("tilde") else 2.0
    if variant in ONE_POINT_VARIANTS:
        return _tau(dxy, gx[anchor], gy[anchor], factor)
    if variant in ("avg_tau", "tilde_avg_tau"):
        return _fold(np.add, 0.0, dxy, gx, gy, factor) / len(gx)
    if variant == "sup_tau":
        return _fold(np.maximum, -np.inf, dxy, gx, gy, factor)
    if variant in ("j", "j_tilde"):
        t1 = np.log1p(dxy / gx.min(axis=0))
        t2 = np.log1p(dxy / gy.min(axis=0))
        return 0.5 * (t1 + t2) if variant == "j" else np.maximum(t1, t2)
    raise InputError(f"unknown variant {variant!r}")  # PuncturedSpec validates


def _anchor_gaps(o: Oracle, x: int, punctures: Sequence[int]) -> np.ndarray:
    gaps = np.array([o(x, p) for p in punctures], dtype=float)
    hit = np.flatnonzero(gaps <= 0.0)
    if hit.size:
        raise PunctureDomainError(f"point {x} lies on puncture {punctures[hit[0]]}")
    return gaps


def _scalar(variant: str, d, x: int, y: int, punctures: Sequence[int], anchor=None) -> float:
    """One entry of ``variant``: the oracle's values as a 0-d distance and
    (k,) gaps, through the formula ``punctured_matrix`` uses."""
    if len(punctures) < 1:
        raise InputError("need at least one puncture")
    o = as_oracle(d)
    gx = _anchor_gaps(o, x, punctures)
    gy = _anchor_gaps(o, y, punctures)
    return float(_variant_values(variant, np.asarray(o(x, y), dtype=float), gx, gy, anchor))


def mu_p(d, x: int, y: int, p: int) -> float:
    """d(x,y) + sqrt(d(x,p) d(y,p)). Defined everywhere, including x = p."""
    return mu_P(d, x, y, [p])


def mu_P(d, x: int, y: int, punctures: Sequence[int]) -> float:
    """Product of mu_p over the puncture list."""
    o = as_oracle(d)
    gx = np.array([o(x, p) for p in punctures], dtype=float)
    gy = np.array([o(y, p) for p in punctures], dtype=float)
    return math.prod(_mu(o(x, y), gx, gy).tolist(), start=1.0)


def tau_p(d, x: int, y: int, p: int) -> float:
    """log(1 + 2 d(x,y) / sqrt(d(x,p) d(y,p))), in natural-log units.

    A metric on the punctured set for any base metric.
    """
    return _scalar("tau_p", d, x, y, [p], 0)


def tilde_tau_p(d, x: int, y: int, p: int) -> float:
    """log(1 + d(x,y) / sqrt(d(x,p) d(y,p))).

    Symmetric, nonnegative, zero iff x = y, but the triangle inequality can
    fail unless the base space is Ptolemaic.
    """
    return _scalar("tilde_tau_p", d, x, y, [p], 0)


def avg_tau(d, x: int, y: int, punctures: Sequence[int]) -> float:
    """Arithmetic mean of tau_p over the punctures; a metric on D."""
    return _scalar("avg_tau", d, x, y, punctures)


def tilde_avg_tau(d, x: int, y: int, punctures: Sequence[int]) -> float:
    """Arithmetic mean of tilde_tau_p over the punctures."""
    return _scalar("tilde_avg_tau", d, x, y, punctures)


def sup_tau(d, x: int, y: int, punctures: Sequence[int]) -> float:
    """Pointwise maximum of tau_p over the punctures; a metric on D.

    No hyperbolicity bound is asserted for this variant.
    """
    return _scalar("sup_tau", d, x, y, punctures)


def j_metric(d, x: int, y: int, punctures: Sequence[int]) -> float:
    """(1/2)[log(1 + d(x,y)/dist(x,P)) + log(1 + d(x,y)/dist(y,P))]."""
    return _scalar("j", d, x, y, punctures)


def j_tilde_metric(d, x: int, y: int, punctures: Sequence[int]) -> float:
    """max of the two logs averaged by ``j_metric``."""
    return _scalar("j_tilde", d, x, y, punctures)


class PuncturedSpec:
    """A base space, a puncture set, and a metric-variant selection.

    ``base`` is a PointCloud (with a named base ``metric``) or a raw
    DistanceMatrix over X. ``punctures`` are either indices into X (removed
    from the domain) or, for cloud bases, explicit coordinate rows placed
    outside the cloud. ``anchor`` is a position in the puncture list and is
    required by the one-point variants when k > 1 (it defaults to 0 when
    k = 1).
    """

    __slots__ = ("base", "metric", "punctures", "variant", "anchor", "_by_index")

    def __init__(
        self,
        base: PointCloud | DistanceMatrix,
        punctures,
        variant: str = "tau_p",
        anchor: int | None = None,
        metric: str = "euclidean",
    ):
        if variant not in VARIANTS:
            raise InputError(f"unknown variant {variant!r}; expected one of {VARIANTS}")
        if not isinstance(base, (PointCloud, DistanceMatrix)):
            raise InputError("base must be a PointCloud or a DistanceMatrix")
        if isinstance(base, PointCloud) and metric not in METRIC_NAMES:
            raise InputError(f"unknown metric {metric!r}; expected one of {METRIC_NAMES}")
        punctures = list(punctures)
        if len(punctures) == 0:
            raise InputError("need at least one puncture")

        by_index = all(isinstance(p, (int, np.integer)) for p in punctures)
        if by_index:
            n = base.n if isinstance(base, DistanceMatrix) else len(base)
            punctures = [int(p) for p in punctures]
            if len(set(punctures)) != len(punctures):
                raise InputError("puncture indices must be pairwise distinct")
            for p in punctures:
                if not 0 <= p < n:
                    raise InputError(f"puncture index {p} out of range for n={n}")
            if len(punctures) >= n:
                raise InputError("punctures exhaust the space: empty domain")
            self.punctures = tuple(punctures)
        else:
            if isinstance(base, DistanceMatrix):
                raise InputError("punctures over a raw matrix must be indices into it")
            try:
                coords = np.array(punctures, dtype=float)
            except (TypeError, ValueError) as exc:
                raise InputError(f"puncture coordinates must be numeric: {exc}") from exc
            if coords.ndim == 1:
                coords = coords.reshape(-1, 1)
            if coords.ndim != 2 or coords.shape[1] != base.dim:
                raise InputError(
                    f"puncture coordinates must be k x {base.dim}, got shape {coords.shape}"
                )
            if not np.all(np.isfinite(coords)):
                raise InputError("puncture coordinates contain NaN or infinity")
            for a in range(coords.shape[0]):
                for b in range(a + 1, coords.shape[0]):
                    if np.array_equal(coords[a], coords[b]):
                        raise InputError(f"punctures {a} and {b} coincide")
            coords.setflags(write=False)
            self.punctures = coords

        k = len(self.punctures)
        if anchor is None and variant in ONE_POINT_VARIANTS:
            if k == 1:
                anchor = 0
            else:
                raise InputError(f"variant {variant!r} needs an anchor when k={k} > 1")
        if anchor is not None:
            try:
                anchor = int(anchor)
            except (TypeError, ValueError, OverflowError) as exc:
                raise InputError(f"anchor must be an integer, got {anchor!r}") from exc
            if not 0 <= anchor < k:
                raise InputError(f"anchor {anchor} out of range for k={k} punctures")

        self.base = base
        self.metric = metric
        self.variant = variant
        self.anchor = anchor
        self._by_index = by_index

    @property
    def k(self) -> int:
        return len(self.punctures)

    @property
    def punctures_are_indices(self) -> bool:
        return self._by_index

    def with_variant(self, variant: str, anchor: int | None = None) -> "PuncturedSpec":
        return PuncturedSpec(
            self.base,
            list(self.punctures) if self._by_index else np.asarray(self.punctures),
            variant,
            self.anchor if anchor is None else anchor,
            self.metric,
        )

    def to_dict(self) -> dict:
        base = self.base.to_dict()
        punctures = (
            list(self.punctures)
            if self._by_index
            else [[float(v) for v in row] for row in self.punctures]
        )
        return {
            "base": base,
            "metric": self.metric,
            "punctures": punctures,
            "variant": self.variant,
            "anchor": self.anchor,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PuncturedSpec":
        try:
            base_obj = obj["base"]
            punctures = obj["punctures"]
            variant = obj["variant"]
        except (KeyError, TypeError) as exc:
            raise InputError(f"malformed punctured-spec JSON: {exc}") from exc
        if isinstance(base_obj, dict) and "entries" in base_obj:
            base: PointCloud | DistanceMatrix = DistanceMatrix.from_dict(base_obj)
        elif isinstance(base_obj, dict):
            base = PointCloud.from_dict(base_obj)
        else:
            raise InputError("spec base must be an inline cloud or matrix object")
        return cls(
            base,
            punctures,
            variant,
            obj.get("anchor"),
            obj.get("metric", "euclidean"),
        )


def _materialize(spec: PuncturedSpec) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Base distances restricted to the domain.

    Returns ``(dom, gaps, domain_indices)`` where ``dom[i, j]`` is the base
    distance between surviving points and ``gaps[i, a]`` the distance from
    surviving point i to puncture a, both in units of a power of two:
    ``_unit_scale`` takes the base distances into a range where gap
    products neither underflow nor overflow. Every variant is a ratio of
    base distances, so an exact power-of-two unit leaves it unchanged.
    Raises PunctureDomainError when a domain point touches a puncture.
    """
    if isinstance(spec.base, DistanceMatrix):
        full = spec.base.entries
    else:
        pts = spec.base.points
        if not spec.punctures_are_indices:
            pts = np.vstack([pts, np.asarray(spec.punctures, dtype=float)])
        full = pairwise_distances(pts, spec.metric)
    full = _unit_scale(full)[0]
    if spec.punctures_are_indices:
        n = full.shape[0]
        pset = set(spec.punctures)
        dom_idx = [i for i in range(n) if i not in pset]
        p_idx = list(spec.punctures)
        for a in range(len(p_idx)):
            for b in range(a + 1, len(p_idx)):
                if full[p_idx[a], p_idx[b]] == 0.0:
                    raise InputError(
                        f"punctures {p_idx[a]} and {p_idx[b]} sit at distance zero"
                    )
        dom = full[np.ix_(dom_idx, dom_idx)]
        gaps = full[np.ix_(dom_idx, p_idx)]
    else:
        n = len(spec.base)
        dom_idx = list(range(n))
        dom = full[:n, :n]
        gaps = full[:n, n:]
        sub = full[n:, n:]
        k = gaps.shape[1]
        for a in range(k):
            for b in range(a + 1, k):
                if sub[a, b] == 0.0:
                    raise InputError(f"punctures {a} and {b} sit at distance zero")
    if dom.shape[0] == 0:
        raise InputError("empty domain after removing punctures")
    hit = np.argwhere(gaps == 0.0)
    if hit.size:
        i, a = int(hit[0, 0]), int(hit[0, 1])
        raise PunctureDomainError(
            f"domain point {dom_idx[i]} lies on puncture {a} (base distance is zero)"
        )
    return dom, gaps, dom_idx


def punctured_matrix(spec: PuncturedSpec) -> DistanceMatrix:
    """Materialize the selected variant over the domain D = X minus P.

    Rows/columns follow the surviving points in their original order. The
    output satisfies the DistanceMatrix structural invariants by
    construction; whether it satisfies the triangle inequality is a theorem
    about the variant, not a guarantee of this function. Each entry equals
    the matching scalar constructor bit for bit: both evaluate the same
    formula. Base distances spanning more than the float range leave NaN or
    infinite values, which the DistanceMatrix rejects (``InputError``).
    """
    dom, gaps, _ = _materialize(spec)
    by_puncture = np.ascontiguousarray(gaps.T)  # contiguous rows keep the products vectorised
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        values = _variant_values(
            spec.variant, dom, by_puncture[:, :, None], by_puncture[:, None, :], spec.anchor
        )
    return DistanceMatrix(values)

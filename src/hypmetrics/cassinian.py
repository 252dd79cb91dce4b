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
mu family, which keeps base units. Scalar ones read the entries of ``d`` they
need by ``spaces._pairs``, which checks every index.
Against 80-digit ``decimal`` values on line bases (integer points times 2^e,
|e| <= 1000, k <= 5: 1.1M entries; 100 bases of points +-2^e, e in [-1074, 1020])
every variant entry was within 2.3 ulps, and mu_P within 0.8, 1.9, 2.6 and 4.0
ulps at k = 1, 2, 3 and 5; tests/test_reference.py allows 3 ulps and k + 1.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .errors import InputError, PunctureDomainError
from .spaces import (
    DistanceMatrix,
    PointCloud,
    _cross,
    _index,
    _metric,
    _mirrored,
    _pairs,
    _point_rows,
)

LOG2 = math.log(2.0)

#: Variant selector strings accepted by PuncturedSpec and the CLI.
VARIANTS = ("tau_p", "tilde_tau_p", "avg_tau", "tilde_avg_tau", "sup_tau", "j", "j_tilde")

#: Variants that measure from a single anchor puncture.
ONE_POINT_VARIANTS = ("tau_p", "tilde_tau_p")

def _least_gap(g) -> float:
    """The smallest nonzero entry of an array of gaps, inf when none is."""
    least = float(g.min(initial=np.inf))
    return least if least > 0.0 else float(g.min(initial=np.inf, where=g > 0.0))


def _root(gx, gy, out=None, dxy=None):
    """sqrt(d(x,p) d(y,p)) over broadcastable arrays of anchor distances,
    or with ``dxy`` the ratio d(x,y) / sqrt(d(x,p) d(y,p)), written to
    ``out`` when it is given.

    Where a gap product leaves the normal range, each gap is written as
    m 2^e with e even, and the root is sqrt(mx my) scaled back by
    2^((ex + ey) / 2), the ratio the mantissa of d(x,y) over sqrt(mx my),
    scaled back once. Both scalings are exact but for the rounding of a
    subnormal result, so such an entry has the bits it has at any
    power-of-two scale where its product is in range.
    Every other entry is sqrt(gx gy) and d(x,y) over it. The guard reads
    only the smallest nonzero gaps and the largest ones: a zero gap needs
    no scale."""
    tiny = np.finfo(float).tiny
    # Python floats: a product past the float range reads inf, silently
    least = _least_gap(gx) * _least_gap(gy)
    most = float(gx.max(initial=0.0)) * float(gy.max(initial=0.0))
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        value = np.multiply(gx, gy, out=out)
        # None when no nonzero product leaves the normal range
        off = None if least >= tiny and most < math.inf else (value < tiny) | (value == np.inf)
        np.sqrt(value, out=value)
        if dxy is not None:
            np.divide(dxy, value, out=value)
        if off is not None and off.any():
            (mx, ex), (my, ey) = (_even_frexp(np.broadcast_to(g, off.shape)[off]) for g in (gx, gy))
            root, half = np.sqrt(mx * my), (ex + ey) // 2
            if dxy is None:
                value[off] = np.ldexp(root, half)
            else:
                md, ed = np.frexp(np.broadcast_to(dxy, off.shape)[off])
                value[off] = np.ldexp(md / root, ed - half)
    return value


def _even_frexp(g):
    """``(m, e)`` with g = m 2^e exactly, e even and m in [1/2, 2) (0 at 0)."""
    m, e = np.frexp(g)
    odd = e & 1
    return np.ldexp(m, odd), e - odd


def _mu(dxy, gx, gy):
    """d(x,y) + sqrt(d(x,p) d(y,p)) over broadcastable arrays of base
    distances ``dxy`` and anchor distances ``gx``, ``gy``."""
    return dxy + _root(gx, gy)


def _log1p_ratio(ratio, factor: float, out, wide: bool, dxy, gaps):
    """log(1 + factor ratio) into ``out`` (a new array when it is None), for
    ``ratio`` = d(x,y) over the geometric mean of the arrays ``gaps``. The
    factor multiplies the ratio, so a distance near the top of the float
    range does not overflow first. Where the product still overflows, which
    ``wide`` says can happen, the entry is log(factor) + log d(x,y) minus
    the mean of the log gaps: finite, and within rounding of the exact
    value. Every other entry keeps the bits of the log1p."""
    out = np.log1p(ratio if factor == 1.0 else np.multiply(factor, ratio, out=out), out=out)
    if wide:
        over = out == np.inf
        if over.any():
            log_den = sum(np.log(g) for g in gaps) / len(gaps)
            np.copyto(out, math.log(factor) + np.log(dxy) - log_den, where=over)
    return out


#: The factor of each ratio variant: log(1 + factor d(x,y) / sqrt(d(x,p) d(y,p))).
_FACTORS = {"tau_p": 2.0, "tilde_tau_p": 1.0, "avg_tau": 2.0, "tilde_avg_tau": 1.0, "sup_tau": 2.0}
#: The fold of each variant over the punctures, and the value it starts from.
_FOLDS = {
    "avg_tau": (np.add, 0.0),
    "tilde_avg_tau": (np.add, 0.0),
    "sup_tau": (np.maximum, -np.inf),
}


def _walk(cells, dxy, gx, gy) -> list:
    """The values of each ``(variant, k, anchor)`` cell: ``variant`` over
    the first k punctures, and a one-point variant over its anchor.

    ``dxy`` holds base distances d(x,y); ``gx[a]`` and ``gy[a]`` hold the
    gaps d(x,p_a) and d(y,p_a) to puncture a. The axes after the puncture
    axis broadcast: ``_punctured_matrices`` passes a row block, (b,m),
    (k,b,1) and (k,1,m), the scalar constructors a (1,) distance and (k,1)
    gaps. The guards below (``wide``, ``zero``, and ``_root``'s) are taken
    over the arrays of one call: a block's largest ratio is at most the
    whole matrix's, so a guard is false only where no entry of the block
    needs its fallback, and each entry has the same bits in any block.

    The walk visits each puncture once, in order, the outermost loop. At a
    puncture some ratio cell needs it takes the ratio d(x,y) /
    sqrt(d(x,p) d(y,p)) once, by ``_root``, and log1p(factor ratio) once per
    factor needed there (``_FACTORS``), in two buffers of the block's size reused
    for every puncture. A one-point cell copies the term of its anchor. Each
    averaged or supremum variant keeps one running fold (``_FOLDS``), and
    its cell over k punctures is a snapshot of that fold after the first k:
    divided by k for an average, copied for the supremum, and the fold
    itself at the variant's largest k. A snapshot is the fold over a prefix
    of the same terms in the same order, so it has the bits of a fold over
    those k punctures alone. The j variants keep the running minimum of the
    gaps, dist(x, P). Every variant is 0 at base distance 0, so those
    entries are +0.0, whatever the sign of that zero.
    """
    shape = np.broadcast_shapes(np.shape(dxy), gx.shape[1:], gy.shape[1:])
    ends = [anchor + 1 if v in ONE_POINT_VARIANTS else k for v, k, anchor in cells]
    last = max(ends)
    factors = [set() for _ in range(last)]  # the terms each puncture gives
    reach = {}  # each folded variant's largest k
    for (variant, k, anchor), end in zip(cells, ends):
        if variant not in VARIANTS:
            raise InputError(f"unknown variant {variant!r}")  # PuncturedSpec validates
        if variant in _FOLDS:
            reach[variant] = max(reach.get(variant, 0), k)
        if variant in _FACTORS:  # a one-point cell needs its anchor alone
            for a in range(end - 1 if variant in ONE_POINT_VARIANTS else 0, end):
                factors[a].add(_FACTORS[variant])
    folds = {v: np.full(shape, _FOLDS[v][1]) for v in reach}
    bufs = [np.empty(shape) for _ in range(max(map(len, factors)))]
    least = min(_least_gap(gx[:last]), _least_gap(gy[:last]))
    # Python floats: a quotient past the float range reads inf, silently.
    # Every denominator is at least the least gap up to rounding; 4, not 2,
    # leaves a margin for it.
    wide = 4.0 * float(np.max(dxy, initial=0.0)) / least == math.inf
    zero = np.flatnonzero(np.equal(dxy, 0.0))
    lo = gx[0], gy[0]  # running dist(x, P), dist(y, P)
    snaps = {}
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        for a in range(last):
            terms = {}
            if factors[a]:
                ratio = _root(gx[a], gy[a], out=bufs[0], dxy=dxy)
                # the largest factor first: the last term overwrites the ratio
                order = sorted(factors[a], reverse=True)
                for factor, buf in zip(order, bufs[len(order) - 1 :: -1]):
                    terms[factor] = _log1p_ratio(ratio, factor, buf, wide, dxy, (gx[a], gy[a]))
            for variant, fold in folds.items():
                if a < reach[variant]:
                    _FOLDS[variant][0](fold, terms[_FACTORS[variant]], out=fold)
            lo = np.minimum(lo[0], gx[a]), np.minimum(lo[1], gy[a])
            for (variant, k, anchor), end in zip(cells, ends):
                key = (variant, end)
                if end != a + 1 or key in snaps:
                    continue
                if variant in ONE_POINT_VARIANTS:
                    values = terms[_FACTORS[variant]].copy()
                elif variant in _FOLDS:
                    fold = folds[variant]
                    done = k == reach[variant]  # no later cell reads the fold
                    if variant == "sup_tau":
                        values = fold if done else fold.copy()
                    else:
                        values = np.divide(fold, k, out=fold if done else None)
                else:
                    t1, t2 = (_log1p_ratio(dxy / g, 1.0, None, wide, dxy, (g,)) for g in lo)
                    values = 0.5 * (t1 + t2) if variant == "j" else np.maximum(t1, t2)
                values.flat[zero] = 0.0
                snaps[key] = values
    return [snaps[variant, end] for (variant, _, _), end in zip(cells, ends)]


def _scalar(variant: str, d, x: int, y: int, punctures: Sequence[int], anchor=None) -> float:
    """One entry of ``variant``: ``d``'s values as a (1,) distance and
    (k, 1) gaps, through the walk ``punctured_matrix`` takes: each entry
    is the same float operations on the same operands."""
    k = len(punctures)
    if k < 1:
        raise InputError("need at least one puncture")
    raw = _pairs(d, [x] * (k + 1) + [y] * k, [y, *punctures, *punctures])
    gx, gy = raw[1 : k + 1, None], raw[k + 1 :, None]
    for point, gaps in ((x, gx), (y, gy)):
        hit = np.flatnonzero(gaps <= 0.0)
        if hit.size:
            raise PunctureDomainError(f"point {point} lies on puncture {punctures[hit[0]]}")
    return float(_walk([(variant, k, anchor)], raw[:1], gx, gy)[0][0])


def mu_p(d, x: int, y: int, p: int) -> float:
    """d(x,y) + sqrt(d(x,p) d(y,p)). Defined everywhere, including x = p."""
    return mu_P(d, x, y, [p])


def mu_P(d, x: int, y: int, punctures: Sequence[int]) -> float:
    """Product of mu_p over the puncture list."""
    k = len(punctures)
    raw = _pairs(d, [x] * (k + 1) + [y] * k, [y, *punctures, *punctures])
    return math.prod(_mu(raw[0], raw[1 : k + 1], raw[k + 1 :]).tolist(), start=1.0)


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


def _resolve_anchor(variant: str, anchor, k: int) -> int | None:
    """The anchor of ``variant`` over k punctures: checked against k, and 0
    for a one-point variant with k = 1 when none is given."""
    if anchor is None and variant in ONE_POINT_VARIANTS:
        if k == 1:
            return 0
        raise InputError(f"variant {variant!r} needs an anchor when k={k} > 1")
    return None if anchor is None else _index(anchor, k, "anchor")


class PuncturedSpec:
    """A base space, a puncture set, and a metric-variant selection.

    ``base`` is a PointCloud (with a named base ``metric``) or a raw
    DistanceMatrix over X. ``punctures`` is a list (tuple, range or array)
    of either indices into X (removed from the domain) or, for cloud bases,
    explicit coordinate rows placed outside the cloud, read as a cloud's
    points are (``spaces._point_rows``). A boolean is refused as an index
    and as a coordinate.
    ``anchor`` is an integer position in the puncture list and is required
    by the one-point variants when k > 1 (it defaults to 0 when k = 1).
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
        if isinstance(base, PointCloud):
            _metric(metric, base.dim)
        listed = isinstance(punctures, (list, tuple, range, np.ndarray))
        if not listed or getattr(punctures, "ndim", 1) == 0:
            raise InputError(f"punctures must be a list, got {type(punctures).__name__}")
        punctures = list(punctures)
        if len(punctures) == 0:
            raise InputError("need at least one puncture")

        # a boolean is an int, and _index refuses it
        by_index = all(isinstance(p, (int, np.integer)) for p in punctures)
        if by_index:
            n = base.n if isinstance(base, DistanceMatrix) else len(base)
            punctures = [_index(p, n, "puncture index") for p in punctures]
            if len(set(punctures)) != len(punctures):
                raise InputError("puncture indices must be pairwise distinct")
            if len(punctures) >= n:
                raise InputError("punctures exhaust the space: empty domain")
            self.punctures = tuple(punctures)
        else:
            if isinstance(base, DistanceMatrix):
                raise InputError("punctures over a raw matrix must be indices into it")
            coords = _point_rows(punctures, "puncture coordinates", np.array)
            if coords.shape[1] != base.dim:
                raise InputError(
                    f"puncture coordinates must be k x {base.dim}, got shape {coords.shape}"
                )
            coincide = np.argwhere(np.triu((coords[:, None] == coords[None]).all(axis=2), 1))
            if coincide.size:
                a, b = coincide[0]
                raise InputError(f"punctures {a} and {b} coincide")
            coords.setflags(write=False)
            self.punctures = coords

        self.base = base
        self.metric = metric
        self.variant = variant
        self.anchor = _resolve_anchor(variant, anchor, len(self.punctures))
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


def _materialize(spec: PuncturedSpec) -> tuple[Callable, np.ndarray, list[int]]:
    """The base distances of ``spec``, read on demand.

    Returns ``(dist, gaps, domain_indices)``. ``dist(a, b)`` is the array
    of base distances from the points of index list ``a`` to those of
    ``b``: a gather of a matrix base's entries, or ``spaces._cross`` of a
    cloud's points, with coordinate punctures appended after them as
    points n to n+k-1. ``gaps[i, a]`` is the distance from surviving point
    i to puncture a, as given: ``_root`` rescales each gap product that
    leaves the normal range from its own operands.
    Raises PunctureDomainError when a domain point touches a puncture.
    """
    base = spec.base
    if isinstance(base, DistanceMatrix):
        n, entries = base.n, base.entries
        dist = lambda a, b: entries[np.ix_(a, b)]
    else:
        n, pts = len(base), base.points
        if not spec.punctures_are_indices:
            pts = np.vstack([pts, spec.punctures])
        dist = lambda a, b: _cross(pts[a], pts[b], spec.metric)
    punctures = list(spec.punctures) if spec.punctures_are_indices else list(range(n, n + spec.k))
    pset = set(punctures)
    dom_idx = [i for i in range(n) if i not in pset]
    coincide = np.argwhere(np.triu(dist(punctures, punctures) == 0.0, 1))
    if coincide.size:
        a, b = coincide[0]
        raise InputError(f"punctures {punctures[a]} and {punctures[b]} sit at distance zero")
    gaps = dist(dom_idx, punctures)
    hit = np.argwhere(gaps == 0.0)
    if hit.size:
        i, a = int(hit[0, 0]), int(hit[0, 1])
        raise PunctureDomainError(
            f"domain point {dom_idx[i]} lies on puncture {a} (base distance is zero)"
        )
    return dist, gaps, dom_idx


def _punctured_matrices(spec: PuncturedSpec, cells) -> list[np.ndarray]:
    """The matrix of each ``(variant, k)`` cell: ``variant`` over the first
    k punctures of ``spec``, with its anchor, from one ``_materialize`` and
    one ``_walk``.

    The walk is outermost over the punctures: each puncture's root and
    ratio d(x,y) / sqrt(d(x,p) d(y,p)) are taken once and shared by every
    cell, and log1p once per factor. A folded cell over k punctures is a
    snapshot of its variant's running fold after the first k, so the cells
    of one variant at k = 1, 2, 4, 8 cost one fold over 8 punctures, and
    each equals the fold over its k punctures alone bit for bit.

    Every cell is symmetric in (x, y), so the walk runs once per upper row
    block ``[r0, r1) x [r0, n)`` of the domain, on its base distances
    ``dist(dom[r0:r1], dom[r0:])``, read for that block alone, and the gap
    rows of those points, and ``spaces._mirrored`` copies each block into
    its mirror: entry (y, x) is the same float operations as (x, y) on
    swapped operands, and an entry at base distance 0 is +0.0 whatever the
    sign of that zero. A walk holds one fold per folded
    variant and at most two buffers of a block's size, each block within
    ``_STEP_BYTES``. A domain that fits one block (n <= 256) is walked
    once, and its cells are the walk's own arrays. The cells are neither
    copied nor checked: each consumer checks what it reads, once. Only the
    public ``punctured_matrix`` wraps its one matrix, in a
    ``DistanceMatrix``.

    With coordinate punctures a cell equals ``punctured_matrix`` of the spec
    cut to ``punctures[:k]`` bit for bit: the domain is the whole cloud
    either way, and each base distance is computed on its own, so the first
    k gap columns are that spec's gaps, and those of index punctures n to
    n+k-1 of the cloud with the k points appended.
    Index punctures leave the domain, so their cells take all k of them.
    """
    if spec.punctures_are_indices and any(k != spec.k for _, k in cells):
        raise ValueError(f"index punctures leave the domain: every cell needs k={spec.k}")
    walk = [(variant, k, _resolve_anchor(variant, spec.anchor, k)) for variant, k in cells]
    dist, gaps, dom = _materialize(spec)
    by_puncture = np.ascontiguousarray(gaps.T)  # contiguous rows keep the products vectorised
    return _mirrored(len(dom), lambda r0, r1: _walk(
        walk, dist(dom[r0:r1], dom[r0:]), by_puncture[:, r0:r1, None], by_puncture[:, None, r0:]
    ))


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
    return DistanceMatrix(_punctured_matrices(spec, [(spec.variant, spec.k)])[0])

"""Numerical verification of metric axioms and the mu-family inequalities.

Every checker is a pure function of its inputs (seed included) returning a
ViolationReport. The comparison convention throughout: an inequality
LHS <= RHS passes when

    LHS <= RHS + tol * max(1, |LHS|, |RHS|)

with ``tol`` defaulting to 1e-9, written once, in ``_allowance``. The
inequalities are exact in real arithmetic; the slack only absorbs
floating-point error, so any violation beyond it is a genuine bug (or a
genuine counterexample, which is the point of several of these checks).

Comparisons are vectorized and read index columns lazily: a check passes
open index meshes (``np.arange(n)[:, None]``) that broadcast against
``lhs - rhs``, and indices, lhs and rhs are decoded only at the positions
that fail. A report's ``worst_slack`` is its largest non-NaN slack; a NaN
slack is never a violation. Since the scale is at least 1, no entry can
fail when the block's largest slack is at most ``tol``; such a block skips
the scale and failure passes. The exhaustive sweeps hold one bounded block
at a time, so their memory does not grow with the number of comparisons:
the triangle sweep compares blocks of ``_CHECK_ELEMENTS`` (x, y, z)
entries, at least one row of x, and the Ptolemy sweep walks the exact delta
kernel's grids, ``delta._middle_grids``: one step's four float64
``(i < j, g, l > k0)`` grids at a time for a fixed j, within the kernel's
one step budget, ``delta._STEP_BYTES`` (16K entries a grid). Both sweeps
need finite entries (``InputError`` otherwise), and so do the sandwich, on
both sides, and the sampled lemma checkers. The Ptolemy sweep and the
lemma checkers also reject entries beyond 2^500 in magnitude (their
products would overflow); the Ptolemy sweep, which reads one triangle,
rejects a matrix that is not exactly symmetric, and the lemma checkers an
anchor or puncture index outside the matrix.

The triangle sweep is one loop over blocks of rows x. On a bitwise
symmetric matrix (its ``uint64`` view equals its transpose's, so 0.0
against -0.0 does not qualify) slack(y, x, z) is the same float operation
on the same operands as slack(x, y, z), so a block from x0 evaluates only
y >= x0 while every earlier block had nothing to report; once a block's
largest slack exceeds ``tol``, every later block evaluates y from that
block's x0. Each skipped slack mirrors one in an earlier block that
passed, so the report counts all n^3 comparisons and lists the same
violations, in row-major order, as a sweep over every triple. Each block
adds d(x,z) + d(z,y) into one reused scratch buffer and takes the least
sum over z: fl(a - s) falls as s grows, so d(x,y) minus that least sum is
exactly the block's largest slack. Only a block whose largest slack
exceeds ``tol`` turns the sums into slacks and materializes its
right-hand sides.

The lemma checkers read mu_p, each puncture's mu_i (on the last, contiguous
axis) and log mu_P (the sum of the logs over that axis) through one
evaluator, ``_mu_rows``; the product lemma builds both of its sides from
one read of the mu_i. A checker that evaluates N index rows in all gets an
n x n table of every pair when n^2 <= N, filled in row blocks of at most
``_CHECK_ELEMENTS`` entries, and gathers its rows from it; otherwise it
evaluates the rows themselves. Both give the same bits.

The quasi-Ptolemy checkers make one pass over a batch of 4x4 arrays in
blocks of ``_CHECK_ELEMENTS // 16`` arrays, each transposed into one
reused (16, B) buffer, so the pass holds one block whatever N is. On a
block that is finite, nonnegative and symmetric under ``==`` the
hypothesis evaluates 24 of its 64 index triples: one with k in {i, j}
holds, and (i, j, k) with i > j repeats the comparison of (j, i, k). Any
other block evaluates all 64. The conclusions read only the rows where
the hypothesis holds, whose entries must be at most 2^500 in magnitude,
with 1 <= K < 2^511. Violations are listed by conclusion, in batch-row
order, and the failing triples in ``_QP_TRIPLES`` order.

Product-form inequalities (the 9^k split bound and the (27/2)^k
quasi-triangle family) are evaluated in the log domain so k up to the
dozens cannot overflow; their recorded lhs/rhs/slack values are in log
units.

Sampled checkers draw index tuples uniformly with a seeded PCG64 stream
and always prepend a fixed battery of degenerate tuples (repeated indices,
anchor coincidences) so the edge cases are never left to chance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .cassinian import LOG2, PuncturedSpec, _mu, _punctured_matrices
from .delta import _drop_corner, _middle_grids
from .errors import InputError
from .spaces import (
    _SAFE_EXPONENT,
    PointCloud,
    _as_entries,
    _require_finite,
    _require_symmetric,
    pairwise_distances,
)

DEFAULT_TOL = 1e-9

#: The punctured variants (lower, upper) each sandwich kind compares.
SANDWICH_PAIRS = {"tau": ("tilde_tau_p", "tau_p"), "avg": ("tilde_avg_tau", "avg_tau")}

#: Entries of one comparison block in the triangle sweep (at least one row
#: of x) and in the quasi-Ptolemy pass (``_CHECK_ELEMENTS // 16`` arrays);
#: bounds the checkers' temporaries independently of n and N.
_CHECK_ELEMENTS = 1 << 18


@dataclass
class Violation:
    kind: str
    indices: tuple[int, ...]
    lhs: float
    rhs: float
    slack: float

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "indices": [int(i) for i in self.indices],
            "lhs": self.lhs,
            "rhs": self.rhs,
            "slack": self.slack,
        }


@dataclass
class ViolationReport:
    checked: int
    violations: list[Violation]
    tolerance: float
    worst_slack: float
    meta: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_dict(self) -> dict:
        return {
            "checked": self.checked,
            "violations": [v.to_dict() for v in self.violations],
            "tolerance": self.tolerance,
            "worst_slack": self.worst_slack,
            "meta": self.meta,
        }


def _allowance(lhs, rhs, tol: float):
    """The slack ``tol * max(1, |lhs|, |rhs|)`` that lhs <= rhs is allowed,
    entrywise over broadcasting arrays."""
    return tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))


class _Collector:
    """Accumulates vectorized LHS <= RHS comparisons into one report."""

    def __init__(self, tol: float):
        if not 0.0 < tol < math.inf:
            raise InputError("tolerance must be positive and finite")
        self.tol = tol
        self.checked = 0
        self.worst = -math.inf
        self.violations: list[Violation] = []

    def compare(self, kind: str, index_cols, lhs, rhs, where=None) -> None:
        """Compare ``lhs <= rhs`` over the broadcast shape of ``lhs - rhs``.

        ``index_cols`` broadcast against that shape (1-D columns, or open
        meshes such as ``np.arange(n)[:, None]``); they, ``lhs`` and ``rhs``
        are read only where a comparison fails. Entries outside the boolean
        ``where`` are neither compared nor counted. Violations keep
        row-major order.
        """
        lhs = np.asarray(lhs, dtype=float)
        rhs = np.asarray(rhs, dtype=float)
        with np.errstate(invalid="ignore"):
            slack = np.atleast_1d(np.subtract(lhs, rhs))
        if slack.size == 0:
            return
        if where is not None:
            self.checked += int(np.count_nonzero(np.broadcast_to(where, slack.shape)))
            np.copyto(slack, -np.inf, where=~where)
        else:
            self.checked += int(slack.size)
        self.collect(kind, index_cols, lhs, rhs, slack)

    def collect(self, kind: str, index_cols, lhs, rhs, slack: np.ndarray) -> float:
        """Take a block of ``slack = lhs - rhs`` into the report: its largest
        non-NaN entry into ``worst_slack``, and its entries beyond the
        tolerance as violations, in row-major order, and return that
        largest entry. The operands broadcast against ``slack`` and are read
        only at those entries. A NaN slack (such as -inf - -inf from two zero
        products in the log domain) is never a violation."""
        worst = float(np.fmax.reduce(slack, axis=None))  # NaN only if every entry is
        if worst > self.worst:
            self.worst = worst
        if not worst > self.tol:  # the scale is at least 1, so nothing fails
            return worst
        fails = np.flatnonzero(slack > _allowance(lhs, rhs, self.tol))
        pos = np.unravel_index(fails, slack.shape)

        def at_bad(a) -> list:
            return np.broadcast_to(a, slack.shape)[pos].tolist()

        cols = [at_bad(c) for c in index_cols]
        for t, (lv, rv, sv) in enumerate(zip(at_bad(lhs), at_bad(rhs), slack[pos].tolist())):
            self.violations.append(
                Violation(kind, tuple(int(c[t]) for c in cols), float(lv), float(rv), float(sv))
            )
        return worst

    def report(self, **meta) -> ViolationReport:
        worst = self.worst if self.checked else -math.inf
        return ViolationReport(self.checked, self.violations, self.tol, worst, dict(meta))


def _pair_mesh(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Open row and column index meshes of an n x n matrix, ``(n, 1)`` and
    ``(1, n)``, and its strict upper triangle as a boolean mask."""
    ar = np.arange(n)
    rows, cols = ar[:, None], ar[None, :]
    return rows, cols, rows < cols


def _degenerate_tuples(n: int, arity: int, anchors: tuple[int, ...]) -> np.ndarray:
    """Every ``arity``-tuple over 0, 1, n - 1 and the in-range ``anchors``
    (at most two, so at most 5**arity tuples)."""
    base = sorted({0, min(1, n - 1), n - 1} | {a for a in anchors if 0 <= a < n})
    rows = list(product(base, repeat=arity))
    return np.array(rows, dtype=np.int64).reshape(len(rows), arity)


def _sample_tuples(
    n: int, arity: int, samples: int, seed: int, anchors: tuple[int, ...] = ()
) -> np.ndarray:
    """Degenerate battery plus ``samples`` uniform index tuples."""
    if samples < 0:
        raise InputError(f"need samples >= 0, got {samples}")
    rng = np.random.Generator(np.random.PCG64(int(seed)))
    battery = _degenerate_tuples(n, arity, anchors)
    rnd = rng.integers(0, n, size=(int(samples), arity), dtype=np.int64)
    return np.vstack([battery, rnd])


# ---------------------------------------------------------------------------
# metric axioms and Ptolemy


def check_metric_axioms(m, tol: float = DEFAULT_TOL) -> ViolationReport:
    """Symmetry, zero diagonal, nonnegativity, and the triangle inequality
    over all ordered triples.

    ``meta["offdiagonal_positive"]`` flags whether every off-diagonal entry
    is strictly positive (duplicate points make it False without being a
    violation).

    The triangle sweep lists violations in (x, y, z) row-major order. On a
    bitwise symmetric matrix (its ``uint64`` view equals its transpose's)
    a block of rows from x0 evaluates only y >= x0 until some block has a
    slack beyond ``tol``; from that block on, y starts at its x0. Every
    skipped slack is bit for bit one in an earlier block that passed, so
    the report is that of the sweep over every triple. A block's largest
    slack is d(x,y) - min_z (d(x,z) + d(z,y)), exactly, since rounding is
    monotone; only a block where that exceeds ``tol`` computes every slack
    and looks for violations.
    """
    e = _as_entries(m)
    _require_finite(e)
    n = e.shape[0]
    col = _Collector(tol)
    rows, cols, upper = _pair_mesh(n)

    col.compare("symmetry", (rows, cols), np.abs(e - e.T), 0.0, where=upper)
    col.compare("diagonal", (cols[0],), np.abs(np.diagonal(e)), 0.0)
    col.compare("nonnegative", (rows, cols), -e, 0.0)

    # y starts at min(x0, lo); a bitwise symmetric e holds d(z, y) at [y, z]
    bits = e.view(np.uint64)
    lo, e_zy = (n, e) if np.array_equal(bits, bits.T) else (0, e.T)
    step = max(1, _CHECK_ELEMENTS // (n * n))
    buf = np.empty(step * n * n)
    with np.errstate(over="ignore"):  # an inf sum bounds anything
        for x0 in range(0, n, step):
            chunk, y0 = e[x0 : x0 + step], min(x0, lo)
            xs = np.arange(x0, x0 + chunk.shape[0])[:, None, None]
            sums = buf[: xs.size * (n - y0) * n].reshape(xs.size, n - y0, n)
            np.add(chunk[:, None, :], e_zy[None, y0:], out=sums)  # d(x,z) + d(z,y)
            # fl(a - s) falls as s grows: the largest slack is a - min_z s
            worst = float(np.subtract(chunk[:, y0:], sums.min(axis=2)).max())
            if not worst > col.tol:
                col.worst = max(col.worst, worst)
                continue
            lhs = chunk[:, y0:, None]
            slack = np.subtract(lhs, sums, out=sums)
            ids = (xs, np.arange(y0, n)[None, :, None], cols[None])
            rhs = np.add(chunk[:, None, :], e_zy[None, y0:])
            col.collect("triangle", ids, lhs, rhs, slack)
            lo = min(lo, x0)
    col.checked += n**3
    offdiag_positive = bool(np.all((e > 0.0) | ~upper))
    return col.report(offdiagonal_positive=offdiag_positive)


def check_ptolemaic(m, tol: float = DEFAULT_TOL) -> ViolationReport:
    """The Ptolemy inequality d(x,y)d(z,w) <= d(x,z)d(y,w) + d(x,w)d(y,z)
    over all quadruples and all three pairings.

    Per quadruple i < j < k < l the three pairing products P1 = d(i,j)d(k,l),
    P2 = d(i,k)d(j,l) and P3 = d(i,l)d(j,k) satisfy all three inequalities
    iff 2 max(P) <= P1 + P2 + P3, which is what the sweep evaluates. It
    walks the exact delta kernel's grids: for each j,
    ``delta._middle_grids`` fills the steps' ``(i < j, g, l > k0)`` grids
    with the three products, reading every operand from the upper
    triangle, and ``delta._drop_corner`` leaves out their l <= k corner.
    Violations keep (i, j, k, l) row-major order. The matrix must be finite,
    exactly symmetric and at most 2^500 in magnitude, so no product
    overflows (``InputError`` otherwise).
    """
    e = _lemma_entries(m, ())
    _require_symmetric(e)  # the sweep reads each pair from the upper triangle
    n = e.shape[0]
    col = _Collector(tol)
    tri = np.tri(n, n, -1, dtype=bool)  # every step takes g < n values of k
    for j in range(1, n - 2):
        for k0, g, (p1, p2, p3, tot) in _middle_grids(e[None], j, np.multiply, 4):
            np.add(np.add(p1, p2, out=tot), p3, out=tot)
            lhs = np.multiply(2.0, np.maximum(np.maximum(p1, p2, out=p1), p3, out=p1), out=p1)
            slack = np.subtract(lhs, tot, out=p2)
            _drop_corner(slack, g, tri)
            ks_col = np.arange(k0, k0 + g)[:, None]
            ids = (np.arange(j)[:, None, None], j, ks_col, np.arange(k0 + 1, n))
            col.collect("ptolemy", ids, lhs, tot, slack)
    col.checked = math.comb(n, 4)
    col.violations.sort(key=lambda v: v.indices)
    return col.report(quadruples=col.checked)


# ---------------------------------------------------------------------------
# sandwich bounds


def check_sandwich(kind: str, target, tol: float = DEFAULT_TOL) -> ViolationReport:
    """Two-sided additive bounds between paired constructions, whose
    entries must be finite for every kind (``InputError`` otherwise).

    * ``kind="tau"``: with a one-point PuncturedSpec, checks
      tilde <= tau <= tilde + log 2 entrywise.
    * ``kind="avg"``: with any PuncturedSpec, the same bound between the
      averaged variants.
    * ``kind="taxicab"``: with a planar PointCloud, checks
      taxicab <= d1 + d2 <= taxicab + pi entrywise.
    """
    if kind in SANDWICH_PAIRS:
        if not isinstance(target, PuncturedSpec):
            raise InputError(f"kind {kind!r} expects a PuncturedSpec")
        lo, hi = _punctured_matrices(target, [(v, target.k) for v in SANDWICH_PAIRS[kind]])
        gap = LOG2
    elif kind == "taxicab":
        if not isinstance(target, PointCloud) or target.dim != 2:
            raise InputError("kind 'taxicab' expects a planar PointCloud")
        lo = pairwise_distances(target.points, "taxicab")
        hi = pairwise_distances(target.points, "d1+d2")
        gap = math.pi
    else:
        raise InputError(f"unknown sandwich kind {kind!r} (want tau, avg, or taxicab)")
    _require_finite(lo, hi)
    rows, cols, upper = _pair_mesh(lo.shape[0])
    col = _Collector(tol)
    col.compare("sandwich_lower", (rows, cols), lo, hi, where=upper)
    col.compare("sandwich_upper", (rows, cols), hi, lo + gap, where=upper)
    return col.report(kind=kind, gap=gap)


# ---------------------------------------------------------------------------
# mu-family checks


def _lemma_entries(m, indices) -> np.ndarray:
    """The entries of ``m`` for a sampled lemma checker or the Ptolemy
    sweep: finite and at most 2^500 in magnitude, so no product of two
    entries or of mu values overflows, with every anchor or puncture in
    ``indices`` naming one of its points."""
    e = _as_entries(m)
    _require_finite(e)
    _require_bounded(e)
    n = e.shape[0]
    for i in indices:
        if not 0 <= i < n:
            raise InputError(f"anchor or puncture index {i} out of range for n={n}")
    return e


def _require_bounded(*arrays: np.ndarray) -> None:
    """``InputError`` unless every entry is at most 2^500 in magnitude."""
    if any(max(a.max(initial=0.0), -a.min(initial=0.0)) > 2.0**_SAFE_EXPONENT for a in arrays):
        raise InputError(
            "this check needs entries of magnitude at most 2^500 (their products overflow)"
        )


def _mu_rows(e: np.ndarray, P: np.ndarray, u, v, log: bool) -> np.ndarray:
    """mu_i (``log`` False) or log mu_P (``log`` True) at the broadcast
    index rows (u, v). A list ``P`` puts each puncture's mu_i on the last,
    contiguous axis, which log mu_P sums in puncture order whatever the
    shape of the rows; a 0-d ``P`` has no such axis. -inf (mu = 0) is legal."""
    if P.ndim:
        u, v = u[..., None], v[..., None]
    mu = _mu(e[u, v], e[u, P], e[v, P])
    if not log:
        return mu
    with np.errstate(divide="ignore"):
        return np.log(mu).sum(axis=-1)


def _mu_lookup(e: np.ndarray, P, log: bool, count: int):
    """``(u, v) -> _mu_rows(e, P, u, v, log)`` for a checker that evaluates
    ``count`` index rows in all.

    When the n x n table of every pair holds no more entries than
    ``count``, ``_mu_rows`` fills it once, in row blocks of at most
    ``_CHECK_ELEMENTS`` (row, column, puncture) entries, and the rows are
    gathered from it; otherwise they are evaluated as asked. Both give the
    same bits: every value is the same float operations on the same
    operands.
    """
    P = np.asarray(P, dtype=np.int64)
    n = e.shape[0]
    if n * n > count:
        return lambda u, v: _mu_rows(e, P, u, v, log)
    ar = np.arange(n)
    step = max(1, _CHECK_ELEMENTS // (n * P.size))
    blocks = [_mu_rows(e, P, ar[r0 : r0 + step, None], ar, log) for r0 in range(0, n, step)]
    table = np.vstack(blocks)
    return lambda u, v: table[u, v]


def check_mu_bounds(
    m,
    p: int,
    q: int | None = None,
    samples: int = 100000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ViolationReport:
    """The displayed bounds tying mu to anchor distances.

    On sampled triples (x, y, z) with anchors p and q:

    * upper chain: mu_p(x,y) <= (3/2)[d(x,p)+d(y,p)] <= 3 max(d(x,p), d(y,p))
    * lower chain: mu_p(x,y) >= max(d(x,p), d(y,p)) >= (1/2)[d(x,p)+d(y,p)]
    * pair sum:    mu_p(x,z) + mu_q(y,z) >= d(x,z) + d(y,z) >= d(x,y)
    * pair max:    max(mu_p(x,z), mu_q(y,z)) >= d(x,y) / 2
    """
    q = p if q is None else q
    e = _lemma_entries(m, (p, q))
    n = e.shape[0]
    t = _sample_tuples(n, 3, samples, seed, (p, q))
    x, y, z = t[:, 0], t[:, 1], t[:, 2]
    mu_p = _mu_lookup(e, p, False, (3 if q == p else 2) * t.shape[0])
    mu_q = mu_p if q == p else _mu_lookup(e, q, False, t.shape[0])
    col = _Collector(tol)

    dxp, dyp = e[x, p], e[y, p]
    mu_xy = mu_p(x, y)
    half_sum = 1.5 * (dxp + dyp)
    anchor_max = np.maximum(dxp, dyp)
    col.compare("mu_upper_halfsum", (x, y), mu_xy, half_sum)
    col.compare("mu_upper_max", (x, y), half_sum, 3.0 * anchor_max)
    col.compare("mu_lower_max", (x, y), anchor_max, mu_xy)
    col.compare("mu_lower_halfsum", (x, y), 0.5 * (dxp + dyp), anchor_max)

    mu_xz = mu_p(x, z)
    mu_yz = mu_q(y, z)
    col.compare("mu_pair_sum", (x, y, z), e[x, z] + e[y, z], mu_xz + mu_yz)
    col.compare("triangle_base", (x, y, z), e[x, y], e[x, z] + e[y, z])
    col.compare("mu_pair_max", (x, y, z), 0.5 * e[x, y], np.maximum(mu_xz, mu_yz))
    return col.report(anchors=[int(p), int(q)], seed=int(seed))


def check_lemma_nine(
    m, p: int, samples: int = 100000, seed: int = 0, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """The factor-9 pairing bound
    mu_p(x,y) mu_p(z,w) <= 9 max(mu_p(x,z) mu_p(y,w), mu_p(x,w) mu_p(y,z))
    on sampled quadruples. ``meta["max_ratio"]`` records the largest
    observed LHS / max-product ratio (expected <= 9)."""
    e = _lemma_entries(m, (p,))
    n = e.shape[0]
    t = _sample_tuples(n, 4, samples, seed, (p,))
    x, y, z, w = t[:, 0], t[:, 1], t[:, 2], t[:, 3]
    mu = _mu_lookup(e, p, False, 6 * t.shape[0])
    lhs = mu(x, y) * mu(z, w)
    cross = np.maximum(mu(x, z) * mu(y, w), mu(x, w) * mu(y, z))
    col = _Collector(tol)
    col.compare("mu_factor_nine", (x, y, z, w), lhs, 9.0 * cross)
    pos = cross > 0.0
    max_ratio = float((lhs[pos] / cross[pos]).max()) if np.any(pos) else 0.0
    return col.report(max_ratio=max_ratio, seed=int(seed))


def check_lemma_K(
    m,
    p: int,
    K: float,
    samples: int = 100000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ViolationReport:
    """The separated-pair bound: on triples where
    max(mu_p(x,z), mu_p(y,z)) >= K min(mu_p(x,z), mu_p(y,z)) with K > 3,

        mu_p(x,z) + mu_p(y,z) <= [3(K+3) / (2(K-3))] d(x,y).

    Triples failing the hypothesis are skipped and counted in
    ``meta["skipped"]``, never silently dropped.
    """
    if not 3.0 < K < math.inf:
        raise InputError(f"the separation factor must be finite and exceed 3, got K={K}")
    e = _lemma_entries(m, (p,))
    n = e.shape[0]
    t = _sample_tuples(n, 3, samples, seed, (p,))
    x, y, z = t[:, 0], t[:, 1], t[:, 2]
    mu = _mu_lookup(e, p, False, 2 * t.shape[0])
    a, b = mu(x, z), mu(y, z)
    applies = np.maximum(a, b) >= K * np.minimum(a, b)
    const = 3.0 * (K + 3.0) / (2.0 * (K - 3.0))
    col = _Collector(tol)
    col.compare(
        "mu_separated_pair",
        (x[applies], y[applies], z[applies]),
        (a + b)[applies],
        const * e[x, y][applies],
    )
    return col.report(
        sampled=int(t.shape[0]),
        applicable=int(applies.sum()),
        skipped=int(t.shape[0] - applies.sum()),
        conclusion_constant=const,
        seed=int(seed),
    )


def check_product_lemma(
    m,
    punctures,
    samples: int = 100000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ViolationReport:
    """The product splitting bound, evaluated in the log domain:

        prod_i [mu_i(x,z) + mu_i(y,z)] <= 9^k [prod_i mu_i(x,z) + prod_i mu_i(y,z)]

    Recorded lhs/rhs are logarithms; the 9^k constant enters as k log 9.
    """
    P = np.asarray(list(punctures), dtype=np.int64)
    if P.size < 1:
        raise InputError("need at least one puncture")
    e = _lemma_entries(m, P.tolist())
    t = _sample_tuples(e.shape[0], 3, samples, seed, tuple(int(a) for a in P[:2]))
    x, y, z = t[:, 0], t[:, 1], t[:, 2]
    mu = _mu_lookup(e, P, False, 2 * t.shape[0])
    a, b = mu(x, z), mu(y, z)  # mu_i(x,z) and mu_i(y,z), one column per puncture
    with np.errstate(divide="ignore"):
        lhs = np.log(a + b).sum(axis=1)
        log_pa, log_pb = np.log(a).sum(axis=1), np.log(b).sum(axis=1)
    rhs = P.size * math.log(9.0) + np.logaddexp(log_pa, log_pb)
    col = _Collector(tol)
    col.compare("mu_product_split", (x, y, z), lhs, rhs)
    return col.report(k=int(P.size), seed=int(seed), log_domain=True)


#: Index triples (i, j, k) of the quasi-Ptolemy hypothesis r_ij <= K (r_ik + r_jk).
_QP_TRIPLES = tuple(product(range(4), repeat=3))


def _qp_hypothesis(cols: np.ndarray, K: float, tol: float) -> tuple[np.ndarray, set]:
    """The hypothesis over the (16, B) columns of a block of B 4x4 arrays
    (row 4i + j holds entry (i, j) of each): True on the arrays where every
    triple holds, and the set of triples ``(i, j, k)`` that fail on some
    array. A NaN slack breaks it; an overflowing right side holds.

    On a block that is finite, nonnegative and symmetric under ``==``, a
    triple with k in {i, j} holds (K >= 1, r_kk >= 0 and rounding is
    monotone), and (i, j, k) with i > j makes the comparison of (j, i, k),
    since float addition commutes, so it fails where (j, i, k) does: 24 of
    the 64 triples are evaluated. Any other block evaluates all 64."""
    held, failing = np.ones(cols.shape[1], dtype=bool), set()
    rhs, slack = np.empty(held.size), np.empty(held.size)
    pairs = combinations(range(4), 2)
    regular = (
        cols.min(initial=0.0) >= 0.0  # False on a NaN
        and cols.max(initial=0.0) < np.inf
        and all(np.array_equal(cols[4 * i + j], cols[4 * j + i]) for i, j in pairs)
    )
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j, kk in _QP_TRIPLES:
            if regular and (i > j or kk in (i, j)):
                continue
            lhs = cols[4 * i + j]
            np.multiply(K, np.add(cols[4 * i + kk], cols[4 * j + kk], out=rhs), out=rhs)
            np.subtract(lhs, rhs, out=slack)
            if not slack.max(initial=-np.inf) <= tol:  # the scale is at least 1
                ok = slack <= _allowance(lhs, rhs, tol)
                if not ok.all():
                    held &= ok
                    failing.add((i, j, kk))
    if regular:
        failing |= {(j, i, kk) for i, j, kk in failing}
    return held, failing


def _quasi_ptolemy(rs, K: float, tol: float) -> tuple[ViolationReport, list]:
    """The report of ``check_quasi_ptolemy_many`` and the hypothesis
    triples that fail on some array, in ``_QP_TRIPLES`` order, from one
    pass over the batch.

    The pass walks the batch in blocks of ``_CHECK_ELEMENTS // 16`` arrays,
    each transposed into one reused (16, B) buffer, so its memory is
    bounded by the block. Each block runs the hypothesis and then the
    conclusions on its held rows; the violations are listed by conclusion,
    each in batch-row order."""
    arr = np.asarray(rs, dtype=float)
    if arr.ndim != 3 or arr.shape[1:] != (4, 4):
        raise InputError(f"expected an (N, 4, 4) batch, got shape {arr.shape}")
    if not 1.0 <= K < 2.0**511:  # so 4 K^2 is finite
        raise InputError(f"need 1 <= K < 2^511, got K={K}")
    col = _Collector(tol)
    kinds = ("quasi_ptolemy_sqrt", "quasi_ptolemy_product", "quasi_ptolemy_max")
    step = _CHECK_ELEMENTS // 16
    buf = np.empty((16, min(step, len(arr))))
    failing, held_count = set(), 0
    for r0 in range(0, len(arr), step):
        block = arr[r0 : r0 + step]
        cols = buf[:, : len(block)]
        np.copyto(cols.reshape(4, 4, -1), block.transpose(1, 2, 0))
        held, fails = _qp_hypothesis(cols, K, tol)
        failing |= fails
        rows = np.flatnonzero(held)
        held_count += rows.size
        # r01 r23, r02 r13 and r03 r12 of the held rows: views unless some row failed
        ops = [cols[o, rows] if fails else cols[o] for o in (1, 11, 2, 7, 3, 6)]
        _require_bounded(*ops)
        p1, p2, p3 = (np.multiply(a, b) for a, b in zip(ops[::2], ops[1::2]))
        ids = (rows + r0,)
        with np.errstate(over="ignore"):  # an inf right side bounds any finite left side
            col.compare(kinds[0], ids, np.sqrt(p1), K * (np.sqrt(p2) + np.sqrt(p3)))
            col.compare(kinds[1], ids, p1, 2.0 * K * K * (p2 + p3))
            col.compare(kinds[2], ids, p1, 4.0 * K * K * np.maximum(p2, p3))
    col.violations.sort(key=lambda v: kinds.index(v.kind))  # stable: rows stay in order
    meta = {"hypothesis_skipped": len(arr) - held_count, "hypothesis_checked": len(arr)}
    return col.report(**meta), [list(t) for t in sorted(failing)]


def check_quasi_ptolemy(r, K: float, tol: float = DEFAULT_TOL) -> ViolationReport:
    """Quasi-Ptolemy for one 4x4 array of quasi-distances r.

    Hypothesis (checked first, over every index triple): r is symmetric,
    nonnegative, and r_ij <= K (r_ik + r_jk), 1 <= K < 2^511. If the hypothesis
    fails the report carries ``meta["hypothesis_satisfied"] = False``, the
    failing triples in ``meta["hypothesis_failures"]``, and no conclusion
    is evaluated. Otherwise the conclusions

        sqrt(r12 r34) <= K [sqrt(r13 r24) + sqrt(r14 r23)]
        r12 r34 <= 2 K^2 (r13 r24 + r14 r23) <= 4 K^2 max(r13 r24, r14 r23)

    are verified for the labeling as given, on entries at most 2^500 in
    magnitude (``InputError`` otherwise). One pass of the batch checker over
    a batch of one yields both: ``checked`` and ``worst_slack`` cover the
    conclusions only, and violation indices name batch row 0.
    """
    arr = np.asarray(r, dtype=float)
    if arr.shape != (4, 4):
        raise InputError(f"expected a 4x4 array, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise InputError("quasi-distance array must be finite and nonnegative")
    if not np.array_equal(arr, arr.T):
        raise InputError("quasi-distance array must be symmetric")
    report, failing = _quasi_ptolemy(arr[None], K, tol)
    report.meta = {"hypothesis_satisfied": not failing}
    if failing:
        report.meta["hypothesis_failures"] = failing
    return report


def check_quasi_ptolemy_many(
    rs: np.ndarray, K: float, tol: float = DEFAULT_TOL
) -> ViolationReport:
    """Vectorized quasi-Ptolemy over a batch of 4x4 arrays (N, 4, 4).

    Rows whose hypothesis fails (as a NaN or infinite entry makes it) are
    skipped and counted in ``meta["hypothesis_skipped"]``; conclusions are
    checked on the rest, whose entries r01, r02, r03, r12, r13 and r23 must
    be at most 2^500 in magnitude. Violation indices are batch rows.
    """
    return _quasi_ptolemy(rs, K, tol)[0]


def check_mu_P_quasi_triangle(
    m,
    punctures,
    triples: int = 100000,
    quadruples: int = 100000,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ViolationReport:
    """The (27/2)^k quasi-triangle bounds for the product quantity mu_P,
    in the log domain:

        mu_P(x,y) <= (27/2)^k [mu_P(x,z) + mu_P(z,y)]
        mu_P(x,y) mu_P(z,w) <= 4 (27/2)^{2k} max(mu_P(x,z) mu_P(y,w),
                                                 mu_P(x,w) mu_P(y,z))

    Its 9 log mu_P evaluations, 3 per triple and 6 per quadruple, come
    from one ``_mu_lookup``: an n x n log mu_P table when that holds no
    more entries than the rows evaluated, as at the default sample
    counts for n up to 950.
    """
    P = np.asarray(list(punctures), dtype=np.int64)
    if P.size < 1:
        raise InputError("need at least one puncture")
    e = _lemma_entries(m, P.tolist())
    n = e.shape[0]
    k = int(P.size)
    log_c = k * math.log(13.5)
    col = _Collector(tol)
    t = _sample_tuples(n, 3, triples, seed, tuple(int(a) for a in P[:2]))
    t4 = _sample_tuples(n, 4, quadruples, seed + 1, tuple(int(a) for a in P[:2]))
    log_mu_P = _mu_lookup(e, P, True, 3 * t.shape[0] + 6 * t4.shape[0])

    x, y, z = t[:, 0], t[:, 1], t[:, 2]
    lhs = log_mu_P(x, y)
    rhs = log_c + np.logaddexp(log_mu_P(x, z), log_mu_P(z, y))
    col.compare("muP_triangle", (x, y, z), lhs, rhs)

    x, y, z, w = t4[:, 0], t4[:, 1], t4[:, 2], t4[:, 3]
    lhs4 = log_mu_P(x, y) + log_mu_P(z, w)
    cross = np.maximum(log_mu_P(x, z) + log_mu_P(y, w), log_mu_P(x, w) + log_mu_P(y, z))
    col.compare("muP_four_point", (x, y, z, w), lhs4, math.log(4.0) + 2.0 * log_c + cross)
    return col.report(k=k, seed=int(seed), log_domain=True)

"""Four-point-condition delta estimation.

For a quadruple (x, y, z, v) form the three pairing sums

    d(x,y) + d(z,v),   d(x,z) + d(y,v),   d(x,v) + d(y,z)

and let S1 >= S2 >= S3 be their descending order. The quadruple's delta is
(S1 - S2) / 2: the smallest slack making the four-point inequality hold for
every relabeling of the quadruple. A space is delta-hyperbolic with the
maximum of this quantity over all quadruples.

``exact_deltas`` maximizes over all C(n, 4) distinct quadruples of every
matrix in a batch of equal size; ``exact_delta`` is a batch of one. The
kernel iterates pairs (i < j) and vectorizes over the remaining (k, l)
pairs and over a leading batch axis, so the Python-level loop is O(n^2)
per chunk of matrices while the O(B n^4) work runs in numpy. A chunk holds
as many matrices as keep one step's (k, l) grids within
``_BATCH_ELEMENTS`` entries (at least one matrix), so the kernel's memory
is bounded by that budget, not by the batch.

The witness is the lexicographically smallest quadruple of maximal delta,
which the scan order yields: within a step the k = l diagonal is masked to
-inf and the first flat maximum wins; across steps a later value wins only
when strictly greater. Work partitions into (chunk, i) tasks, run serially
or on a process pool, and their parts fold in i order the same way, so the
report is identical for any worker count.

Both kernels need finite entries (``InputError`` otherwise). A matrix
with an entry of at least ``_HUGE_ENTRY`` = 2^1022 is evaluated scaled by
1/4, so no pairing sum overflows. The factor is a power of two, so the
witness and the scaled-back delta are exact (unless the matrix also holds
entries below 2^-1020, which lose bits when scaled).

``sampled_delta`` draws distinct-index quadruples uniformly from a seeded
generator in fixed-size batches (one spawned substream per batch), so the
result is reproducible and independent of scheduling.
"""

from __future__ import annotations

import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb

import numpy as np

from .cassinian import as_oracle
from .errors import InputError
from .spaces import _as_entries

#: Quadruples per sampling batch; part of the determinism contract.
SAMPLE_BATCH = 65536
#: Entries of one (i, j) step's (k, l) grids summed over the matrices of a
#: batch chunk; bounds the kernel's temporaries independently of the batch.
_BATCH_ELEMENTS = 1 << 16
#: A matrix with an entry this large runs the kernels scaled by 1/4.
_HUGE_ENTRY = 2.0**1022


@dataclass
class DeltaReport:
    """Result of a delta maximization run."""

    delta: float
    witness: tuple[int, int, int, int]
    mode: str  # "exact" | "sampled"
    quadruples_evaluated: int
    seed: int | None = None
    elapsed_s: float = 0.0

    def to_dict(self) -> dict:
        return {
            "delta": self.delta,
            "witness": [int(i) for i in self.witness],
            "mode": self.mode,
            "quadruples": self.quadruples_evaluated,
            "seed": self.seed,
            "elapsed_ms": round(self.elapsed_s * 1000.0, 3),
        }


def _worker_count(workers: int | None) -> int:
    """``None`` means one worker per core; anything below 1 is an error."""
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise InputError(f"need workers >= 1, got {workers}")
    return workers


def _kernel_entries(d, n: int | None = None) -> tuple[np.ndarray, float]:
    """The finite matrix behind ``d`` as the kernels read it, and the factor
    that scales their delta back: 4 when the matrix was scaled by 1/4."""
    e = _as_entries(d, n)
    top = float(np.abs(e).max()) if e.size else 0.0  # NaN when any entry is NaN
    if not np.isfinite(top):
        raise InputError("distance matrix contains NaN or infinite entries")
    if top >= _HUGE_ENTRY:
        return e * 0.25, 4.0
    return e, 1.0


def quadruple_delta(d, x: int, y: int, z: int, v: int) -> float:
    """Delta of a single quadruple; invariant under all 24 relabelings."""
    o = as_oracle(d)
    s = sorted((o(x, y) + o(z, v), o(x, z) + o(y, v), o(x, v) + o(y, z)))
    return (s[2] - s[1]) / 2.0


def _scan_outer(stack: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix best doubled delta ``(B,)`` and lex-min witness ``(B, 4)``
    among quadruples (i, j, k, l), i fixed, i < j < k < l, of a ``(B, n, n)``
    stack."""
    nb, n = stack.shape[0], stack.shape[1]
    rows = np.arange(nb)
    steps = range(i + 1, n - 2)
    flats = np.empty((len(steps), nb), dtype=np.intp)
    vals = np.empty((len(steps), nb))
    row_i = stack[:, i]
    # Three flat buffers, each sized for the largest step (j = i + 1) and
    # viewed as (B, m, m) for the step's m = n - j - 1, hold every grid.
    bufs = np.empty((3, nb * (n - i - 2) ** 2))
    for t, j in enumerate(steps):
        off = j + 1
        m = n - off
        x, y, hi12 = (buf[: nb * m * m].reshape(nb, m, m) for buf in bufs)
        a = row_i[:, off:]  # d(i, k)
        b = stack[:, j, off:]  # d(j, k)
        s1 = np.add(row_i[:, j, None, None], stack[:, off:, off:], out=x)  # d(i,j) + d(k,l)
        s2 = np.add(a[:, :, None], b[:, None, :], out=y)  # d(i,k) + d(j,l)
        np.maximum(s1, s2, out=hi12)
        lo12 = np.minimum(s1, s2, out=x)
        s3 = np.add(b[:, :, None], a[:, None, :], out=y)  # d(j,k) + d(i,l)
        # The median of three is s3 clamped to [lo12, hi12]; every step is
        # an exact comparison, so only the final subtraction rounds.
        mid = np.minimum(hi12, np.maximum(lo12, s3, out=x), out=x)
        top = np.maximum(hi12, s3, out=y)
        d2 = np.subtract(top, mid, out=y).reshape(nb, m * m)
        # The (k, l) grid is symmetric; only k < l is a real quadruple. The
        # diagonal k = l is a repeated-point tuple and must not compete.
        d2[:, :: m + 1] = -np.inf
        np.argmax(d2, axis=1, out=flats[t])  # first flat maximum per matrix
        vals[t] = d2[rows, flats[t]]
    # A step's value replaces the running best only when strictly greater,
    # so the first step reaching the maximum wins; a NaN step (argmax stops
    # at the first NaN) never does.
    vals[np.isnan(vals)] = -np.inf
    t = np.argmax(vals, axis=0)
    best2 = vals[t, rows]
    j = i + 1 + t
    r, c = np.divmod(flats[t, rows], n - j - 1)
    return best2, np.stack([np.full(nb, i), j, j + 1 + r, j + 1 + c], axis=1)


_POOL_ENTRIES: np.ndarray | None = None


def _pool_init(entries: np.ndarray) -> None:
    global _POOL_ENTRIES
    _POOL_ENTRIES = entries


def _pool_scan(task: tuple[int, int, int]) -> tuple[np.ndarray, np.ndarray]:
    lo, hi, i = task
    return _scan_outer(_POOL_ENTRIES[lo:hi], i)


def _merge(
    cur: tuple[float, tuple[int, int, int, int]],
    cand: tuple[float, tuple[int, int, int, int]],
) -> tuple[float, tuple[int, int, int, int]]:
    if cand[0] > cur[0] or (cand[0] == cur[0] and cand[1] < cur[1]):
        return cand
    return cur


def _sweep(stack: np.ndarray, workers: int) -> tuple[np.ndarray, np.ndarray]:
    """Best doubled delta ``(B,)`` and lex-min witness ``(B, 4)`` of every
    matrix in a ``(B, n, n)`` stack.

    Tasks are (chunk, i) pairs. A chunk holds at most ``_BATCH_ELEMENTS``
    entries of the largest step's (k, l) grid, and its parts fold in i
    order, a later part winning only when strictly greater. The serial and
    pool paths run the same tasks and share this fold.
    """
    nb, n = stack.shape[0], stack.shape[1]
    size = max(1, _BATCH_ELEMENTS // (n - 2) ** 2)
    tasks = [(lo, min(lo + size, nb), i) for lo in range(0, nb, size) for i in range(n - 3)]
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(stack,)
        ) as pool:
            parts = list(pool.map(_pool_scan, tasks, chunksize=1))
    else:
        parts = [_scan_outer(stack[lo:hi], i) for lo, hi, i in tasks]
    best2 = np.full(nb, -np.inf)
    wit = np.zeros((nb, 4), dtype=np.intp)
    for (lo, hi, _), (part2, part_wit) in zip(tasks, parts):
        better = part2 > best2[lo:hi]
        best2[lo:hi][better] = part2[better]
        wit[lo:hi][better] = part_wit[better]
    return best2, wit


def _reports(
    stack: np.ndarray, scales: tuple[float, ...], workers: int, t0: float
) -> list[DeltaReport]:
    n = stack.shape[1]
    if n < 4:
        raise InputError(f"need at least 4 points, got n={n}")
    best2, wit = _sweep(stack, workers)
    elapsed = time.perf_counter() - t0
    return [
        DeltaReport(
            delta=float(b) / 2.0 * s,
            witness=tuple(int(x) for x in w),
            mode="exact",
            quadruples_evaluated=comb(n, 4),
            seed=None,
            elapsed_s=elapsed,
        )
        for b, w, s in zip(best2, wit, scales)
    ]


def exact_delta(d, n: int | None = None, workers: int = 1) -> DeltaReport:
    """Maximize quadruple delta over all distinct quadruples.

    ``d`` may be a DistanceMatrix, a square ndarray, or a callable oracle
    (the latter needs ``n`` and is read once into a matrix with n(n-1)/2
    calls, then runs through the same kernel and pool). The witness is the
    lexicographically smallest quadruple achieving the maximum; delta and
    witness are bit-identical for any ``workers`` value. This is
    ``exact_deltas`` on a batch of one.
    """
    t0 = time.perf_counter()
    workers = _worker_count(workers)
    entries, scale = _kernel_entries(d, n)
    return _reports(entries[None], (scale,), workers, t0)[0]


def exact_deltas(matrices, workers: int = 1) -> list[DeltaReport]:
    """``exact_delta`` of every matrix in a batch of equal size, in one
    sweep: each (i, j) step runs once for the whole batch.

    Each report equals ``exact_delta(m, workers=workers)`` (its
    ``elapsed_s`` is the time of the whole batch).
    """
    t0 = time.perf_counter()
    workers = _worker_count(workers)
    read = [_kernel_entries(m) for m in matrices]
    if not read:
        return []
    entries, scales = zip(*read)
    sizes = sorted({e.shape[0] for e in entries})
    if len(sizes) > 1:
        raise InputError(f"a batch needs matrices of one size, got n in {sizes}")
    return _reports(np.stack(entries), scales, workers, t0)


def _draw_quadruples(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    idx = rng.integers(0, n, size=(count, 4), dtype=np.int64)
    while True:
        dup = (
            (idx[:, 0] == idx[:, 1])
            | (idx[:, 0] == idx[:, 2])
            | (idx[:, 0] == idx[:, 3])
            | (idx[:, 1] == idx[:, 2])
            | (idx[:, 1] == idx[:, 3])
            | (idx[:, 2] == idx[:, 3])
        )
        bad = int(dup.sum())
        if bad == 0:
            return idx
        idx[dup] = rng.integers(0, n, size=(bad, 4), dtype=np.int64)


def _batch_best(
    entries: np.ndarray, count: int, seq: np.random.SeedSequence
) -> tuple[float, tuple[int, int, int, int]]:
    rng = np.random.Generator(np.random.PCG64(seq))
    idx = _draw_quadruples(rng, entries.shape[0], count)
    xi, yi, zi, vi = idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3]
    s1 = entries[xi, yi] + entries[zi, vi]
    s2 = entries[xi, zi] + entries[yi, vi]
    s3 = entries[xi, vi] + entries[yi, zi]
    hi12 = np.maximum(s1, s2)
    lo12 = np.minimum(s1, s2)
    top = np.maximum(hi12, s3)
    mid = np.maximum(lo12, np.minimum(hi12, s3))
    d2 = top - mid
    bmax = float(d2.max())
    rows = np.nonzero(d2 == bmax)[0]
    srt = np.sort(idx[rows], axis=1)
    order = np.lexsort((srt[:, 3], srt[:, 2], srt[:, 1], srt[:, 0]))
    wit = tuple(int(t) for t in srt[order[0]])
    return bmax, wit


def sampled_delta(
    d, n: int | None = None, samples: int = 10000, seed: int = 0, workers: int = 1
) -> DeltaReport:
    """Monte-Carlo lower bound: max delta over sampled distinct quadruples.

    Reproducible given the seed: quadruples come from fixed-size batches
    with one spawned PCG64 substream each, and batch results merge in batch
    order, so the report does not depend on worker count. A callable
    oracle (with ``n``) is read once into a matrix, as in ``exact_delta``.
    When ``samples`` covers all C(n, 4) quadruples the run falls back to
    exhaustive enumeration (reported with ``mode="exact"``), for matrices
    and callables alike.
    """
    t0 = time.perf_counter()
    workers = _worker_count(workers)
    if samples < 1:
        raise InputError("need samples >= 1")
    entries, scale = _kernel_entries(d, n)
    n = entries.shape[0]
    if n < 4:
        raise InputError(f"need at least 4 points, got n={n}")

    total = comb(n, 4)
    if samples >= total:
        report = exact_delta(entries, workers=workers)
        report.delta *= scale
        report.seed = seed
        report.elapsed_s = time.perf_counter() - t0
        return report

    sizes = [SAMPLE_BATCH] * (samples // SAMPLE_BATCH)
    if samples % SAMPLE_BATCH:
        sizes.append(samples % SAMPLE_BATCH)
    children = np.random.SeedSequence(seed).spawn(len(sizes))

    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(entries,)
        ) as pool:
            parts = list(
                pool.map(_pool_batch, ((size, seq) for size, seq in zip(sizes, children)))
            )
    else:
        parts = [_batch_best(entries, size, seq) for size, seq in zip(sizes, children)]
    best = parts[0]
    for part in parts[1:]:
        best = _merge(best, part)
    return DeltaReport(
        delta=best[0] / 2.0 * scale,
        witness=best[1],
        mode="sampled",
        quadruples_evaluated=samples,
        seed=seed,
        elapsed_s=time.perf_counter() - t0,
    )


def _pool_batch(args: tuple[int, np.random.SeedSequence]):
    size, seq = args
    return _batch_best(_POOL_ENTRIES, size, seq)

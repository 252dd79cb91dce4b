"""Four-point-condition delta estimation.

For a quadruple (x, y, z, v) form the three pairing sums

    d(x,y) + d(z,v),   d(x,z) + d(y,v),   d(x,v) + d(y,z)

and let S1 >= S2 >= S3 be their descending order. The quadruple's delta is
(S1 - S2) / 2: the smallest slack making the four-point inequality hold for
every relabeling of the quadruple. A space is delta-hyperbolic with the
maximum of this quantity over all quadruples.

``exact_delta`` maximizes over all C(n, 4) distinct quadruples. The kernel
iterates pairs (i < j) and vectorizes over the remaining (k, l) pairs, so
the Python-level loop is O(n^2) while the O(n^4) work runs in numpy. The
index space partitions by the outer index i for parallel runs; block
results merge by (max delta, then lexicographically smallest witness), so
the report is identical for any worker count.

``sampled_delta`` draws distinct-index quadruples uniformly from a seeded
generator in fixed-size batches (one spawned substream per batch), so the
result is reproducible and independent of scheduling.
"""

from __future__ import annotations

import math
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


def quadruple_delta(d, x: int, y: int, z: int, v: int) -> float:
    """Delta of a single quadruple; invariant under all 24 relabelings."""
    o = as_oracle(d)
    s = sorted((o(x, y) + o(z, v), o(x, z) + o(y, v), o(x, v) + o(y, z)))
    return (s[2] - s[1]) / 2.0


def _scan_outer(entries: np.ndarray, i: int) -> tuple[float, tuple[int, int, int, int]]:
    """Best doubled delta and lex-min witness among quadruples (i, j, k, l),
    i fixed, i < j < k < l."""
    n = entries.shape[0]
    best2 = -math.inf
    wit = (0, 0, 0, 0)
    row_i = entries[i]
    for j in range(i + 1, n - 2):
        off = j + 1
        a = row_i[off:]  # d(i, k)
        b = entries[j, off:]  # d(j, k)
        s1 = entries[i, j] + entries[off:, off:]  # d(i,j) + d(k,l)
        s2 = a[:, None] + b[None, :]  # d(i,k) + d(j,l)
        s3 = b[:, None] + a[None, :]  # d(j,k) + d(i,l)
        hi12 = np.maximum(s1, s2)
        lo12 = np.minimum(s1, s2)
        top = np.maximum(hi12, s3)
        mid = np.maximum(lo12, np.minimum(hi12, s3))  # exact median of three
        d2 = top - mid
        # The (k, l) grid is symmetric; only k < l is a real quadruple. The
        # diagonal k = l is a repeated-point tuple and must not compete.
        np.fill_diagonal(d2, -np.inf)
        flat = int(np.argmax(d2))
        val = float(d2.flat[flat])
        if val > best2:
            r, c = divmod(flat, d2.shape[0])
            best2 = val
            wit = (i, j, off + r, off + c)
    return best2, wit


_POOL_ENTRIES: np.ndarray | None = None


def _pool_init(entries: np.ndarray) -> None:
    global _POOL_ENTRIES
    _POOL_ENTRIES = entries


def _pool_scan(i: int) -> tuple[float, tuple[int, int, int, int]]:
    return _scan_outer(_POOL_ENTRIES, i)


def _merge(
    cur: tuple[float, tuple[int, int, int, int]],
    cand: tuple[float, tuple[int, int, int, int]],
) -> tuple[float, tuple[int, int, int, int]]:
    if cand[0] > cur[0] or (cand[0] == cur[0] and cand[1] < cur[1]):
        return cand
    return cur


def exact_delta(d, n: int | None = None, workers: int = 1) -> DeltaReport:
    """Maximize quadruple delta over all distinct quadruples.

    ``d`` may be a DistanceMatrix, a square ndarray, or a callable oracle
    (the latter needs ``n`` and is read once into a matrix with n(n-1)/2
    calls, then runs through the same kernel and pool). The witness is the
    lexicographically smallest quadruple achieving the maximum; delta and
    witness are bit-identical for any ``workers`` value.
    """
    t0 = time.perf_counter()
    workers = _worker_count(workers)
    entries = _as_entries(d, n)
    n = entries.shape[0]
    if n < 4:
        raise InputError(f"need at least 4 points, got n={n}")
    if workers > 1:
        with ProcessPoolExecutor(
            max_workers=workers, initializer=_pool_init, initargs=(entries,)
        ) as pool:
            parts = list(pool.map(_pool_scan, range(n - 3), chunksize=1))
    else:
        parts = [_scan_outer(entries, i) for i in range(n - 3)]
    best2, wit = parts[0]
    for part in parts[1:]:
        best2, wit = _merge((best2, wit), part)
    return DeltaReport(
        delta=best2 / 2.0,
        witness=wit,
        mode="exact",
        quadruples_evaluated=comb(n, 4),
        seed=None,
        elapsed_s=time.perf_counter() - t0,
    )


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
    entries = _as_entries(d, n)
    n = entries.shape[0]
    if n < 4:
        raise InputError(f"need at least 4 points, got n={n}")

    total = comb(n, 4)
    if samples >= total:
        report = exact_delta(entries, workers=workers)
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
        delta=best[0] / 2.0,
        witness=best[1],
        mode="sampled",
        quadruples_evaluated=samples,
        seed=seed,
        elapsed_s=time.perf_counter() - t0,
    )


def _pool_batch(args: tuple[int, np.random.SeedSequence]):
    size, seq = args
    return _batch_best(_POOL_ENTRIES, size, seq)

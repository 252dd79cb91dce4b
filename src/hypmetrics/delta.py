"""Four-point-condition delta estimation.

For a quadruple (x, y, z, v) form the three pairing sums

    d(x,y) + d(z,v),   d(x,z) + d(y,v),   d(x,v) + d(y,z)

and let S1 >= S2 >= S3 be their descending order. The quadruple's delta is
(S1 - S2) / 2: the smallest slack making the four-point inequality hold for
every relabeling of the quadruple. A space is delta-hyperbolic with the
maximum of this quantity over all quadruples.

``exact_deltas`` maximizes over all C(n, 4) distinct quadruples
i < j < k < l of every matrix in a batch of equal size, and is the one way
into the kernel: ``exact_delta`` calls it on a batch of one. The walker is
indexed by the middle pair: a task fixes j, and each Python-level step
takes g consecutive k values from some k0 and vectorizes over a
``(B, i < j, k, l > k0)`` grid, so every entry but the l <= k corner of the
(k, l) block is a distinct quadruple. ``_middle_grids`` fills the three
pairing sums d(i,j) + d(k,l), d(i,k) + d(j,l) and d(i,l) + d(j,k) as
broadcasts of upper-triangle slices, with no gather, in the stack's dtype,
for the confirm pass; the Ptolemy sweep takes the same grids with float64
products.

One budget, ``_STEP_BYTES`` (512 KiB, the one ``spaces`` sizes its row
blocks by, imported by name), sizes every step: a step takes as many k
values as keep its scratch grids, summed over the grids and the matrices
of its chunk, within the budget (at least one k). A kernel's entries per
step follow from its own grid count and dtype: the int16 screen's two
grids get 128K entries, the Ptolemy sweep's four float64 grids 16K and the
float64 confirm's five grids about 13K. A chunk holds as many matrices as
keep the confirm's largest single-k step within the budget (36 at n = 40),
so a step's grids are bounded by the budget, not by the batch. A screen
task also holds its Gromov rows (below): one float64 (m, n, nb) buffer, no
larger than its chunk's scaled copy, and int16 copies of at most a quarter
of that size. The sweep reads its caller's matrices as they are and holds
one scaled float64 copy of them, as one C-contiguous (n, n, nb) array per
chunk of nb matrices.

The sweep walks the steps in two passes. The *screen* runs every step in
int16 fixed point, on values read from a float64 copy of the matrices,
each matrix scaled by an exact power of two, 2^(13 - e) if it is
nonnegative and 2^(12 - e) otherwise, e from ``frexp`` of its largest
|entry|, so that every copied entry has |x| < 2^13, or |x| < 2^12. A unit
of the copy, 2^(e - 13) or 2^(e - 12) of the matrix, is the matrix's
*quantum*: nothing overflows, and underflow costs at most 2^-1075 quanta.
A step reports only each matrix's largest int16 doubled delta m. The
*confirm* pass then evaluates in float64, with witness keys, only the
steps that can hold the maximum, planned from the screen alone: per
matrix, the floor F is the largest lower bound of any step, and a step is
confirmed when its upper bound reaches F. Every step holds a quadruple at
least its lower bound, so F is at most the maximum; a step whose upper
bound is below F holds no quadruple reaching it, so the delta and the
witness equal those of a float64 sweep of every step. The bounds, m - 2
and m + 2, and F are all in the matrix's own quanta, so no comparison
leaves them. A confirm task is (rows, j, steps): of a screened (chunk, j),
the matrices with a step whose bound reaches their own floor, and every
screen step that reaches it for one of them. It stacks only those matrices
and re-splits each screen step into steps within the budget for its own
rows at the confirm's bytes per entry, so it covers the same k values; a
matrix costs the float64 pass only in the few (j, step) places that can
hold its maximum.

The screen takes the four-point condition in Gromov-product form with the
middle index j as base point (Fournier, Ismail and Vigneron, IPL 2015).
Subtracting the term d(i,j) + d(j,k) + d(j,l) common to the three pairing
sums leaves

    R[k,l] = d(k,l) - (d(j,k) + d(j,l)),
    Q[i,k] = d(i,k) - (d(i,j) + d(j,k)),   Q[i,l],

whose top minus median is the quadruple's doubled delta. A task
(chunk, j) builds R (m x m x nb, m = n - j - 1) and Q, stored as its
transpose (m x j x nb), once, in float64 from the chunk's scaled copy,
rounding each value down once to int16 (``_gromov_rows``); a step then reads
R, Q over k and Q over l as three broadcasts, with no addition per
quadruple. Everything the screen reads and writes has the batch axis b
innermost, and a step's grid is ordered (k, l, i, b). A step's doubled
delta takes five ufunc passes (``_doubled_delta``). Q over l is one
contiguous block of (l, i, b), so the two passes that combine it with Q
over k (broadcast over l) run inner loops over whole (i, b) rows, and the
subtraction and the absolute value over the whole grid; only the pass that
reads R (broadcast over i) runs inner loops over the batch. A step's
maximum per matrix is taken over rows of (i, b) first, then over i, so its
inner loops, too, run over rows, not over the batch. At nb = 1 the grid is
(k, l, i), and the maximum is one flat reduction.

The screen needs no pass over the l <= k corner of a step's grid. R takes
the sum d(j,k) + d(j,l) first, the same float for (k, l) and (l, k), and
rounds it down the same way, so it is bitwise symmetric, and its diagonal is
-32768, below every value. An entry with l < k reads R[k,l] = R[l,k],
Q[i,k] and Q[i,l]: the values of the quadruple (i, j, l, k) of the same
step (l and k both lie in its k and l ranges) with the second and the
third swapped; the largest value and the median are exact comparisons, so
its value is that quadruple's, exactly. An entry with l = k has top and
median both Q[i,k], so its value is exactly 0, while every step holds a
quadruple, whose value is at least 0. So each step maximum equals the one
over its quadruples alone. The confirm pass and the Ptolemy sweep read
witness keys, counts and violations, not just a maximum, so they keep
``_drop_corner``.

The bound, in quanta. A scaled entry of a nonnegative matrix lies in
[0, 2^13), so an R or Q value, an entry minus the sum of two, lies in
(-2^14, 2^13); a signed matrix's entries have |x| < 2^12, so its values
have |value| < 3 * 2^12. Rounded down, a value lies in [-2^14, 2^13) or
[-3 * 2^12, 3 * 2^12), which int16 holds with room for the diagonal's
-32768, and the largest value minus the median, a difference of two
values, is at most 24575: no pass of ``_doubled_delta`` wraps. The float64
sum of two scaled entries and the subtraction from a third are each below
2^14 in magnitude, so each rounds by at most half an ulp, 2^-40, and the
float64 value is within 2^-39 of its exact value v; the underflow of its
three scaled entries adds under 2^-1073. Rounding down then gives an int16
value in (v - 1 - 2^-38, v + 2^-38]. The largest value and the median are
each monotone and 1-Lipschitz in the values, integer operations are
exact, and the common term cancels, so both move into such a range and an
int16 doubled delta is within 1 + 2^-37 of the exact one. A float64
doubled delta D of the confirm pass is within 2^-38 quanta of the exact
one: its pairing sums of entries below 2^e round by at most 2^(e - 53)
each, so top - median moves by at most 2^(e - 52), and the final
subtraction, of a value below 2^(e + 2), rounds by at most 2^(e - 52)
more, while a quantum is at least 2^(e - 13). So every D of a step with
int16 maximum m has D < m + 1 + 2^-36, and the step holds a quadruple (the
one reaching m) whose D > m - 1 - 2^-36: the bounds m + 2 and m - 2 keep
a margin of almost a quantum on each side. Rounding down, not toward
zero, halves the error: truncation's error changes sign with the value,
so a truncated doubled delta is only within 2 + 2^-37, and the confirm
window of 4 quanta would grow to 6.

The witness is the lexicographically smallest quadruple of maximal delta.
The confirm pass and the sampler carry it as a key, the flat index of the
sorted quadruple in an ``(n, n, n, n)`` array, so keys order as witnesses
do.
Within a confirmed step the corner is set to -inf and the first flat
maximum is the lex-min (i, k, l); within a confirmed (chunk, j) the
smallest key among the steps reaching its maximum wins. One fold,
``_fold``, merges the parts by value, ties going to the smaller key. The
fold does not depend on task order, so tasks run heaviest first and the
report is identical for any worker count.

The screen, the confirm pass and the sampler are each one ``_pool._run``
pass, whose forked children read the matrices and their scaled copies as
the caller holds them. ``_pool._processes`` sizes each pass by its own
work, up to ``workers`` processes: the screen takes one
per ``_FORK_QUADS`` quadruples of the batch, the confirm pass one per
``_FORK_CONFIRMS`` entries of its grids, and the sampler one per
``_FORK_BATCHES`` batches. So ``workers`` is an upper bound that a small
input lowers: a sweep of 12 points, a confirm pass of a few steps and a
sample of 2,000 quadruples run in the calling process at any worker count.

Both kernels read any input, a nested list included, by ``spaces``' one
gate, and need finite, exactly symmetric entries (``InputError`` otherwise).
A matrix with an entry of at least ``_HUGE_ENTRY`` = 2^1022 is
evaluated scaled by 1/4, so no float64 pairing sum overflows. The factor is
a power of two, so the witness and the scaled-back delta are exact (unless
the matrix also holds entries below 2^-1020, which lose bits when scaled).

``sampled_delta`` draws distinct-index quadruples uniformly from a seeded
generator in fixed-size batches (one spawned substream per batch). Each
batch is a task of one ``_run`` pass, reporting its best value and the key
of the lex-min sorted quadruple reaching it, and batches fold as exact
tasks do, so the result is reproducible and independent of scheduling.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from itertools import compress
from math import comb, prod

import numpy as np

from ._pool import _processes, _run
from .errors import InputError
from .spaces import (
    _STEP_BYTES, _as_entries, _count, _pairs, _require_finite, _require_symmetric, _worker_count
)

#: Quadruples per sampling batch; part of the determinism contract.
SAMPLE_BATCH = 65536
#: Scratch bytes per grid entry: the screen's two int16 grids and the
#: confirm pass's five float64 ones.
_SCREEN_ENTRY, _CONFIRM_ENTRY = 2 * 2, 5 * 8
#: A matrix with an entry this large runs the kernels scaled by 1/4.
_HUGE_ENTRY = 2.0**1022
#: Work per process of a pass, which runs in the calling process below two
#: units: screened quadruples (about 5 ms of int16 screen at n = 200),
#: confirmed grid entries (about 7 ms of float64 confirm; its tasks are
#: fewer and less even than the screen's) and sampler batches (about 28 ms).
_FORK_QUADS, _FORK_CONFIRMS, _FORK_BATCHES = 1 << 22, 1 << 20, 4


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


def _kernel_entries(d) -> tuple[np.ndarray, float]:
    """The finite matrix behind ``d`` as the kernels read it, and the factor
    that scales their delta back: 4 when the matrix was scaled by 1/4."""
    e = _as_entries(d)
    _require_finite(e)
    _require_symmetric(e)  # the exact kernel reads each pair from one triangle
    return (e * 0.25, 4.0) if np.abs(e).max() >= _HUGE_ENTRY else (e, 1.0)


def _doubled_delta(s1, s2, s3, bufs=(None, None)):
    """Twice the delta of the quadruples with pairing sums ``s1``, ``s2`` and
    ``s3``: the largest sum minus the median, as
    |max(s1, min(s2, s3)) - max(s2, s3)|, in five ufunc passes. Operands
    broadcast as in a ufunc.

    The two operands are the largest sum and the median, as values: when
    s1 is the largest, max(s1, min(s2, s3)) is s1 and max(s2, s3) the
    median; otherwise max(s2, s3) is the largest and max(s1, min(s2, s3))
    the median. Every step but the subtraction is an exact comparison. In
    IEEE arithmetic fl(a - b) and fl(b - a) differ only in sign, and in the
    screen's int16 the subtraction is exact, since its values keep the
    largest minus the median below 24576 (see the module docstring); the
    absolute value is exact, so the result has the bits of the largest
    minus the median. An s1 below s2 and s3, -inf or the int16 -32768,
    gives max(s2, s3) - min(s2, s3). With two scratch buffers of the
    result's shape nothing is allocated, and the result is the first of
    them.
    """
    a, b = bufs
    near = np.maximum(s1, np.minimum(s2, s3, out=b), out=b)
    diff = np.subtract(near, np.maximum(s2, s3, out=a), out=a)
    return np.abs(diff, out=a)


def quadruple_delta(d, x: int, y: int, z: int, v: int) -> float:
    """Delta of a single quadruple; invariant under all 24 relabelings."""
    e = _pairs(d, [x, z, x, y, x, y], [y, v, z, v, v, z])
    return float(_doubled_delta(e[0] + e[1], e[2] + e[3], e[4] + e[5])) / 2.0


def _middle_steps(
    n: int, j: int, nb: int, entry_bytes: int, spans=None
) -> list[tuple[int, int]]:
    """The ``(k0, g)`` steps of middle index j over n points for nb matrices
    of ``entry_bytes`` scratch bytes per grid entry: each takes g
    consecutive k values from k0, as many as keep its
    ``(nb, j, g, n - k0 - 1)`` grids within ``_STEP_BYTES`` (at least one).
    The steps cover the ``(k0, g)`` ``spans`` in order, none crossing a
    span's end; by default one span of every k from j + 1 to n - 2."""
    steps = []
    for lo, count in [(j + 1, n - 2 - j)] if spans is None else spans:
        k0, end = lo, lo + count
        while k0 < end:
            g = max(1, min(end - k0, _STEP_BYTES // (entry_bytes * nb * j * (n - k0 - 1))))
            steps.append((k0, g))
            k0 += g
    return steps


def _step_grids(nb: int, n: int, j: int, steps, count: int, dtype):
    """Yield ``(k0, g, grids)`` for each ``(k0, g)`` of ``steps``: ``count``
    scratch ``(nb, i < j, g, l > k0)`` grids of ``dtype``, views of one
    allocation sized for the largest step."""
    size = nb * j * max(g * (n - k0 - 1) for k0, g in steps)
    bufs = np.empty((count, size), dtype=dtype)
    for k0, g in steps:
        shape = (nb, j, g, n - k0 - 1)
        yield k0, g, tuple(buf[: prod(shape)].reshape(shape) for buf in bufs)


def _middle_grids(stack: np.ndarray, j: int, op, count: int, spans=None):
    """Yield ``(k0, g, grids)`` for each ``_middle_steps`` step of the
    ``spans`` (by default every k) of a ``(nb, n, n)`` stack: ``count``
    ``_step_grids`` in the stack's dtype, within ``_STEP_BYTES`` together.
    The first three hold the pairings d(i,j) op d(k,l), d(i,k) op d(j,l)
    and d(i,l) op d(j,k) of the binary ufunc ``op`` over k0 <= k < k0 + g;
    every operand is read from the upper triangle."""
    nb, n = stack.shape[0], stack.shape[1]
    steps = _middle_steps(n, j, nb, count * stack.itemsize, spans)
    col_j, row_j = stack[:, :j, j, None, None], stack[:, j]
    for k0, g, grids in _step_grids(nb, n, j, steps, count, stack.dtype):
        ks, ls = slice(k0, k0 + g), slice(k0 + 1, n)
        op(col_j, stack[:, None, ks, ls], out=grids[0])
        op(stack[:, :j, ks, None], row_j[:, None, None, ls], out=grids[1])
        op(stack[:, :j, None, ls], row_j[:, None, ks, None], out=grids[2])
        yield k0, g, grids


def _drop_corner(grid: np.ndarray, g: int, tri: np.ndarray) -> None:
    """Set the l <= k corner of a g-step grid, ``[k - k0, l - k0 - 1]``,
    which holds no quadruple, to -inf. ``tri`` is a sweep's one
    ``np.tri(G, G, -1, dtype=bool)`` for its largest step G >= g, whose
    top-left g x g corner is that of ``np.tri(g, g, -1)``."""
    np.copyto(grid[..., :g], -np.inf, where=tri[:g, :g])


def _screen_copy(part: list[np.ndarray]) -> np.ndarray:
    """The screen's copy of a chunk of nb ``(n, n)`` matrices: a
    C-contiguous ``(n, n, nb)`` array, the batch axis innermost, each matrix
    scaled by 2^(13 - e) if it is nonnegative and by 2^(12 - e) otherwise,
    e from ``frexp`` of its largest |entry|, so every entry has |x| < 2^13,
    or |x| < 2^12. A unit of the copy is the matrix's quantum."""
    exps = np.frexp([np.abs(e).max() for e in part])[1]
    shifts = 13 - np.array([e.min() < 0 for e in part]) - exps
    out = np.stack(part, axis=2)
    return np.ldexp(out, shifts, out=out)


def _gromov_rows(scaled: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """``(Q, R)`` of middle index j for an ``(n, n, nb)`` scaled chunk, in
    int16, with k = j + 1 + k' and l = j + 1 + l', the batch axis last:
    Q[k', i] = d(i,k) - (d(i,j) + d(j,k)) for i < j and
    R[k', l'] = d(k,l) - (d(j,k) + d(j,l)), each computed in float64 and
    rounded down once. R is bitwise symmetric, and its diagonal is -32768."""
    m = scaled.shape[0] - j - 1
    # row k' is d(k,r) - (d(k,j) + d(j,r)) over every r, in one buffer
    rows = np.add(scaled[j + 1 :, j, None], scaled[None, j])
    np.floor(np.subtract(scaled[j + 1 :], rows, out=rows), out=rows)
    q = rows[:, :j].astype(np.int16)
    r = rows[:, j + 1 :].astype(np.int16)
    r.reshape(m * m, -1)[:: m + 1] = -32768
    return q, r


def _screen_middle(stacks, c: int, j: int) -> np.ndarray:
    """The screen of task (c, j): per ``_middle_steps(n, j, nb,
    _SCREEN_ENTRY)`` step and matrix, the largest int16 doubled delta over
    quadruples (i, j, k, l) of the nb matrices of chunk c, in quanta, read
    from its scaled copy ``stacks[1][c]`` in the Gromov-product form
    ``_gromov_rows``, shape ``(steps, nb)``. The step's corner is left in:
    see the module docstring."""
    scaled = stacks[1][c]
    n, nb = scaled.shape[0], scaled.shape[2]
    q, r = _gromov_rows(scaled, j)
    maxima = []
    steps = _middle_steps(n, j, nb, _SCREEN_ENTRY)
    for k0, g, bufs in _step_grids(nb, n, j, steps, 2, np.int16):
        ks, ls = slice(k0 - j - 1, k0 - j - 1 + g), slice(k0 - j, None)
        # (k, l, i, b) grids: Q over l is one contiguous block, so four of
        # the five passes run over whole (i, b) rows or more
        grids = tuple(buf.reshape(g, -1, j, nb) for buf in bufs)
        d2 = _doubled_delta(r[ks, ls, None], q[ks, None], q[None, ls], grids)
        # above nb = 1, reduce whole (i, b) rows first, not one b per row
        rows = d2.reshape(-1, j * nb).max(axis=0).reshape(j, nb) if nb > 1 else d2.reshape(-1, 1)
        maxima.append(rows.max(axis=0))
    return np.array(maxima)


def _scan_middle(
    stacks, rows: np.ndarray, j: int, spans: list[tuple[int, int]]
) -> tuple[np.ndarray, np.ndarray]:
    """Per-matrix best doubled delta and the key of its lex-min witness among
    quadruples (i, j, k, l), j fixed, i < j < k < l, k in one of the
    ``(k0, g)`` ``spans``, of the matrices ``rows`` of the list of float64
    ``(n, n)`` matrices ``stacks[0]``. Each span, a screen step, is re-split
    into steps within ``_STEP_BYTES`` for these rows. A witness's key is
    its flat index in an ``(n, n, n, n)`` array, so keys order as witnesses
    do."""
    stack = np.stack([stacks[0][r] for r in rows])
    nb, n = stack.shape[0], stack.shape[1]
    each = np.arange(nb)
    vals, keys = [], []
    top = max(g for _, g in spans)  # no step is longer than its span
    tri = np.tri(top, top, -1, dtype=bool)
    for k0, g, (s1, s2, s3, a, b) in _middle_grids(stack, j, np.add, 5, spans):
        d2 = _doubled_delta(s1, s2, s3, (a, b))
        _drop_corner(d2, g, tri)
        flat = d2.reshape(nb, -1)
        at = np.argmax(flat, axis=1)  # first flat maximum: lex-min (i, k, l)
        vals.append(flat[each, at])
        i, dk, dl = np.unravel_index(at, d2.shape[1:])
        keys.append(np.ravel_multi_index((i, j, k0 + dk, k0 + 1 + dl), (n,) * 4))
    # Entries are finite and below 2^1022, so no value is NaN.
    vals, keys = np.array(vals), np.array(keys)
    best2 = vals.max(axis=0)
    key = np.where(vals == best2, keys, np.iinfo(np.int64).max).min(axis=0)
    return best2, key


def _fold(rows, parts, nb: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Best doubled delta ``(nb,)`` and lex-min witness ``(nb, 4)`` of ``nb``
    matrices over n points, from task parts: ``parts[t]`` holds the values
    and witness keys of the matrices ``rows[t]``, an array of distinct
    indices. Parts fold by value, ties going to the smaller key, so the
    result does not depend on task order."""
    best2 = np.full(nb, -np.inf)
    key = np.zeros(nb, dtype=np.int64)
    for at, (part2, part_key) in zip(rows, parts):
        cur2, cur_key = best2[at], key[at]
        better = (part2 > cur2) | ((part2 == cur2) & (part_key < cur_key))
        best2[at] = np.where(better, part2, cur2)
        key[at] = np.where(better, part_key, cur_key)
    return best2, np.stack(np.unravel_index(key, (n,) * 4), axis=1)


def _chunk_size(n: int) -> int:
    """Matrices per chunk: as many as keep the confirm pass's largest
    single-k step, five float64 grids of max over j of
    j (n - j - 2) = (n - 2)^2 // 4 entries per matrix, within
    ``_STEP_BYTES`` (at least one)."""
    return max(1, _STEP_BYTES // (_CONFIRM_ENTRY * ((n - 2) ** 2 // 4)))


def _sweep(entries: list[np.ndarray], workers: int) -> tuple[np.ndarray, np.ndarray]:
    """Best doubled delta ``(B,)`` and lex-min witness ``(B, 4)`` of every
    matrix in a list of B ``(n, n)`` matrices: an int16 screen of every
    step, from (chunk, j) tasks run heaviest first, then one float64 confirm
    pass over the matrices and steps whose bound reaches the matrix's floor,
    each pass on up to ``workers`` processes, as its work allows."""
    nb, n = len(entries), entries[0].shape[0]
    size = _chunk_size(n)
    chunks = [np.arange(lo, min(lo + size, nb)) for lo in range(0, nb, size)]
    # Task j covers j * C(n - j - 1, 2) quadruples per matrix.
    middles = sorted(range(1, n - 2), key=lambda j: -j * comb(n - j - 1, 2))
    tasks = [(c, j) for j in middles for c in range(len(chunks))]
    copies = [_screen_copy(entries[lo : lo + size]) for lo in range(0, nb, size)]
    processes = _processes(workers, len(tasks), nb * comb(n, 4), _FORK_QUADS)
    # (steps, matrices of chunk c) int16 maxima, each matrix in its own quanta
    screens = [m.astype(float) for m in _run(_screen_middle, (entries, copies), tasks, processes)]
    floor = np.full(nb, -np.inf)
    for (c, _), m in zip(tasks, screens):
        at = chunks[c]
        floor[at] = np.maximum(floor[at], (m - 2.0).max(axis=0))
    confirm = []
    for (c, j), m in zip(tasks, screens):
        reach = m + 2.0 >= floor[chunks[c]]
        rows = chunks[c][reach.any(axis=0)]
        if rows.size:
            steps = _middle_steps(n, j, len(chunks[c]), _SCREEN_ENTRY)
            confirm.append((rows, j, list(compress(steps, reach.any(axis=1)))))
    work = sum(len(rows) * j * sum(g * (n - k0 - 1) for k0, g in spans)
               for rows, j, spans in confirm)
    parts = _run(_scan_middle, (entries, copies), confirm,
                 _processes(workers, len(confirm), work, _FORK_CONFIRMS))
    return _fold([task[0] for task in confirm], parts, nb, n)


def exact_delta(d, n: int | None = None, workers: int = 1) -> DeltaReport:
    """Maximize quadruple delta over all distinct quadruples.

    ``d`` may be a DistanceMatrix, a square ndarray, or a callable oracle
    (the latter needs ``n`` and is read once into a matrix with n(n-1)/2
    calls, then runs through the same kernel). ``workers`` is the most
    processes a pass may take; the input size can lower it. The witness is
    the lexicographically smallest quadruple achieving the maximum; delta
    and witness are bit-identical for any ``workers`` value. This is
    ``exact_deltas`` on a batch of one.
    """
    return exact_deltas([_as_entries(d, n)], workers)[0]


def exact_deltas(matrices, workers: int = 1) -> list[DeltaReport]:
    """``exact_delta`` of every matrix in a batch of equal size, in one
    sweep: each (j, k0) step runs once per chunk of up to
    ``_chunk_size(n)`` matrices, not once per matrix.

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
    n = sizes[0]
    if n < 4:
        raise InputError(f"need at least 4 points, got n={n}")
    best2, wit = _sweep(list(entries), workers)
    elapsed = time.perf_counter() - t0
    return [
        DeltaReport(
            delta=float(b) / 2.0 * s,
            witness=tuple(int(x) for x in w),
            mode="exact",
            quadruples_evaluated=comb(n, 4),
            elapsed_s=elapsed,
        )
        for b, w, s in zip(best2, wit, scales)
    ]


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


def _batch_best(entries: np.ndarray, count: int, seq: np.random.SeedSequence) -> tuple[float, int]:
    """Best doubled delta of ``count`` quadruples drawn from the substream
    ``seq``, and the key of the lex-min sorted quadruple reaching it, as in
    ``_scan_middle``."""
    rng = np.random.Generator(np.random.PCG64(seq))
    n = entries.shape[0]
    idx = _draw_quadruples(rng, n, count)
    xi, yi, zi, vi = idx[:, 0], idx[:, 1], idx[:, 2], idx[:, 3]
    flat = entries.ravel()  # entry (a, b) of the C-contiguous matrix is flat[a * n + b]
    d2 = _doubled_delta(
        flat.take(xi * n + yi) + flat.take(zi * n + vi),
        flat.take(xi * n + zi) + flat.take(yi * n + vi),
        flat.take(xi * n + vi) + flat.take(yi * n + zi),
    )
    best2 = d2.max()
    srt = np.sort(idx[d2 == best2], axis=1)
    return best2, np.ravel_multi_index(srt.T, (n,) * 4).min()


def sampled_delta(
    d, n: int | None = None, samples: int = 10000, seed: int = 0, workers: int = 1
) -> DeltaReport:
    """Monte-Carlo lower bound: max delta over sampled distinct quadruples.

    Reproducible given the seed: quadruples come from fixed-size batches
    with one spawned PCG64 substream each, and batch results fold as the
    exact kernel's tasks do, so the report does not depend on worker count.
    A callable oracle (with ``n``) is read once into a matrix, as in
    ``exact_delta``. When ``samples`` covers all C(n, 4) quadruples the run
    falls back to exhaustive enumeration, ``exact_deltas`` of the one matrix
    (reported with ``mode="exact"``), for matrices and callables alike.
    """
    t0 = time.perf_counter()
    workers = _worker_count(workers)
    samples, seed = _count(samples, 1, "samples"), _count(seed, 0, "seed")
    e = _as_entries(d, n)
    n = e.shape[0]
    if samples >= comb(n, 4):  # C(n, 4) = 0 below 4 points, which exact_deltas rejects
        report = exact_deltas([e], workers)[0]
        report.seed = seed
        return report
    entries, scale = _kernel_entries(e)

    sizes = [SAMPLE_BATCH] * (samples // SAMPLE_BATCH)
    if samples % SAMPLE_BATCH:
        sizes.append(samples % SAMPLE_BATCH)
    tasks = list(zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))))
    processes = _processes(workers, len(tasks), len(tasks), _FORK_BATCHES)
    parts = _run(_batch_best, np.ascontiguousarray(entries), tasks, processes)
    best2, wit = _fold([[0]] * len(parts), parts, 1, n)
    return DeltaReport(
        delta=float(best2[0]) / 2.0 * scale,
        witness=tuple(int(x) for x in wit[0]),
        mode="sampled",
        quadruples_evaluated=samples,
        seed=seed,
        elapsed_s=time.perf_counter() - t0,
    )

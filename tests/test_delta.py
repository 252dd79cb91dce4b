import math
import tracemalloc
from itertools import combinations, groupby, permutations
from operator import itemgetter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmetrics import (
    DistanceMatrix,
    InputError,
    PointCloud,
    build_distance_matrix,
    PuncturedSpec,
    exact_delta,
    exact_deltas,
    hyperbolicity_sweep,
    punctured_matrix,
    quadruple_delta,
    random_cloud,
    sampled_delta,
)
from hypmetrics import _pool, delta, scenarios
from hypmetrics.delta import SAMPLE_BATCH, _chunk_size, _draw_quadruples
from hypmetrics.scenarios import _place_punctures


def brute_force_delta(entries):
    """Independent oracle: plain loop over combinations with sorted sums."""
    n = entries.shape[0]
    best = -math.inf
    wit = None
    for x, y, z, v in combinations(range(n), 4):
        s = sorted(
            (
                entries[x, y] + entries[z, v],
                entries[x, z] + entries[y, v],
                entries[x, v] + entries[y, z],
            )
        )
        cand = (s[2] - s[1]) / 2.0
        if cand > best:
            best = cand
            wit = (x, y, z, v)
    return best, wit


def test_collinear_quadruple_is_zero():
    m = build_distance_matrix(PointCloud([0.0, 1.0, 2.0, 3.0]))
    assert quadruple_delta(m, 0, 1, 2, 3) == 0.0


def test_taxicab_corner_quadruple():
    corners = PointCloud([[0.0, 0.0], [1.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    m = build_distance_matrix(corners, "taxicab")
    # pairing sums are 4, 2, 2 -> delta 1
    assert quadruple_delta(m, 0, 1, 2, 3) == 1.0


def test_repeated_point_gives_zero_for_metric():
    m = build_distance_matrix(random_cloud(6, 2, seed=2))
    for x, y, z in ((0, 1, 2), (3, 4, 5), (1, 3, 5)):
        assert quadruple_delta(m, x, y, z, z) == 0.0


def test_relabeling_invariance_all_24():
    m = build_distance_matrix(random_cloud(8, 2, seed=17))
    base = quadruple_delta(m, 0, 3, 5, 7)
    for perm in permutations((0, 3, 5, 7)):
        assert quadruple_delta(m, *perm) == base


def test_quadruple_delta_reads_nested_lists():
    m = build_distance_matrix(random_cloud(7, 2, seed=29))
    rows = m.entries.tolist()
    quads = list(permutations(range(7), 4))
    on_matrix = np.array([quadruple_delta(m, *q) for q in quads])
    on_lists = np.array([quadruple_delta(rows, *q) for q in quads])
    assert np.array_equal(on_lists.view(np.uint64), on_matrix.view(np.uint64))


@pytest.mark.parametrize(
    "v, message",
    [
        (-1, "^need point index >= 0, got -1$"),  # read point 5
        (2.5, "^point index must be an integer, got 2.5$"),
        (True, "^point index must be an integer, got True$"),
        (6, r"^point index 6 out of range \[0, 6\)$"),
    ],
)
def test_quadruple_delta_refuses_bad_indices(v, message):
    m = build_distance_matrix(random_cloud(6, 2, seed=79))
    for d in (m, m.entries, m.entries.tolist()):
        with pytest.raises(InputError, match=message):
            quadruple_delta(d, 0, 1, 2, v)


def test_exact_on_four_points_equals_quadruple():
    m = build_distance_matrix(random_cloud(4, 2, seed=23))
    rep = exact_delta(m)
    assert rep.delta == quadruple_delta(m, 0, 1, 2, 3)
    assert rep.witness == (0, 1, 2, 3)
    assert rep.quadruples_evaluated == 1


def test_exact_collinear_is_zero():
    m = build_distance_matrix(PointCloud([float(i) for i in range(9)]))
    rep = exact_delta(m)
    assert rep.delta == 0.0


def test_witness_tie_breaks_lexicographically():
    # every quadruple of an equidistant space ties at delta 0; the witness
    # must be the lexicographically smallest tuple
    m = DistanceMatrix(np.ones((7, 7)) - np.eye(7))
    rep = exact_delta(m)
    assert rep.delta == 0.0
    assert rep.witness == (0, 1, 2, 3)
    par = exact_delta(m, workers=2)
    assert par.witness == (0, 1, 2, 3)


def test_exact_matches_brute_force_oracle():
    for seed in (1, 2, 3):
        m = build_distance_matrix(random_cloud(12, 2, seed=seed))
        expected, expected_wit = brute_force_delta(m.entries)
        rep = exact_delta(m)
        assert rep.delta == expected
        assert rep.witness == expected_wit


def test_exact_matches_brute_force_on_nonmetric():
    # tilde variant over a non-Ptolemaic base can break the triangle
    # inequality; the kernel must not assume it holds.
    base = DistanceMatrix(
        [
            [0.0, 2.0, 1.0, 1.0, 1.5],
            [2.0, 0.0, 1.0, 1.0, 0.8],
            [1.0, 1.0, 0.0, 2.0, 1.1],
            [1.0, 1.0, 2.0, 0.0, 1.9],
            [1.5, 0.8, 1.1, 1.9, 0.0],
        ]
    )
    from hypmetrics import PuncturedSpec, punctured_matrix

    tilde = punctured_matrix(PuncturedSpec(base, [0], variant="tilde_tau_p"))
    expected, expected_wit = brute_force_delta(tilde.entries)
    rep = exact_delta(tilde)
    assert rep.delta == expected
    assert rep.witness == expected_wit


def test_witness_reevaluates_exactly():
    m = build_distance_matrix(random_cloud(30, 2, seed=31))
    rep = exact_delta(m)
    assert quadruple_delta(m, *rep.witness) == rep.delta
    srep = sampled_delta(m, samples=2000, seed=5)
    assert quadruple_delta(m, *srep.witness) == srep.delta


def test_oracle_callable_path():
    m = build_distance_matrix(random_cloud(9, 2, seed=37))
    entries = m.entries

    def oracle(i, j):
        return float(entries[i, j])

    rep_matrix = exact_delta(m)
    rep_oracle = exact_delta(oracle, n=9)
    assert rep_oracle.delta == rep_matrix.delta
    assert rep_oracle.witness == rep_matrix.witness
    with pytest.raises(InputError):
        exact_delta(oracle)
    for value, message in (("a", "could not convert string to float: 'a'$"), (None, "'NoneType'$")):
        with pytest.raises(InputError, match=message):
            exact_delta(lambda i, j: value, n=5)


def test_exact_rejects_small_n():
    m = build_distance_matrix(random_cloud(3, 2, seed=1))
    with pytest.raises(InputError):
        exact_delta(m)


@settings(max_examples=30, derandomize=True)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_scale_covariance(lam):
    m = build_distance_matrix(random_cloud(10, 2, seed=41))
    scaled = DistanceMatrix(m.entries * lam)
    a = exact_delta(m)
    b = exact_delta(scaled)
    assert b.delta == pytest.approx(lam * a.delta, rel=1e-12)
    assert b.witness == a.witness


def test_monotone_under_restriction():
    cloud = random_cloud(16, 2, seed=43)
    m = build_distance_matrix(cloud)
    prev = -1.0
    for size in (6, 9, 12, 16):
        rep = exact_delta(DistanceMatrix(m.entries[:size, :size]))
        assert rep.delta >= prev
        prev = rep.delta


def test_sampled_below_exact_and_deterministic():
    m = build_distance_matrix(random_cloud(25, 2, seed=47))
    exact = exact_delta(m)
    a = sampled_delta(m, samples=3000, seed=11)
    b = sampled_delta(m, samples=3000, seed=11)
    c = sampled_delta(m, samples=3000, seed=12)
    assert a.delta <= exact.delta
    assert (a.delta, a.witness, a.quadruples_evaluated) == (
        b.delta,
        b.witness,
        b.quadruples_evaluated,
    )
    # a different seed explores different quadruples (delta may tie, the
    # report must still be fully populated)
    assert c.seed == 12
    assert a.mode == "sampled"


def test_sampled_exhaustive_fallback_equals_exact():
    m = build_distance_matrix(random_cloud(8, 2, seed=53))
    exact = exact_delta(m)
    rep = sampled_delta(m, samples=10000, seed=3)  # C(8,4) = 70 << 10000
    assert rep.delta == exact.delta
    assert rep.witness == exact.witness
    assert rep.mode == "exact"
    assert rep.seed == 3


def test_sampled_rejects_bad_counts():
    m = build_distance_matrix(random_cloud(6, 2, seed=1))
    with pytest.raises(InputError):
        sampled_delta(m, samples=0, seed=1)
    # 2.5 samples raised a bare TypeError
    for samples, seed, message in [
        (2.5, 1, "samples must be an integer, got 2.5"),
        (10, 1.5, "seed must be an integer, got 1.5"),
        (10, -1, "need seed >= 0, got -1"),
    ]:
        with pytest.raises(InputError, match=f"^{message}$"):
            sampled_delta(m, samples=samples, seed=seed)


def test_parallel_bit_identical():
    m = build_distance_matrix(random_cloud(40, 2, seed=59))
    serial = exact_delta(m, workers=1)
    parallel = exact_delta(m, workers=2)
    assert serial.delta == parallel.delta
    assert serial.witness == parallel.witness
    s1 = sampled_delta(m, samples=1000, seed=7, workers=1)
    s2 = sampled_delta(m, samples=1000, seed=7, workers=2)
    assert s1.delta == s2.delta
    assert s1.witness == s2.witness


def test_pool_never_outnumbers_its_tasks(monkeypatch):
    spawned = []  # per forked child: its kernel and the task count of its share
    spawn = _pool._spawn

    def recording(fn, shared, share, pipes):
        spawned.append((fn.__name__, len(share)))
        return spawn(fn, shared, share, pipes)

    def passes():
        """(kernel, share sizes) of each forked pass since the last clear."""
        return [(kernel, [size for _, size in children])
                for kernel, children in groupby(spawned, key=itemgetter(0))]

    monkeypatch.setattr(_pool, "_spawn", recording)
    four = build_distance_matrix(random_cloud(4, 2, seed=3))
    assert exact_delta(four, workers=5000).witness == exact_delta(four, workers=1).witness
    assert spawned == []  # one task runs in the caller
    # below two units of work a pass runs in the caller, at any worker count
    m = build_distance_matrix(random_cloud(130, 2, seed=1))  # two confirm tasks
    exact_delta(build_distance_matrix(random_cloud(12, 2, seed=3)), workers=2)
    sampled_delta(m, samples=2000, seed=2, workers=2)
    assert spawned == []
    exact_delta(m, workers=2)  # the screen forks, and the confirm pass of two tasks does not
    assert [kernel for kernel, _ in passes()] == ["_screen_middle"]
    ones = np.ones((130, 130)) - np.eye(130)
    for run in (lambda w: exact_delta(m, workers=w),
                lambda w: sampled_delta(m, samples=8 * SAMPLE_BATCH + 10, seed=2, workers=w),
                lambda w: exact_delta(ones, workers=w)):
        for workers in (5000, 3):
            spawned.clear()
            serial = run(1)
            assert spawned == []  # nothing forks at workers=1
            forked = run(workers)
            assert (forked.delta, forked.witness) == (serial.delta, serial.witness)
            assert passes()
            for _, shares in passes():
                p, tasks = len(shares), sum(shares)
                assert 1 < p <= min(workers, tasks)  # no more processes than tasks
                assert shares == [len(range(w, tasks, p)) for w in range(p)]  # one share each
    # every step of the all-ones matrix ties, so its confirm pass forks too
    assert [(kernel, sum(shares)) for kernel, shares in passes()] == [
        ("_screen_middle", 127), ("_scan_middle", 127)
    ]


@pytest.mark.parametrize("workers", [2, 3])
def test_tie_heavy_reports_do_not_depend_on_workers(workers):
    ones = np.ones((130, 130)) - np.eye(130)
    serial = exact_delta(ones, workers=1)
    pooled = exact_delta(ones, workers=workers)
    assert (serial.delta, serial.witness) == (0.0, (0, 1, 2, 3))
    assert (pooled.delta, pooled.witness) == (serial.delta, serial.witness)
    rng = np.random.Generator(np.random.PCG64(97))
    batch = []
    for _ in range(12):
        a = np.triu(rng.integers(1, 4, size=(70, 70)).astype(float), 1)
        batch.append(a + a.T)
    serial = exact_deltas(batch, workers=1)
    pooled = exact_deltas(batch, workers=workers)
    assert [(np.float64(r.delta).view(np.uint64), r.witness) for r in pooled] == [
        (np.float64(r.delta).view(np.uint64), r.witness) for r in serial
    ]


def test_report_serialization():
    m = build_distance_matrix(random_cloud(10, 2, seed=61))
    rep = exact_delta(m)
    d = rep.to_dict()
    assert set(d) == {"delta", "witness", "mode", "quadruples", "seed", "elapsed_ms"}
    assert d["mode"] == "exact"
    assert d["quadruples"] == math.comb(10, 4)


def test_oracle_sampled_path_matches_matrix():
    m = build_distance_matrix(random_cloud(14, 2, seed=63))
    entries = m.entries

    def oracle(i, j):
        return float(entries[i, j])

    for samples in (300, 5000):  # sampled, then the exhaustive fallback (C(14,4) = 1001)
        rep_matrix = sampled_delta(m, samples=samples, seed=9)
        rep_oracle = sampled_delta(oracle, n=14, samples=samples, seed=9)
        assert (rep_oracle.delta, rep_oracle.witness, rep_oracle.mode) == (
            rep_matrix.delta,
            rep_matrix.witness,
            rep_matrix.mode,
        )
    assert rep_oracle.mode == "exact"


@pytest.mark.parametrize("workers", [1, 2])
def test_sampled_ties_fold_across_batches(workers):
    # every quadruple of an equidistant matrix has delta 0, so the witness
    # is the lex-min sorted quadruple over all three batches' draws
    n, seed, sizes = 60, 2, (SAMPLE_BATCH, SAMPLE_BATCH, 7)
    firsts = []
    for size, seq in zip(sizes, np.random.SeedSequence(seed).spawn(3)):
        idx = _draw_quadruples(np.random.Generator(np.random.PCG64(seq)), n, size)
        firsts.append(min(tuple(sorted(q)) for q in idx.tolist()))
    assert firsts.index(min(firsts)) == 1  # neither the first nor the last batch
    rep = sampled_delta(np.ones((n, n)) - np.eye(n), samples=sum(sizes), seed=seed, workers=workers)
    assert (rep.delta, rep.witness, rep.mode) == (0.0, min(firsts), "sampled")


def _sampled_reference(e, samples, seed):
    """``sampled_delta``'s best doubled delta and witness, from the same
    batches, gathered with 2-D indexing and ranked with a sort."""
    n = e.shape[0]
    sizes = [SAMPLE_BATCH] * (samples // SAMPLE_BATCH) + [samples % SAMPLE_BATCH]
    sizes = [size for size in sizes if size]
    best, witness = -math.inf, None
    for size, seq in zip(sizes, np.random.SeedSequence(seed).spawn(len(sizes))):
        x, y, z, v = _draw_quadruples(np.random.Generator(np.random.PCG64(seq)), n, size).T
        sums = np.sort([e[x, y] + e[z, v], e[x, z] + e[y, v], e[x, v] + e[y, z]], axis=0)
        d2 = sums[2] - sums[1]
        top = min(tuple(sorted(q)) for q in np.stack([x, y, z, v], axis=1)[d2 == d2.max()].tolist())
        if d2.max() > best or (d2.max() == best and top < witness):
            best, witness = d2.max(), top
    return best / 2.0, witness


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_sampled_matches_a_2d_gather_reference(seed):
    rng = np.random.default_rng(seed)
    steps = rng.integers(1, 4, size=(50, 50)).astype(float)  # few distinct values: tied maxima
    matrices = [
        build_distance_matrix(random_cloud(50, 2, seed=seed)).entries,
        np.triu(steps, 1) + np.triu(steps, 1).T,
        np.ones((50, 50)) - np.eye(50),
    ]
    for e in matrices:
        for samples in (5000, SAMPLE_BATCH + 5000):
            rep = sampled_delta(e, samples=samples, seed=seed)
            assert (rep.delta, rep.witness) == _sampled_reference(e, samples, seed)


@pytest.mark.parametrize("workers", [0, -3])
def test_workers_below_one_rejected(workers):
    m = build_distance_matrix(random_cloud(8, 2, seed=65))
    with pytest.raises(InputError):
        exact_delta(m, workers=workers)
    with pytest.raises(InputError):
        sampled_delta(m, samples=20, seed=1, workers=workers)


@pytest.mark.parametrize("workers", [1.5, True, "2"])
def test_workers_that_are_not_integers_rejected(workers):
    # 1.5 raised a bare TypeError from inside the pool
    m = build_distance_matrix(random_cloud(8, 2, seed=65))
    for run in (lambda: exact_delta(m, workers=workers),
                lambda: sampled_delta(m, samples=20, seed=1, workers=workers)):
        with pytest.raises(InputError, match=f"^workers must be an integer, got {workers!r}$"):
            run()


def _two_planted_maxima(
    n=9,
    far=10.0,
    blocks=(((0, 2, 4, 6), ((0, 2), (4, 6))), ((1, 3, 5, 7), ((1, 7), (3, 5)))),
):
    """Disjoint 4-point blocks, by default {0,2,4,6} and {1,3,5,7}, each with
    delta 1 on its own quadruple (its two long pairs at distance 2, the rest
    at 1); every other distance is ``far``, so no other quadruple reaches 1
    and the lex-min block, here (0, 2, 4, 6), must win the tie."""
    e = np.full((n, n), far)
    for block, long_pairs in blocks:
        for x, y in combinations(block, 2):
            e[x, y] = e[y, x] = 2.0 if (x, y) in long_pairs else 1.0
    np.fill_diagonal(e, 0.0)
    return e


def _mixed_batch(n):
    cloud = random_cloud(n, 2, seed=71)
    punctures = [[2.0, 2.0], [-1.0, 0.5], [0.5, 3.0]]
    batch = [build_distance_matrix(random_cloud(n, 2, seed=s)).entries for s in (72, 73)]
    for variant in ("avg_tau", "tilde_avg_tau", "sup_tau"):
        batch.append(punctured_matrix(PuncturedSpec(cloud, punctures, variant=variant)).entries)
    batch.append(np.ones((n, n)) - np.eye(n))
    if n == 9:
        batch.append(_two_planted_maxima())
    return batch


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("n", [4, 7, 9])
def test_exact_deltas_matches_per_matrix_and_brute_force(n, workers):
    batch = _mixed_batch(n)
    reports = exact_deltas(batch, workers=workers)
    assert len(reports) == len(batch)
    for entries, rep in zip(batch, reports):
        single = exact_delta(entries, workers=workers)
        assert (rep.delta, rep.witness) == (single.delta, single.witness)
        expected, expected_wit = brute_force_delta(entries)
        assert (rep.delta, rep.witness) == (expected, expected_wit)
        assert rep.mode == "exact" and rep.quadruples_evaluated == math.comb(n, 4)
    if n == 9:
        assert (reports[-1].delta, reports[-1].witness) == (1.0, (0, 2, 4, 6))
        assert reports[-2].witness == (0, 1, 2, 3)


@pytest.mark.parametrize("workers", [1, 2])
def test_exact_deltas_across_batch_chunks(workers):
    n = 9
    chunk = _chunk_size(n)
    base = _mixed_batch(n)
    rng = np.random.Generator(np.random.PCG64(79))
    batch = [base[t % len(base)] * rng.uniform(0.5, 2.0) for t in range(chunk + 3)]
    reports = exact_deltas(batch, workers=workers)
    for entries, rep in zip(batch, reports):
        single = exact_delta(entries)
        assert (rep.delta, rep.witness) == (single.delta, single.witness)


def test_exact_deltas_rejects_mixed_n_and_small_n():
    a = build_distance_matrix(random_cloud(6, 2, seed=81))
    b = build_distance_matrix(random_cloud(7, 2, seed=82))
    with pytest.raises(InputError):
        exact_deltas([a, b])
    with pytest.raises(InputError):
        exact_deltas([np.ones((3, 3)) - np.eye(3)])
    assert exact_deltas([]) == []


def _per_matrix_sweep_maxima(n, k_list, trials, seed):
    """The sweep's measured maxima from one ``exact_delta`` call per matrix,
    the one-point variants from their own matrices."""
    best = {v: {k: -math.inf for k in k_list} for v in ("avg_tau", "tilde_avg_tau", "sup_tau")}
    best_1p = {"tau_p": -math.inf, "tilde_tau_p": -math.inf}
    seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)
    for trial_seed in seeds:
        rng = np.random.Generator(np.random.PCG64(int(trial_seed)))
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        punctures = _place_punctures(rng, pts, max(k_list))
        for k in k_list:
            spec = PuncturedSpec(PointCloud(pts), punctures[:k], variant="avg_tau")
            for variant in best:
                rep = exact_delta(punctured_matrix(spec.with_variant(variant)))
                best[variant][k] = max(best[variant][k], rep.delta)
            if k == 1:
                for variant in best_1p:
                    rep = exact_delta(punctured_matrix(spec.with_variant(variant, anchor=0)))
                    best_1p[variant] = max(best_1p[variant], rep.delta)
    return {v: {str(k): d for k, d in per_k.items()} for v, per_k in best.items()}, best_1p


def test_sweep_maxima_equal_per_matrix_exact_delta(monkeypatch):
    batches = []

    def recording(matrices, workers=1):
        batches.append(len(matrices))
        return exact_deltas(matrices, workers)

    monkeypatch.setattr(scenarios, "exact_deltas", recording)
    # one call of all three trials' 6 cells; then, as many trials of 12
    # cells as fill a chunk of 45 matrices at n = 40, calls of 3, 3 and 1
    for n, k_list, trials, seed, calls in ((10, (1, 3), 3, 7, [18]),
                                           (40, (1, 2, 4, 8), 7, 1, [36, 36, 12])):
        batches.clear()
        res = hyperbolicity_sweep(n=n, k_list=k_list, trials=trials, seed=seed)
        assert batches == calls
        expected, expected_1p = _per_matrix_sweep_maxima(n, k_list, trials, seed)
        assert res.measured["max_delta"] == expected
        assert res.measured["one_point_max_delta"] == expected_1p


@pytest.mark.parametrize("factor", [2.0**1000, 2.0**1020], ids=["2**1000", "2**1020"])
def test_delta_scales_exactly_near_the_float_limit(factor):
    # at 2**1020 the largest entry (10 * 2**1020) is past the 2**1022 threshold
    # and its pairing sums would overflow; at 2**1000 nothing is rescaled
    e = _two_planted_maxima()
    big = e * factor
    for workers in (1, 2):
        ref, rep = exact_delta(e, workers=workers), exact_delta(big, workers=workers)
        assert (ref.delta, ref.witness) == (1.0, (0, 2, 4, 6))
        assert (rep.delta, rep.witness) == (factor, ref.witness)
        [batched] = exact_deltas([big], workers=workers)
        assert (batched.delta, batched.witness) == (rep.delta, rep.witness)
        for samples in (40, 500):  # sampled, then the exhaustive fallback (C(9,4) = 126)
            ref = sampled_delta(e, samples=samples, seed=5, workers=workers)
            rep = sampled_delta(big, samples=samples, seed=5, workers=workers)
            assert (rep.delta, rep.witness, rep.mode) == (factor * ref.delta, ref.witness, ref.mode)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_entries_rejected(bad):
    e = np.ones((6, 6)) - np.eye(6)
    e[1, 2] = bad
    with pytest.raises(InputError):
        exact_delta(e)
    with pytest.raises(InputError):
        exact_deltas([np.ones((6, 6)) - np.eye(6), e])
    with pytest.raises(InputError):
        sampled_delta(e, samples=5, seed=1)


def test_asymmetric_arrays_rejected():
    # the exact kernel reads each pair from one triangle, so every delta
    # entry point rejects an array that is not exactly symmetric
    rng = np.random.Generator(np.random.PCG64(83))
    e = rng.uniform(1.0, 2.0, size=(6, 6))
    np.fill_diagonal(e, 0.0)
    sym = np.triu(e) + np.triu(e).T
    assert exact_delta(sym).witness == brute_force_delta(sym)[1]
    with pytest.raises(InputError, match="symmetric"):
        exact_delta(e)
    with pytest.raises(InputError, match="symmetric"):
        exact_deltas([sym, e])
    for samples in (5, 500):  # sampled, then the exhaustive fallback (C(6,4) = 15)
        with pytest.raises(InputError, match="symmetric"):
            sampled_delta(e, samples=samples, seed=1)


def _tie_matrices(n):
    """Matrices where the maximal delta ties at many quadruples: two planted
    maxima whose lex-smaller one, (0, 5, 6, 7), has the larger middle index
    j than (2, 3, 8, 9); all-ones; and small-integer-valued ones."""
    planted = _two_planted_maxima(
        n, blocks=(((2, 3, 8, 9), ((2, 3), (8, 9))), ((0, 5, 6, 7), ((0, 5), (6, 7))))
    )
    rng = np.random.Generator(np.random.PCG64(89))
    out = [planted, np.ones((n, n)) - np.eye(n)]
    for high in (2, 4):
        a = np.triu(rng.integers(1, high + 1, size=(n, n)).astype(float), 1)
        out.append(a + a.T)
    return out


@pytest.mark.parametrize("workers", [1, 2])
def test_ties_across_middle_pairs_go_to_the_lex_min_witness(workers):
    n = 10
    ties = _tie_matrices(n)
    expected = [brute_force_delta(e) for e in ties]
    assert expected[0] == (1.0, (0, 5, 6, 7))
    assert quadruple_delta(ties[0], 2, 3, 8, 9) == 1.0
    for e, exp in zip(ties, expected):
        rep = exact_delta(e, workers=workers)
        assert (rep.delta, rep.witness) == exp
    # cycle the tie matrices across a chunk boundary of one batch
    chunk = _chunk_size(n)
    reports = exact_deltas([ties[t % len(ties)] for t in range(chunk + 3)], workers=workers)
    for t, rep in enumerate(reports):
        assert (rep.delta, rep.witness) == expected[t % len(ties)]


def _screen_matrices(n=10):
    """Matrices that test the int16 screen: twice two planted maxima in
    steps of different middle index j, (0, 2, 4, 6) and (1, 3, 5, 7), whose
    deltas, 1 and 1 + 2^-40, the screen cannot tell apart, each of them once
    the bigger; an exact tie across steps; an avg_tau matrix; a
    small-integer-valued one; and one whose maximum, (1, 3, 5, 7) at
    1 - 2^-13, lies in a step the screen puts a quantum below the step of
    (0, 2, 4, 6) at 1 - 7 * 2^-13."""
    near = []
    for long_pairs in (((1, 7), (3, 5)), ((0, 2), (4, 6))):
        e = _two_planted_maxima(n)
        for x, y in long_pairs:
            e[x, y] = e[y, x] = 2.0 + 2.0**-40
        near.append(e)
    cloud = random_cloud(n, 2, seed=93)
    spec = PuncturedSpec(cloud, [[2.0, 2.0], [-1.0, 0.5], [0.5, 3.0]], variant="avg_tau")
    below = _two_planted_maxima(n)
    below[0, 2] = below[2, 0] = 2.0 - 7 * 2.0**-12
    below[1, 3] = below[3, 1] = 1.0 + 2.0**-12
    return [*near, _two_planted_maxima(n), punctured_matrix(spec).entries, _tie_matrices(n)[3], below]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("exp", [-1000, -300, 0, 300, 1000])
def test_screen_keeps_every_step_that_can_hold_the_maximum(exp, workers):
    batch = [e * 2.0**exp for e in _screen_matrices()]
    expected = [brute_force_delta(e) for e in batch]
    near = 2.0**exp * (1.0 + 2.0**-40)
    assert expected[:3] == [(near, (1, 3, 5, 7)), (near, (0, 2, 4, 6)), (2.0**exp, (0, 2, 4, 6))]
    assert expected[-1] == (2.0**exp * (1.0 - 2.0**-13), (1, 3, 5, 7))
    # the maximum's step, j = 3, screens below the step j = 2, so only the
    # sweep's margin keeps it
    scaled = delta._screen_copy(batch[-1:])
    assert [delta._screen_middle((None, [scaled]), 0, j).max() for j in (2, 3)] == [1024, 1023]
    for e, exp_report, rep in zip(batch, expected, exact_deltas(batch, workers=workers)):
        assert (rep.delta, rep.witness) == exp_report
        single = exact_delta(e, workers=workers)
        assert (single.delta, single.witness) == exp_report


def test_confirm_pass_takes_a_handful_of_steps(monkeypatch):
    # a bound too loose to screen anything would confirm all 57 steps
    scan, confirmed = delta._scan_middle, []

    def counting(stacks, rows, j, steps):
        confirmed.extend(steps)
        return scan(stacks, rows, j, steps)

    monkeypatch.setattr(delta, "_scan_middle", counting)
    n = 60
    spec = PuncturedSpec(random_cloud(n, 2, seed=95), [[2.0, 2.0], [-1.0, 0.5], [0.5, 3.0]],
                         variant="avg_tau")
    exact_delta(punctured_matrix(spec))
    screen_steps = [delta._middle_steps(n, j, 1, delta._SCREEN_ENTRY) for j in range(1, n - 2)]
    assert sum(map(len, screen_steps)) == 57
    assert 1 <= len(confirmed) <= 4


def test_sweep_confirms_only_the_rows_that_need_it(monkeypatch):
    # Confirming every matrix of a (chunk, j) in each step that reaches
    # the floor of any of them took 2,460 (matrix, step) pairs over the
    # default sweep at seed 0 (205 steps x 12 matrices); confirming only
    # the rows whose own bound reaches their floor takes 751.
    scan, pairs = delta._scan_middle, []

    def counting(stacks, rows, j, steps):
        pairs.append(len(rows) * len(steps))
        return scan(stacks, rows, j, steps)

    monkeypatch.setattr(delta, "_scan_middle", counting)
    hyperbolicity_sweep(seed=0)
    assert 0 < sum(pairs) <= 2460 // 2


def test_sweep_runs_one_screen_pass_and_one_confirm_pass(monkeypatch):
    # the confirm pass is planned from the screen alone, so a sweep calls
    # _run twice whether the screen keeps one step or every step
    run, passes = delta._run, []

    def recording(fn, shared, tasks, processes):
        passes.append((fn.__name__, len(tasks)))
        return run(fn, shared, tasks, processes)

    monkeypatch.setattr(delta, "_run", recording)
    n = 60
    spec = PuncturedSpec(random_cloud(n, 2, seed=95), [[2.0, 2.0], [-1.0, 0.5], [0.5, 3.0]],
                         variant="avg_tau")
    ones = np.ones((n, n)) - np.eye(n)
    for sweep in (lambda w: exact_delta(punctured_matrix(spec), workers=w),
                  lambda w: exact_deltas(_screen_matrices(), workers=w),
                  lambda w: exact_delta(ones, workers=w)):
        for workers in (1, 2):
            passes.clear()
            sweep(workers)
            assert [kernel for kernel, _ in passes] == ["_screen_middle", "_scan_middle"]
    # every step of the all-ones matrix ties, so every (chunk, j) is confirmed
    assert passes[0][1] == passes[1][1] > 1


def _screen_batches():
    """Batches for the screen's step maxima: non-metric inputs, so no
    triangle inequality helps."""
    rng = np.random.Generator(np.random.PCG64(99))
    spread = np.triu(10.0 ** rng.uniform(0.0, 3.0, size=(14, 14)), 1)
    signed = np.triu(rng.uniform(-1.0, 1.0, size=(14, 14)), 1)
    spec = PuncturedSpec(random_cloud(14, 2, seed=99), [[2.0, 2.0], [-1.0, 0.5]],
                         variant="tilde_avg_tau")
    forty = _mixed_batch(40)
    for _ in range(4):
        a = np.triu(rng.integers(1, 4, size=(40, 40)).astype(float), 1)
        forty.append(a + a.T)
    return [[spread + spread.T], [signed + signed.T], [punctured_matrix(spec).entries],
            [np.ones((14, 14)) - np.eye(14)], forty]


def _brute_step_maxima(scaled, j, steps):
    """Per step and matrix of a scaled float64 stack, the largest doubled
    delta in quanta of the step's quadruples i < j < k < l: top minus
    median, in int64, of the Gromov-product values at base point j,
    d(k,l) - (d(j,k) + d(j,l)), d(i,k) - (d(i,j) + d(j,k)) and
    d(i,l) - (d(i,j) + d(j,l)), each computed in float64 and rounded
    down."""
    n = scaled.shape[1]
    out = []
    for k0, g in steps:
        quads = [(i, k, l) for i in range(j) for k in range(k0, k0 + g) for l in range(k + 1, n)]
        i, k, l = np.array(quads).T
        values = np.array([scaled[:, k, l] - (scaled[:, j, k] + scaled[:, j, l]),
                           scaled[:, i, k] - (scaled[:, i, j] + scaled[:, j, k]),
                           scaled[:, i, l] - (scaled[:, i, j] + scaled[:, j, l])])
        s = np.sort(np.floor(values).astype(np.int64), axis=0)
        out.append((s[2] - s[1]).max(axis=1))
    return np.array(out)


def _assert_screen_is_brute(batch):
    """Every step maximum of the screen of one chunk ``batch`` equals the
    int64 brute force of its rounded-down values."""
    nb, n = len(batch), batch[0].shape[0]
    scaled = delta._screen_copy(batch)
    for j in range(1, n - 2):
        screen = delta._screen_middle((None, [scaled]), 0, j)
        steps = delta._middle_steps(n, j, nb, delta._SCREEN_ENTRY)
        brute = _brute_step_maxima(scaled.transpose(2, 0, 1), j, steps)
        assert screen.dtype == np.int16
        assert np.array_equal(screen, brute), (n, j)


def test_screen_maxima_need_no_corner_pass():
    # the -32768 diagonal of the screen's R = d(k,l) - (d(j,k) + d(j,l))
    # stands in for dropping each step's l <= k corner; the range-edge
    # batches below hold corner entries that the computed diagonal
    # -2 d(j,k) would lift above their step maxima
    for batch in _screen_batches():
        _assert_screen_is_brute(batch)


def test_screen_bound_holds_at_every_step():
    # the confirm plan rests on this inequality: every step's float64
    # maximum, in quanta of its matrix, lies within 1 + 2^-36 of the
    # screen's m for that step, inside the sweep's margin of 2
    batches = _screen_batches() + [
        [e * 2.0**exp for e in _screen_matrices()] for exp in (-1000, -300, 0, 300, 1000)
    ]
    for batch in batches:
        entries = [delta._kernel_entries(e)[0] for e in batch]
        stack = np.stack(entries)
        nb, n = stack.shape[0], stack.shape[1]
        # each matrix's quanta: 2^(13 - e) if it is nonnegative, else 2^(12 - e)
        exps = np.frexp(np.abs(stack).max(axis=(1, 2)))[1]
        shifts = 13 - (stack.min(axis=(1, 2)) < 0) - exps
        size = _chunk_size(n)
        stacks = (entries, [delta._screen_copy(entries[lo : lo + size]) for lo in range(0, nb, size)])
        for c, lo in enumerate(range(0, nb, size)):
            rows = np.arange(lo, min(lo + size, nb))
            for j in range(1, n - 2):
                screen = delta._screen_middle(stacks, c, j).astype(float)
                steps = delta._middle_steps(n, j, rows.size, delta._SCREEN_ENTRY)
                for step, m in zip(steps, screen):
                    d2 = np.ldexp(delta._scan_middle(stacks, rows, j, [step])[0], shifts[rows])
                    assert np.all(np.abs(d2 - m) <= 1.0 + 2.0**-36), (n, j, step)


@pytest.mark.parametrize("exp", [-1000, 0, 1000])
def test_screen_reaches_the_ends_of_its_range_without_wrapping(exp):
    # Entries of 0 and of the largest float below 2^exp (and its negative
    # in the signed batches) take the values to the ends of the proven
    # ranges, rounded down: [-2^14, 2^13) for a nonnegative matrix and
    # [-3 * 2^12, 3 * 2^12) for a signed one; both batches' step maxima
    # reach 16383 quanta.
    rng = np.random.Generator(np.random.PCG64(101))
    top = 2.0**exp * (1.0 - 2.0**-53)
    for levels, (low, high) in (((0.0, top), (-16384, 8191)), ((-top, 0.0, top), (-12288, 12287))):
        batch = [np.triu(rng.choice(levels, size=(12, 12)), 1) for _ in range(3)]
        batch = [a + a.T for a in batch]
        scaled = delta._screen_copy(batch)
        n = scaled.shape[0]
        values, most = [], 0
        for j in range(1, n - 2):
            q, r = delta._gromov_rows(scaled, j)
            values += [q.ravel(), r[~np.eye(n - j - 1, dtype=bool)].ravel()]
            most = max(most, delta._screen_middle((None, [scaled]), 0, j).max())
        values = np.concatenate(values)
        assert (values.min(), values.max(), most) == (low, high, 16383)
        _assert_screen_is_brute(batch)
        expected = [brute_force_delta(e) for e in batch]
        for e, want, rep in zip(batch, expected, exact_deltas(batch)):
            assert (rep.delta, rep.witness) == want
            single = exact_delta(e)
            assert (single.delta, single.witness) == want


@settings(max_examples=200, derandomize=True)
@given(st.data())
def test_middle_steps_cover_each_span_within_the_budget(data):
    n = data.draw(st.integers(4, 80))
    j = data.draw(st.integers(1, n - 3))
    nb = data.draw(st.integers(1, 5000))
    entry_bytes = data.draw(st.sampled_from([8, 32, 40]))
    # disjoint increasing spans of k in [j + 1, n - 2], as the confirm
    # pass gets them, or every k
    cuts = data.draw(st.lists(st.integers(j + 1, n - 1), unique=True).map(sorted))
    spans = [(lo, hi - lo) for lo, hi in zip(cuts[::2], cuts[1::2])]
    for given_spans, want in ((spans, [k for lo, g in spans for k in range(lo, lo + g)]),
                              (None, list(range(j + 1, n - 1)))):
        steps = delta._middle_steps(n, j, nb, entry_bytes, given_spans)
        assert [k for k0, g in steps for k in range(k0, k0 + g)] == want
        for k0, g in steps:
            assert g >= 1
            if g > 1:
                assert entry_bytes * nb * j * g * (n - k0 - 1) <= delta._STEP_BYTES


def test_step_budget_changes_no_delta_or_witness(monkeypatch):
    # one k per step, the default, and one step per middle index j: the
    # steps and the chunks differ, the deltas and witnesses do not
    batches = _screen_batches() + [
        [e * 2.0**exp for e in _screen_matrices()] for exp in (-1000, 1000)
    ]
    plans = ((1, lambda steps: all(g == 1 for _, g in steps)),
             (delta._STEP_BYTES, lambda steps: True),
             (1 << 40, lambda steps: len(steps) == 1))
    results = []
    for budget, plan_holds in plans:
        monkeypatch.setattr(delta, "_STEP_BYTES", budget)
        for batch in batches:
            n = batch[0].shape[0]
            for j in range(1, n - 2):
                assert plan_holds(delta._middle_steps(n, j, len(batch), delta._SCREEN_ENTRY))
        results.append([
            [(np.float64(rep.delta).view(np.uint64), rep.witness) for rep in exact_deltas(batch)]
            for batch in batches
        ])
    assert results[0] == results[1] == results[2]


def _traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_exact_delta_memory_is_bounded():
    # A confirm step holds five float64 grids, and a screen step two
    # int16 ones beside its task's Gromov rows, (n - j - 1) x n in
    # float64 and int16; each step's grids fit _STEP_BYTES. A step over
    # every k of a task would hold five grids of up to 9 MB.
    m = build_distance_matrix(random_cloud(200, 2, seed=91))
    assert _traced_peak(exact_delta, m) < 1.5e6
    # At small n a chunk holds thousands of matrices. A screen task's rows
    # then take at most one float64 copy of its chunk's slice of the stack
    # and int16 copies of a quarter of that, beside its two step grids, within
    # the step budget, and its per-step maxima.
    rng = np.random.default_rng(92)
    for n in (5, 12):
        nb = _chunk_size(n)
        x = rng.random((nb, n, n))
        scaled = delta._screen_copy(list(x + x.transpose(0, 2, 1)))
        for j in range(1, n - 2):
            steps = len(delta._middle_steps(n, j, nb, delta._SCREEN_ENTRY))
            bound = 1.5 * scaled.nbytes + delta._STEP_BYTES + 8 * steps * nb
            assert _traced_peak(delta._screen_middle, (None, [scaled]), 0, j) < bound, (n, j)


def test_exact_deltas_holds_no_stack_of_its_input():
    # The sweep reads its caller's matrices and holds one scaled copy of
    # them for the screen, beside a task's Gromov rows and grids; a second,
    # stacked float64 copy of the batch would take the peak to about 2.8x
    # the input.
    rng = np.random.default_rng(93)
    batch = [a + a.T for a in rng.random((100, 40, 40))]
    assert _traced_peak(exact_deltas, batch) < 2.2 * sum(e.nbytes for e in batch)


def _six_pass_doubled_delta(s1, s2, s3):
    """The largest pairing sum minus the median in six ufunc passes: the
    median as s3 clamped to the range of s1 and s2."""
    hi12, lo12 = np.maximum(s1, s2), np.minimum(s1, s2)
    return np.maximum(hi12, s3) - np.minimum(hi12, np.maximum(lo12, s3))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_five_pass_doubled_delta_has_the_six_pass_bits(dtype):
    rng = np.random.Generator(np.random.PCG64(23))
    tiny = np.finfo(dtype).smallest_subnormal
    specials = np.array([0.0, -0.0, tiny, -tiny, 2 * tiny, np.finfo(dtype).tiny, 1.0], dtype)
    near = lambda c: c + rng.uniform(-1e-3, 1e-3, 600)  # noqa: E731
    triples = [
        rng.uniform(-3.0, 3.0, (3, 600)),  # the screen's signed range
        rng.uniform(0.0, 2.0, (3, 600)),  # its nonnegative range
        np.stack([near(2.0), near(2.0), near(-2.0)]),
        np.stack([near(3.0), near(-3.0), near(2.9)]),
        np.array(list(np.broadcast(*np.ix_(specials, specials, specials)))).T,
    ]
    t = rng.uniform(-3.0, 3.0, (3, 600))
    for a, b in ((0, 1), (0, 2), (1, 2)):  # ties of each pair, then of all three
        tied = t.copy()
        tied[b] = tied[a]
        triples.append(tied)
    triples.append(np.stack([t[0]] * 3))
    triples.append(np.stack([np.full(600, -np.inf), t[1], t[2]]))  # R's diagonal as s1
    triples.append(np.stack([np.full(600, -np.inf), t[1], t[1]]))
    words = np.uint32 if dtype == np.float32 else np.uint64
    for s1, s2, s3 in (np.asarray(x, dtype=dtype) for x in triples):
        want = _six_pass_doubled_delta(s1, s2, s3).view(words)
        bufs = (np.empty_like(s1), np.empty_like(s1))
        for got in (delta._doubled_delta(s1, s2, s3), delta._doubled_delta(s1, s2, s3, bufs)):
            assert got.dtype == dtype
            assert np.array_equal(got.view(words), want)
        # broadcast operands, as the screen passes them
        got = delta._doubled_delta(s1[:, None], s2[None, :50], s3[None, :50])
        want = _six_pass_doubled_delta(s1[:, None], s2[None, :50], s3[None, :50])
        assert np.array_equal(got.view(words), want.view(words))


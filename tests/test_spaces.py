import json
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmetrics import (
    DistanceMatrix,
    InputError,
    PointCloud,
    arctan_split_distance,
    build_distance_matrix,
    check_lemma_K,
    check_lemma_nine,
    check_metric_axioms,
    check_mu_bounds,
    check_mu_P_quasi_triangle,
    check_product_lemma,
    check_ptolemaic,
    euclidean_distance,
    exact_delta,
    exact_deltas,
    load_distance_matrix,
    load_point_cloud,
    pairwise_distances,
    quadruple_delta,
    random_cloud,
    sampled_delta,
    taxicab_distance,
)

coord = st.floats(min_value=-100.0, max_value=100.0, allow_nan=False, allow_infinity=False)
planar = st.tuples(coord, coord)


def test_euclidean_examples():
    assert euclidean_distance([0, 0], [3, 4]) == 5.0
    assert euclidean_distance([1, 1], [1, 1]) == 0.0
    # sqrt(2), frozen from direct arithmetic
    assert euclidean_distance([0, 0], [1, 1]) == pytest.approx(1.4142135623730951, abs=1e-12)


def test_taxicab_examples():
    assert taxicab_distance([0, 0], [1, 1]) == 2.0
    assert taxicab_distance([0, 1], [1, 0]) == 2.0
    assert taxicab_distance([0, 0], [3, 4]) == 7.0


def test_dimension_mismatch_rejected():
    with pytest.raises(InputError):
        euclidean_distance([0, 0], [1, 2, 3])
    with pytest.raises(InputError):
        taxicab_distance([0], [1, 2])


def test_arctan_split_examples():
    # arctan(1) = pi/4, frozen
    assert arctan_split_distance("d1", [0, 0], [0, 1]) == pytest.approx(
        0.7853981633974483, abs=1e-15
    )
    assert arctan_split_distance("d2", [0, 0], [0, 1]) == 1.0
    # 2 + 2*arctan(1), frozen
    assert arctan_split_distance("sum", [0, 0], [1, 1]) == pytest.approx(
        3.5707963267948966, abs=1e-15
    )


def test_arctan_split_needs_dim_2():
    with pytest.raises(InputError):
        arctan_split_distance("d1", [0, 0, 0], [1, 1, 1])
    with pytest.raises(InputError):
        arctan_split_distance("nope", [0, 0], [1, 1])


@settings(max_examples=60, derandomize=True)
@given(planar, planar, planar)
def test_triangle_inequality_base_metrics(a, b, c):
    for fn in (
        euclidean_distance,
        taxicab_distance,
        lambda x, y: arctan_split_distance("d1", x, y),
        lambda x, y: arctan_split_distance("d2", x, y),
    ):
        assert fn(a, b) <= fn(a, c) + fn(c, b) + 1e-9


@settings(max_examples=60, derandomize=True)
@given(planar, planar)
def test_base_metrics_symmetric_nonnegative(a, b):
    for fn in (
        euclidean_distance,
        taxicab_distance,
        lambda x, y: arctan_split_distance("d1", x, y),
    ):
        assert fn(a, b) == fn(b, a)
        assert fn(a, b) >= 0.0


def test_build_matrix_single_point():
    m = build_distance_matrix(PointCloud([[0.0]]))
    assert m.n == 1
    assert m.entries[0, 0] == 0.0


def test_build_matrix_collinear():
    m = build_distance_matrix(PointCloud([0.0, 1.0, 2.0]))
    assert m(0, 2) == 2.0
    assert m(0, 1) == 1.0
    assert m(1, 2) == 1.0


@pytest.mark.parametrize("metric", ["euclidean", "taxicab", "d1", "d2", "d1+d2"])
def test_matrix_invariants_bit_exact(metric):
    cloud = random_cloud(25, 2, seed=7)
    m = build_distance_matrix(cloud, metric).entries
    assert np.array_equal(m, m.T)
    assert np.all(np.diagonal(m) == 0.0)
    assert np.all(m >= 0.0)


_SCALAR_METRICS = {
    "euclidean": euclidean_distance,
    "taxicab": taxicab_distance,
    "d1": lambda x, y: arctan_split_distance("d1", x, y),
    "d2": lambda x, y: arctan_split_distance("d2", x, y),
    "d1+d2": lambda x, y: arctan_split_distance("sum", x, y),
}


def test_callable_metric_matrix_matches_named():
    # in the second cloud the squares of the distances among the points
    # near the origin underflow, and a lone pair's do not
    near = PointCloud([[1e-170, 0.0], [1.0, 1.0], [0.0, 0.0], [3e-170, -4e-170]])
    for cloud in (random_cloud(300, 2, seed=3, low=-50.0, high=50.0), near):
        for metric, fn in _SCALAR_METRICS.items():
            named = build_distance_matrix(cloud, metric).entries
            custom = build_distance_matrix(cloud, fn).entries
            assert np.array_equal(named, custom), metric
    assert build_distance_matrix(near).entries[[0, 3], [2, 2]].tolist() == [1e-170, 5e-170]


def test_wide_cloud_keeps_small_differences():
    # Coordinates are never scaled down, so none is rounded. The first cloud
    # spans 1e300, so a unit scale of its coordinates would take 1e-170
    # below the smallest float; the pair (0, 2) is 1e-170 apart. The others
    # reach 1.7e308 and keep their subnormal coordinates: in the last, the
    # taxicab sum 2^-1074 + 4.450147717014404e-308 is a tie that rounds up.
    wide = np.array([[1e-170, 0.0], [1e300, 1.0], [0.0, 0.0], [-1.7e308, 3e-170]])
    clouds = [(wide, (0, 2), (1e-170, 1e-170))]
    for tiny in (5e-324, 1.5e-323):
        clouds.append((np.array([[tiny, 0.0], [0.0, 0.0], [1.7e308, 0.0]]), (0, 1), (tiny, tiny)))
    edge = np.array([[0.0, 0.0], [5e-324, -4.450147717014404e-308], [1.7e308, 0.0]])
    clouds.append((edge, (0, 1), (4.450147717014404e-308, 4.450147717014405e-308)))
    for cloud, (a, b), expected in clouds:
        size = len(cloud)
        for metric, want in zip(("euclidean", "taxicab"), expected):
            named = pairwise_distances(cloud, metric)
            pairs = [_SCALAR_METRICS[metric](x, y) for x in cloud for y in cloud]
            assert np.array_equal(named, np.reshape(pairs, (size, size))), metric
            assert named[a, b] == named[b, a] == want, metric


def test_cloud_rejects_nan_and_bad_labels():
    with pytest.raises(InputError):
        PointCloud([[0.0, float("nan")]])
    with pytest.raises(InputError):
        PointCloud([[0.0, 1.0]], labels=["a", "b"])
    with pytest.raises(InputError):
        PointCloud([[0.0], [1.0]], labels=["a", "a"])


def test_cloud_csv_roundtrip(tmp_path):
    cloud = random_cloud(9, 3, seed=11)
    path = tmp_path / "cloud.csv"
    cloud.save(path)
    back = load_point_cloud(path)
    assert np.array_equal(back.points, cloud.points)
    assert back.labels == cloud.labels


def test_cloud_json_roundtrip(tmp_path):
    cloud = random_cloud(6, 2, seed=13)
    path = tmp_path / "cloud.json"
    cloud.save(path)
    back = load_point_cloud(path)
    assert np.array_equal(back.points, cloud.points)
    assert back.labels == cloud.labels


def test_cloud_csv_rejects_nan(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("label,x1\na,nan\n", encoding="utf-8")
    with pytest.raises(InputError):
        load_point_cloud(path)


def test_random_cloud_reproducible():
    a = random_cloud(20, 2, seed=42)
    b = random_cloud(20, 2, seed=42)
    c = random_cloud(20, 2, seed=43)
    assert np.array_equal(a.points, b.points)
    assert not np.array_equal(a.points, c.points)


def test_matrix_validation():
    with pytest.raises(InputError):
        DistanceMatrix([[0.0, 1.0], [2.0, 0.0]])  # asymmetric
    with pytest.raises(InputError):
        DistanceMatrix([[1.0]])  # nonzero diagonal
    with pytest.raises(InputError):
        DistanceMatrix([[0.0, -1.0], [-1.0, 0.0]])  # negative
    with pytest.raises(InputError):
        DistanceMatrix([[0.0, float("inf")], [float("inf"), 0.0]])


@pytest.mark.parametrize(
    "consumer",
    [
        lambda e: check_metric_axioms(e),
        lambda e: check_ptolemaic(e),
        lambda e: check_mu_bounds(e, 0, samples=5),
        lambda e: check_lemma_nine(e, 0, samples=5),
        lambda e: check_lemma_K(e, 0, 4.0, samples=5),
        lambda e: check_product_lemma(e, [0], samples=5),
        lambda e: check_mu_P_quasi_triangle(e, [0], 5, 5),
        lambda e: exact_delta(e),
        lambda e: exact_deltas([e]),
        lambda e: sampled_delta(e, samples=5),
        lambda e: quadruple_delta(e, 0, 1, 2, 3),
    ],
    ids=["axioms", "ptolemy", "mu-bounds", "lemma-nine", "lemma-K", "product-lemma",
         "muP-quasi-triangle", "exact-delta", "exact-deltas", "sampled-delta", "quadruple-delta"],
)
def test_empty_array_rejected_by_every_consumer(consumer):
    with pytest.raises(InputError, match="^expected a square, nonempty distance matrix$"):
        consumer(np.zeros((0, 0)))


def test_matrix_json_roundtrip(tmp_path):
    m = build_distance_matrix(random_cloud(8, 2, seed=5))
    path = tmp_path / "m.json"
    m.save(path)
    back = load_distance_matrix(path)
    assert np.array_equal(back.entries, m.entries)
    obj = json.loads(path.read_text())
    assert obj["n"] == 8


def test_matrix_csv_roundtrip(tmp_path):
    m = build_distance_matrix(random_cloud(5, 2, seed=6))
    path = tmp_path / "m.csv"
    m.save(path)
    back = load_distance_matrix(path)
    assert np.array_equal(back.entries, m.entries)


def _symmetric(n: int, seed: int) -> np.ndarray:
    a = np.random.default_rng(seed).uniform(0.0, 10.0, size=(n, n))
    a = a + a.T
    np.fill_diagonal(a, 0.0)
    return a


def _with_entry(v: float) -> np.ndarray:
    return np.array([[0.0, v, 1.0], [v, 0.0, v], [1.0, v, 0.0]])


WRITER_CASES = {
    "n1": np.zeros((1, 1)),
    "n2": np.array([[0.0, 1.5], [1.5, 0.0]]),
    "zero-mirrored-by-negative-zero": np.array(
        [[0.0, 0.0, 1.0], [-0.0, 0.0, -0.0], [1.0, 0.0, 0.0]]
    ),
    "signed-zero-diagonal": np.array([[-0.0, 2.0, 3.0], [2.0, 0.0, 4.0], [3.0, 4.0, -0.0]]),
    "subnormal-min": _with_entry(5e-324),
    "1e308": _with_entry(1e308),
    "exponent-cut-over-small": np.array(
        [[0.0, 1e-5, 1e-4], [1e-5, 0.0, 9.999999999999999e-06], [1e-4, 9.999999999999999e-06, 0.0]]
    ),
    "exponent-cut-over-large": np.array(
        [[0.0, 1e16, 9999999999999998.0], [1e16, 0.0, 1e15], [9999999999999998.0, 1e15, 0.0]]
    ),
    "random-n37": _symmetric(37, 3),
}


@pytest.mark.parametrize("suffix", [".json", ".csv"])
@pytest.mark.parametrize("entries", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_matrix_save_writes_reference_bytes(tmp_path, reference_matrix_bytes, entries, suffix):
    m = DistanceMatrix(entries)
    path = tmp_path / f"m{suffix}"
    m.save(path)
    assert path.read_bytes() == reference_matrix_bytes(m, suffix)


@pytest.mark.parametrize("suffix", [".json", ".csv"])
@pytest.mark.parametrize("entries", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_matrix_save_load_is_bit_exact(tmp_path, entries, suffix):
    m = DistanceMatrix(entries)
    path = tmp_path / f"m{suffix}"
    m.save(path)
    back = load_distance_matrix(path)
    assert np.array_equal(back.entries.view(np.uint64), m.entries.view(np.uint64))


def test_matrix_save_memory_is_bounded(tmp_path):
    m = DistanceMatrix(_symmetric(1000, 5))
    tracemalloc.start()
    try:
        m.save(tmp_path / "m.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100e6


def test_arctan_split_overflow_reads_inf_quietly():
    # d1 and d2 of the first pair are 1.6e308; their sum overflows, and
    # reads inf without a warning, as Euclidean and taxicab distances do
    pts = np.array([[8e307, 8e307], [-8e307, -8e307], [0.0, 1.0]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d1, d2, dsum = (pairwise_distances(pts, m) for m in ("d1", "d2", "d1+d2"))
    assert d1[0, 1] == d2[0, 1] == 1.6e308 + math.atan(1.6e308)
    assert dsum[0, 1] == dsum[1, 0] == math.inf
    assert np.isfinite(dsum[[0, 1], 2]).all()


def test_pairwise_d1_formula_spot_check():
    pts = np.array([[0.0, 0.0], [2.0, 3.0]])
    m = pairwise_distances(pts, "d1")
    assert m[0, 1] == pytest.approx(2.0 + math.atan(3.0), abs=1e-15)
    m2 = pairwise_distances(pts, "d2")
    assert m2[0, 1] == pytest.approx(3.0 + math.atan(2.0), abs=1e-15)
    ms = pairwise_distances(pts, "d1+d2")
    assert ms[0, 1] == pytest.approx(m[0, 1] + m2[0, 1], abs=1e-15)

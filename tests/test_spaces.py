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
    check_quasi_ptolemy,
    check_quasi_ptolemy_many,
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
from hypmetrics import spaces

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


@pytest.mark.parametrize(
    "distance, x",
    [
        (euclidean_distance, [True, 0]),
        (euclidean_distance, [1, None]),
        (lambda x, y: arctan_split_distance("d1", x, y), [1, None]),
        (euclidean_distance, [1, "a"]),
        (taxicab_distance, [1, np.inf]),
    ],
    ids=["euclidean-boolean", "euclidean-none", "d1-none", "euclidean-string", "taxicab-inf"],
)
def test_scalar_distances_refuse_what_is_not_a_finite_number(distance, x):
    # a boolean read as 1.0, a None as NaN and a string as a bare ValueError before
    with pytest.raises(InputError, match="^point coordinates must form a numeric n x dim array"):
        distance(x, [0, 0])


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
    # Coordinates are used as given, so none is rounded. The first cloud
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


def test_norms_tell_subnormal_differences_from_zero_ones():
    # every row's sum of squares is 0, but only the all-zero difference
    # has norm 0: the rescaling fallback keeps the subnormal ones
    diff = np.array([[5e-324, 0.0], [0.0, 0.0], [-5e-324, 5e-324], [0.0, -1.5e-323]])
    assert not np.sum(diff * diff, axis=-1).any()
    got = spaces._norms(diff, "euclidean")
    assert got.tolist() == [5e-324, 0.0, math.hypot(5e-324, 5e-324), 1.5e-323]
    assert spaces._norms(diff.reshape(2, 2, 2), "euclidean").tolist() == got.reshape(2, 2).tolist()


def test_tiny_cloud_distances_are_the_scaled_up_distances_scaled_back():
    # scaled by 2^-506, the component differences straddle 2^-511: some
    # squares are subnormal where their sum is not, and each entry whose
    # sum lies below 2^-969 is taken again in units of its largest difference
    rng = np.random.Generator(np.random.PCG64(29))
    for dim in (2, 3, 5):
        pts = rng.uniform(0.0, 1.0 / 8, size=(60, dim))
        for metric in ("euclidean", "taxicab"):
            got = pairwise_distances(np.ldexp(pts, -506), metric)
            want = np.ldexp(pairwise_distances(pts, metric), -506)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (dim, metric)


def test_cloud_rejects_nan_and_bad_labels():
    with pytest.raises(InputError):
        PointCloud([[0.0, float("nan")]])
    with pytest.raises(InputError):
        PointCloud([[0.0, 1.0]], labels=["a", "b"])
    with pytest.raises(InputError):
        PointCloud([[0.0], [1.0]], labels=["a", "a"])
    with pytest.raises(InputError, match="got a boolean$"):
        PointCloud.from_dict({"dim": 2, "points": [{"coords": [0, True]}, {"coords": [1, 1]}]})


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


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"n": 5, "seed": -1}, "need seed >= 0, got -1"),
        ({"n": 5, "seed": 2.7}, "seed must be an integer, got 2.7"),
        ({"n": 3.5}, "n must be an integer, got 3.5"),
        ({"n": 5, "dim": True}, "dim must be an integer, got True"),
    ],
    ids=["negative-seed", "float-seed", "float-n", "boolean-dim"],
)
def test_random_cloud_refuses_counts_and_seeds_that_are_not_integers(kwargs, message):
    with pytest.raises(InputError, match=f"^{message}$"):
        random_cloud(**kwargs)


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


@pytest.mark.parametrize("bad", [[[0.0, 1.0], [1.0]], "abc"], ids=["ragged", "string"])
@pytest.mark.parametrize(
    "consumer",
    [exact_delta, sampled_delta, lambda e: quadruple_delta(e, 0, 1, 2, 3), check_metric_axioms,
     check_ptolemaic, lambda e: check_quasi_ptolemy(e, 1.0),
     lambda e: check_quasi_ptolemy_many(e, 1.0)],
    ids=["exact-delta", "sampled-delta", "quadruple-delta", "axioms", "ptolemy", "quasi-ptolemy",
         "quasi-ptolemy-many"],
)
def test_non_numeric_input_is_an_input_error(consumer, bad):
    with pytest.raises(InputError, match="^distance matrix must be a numeric square array: "):
        consumer(bad)


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


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("suffix", [".json", ".csv"])
@pytest.mark.parametrize("entries", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_banded_save_writes_reference_bytes(
    tmp_path, monkeypatch, reference_matrix_bytes, entries, suffix, workers
):
    # a band of one entry, so every case splits into up to one band per worker
    monkeypatch.setattr(spaces, "_BAND_ENTRIES", 1)
    monkeypatch.setattr(spaces, "_worker_count", lambda _: workers)
    m = DistanceMatrix(entries)
    assert len(spaces._bands(m.n, workers)) == min(workers, m.n)
    path = tmp_path / f"m{suffix}"
    m.save(path)
    assert path.read_bytes() == reference_matrix_bytes(m, suffix)


@pytest.mark.parametrize("n, bands", [(511, 1), (512, 1), (700, 1), (724, 2)])
def test_save_at_the_band_size_writes_reference_bytes(
    tmp_path, monkeypatch, reference_matrix_bytes, n, bands
):
    # 2 bands need 2 * 2^17 upper-triangle entries: n = 724 is the first
    monkeypatch.setattr(spaces, "_worker_count", lambda _: 2)
    m = DistanceMatrix(_symmetric(n, n))
    assert len(spaces._bands(n, 2)) == bands
    path = tmp_path / "m.json"
    m.save(path)
    assert path.read_bytes() == reference_matrix_bytes(m, ".json")


@pytest.mark.parametrize("suffix", [".json", ".csv"])
def test_banded_save_keeps_signed_zero_mirrors(
    tmp_path, monkeypatch, reference_matrix_bytes, suffix
):
    monkeypatch.setattr(spaces, "_BAND_ENTRIES", 1)
    monkeypatch.setattr(spaces, "_worker_count", lambda _: 2)
    a = _symmetric(6, 4)
    # (4, 0) and (3, 1) cross the bands, (5, 4) lies inside the second
    for i, j in ((4, 0), (3, 1), (5, 4)):
        a[i, j], a[j, i] = -0.0, 0.0
    m = DistanceMatrix(a)
    assert spaces._bands(6, 2) == [(0, 2), (2, 6)]
    path = tmp_path / f"m{suffix}"
    m.save(path)
    assert path.read_bytes() == reference_matrix_bytes(m, suffix)
    back = load_distance_matrix(path)
    assert np.array_equal(back.entries.view(np.uint64), m.entries.view(np.uint64))


def _reader_documents() -> dict[str, tuple[str, bool]]:
    """Matrix documents of n = 24, each with whether the fast reader, at a
    band of 64 entries, reads it (True) or leaves it to the exact path."""
    rows = DistanceMatrix(_symmetric(24, 9)).to_dict()["entries"]
    doc = {"n": 24, "entries": rows}
    compact = json.dumps(doc)

    def edited(at, value, mirror=True):
        new = [list(r) for r in rows]
        new[at[0]][at[1]] = value
        if mirror:
            new[at[1]][at[0]] = value
        return json.dumps({"n": 24, "entries": new})

    def rows_edited(edit):
        new = [list(r) for r in rows]
        edit(new)
        return json.dumps({"n": 24, "entries": new})

    ints = np.random.default_rng(3).integers(1, 9, size=(24, 24))
    ints = np.triu(ints, 1) + np.triu(ints, 1).T
    # rows of 120 characters each: two pieces split them after row 12, into
    # 13 rows of 24 entries and 11 rows of 20
    two_widths = [[1.5] * 24] * 13 + [[1.25] * 20] * 11
    breaks = [k for k in range(len(compact)) if compact.startswith("], [", k)]
    cut = breaks[5]
    return {
        "compact": (json.dumps(doc, separators=(",", ":")), True),
        "spaced": (compact, True),
        "indented": (json.dumps(doc, indent=2), True),
        "crlf": (json.dumps(doc, indent=2).replace("\n", "\r\n"), True),
        "tabs": (json.dumps(doc, indent="\t"), True),
        "integers": (json.dumps({"n": 24, "entries": ints.tolist()}), True),
        "integer-past-2^53": (edited((3, 4), 2**53 + 1), True),
        "signed-zero-mirror": (rows_edited(lambda r: (r[3].__setitem__(4, 0.0),
                                                      r[4].__setitem__(3, -0.0))), True),
        "nan": (edited((3, 4), float("nan")), True),
        "asymmetric": (edited((3, 4), 11.0, mirror=False), True),
        "n-mismatch": (json.dumps({"n": 25, "entries": rows}), True),
        "keys-swapped": (json.dumps({"entries": rows, "n": 24}), False),
        "extra-key": (json.dumps({**doc, "label": "x"}), False),
        "duplicate-entries": (
            compact[:-1] + ', "entries": ' + json.dumps([[2 * v for v in r] for r in rows]) + "}",
            False,
        ),
        "true": (edited((3, 4), True), False),
        "string": (edited((3, 4), "1.5"), False),
        "string-holding-a-row-break": (edited((3, 4), "a], [b"), False),
        "null": (edited((3, 4), None), False),
        "nested-row": (rows_edited(lambda r: r.__setitem__(3, [r[3]])), False),
        "nested-entry": (edited((3, 4), [1.0]), False),
        "ragged-row": (rows_edited(lambda r: r[7].pop()), False),
        "empty-row": (rows_edited(lambda r: r[7].clear()), False),
        "pieces-of-two-widths": (json.dumps({"n": 24, "entries": two_widths}), False),
        "fewer-rows-than-pieces": (json.dumps({"n": 24, "entries": rows[:1]}), True),
        "integer-past-the-float-range": (edited((3, 4), 10**400), False),
        "stray-comma": (compact[:cut] + "], , [" + compact[cut + 4 :], False),
        "vertical-tab": (compact[:cut] + "],\v[" + compact[cut + 4 :], False),
        "trailing-comma": (compact[:-2] + ",]}", False),
        "cut-in-a-row": (compact[: len(compact) // 2], False),
        "trailing-text": (compact + " x", False),
        "byte-order-mark": ("\ufeff" + compact, False),
        "n-leading-zero": (compact.replace('"n": 24', '"n": 024'), False),
        "n-float": (compact.replace('"n": 24', '"n": 24.0'), False),
    }


def _load_outcome(load):
    try:
        return "ok", load().entries.view(np.uint64).tobytes()
    except Exception as exc:  # the outcome under test: type and message
        return type(exc), str(exc)


READER_DOCUMENTS = _reader_documents()


@pytest.mark.parametrize("workers", [1, 2, 3])
@pytest.mark.parametrize("name", READER_DOCUMENTS)
def test_fast_reader_matches_the_exact_reader(tmp_path, monkeypatch, name, workers):
    text, fast = READER_DOCUMENTS[name]
    monkeypatch.setattr(spaces, "_BAND_ENTRIES", 64)
    path = tmp_path / "m.json"
    path.write_bytes(text.encode("utf-8"))
    exact = _load_outcome(lambda: DistanceMatrix.from_dict(spaces._parse_json(text, path)))
    assert _load_outcome(lambda: load_distance_matrix(path, workers)) == exact
    try:
        read = spaces._read_matrix(text, workers) is not None
    except InputError:  # rows read, then rejected as the exact path rejects them
        read = True
    assert read == fast


@pytest.mark.parametrize("indent", [None, 2])
def test_fast_reader_at_the_band_size(tmp_path, indent):
    m = DistanceMatrix(_symmetric(512, 6))  # 2 * 2^17 entries, the fewest it reads
    text = json.dumps(m.to_dict(), indent=indent)
    path = tmp_path / "m.json"
    path.write_text(text)
    for workers in (1, 2):
        assert spaces._read_matrix(text, workers) is not None
        back = load_distance_matrix(path, workers)
        assert np.array_equal(back.entries.view(np.uint64), m.entries.view(np.uint64))


@pytest.mark.parametrize("workers", [0, -1])
@pytest.mark.parametrize("n", [4, 40])
def test_loader_rejects_worker_counts_below_one(tmp_path, monkeypatch, n, workers):
    monkeypatch.setattr(spaces, "_BAND_ENTRIES", 64)  # n = 40 takes the fast reader's size
    path = tmp_path / "m.json"
    DistanceMatrix(_symmetric(n, 7)).save(path)
    with pytest.raises(InputError, match=f"^need workers >= 1, got {workers}$"):
        load_distance_matrix(path, workers)


@pytest.mark.parametrize("workers", [True, 2.0])
def test_loader_rejects_worker_counts_that_are_not_integers(tmp_path, workers):
    path = tmp_path / "m.json"
    DistanceMatrix(_symmetric(4, 7)).save(path)
    with pytest.raises(InputError, match=f"^workers must be an integer, got {workers!r}$"):
        load_distance_matrix(path, workers)


def test_matrix_load_memory_is_bounded(tmp_path):
    path = tmp_path / "m.json"
    DistanceMatrix(_symmetric(1000, 5)).save(path)
    tracemalloc.start()
    try:
        load_distance_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the json.loads reader traced 58-59 MB: the text, a list of a million
    # floats and the matrix; reading the file's bytes into the text peaks at
    # about 51 MB, and the rows decoded in pieces stay below that
    assert peak < 55e6


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


@pytest.mark.parametrize(
    "bad",
    [[[0.0, 1.0], [1.0]], [["a", "b"]], np.zeros((2, 2, 2)), [[0.0, True], [1.0, 1.0]],
     np.array([[False, True], [True, True]]), [[0.0, None], [1.0, 1.0]],
     np.array([[0.0, np.nan], [1.0, 1.0]]), [[0.0, -np.inf], [1.0, 1.0]]],
    ids=["ragged", "strings", "3-D", "boolean-entry", "boolean-array", "none", "nan", "inf"],
)
@pytest.mark.parametrize("metric", ["euclidean", "d1", taxicab_distance])
def test_pairwise_distances_rejects_bad_points(bad, metric):
    with pytest.raises(InputError, match="^point coordinates must form a numeric n x dim array"):
        pairwise_distances(bad, metric)


def test_pairwise_distances_rejects_a_bad_metric_and_keeps_empty_clouds():
    pts = np.zeros((3, 3))
    with pytest.raises(InputError, match="^unknown metric 'l3'"):
        pairwise_distances(pts, "l3")
    with pytest.raises(InputError, match="^metric 'd1' needs dim 2, got dim 3$"):
        pairwise_distances(pts, "d1")
    for metric in ("euclidean", "d1+d2"):
        assert pairwise_distances(np.zeros((0, 2)), metric).shape == (0, 0)


@pytest.mark.parametrize("n", [0, 1, 2, 30, 256, 257, 1000])
@pytest.mark.parametrize("budget", [8, 8 * 30, None], ids=["1", "30", "step"])
def test_row_blocks_tile_the_upper_triangle_within_the_budget(monkeypatch, n, budget):
    if budget is None:
        budget = spaces._STEP_BYTES
    monkeypatch.setattr(spaces, "_STEP_BYTES", budget)
    blocks = spaces._row_blocks(n)
    edges = [0] + [r1 for _, r1 in blocks]
    assert [r0 for r0, _ in blocks] == edges[:-1] and edges[-1] == n
    for r0, r1 in blocks:
        assert r1 - r0 == 1 or (r1 - r0) * (n - r0) <= budget // 8
    if n * n <= budget // 8:
        assert len(blocks) <= 1  # the whole matrix: n <= 256 at the step budget


# a cloud whose near pairs sit in the last rows, after the first blocks:
# their sums of squares underflow or overflow, so ``_norms`` takes them
# again in units of their largest difference
_WIDE_TAIL = np.vstack([
    random_cloud(24, 2, seed=5, low=-3.0, high=3.0).points,
    [[1e-300, 0.0], [3e-300, -2e-300], [1e300, 1.0], [-1e300, 1e300], [0.0, 1e-170], [0.0, 0.0]],
])


@pytest.mark.parametrize("metric", ["euclidean", "taxicab", "d1", "d2", "d1+d2"])
@pytest.mark.parametrize("budget", [8 * 24, 8 * 40, 8 * 100])
def test_row_blocks_give_the_one_block_matrix(monkeypatch, metric, budget):
    clouds = [random_cloud(31, 2, seed=13, low=-5.0, high=5.0).points, _WIDE_TAIL]
    whole = [pairwise_distances(pts, metric) for pts in clouds]
    monkeypatch.setattr(spaces, "_STEP_BYTES", budget)
    for pts, want in zip(clouds, whole):
        assert len(spaces._row_blocks(len(pts))) > 3
        got = pairwise_distances(pts, metric)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), metric


def test_pairwise_distances_memory_is_bounded():
    pts = random_cloud(1000, 2, seed=3).points
    tracemalloc.start()
    try:
        pairwise_distances(pts, "euclidean")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 MB matrix and one row block's temporaries; the whole-matrix
    # difference array traced 40 MB
    assert peak < 16e6

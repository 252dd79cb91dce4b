import math
import tracemalloc
import warnings
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypmetrics import (
    ONE_POINT_VARIANTS,
    VARIANTS,
    DistanceMatrix,
    InputError,
    PointCloud,
    PunctureDomainError,
    PuncturedSpec,
    avg_tau,
    build_distance_matrix,
    check_sandwich,
    j_metric,
    j_tilde_metric,
    mu_P,
    mu_p,
    pairwise_distances,
    punctured_matrix,
    random_cloud,
    sup_tau,
    tau_p,
    tilde_avg_tau,
    tilde_tau_p,
)
from hypmetrics import spaces
from hypmetrics.cassinian import _materialize, _punctured_matrices, _root

LOG2 = math.log(2.0)


def dict_oracle(pairs):
    """Oracle over symbolic distances: pairs maps frozenset({i,j}) -> d."""

    def d(i, j):
        if i == j:
            return 0.0
        return pairs[frozenset((i, j))]

    return d


# The 4-point space {p, x, y, z} with d(p,x) = d(y,z) = 2 and the four
# remaining off-diagonal distances 1; indices 0=p, 1=x, 2=y, 3=z.
COUNTEREXAMPLE = DistanceMatrix(
    [
        [0.0, 2.0, 1.0, 1.0],
        [2.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 2.0],
        [1.0, 1.0, 2.0, 0.0],
    ]
)


def test_mu_p_direct_formula():
    o = dict_oracle({frozenset((0, 1)): 3.0, frozenset((0, 2)): 2.0, frozenset((1, 2)): 5.0})
    # 3 + sqrt(10), frozen from direct arithmetic
    assert mu_p(o, 0, 1, 2) == pytest.approx(6.16227766016838, abs=1e-12)


def test_mu_p_degenerate_cases():
    o = dict_oracle({frozenset((0, 1)): 4.0, frozenset((0, 2)): 3.0, frozenset((1, 2)): 5.0})
    assert mu_p(o, 0, 0, 2) == 3.0  # x = y: reduces to d(x, p)
    assert mu_p(o, 2, 1, 2) == 5.0  # x = p: reduces to d(p, y)


def test_tau_p_counterexample_values():
    m = COUNTEREXAMPLE
    # tau_p(y, z): log 5, frozen
    assert tau_p(m, 2, 3, 0) == pytest.approx(1.6094379124341003, abs=1e-12)
    # tau_p(x, y): log(1 + sqrt 2), frozen
    assert tau_p(m, 1, 2, 0) == pytest.approx(0.8813735870195429, abs=1e-12)
    assert tau_p(m, 1, 1, 0) == 0.0


def test_tilde_tau_p_counterexample_values():
    m = COUNTEREXAMPLE
    # log 3, frozen
    assert tilde_tau_p(m, 2, 3, 0) == pytest.approx(1.0986122886681098, abs=1e-12)
    # log(1 + 1/sqrt 2), frozen
    assert tilde_tau_p(m, 1, 2, 0) == pytest.approx(0.5347999967395703, abs=1e-12)
    assert tilde_tau_p(m, 3, 3, 0) == 0.0


def test_point_on_puncture_raises():
    m = COUNTEREXAMPLE
    with pytest.raises(PunctureDomainError):
        tau_p(m, 0, 2, 0)
    with pytest.raises(PunctureDomainError):
        tilde_tau_p(m, 1, 0, 0)


LINE = build_distance_matrix(PointCloud([0.0, 10.0, 2.0, 5.0]))  # 0=p1, 1=p2, 2=x, 3=y


def test_mu_P_line_example():
    # (3 + sqrt 10)(3 + sqrt 40), frozen from direct arithmetic
    assert mu_P(LINE, 2, 3, [0, 1]) == pytest.approx(57.460498941515425, rel=1e-12)
    assert mu_P(LINE, 2, 3, [0]) == mu_p(LINE, 2, 3, 0)
    # x = y: reduces to the product of anchor distances
    assert mu_P(LINE, 2, 2, [0, 1]) == pytest.approx(2.0 * 8.0, rel=1e-12)


def test_avg_tau_line_example():
    # (1/2)[log(1 + 6/sqrt 10) + log(1 + 6/sqrt 40)], frozen
    assert avg_tau(LINE, 2, 3, [0, 1]) == pytest.approx(0.8654780834359359, abs=1e-12)
    assert avg_tau(LINE, 2, 3, [0]) == tau_p(LINE, 2, 3, 0)
    assert avg_tau(LINE, 3, 3, [0, 1]) == 0.0


def test_tilde_avg_reductions():
    assert tilde_avg_tau(LINE, 2, 3, [0]) == tilde_tau_p(LINE, 2, 3, 0)
    assert tilde_avg_tau(LINE, 2, 2, [0, 1]) == 0.0


def test_sup_tau_dominates_avg():
    for x, y in ((2, 3), (2, 2), (3, 2)):
        assert sup_tau(LINE, x, y, [0, 1]) >= avg_tau(LINE, x, y, [0, 1])
    assert sup_tau(LINE, 2, 3, [0]) == tau_p(LINE, 2, 3, 0)


def test_j_metric_line_example():
    # (1/2)[log(1 + 3/2) + log(1 + 3/5)] = log 2 exactly in real arithmetic
    assert j_metric(LINE, 2, 3, [0, 1]) == pytest.approx(math.log(2.0), abs=1e-12)
    assert j_metric(LINE, 2, 2, [0, 1]) == 0.0
    assert j_tilde_metric(LINE, 2, 2, [0, 1]) == 0.0


def test_j_tilde_dominates_j():
    for x, y in ((2, 3), (3, 2)):
        assert j_tilde_metric(LINE, x, y, [0, 1]) >= j_metric(LINE, x, y, [0, 1])


def test_one_point_sandwich_pairwise():
    m = build_distance_matrix(random_cloud(20, 2, seed=9))
    for x in range(1, 20):
        for y in range(1, 20):
            if x == y:
                continue
            lo = tilde_tau_p(m, x, y, 0)
            hi = tau_p(m, x, y, 0)
            assert lo <= hi + 1e-12
            assert hi <= lo + LOG2 + 1e-12


def test_avg_sandwich_pairwise():
    cloud = random_cloud(15, 2, seed=21)
    punctures = np.array([[2.0, 2.0], [3.0, -1.0], [-2.5, 0.5], [0.5, 4.0], [4.0, 4.0]])
    spec = PuncturedSpec(cloud, punctures, variant="avg_tau")
    lo = punctured_matrix(spec.with_variant("tilde_avg_tau")).entries
    hi = punctured_matrix(spec).entries
    assert np.all(lo <= hi + 1e-12)
    assert np.all(hi <= lo + LOG2 + 1e-12)


# --- PuncturedSpec / punctured_matrix ---


def test_spec_validation():
    cloud = random_cloud(6, 2, seed=1)
    with pytest.raises(InputError):
        PuncturedSpec(cloud, [], variant="tau_p")
    with pytest.raises(InputError):
        PuncturedSpec(cloud, [0, 0], variant="tau_p")
    with pytest.raises(InputError):
        PuncturedSpec(cloud, [0], variant="nonsense")
    with pytest.raises(InputError):
        PuncturedSpec(cloud, [0, 1], variant="tau_p")  # k>1 one-point needs anchor
    with pytest.raises(InputError):
        PuncturedSpec(cloud, list(range(6)), variant="avg_tau")  # empty domain
    with pytest.raises(InputError):
        PuncturedSpec(COUNTEREXAMPLE, [[0.1, 0.2]], variant="tau_p")  # coords need a cloud


@pytest.mark.parametrize("punctures", [[0], [[0.5, 0.5, 0.5]]], ids=["index", "coords"])
def test_spec_refuses_a_metric_its_cloud_cannot_take(punctures):
    # d1 on a 3-D cloud built, and only punctured_matrix refused it
    cloud = random_cloud(6, 3, seed=1)
    for metric, message in (("d1", "^metric 'd1' needs dim 2, got dim 3$"),
                            ("l3", "^unknown metric 'l3'")):
        with pytest.raises(InputError, match=message):
            PuncturedSpec(cloud, punctures, "avg_tau", metric=metric)
    assert PuncturedSpec(cloud, punctures, "avg_tau", metric="taxicab").metric == "taxicab"


def test_spec_anchor_defaults_for_single_puncture():
    cloud = random_cloud(6, 2, seed=1)
    spec = PuncturedSpec(cloud, [0], variant="tau_p")
    assert spec.anchor == 0


def test_puncture_coincidence_rejected():
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    spec = PuncturedSpec(cloud, [[1.0, 0.0]], variant="tau_p")
    with pytest.raises(PunctureDomainError):
        punctured_matrix(spec)
    # 1e-170 from a puncture a point is off it, though its squared distance underflows
    near = PuncturedSpec(PointCloud([[1e-170, 0.0], [1.0, 1.0]]), [[0.0, 0.0]], variant="avg_tau")
    assert punctured_matrix(near)(0, 1) > 195.0
    with pytest.raises(InputError, match="^punctures 0 and 1 coincide$"):
        PuncturedSpec(cloud, [[0.5, 0.5], [0.5, 0.5]], variant="avg_tau")
    with pytest.raises(InputError, match="^punctures 1 and 2 coincide$"):
        PuncturedSpec(cloud, [[0.5, 0.5], [2.0, -0.0], [2.0, 0.0]], variant="avg_tau")


def test_punctures_at_distance_zero_rejected():
    # points 0 and 4 coincide, and so do 1 and 2: the first pair in
    # puncture order is named, by index or by position in the puncture list
    m = build_distance_matrix(PointCloud([[5.0], [1.0], [1.0], [7.0], [5.0], [3.0]]))
    with pytest.raises(InputError, match="^punctures 0 and 4 sit at distance zero$"):
        punctured_matrix(PuncturedSpec(m, [0, 1, 2, 4], "avg_tau"))
    with pytest.raises(InputError, match="^punctures 2 and 1 sit at distance zero$"):
        punctured_matrix(PuncturedSpec(m, [3, 2, 1], "avg_tau"))
    # distinct coordinates 5e-324 apart are distinct punctures, although
    # the square of their distance underflows to zero
    far = [[3.0, 3.0], [0.0, 0.0], [5e-324, 0.0]]
    spec = PuncturedSpec(PointCloud([[1.0, 1.0], [2.0, 0.5]]), far, "avg_tau")
    assert punctured_matrix(spec).n == 2
    assert pairwise_distances(np.array(far), "euclidean")[1, 2] == 5e-324


def test_punctured_matrix_by_index_matches_scalar():
    spec = PuncturedSpec(COUNTEREXAMPLE, [0], variant="tau_p", anchor=0)
    m = punctured_matrix(spec)
    assert m.n == 3
    # domain order [x, y, z]; compare against the scalar constructor
    assert m(0, 1) == pytest.approx(tau_p(COUNTEREXAMPLE, 1, 2, 0), abs=1e-15)
    assert m(1, 2) == pytest.approx(tau_p(COUNTEREXAMPLE, 2, 3, 0), abs=1e-15)


def test_avg_k1_equals_tau_matrix_entrywise():
    # bit for bit: the sweep reads its one-point rows from the k = 1 averages
    cloud = random_cloud(12, 2, seed=33)
    spec = PuncturedSpec(cloud, [[2.0, 2.0]], variant="avg_tau")
    for averaged, one_point in (
        ("avg_tau", "tau_p"),
        ("tilde_avg_tau", "tilde_tau_p"),
        ("sup_tau", "tau_p"),
    ):
        avg = punctured_matrix(spec.with_variant(averaged)).entries
        tau = punctured_matrix(spec.with_variant(one_point, anchor=0)).entries
        assert np.array_equal(avg.view(np.uint64), tau.view(np.uint64)), averaged


def test_variant_matrices_structurally_valid():
    cloud = random_cloud(10, 2, seed=44)
    punctures = np.array([[1.5, 1.5], [-0.5, 0.3]])
    for variant in ("avg_tau", "tilde_avg_tau", "sup_tau", "j", "j_tilde"):
        spec = PuncturedSpec(cloud, punctures, variant=variant)
        m = punctured_matrix(spec).entries  # DistanceMatrix validates on build
        assert m.shape == (10, 10)
    for variant in ("tau_p", "tilde_tau_p"):
        spec = PuncturedSpec(cloud, punctures, variant=variant, anchor=1)
        assert punctured_matrix(spec).n == 10


@settings(max_examples=40, derandomize=True)
@given(st.floats(min_value=1e-300, max_value=1e300))
@example(1e-170)  # squared coordinates underflow to 0 unless rescaled
@example(1e160)  # squared coordinates overflow to inf unless rescaled
def test_scale_invariance(lam):
    cloud = random_cloud(8, 2, seed=55)
    punctures = np.array([[2.0, 0.5], [-1.0, 1.0]])
    base = punctured_matrix(PuncturedSpec(cloud, punctures, variant="avg_tau")).entries
    scaled_cloud = PointCloud(cloud.points * lam)
    scaled = punctured_matrix(
        PuncturedSpec(scaled_cloud, punctures * lam, variant="avg_tau")
    ).entries
    assert np.allclose(base, scaled, rtol=1e-9, atol=1e-12)


@pytest.mark.parametrize("exponent", [-1000, -600, -500, 500, 600, 1000, 1022])
def test_power_of_two_scales_are_bit_identical(exponent):
    # at 2^1022 the punctures reach 2^1023, the top binade of the floats
    cloud = random_cloud(8, 2, seed=55)
    punctures = np.array([[2.0, 0.5], [-1.0, 1.0]])
    matrix = build_distance_matrix(cloud)
    scaled_cloud = PointCloud(np.ldexp(cloud.points, exponent))
    for variant, metric in product(VARIANTS, ("euclidean", "taxicab")):
        anchor = 1 if variant in ONE_POINT_VARIANTS else None
        base = punctured_matrix(PuncturedSpec(cloud, punctures, variant, anchor, metric))
        scaled = PuncturedSpec(
            scaled_cloud, np.ldexp(punctures, exponent), variant, anchor, metric
        )
        assert np.array_equal(punctured_matrix(scaled).entries, base.entries), (variant, metric)
    base = punctured_matrix(PuncturedSpec(matrix, [0, 5], "tilde_avg_tau"))
    scaled_matrix = DistanceMatrix(np.ldexp(matrix.entries, exponent))
    scaled = PuncturedSpec(scaled_matrix, [0, 5], "tilde_avg_tau")
    assert np.array_equal(punctured_matrix(scaled).entries, base.entries)
    scalars = [tau_p, tilde_tau_p, avg_tau, tilde_avg_tau, sup_tau, j_metric, j_tilde_metric]
    for scalar in scalars:
        p = 0 if scalar in (tau_p, tilde_tau_p) else [0, 5]
        got = [scalar(scaled_matrix, x, y, p) for x, y in ((1, 2), (3, 7), (7, 3), (6, 6))]
        want = [scalar(matrix, x, y, p) for x, y in ((1, 2), (3, 7), (7, 3), (6, 6))]
        assert np.array(got).view(np.uint64).tolist() == np.array(want).view(np.uint64).tolist()


def test_scale_invariance_all_variants():
    lam = 37.5
    m = COUNTEREXAMPLE
    scaled = DistanceMatrix(m.entries * lam)
    for x, y in ((1, 2), (2, 3), (1, 3)):
        assert tau_p(scaled, x, y, 0) == pytest.approx(tau_p(m, x, y, 0), rel=1e-12)
        assert tilde_tau_p(scaled, x, y, 0) == pytest.approx(
            tilde_tau_p(m, x, y, 0), rel=1e-12
        )
        assert j_metric(scaled, x, y, [0]) == pytest.approx(j_metric(m, x, y, [0]), rel=1e-12)


def test_spec_json_roundtrip():
    cloud = random_cloud(7, 2, seed=66)
    spec = PuncturedSpec(cloud, [[1.5, 0.5]], variant="avg_tau")
    back = PuncturedSpec.from_dict(spec.to_dict())
    assert back.variant == "avg_tau"
    assert np.array_equal(
        punctured_matrix(back).entries, punctured_matrix(spec).entries
    )
    spec_idx = PuncturedSpec(COUNTEREXAMPLE, [0], variant="tilde_tau_p")
    back_idx = PuncturedSpec.from_dict(spec_idx.to_dict())
    assert back_idx.punctures == (0,)
    assert np.array_equal(
        punctured_matrix(back_idx).entries, punctured_matrix(spec_idx).entries
    )


def test_scalar_constructors_equal_matrix_entries_exactly():
    # Both paths evaluate one formula, so equality is bit for bit, not approximate.
    cloud = random_cloud(60, 2, seed=71)
    m = build_distance_matrix(cloud)
    punctures = [4, 17, 33]
    dom = [i for i in range(60) if i not in punctures]
    scalars = {
        "tau_p": lambda x, y: tau_p(m, x, y, punctures[1]),
        "tilde_tau_p": lambda x, y: tilde_tau_p(m, x, y, punctures[1]),
        "avg_tau": lambda x, y: avg_tau(m, x, y, punctures),
        "tilde_avg_tau": lambda x, y: tilde_avg_tau(m, x, y, punctures),
        "sup_tau": lambda x, y: sup_tau(m, x, y, punctures),
        "j": lambda x, y: j_metric(m, x, y, punctures),
        "j_tilde": lambda x, y: j_tilde_metric(m, x, y, punctures),
    }
    for variant, scalar in scalars.items():
        anchor = 1 if variant in ("tau_p", "tilde_tau_p") else None
        spec = PuncturedSpec(cloud, punctures, variant=variant, anchor=anchor)
        entries = punctured_matrix(spec).entries
        mismatches = [
            (x, y)
            for a, x in enumerate(dom)
            for b, y in enumerate(dom)
            if scalar(x, y) != entries[a, b]
        ]
        assert mismatches == [], (variant, len(mismatches))

    # mu as the checkers evaluate it, over index arrays of every pair
    e = m.entries
    xs, ys = (g.ravel() for g in np.meshgrid(np.arange(60), np.arange(60), indexing="ij"))
    P = np.array(punctures)
    for p in punctures:
        vec = e[xs, ys] + np.sqrt(e[xs, p] * e[ys, p])
        assert all(mu_p(m, int(x), int(y), p) == v for x, y, v in zip(xs, ys, vec))
    rows = e[xs, ys][:, None] + np.sqrt(e[xs[:, None], P] * e[ys[:, None], P])
    for x, y, row in zip(xs, ys, rows):
        assert mu_P(m, int(x), int(y), punctures) == math.prod(row.tolist())


def test_scalar_constructors_read_nested_lists():
    m = build_distance_matrix(random_cloud(12, 2, seed=73))
    rows = m.entries.tolist()
    punctures = [2, 5, 9]
    dom = [x for x in range(12) if x not in punctures]
    for scalar in (
        lambda d, x, y: tau_p(d, x, y, punctures[0]),
        lambda d, x, y: avg_tau(d, x, y, punctures),
        lambda d, x, y: mu_P(d, x, y, punctures),
    ):
        on_matrix = np.array([scalar(m, x, y) for x in dom for y in dom])
        on_lists = np.array([scalar(rows, x, y) for x in dom for y in dom])
        assert np.array_equal(on_lists.view(np.uint64), on_matrix.view(np.uint64))


@pytest.mark.parametrize(
    "call, message",
    [
        # -1 read the last point: tau_p gave the value for a puncture at point 5
        (lambda d: tau_p(d, 0, 1, -1), "^need point index >= 0, got -1$"),
        (lambda d: tau_p(d, 0, 1, 2.5), "^point index must be an integer, got 2.5$"),
        (lambda d: tau_p(d, 0, 6, 2), r"^point index 6 out of range \[0, 6\)$"),
        (lambda d: avg_tau(d, 0, 1, [2, -1]), "^need point index >= 0, got -1$"),
        (lambda d: mu_P(d, 0, 1, [True]), "^point index must be an integer, got True$"),
        (lambda d: mu_p(d, -1, 1, 2), "^need point index >= 0, got -1$"),
    ],
    ids=["tau_p-negative", "tau_p-float", "tau_p-past-the-end", "avg_tau-negative",
         "mu_P-boolean", "mu_p-negative"],
)
def test_scalar_constructors_refuse_bad_indices(call, message):
    m = build_distance_matrix(random_cloud(6, 2, seed=79))
    for d in (m, m.entries, m.entries.tolist()):
        with pytest.raises(InputError, match=message):
            call(d)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda d: avg_tau(d, 0, 1, 5), "^punctures must be a list, got int$"),
        (lambda d: mu_P(d, 0, 1, 3), "^punctures must be a list, got int$"),
        (lambda d: j_metric(d, 0, 1, None), "^punctures must be a list, got NoneType$"),
        (lambda d: tau_p(lambda i, j: "a", 0, 1, 2), "could not convert string to float: 'a'$"),
        (lambda d: mu_P(lambda i, j: None, 0, 1, [2]), "not 'NoneType'$"),
        (lambda d: avg_tau(lambda i, j: [1.0], 0, 1, [2]), "not 'list'$"),
    ],
    ids=["avg_tau-int", "mu_P-int", "j-none", "oracle-string", "oracle-none", "oracle-list"],
)
def test_scalar_constructors_refuse_bad_punctures_and_oracle_values(call, message):
    m = build_distance_matrix(random_cloud(6, 2, seed=79))
    with pytest.raises(InputError, match=message):
        call(m)


def test_matrix_entries_refuse_bad_indices():
    m = build_distance_matrix(random_cloud(6, 2, seed=79))
    assert m(0, 5) == m.entries[0, 5] and m(np.int64(5), 0) == m.entries[5, 0]
    for i, message in ((-1, "^need point index >= 0, got -1$"),
                       (True, "^point index must be an integer, got True$")):
        with pytest.raises(InputError, match=message):
            m(0, i)


def test_point_next_to_a_puncture_keeps_a_zero_diagonal():
    # d(0, 1) = 1e-170, so the gap product of point 1 underflows to 0 and
    # its diagonal entry was 0 / 0; with d(0, 2) = d(1, 2) = 1e-170 too, the
    # gap product of points 1 and 2 underflows and their entry was infinite
    one = np.ones((5, 5)) - np.eye(5)
    one[0, 1] = one[1, 0] = 1e-170
    two = one.copy()
    two[[0, 1, 2, 2], [2, 2, 0, 1]] = 1e-170
    for e in (one, two):
        m = DistanceMatrix(e)
        scalars = {
            "tau_p": lambda x, y: tau_p(m, x, y, 0),
            "tilde_tau_p": lambda x, y: tilde_tau_p(m, x, y, 0),
            "avg_tau": lambda x, y: avg_tau(m, x, y, [0]),
            "tilde_avg_tau": lambda x, y: tilde_avg_tau(m, x, y, [0]),
            "sup_tau": lambda x, y: sup_tau(m, x, y, [0]),
        }
        for variant, scalar in scalars.items():
            entries = punctured_matrix(PuncturedSpec(m, [0], variant=variant)).entries
            expected = [[scalar(x, y) for y in range(1, 5)] for x in range(1, 5)]
            assert np.array_equal(entries.view(np.uint64), np.array(expected).view(np.uint64)), variant
            assert entries[0, 0] == 0.0 and entries[0, 2] > 195.0


def test_matrix_reaching_the_float_limit_keeps_subnormal_distances():
    # The matrix holds 1.7e308, where halving every entry would round
    # 5e-324 (2^-1074) to 0 and 1.5e-323 to 2e-323: point 0 would lie on
    # puncture 1, and the tilde entry of points 0 and 2 over puncture 4
    # would read 2e-323.
    e = np.ones((5, 5)) - np.eye(5)
    e[0, 1] = e[1, 0] = 5e-324
    e[0, 2] = e[2, 0] = 1.5e-323
    e[3, 4] = e[4, 3] = 1.7e308
    e[1, 3:] = e[3:, 1] = 4.0  # 2 d(3, 4) / 4 stays finite
    m = DistanceMatrix(e)
    for p in (1, 4):
        scalars = {
            "tau_p": lambda x, y: tau_p(m, x, y, p),
            "tilde_tau_p": lambda x, y: tilde_tau_p(m, x, y, p),
            "avg_tau": lambda x, y: avg_tau(m, x, y, [p]),
            "tilde_avg_tau": lambda x, y: tilde_avg_tau(m, x, y, [p]),
            "sup_tau": lambda x, y: sup_tau(m, x, y, [p]),
            "j": lambda x, y: j_metric(m, x, y, [p]),
            "j_tilde": lambda x, y: j_tilde_metric(m, x, y, [p]),
        }
        if p == 1:  # d(0, 3) / d(0, 1), the ratio of the j variants, overflows
            del scalars["j"], scalars["j_tilde"]
        dom = [i for i in range(5) if i != p]
        for variant, scalar in scalars.items():
            entries = punctured_matrix(PuncturedSpec(m, [p], variant=variant)).entries
            expected = [[scalar(x, y) for y in dom] for x in dom]
            assert np.array_equal(entries.view(np.uint64), np.array(expected).view(np.uint64)), variant
        tilde = punctured_matrix(PuncturedSpec(m, [p], variant="tilde_avg_tau")).entries
        if p == 4:
            assert tilde[0, 2] == 1.5e-323  # d(0, 2) over gaps of 1
        else:
            assert np.isfinite(tilde).all() and tilde[0, 2] > 370.0  # point 3, 1 from point 0


def _scalars(m, punctures, anchor):
    """Every scalar constructor over ``punctures``, the one-point ones at
    ``anchor``, by variant."""
    p = punctures[anchor]
    return {
        "tau_p": lambda x, y: tau_p(m, x, y, p),
        "tilde_tau_p": lambda x, y: tilde_tau_p(m, x, y, p),
        "avg_tau": lambda x, y: avg_tau(m, x, y, punctures),
        "tilde_avg_tau": lambda x, y: tilde_avg_tau(m, x, y, punctures),
        "sup_tau": lambda x, y: sup_tau(m, x, y, punctures),
        "j": lambda x, y: j_metric(m, x, y, punctures),
        "j_tilde": lambda x, y: j_tilde_metric(m, x, y, punctures),
    }


def _assert_matrices_equal_scalars(m, punctures, anchor=0):
    dom = [i for i in range(m.n) if i not in punctures]
    for variant, scalar in _scalars(m, punctures, anchor).items():
        one_point = variant in ("tau_p", "tilde_tau_p")
        spec = PuncturedSpec(m, punctures, variant, anchor=anchor if one_point else None)
        entries = punctured_matrix(spec).entries  # finite: DistanceMatrix checks
        expected = np.array([[scalar(x, y) for y in dom] for x in dom])
        assert np.array_equal(entries.view(np.uint64), expected.view(np.uint64)), variant


def test_ratio_past_the_float_range_keeps_a_finite_log():
    # 1 / 5e-324 overflows, while log(1 + 1 / 5e-324) is about 744.44: the
    # j ratio d(0, 3) / dist(0, {1}) takes the logarithms apart
    sub = np.ones((5, 5)) - np.eye(5)
    sub[0, 1] = sub[1, 0] = 5e-324
    m = DistanceMatrix(sub)
    far = -math.log(5e-324)
    assert j_metric(m, 0, 3, [1]) == pytest.approx(0.5 * (far + LOG2), rel=1e-15)
    assert j_tilde_metric(m, 0, 3, [1]) == pytest.approx(far, rel=1e-15)
    _assert_matrices_equal_scalars(m, [1])
    _assert_matrices_equal_scalars(m, [1, 4], anchor=1)
    # 2 * 1.7e308 overflows, while log(1 + 2 * 1.7e308) is about 710.42;
    # with gaps of 1/4 the ratio itself overflows, for the tilde variants too
    for other in (1.0, 0.25):
        top = np.full((4, 4), other) - other * np.eye(4)
        top[0, 1] = top[1, 0] = 1.7e308
        m = DistanceMatrix(top)
        ratio = math.log(1.7e308) - math.log(other)
        assert tau_p(m, 0, 1, 2) == pytest.approx(LOG2 + ratio, rel=1e-15)
        assert tilde_tau_p(m, 0, 1, 2) == pytest.approx(ratio, rel=1e-15)
        assert avg_tau(m, 0, 1, [2, 3]) == pytest.approx(LOG2 + ratio, rel=1e-15)
        assert sup_tau(m, 0, 1, [2, 3]) == pytest.approx(LOG2 + ratio, rel=1e-15)
        _assert_matrices_equal_scalars(m, [2])
        _assert_matrices_equal_scalars(m, [2, 3], anchor=1)
    # two points 2^-1060 from a puncture, the other distances 2^-500: the
    # product of their gaps underflows, and ``_root`` rescales it, so the
    # entry is log(1 + 2^-499 / 2^-1060), 561 log 2
    near = 2.0**-500 * (np.ones((4, 4)) - np.eye(4))
    near[0, 1:3] = near[1:3, 0] = 2.0**-1060
    m = DistanceMatrix(near)
    assert tau_p(m, 1, 2, 0) == pytest.approx(561 * LOG2, rel=1e-15)
    assert tilde_tau_p(m, 1, 2, 0) == pytest.approx(560 * LOG2, rel=1e-15)
    _assert_matrices_equal_scalars(m, [0])


@pytest.mark.parametrize("gap", [1e-170, 1e-300, 1e-310, 1e-315, 1e-320, 5e-323])
def test_points_next_to_a_puncture_keep_the_scalar_entries(gap):
    # two points ``gap`` from a puncture and from each other, the other
    # distances about 1: the gap product of the pair leaves the normal
    # range beside entries whose product does not
    near = np.ones((5, 5)) - np.eye(5)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        near[i, j] = near[j, i] = gap
    m = DistanceMatrix(near)
    _assert_matrices_equal_scalars(m, [0])
    assert tau_p(m, 1, 2, 0) == pytest.approx(math.log(3.0), rel=1e-15)
    assert tilde_tau_p(m, 1, 2, 0) == pytest.approx(LOG2, rel=1e-15)
    # the same with a coordinate puncture at the origin
    pts = np.array([[gap, 0.0], [0.0, gap], [1.0, 1.0], [2.0, 0.5]])
    cloud, origin = PointCloud(pts), [[0.0, 0.0]]
    full = DistanceMatrix(pairwise_distances(np.vstack([pts, origin]), "euclidean"))
    for variant, scalar in _scalars(full, [4], 0).items():
        entries = punctured_matrix(PuncturedSpec(cloud, origin, variant)).entries
        expected = np.array([[scalar(x, y) for y in range(4)] for x in range(4)])
        assert np.array_equal(entries.view(np.uint64), expected.view(np.uint64)), variant
    for spec in (PuncturedSpec(m, [0], "tilde_tau_p"), PuncturedSpec(cloud, origin, "tilde_tau_p")):
        entries = punctured_matrix(spec).entries  # DistanceMatrix: no entry is negative
        assert (entries[~np.eye(4, dtype=bool)] > 0.0).all()


def _sequential_fold(spec, variant, k, anchor):
    """The cell as one fold over its own punctures: start, then
    op(out, log1p(f (d / root))) per puncture, the average divided by k,
    with ``_root`` for sqrt(d(x,p) d(y,p)) so that gap products past the
    float range keep their value; the j variants from the gap minima."""
    dist, gaps, idx = _materialize(spec)
    dom, g = dist(idx, idx), gaps.T
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        if variant in ("j", "j_tilde"):
            t1 = np.log1p(dom / g[:k].min(axis=0)[:, None])
            t2 = np.log1p(dom / g[:k].min(axis=0)[None, :])
            return 0.5 * (t1 + t2) if variant == "j" else np.maximum(t1, t2)
        f = 1.0 if variant.startswith("tilde") else 2.0
        terms = [np.log1p(f * (dom / _root(g[a][:, None], g[a][None, :]))) for a in range(k)]
    if variant in ("tau_p", "tilde_tau_p"):
        return terms[anchor]
    op, start = (np.maximum, -np.inf) if variant == "sup_tau" else (np.add, 0.0)
    out = np.full_like(dom, start)
    for term in terms:
        out = op(out, term)
    return out if variant == "sup_tau" else out / k


@pytest.mark.parametrize("exponent", [-1000, 0, 1000])
def test_walk_cells_equal_a_sequential_fold(monkeypatch, exponent):
    # unsorted, repeated and mixed cells, one walk per row block: the whole
    # domain, then row blocks of at most 6 entries
    cells = [("avg_tau", 4), ("sup_tau", 2), ("avg_tau", 1), ("tilde_avg_tau", 8),
             ("avg_tau", 4), ("tau_p", 1), ("j", 3), ("sup_tau", 8), ("j_tilde", 8)]
    rng = np.random.Generator(np.random.PCG64(19))
    pts = np.ldexp(rng.uniform(0.0, 1.0, size=(11, 2)), exponent)
    punctures = np.ldexp(rng.uniform(-1.0, 2.0, size=(8, 2)), exponent)
    cloud_spec = PuncturedSpec(PointCloud(pts), punctures, "avg_tau")
    base = build_distance_matrix(random_cloud(12, 2, seed=8)).entries
    matrix = DistanceMatrix(np.ldexp(base, exponent))
    index_spec = PuncturedSpec(matrix, [7, 2, 10], "avg_tau", anchor=1)
    index_cells = [("sup_tau", 3), ("tau_p", 3), ("avg_tau", 3), ("tilde_tau_p", 3),
                   ("j_tilde", 3), ("tilde_avg_tau", 3), ("avg_tau", 3)]
    for budget in (spaces._STEP_BYTES, 8 * 6):
        monkeypatch.setattr(spaces, "_STEP_BYTES", budget)
        for spec, walk, anchor in ((cloud_spec, cells, 0), (index_spec, index_cells, 1)):
            for (variant, k), got in zip(walk, _punctured_matrices(spec, walk)):
                want = _sequential_fold(spec, variant, k, anchor)
                same = np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert same, (variant, k, budget)


# Row blocks: with the step budget cut to a few dozen entries, a 30-point
# domain takes many row blocks; every matrix must keep the bits of the one
# block the default budget gives it. The extreme points sit in the last
# rows, so the fallbacks of ``_norms``, ``_root`` and ``_log1p_ratio`` fire
# in a block that is not the first.
_BUDGETS = [8 * 24, 8 * 40, 8 * 100]


def _near_puncture_matrix(gap):
    """30 points about 1 apart; point 26 a puncture, points 27 and 28
    ``gap`` from it and from each other; points 25 and 29 at distance 0,
    written 0.0 above the diagonal and -0.0 below it."""
    rng = np.random.Generator(np.random.PCG64(41))
    e = rng.uniform(1.0, 2.0, size=(30, 30))
    e = np.triu(e, 1) + np.triu(e, 1).T
    for i, j in ((26, 27), (26, 28), (27, 28)):
        e[i, j] = e[j, i] = gap
    e[25, 29], e[29, 25] = 0.0, -0.0
    return DistanceMatrix(e)


def _block_specs():
    """(name, spec, first extreme domain row or None) of every base the
    block tests take."""
    cloud = random_cloud(31, 2, seed=43, low=-2.0, high=2.0)
    coords = [[2.5, 2.5], [-3.0, 1.0], [0.5, -4.0]]
    wide_pts = np.vstack([
        random_cloud(25, 2, seed=47, low=1.0, high=3.0).points,
        [[1e-300, 0.0], [0.0, 2e-300], [1e300, 1.0], [-1e300, 1e300], [1e-170, 1e-170]],
    ])
    specs = [
        ("cloud-coords", PuncturedSpec(cloud, coords, "avg_tau", anchor=1), None),
        ("cloud-index", PuncturedSpec(cloud, [2, 17, 29], "avg_tau", anchor=1), None),
        ("matrix-index", PuncturedSpec(build_distance_matrix(cloud, "d1+d2"), [4, 0, 30],
                                       "avg_tau", anchor=2), None),
        ("wide-cloud", PuncturedSpec(PointCloud(wide_pts), [[0.0, 0.0], [1e-299, 1e-299]],
                                     "avg_tau", anchor=0), 25),
    ]
    for gap in (1e-170, 1e-300, 1e-310, 1e-315, 1e-320, 5e-323):
        specs.append((f"matrix-gap-{gap}", PuncturedSpec(_near_puncture_matrix(gap), [26, 3],
                                                         "avg_tau", anchor=0), 24))
        near = np.vstack([random_cloud(25, 2, seed=53, low=1.0, high=3.0).points,
                          [[gap, 0.0], [0.0, gap], [-gap, -gap]]])
        specs.append((f"cloud-gap-{gap}", PuncturedSpec(PointCloud(near), [[0.0, 0.0], [4.0, 4.0]],
                                                        "avg_tau", anchor=0), 25))
    return specs


_BLOCK_SPECS = _block_specs()


@pytest.mark.parametrize("name, spec, extreme", _BLOCK_SPECS, ids=[s[0] for s in _BLOCK_SPECS])
def test_row_blocks_give_the_one_block_matrices(monkeypatch, name, spec, extreme):
    cells = [(variant, spec.k) for variant in VARIANTS]
    whole = _punctured_matrices(spec, cells)
    for budget in _BUDGETS:
        monkeypatch.setattr(spaces, "_STEP_BYTES", budget)
        blocks = spaces._row_blocks(whole[0].shape[0])
        assert len(blocks) > 3 and (extreme is None or blocks[0][1] <= extreme)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no block warns where the whole matrix does not
            together = _punctured_matrices(spec, cells)
        for (variant, k), want, got in zip(cells, whole, together):
            alone = _punctured_matrices(spec, [(variant, k)])[0]
            for blocked in (got, alone):
                same = np.array_equal(blocked.view(np.uint64), want.view(np.uint64))
                assert same, (variant, budget)


@pytest.mark.parametrize("exponent", [-1000, 0, 1000])
def test_coordinate_punctures_are_points_after_the_cloud(monkeypatch, exponent):
    # a coordinate puncture is read as an extra point after the cloud's own:
    # the same cells, bit for bit, as index punctures n to n+k-1 of the
    # stacked cloud, in one block and in many
    rng = np.random.Generator(np.random.PCG64(83))
    pts = np.ldexp(rng.uniform(-2.0, 2.0, size=(30, 2)), exponent)
    coords = np.ldexp(rng.uniform(-3.0, 3.0, size=(3, 2)), exponent)
    stacked = PointCloud(np.vstack([pts, coords]))
    for metric in ("euclidean", "d1+d2"):
        by_coords = PuncturedSpec(PointCloud(pts), coords, "avg_tau", 2, metric)
        by_index = PuncturedSpec(stacked, [30, 31, 32], "avg_tau", 2, metric)
        cells = [(variant, 3) for variant in VARIANTS]
        for budget in [spaces._STEP_BYTES, *_BUDGETS]:
            monkeypatch.setattr(spaces, "_STEP_BYTES", budget)
            got, want = _punctured_matrices(by_coords, cells), _punctured_matrices(by_index, cells)
            for (variant, _), a, b in zip(cells, got, want):
                same = np.array_equal(a.view(np.uint64), b.view(np.uint64))
                assert same, (metric, variant, budget)


def test_row_blocks_give_the_one_block_sandwich(monkeypatch):
    cloud = random_cloud(31, 2, seed=67)
    specs = {
        "tau": PuncturedSpec(cloud, [[1.5, 1.5]], "tau_p"),
        "avg": PuncturedSpec(cloud, [[1.5, 1.5], [1.2, 1.9], [-0.5, 0.5]], "avg_tau"),
    }
    whole = {kind: check_sandwich(kind, spec).to_dict() for kind, spec in specs.items()}
    for budget in _BUDGETS:
        monkeypatch.setattr(spaces, "_STEP_BYTES", budget)
        for kind, spec in specs.items():
            assert check_sandwich(kind, spec).to_dict() == whole[kind], (kind, budget)


@pytest.mark.parametrize("variant", ["avg_tau", "j"])
def test_punctured_matrix_memory_is_bounded(variant):
    rng = np.random.Generator(np.random.PCG64(71))
    punctures = rng.uniform(1.25, 2.0, size=(8, 2))
    spec = PuncturedSpec(random_cloud(1000, 2, seed=71), punctures, variant)
    tracemalloc.start()
    try:
        punctured_matrix(spec)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 MB cell, kept by the DistanceMatrix without a copy, and one row
    # block's buffers: 11.3 MB; with a copy 17.1 MB, and the walk over the
    # whole domain traced 40.7 MB
    assert peak < 13e6


def _thousand_point_specs():
    rng = np.random.Generator(np.random.PCG64(71))
    cloud = random_cloud(1000, 2, seed=71)
    indices = [int(i) for i in rng.choice(1000, size=8, replace=False)]
    return {
        "cloud-coords": PuncturedSpec(cloud, rng.uniform(1.25, 2.0, size=(8, 2)), "avg_tau"),
        "cloud-index": PuncturedSpec(cloud, indices, "avg_tau"),
        "matrix-index": PuncturedSpec(build_distance_matrix(cloud), indices, "avg_tau"),
    }


@pytest.mark.parametrize("name", ["cloud-coords", "cloud-index", "matrix-index"])
def test_punctured_cells_memory_is_bounded(name):
    spec = _thousand_point_specs()[name]
    tracemalloc.start()
    try:
        _punctured_matrices(spec, [("avg_tau", 8)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the 8 MB cell and one row block's buffers: 10.3-11.3 MB; staging the
    # (n + k)^2 base matrix, or copying the domain of a matrix, traced 17.6-17.9 MB
    assert peak < 13e6

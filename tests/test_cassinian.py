import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hypmetrics import (
    DistanceMatrix,
    InputError,
    PointCloud,
    PunctureDomainError,
    PuncturedSpec,
    avg_tau,
    build_distance_matrix,
    j_metric,
    j_tilde_metric,
    mu_P,
    mu_p,
    punctured_matrix,
    random_cloud,
    sup_tau,
    tau_p,
    tilde_avg_tau,
    tilde_tau_p,
)

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


def test_spec_anchor_defaults_for_single_puncture():
    cloud = random_cloud(6, 2, seed=1)
    spec = PuncturedSpec(cloud, [0], variant="tau_p")
    assert spec.anchor == 0


def test_puncture_coincidence_rejected():
    cloud = PointCloud([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    spec = PuncturedSpec(cloud, [[1.0, 0.0]], variant="tau_p")
    with pytest.raises(PunctureDomainError):
        punctured_matrix(spec)
    with pytest.raises(InputError):
        PuncturedSpec(cloud, [[0.5, 0.5], [0.5, 0.5]], variant="avg_tau")


def test_punctured_matrix_by_index_matches_scalar():
    spec = PuncturedSpec(COUNTEREXAMPLE, [0], variant="tau_p", anchor=0)
    m = punctured_matrix(spec)
    assert m.n == 3
    # domain order [x, y, z]; compare against the scalar constructor
    assert m(0, 1) == pytest.approx(tau_p(COUNTEREXAMPLE, 1, 2, 0), abs=1e-15)
    assert m(1, 2) == pytest.approx(tau_p(COUNTEREXAMPLE, 2, 3, 0), abs=1e-15)


def test_avg_k1_equals_tau_matrix_entrywise():
    cloud = random_cloud(12, 2, seed=33)
    spec = PuncturedSpec(cloud, [[2.0, 2.0]], variant="avg_tau")
    avg = punctured_matrix(spec).entries
    tau = punctured_matrix(spec.with_variant("tau_p", anchor=0)).entries
    assert np.array_equal(avg, tau)


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


@pytest.mark.parametrize("exponent", [-1000, -600, -500, 500, 600, 1000])
def test_power_of_two_scales_are_bit_identical(exponent):
    cloud = random_cloud(8, 2, seed=55)
    punctures = np.array([[2.0, 0.5], [-1.0, 1.0]])
    matrix = build_distance_matrix(cloud)
    for metric in ("euclidean", "taxicab"):
        base = punctured_matrix(PuncturedSpec(cloud, punctures, "avg_tau", metric=metric))
        scaled = PuncturedSpec(
            PointCloud(np.ldexp(cloud.points, exponent)),
            np.ldexp(punctures, exponent),
            "avg_tau",
            metric=metric,
        )
        assert np.array_equal(punctured_matrix(scaled).entries, base.entries)
    base = punctured_matrix(PuncturedSpec(matrix, [0, 5], "tilde_avg_tau"))
    scaled_matrix = DistanceMatrix(np.ldexp(matrix.entries, exponent))
    scaled = PuncturedSpec(scaled_matrix, [0, 5], "tilde_avg_tau")
    assert np.array_equal(punctured_matrix(scaled).entries, base.entries)


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

import math
import tracemalloc
from itertools import combinations, product

import numpy as np
import pytest

from hypmetrics import (
    DistanceMatrix,
    InputError,
    PointCloud,
    PuncturedSpec,
    build_distance_matrix,
    check_lemma_K,
    check_lemma_nine,
    check_metric_axioms,
    check_mu_P_quasi_triangle,
    check_mu_bounds,
    check_product_lemma,
    check_ptolemaic,
    check_quasi_ptolemy,
    check_quasi_ptolemy_many,
    check_sandwich,
    mu_p,
    punctured_matrix,
    random_cloud,
)
from hypmetrics import cassinian, delta, verify
from hypmetrics.verify import DEFAULT_TOL, _CHECK_ELEMENTS

COUNTEREXAMPLE = DistanceMatrix(
    [
        [0.0, 2.0, 1.0, 1.0],
        [2.0, 0.0, 1.0, 1.0],
        [1.0, 1.0, 0.0, 2.0],
        [1.0, 1.0, 2.0, 0.0],
    ]
)


def test_axioms_euclidean_clean():
    m = build_distance_matrix(random_cloud(20, 2, seed=3))
    rep = check_metric_axioms(m)
    assert rep.passed
    assert rep.meta["offdiagonal_positive"]
    assert rep.worst_slack <= 0.0 + 1e-12


def test_axioms_flag_duplicate_points():
    m = build_distance_matrix(PointCloud([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0], [2.0, 0.0]]))
    rep = check_metric_axioms(m)
    assert rep.passed  # duplicates are legal
    assert not rep.meta["offdiagonal_positive"]


def test_axioms_detect_violations_in_raw_array():
    bad = np.array([[0.0, 5.0, 1.0], [5.0, 0.0, 1.0], [1.0, 1.0, 0.0]])
    rep = check_metric_axioms(bad)  # 5 > 1 + 1 breaks the triangle
    kinds = {v.kind for v in rep.violations}
    assert kinds == {"triangle"}
    asym = np.array([[0.0, 1.0], [2.0, 0.0]])
    rep2 = check_metric_axioms(asym)
    assert "symmetry" in {v.kind for v in rep2.violations}


def test_axioms_counterexample_tilde_family():
    tilde = punctured_matrix(PuncturedSpec(COUNTEREXAMPLE, [0], variant="tilde_tau_p"))
    rep = check_metric_axioms(tilde)
    assert not rep.passed
    # domain order [x, y, z] = 0, 1, 2: exactly d(y,z) <= d(y,x) + d(x,z)
    # and its mirror fail
    assert sorted(v.indices for v in rep.violations) == [(1, 2, 0), (2, 1, 0)]
    slack = max(v.slack for v in rep.violations)
    assert slack == pytest.approx(0.029012295188969084, abs=1e-9)

    tau = punctured_matrix(PuncturedSpec(COUNTEREXAMPLE, [0], variant="tau_p"))
    assert check_metric_axioms(tau).passed


def test_ptolemy_euclidean_exhaustive():
    m = build_distance_matrix(random_cloud(18, 2, seed=5))
    rep = check_ptolemaic(m)
    assert rep.passed
    assert rep.meta["quadruples"] == math.comb(18, 4)


def test_ptolemy_equidistant_points():
    ones = np.ones((4, 4)) - np.eye(4)
    rep = check_ptolemaic(DistanceMatrix(ones))
    assert rep.passed
    # 1*1 vs 1*1 + 1*1: strictly slack, never equality
    assert rep.worst_slack == pytest.approx(-1.0)


def test_ptolemy_counterexample_matrix():
    # products: d(p,x)d(y,z) = 4 against 1 + 1 -> exactly one violating
    # quadruple, at the (p,x),(y,z) pairing
    rep = check_ptolemaic(COUNTEREXAMPLE)
    assert len(rep.violations) == 1
    v = rep.violations[0]
    assert v.indices == (0, 1, 2, 3)
    assert v.lhs == pytest.approx(8.0)  # 2 * max-product
    assert v.rhs == pytest.approx(6.0)  # sum of all three products


def test_sandwich_tau_and_avg():
    cloud = random_cloud(15, 2, seed=7)
    spec = PuncturedSpec(cloud, [[2.0, 2.0]], variant="tau_p")
    assert check_sandwich("tau", spec).passed
    multi = PuncturedSpec(
        cloud,
        np.array([[2.0, 2.0], [-1.0, 0.5], [0.5, 3.0], [3.0, -0.5], [1.5, 1.5]]),
        variant="avg_tau",
    )
    assert check_sandwich("avg", multi).passed


def test_sandwich_taxicab():
    cloud = random_cloud(40, 2, seed=9, low=-20.0, high=20.0)
    rep = check_sandwich("taxicab", cloud)
    assert rep.passed
    assert rep.meta["gap"] == pytest.approx(math.pi)


def test_sandwich_bad_inputs():
    with pytest.raises(InputError):
        check_sandwich("nope", random_cloud(5, 2, seed=1))
    with pytest.raises(InputError):
        check_sandwich("taxicab", random_cloud(5, 3, seed=1))
    with pytest.raises(InputError):
        check_sandwich("tau", random_cloud(5, 2, seed=1))


def test_sandwich_rejects_distances_past_the_float_range():
    # a distance past the float range reads inf, and its slack inf - inf
    # is NaN: without the finiteness rule the taxicab kind passed vacuously
    huge = PointCloud([[8e307, 8e307], [-8e307, -8e307], [0.0, 1.0]])
    wide = PointCloud([[1e308, 0.0], [-1e308, 0.0], [0.0, 1.0]])
    for kind, target in (
        ("taxicab", huge),
        ("tau", PuncturedSpec(wide, [[0.0, 5.0]], "tau_p")),
        ("avg", PuncturedSpec(wide, [[0.0, 5.0], [0.0, -5.0]], "avg_tau")),
    ):
        with pytest.raises(InputError, match="NaN or infinite"):
            check_sandwich(kind, target)


def test_mu_bounds_clean_and_degenerate():
    m = build_distance_matrix(random_cloud(30, 2, seed=11))
    rep = check_mu_bounds(m, p=0, q=1, samples=20000, seed=13)
    assert rep.passed
    assert rep.checked > 0
    # x = y makes the lower chain an equality; x = p collapses mu to d(p, y):
    # both live in the degenerate battery, so a pass covers them.


def test_mu_bounds_anchor_validation():
    m = build_distance_matrix(random_cloud(6, 2, seed=1))
    with pytest.raises(InputError):
        check_mu_bounds(m, p=17)
    with pytest.raises(InputError, match="must be an integer, got 2.5$"):
        check_mu_bounds(m, 0, 2.5)


_LEMMA_CHECKERS = {
    "mu_bounds": lambda m, i: check_mu_bounds(m, i, samples=50),
    "lemma_nine": lambda m, i: check_lemma_nine(m, i, samples=50),
    "lemma_K": lambda m, i: check_lemma_K(m, i, 6.0, samples=50),
    "product_lemma": lambda m, i: check_product_lemma(m, [i], samples=50),
    "mu_P_quasi_triangle": lambda m, i: check_mu_P_quasi_triangle(m, [i], 50, 50),
}


@pytest.mark.parametrize(
    "entry, index",
    [(np.nan, 0), (np.inf, 0), (-np.inf, 0), (None, 99), (None, -1)],
    ids=["nan", "inf", "neg-inf", "index-99", "index-neg-1"],
)
@pytest.mark.parametrize("checker", list(_LEMMA_CHECKERS))
def test_lemma_checkers_reject_bad_entries_and_indices(checker, entry, index):
    e = build_distance_matrix(random_cloud(8, 2, seed=61)).entries.copy()
    if entry is not None:
        e[0, 1] = e[1, 0] = entry
    with pytest.raises(InputError):
        _LEMMA_CHECKERS[checker](e, index)


@pytest.mark.parametrize(
    "index", [0.7, 2.0, True, np.bool_(False), "1"],
    ids=["float", "integral-float", "bool", "numpy-bool", "string"],
)
@pytest.mark.parametrize(
    "checker",
    [*_LEMMA_CHECKERS.values(),
     lambda m, i: check_product_lemma(m, [2, i], samples=50),
     lambda m, i: check_mu_P_quasi_triangle(m, [2, i], 50, 50)],
    ids=[*_LEMMA_CHECKERS, "product_lemma-second", "mu_P_quasi_triangle-second"],
)
def test_lemma_checkers_refuse_indices_that_are_not_integers(checker, index):
    # a float is not truncated to an index, nor a boolean read as 0 or 1
    e = build_distance_matrix(random_cloud(8, 2, seed=61)).entries
    with pytest.raises(InputError, match="must be an integer, got "):
        checker(e, index)


_SAMPLED_CHECKERS = {
    "mu_bounds": lambda m, n, seed: check_mu_bounds(m, 0, samples=n, seed=seed),
    "lemma_nine": lambda m, n, seed: check_lemma_nine(m, 0, samples=n, seed=seed),
    "lemma_K": lambda m, n, seed: check_lemma_K(m, 0, 6.0, samples=n, seed=seed),
    "product_lemma": lambda m, n, seed: check_product_lemma(m, [0], samples=n, seed=seed),
    "mu_P_quasi_triangle": lambda m, n, seed: check_mu_P_quasi_triangle(m, [0], n, n, seed),
}


@pytest.mark.parametrize(
    "samples, seed, message",
    [
        (2.5, 0, "samples must be an integer, got 2.5"),
        (20, 1.5, "seed must be an integer, got 1.5"),
        (20, -1, "need seed >= 0, got -1"),
        (-5, 0, "need samples >= 0, got -5"),
        (True, 0, "samples must be an integer, got True"),
    ],
    ids=["float-samples", "float-seed", "negative-seed", "negative-samples", "boolean-samples"],
)
@pytest.mark.parametrize("checker", list(_SAMPLED_CHECKERS))
def test_sampled_checkers_refuse_counts_and_seeds_that_are_not_integers(
    checker, samples, seed, message
):
    # 2.5 samples ran 2 and seed 1.5 reported seed 1
    e = build_distance_matrix(random_cloud(8, 2, seed=61)).entries
    with pytest.raises(InputError, match=f"^{message}$"):
        _SAMPLED_CHECKERS[checker](e, samples, seed)


# "x" raised a bare TypeError from the comparison, and True passed as 1
@pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, "x", True, None, [1e-9]])
def test_checkers_refuse_a_tolerance_that_is_not_positive_and_finite(tol):
    e = build_distance_matrix(random_cloud(8, 2, seed=61)).entries
    for check in (check_metric_axioms, lambda m, tol: check_mu_bounds(m, 0, samples=5, tol=tol)):
        with pytest.raises(InputError, match="^tolerance must be positive and finite"):
            check(e, tol=tol)


def test_lemma_nine_clean_with_ratio():
    m = build_distance_matrix(random_cloud(30, 2, seed=15))
    rep = check_lemma_nine(m, p=0, samples=20000, seed=17)
    assert rep.passed
    assert 0.0 < rep.meta["max_ratio"] <= 9.0 + 1e-9


def test_lemma_nine_all_points_equal():
    # quadruple of identical points: both sides reduce to products of
    # anchor distances; must pass via the degenerate battery
    m = build_distance_matrix(PointCloud([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]]))
    rep = check_lemma_nine(m, p=0, samples=100, seed=1)
    assert rep.passed


def test_lemma_K_constant_and_skips():
    m = build_distance_matrix(random_cloud(30, 2, seed=19))
    rep = check_lemma_K(m, p=0, K=6.0, samples=20000, seed=21)
    assert rep.passed
    assert rep.meta["conclusion_constant"] == pytest.approx(4.5)
    assert rep.meta["applicable"] + rep.meta["skipped"] == rep.meta["sampled"]
    # equal-mu triples fail the hypothesis for any K > 3 and are skipped,
    # not checked: x = y tuples from the battery guarantee some skips
    assert rep.meta["skipped"] > 0


def test_lemma_K_rejects_small_K():
    m = build_distance_matrix(random_cloud(6, 2, seed=1))
    for K in (3.0, math.nan, math.inf):
        with pytest.raises(InputError):
            check_lemma_K(m, p=0, K=K)


def test_product_lemma_k1_and_degenerate():
    m = build_distance_matrix(random_cloud(20, 2, seed=23))
    rep = check_product_lemma(m, [0], samples=5000, seed=25)
    assert rep.passed
    rep8 = check_product_lemma(m, list(range(8)), samples=20000, seed=27)
    assert rep8.passed
    assert rep8.meta["k"] == 8


@pytest.mark.parametrize("k", [2, 4, 8])
def test_product_lemma_log_matches_direct_small_k(k):
    # cross-validation: log-domain evaluation against direct products
    m = build_distance_matrix(random_cloud(16, 2, seed=29)).entries
    P = list(range(k))
    rng = np.random.Generator(np.random.PCG64(31))
    for _ in range(200):
        # stay off the anchor indices so plain math.log is defined
        x, y, z = rng.integers(k, 16, size=3)
        a = [m[x, z] + math.sqrt(m[x, p] * m[z, p]) for p in P]
        b = [m[y, z] + math.sqrt(m[y, p] * m[z, p]) for p in P]
        lhs_direct = math.prod(ai + bi for ai, bi in zip(a, b))
        rhs_direct = 9.0 ** len(P) * (math.prod(a) + math.prod(b))
        lhs_log = sum(math.log(ai + bi) for ai, bi in zip(a, b))
        rhs_log = len(P) * math.log(9.0) + np.logaddexp(
            sum(math.log(v) for v in a), sum(math.log(v) for v in b)
        )
        assert lhs_log == pytest.approx(math.log(lhs_direct), rel=1e-9)
        assert rhs_log == pytest.approx(math.log(rhs_direct), rel=1e-9)
        assert lhs_direct <= rhs_direct * (1 + 1e-9)


def test_quasi_ptolemy_collinear():
    pts = PointCloud([0.0, 1.0, 2.0, 3.0])
    r = build_distance_matrix(pts).entries
    rep = check_quasi_ptolemy(r, K=1.0)
    assert rep.meta["hypothesis_satisfied"]
    assert rep.passed


def test_quasi_ptolemy_equal_distances():
    r = np.ones((4, 4)) - np.eye(4)
    rep = check_quasi_ptolemy(r, K=1.0)
    assert rep.passed


def test_quasi_ptolemy_hypothesis_failure_reported():
    r = np.zeros((4, 4))
    r[0, 1] = r[1, 0] = 100.0
    r[2, 3] = r[3, 2] = 1.0
    r[0, 2] = r[2, 0] = r[1, 3] = r[3, 1] = 1.0
    r[0, 3] = r[3, 0] = r[1, 2] = r[2, 1] = 1.0
    rep = check_quasi_ptolemy(r, K=1.0)
    assert rep.meta["hypothesis_satisfied"] is False
    assert rep.violations == []
    assert rep.meta["hypothesis_failures"]


def test_quasi_ptolemy_input_validation():
    with pytest.raises(InputError):
        check_quasi_ptolemy(np.zeros((3, 3)), K=1.0)
    for K in (0.5, math.nan, math.inf):
        with pytest.raises(InputError):
            check_quasi_ptolemy(np.zeros((4, 4)), K=K)
        with pytest.raises(InputError):
            check_quasi_ptolemy_many(np.ones((3, 4, 4)) - np.eye(4), K=K)
    bad = np.zeros((4, 4))
    bad[0, 1] = 1.0
    with pytest.raises(InputError):
        check_quasi_ptolemy(bad, K=1.0)


def test_quasi_ptolemy_from_mu_values():
    # mu_p between four cloud points satisfies the hypothesis with K = 3/2
    m = build_distance_matrix(random_cloud(25, 2, seed=33))
    rng = np.random.Generator(np.random.PCG64(35))
    for _ in range(50):
        pts = rng.choice(25, size=5, replace=False)
        p, quad = int(pts[0]), [int(v) for v in pts[1:]]
        r = np.zeros((4, 4))
        for i in range(4):
            for j in range(4):
                r[i, j] = mu_p(m, quad[i], quad[j], p)
        rep = check_quasi_ptolemy(r, K=1.5)
        assert rep.meta["hypothesis_satisfied"]
        assert rep.passed


def test_quasi_ptolemy_batch():
    m = build_distance_matrix(random_cloud(30, 2, seed=37)).entries
    rng = np.random.Generator(np.random.PCG64(39))
    quads = rng.integers(0, 30, size=(500, 4))
    rs = m[quads[:, :, None], quads[:, None, :]]
    rep = check_quasi_ptolemy_many(rs, K=1.0)
    assert rep.passed
    assert rep.meta["hypothesis_checked"] == 500


def test_mu_P_quasi_triangle():
    m = build_distance_matrix(random_cloud(25, 2, seed=41))
    rep = check_mu_P_quasi_triangle(m, [0, 1, 2, 3], triples=10000, quadruples=10000, seed=43)
    assert rep.passed
    rep1 = check_mu_P_quasi_triangle(m, [0], triples=2000, quadruples=2000, seed=45)
    assert rep1.passed
    rep2 = check_mu_P_quasi_triangle(m, [0, 1], triples=2000, quadruples=2000, seed=47)
    assert rep2.passed


def test_checkers_deterministic():
    m = build_distance_matrix(random_cloud(20, 2, seed=49))
    a = check_mu_bounds(m, p=0, q=1, samples=5000, seed=51)
    b = check_mu_bounds(m, p=0, q=1, samples=5000, seed=51)
    assert a.to_dict() == b.to_dict()
    a9 = check_lemma_nine(m, p=0, samples=5000, seed=53)
    b9 = check_lemma_nine(m, p=0, samples=5000, seed=53)
    assert a9.to_dict() == b9.to_dict()


def test_tolerance_must_be_positive():
    m = build_distance_matrix(random_cloud(6, 2, seed=1))
    for tol in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InputError):
            check_metric_axioms(m, tol=tol)


def test_report_serialization_shape():
    rep = check_metric_axioms(COUNTEREXAMPLE)
    d = rep.to_dict()
    assert set(d) == {"checked", "violations", "tolerance", "worst_slack", "meta"}
    assert d["violations"] == []


def test_quasi_ptolemy_is_a_batch_of_one():
    m = build_distance_matrix(random_cloud(30, 2, seed=57)).entries
    rng = np.random.Generator(np.random.PCG64(59))
    quads = rng.integers(0, 30, size=(40, 4))
    rs = m[quads[:, :, None], quads[:, None, :]]
    for r in rs:
        single = check_quasi_ptolemy(r, K=1.0)
        batch = check_quasi_ptolemy_many(r[None], K=1.0)
        assert single.meta == {"hypothesis_satisfied": True}
        assert single.checked == batch.checked == 3  # conclusions only
        assert single.worst_slack == batch.worst_slack
    bad = np.ones((4, 4)) - np.eye(4)
    bad[0, 1] = bad[1, 0] = 5.0
    rep = check_quasi_ptolemy(bad, K=1.0)
    assert rep.checked == 0
    assert rep.meta["hypothesis_satisfied"] is False
    # (1, 0, k) is not evaluated on a symmetric array: it fails where (0, 1, k) does
    assert rep.meta["hypothesis_failures"] == [[0, 1, 2], [0, 1, 3], [1, 0, 2], [1, 0, 3]]


# ---------------------------------------------------------------------------
# brute-force references for the exhaustive sweeps: Python floats, the same
# operand order, one comparison at a time


def _np_max(a, b):
    """``np.maximum`` on two Python floats: NaN when either is NaN."""
    return math.nan if a != a or b != b else max(a, b)


def _reference(checks, tol=DEFAULT_TOL):
    """(violations, checked, worst) over ``(kind, indices, lhs, rhs)``
    tuples, with the collector's scale rule; ``worst`` is the largest
    non-NaN slack, and a NaN slack is never a violation."""
    violations, checked, worst = [], 0, -math.inf
    for kind, idx, lhs, rhs in checks:
        checked += 1
        slack = lhs - rhs
        if slack != slack:
            continue
        worst = max(worst, slack)
        if slack > tol * max(1.0, abs(lhs), abs(rhs)):
            violations.append((kind, idx, lhs, rhs, slack))
    return violations, checked, worst


def _reference_axioms(e):
    e = e.tolist()
    n = len(e)
    checks = [
        ("symmetry", (i, j), abs(e[i][j] - e[j][i]), 0.0) for i, j in combinations(range(n), 2)
    ]
    checks += [("diagonal", (i,), abs(e[i][i]), 0.0) for i in range(n)]
    checks += [("nonnegative", (i, j), -e[i][j], 0.0) for i, j in product(range(n), repeat=2)]
    checks += [
        ("triangle", (x, y, z), e[x][y], e[x][z] + e[z][y])
        for x, y, z in product(range(n), repeat=3)
    ]
    return _reference(checks)


def _ptolemy_checks(e):
    for i, j, k, l in combinations(range(len(e)), 4):
        p1, p2, p3 = e[i][j] * e[k][l], e[i][k] * e[j][l], e[j][k] * e[i][l]
        yield ("ptolemy", (i, j, k, l), 2.0 * _np_max(_np_max(p1, p2), p3), p1 + p2 + p3)


def _reference_ptolemy(e):
    return _reference(_ptolemy_checks(e.tolist()))


def _assert_matches(rep, reference):
    violations, checked, worst = reference
    got = [(v.kind, v.indices, v.lhs, v.rhs, v.slack) for v in rep.violations]
    assert got == violations
    assert rep.checked == checked
    assert rep.worst_slack == worst


def _violating_matrices():
    e = build_distance_matrix(random_cloud(11, 2, seed=91)).entries
    tilde = punctured_matrix(PuncturedSpec(COUNTEREXAMPLE, [0], variant="tilde_tau_p")).entries
    raw = np.random.Generator(np.random.PCG64(92)).uniform(0.0, 1.0, (7, 7))
    return {
        "cubed": e**3,
        "negated": -e,
        "raw-asymmetric": raw,
        "tilde-counterexample": tilde,
        "huge": e**3 * 1e300,
    }


#: Matrices the Ptolemy sweep rejects: it reads one triangle and multiplies
#: entries.
_PTOLEMY_REJECTS = {"raw-asymmetric": "exactly symmetric", "huge": "2\\^500"}


@pytest.mark.parametrize("name", list(_violating_matrices()))
def test_sweeps_match_brute_force(name):
    e = _violating_matrices()[name]
    axioms = check_metric_axioms(e)
    assert not axioms.passed
    _assert_matches(axioms, _reference_axioms(e))
    if name in _PTOLEMY_REJECTS:
        with pytest.raises(InputError, match=_PTOLEMY_REJECTS[name]):
            check_ptolemaic(e)
    else:
        _assert_matches(check_ptolemaic(e), _reference_ptolemy(e))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "neg-inf"])
def test_sweeps_reject_non_finite_entries(bad):
    e = build_distance_matrix(random_cloud(7, 2, seed=91)).entries ** 3
    e[4, 1] = bad
    for check in (check_metric_axioms, check_ptolemaic):
        with pytest.raises(InputError, match="NaN or infinite"):
            check(e)


def test_ptolemy_rejects_entries_whose_products_overflow():
    # d(0,1) d(12,13) = 1e400 would read inf, and the slack inf - inf of
    # quadruple (0, 1, 12, 13) a NaN, which is never a violation
    e = build_distance_matrix(random_cloud(14, 2, seed=91)).entries ** 3
    e[0, 1] = e[1, 0] = e[12, 13] = e[13, 12] = 1e200
    with pytest.raises(InputError, match="2\\^500"):
        check_ptolemaic(e)
    # at the bound every product and sum is finite
    e[0, 1] = e[1, 0] = e[12, 13] = e[13, 12] = 2.0**500
    _assert_matches(check_ptolemaic(e), _reference_ptolemy(e))


#: The 4-point matrix with d(0,1) = d(2,3) = 2 and every other distance 1:
#: 2 * 2 = 4 > 1 * 1 + 1 * 1, so it is not Ptolemaic.
_NON_PTOLEMAIC = np.array([[0, 2, 1, 1], [2, 0, 1, 1], [1, 1, 0, 2], [1, 1, 2, 0]], dtype=float)


def test_ptolemy_rejects_a_scaled_counterexample():
    # scaled by 1e155 every product overflows, and a slack inf - inf is
    # NaN, never a violation
    assert not check_ptolemaic(_NON_PTOLEMAIC).passed
    with pytest.raises(InputError, match="2\\^500"):
        check_ptolemaic(_NON_PTOLEMAIC * 1e155)


def test_ptolemy_rejects_an_asymmetric_array():
    # the upper triangle is all ones, which passes, and the lower one
    # fails, so a sweep of one triangle would pass one of a and a.T
    a = np.ones((4, 4)) - np.eye(4)
    lower = np.tril_indices(4, -1)
    a[lower] = _NON_PTOLEMAIC[lower]
    for m in (a, a.T):
        with pytest.raises(InputError, match="exactly symmetric"):
            check_ptolemaic(m)


def test_ptolemy_sweep_across_steps(monkeypatch):
    e = build_distance_matrix(random_cloud(31, 2, seed=97)).entries ** 3
    # four float64 grids: 32 bytes per entry
    for budget in (delta._STEP_BYTES, 60 * 32):
        monkeypatch.setattr(delta, "_STEP_BYTES", budget)
        groups = {g for j in range(1, 28) for _, g in delta._middle_steps(31, j, 1, 32)}
        assert len(groups) > 2  # full and ragged k groups
        rep = check_ptolemaic(e)
        assert len({v.indices[1] for v in rep.violations}) > 2  # several j tasks
        _assert_matches(rep, _reference_ptolemy(e))


def test_ptolemy_sweep_memory_is_bounded():
    e = build_distance_matrix(random_cloud(200, 2, seed=99)).entries
    tracemalloc.start()
    try:
        rep = check_ptolemaic(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.checked == math.comb(200, 4)
    assert peak < 1.5 * 2**20


def _reference_qp_fails(r, K, tol=DEFAULT_TOL):
    """The failing hypothesis triples of one 4x4 array, one at a time in
    Python floats, with the collector's scale rule."""
    r = r.tolist()
    fails = []
    for i, j, k in product(range(4), repeat=3):
        lhs, rhs = r[i][j], K * (r[i][k] + r[j][k])
        scale = _np_max(1.0, _np_max(abs(lhs), abs(rhs)))
        if not lhs - rhs <= tol * scale:
            fails.append([i, j, k])
    return fails


def _qp_batch(rng, K, tol=DEFAULT_TOL):
    """2,000 4x4 arrays: metric ones, symmetric random ones, rows planted
    just inside and just outside the tolerance (with scale 1 and with
    scale r01), and asymmetric ones with a nonzero diagonal and NaNs."""
    m = build_distance_matrix(random_cloud(20, 2, seed=101)).entries
    quads = rng.integers(0, 20, size=(600, 4))
    metric = m[quads[:, :, None], quads[:, None, :]]
    sym = rng.uniform(0.0, 1.0, (600, 4, 4))
    sym = sym + sym.transpose(0, 2, 1)
    sym[:, range(4), range(4)] = 0.0
    base = np.repeat([10.0, 0.05], 200)  # scale r01, and scale 1
    planted = base[:, None, None] * (np.ones((4, 4)) - np.eye(4))
    rhs = K * (base + base)
    off = np.tile([0.99, 1.01], 200) * tol * np.maximum(1.0, rhs)
    planted[:, 0, 1] = planted[:, 1, 0] = rhs + off
    raw = rng.uniform(0.0, 2.0, (400, 4, 4))
    raw[rng.uniform(size=raw.shape) < 0.02] = np.nan
    return np.concatenate([metric, sym, planted, raw])


@pytest.mark.parametrize("K", [1.0, 1.5])
def test_qp_hypothesis_matches_reference(K):
    batch = _qp_batch(np.random.Generator(np.random.PCG64(103)), K)
    assert batch.shape == (2000, 4, 4)
    ref = [_reference_qp_fails(r, K) for r in batch]
    planted = ref[1200:1600]
    assert all(planted[t] == [] for t in range(0, 400, 2))  # just inside
    outside = [[0, 1, 2], [0, 1, 3], [1, 0, 2], [1, 0, 3]]
    assert all(planted[t] == outside for t in range(1, 400, 2))
    rep = check_quasi_ptolemy_many(batch, K)
    assert rep.meta["hypothesis_skipped"] == sum(1 for f in ref if f)
    assert 0 < rep.meta["hypothesis_skipped"] < 2000
    for r, fails in zip(batch[:1600], ref[:1600]):
        meta = check_quasi_ptolemy(r, K).meta
        assert meta["hypothesis_satisfied"] == (not fails)
        assert meta.get("hypothesis_failures", []) == fails


def test_quasi_ptolemy_runs_its_hypothesis_once(monkeypatch):
    calls = []
    real = verify._qp_hypothesis
    monkeypatch.setattr(verify, "_qp_hypothesis", lambda *a: calls.append(a) or real(*a))
    bad = np.ones((4, 4)) - np.eye(4)
    bad[0, 1] = bad[1, 0] = 5.0
    rep = check_quasi_ptolemy(bad, K=1.0)
    assert rep.meta["hypothesis_failures"] == [[0, 1, 2], [0, 1, 3], [1, 0, 2], [1, 0, 3]]
    assert len(calls) == 1


def test_quasi_ptolemy_rejects_held_entries_past_2_500():
    # r01 r23 = 4e320 would overflow; the hypothesis holds, so it is read
    big = _NON_PTOLEMAIC * 1e160
    with pytest.raises(InputError, match="2\\^500"):
        check_quasi_ptolemy(big, 1.0)
    with pytest.raises(InputError, match="2\\^500"):
        check_quasi_ptolemy_many(np.stack([_NON_PTOLEMAIC, big]), 1.0)
    # a row whose hypothesis fails is skipped, whatever its size
    skipped = big.copy()
    skipped[0, 1] = skipped[1, 0] = 1e170
    rep = check_quasi_ptolemy_many(np.stack([_NON_PTOLEMAIC, skipped]), 1.0)
    assert rep.meta["hypothesis_skipped"] == 1
    assert rep.to_dict() == {
        **check_quasi_ptolemy_many(_NON_PTOLEMAIC[None], 1.0).to_dict(),
        "meta": {"hypothesis_skipped": 1, "hypothesis_checked": 2},
    }


@pytest.mark.parametrize("value", [np.inf, 1.5e308])
def test_quasi_ptolemy_skips_rows_past_the_float_range(value):
    # with r01 = r02 = r12 = inf, inf - inf (a NaN slack) breaks the
    # hypothesis; at 1.5e308 the sum r02 + r12 overflows, which holds
    # (0, 1, 2), and the row fails on (0, 1, 3). Neither warns.
    row = _NON_PTOLEMAIC.copy()
    for i, j in ((0, 1), (0, 2), (1, 2)):
        row[i, j] = row[j, i] = value
    rep = check_quasi_ptolemy_many(np.stack([_NON_PTOLEMAIC, row]), 1.0)
    assert rep.to_dict() == {
        **check_quasi_ptolemy_many(_NON_PTOLEMAIC[None], 1.0).to_dict(),
        "meta": {"hypothesis_skipped": 1, "hypothesis_checked": 2},
    }


def test_quasi_ptolemy_K_rule():
    # 4 K^2 is finite below 2^511; a right side that overflows bounds the left
    for K in (2.0**511, 1e200):
        with pytest.raises(InputError, match="2\\^511"):
            check_quasi_ptolemy_many(np.zeros((1, 4, 4)), K)
    K = np.nextafter(2.0**511, 0.0)
    assert check_quasi_ptolemy_many(np.zeros((1, 4, 4)), K).passed
    rep = check_quasi_ptolemy(2.0 * _NON_PTOLEMAIC, K)
    assert rep.passed and rep.checked == 3


def _reference_quasi_ptolemy(rs, K, tol=DEFAULT_TOL):
    """``check_quasi_ptolemy_many(rs, K).to_dict()`` and the failing
    hypothesis triples over the whole batch at once: every one of the 64
    triples on every array, then each conclusion in Python floats on the
    arrays where all of them hold."""
    held, failing = np.ones(len(rs), dtype=bool), []
    with np.errstate(over="ignore", invalid="ignore"):
        for i, j, k in product(range(4), repeat=3):
            lhs, rhs = rs[:, i, j], K * (rs[:, i, k] + rs[:, j, k])
            ok = lhs - rhs <= tol * np.maximum(1.0, np.maximum(np.abs(lhs), np.abs(rhs)))
            held &= ok
            if not ok.all():
                failing.append([i, j, k])
    rows = np.flatnonzero(held)
    r = rs[rows]
    p1, p2, p3 = r[:, 0, 1] * r[:, 2, 3], r[:, 0, 2] * r[:, 1, 3], r[:, 0, 3] * r[:, 1, 2]
    conclusions = (
        ("quasi_ptolemy_sqrt", np.sqrt(p1), K * (np.sqrt(p2) + np.sqrt(p3))),
        ("quasi_ptolemy_product", p1, 2.0 * K * K * (p2 + p3)),
        ("quasi_ptolemy_max", p1, 4.0 * K * K * np.maximum(p2, p3)),
    )
    checks = [
        (kind, [t], lv, rv)
        for kind, lhs, rhs in conclusions
        for t, lv, rv in zip(rows.tolist(), lhs.tolist(), rhs.tolist())
    ]
    violations, checked, worst = _reference(checks, tol)
    keys = ("kind", "indices", "lhs", "rhs", "slack")
    report = {
        "checked": checked,
        "violations": [dict(zip(keys, v)) for v in violations],
        "tolerance": tol,
        "worst_slack": worst,
        "meta": {"hypothesis_skipped": len(rs) - rows.size, "hypothesis_checked": len(rs)},
    }
    return report, failing


def _qp_blocks(K):
    """Two and a half blocks of the quasi-Ptolemy pass: a regular block
    (finite, nonnegative, symmetric), one with a NaN, an asymmetric, a
    negative, an infinite and a nonzero-diagonal array, and a regular
    ragged block. Each block holds arrays whose hypothesis fails (r01 ten
    times the rest) and arrays that hold it within the tolerance but fail
    two conclusions (r01 = r23 just past 2K times the rest)."""
    B = _CHECK_ELEMENTS // 16
    rng = np.random.Generator(np.random.PCG64(121))
    m = build_distance_matrix(random_cloud(30, 2, seed=122)).entries
    q = rng.integers(0, 30, size=(2 * B + B // 2, 4))
    rs = m[q[:, :, None], q[:, None, :]]
    ones = np.ones((4, 4)) - np.eye(4)
    for lo in (0, B, 2 * B):
        at = lo + rng.choice(B // 2, size=20, replace=False)
        s = rng.uniform(1.0, 10.0, size=20)
        rs[at] = s[:, None, None] * ones
        rs[at[:10], 0, 1] = rs[at[:10], 1, 0] = 10.0 * s[:10]
        long = 2.0 * K * s[10:] * (1.0 + 0.9 * DEFAULT_TOL)
        rs[at[10:], 0, 1] = rs[at[10:], 1, 0] = rs[at[10:], 2, 3] = rs[at[10:], 3, 2] = long
    odd = B + B // 2 + np.arange(5)
    rs[odd[0], 1, 2] = np.nan
    rs[odd[1], 0, 3] += 0.5
    rs[odd[2], 2, 1] = -0.25
    rs[odd[3], 3, 0] = np.inf
    rs[odd[4], 2, 2] = 0.75
    return rs


@pytest.mark.parametrize("K", [1.0, 1.5])
def test_blockwise_quasi_ptolemy_matches_reference(K):
    rs = _qp_blocks(K)
    B = _CHECK_ELEMENTS // 16
    report, failing = _reference_quasi_ptolemy(rs, K)
    kinds = {(v["kind"], v["indices"][0] // B) for v in report["violations"]}
    failed = ("quasi_ptolemy_product", "quasi_ptolemy_max")
    assert kinds == {(kind, b) for kind in failed for b in range(3)}  # in every block
    assert report["meta"]["hypothesis_skipped"] >= 30
    assert check_quasi_ptolemy_many(rs, K).to_dict() == report
    assert verify._quasi_ptolemy(rs, K, DEFAULT_TOL)[1] == failing
    # the (4, 4, N) layout that `verify lemmas` gathers, read through views
    view = np.ascontiguousarray(rs.transpose(1, 2, 0)).transpose(2, 0, 1)
    assert check_quasi_ptolemy_many(view, K).to_dict() == report
    empty = np.zeros((0, 4, 4))
    assert check_quasi_ptolemy_many(empty, K).to_dict() == _reference_quasi_ptolemy(empty, K)[0]


def test_quasi_ptolemy_memory_is_bounded():
    # the batch is 12.8 MB; the pass holds one (16, B) block of
    # _CHECK_ELEMENTS entries (2 MiB) and the block's temporaries
    m = build_distance_matrix(random_cloud(50, 2, seed=123)).entries
    q = np.random.Generator(np.random.PCG64(124)).integers(0, 50, size=(100000, 4))
    rs = m[q[:, :, None], q[:, None, :]]
    rs[::7, 0, 1] = rs[::7, 1, 0] = 100.0  # the conclusions gather held rows
    tracemalloc.start()
    try:
        rep = check_quasi_ptolemy_many(rs, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.meta == {"hypothesis_skipped": 14286, "hypothesis_checked": 100000}
    assert peak < 3 * _CHECK_ELEMENTS * 8


def _brute_triangle(e):
    """Every slack d(x,y) - (d(x,z) + d(z,y)), as an (x, y, z) array."""
    return e[:, :, None] - (e[:, None, :] + e.T[None, :, :])


@pytest.mark.parametrize("scale", [1.0, 2.0**400, 2.0**-400])
@pytest.mark.parametrize("kind", ["line", "plane", "log1p"])
def test_triangle_sweep_worst_slack_is_the_brute_force_maximum(kind, scale):
    # on a line, rounding leaves slacks just above 0; the sweep reads each
    # block's largest as d(x,y) - min over z of d(x,z) + d(z,y)
    n = 70
    pts = random_cloud(n, 2, seed=125).points
    if kind == "line":
        pts = pts[:, :1] * [1.0, 2.0]
    e = build_distance_matrix(PointCloud(pts)).entries
    e = (np.log1p(e) if kind == "log1p" else e) * scale
    rep = check_metric_axioms(e)
    assert rep.passed
    worst = float(_brute_triangle(e).max())
    assert rep.worst_slack.hex() == worst.hex()
    assert (worst > 0.0) == (kind == "line")


def test_triangle_sweep_lists_a_violation_in_the_last_block():
    n = 70
    rows = _CHECK_ELEMENTS // (n * n)
    assert rows < 60 and 65 < n
    e = build_distance_matrix(random_cloud(n, 2, seed=126)).entries.copy()
    e[60, 65] = e[65, 60] = 5.0
    rep = check_metric_axioms(e)
    assert {v.indices[:2] for v in rep.violations} == {(60, 65), (65, 60)}
    assert rep.worst_slack == float(_brute_triangle(e).max())
    _assert_matches(rep, _reference_axioms(e))


def test_triangle_sweep_across_blocks():
    n = 70
    rows = _CHECK_ELEMENTS // (n * n)
    assert 0 < rows < n and n % rows  # one full block and one ragged block
    e = build_distance_matrix(random_cloud(n, 2, seed=93)).entries.copy()
    for x, y in ((3, 9), (n - 2, n - 5)):  # one planted violation per block
        e[x, y] = e[y, x] = 5.0
    rep = check_metric_axioms(e)
    kinds_rows = {(v.kind, v.indices[0]) for v in rep.violations}
    assert {("triangle", 3), ("triangle", n - 2)} <= kinds_rows
    _assert_matches(rep, _reference_axioms(e))


def test_triangle_sweep_memory_is_bounded():
    e = build_distance_matrix(random_cloud(300, 2, seed=95)).entries
    tracemalloc.start()
    try:
        rep = check_metric_axioms(e)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed and rep.checked == 300**3 + 300**2 + 300 * 299 // 2 + 300
    assert peak < 16 * 2**20


def _symmetric_matrices():
    e = build_distance_matrix(random_cloud(70, 2, seed=111)).entries  # two blocks
    avg = punctured_matrix(PuncturedSpec(random_cloud(30, 2, seed=112), [[2.0, 2.0]], "avg_tau"))
    neg_zero = e.copy()
    neg_zero[e == 0.0] = -0.0  # bitwise symmetric, -0.0 diagonal
    pts = random_cloud(20, 2, seed=113).points
    dup = PointCloud(pts[[0, 1, 2, 3, 1, *range(5, 20)]])  # points 1 and 4 coincide
    mixed_zero = build_distance_matrix(dup).entries.copy()
    mixed_zero[4, 1] = -0.0  # equal to d(1, 4) = 0.0, but not the same bits
    via = np.delete(e[3] + e[9], [3, 9]).min()
    near, far = e.copy(), e.copy()
    near[3, 9] = near[9, 3] = via * (1 + 1e-12)  # a positive slack within the tolerance
    far[3, 9] = far[9, 3] = via * (1 + 1e-6)  # a violation
    return {
        "euclidean": e,
        "avg-tau": avg.entries,
        "neg-zero": neg_zero,
        "mixed-zero": mixed_zero,
        "zeros": np.zeros((5, 5)),
        "huge": np.where(e > 0.0, 1.7e308, 0.0),
        "near-tolerance": near,
        "one-point": np.zeros((1, 1)),
        "violated": far,
    }


@pytest.mark.parametrize("name", list(_symmetric_matrices()))
def test_half_triangle_sweep_matches_full_sweep(name):
    """On a bitwise symmetric matrix the triangle sweep evaluates only
    y >= x0 in a block from x0 until some block can fail; the report must
    still be the brute-force sweep over all n^3 ordered triples."""
    e = _symmetric_matrices()[name]
    rep = check_metric_axioms(e)
    assert rep.passed == (name != "violated")
    _assert_matches(rep, _reference_axioms(e))


def test_half_triangle_sweep_matches_brute_force():
    # a slack just below the tolerance: the sweep stays on half the triples
    e = _symmetric_matrices()["near-tolerance"]
    rep = check_metric_axioms(e)
    assert rep.passed and rep.worst_slack > 0.0
    _assert_matches(rep, _reference_axioms(e))


def test_triangle_sweep_finds_mirror_across_blocks():
    # d(3, 60) is too long: the block of x = 3 fails at (3, 60, z), so the
    # block of x = 60 must also evaluate y = 3 < 60 for the mirror (60, 3, z)
    n = 70
    rows = _CHECK_ELEMENTS // (n * n)
    assert 3 < rows <= 60
    e = build_distance_matrix(random_cloud(n, 2, seed=93)).entries.copy()
    e[3, 60] = e[60, 3] = 5.0
    rep = check_metric_axioms(e)
    found = {v.indices[:2] for v in rep.violations if v.kind == "triangle"}
    assert found == {(3, 60), (60, 3)}
    _assert_matches(rep, _reference_axioms(e))


@pytest.mark.parametrize("upper", [0.0, -0.0], ids=["pos-upper", "neg-upper"])
def test_sweeps_read_signed_zeros_from_the_upper_triangle(upper):
    # points 1 and 4 coincide; d(1, 4) and d(4, 1) are zeros of opposite sign
    pts = random_cloud(9, 2, seed=117).points
    e = build_distance_matrix(PointCloud(pts[[0, 1, 2, 3, 1, 5, 6, 7, 8]])).entries.copy()
    e[1, 4], e[4, 1] = upper, -upper
    mirrored = e.copy()
    mirrored[4, 1] = upper
    rep, ref = delta.exact_delta(e), delta.exact_delta(mirrored)
    assert (rep.delta, rep.witness) == (ref.delta, ref.witness)
    assert (rep.delta, rep.witness) == (0.19615980247957765, (2, 5, 6, 7))
    ptolemy = check_ptolemaic(e)
    assert ptolemy.passed and ptolemy.checked == math.comb(9, 4)
    assert repr(ptolemy.to_dict()) == repr(check_ptolemaic(mirrored).to_dict())
    _assert_matches(ptolemy, _reference_ptolemy(e))


def _lemma_reports(e, samples):
    n = e.shape[0]
    P = list(range(min(4, n - 1)))
    return {
        "mu_bounds": check_mu_bounds(e, 0, min(1, n - 1), samples, 5),
        "mu_bounds_pp": check_mu_bounds(e, n - 1, None, samples, 5),
        "nine": check_lemma_nine(e, 0, samples, 5),
        "K": check_lemma_K(e, 0, 4.0, samples, 5),
        "product": check_product_lemma(e, P, samples, 5),
        "quasi_triangle": check_mu_P_quasi_triangle(e, P[::-1], samples, samples // 3, 5),
    }


@pytest.mark.parametrize("n, samples", [(4, 20), (12, 500), (64, 3000), (300, 500)])
def test_mu_table_matches_rows(n, samples, monkeypatch):
    pts = random_cloud(n, 2, seed=114).points
    e = build_distance_matrix(PointCloud(pts[[0, 1, 2, 2, *range(4, n)]])).entries  # a duplicate
    natural = {k: repr(r.to_dict()) for k, r in _lemma_reports(e, samples).items()}
    lookup = verify._mu_lookup
    for count in (0, math.inf):  # every checker on rows, then on tables
        forced = lambda e, P, log, _, c=count: lookup(e, P, log, c)  # noqa: E731
        monkeypatch.setattr(verify, "_mu_lookup", forced)
        assert {k: repr(r.to_dict()) for k, r in _lemma_reports(e, samples).items()} == natural


def _reference_product_lemma(e, P, samples, seed):
    """``check_product_lemma`` with mu_i gathered inline and log mu_P
    evaluated apart from it."""
    t = verify._sample_tuples(e.shape[0], 3, samples, seed, tuple(P[:2]))
    x, y, z = t[:, 0], t[:, 1], t[:, 2]
    gz = e[z[:, None], P]
    a = cassinian._mu(e[x, z][:, None], e[x[:, None], P], gz)
    b = cassinian._mu(e[y, z][:, None], e[y[:, None], P], gz)
    with np.errstate(divide="ignore"):
        lhs = np.log(a + b).sum(axis=1)
        log_mu_P = [
            np.log(cassinian._mu(e[u, z][:, None], e[u[:, None], P], e[z[:, None], P])).sum(axis=1)
            for u in (x, y)
        ]
    col = verify._Collector(DEFAULT_TOL)
    rhs = len(P) * math.log(9.0) + np.logaddexp(*log_mu_P)
    col.compare("mu_product_split", (x, y, z), lhs, rhs)
    return col.report(k=len(P), seed=seed, log_domain=True)


@pytest.mark.parametrize("n", [12, 64, 300])  # mu tables at 12 and 64, rows at 300
def test_product_lemma_reads_each_mu_once(n, monkeypatch):
    pts = random_cloud(n, 2, seed=115).points
    e = build_distance_matrix(PointCloud(pts[[0, 1, 2, 2, *range(4, n)]])).entries  # a duplicate
    calls = {"_mu_lookup": 0, "_mu_rows": 0, "_mu": 0}

    def counted(name, real):
        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(verify, name, counted(name, getattr(verify, name)))
    for P in ([0], [0, 1, 2, 3], [5, 2, 0]):
        calls.update(dict.fromkeys(calls, 0))
        rep = check_product_lemma(e, P, 3000, 7)
        # one lookup, and every mu evaluated inside it
        assert calls["_mu_lookup"] == 1 and calls["_mu"] == calls["_mu_rows"] > 0
        assert repr(rep.to_dict()) == repr(_reference_product_lemma(e, P, 3000, 7).to_dict())


@pytest.mark.parametrize("kind", ["tau", "avg"])
def test_sandwich_materializes_its_spec_once(monkeypatch, kind):
    calls = []
    real = cassinian._materialize
    monkeypatch.setattr(cassinian, "_materialize", lambda spec: calls.append(spec) or real(spec))
    cloud = random_cloud(12, 2, seed=4)
    spec = PuncturedSpec(cloud, [[2.0, 2.0], [-1.0, 0.5]], "avg_tau", anchor=1)
    assert check_sandwich(kind, spec).passed
    assert len(calls) == 1
    if kind == "tau":  # a one-point side over k > 1 punctures still needs an anchor
        with pytest.raises(InputError, match="needs an anchor"):
            check_sandwich(kind, PuncturedSpec(cloud, [[2.0, 2.0], [-1.0, 0.5]], "avg_tau"))

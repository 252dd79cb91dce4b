import math

import numpy as np
import pytest

from hypmetrics import (
    InputError,
    arctan_family,
    four_point_counterexample,
    hyperbolicity_sweep,
)
from hypmetrics import DistanceMatrix, PointCloud, PuncturedSpec, cassinian, punctured_matrix
from hypmetrics.cassinian import VARIANTS, _punctured_matrices
from hypmetrics.scenarios import ARCTAN_T_MAX, _place_punctures


def test_four_point_counterexample_passes():
    res = four_point_counterexample()
    assert res.passed
    assert res.measured["tilde_triangle_violations"] == [[1, 2, 0], [2, 1, 0]]
    # log 3 - 2 log(1 + 1/sqrt 2), frozen from direct arithmetic
    assert res.measured["tilde_violation_slack"] == pytest.approx(
        0.029012295188969084, abs=1e-9
    )
    # the base 4-point space also fails Ptolemy (4 > 1 + 1), recorded but
    # not asserted as a bound
    assert res.measured["base_ptolemy_violations"] == 1


def test_four_point_result_table():
    res = four_point_counterexample()
    table = res.format_table()
    assert "PASS" in table
    assert "tilde_violation_slack_matches" in table


def test_arctan_family_closed_forms():
    res = arctan_family(t_grid=(1.0, 10.0, ARCTAN_T_MAX), samples=5000, cloud_n=60, seed=3)
    assert ARCTAN_T_MAX == 1e7
    assert res.passed
    per_t = res.measured["corner_deltas"]
    assert per_t[repr(1.0)]["d1"] == pytest.approx(math.atan(1.0), abs=1e-12)
    assert per_t[repr(10.0)]["d1+d2"] == pytest.approx(10.0 + math.atan(10.0), abs=1e-12)
    assert res.measured["sampled_d1"]["delta"] <= math.pi / 2.0 + 1e-9


def test_arctan_family_rejects_bad_t():
    with pytest.raises(InputError):
        arctan_family(t_grid=(0.0, 1.0))
    with pytest.raises(InputError):
        arctan_family(t_grid=(-2.0,))
    with pytest.raises(InputError, match="at most 1e\\+07"):
        arctan_family(t_grid=(1.0, 1e8))
    # a NaN t had reached the corner cloud, and a zero tolerance had passed
    with pytest.raises(InputError, match="^corner-family parameters t must be positive$"):
        arctan_family(t_grid=[math.nan])
    with pytest.raises(InputError, match="^tolerance must be positive and finite"):
        arctan_family(t_grid=(1.0,), samples=50, cloud_n=8, tol=0.0)


def test_sweep_small_config():
    res = hyperbolicity_sweep(n=10, k_list=(1, 3), trials=2, seed=7)
    assert res.passed
    md = res.measured["max_delta"]
    assert set(md) == {"avg_tau", "tilde_avg_tau", "sup_tau"}
    assert set(md["avg_tau"]) == {"1", "3"}
    assert res.measured["asserted_bound_avg_tau"] == pytest.approx(
        3.0 * math.log(3.0) + math.log(2.0)
    )
    assert res.measured["alternate_published_bound_avg_tau"] == pytest.approx(
        3.0 * math.log(3.0) + 2.0 * math.log(2.0)
    )


def test_sweep_minimum_cloud():
    res = hyperbolicity_sweep(n=4, k_list=(1,), trials=1, seed=11)
    assert res.passed


def test_sweep_validation():
    with pytest.raises(InputError):
        hyperbolicity_sweep(n=3, k_list=(1,), trials=1)
    with pytest.raises(InputError):
        hyperbolicity_sweep(n=10, k_list=(0,), trials=1)
    # each of these had raised a bare numpy or builtin error, or run the
    # sweep and then reported FAIL
    for kwargs, message in [
        ({"trials": 2.5}, "trials must be an integer, got 2.5"),
        ({"seed": -1}, "need seed >= 0, got -1"),
        ({"k_list": ()}, "need at least one puncture count k"),
        ({"k_list": (1, 2.0)}, "puncture count k must be an integer, got 2.0"),
        ({"tol": math.nan}, "tolerance must be positive and finite, got nan"),
        ({"tol": -1.0}, "tolerance must be positive and finite, got -1.0"),
    ]:
        with pytest.raises(InputError, match=f"^{message}$"):
            hyperbolicity_sweep(**{"n": 5, "k_list": (1,), "trials": 1, **kwargs})


def test_sweep_reproducible():
    a = hyperbolicity_sweep(n=8, k_list=(1,), trials=2, seed=13)
    b = hyperbolicity_sweep(n=8, k_list=(1,), trials=2, seed=13)
    assert a.to_dict() == b.to_dict()


def test_scenario_json_shape():
    res = four_point_counterexample()
    d = res.to_dict()
    assert set(d) == {"scenario", "config", "measured", "bounds", "passed"}
    assert all(set(b) == {"name", "measured", "bound", "relation", "ok"} for b in d["bounds"])


def test_sweep_computes_base_distances_once_per_trial(monkeypatch):
    # one distance source per trial, which every cell of the trial reads
    calls = []
    real = cassinian._materialize
    monkeypatch.setattr(cassinian, "_materialize", lambda spec: calls.append(spec) or real(spec))
    hyperbolicity_sweep(n=8, k_list=(1, 2, 4), trials=3, seed=5)
    assert len(calls) == 3


def test_sweep_takes_one_root_per_puncture(monkeypatch):
    # 3 trials of 4 punctures: every (variant, k) cell of a trial shares
    # each puncture's root, where folding each cell on its own took
    # 3 variants x (1 + 2 + 4) = 21 per trial
    calls = []
    real = cassinian._root
    monkeypatch.setattr(cassinian, "_root", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    hyperbolicity_sweep(n=8, k_list=(1, 2, 4), trials=3)
    assert len(calls) == 12


def test_sweep_builds_no_distance_matrix(monkeypatch):
    # the walk's arrays go to exact_deltas as they are, and its
    # _kernel_entries is their one finiteness and symmetry check
    calls = []
    real = DistanceMatrix.__init__
    monkeypatch.setattr(DistanceMatrix, "__init__", lambda *a: calls.append(a) or real(*a))
    hyperbolicity_sweep(n=8, k_list=(1, 2), trials=3)
    assert calls == []


@pytest.mark.parametrize("metric", ["euclidean", "taxicab"])
def test_sweep_cells_equal_their_own_specs(metric):
    # Coordinate punctures keep the whole cloud as the domain, so the first
    # k gap columns are the k-puncture spec's: equal bit for bit.
    rng = np.random.Generator(np.random.PCG64(11))
    pts = rng.uniform(0.0, 1.0, size=(12, 2))
    punctures = _place_punctures(rng, pts, 8)
    cloud = PointCloud(pts)
    cells = [(v, k) for k in (1, 2, 4, 8) for v in VARIANTS]
    spec = PuncturedSpec(cloud, punctures, "avg_tau", anchor=0, metric=metric)
    for (v, k), got in zip(cells, _punctured_matrices(spec, cells)):
        want = punctured_matrix(PuncturedSpec(cloud, punctures[:k], v, anchor=0, metric=metric))
        assert np.array_equal(got.view(np.uint64), want.entries.view(np.uint64)), (v, k)

import math

import pytest

from hypmetrics import (
    InputError,
    arctan_family,
    four_point_counterexample,
    hyperbolicity_sweep,
)
from hypmetrics.scenarios import ARCTAN_T_MAX


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


def test_sweep_reproducible():
    a = hyperbolicity_sweep(n=8, k_list=(1,), trials=2, seed=13)
    b = hyperbolicity_sweep(n=8, k_list=(1,), trials=2, seed=13)
    assert a.to_dict() == b.to_dict()


def test_scenario_json_shape():
    res = four_point_counterexample()
    d = res.to_dict()
    assert set(d) == {"scenario", "config", "measured", "bounds", "passed"}
    assert all(set(b) == {"name", "measured", "bound", "relation", "ok"} for b in d["bounds"])

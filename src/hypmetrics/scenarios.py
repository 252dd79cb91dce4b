"""Self-contained reproduction scenarios.

Three named scenarios exercise the headline facts end to end:

* ``four_point_counterexample`` -- the 4-point space where tilde_tau_p
  breaks the triangle inequality while tau_p does not.
* ``arctan_family`` -- the planar metrics d1 and d2 are delta-hyperbolic
  with delta = pi/2, but their sum is not: on the corner quadruple
  (0,0), (t,t), (0,t), (t,0) the measured delta grows like t.
* ``hyperbolicity_sweep`` -- seeded random Euclidean clouds with puncture
  sets of several sizes k; the measured four-point delta of every variant
  stays under its constant, independently of k.

Scenario inputs are fully seeded, so each result is reproducible
bit-for-bit from its recorded config.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import cycle

import numpy as np

from .cassinian import (
    LOG2,
    ONE_POINT_VARIANTS,
    PuncturedSpec,
    _punctured_matrices,
)
from .delta import _chunk_size, exact_deltas, quadruple_delta, sampled_delta
from .errors import InputError
from .spaces import DistanceMatrix, PointCloud, _norms, build_distance_matrix, random_cloud
from .verify import DEFAULT_TOL, _allowance, check_metric_axioms, check_ptolemaic

LOG3 = math.log(3.0)

#: Four-point constants the sweep asserts, per variant.
ONE_POINT_TILDE_BOUND = LOG3
ONE_POINT_TAU_BOUND = LOG3 + LOG2
AVG_TILDE_BOUND = 3.0 * LOG3
AVG_TAU_BOUND = 3.0 * LOG3 + LOG2
#: Looser constant also in circulation for the averaged variant; recorded in
#: reports for comparison, never asserted.
AVG_TAU_BOUND_ALT = 3.0 * LOG3 + 2.0 * LOG2
#: Variants the sweep measures at every puncture count k.
_SWEEP_VARIANTS = ("avg_tau", "tilde_avg_tau", "sup_tau")
#: Each asserted variant: the sweep variant whose matrices it is read from,
#: and its constant. A one-point variant is read at k = 1, where its average
#: equals it bit for bit.
_SWEEP_BOUNDS = {
    "avg_tau": ("avg_tau", AVG_TAU_BOUND),
    "tilde_avg_tau": ("tilde_avg_tau", AVG_TILDE_BOUND),
    "tau_p": ("avg_tau", ONE_POINT_TAU_BOUND),
    "tilde_tau_p": ("tilde_avg_tau", ONE_POINT_TILDE_BOUND),
}
#: Largest corner-family parameter t. The corner deltas come from
#: four-point sums of size about t, so they carry a rounding error of up to
#: about t * 2^-52, and the arctan closed forms are compared at the fixed
#: tolerance 1e-9: the deviation is 2.9e-10 at t = 1e7 but 5.9e-9 at 1e8,
#: a false failure on correct code.
ARCTAN_T_MAX = 1e7


@dataclass
class BoundCheck:
    name: str
    measured: float
    bound: float
    ok: bool
    relation: str = "<="

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "measured": self.measured,
            "bound": self.bound,
            "relation": self.relation,
            "ok": self.ok,
        }


@dataclass
class ScenarioResult:
    scenario: str
    config: dict
    measured: dict
    bounds: list[BoundCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(b.ok for b in self.bounds)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "config": self.config,
            "measured": self.measured,
            "bounds": [b.to_dict() for b in self.bounds],
            "passed": self.passed,
        }

    def format_table(self) -> str:
        lines = [f"scenario: {self.scenario}"]
        for b in self.bounds:
            mark = "ok " if b.ok else "FAIL"
            lines.append(
                f"  [{mark}] {b.name:<42} {b.measured:.12g} {b.relation} {b.bound:.12g}"
            )
        lines.append(f"  => {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(lines)


def _bound(name: str, measured: float, bound: float, tol: float) -> BoundCheck:
    ok = bool(measured <= bound + _allowance(measured, bound, tol))
    return BoundCheck(name, float(measured), float(bound), ok)


def _close(name: str, measured: float, expected: float, tol: float) -> BoundCheck:
    ok = abs(measured - expected) <= tol * max(1.0, abs(expected))
    # stored as measured-vs-bound with the deviation in `measured`
    return BoundCheck(name, float(abs(measured - expected)), float(tol), ok)


def four_point_counterexample(tol: float = DEFAULT_TOL) -> ScenarioResult:
    """The 4-point space {p, x, y, z} with d(p,x) = d(y,z) = 2 and all other
    off-diagonal distances 1.

    The base is a metric; over the puncture p the tilde variant violates
    the triangle inequality exactly at the (y, z; x) triple with slack
    log 3 - 2 log(1 + 1/sqrt(2)), while tau_p stays a metric.
    """
    base = DistanceMatrix(
        [
            [0.0, 2.0, 1.0, 1.0],
            [2.0, 0.0, 1.0, 1.0],
            [1.0, 1.0, 0.0, 2.0],
            [1.0, 1.0, 2.0, 0.0],
        ]
    )
    base_axioms = check_metric_axioms(base, tol)

    spec = PuncturedSpec(base, [0], variant="tilde_tau_p", anchor=0)
    tilde, tau = _punctured_matrices(spec, [("tilde_tau_p", 1), ("tau_p", 1)])
    tilde_axioms = check_metric_axioms(tilde, tol)
    tau_axioms = check_metric_axioms(tau, tol)
    base_ptolemy = check_ptolemaic(base, tol)

    # Domain order after removing p: [x, y, z] = indices 0, 1, 2.
    violating = sorted(v.indices for v in tilde_axioms.violations)
    expected_family = [(1, 2, 0), (2, 1, 0)]
    slack = float(tilde[1, 2] - tilde[0, 1] - tilde[0, 2])
    expected_slack = math.log(3.0) - 2.0 * math.log(1.0 + 1.0 / math.sqrt(2.0))

    bounds = [
        BoundCheck("base_matrix_is_metric", float(len(base_axioms.violations)), 0.0, base_axioms.passed),
        BoundCheck("tau_p_is_metric", float(len(tau_axioms.violations)), 0.0, tau_axioms.passed),
        BoundCheck(
            "tilde_violates_at_yzx_family",
            float(len(violating)),
            2.0,
            violating == expected_family,
            "==",
        ),
        _close("tilde_violation_slack_matches", slack, expected_slack, 1e-6),
    ]
    measured = {
        "tilde_triangle_violations": [list(i) for i in violating],
        "tilde_violation_slack": slack,
        "expected_violation_slack": expected_slack,
        "tau_triangle_worst_slack": tau_axioms.worst_slack,
        "base_ptolemy_violations": len(base_ptolemy.violations),
    }
    config = {"tolerance": tol, "slack_match_tolerance": 1e-6}
    return ScenarioResult("four-point", config, measured, bounds)


def arctan_family(
    t_grid=(1.0, 10.0, 100.0),
    samples: int = 100000,
    cloud_n: int = 250,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ScenarioResult:
    """Hyperbolicity dichotomy for the arctan-split metrics.

    On the corner quadruple (0,0), (t,t), (0,t), (t,0) the measured delta
    is arctan(t) under d1 and d2 (closed form, stays below pi/2) and
    t + arctan(t) under d1 + d2 (grows without bound). A seeded planar
    cloud sampled under d1 confirms the pi/2 ceiling away from the corner
    family. Parameters t above ``ARCTAN_T_MAX`` are rejected.
    """
    t_grid = [float(t) for t in t_grid]
    if any(t <= 0.0 for t in t_grid):
        raise InputError("corner-family parameters t must be positive")
    if any(t > ARCTAN_T_MAX for t in t_grid):
        raise InputError(
            f"corner-family parameters t must be at most {ARCTAN_T_MAX:g}: beyond it"
            " rounding error exceeds the 1e-9 closed-form tolerance"
        )
    bounds: list[BoundCheck] = []
    per_t = {}
    for t in t_grid:
        corners = PointCloud([[0.0, 0.0], [t, t], [0.0, t], [t, 0.0]])
        d1 = build_distance_matrix(corners, "d1")
        d2 = build_distance_matrix(corners, "d2")
        dsum = build_distance_matrix(corners, "d1+d2")
        m1 = quadruple_delta(d1, 0, 1, 2, 3)
        m2 = quadruple_delta(d2, 0, 1, 2, 3)
        ms = quadruple_delta(dsum, 0, 1, 2, 3)
        per_t[repr(t)] = {"d1": m1, "d2": m2, "d1+d2": ms}
        bounds.append(_close(f"d1_delta_is_arctan_t (t={t:g})", m1, math.atan(t), 1e-9))
        bounds.append(_close(f"d2_delta_is_arctan_t (t={t:g})", m2, math.atan(t), 1e-9))
        bounds.append(
            _close(f"sum_delta_is_t_plus_arctan_t (t={t:g})", ms, t + math.atan(t), 1e-9)
        )
        bounds.append(_bound(f"d1_delta_below_half_pi (t={t:g})", m1, math.pi / 2.0, tol))
        bounds.append(_bound(f"d2_delta_below_half_pi (t={t:g})", m2, math.pi / 2.0, tol))
        # unbounded growth: the sum's delta dominates t itself
        bounds.append(
            BoundCheck(f"sum_delta_reaches_t (t={t:g})", ms, float(t), ms >= float(t), ">=")
        )

    cloud_matrix = build_distance_matrix(random_cloud(cloud_n, 2, seed, 0.0, 50.0), "d1")
    sampled = sampled_delta(cloud_matrix, samples=samples, seed=seed)
    bounds.append(
        _bound("d1_sampled_delta_below_half_pi", sampled.delta, math.pi / 2.0, tol)
    )

    measured = {
        "corner_deltas": per_t,
        "sampled_d1": sampled.to_dict(),
    }
    config = {
        "t_grid": t_grid,
        "samples": samples,
        "cloud_n": cloud_n,
        "seed": seed,
        "tolerance": tol,
    }
    result = ScenarioResult("arctan", config, measured, bounds)
    result.measured["sampled_d1"].pop("elapsed_ms", None)
    return result


def _place_punctures(
    rng: np.random.Generator, pts: np.ndarray, k: int, min_gap: float = 1e-3
) -> np.ndarray:
    """Seeded puncture locations in the unit square, re-drawn until at least
    ``min_gap`` from every cloud point and every earlier puncture."""
    placed: list[np.ndarray] = []
    while len(placed) < k:
        cand = rng.uniform(0.0, 1.0, size=pts.shape[1])
        ref = np.vstack([pts] + [p[None, :] for p in placed]) if placed else pts
        if _norms(ref - cand, "euclidean").min() >= min_gap:
            placed.append(cand)
    return np.array(placed)


def hyperbolicity_sweep(
    n: int = 40,
    k_list=(1, 2, 4, 8),
    trials: int = 30,
    seed: int = 0,
    tol: float = DEFAULT_TOL,
) -> ScenarioResult:
    """Delta bounds for the punctured variants over seeded random clouds.

    For every trial and every k the exact four-point delta of the averaged
    variants must stay under its constant -- the same constant for every k.
    The one-point variants are checked on the k = 1 averages, which equal
    them, and the supremum variant is measured for reporting only (no bound
    is asserted for it).
    """
    k_list = [int(k) for k in k_list]
    if trials < 1:
        raise InputError(f"need trials >= 1, got {trials}")
    if min(k_list) < 1:
        raise InputError("puncture counts must be >= 1")
    if n < 4:
        raise InputError("need clouds of at least 4 points")
    seeds = np.random.SeedSequence(seed).generate_state(trials, dtype=np.uint64)

    worst = dict.fromkeys([(v, k) for k in k_list for v in _SWEEP_VARIANTS], -math.inf)
    cells = list(worst)  # a k listed twice is measured once
    # one exact_deltas call takes as many trials as fill one kernel chunk
    per_call = max(1, _chunk_size(n) // len(cells))
    for first in range(0, trials, per_call):
        matrices = []
        for trial in range(first, min(first + per_call, trials)):
            rng = np.random.Generator(np.random.PCG64(int(seeds[trial])))
            pts = rng.uniform(0.0, 1.0, size=(n, 2))
            punctures = _place_punctures(rng, pts, max(k_list))
            spec = PuncturedSpec(PointCloud(pts), punctures, "avg_tau")  # the cells name the variants
            matrices += _punctured_matrices(spec, cells)
        for cell, rep in zip(cycle(cells), exact_deltas(matrices)):
            worst[cell] = max(worst[cell], rep.delta)

    def asserted(variant: str, k: int) -> BoundCheck:
        source, bound = _SWEEP_BOUNDS[variant]
        return _bound(f"{variant}_delta_bound (k={k})", worst[source, k], bound, tol)

    one_point = ONE_POINT_VARIANTS if 1 in k_list else ()
    uniform = max(worst["avg_tau", k] for k in k_list)
    bounds = [asserted(v, k) for k in k_list for v in ("avg_tau", "tilde_avg_tau")]
    bounds.append(_bound("avg_tau_delta_bound_uniform_in_k", uniform, AVG_TAU_BOUND, tol))
    bounds += [asserted(v, 1) for v in one_point]

    measured = {
        "max_delta": {v: {str(k): worst[v, k] for k in k_list} for v in _SWEEP_VARIANTS},
        "one_point_max_delta": {v: worst[_SWEEP_BOUNDS[v][0], 1] for v in one_point},
        "asserted_bound_avg_tau": AVG_TAU_BOUND,
        "alternate_published_bound_avg_tau": AVG_TAU_BOUND_ALT,
    }
    config = {
        "n": n,
        "k_list": k_list,
        "trials": trials,
        "seed": seed,
        "tolerance": tol,
        "puncture_min_gap": 1e-3,
    }
    return ScenarioResult("sweep", config, measured, bounds)

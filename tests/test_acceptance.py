"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line
(run with ``pytest tests/test_acceptance.py -s`` to see them live). All
seeds are fixed at module level; every numeric tolerance is pinned in the
test body.

The parallel-speedup half of the performance criterion needs at least four
real cores; on fewer it fails honestly rather than being skipped or
loosened.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from hypmetrics import (
    PointCloud,
    PuncturedSpec,
    arctan_family,
    build_distance_matrix,
    check_lemma_K,
    check_lemma_nine,
    check_metric_axioms,
    check_mu_P_quasi_triangle,
    check_mu_bounds,
    check_product_lemma,
    check_ptolemaic,
    check_quasi_ptolemy_many,
    check_sandwich,
    exact_delta,
    four_point_counterexample,
    punctured_matrix,
    random_cloud,
)
from hypmetrics.scenarios import _place_punctures

ACCEPT_SEED = 202608
LOG2 = math.log(2.0)
LOG3 = math.log(3.0)
TOL = 1e-9

REPO = Path(__file__).resolve().parents[1]


def _report(num, label, failures, detail=""):
    ok = not failures
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {label}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line + " :: " + "; ".join(failures[:5])


@pytest.fixture(scope="module")
def trials():
    """30 seeded clouds (n=40, dim 2) with 8 candidate punctures each."""
    seeds = np.random.SeedSequence(ACCEPT_SEED).generate_state(30, dtype=np.uint64)
    out = []
    for s in seeds:
        rng = np.random.Generator(np.random.PCG64(int(s)))
        pts = rng.uniform(0.0, 1.0, size=(40, 2))
        punctures = _place_punctures(rng, pts, 8)
        out.append((PointCloud(pts), punctures))
    return out


def test_criterion_1_one_point_bounds(trials):
    t0 = time.perf_counter()
    failures = []
    worst_tilde = worst_tau = -math.inf
    for idx, (cloud, punctures) in enumerate(trials):
        spec = PuncturedSpec(cloud, punctures[:1], variant="tilde_tau_p")
        d_tilde = exact_delta(punctured_matrix(spec)).delta
        d_tau = exact_delta(punctured_matrix(spec.with_variant("tau_p"))).delta
        worst_tilde = max(worst_tilde, d_tilde)
        worst_tau = max(worst_tau, d_tau)
        if d_tilde > LOG3 + TOL:
            failures.append(f"trial {idx}: tilde delta {d_tilde} > log3")
        if d_tau > LOG3 + LOG2 + TOL:
            failures.append(f"trial {idx}: tau delta {d_tau} > log3+log2")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(
        1,
        "one-point delta bounds over 30 seeded clouds",
        failures,
        f"max tilde {worst_tilde:.6f} <= {LOG3:.6f}, max tau {worst_tau:.6f} <= "
        f"{LOG3 + LOG2:.6f}, {elapsed:.1f}s",
    )


def test_criterion_2_average_bounds_k_independent(trials):
    t0 = time.perf_counter()
    failures = []
    per_k_avg = {}
    per_k_tilde = {}
    for k in (1, 2, 4, 8):
        worst_avg = worst_tilde = -math.inf
        for idx, (cloud, punctures) in enumerate(trials):
            spec = PuncturedSpec(cloud, punctures[:k], variant="avg_tau")
            d_avg = exact_delta(punctured_matrix(spec)).delta
            d_tilde = exact_delta(punctured_matrix(spec.with_variant("tilde_avg_tau"))).delta
            worst_avg = max(worst_avg, d_avg)
            worst_tilde = max(worst_tilde, d_tilde)
            if d_avg > 3 * LOG3 + LOG2 + TOL:
                failures.append(f"trial {idx} k={k}: avg delta {d_avg}")
            if d_tilde > 3 * LOG3 + TOL:
                failures.append(f"trial {idx} k={k}: tilde avg delta {d_tilde}")
        per_k_avg[k] = worst_avg
        per_k_tilde[k] = worst_tilde
    if max(per_k_avg.values()) > 3 * LOG3 + LOG2 + TOL:
        failures.append("max over k exceeds the k-uniform bound")
    elapsed = time.perf_counter() - t0
    if elapsed >= 30.0:
        failures.append(f"runtime {elapsed:.1f}s >= 30s")
    _report(
        2,
        "averaged-variant delta bounds, uniform over k in {1,2,4,8}",
        failures,
        f"max avg {max(per_k_avg.values()):.6f} <= {3 * LOG3 + LOG2:.6f}, "
        f"max tilde {max(per_k_tilde.values()):.6f} <= {3 * LOG3:.6f}, {elapsed:.1f}s",
    )


def test_criterion_3_metric_axiom_theorems(trials):
    t0 = time.perf_counter()
    failures = []
    for idx, (cloud, punctures) in enumerate(trials):
        one = PuncturedSpec(cloud, punctures[:1], variant="tau_p")
        multi = PuncturedSpec(cloud, punctures[:4], variant="avg_tau")
        cases = (
            ("tau_p", punctured_matrix(one)),
            ("tilde_tau_p", punctured_matrix(one.with_variant("tilde_tau_p"))),
            ("avg_tau", punctured_matrix(multi)),
            ("sup_tau", punctured_matrix(multi.with_variant("sup_tau"))),
            ("j", punctured_matrix(multi.with_variant("j"))),
        )
        for name, matrix in cases:
            rep = check_metric_axioms(matrix, TOL)
            if not rep.passed:
                failures.append(f"trial {idx}: {name} has {len(rep.violations)} violations")
    elapsed = time.perf_counter() - t0
    if elapsed >= 5.0:
        failures.append(f"runtime {elapsed:.1f}s >= 5s")
    _report(
        3,
        "metric axioms hold for tau_p, avg, sup, j (and tilde on Euclidean)",
        failures,
        f"30 trials x 5 variants, {elapsed:.1f}s",
    )


def test_criterion_4_four_point_counterexample():
    t0 = time.perf_counter()
    failures = []
    res = four_point_counterexample()
    if not res.passed:
        failures.append("scenario reported failure")
    expected_slack = math.log(3.0) - 2.0 * math.log(1.0 + 1.0 / math.sqrt(2.0))
    slack = res.measured["tilde_violation_slack"]
    if abs(slack - expected_slack) > 1e-6:
        failures.append(f"slack {slack} vs recomputed {expected_slack}")
    if res.measured["tilde_triangle_violations"] != [[1, 2, 0], [2, 1, 0]]:
        failures.append("violating triple family mismatch")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"runtime {elapsed:.2f}s >= 1s")
    _report(
        4,
        "4-point counterexample reproduced",
        failures,
        f"slack {slack:.8f} ~ {expected_slack:.8f}, {elapsed:.2f}s",
    )


def test_criterion_5_arctan_dichotomy():
    t0 = time.perf_counter()
    failures = []
    res = arctan_family(t_grid=(1.0, 10.0, 100.0), samples=100000, seed=ACCEPT_SEED)
    if not res.passed:
        failures.append("scenario reported failure")
    for t in (1.0, 10.0, 100.0):
        got = res.measured["corner_deltas"][repr(t)]
        if abs(got["d1"] - math.atan(t)) > 1e-9:
            failures.append(f"d1 delta at t={t}: {got['d1']}")
        if abs(got["d1+d2"] - (t + math.atan(t))) > 1e-9:
            failures.append(f"sum delta at t={t}: {got['d1+d2']}")
    sampled = res.measured["sampled_d1"]["delta"]
    if sampled > math.pi / 2.0 + TOL:
        failures.append(f"sampled d1 delta {sampled} > pi/2")
    unbounded = res.measured["corner_deltas"][repr(100.0)]["d1+d2"]
    if unbounded <= 50.0:
        failures.append(f"sum delta at t=100 is {unbounded}, expected > 50")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(
        5,
        "arctan-split dichotomy (closed forms, pi/2 ceiling, unbounded sum)",
        failures,
        f"sampled d1 {sampled:.6f} <= {math.pi / 2:.6f}, sum(t=100) {unbounded:.2f} > 50, "
        f"{elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def lemma_matrix():
    """Seeded cloud for the lemma battery: mostly uniform, with a tight
    cluster around the anchor so the separated-pair hypothesis actually
    fires at large K."""
    rng = np.random.Generator(np.random.PCG64(ACCEPT_SEED + 1))
    bulk = rng.uniform(0.0, 1.0, size=(448, 2))
    anchor = bulk[0]
    cluster = anchor + rng.normal(scale=2e-4, size=(64, 2))
    pts = np.vstack([bulk, cluster])
    return build_distance_matrix(PointCloud(pts))


def test_criterion_6_lemma_suite(lemma_matrix):
    t0 = time.perf_counter()
    failures = []
    m = lemma_matrix
    e = m.entries
    n = m.n

    def need(name, rep):
        if not rep.passed:
            failures.append(f"{name}: {len(rep.violations)} violations")

    # displayed mu bounds (four displays per tuple), two anchor pairs
    need("mu_bounds[0,1]", check_mu_bounds(m, 0, 1, samples=500000, seed=ACCEPT_SEED))
    need("mu_bounds[5,5]", check_mu_bounds(m, 5, 5, samples=500000, seed=ACCEPT_SEED + 2))

    need("factor_nine", check_lemma_nine(m, 0, samples=1000000, seed=ACCEPT_SEED + 3))

    for k in (1, 2, 4, 8):
        need(
            f"product_split k={k}",
            check_product_lemma(m, list(range(k)), samples=250000, seed=ACCEPT_SEED + 4 + k),
        )

    applicable = {}
    for K in (4.0, 6.0, 10.0):
        rep = check_lemma_K(m, 0, K, samples=1000000, seed=ACCEPT_SEED + 20)
        need(f"separated_pair K={K:g}", rep)
        applicable[K] = rep.meta["applicable"]
    if min(applicable.values()) == 0:
        failures.append(f"separated-pair hypothesis never fired: {applicable}")

    # quasi-Ptolemy: K=1 on base Euclidean distances, K=3/2 on mu values
    rng = np.random.Generator(np.random.PCG64(ACCEPT_SEED + 30))
    skipped = 0
    for chunk in range(10):
        q = rng.integers(0, n, size=(100000, 4))
        rs = e[q[:, :, None], q[:, None, :]]
        rep = check_quasi_ptolemy_many(rs, K=1.0)
        need(f"quasi_ptolemy K=1 chunk {chunk}", rep)
        skipped += rep.meta["hypothesis_skipped"]
        gp = e[q, 0]  # distances to the anchor, row-wise
        mu = e[q[:, :, None], q[:, None, :]] + np.sqrt(gp[:, :, None] * gp[:, None, :])
        rep = check_quasi_ptolemy_many(mu, K=1.5)
        need(f"quasi_ptolemy K=3/2 chunk {chunk}", rep)
        skipped += rep.meta["hypothesis_skipped"]
    if skipped:
        failures.append(f"{skipped} quasi-Ptolemy rows unexpectedly failed the hypothesis")

    # the (27/2)^k quasi-triangle, both displays
    need(
        "muP_triangle k=4",
        check_mu_P_quasi_triangle(m, [0, 1, 2, 3], triples=1000000, quadruples=0,
                                  seed=ACCEPT_SEED + 40),
    )
    need(
        "muP_four_point k=2",
        check_mu_P_quasi_triangle(m, [0, 1], triples=0, quadruples=1000000,
                                  seed=ACCEPT_SEED + 41),
    )

    # all three sandwich bounds, >= 1e6 pairs each across seeded clouds
    pairs = 0
    for i in range(8):
        cloud = random_cloud(512, 2, seed=ACCEPT_SEED + 50 + i)
        one = PuncturedSpec(cloud, [[2.0 + i, 2.0]], variant="tau_p")
        multi = PuncturedSpec(
            cloud,
            np.array([[2.0 + i, 2.0], [-1.0, 0.5], [0.5, 3.0], [3.0, -0.5], [1.5, 1.5]]),
            variant="avg_tau",
        )
        need(f"sandwich tau cloud {i}", check_sandwich("tau", one))
        need(f"sandwich avg cloud {i}", check_sandwich("avg", multi))
        need(f"sandwich taxicab cloud {i}", check_sandwich("taxicab", cloud))
        pairs += math.comb(512, 2)
    if pairs < 1000000:
        failures.append(f"only {pairs} sandwich pairs checked")

    elapsed = time.perf_counter() - t0
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _report(
        6,
        "lemma suite: zero violations across million-tuple seeded batteries",
        failures,
        f"separated-pair applicable {applicable}, {pairs} sandwich pairs/kind, {elapsed:.1f}s",
    )


def test_criterion_7_ptolemy_exhaustive():
    t0 = time.perf_counter()
    failures = []
    for n, seed in ((40, ACCEPT_SEED + 60), (60, ACCEPT_SEED + 61)):
        m = build_distance_matrix(random_cloud(n, 2, seed=seed))
        rep = check_ptolemaic(m, TOL)
        if not rep.passed:
            failures.append(f"n={n}: {len(rep.violations)} Ptolemy violations")
        if rep.meta["quadruples"] != math.comb(n, 4):
            failures.append(f"n={n}: covered {rep.meta['quadruples']} quadruples")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _report(
        7,
        "Euclidean clouds are exhaustively Ptolemaic (n = 40, 60)",
        failures,
        f"{elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def perf_matrix():
    return build_distance_matrix(random_cloud(200, 2, seed=ACCEPT_SEED + 70))


@pytest.fixture(scope="module")
def perf_reports(perf_matrix):
    t0 = time.perf_counter()
    serial = exact_delta(perf_matrix, workers=1)
    t_serial = time.perf_counter() - t0
    t0 = time.perf_counter()
    quad = exact_delta(perf_matrix, workers=4)
    t_quad = time.perf_counter() - t0
    return serial, t_serial, quad, t_quad


def test_criterion_8_kernel_runtime_and_determinism(perf_reports):
    serial, t_serial, quad, _ = perf_reports
    failures = []
    if serial.quadruples_evaluated != math.comb(200, 4):
        failures.append("quadruple count mismatch")
    if t_serial > 60.0:
        failures.append(f"single-thread runtime {t_serial:.1f}s > 60s")
    if quad.delta != serial.delta:
        failures.append(f"delta differs across worker counts: {quad.delta} vs {serial.delta}")
    if quad.witness != serial.witness:
        failures.append(f"witness differs: {quad.witness} vs {serial.witness}")
    _report(
        8,
        "200-point kernel: single-thread runtime and bit-identical parallel result",
        failures,
        f"{serial.quadruples_evaluated} quadruples in {t_serial:.2f}s, "
        f"witness {serial.witness}",
    )


def test_criterion_8_parallel_speedup(perf_reports):
    _, t_serial, _, t_quad = perf_reports
    failures = []
    speedup = t_serial / t_quad
    if speedup < 2.0:
        failures.append(
            f"speedup {speedup:.2f}x < 2x with 4 workers "
            f"(os.cpu_count()={os.cpu_count()}; needs >= 4 real cores)"
        )
    _report(
        8,
        "200-point kernel: >= 2x speedup with 4 workers",
        failures,
        f"serial {t_serial:.2f}s, 4 workers {t_quad:.2f}s, speedup {speedup:.2f}x",
    )


def _cli(*argv, env=None):
    e = dict(os.environ)
    e["PYTHONPATH"] = str(REPO / "src")
    if env:
        e.update(env)
    proc = subprocess.run(
        [sys.executable, "-m", "hypmetrics", *argv],
        capture_output=True,
        text=True,
        env=e,
        cwd=REPO,
    )
    return proc.returncode, proc.stdout


def _scrubbed(text: str) -> str:
    obj = json.loads(text)

    def scrub(node):
        if isinstance(node, dict):
            node.pop("elapsed_ms", None)
            for v in node.values():
                scrub(v)
        elif isinstance(node, list):
            for v in node:
                scrub(v)

    scrub(obj)
    return json.dumps(obj, sort_keys=True)


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.perf_counter()
    failures = []

    cloud = tmp_path / "cloud.csv"
    for target in ("a.csv", "b.csv"):
        code, _ = _cli("gen", "--n", "20", "--seed", "3", "--out", str(tmp_path / target))
        if code != 0:
            failures.append(f"gen exit {code}")
    if (tmp_path / "a.csv").read_bytes() != (tmp_path / "b.csv").read_bytes():
        failures.append("gen outputs differ")
    (tmp_path / "a.csv").rename(cloud)

    for target in ("m1.json", "m2.json"):
        code, _ = _cli(
            "dist", "--cloud", str(cloud), "--punctures", "[[2.0, 2.0]]",
            "--variant", "tau_p", "--out", str(tmp_path / target),
        )
        if code != 0:
            failures.append(f"dist exit {code}")
    if (tmp_path / "m1.json").read_bytes() != (tmp_path / "m2.json").read_bytes():
        failures.append("dist outputs differ")

    outs = [
        _cli("delta", "--cloud", str(cloud), "--workers", w)[1] for w in ("1", "2", "1")
    ]
    if not (_scrubbed(outs[0]) == _scrubbed(outs[1]) == _scrubbed(outs[2])):
        failures.append("delta exact reports differ across runs/workers")

    s1 = _cli("delta", "--cloud", str(cloud), "--mode", "sampled", "--samples", "500",
              "--seed", "11", "--workers", "1")[1]
    s2 = _cli("delta", "--cloud", str(cloud), "--mode", "sampled", "--samples", "500",
              "--seed", "11", "--workers", "1")[1]
    if _scrubbed(s1) != _scrubbed(s2):
        failures.append("delta sampled reports differ")

    v1 = _cli("verify", "axioms", "--cloud", str(cloud))
    v2 = _cli("verify", "axioms", "--cloud", str(cloud))
    if v1 != v2:
        failures.append("verify axioms outputs differ")
    l1 = _cli("verify", "lemmas", "--n", "24", "--samples", "2000", "--seed", "5")
    l2 = _cli("verify", "lemmas", "--n", "24", "--samples", "2000", "--seed", "5")
    if l1 != l2:
        failures.append("verify lemmas outputs differ")

    r1 = _cli("repro", "four-point")
    r2 = _cli("repro", "four-point")
    if r1 != r2:
        failures.append("repro four-point outputs differ")
    w1 = _cli("repro", "sweep", "--n", "10", "--k-list", "1,2", "--trials", "2", "--seed", "7")
    w2 = _cli("repro", "sweep", "--n", "10", "--k-list", "1,2", "--trials", "2", "--seed", "7")
    if w1 != w2:
        failures.append("repro sweep outputs differ")

    elapsed = time.perf_counter() - t0
    _report(
        9,
        "CLI reports byte-identical across reruns (timing fields aside)",
        failures,
        f"{elapsed:.1f}s",
    )

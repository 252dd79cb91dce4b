"""The constructors against a correctly rounded reference.

Every base is a set of points on a line with index punctures, and the
reference evaluates each formula on the base's float distances, read
exactly, in 80-digit ``decimal`` arithmetic. Two families of bases:

* seeded integer points below 2^22, scaled by each power of two of a fixed
  grid from 2^-1000 to 2^1000, so every distance is exact and the gap
  products leave the float range, where ``cassinian._root`` rescales them;
* seeded points +-2^e, e from -1074 to 1020, with a puncture at 0, whose
  distances span the float range: subnormal gaps, and ratios whose
  log1p overflows.

The base metrics are checked the same way: Euclidean and taxicab
distances of seeded planar clouds, one per power of two of a grid from
2^-1074 to 2^1020, against the 80-digit value of the exact coordinate
differences. Each cloud's coordinates spread over 40 binades below its
scale, and its last points sit a few ulps from earlier ones.

The grids are fixed, so the tests draw the same entries on every run.
"""

import decimal
import itertools
import math
from decimal import Decimal

import numpy as np
import pytest

from hypmetrics import DistanceMatrix, PuncturedSpec, mu_P, pairwise_distances, punctured_matrix
from hypmetrics.cassinian import ONE_POINT_VARIANTS, VARIANTS

EXPONENTS = (-1000, -768, -512, -256, -64, -5, 5, 64, 256, 512, 768, 1000)
#: Ulps each variant may be off the reference; mu_P over k punctures may be
#: off by k + 1 (see the ``cassinian`` docstring for the measured errors).
VARIANT_ULPS = 3.0

#: Ulps a Euclidean and a taxicab distance may be off the reference (see
#: the ``spaces`` docstring for the measured errors).
BASE_ULPS = {"euclidean": 2.0, "taxicab": 1.5}
BASE_EXPONENTS = (-1074, -1060, -1030, -1000, -969, -900, -512, -64, 0, 64, 512, 900, 969, 1000, 1020)

CTX = decimal.Context(prec=80)
TINY, HUGE = Decimal(np.finfo(float).tiny), Decimal(np.finfo(float).max)


def _log1p(r: Decimal) -> Decimal:
    # 1 + r loses r below 1e-80; the series' first omitted term is r^4 / 4
    return r - r * r / 2 + r * r * r / 3 if r < Decimal("1e-20") else (1 + r).ln()


def _variants(d, x, y, P, anchor) -> dict:
    """Each variant's value at (x, y) over the punctures P, from the exact
    distances ``d(i, j)``."""
    with decimal.localcontext(CTX):
        dxy, gx, gy = d(x, y), [d(x, p) for p in P], [d(y, p) for p in P]
        ratios = [dxy / (a * b).sqrt() for a, b in zip(gx, gy)]
        tau = [_log1p(2 * r) for r in ratios]
        tilde = [_log1p(r) for r in ratios]
        t1, t2 = _log1p(dxy / min(gx)), _log1p(dxy / min(gy))
        return {
            "tau_p": tau[anchor],
            "tilde_tau_p": tilde[anchor],
            "avg_tau": sum(tau) / len(P),
            "tilde_avg_tau": sum(tilde) / len(P),
            "sup_tau": max(tau),
            "j": (t1 + t2) / 2,
            "j_tilde": max(t1, t2),
        }


def _mu_P(d, x, y, P) -> Decimal:
    with decimal.localcontext(CTX):
        return math.prod((d(x, y) + (d(x, p) * d(y, p)).sqrt() for p in P), start=Decimal(1))


def _reference(d, n: int, P) -> tuple[dict, dict]:
    """From the exact distances ``d(i, j)`` of n points: the variants at
    each ordered pair of domain positions, and mu_P at each pair x < y."""
    dom = [i for i in range(n) if i not in P]
    pairs = itertools.permutations(range(len(dom)), 2)
    variants = {(a, b): _variants(d, dom[a], dom[b], P, len(P) - 1) for a, b in pairs}
    mu = {(x, y): _mu_P(d, x, y, P) for x, y in itertools.combinations(range(n), 2)}
    return variants, mu


def _ulps(value: float, exact: Decimal) -> float:
    with decimal.localcontext(CTX):
        return float(abs(Decimal(value) - exact) / Decimal(math.ulp(float(exact))))


def _check(base: DistanceMatrix, P, variants: dict, mu: dict) -> int:
    """Assert that every variant entry of ``base`` over the punctures P is
    within ``VARIANT_ULPS`` of ``variants``, and mu_P within k + 1 ulps of
    ``mu`` where that lies in the normal range; return how many mu_P
    values were in it."""
    anchor = len(P) - 1
    for variant in VARIANTS:
        one_point = anchor if variant in ONE_POINT_VARIANTS else None
        m = punctured_matrix(PuncturedSpec(base, P, variant, one_point)).entries
        for (a, b), want in variants.items():
            ulps = _ulps(m[a, b], want[variant])
            assert ulps <= VARIANT_ULPS, (variant, P, a, b, ulps)
    in_range = [(x, y) for (x, y), want in mu.items() if TINY <= want <= HUGE]
    for x, y in in_range:
        ulps = _ulps(mu_P(base, x, y, P), mu[x, y])
        assert ulps <= len(P) + 1, (P, x, y, ulps)
    return len(in_range)


@pytest.mark.parametrize("seed", range(6))
def test_exact_bases_at_every_scale(seed):
    rng = np.random.default_rng(seed)
    pos: set[int] = set()
    while len(pos) < 10:  # integers of widely spread sizes, below 2^22
        bits = int(rng.integers(1, 23))
        pos.add(int(rng.integers(-(2**bits), 2**bits)))
    pos = [int(v) for v in rng.permutation(sorted(pos))]
    gaps = np.array([[abs(a - b) for b in pos] for a in pos], dtype=float)
    for k in (1, 2, 3, 5):
        P = list(range(k))
        # the variants are scale-invariant, and mu_P scales by 2^(e k)
        variants, mu = _reference(lambda i, j: Decimal(abs(pos[i] - pos[j])), len(pos), P)
        checked = 0
        for e in EXPONENTS:
            with decimal.localcontext(CTX):
                scaled = {key: v * Decimal(2) ** (e * k) for key, v in mu.items()}
            checked += _check(DistanceMatrix(np.ldexp(gaps, e)), P, variants, scaled)
        assert checked >= 4 * len(mu)  # mu_P is in range at four scales or more


@pytest.mark.parametrize("seed", range(4))
def test_bases_across_the_float_range(seed):
    rng = np.random.default_rng(1000 + seed)
    bases = 0
    for _ in range(5):
        pos = [0.0] + np.ldexp(rng.choice([-1.0, 1.0], 7), rng.integers(-1074, 1021, 7)).tolist()
        with np.errstate(over="ignore"):
            gaps = np.array([[abs(a - b) for b in pos] for a in pos])
        if len(set(pos)) < len(pos) or not np.isfinite(gaps).all():
            continue
        for P in ([0], [0, 1]):
            _check(DistanceMatrix(gaps), P, *_reference(lambda i, j: Decimal(gaps[i, j]), 8, P))
        bases += 1
    assert bases >= 3


def _planar_cloud(rng, e: int, n: int = 16, near: int = 4) -> np.ndarray:
    """n points below 2^(e+1) in each coordinate, spread over 40 binades,
    the last ``near`` of them a few ulps from the first ones."""
    pts = np.ldexp(rng.uniform(-1.0, 1.0, (n, 2)), e + rng.integers(-40, 2, (n, 2)))
    for t in range(near):
        pts[n - near + t] = pts[t] + rng.integers(-3, 4, 2) * np.spacing(np.abs(pts[t]))
    return pts


@pytest.mark.parametrize("seed", range(8))
def test_base_metrics_across_the_float_range(seed):
    rng = np.random.default_rng(2000 + seed)
    for e in BASE_EXPONENTS:
        pts = _planar_cloud(rng, e)
        got = {metric: pairwise_distances(pts, metric) for metric in BASE_ULPS}
        for i, j in itertools.combinations(range(len(pts)), 2):
            with decimal.localcontext(CTX):
                dx, dy = (Decimal(pts[i, c]) - Decimal(pts[j, c]) for c in (0, 1))
                want = {"euclidean": (dx * dx + dy * dy).sqrt(), "taxicab": abs(dx) + abs(dy)}
            for metric, budget in BASE_ULPS.items():
                ulps = _ulps(got[metric][i, j], want[metric])
                assert ulps <= budget, (metric, e, i, j, ulps)

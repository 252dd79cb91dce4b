"""Invariances of the punctured variants and of their exact delta.

Each property holds in real arithmetic; the tests pin how much of it
survives in floating point: bit for bit where the same operations meet the
same operands in another order, within a stated rounding bound where they
do not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmetrics import PointCloud, PuncturedSpec, exact_delta, punctured_matrix, quadruple_delta
from hypmetrics.scenarios import _place_punctures

EPS = 2.0**-52
FOLDED = ("avg_tau", "tilde_avg_tau", "sup_tau", "j", "j_tilde")


@st.composite
def clouds(draw, ks=(1, 4), dims=(2,)):
    """A seeded cloud of 5 to 30 points in the unit cube and k punctures at
    least 1e-3 from every point and from each other."""
    n = draw(st.integers(5, 30))
    k = draw(st.integers(*ks))
    dim = draw(st.sampled_from(dims))
    rng = np.random.Generator(np.random.PCG64(draw(st.integers(0, 2**32 - 1))))
    pts = rng.uniform(0.0, 1.0, size=(n, dim))
    return pts, _place_punctures(rng, pts, k)


def _matrix(pts, punctures, variant):
    return punctured_matrix(PuncturedSpec(PointCloud(pts), punctures, variant)).entries


def _bits(a):
    return a.view(np.uint64)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(clouds(), st.randoms(use_true_random=False))
def test_point_permutation(cloud, random):
    pts, punctures = cloud
    perm = np.array(random.sample(range(len(pts)), len(pts)))
    for variant in FOLDED:
        m = _matrix(pts, punctures, variant)
        mp = _matrix(pts[perm], punctures, variant)
        assert np.array_equal(_bits(mp), _bits(m[np.ix_(perm, perm)])), variant
        rep, rep_p = exact_delta(m), exact_delta(mp)
        assert _bits(np.float64(rep_p.delta)) == _bits(np.float64(rep.delta)), variant
        # the witness may move to another maximal quadruple, never off the maximum
        assert quadruple_delta(m, *perm[list(rep_p.witness)]) == rep.delta, variant


@settings(max_examples=30, derandomize=True, deadline=None)
@given(clouds(ks=(2, 4)))
def test_puncture_reversal(cloud):
    pts, punctures = cloud
    k = len(punctures)
    for variant in FOLDED:
        m = _matrix(pts, punctures, variant)
        mr = _matrix(pts, punctures[::-1], variant)
        if variant in ("avg_tau", "tilde_avg_tau"):
            # a mean of k terms summed in the other order
            assert np.all(np.abs(mr - m) <= k * EPS * np.abs(m)), variant
        else:
            # a maximum or a minimum does not depend on the order
            assert np.array_equal(_bits(mr), _bits(m)), variant


@settings(max_examples=30, derandomize=True, deadline=None)
@given(clouds(ks=(1, 1), dims=(2, 3)))
def test_inversion_about_the_anchor(cloud):
    # x -> p + (x - p) / |x - p|^2 maps |x - y| to |x - y| / (|x - p| |y - p|)
    # and |x - p| to 1 / |x - p|, so d(x,y) / sqrt(d(x,p) d(y,p)) is unchanged
    pts, punctures = cloud
    p = punctures[0]
    rel = pts - p
    inverted = p + rel / (rel**2).sum(axis=1, keepdims=True)
    for variant in ("tau_p", "tilde_tau_p"):
        m = _matrix(pts, punctures, variant)
        mi = _matrix(inverted, punctures, variant)
        bound = 8 * EPS * np.abs(m).max()
        assert np.abs(mi - m).max() <= bound, variant
        assert abs(exact_delta(mi).delta - exact_delta(m).delta) <= bound, variant

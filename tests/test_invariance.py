"""Invariances of the punctured variants and of their exact delta.

Each property holds in real arithmetic; the tests pin how much of it
survives in floating point: bit for bit where the same operations meet the
same operands in another order, within a stated rounding bound where they
do not.
"""

from itertools import product

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hypmetrics import PointCloud, PuncturedSpec, exact_delta, punctured_matrix, quadruple_delta
from hypmetrics.cassinian import ONE_POINT_VARIANTS, VARIANTS
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


def _matrix(pts, punctures, variant, anchor=None, metric="euclidean"):
    spec = PuncturedSpec(PointCloud(pts), punctures, variant, anchor, metric)
    return punctured_matrix(spec).entries


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


def _anchor(data, punctures, variant):
    """A drawn puncture index for a one-point variant, None for the others."""
    if variant not in ONE_POINT_VARIANTS:
        return None
    return data.draw(st.integers(0, len(punctures) - 1), label=f"{variant} anchor")


@settings(max_examples=30, derandomize=True, deadline=None)
@given(clouds(dims=(2, 3)), st.integers(-1000, 1000), st.data())
def test_power_of_two_scaling(cloud, exponent, data):
    # every distance scales by the same exact power of two, and every variant
    # reads only ratios of distances, so no rounding changes
    pts, punctures = cloud
    scaled_pts, scaled_punctures = np.ldexp(pts, exponent), np.ldexp(punctures, exponent)
    for variant, metric in product(VARIANTS, ("euclidean", "taxicab")):
        anchor = _anchor(data, punctures, variant)
        m = _matrix(pts, punctures, variant, anchor, metric)
        ms = _matrix(scaled_pts, scaled_punctures, variant, anchor, metric)
        assert np.array_equal(_bits(ms), _bits(m)), (variant, metric)


@settings(max_examples=30, derandomize=True, deadline=None)
@given(clouds(dims=(2, 3)), st.integers(0, 2**32 - 1), st.data())
def test_rotation(cloud, seed, data):
    # an orthogonal map keeps every Euclidean distance; rounding the rotated
    # coordinates moves each distance by a few ulps of R, the largest norm in
    # play, and so moves an entry, a log of 1 + a distance over a gap, by about
    # that over the smaller gap of its pair, and delta by twice the largest move
    pts, punctures = cloud
    gauss = np.random.Generator(np.random.PCG64(seed)).normal(size=(pts.shape[1],) * 2)
    q = np.linalg.qr(gauss)[0]
    R = np.linalg.norm(np.vstack([pts, punctures]), axis=1).max()
    gaps = np.linalg.norm(pts[:, None] - punctures[None], axis=2)
    for variant in VARIANTS:
        anchor = _anchor(data, punctures, variant)
        near = (gaps if anchor is None else gaps[:, [anchor]]).min(axis=1)
        bound = 16 * EPS * R / np.minimum.outer(near, near)
        m = _matrix(pts, punctures, variant, anchor)
        mr = _matrix(pts @ q.T, punctures @ q.T, variant, anchor)
        assert np.all(np.abs(mr - m) <= bound), variant
        assert abs(exact_delta(mr).delta - exact_delta(m).delta) <= 2 * bound.max(), variant

"""Truncations, Hausdorff distance, and the packing-space metric."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from hypack.errors import DomainError, RangeError
from hypack.hgeom import ORIGIN, BallSpec, HPoint, Isometry, cosh_distance_xy
from hypack.packings import (
    BoroczkyPacking,
    StripeModel,
    TightPacking,
    TransformedPacking,
)
from hypack.pspace import (
    TruncatedPacking,
    hausdorff_distance,
    packing_distance,
    truncate,
)
from hypack.regions import EmptyRegion, SamplePlan, sample_ball_uniform

from oracles import level_net, nearest_site_hausdorff

SEED = 88417


def _all_pairs_directed(a, c, chunk=256):
    """The all-pairs directed Hausdorff distance: the oracle."""
    worst = 0.0
    for s in range(0, len(a), chunk):
        blk = a[s : s + chunk]
        cd = cosh_distance_xy(blk[:, 0, None], blk[:, 1, None],
                              c[None, :, 0], c[None, :, 1])
        nearest = np.maximum(cd.min(axis=1), 1.0)
        worst = max(worst, float(np.arccosh(nearest).max()))
    return worst


def _all_pairs_hausdorff(a, c):
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    return max(_all_pairs_directed(a, c), _all_pairs_directed(c, a))


@pytest.fixture(scope="module")
def tight7():
    return TightPacking(7)


@pytest.fixture(scope="module")
def pool(tight7):
    """Truncations of assorted packings, all at level 1."""
    boro = BoroczkyPacking()
    members = [
        tight7,
        TransformedPacking(Isometry.translation(0.37), tight7),
        TransformedPacking(Isometry.rotation(0.9, HPoint(0.2, 1.5)), tight7),
        boro,
        TransformedPacking(Isometry.dilation(1.35), boro),
        StripeModel(1.0),
        TransformedPacking(Isometry.dilation(math.exp(0.2)), StripeModel(1.0)),
        TightPacking(8),
    ]
    return [truncate(m, k_max=1) for m in members]


def test_truncation_counts_and_containment(tight7):
    trunc = truncate(tight7, k_max=2)
    assert trunc.k_max == 2
    for k, pts in enumerate(trunc.levels, start=1):
        assert len(pts) >= 64 * k
        d = np.arccosh(np.maximum(cosh_distance_xy(pts[:, 0], pts[:, 1], 0.0, 1.0), 1.0))
        assert float(d.max()) <= k + 1e-9
        assert np.all(tight7.covers_xy(pts[:, 0], pts[:, 1]))


def _rows(pts):
    """The rows of an (n, 2) array sorted by x, then y."""
    return pts[np.lexsort((pts[:, 1], pts[:, 0]))]


@pytest.mark.parametrize("which", ["tight7", "boroczky", "moved tight7"])
def test_truncation_levels_match_per_disk_oracle(which, tight7):
    target = {
        "tight7": tight7,
        "boroczky": BoroczkyPacking(),
        "moved tight7": TransformedPacking(
            Isometry.translation(0.37) @ Isometry.rotation(0.9, HPoint(0.2, 1.5)), tight7),
    }[which]
    trunc = truncate(target, k_max=2)
    for k, level in enumerate(trunc.levels, start=1):
        assert np.array_equal(_rows(level), _rows(level_net(target, k, 0.03)))


def test_truncation_is_deterministic(tight7):
    a = truncate(tight7, k_max=1)
    b = truncate(tight7, k_max=1)
    assert np.array_equal(a.levels[0], b.levels[0])


def test_truncation_net_density(tight7):
    # every covered point of B_1 must be within 0.05 of a net point
    trunc = truncate(tight7, k_max=1)
    net = trunc.levels[0]
    xs, ys = sample_ball_uniform(BallSpec(ORIGIN, 1.0), SamplePlan(seed=SEED, n=4000))
    cov = tight7.covers_xy(xs, ys)
    xs, ys = xs[cov], ys[cov]
    worst = 0.0
    for i in range(len(xs)):
        cd = cosh_distance_xy(xs[i], ys[i], net[:, 0], net[:, 1])
        worst = max(worst, math.acosh(max(float(cd.min()), 1.0)))
    assert worst <= 0.05


def test_truncate_validation(tight7):
    with pytest.raises(DomainError):
        truncate(tight7, k_max=0)
    with pytest.raises(DomainError):
        truncate(tight7, k_max=1, spacing=0.1)
    with pytest.raises(DomainError):
        truncate(tight7, k_max=1, spacing=-0.01)


def test_truncated_packing_validation():
    good = np.zeros((64, 2))
    with pytest.raises(DomainError):
        TruncatedPacking(k_max=0, levels=())
    with pytest.raises(DomainError):
        TruncatedPacking(k_max=2, levels=(good,))
    with pytest.raises(DomainError):
        TruncatedPacking(k_max=1, levels=(np.zeros((10, 2)),))
    with pytest.raises(DomainError):
        TruncatedPacking(k_max=1, levels=(np.zeros((64, 3)),))
    TruncatedPacking(k_max=1, levels=(good,))


def test_hausdorff_singletons():
    assert abs(hausdorff_distance([[0.0, 1.0]], [[0.0, math.e]]) - 1.0) <= 1e-12
    assert hausdorff_distance([[0.0, 1.0]], [[0.0, 1.0]]) == 0.0


def test_hausdorff_empty_rejected():
    with pytest.raises(DomainError):
        hausdorff_distance(np.zeros((0, 2)), [[0.0, 1.0]])
    with pytest.raises(DomainError):
        hausdorff_distance([[0.0, 1.0]], np.zeros((0, 2)))


def test_hausdorff_rejects_points_off_the_half_plane():
    for bad in ([[0.0, 0.0]], [[0.0, -1.0]], [[math.nan, 1.0]], [[0.0, math.inf]],
                [[0.0, 1.0, 2.0]], [0.0, 1.0]):
        with pytest.raises(DomainError):
            hausdorff_distance(bad, [[0.0, 1.0]])
        with pytest.raises(DomainError):
            hausdorff_distance([[0.0, 1.0]], bad)
    for far in ([[0.0, 1e31]], [[0.0, 1e-31]], [[-1e31, 1.0]]):
        with pytest.raises(RangeError):
            hausdorff_distance(far, [[0.0, 1.0]])
    a = [[1e30, 1e-30], [0.0, 1e30]]
    c = [[-1e30, 1e-30], [1.0, 1.0]]
    assert hausdorff_distance(a, c) == _all_pairs_hausdorff(a, c)


def test_hausdorff_refines_past_the_euclidean_neighbour():
    # from (0, 1) the Euclidean nearest point of c is (0, 1e-6), 13.8 away;
    # the hyperbolic nearest is (3, 1), at cosh-distance 1 + 9/2
    a = [[0.0, 1.0], [0.0, 1e-6]]
    c = [[3.0, 1.0], [0.0, 1e-6]]
    assert abs(hausdorff_distance(a, c) - math.acosh(5.5)) <= 1e-12
    assert hausdorff_distance(a, c) == _all_pairs_hausdorff(a, c)


def test_hausdorff_keeps_a_maximum_its_lower_bound_rounds_past():
    # c lies straight above the first point of a, where the lower bound
    # 1 + delta^2 / (2 y (y + delta)) is the pair's cosh distance exactly
    # and rounds one ulp above it; the second point of a sits next to c,
    # so the pass from c does not reach the maximum either
    y, top = 2.2095982352553003, 13.737899623518148
    a = [[0.0, y], [1e-9, top]]
    c = [[0.0, top]]
    expected = float(np.arccosh(cosh_distance_xy(0.0, y, 0.0, top)))
    assert hausdorff_distance(a, c) == _all_pairs_hausdorff(a, c) == expected


@pytest.fixture(scope="module")
def boroczky_pair():
    boro = BoroczkyPacking()
    moved = TransformedPacking(Isometry.dilation(1.3), boro)
    return truncate(boro, k_max=2), truncate(moved, k_max=2)


def test_hausdorff_equals_all_pairs_on_packing_nets(pool, boroczky_pair):
    # tight m=7 against a moved copy, stripe W=1 against tight m=8 (level
    # 1), and Boroczky against a dilated copy at levels 1 and 2
    pairs = [(pool[0].levels[0], pool[1].levels[0]),
             (pool[5].levels[0], pool[7].levels[0])]
    pairs += list(zip(boroczky_pair[0].levels, boroczky_pair[1].levels))
    for a, c in pairs:
        d = hausdorff_distance(a, c)
        assert d == _all_pairs_hausdorff(a, c) == nearest_site_hausdorff(a, c)
        assert d == hausdorff_distance(c, a)
    d = packing_distance(*boroczky_pair)
    assert d.per_level == tuple(
        _all_pairs_hausdorff(a, c) / k
        for k, (a, c) in enumerate(zip(*(t.levels for t in boroczky_pair)), start=1)
    )


@st.composite
def _point_sets(draw):
    """One or two clusters of points, log-heights in [-30, 30], with repeats.

    A cluster is scattered about (u e^L, e^L) by a spread from 0 (all
    points equal) to 2 (in log-height and in x / y). L reaches +-30, the
    edge of the tested heights, and u reaches +-1e3, which sets clusters
    at one height far apart; clusters at very different heights make the
    Euclidean and hyperbolic nearest neighbours differ.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    parts = []
    for _ in range(draw(st.integers(1, 2))):
        n = draw(st.integers(1, 40))
        log_y0 = draw(st.one_of(st.floats(-30.0, 30.0), st.sampled_from([-30.0, 30.0])))
        u = draw(st.one_of(st.floats(-3.0, 3.0), st.sampled_from([-1e3, 1e3])))
        spread = draw(st.sampled_from([0.0, 1e-12, 1e-7, 0.1, 2.0]))
        log_y = np.clip(log_y0 + spread * rng.standard_normal(n), -30.0, 30.0)
        x = (u + spread * rng.standard_normal(n)) * math.exp(log_y0)
        parts.append(np.column_stack([x, np.exp(log_y)]))
    pts = np.concatenate(parts)
    repeats = draw(st.integers(0, 10))
    return np.concatenate([pts, pts[rng.integers(0, len(pts), size=repeats)]])


@settings(max_examples=300, deadline=None)
@given(a=_point_sets(), c=_point_sets(),
       relation=st.sampled_from(["apart", "same", "offset", "mirrored"]))
@example(a=np.array([[0.0, 1.0]]), c=np.array([[0.0, 1.0 + 1e-9]]), relation="apart")
@example(a=np.array([[0.0, 1.0]]), c=np.array([[-1.0, 1.0], [1.0, 1.0]]), relation="apart")
def test_hausdorff_equals_all_pairs_on_random_sets(a, c, relation):
    # same: c is a reordered. offset: c is a with heights scaled by
    # 1 + 1e-9, so each cosh - 1 to the partner is below one ulp of 1.
    # mirrored: both sets are closed under x -> -x, so points tie in pairs
    # at the maximum.
    if relation == "same":
        c = a[::-1]
    elif relation == "offset":
        c = a * [1.0, 1.0 + 1e-9]
    elif relation == "mirrored":
        a = np.concatenate([a, a * [-1.0, 1.0]])
        c = np.concatenate([c, c * [-1.0, 1.0]])
    d = hausdorff_distance(a, c)
    assert d == _all_pairs_hausdorff(a, c)
    assert d == nearest_site_hausdorff(a, c)
    assert d == hausdorff_distance(c, a)
    if relation in ("same", "offset"):
        assert d == 0.0


def test_identity_and_symmetry(pool):
    for t in pool[:4]:
        d = packing_distance(t, t)
        assert d.value == 0.0
    for i, j in ((0, 3), (1, 5), (4, 7)):
        ab = packing_distance(pool[i], pool[j])
        ba = packing_distance(pool[j], pool[i])
        assert ab.value == ba.value
        assert ab.value > 0.0


def test_metric_axioms_on_random_triples(pool):
    n = len(pool)
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat[i, j] = dmat[j, i] = packing_distance(pool[i], pool[j]).value
    rng = np.random.default_rng(SEED)
    for _ in range(100):
        i, j, k = rng.choice(n, size=3, replace=False)
        assert dmat[i, k] <= dmat[i, j] + dmat[j, k] + 1e-9
        assert dmat[i, j] >= 0.0


def test_empty_level_convention(tight7):
    t_full = truncate(tight7, k_max=1)
    t_empty = truncate(EmptyRegion(), k_max=1)
    assert len(t_empty.levels[0]) == 0
    d = packing_distance(t_full, t_empty)
    assert d.value == 2.0
    assert d.argmax_level == 1
    both = packing_distance(t_empty, t_empty)
    assert both.value == 0.0


def test_mismatched_levels_rejected(tight7):
    with pytest.raises(DomainError):
        packing_distance(truncate(tight7, k_max=1), truncate(tight7, k_max=2))


def test_argmax_level_reported(boroczky_pair):
    d = packing_distance(*boroczky_pair)
    assert len(d.per_level) == 2
    assert d.value == max(d.per_level)
    assert d.per_level[d.argmax_level - 1] == d.value
    assert 1 <= d.argmax_level <= 2


def test_translation_path_monotone():
    # pulling the translated copy back toward the original must shrink
    # the distance at every checkpoint
    boro = BoroczkyPacking()
    base = truncate(boro, k_max=1)
    values = []
    for i in range(10):
        t = 0.8 * 0.75**i
        moved = TransformedPacking(Isometry.translation(t), boro)
        values.append(packing_distance(base, truncate(moved, k_max=1)).value)
    assert all(b < a for a, b in zip(values, values[1:]))
    assert values[-1] < 0.25 * values[0]

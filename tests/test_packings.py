import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import cKDTree

from hypack import packings
from hypack.errors import DomainError, RangeError, SaturationError, UnsupportedOperationError
from hypack.hgeom import (
    apply,
    ball_area,
    BallSpec,
    cosh_distance_xy,
    HDisk,
    HPoint,
    Isometry,
    ORIGIN,
    polar_xy,
)
from hypack.pspace import truncate
from hypack.regions import SamplePlan, sample_ball_uniform, quad_black_fraction
from hypack.packings import (
    _JUMP_BOUND,
    BoroczkyPacking,
    BrickRegion,
    BrickTile,
    StripeModel,
    TightPacking,
    TransformedPacking,
    boroczky_max_radius,
    brick_region,
    pairwise_min_gap,
    tight_density_formula,
    tight_radius,
)
from oracles import (
    DedupTightPacking,
    ReplayTightPacking,
    SweepTightPacking,
    WallFoldTightPacking,
    all_pairs_min_gap,
    distance,
    kdtree_min_gap,
    window_centers,
)

SEED = 40917


@pytest.fixture(scope="module")
def tight7():
    return TightPacking(7)


# ---------------------------------------------------------------- stripes

def test_stripe_contains_parity_and_boundaries():
    # the base point (0, 1) is black; colors flip at every horocycle
    assert StripeModel(5.0).contains(ORIGIN)
    sm = StripeModel(1.0)
    assert sm.contains(ORIGIN)
    assert not sm.contains(HPoint(0.0, math.exp(1.0)))  # stripe 0
    assert sm.contains(HPoint(0.0, math.exp(2.0)))  # stripe 1
    # half-open: a point exactly on y_j belongs to the stripe above
    assert sm.contains(HPoint.from_log(0.0, 1.5))
    assert not sm.contains(HPoint.from_log(0.0, 1.5 - 1e-12))
    with pytest.raises(DomainError):
        StripeModel(0.0)


def test_stripe_model_horocycle_spacing_exact():
    for W in (1.0, 5.0):
        sm = StripeModel(W)
        for j in range(-5, 6):
            # y_j = e^{(j + 1/2) W} bounds stripe j from below
            d = distance(HPoint.from_log(0.0, (j + 0.5) * W),
                         HPoint.from_log(0.0, (j + 1.5) * W))
            assert d == W


def test_stripe_model_delegates():
    sm = StripeModel(5.0)
    assert sm.contains(ORIGIN)
    ball = BallSpec(ORIGIN, 7.0)
    assert abs(sm.exact_area_in_ball(ball) / ball_area(7.0) - quad_black_fraction(5.0, 7.0)) < 1e-12


# ---------------------------------------------------------------- boroczky

def test_boroczky_max_radius_and_tangency():
    rho = boroczky_max_radius()
    assert abs(rho - 0.4812118250596035) < 1e-15
    bp = BoroczkyPacking()
    d = distance(bp.center(0, 0), bp.center(0, 1))
    assert abs(d - math.acosh(1.5)) < 1e-12
    assert abs(d - 2.0 * rho) < 1e-9


def test_boroczky_center_example():
    c = BoroczkyPacking().center(0, 0)
    assert abs(c.x - 0.5 * math.exp(0.5)) < 1e-15
    assert abs(c.y - math.exp(0.5)) < 1e-15


def test_boroczky_saturation_rejected():
    with pytest.raises(SaturationError) as exc:
        BoroczkyPacking(0.49)
    assert abs(exc.value.maximum - boroczky_max_radius()) < 1e-12
    with pytest.raises(DomainError):
        BoroczkyPacking(-0.1)


def test_boroczky_window_disjoint_and_complete():
    bp = BoroczkyPacking()
    ball = BallSpec(ORIGIN, 5.0)
    disks = bp.bodies_in_ball(ball)
    assert pairwise_min_gap(disks) >= -1e-9
    got = {(round(d.center.log_y, 9), round(d.center.x, 9)) for d in disks}
    assert len(got) == len(disks)
    # brute-force scan oracle over a superset of rows and columns
    reach = 5.0 + bp.disk_radius
    want = set()
    for j in range(-4, 4):
        for k in range(-500, 500):
            c = bp.center(j, k)
            if distance(ORIGIN, c) <= reach:
                want.add((round(c.log_y, 9), round(c.x, 9)))
    assert got == want


def test_boroczky_interrow_minimum():
    bp = BoroczkyPacking()
    c0 = bp.center(0, 0)
    best = math.inf
    for k in range(-2000, 2000):
        best = min(best, distance(c0, bp.center(1, k)))
    assert best >= 2.0 - 1e-6


def test_boroczky_empty_window_far_from_disks():
    # (0, e) sits in the uncovered band between rows 0 and 1
    ball = BallSpec(HPoint(0.0, math.e), 0.01)
    assert BoroczkyPacking().bodies_in_ball(ball) == []


def test_boroczky_covers_matches_bodies():
    bp = BoroczkyPacking()
    ball = BallSpec(ORIGIN, 4.0)
    disks = bp.bodies_in_ball(ball)
    xs, ys = sample_ball_uniform(ball, SamplePlan(seed=SEED, n=2000))
    got = bp.covers_xy(xs, ys)
    want = np.zeros(len(xs), dtype=bool)
    for d in disks:
        cd = 1.0 + ((xs - d.center.x) ** 2 + (ys - d.center.y) ** 2) / (
            2.0 * ys * d.center.y
        )
        want |= cd <= math.cosh(d.radius)
    assert np.array_equal(got, want)
    # scalar covers agrees with the vectorized path
    for i in range(0, 2000, 97):
        assert bp.covers(HPoint(xs[i], ys[i])) == bool(got[i])


@settings(max_examples=300, deadline=None)
@given(
    u=st.floats(-3.0, 3.0),
    log_y=st.floats(-3.0, 3.0),
    k=st.integers(-400, 400),
)
def test_boroczky_covers_scalar_vector_and_row_shift(u, log_y, k):
    # (x, log y) -> (e^{2k} x, log y + 2k) is the dilation by e^{2k},
    # which maps the packing to itself; |k| up to 400 puts the image at
    # log-heights up to 803, where y itself under- or overflows
    bp = BoroczkyPacking()
    x = u * math.exp(log_y)
    p = HPoint.from_log(x, log_y)
    gaps = [distance(p, d.center) - d.radius for d in bp.bodies_in_ball(BallSpec(p, 1.0))]
    assume(all(abs(g) > 1e-9 for g in gaps))
    covered = any(g <= 0.0 for g in gaps)
    assert bp.covers(p) == covered
    assert bool(bp.covers_xy(np.array([p.x]), np.array([p.y]))[0]) == covered
    x_img = (x * math.exp(k)) * math.exp(k)
    # the image x must carry the digits of x: finite and not subnormal
    assume(x == 0.0 or sys.float_info.min <= abs(x_img) < math.inf)
    assert bp.covers(HPoint.from_log(x_img, log_y + 2.0 * k)) == covered


def test_boroczky_dilation_invariance():
    bp = BoroczkyPacking()
    g = Isometry.dilation(math.exp(2.0))
    for j in (-2, 0, 1):
        for k in (-3, 0, 2):
            moved = apply(g, bp.center(j, k))
            target = bp.center(j + 1, k)
            assert distance(moved, target) < 1e-9


def test_boroczky_disjointness_random_windows():
    bp = BoroczkyPacking()
    rng = np.random.default_rng(SEED)
    windows = []
    for _ in range(50):
        x = float(rng.uniform(-8.0, 8.0))
        ly = float(rng.uniform(-4.0, 4.0))
        windows.append(BallSpec(HPoint.from_log(x, ly), float(rng.uniform(0.5, 2.5))))
    assert min(pairwise_min_gap(bp.bodies_in_ball(w)) for w in windows) >= -1e-9


def test_boroczky_window_cap():
    bp = BoroczkyPacking()
    with pytest.raises(RangeError):
        bp.bodies_in_ball(BallSpec(ORIGIN, 40.0))


def _same_window(packing, ball):
    """The packing's window equals the one-disk-at-a-time oracle bit for
    bit, or both raise RangeError."""
    try:
        want = window_centers(packing, ball)
    except RangeError:
        with pytest.raises(RangeError):
            packing._centers(ball)
        return
    x, y = packing._centers(ball)
    assert np.array_equal(x, [c.x for c in want])
    assert np.array_equal(y, [c.y for c in want])


@settings(max_examples=300, deadline=None)
@given(
    u=st.floats(-4.0, 4.0),
    log_y=st.floats(-300.0, 300.0),
    w=st.one_of(st.just(0.0), st.floats(0.0, 720.0)),
    radius=st.one_of(st.floats(0.01, 6.0), st.floats(16.0, 40.0)),
)
@example(u=1.0, log_y=0.3, w=50.0, radius=3.0)
@example(u=3.0, log_y=-10.0, w=720.0, radius=1.0)
def test_boroczky_window_matches_per_disk_oracle(u, log_y, w, radius):
    # x = u y e^w: w = 0 keeps the window at the packing's own scale,
    # w > 36 reaches columns past 2^52, which raise RangeError (the first
    # example), and w > 709 overflows the ball center's row coordinate.
    # Radii past 16 trip the disk cap at the first row.
    x = u * math.exp(min(log_y + w, 709.0))
    _same_window(BoroczkyPacking(), BallSpec(HPoint.from_log(x, log_y), radius))


def test_boroczky_columns_stop_at_2_52():
    # at x = e^50.3 the columns near 1e21 are past 2^52, where k + 1/2 and
    # the row's x coordinates round together: both sides raise rather
    # than return coincident centers
    bp = BoroczkyPacking()
    ball = BallSpec(HPoint.from_log(math.exp(50.3), 0.3), 3.0)
    with pytest.raises(RangeError):
        bp.centers_in_ball(ball)
    with pytest.raises(RangeError):
        window_centers(bp, ball)
    # just below the bound (one row, three columns) every center is distinct
    k = 2**52 - 8
    ball = BallSpec(bp.center(0, k), 1.0)
    x, _ = bp._centers(ball)
    assert x.size >= 3 and (np.diff(x[:3]) > 0.0).all()
    _same_window(bp, ball)
    with pytest.raises(RangeError):
        bp._centers(BallSpec(bp.center(0, k + 8), 1.0))


# ---------------------------------------------------------------- gaps

_GAP_PACKINGS = {
    "boroczky": BoroczkyPacking(),
    "tight7": TightPacking(7),
    "tight8": TightPacking(8),
    "tight9": TightPacking(9),
}


@settings(max_examples=60, deadline=None)
@given(
    kind=st.sampled_from(sorted(_GAP_PACKINGS)),
    moved=st.booleans(),
    theta=st.floats(0.0, 2.0 * math.pi),
    shift=st.floats(-3.0, 3.0),
    u=st.floats(-2.0, 2.0),
    log_y=st.floats(-20.0, 20.0),
    radius=st.floats(0.3, 4.0),
)
def test_min_gap_matches_all_pairs_oracle(kind, moved, theta, shift, u, log_y, radius):
    # tight windows are the first shells about a folded center, Boroczky
    # windows hold tangent pairs within rows, moved windows carry both
    # through apply_xy
    packing = _GAP_PACKINGS[kind]
    if moved:
        g = Isometry.translation(shift) @ Isometry.rotation(theta, HPoint(0.4, 2.0))
        packing = TransformedPacking(g, packing)
    disks = packing.bodies_in_ball(BallSpec(HPoint.from_log(u * math.exp(log_y), log_y),
                                            radius))
    assert pairwise_min_gap(disks) == all_pairs_min_gap(disks)
    if len(disks) >= 2:
        last = disks[-1]
        with pytest.raises(DomainError):
            pairwise_min_gap(disks[:-1] + [HDisk(last.center, 0.5 * last.radius)])


def test_min_gap_of_few_disks():
    assert pairwise_min_gap([]) == math.inf
    assert pairwise_min_gap([HDisk(ORIGIN, 0.5)]) == math.inf
    # two disks on one vertical geodesic, 3 apart
    pair = [HDisk(ORIGIN, 0.5), HDisk(HPoint.from_log(0.0, 3.0), 0.5)]
    assert abs(pairwise_min_gap(pair) - 2.0) < 1e-12


def _off_axis(m, x, log_y):
    """A tight window of radius 2 about (x y, y), |x| far past the axis."""
    y = math.exp(log_y)
    return TightPacking(m).bodies_in_ball(BallSpec(HPoint.from_log(x * y, log_y), 2.0))


def _boroczky_a6():
    """A6's window: the Boroczky disks meeting B((0, 1), 6)."""
    return BoroczkyPacking().bodies_in_ball(BallSpec(ORIGIN, 6.0))


_GAP_WINDOWS = {
    "boroczky_a6": _boroczky_a6,
    "tight7": lambda: TightPacking(7).bodies_in_ball(BallSpec(HPoint(0.3, 2.0), 4.5)),
    "tight8": lambda: TightPacking(8).bodies_in_ball(BallSpec(ORIGIN, 4.0)),
    "tight12": lambda: TightPacking(12).bodies_in_ball(BallSpec(HPoint(-1.0, 0.5), 4.0)),
    "transformed": lambda: TransformedPacking(
        Isometry.rotation(0.9, HPoint(0.4, 2.0)) @ Isometry.translation(-1.3),
        TightPacking(7)).bodies_in_ball(BallSpec(ORIGIN, 4.0)),
    "boroczky_up30": lambda: BoroczkyPacking().bodies_in_ball(
        BallSpec(HPoint.from_log(0.2 * math.exp(30.0), 30.0), 4.0)),
    "boroczky_down30": lambda: BoroczkyPacking().bodies_in_ball(
        BallSpec(HPoint.from_log(-0.7 * math.exp(-30.0), -30.0), 4.0)),
    "tight7_up30": lambda: _off_axis(7, 0.3, 30.0),
    "tight7_down30": lambda: _off_axis(7, -0.3, -30.0),
    "off_axis_1e5": lambda: _off_axis(7, 1e5, 0.0),
    "off_axis_1e7": lambda: _off_axis(7, 1e7, 0.0),
    "off_axis_1e9": lambda: _off_axis(7, 1e9, 0.0),
    "off_axis_1e9_up30": lambda: _off_axis(8, -1e9, 30.0),
    "two": lambda: _boroczky_a6()[:2],
}


@pytest.mark.parametrize("name", sorted(_GAP_WINDOWS))
def test_min_gap_matches_kdtree_oracle(name):
    # the grid finds the closest pair the KD-tree's nearest sites found,
    # and its gap bit for bit, the off-axis windows' loss of up to
    # 1.2e-6 included
    disks = _GAP_WINDOWS[name]()
    assert len(disks) >= 2
    if name == "boroczky_a6":
        assert len(disks) == 1086
    assert pairwise_min_gap(disks) == kdtree_min_gap(disks)


def test_min_gap_of_repeated_centers():
    # a disk listed twice overlaps itself: the gap is -2r exactly
    disks = _boroczky_a6()
    disks = disks + disks[100:103]
    assert pairwise_min_gap(disks) == kdtree_min_gap(disks) == -2.0 * disks[0].radius


@pytest.mark.parametrize("name", sorted(_GAP_WINDOWS))
def test_min_gap_in_small_blocks_of_balls(monkeypatch, name):
    # no test window fills one block of _GAP_BALLS centers: blocks of 5
    # run the loop over blocks, their last one short
    disks = _GAP_WINDOWS[name]()
    want = pairwise_min_gap(disks)
    monkeypatch.setattr(packings, "_GAP_BALLS", 5)
    assert pairwise_min_gap(disks) == want


@pytest.mark.parametrize("log_y", [360.5, -360.5, 500.5, -500.5, 690.5, -690.5])
def test_min_gap_at_every_height(log_y):
    # the squares of these heights over- or underflow; the window scaled
    # by a power of two to height about 1 keeps them in range
    disks = BoroczkyPacking().bodies_in_ball(
        BallSpec(HPoint.from_log(-0.7 * math.exp(log_y), log_y), 5.0))
    e = round(log_y / math.log(2.0))
    scaled = [HDisk(HPoint(math.ldexp(d.center.x, -e), math.ldexp(math.exp(d.center.log_y), -e)),
                    d.radius) for d in disks]
    gap = pairwise_min_gap(disks)
    assert math.isfinite(gap)
    assert abs(gap - all_pairs_min_gap(scaled)) <= 1e-14


def test_min_gap_past_float_heights():
    # exp(log y) overflows past 709.78
    pair = [HDisk(HPoint.from_log(0.0, 710.0), 0.5), HDisk(HPoint.from_log(0.0, 712.0), 0.5)]
    with pytest.raises(RangeError):
        pairwise_min_gap(pair)


# ---------------------------------------------------------------- tight radius / density

def test_tight_radius_values_and_identity():
    r7 = tight_radius(7)
    assert abs(r7 - 0.5452748317535432) < 1e-15
    for m in range(7, 13):
        r = tight_radius(m)
        assert abs(math.cosh(r) - 1.0 / (2.0 * math.sin(math.pi / m))) < 1e-12
        # equilateral triangle with side 2 r_m has angles 2 pi / m
        gamma = math.acos(math.cosh(2 * r) / (math.cosh(2 * r) + 1.0))
        assert abs(gamma - 2.0 * math.pi / m) < 1e-12
    radii = [tight_radius(m) for m in range(7, 65)]
    assert all(b > a for a, b in zip(radii, radii[1:]))
    with pytest.raises(DomainError):
        tight_radius(6)
    with pytest.raises(DomainError):
        tight_radius(7.5)


def test_tight_density_formula_values():
    # frozen dual-evaluation oracle: (3 csc(pi/m) - 6)/(m - 6) evaluated at
    # full precision; the 6-digit display values match to ~1e-4
    d7 = tight_density_formula(7)
    assert abs(d7 - 0.9142946128874598) < 1e-15
    assert abs(d7 - 0.914307) < 2e-4
    assert abs(tight_density_formula(8) - 0.9196888946291293) < 1e-15
    vals = [tight_density_formula(m) for m in range(7, 65)]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    with pytest.raises(DomainError):
        tight_density_formula(6)


def test_fundamental_domain_dual_evaluation():
    # the fan area is within a few units in the last place of pi (m - 6) / m
    for m in range(7, 13):
        fd = TightPacking(m).fundamental_domain
        assert abs(fd.area() - math.pi * (m - 6) / m) < 2e-15
        dens = fd.covered_area() / fd.area()
        assert abs(dens - tight_density_formula(m)) < 2e-15


# ---------------------------------------------------------------- tight packing windows

def test_tight_centers_small_ball_is_first_shell():
    centers = TightPacking(7).centers_in_ball(BallSpec(ORIGIN, 1.2))
    assert len(centers) == 1 + 7
    r7 = tight_radius(7)
    dists = sorted(distance(ORIGIN, c) for c in centers)
    assert dists[0] == 0.0
    for d in dists[1:]:
        assert abs(d - 2.0 * r7) < 1e-9


def _vertices(packing, radius=5.0):
    """Vertices within radius of (0, 1) as a complex array."""
    centers = packing.centers_in_ball(BallSpec(ORIGIN, radius))
    return np.array([complex(c.x, c.y) for c in centers])


def test_tight_interior_vertices_have_m_neighbors(tight7):
    z = _vertices(tight7)
    r = tight7.disk_radius
    d0 = np.arccosh(1.0 + (z.real**2 + (z.imag - 1.0) ** 2) / (2.0 * z.imag))
    interior = np.flatnonzero(d0 <= 5.0 - 2.0 * r - 0.05)
    assert interior.size > 50
    for i in interior:
        cd = 1.0 + (np.abs(z - z[i]) ** 2) / (2.0 * z.imag * z[i].imag)
        d = np.arccosh(np.maximum(cd, 1.0))
        near = np.abs(d - 2.0 * r) <= 1e-9
        assert int(near.sum()) == 7


def test_tight_rotation_symmetry(tight7):
    z = _vertices(tight7)
    r = tight7.disk_radius
    # rotate about a first-shell vertex; window centers must map to centers
    w = HPoint.from_log(0.0, 2.0 * r)
    g = Isometry.rotation(2.0 * math.pi / 7, w)
    centers = tight7.centers_in_ball(BallSpec(w, 2.5))
    for c in centers:
        moved = apply(g, c)
        cd = 1.0 + ((z.real - moved.x) ** 2 + (z.imag - moved.y) ** 2) / (
            2.0 * z.imag * moved.y
        )
        best = float(np.arccosh(max(1.0, cd.min())))
        assert best <= 1e-6


def test_tight_covers_and_packing_bound(tight7):
    assert tight7.covers(ORIGIN)
    r = tight7.disk_radius
    # the incenter of a face triangle is the farthest point from all vertices
    assert not tight7.covers(HPoint(-0.27, math.exp(r * 0.96)))
    ball = BallSpec(ORIGIN, 3.0)
    inside = [c for c in tight7.centers_in_ball(ball) if distance(ORIGIN, c) <= 3.0 - r]
    assert len(inside) * ball_area(r) < ball_area(3.0)
    assert pairwise_min_gap(tight7.bodies_in_ball(BallSpec(ORIGIN, 3.0))) >= -1e-9


def test_tight_covers_xy_matches_scalar(tight7):
    ball = BallSpec(ORIGIN, 3.0)
    xs, ys = sample_ball_uniform(ball, SamplePlan(seed=SEED + 1, n=500))
    got = tight7.covers_xy(xs, ys)
    for i in range(0, 500, 23):
        assert tight7.covers(HPoint(xs[i], ys[i])) == bool(got[i])
    frac = float(np.mean(got))
    want = tight_density_formula(7)
    assert abs(frac - want) < 4.0 * math.sqrt(want * (1 - want) / 500) + 0.02


def test_tight_window_guards():
    tp = TightPacking(7)
    with pytest.raises(RangeError, match="2000000 disks"):
        tp.centers_in_ball(BallSpec(ORIGIN, 25.0))
    # tangent disks cover the whole geodesic x = 0, however far out
    assert tp.covers(HPoint(0.0, math.exp(24.0)))
    with pytest.raises(DomainError):
        tp.covers_xy(np.array([0.0, 1.0]), np.array([1.0, 0.0]))
    # a point beyond float reach never folds: a typed error, not a hang
    with pytest.raises(RangeError), np.errstate(over="ignore"):
        tp.covers(HPoint(1e200, 1.0))
    with pytest.raises(DomainError):
        TightPacking(6)
    with pytest.raises(DomainError):
        TightPacking(7.0)


# ---------------------------------------------------------------- layered vertices
# The layered generator names each vertex once; the generator it replaced
# turned every rim vertex's neighbour through all turns and merged the
# duplicates with a KD-tree. Both build each vertex from the same parent
# and turn, so the coordinates agree to the last bit.


@pytest.mark.parametrize("m", range(7, 13))
def test_tight_layers_match_dedup_oracle(m):
    new, old = TightPacking(m), DedupTightPacking(m)
    new._grow(7.5)
    old._grow(7.5)
    assert new._z.size > 500
    assert np.array_equal(np.sort_complex(new._z), np.sort_complex(old._z))
    assert np.array_equal(new._cd, old._cd)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(7, 12),
    u=st.floats(-3.0, 3.0),
    log_y=st.floats(-12.0, 12.0),
    radius=st.floats(0.5, 6.0),
)
def test_tight_windows_match_dedup_oracle(m, u, log_y, radius):
    ball = BallSpec(HPoint.from_log(u * math.exp(log_y), log_y), radius)
    got = TightPacking(m)._centers(ball)
    want = DedupTightPacking(m)._centers(ball)
    got, want = got[0] + 1j * got[1], want[0] + 1j * want[1]
    assert np.array_equal(np.sort_complex(got), np.sort_complex(want))


def test_tight_growth_is_amortized():
    # a window creeping outwards regenerates the neighbourhood with ln 2
    # of headroom, not once per step
    tp = TightPacking(7)
    radii = []
    grow = tp._grow
    tp._grow = lambda r: (radii.append(r), grow(r))[1]
    for reach in np.linspace(5.0, 9.0, 100):
        tp.centers_in_ball(BallSpec(ORIGIN, float(reach)))
    assert 5 <= len(radii) <= 8
    assert all(b >= a + math.log(2.0) for a, b in zip(radii, radii[1:]))
    old = DedupTightPacking(7)
    old._grow(radii[-1])
    assert np.array_equal(np.sort_complex(tp._z), np.sort_complex(old._z))


# ---------------------------------------------------------------- tight fold oracles
# Coverage and window queries fold into one triangle of the (2,3,m) group.
# These tests hold them against plain vertex enumeration around (0, 1):
# a KD-tree over the vertices, and a distance filter without any fold.


def _nearest_gap(a, b):
    """Hyperbolic distance from each point of a to its nearest point of b."""
    s = np.abs(a[:, None] - b[None, :]) / (2.0 * np.sqrt(a.imag[:, None] * b.imag[None, :]))
    return 2.0 * np.arcsinh(s.min(axis=1))


@pytest.mark.parametrize("m", [7, 8, 9])
def test_tight_fold_covers_matches_vertex_tree(m):
    tp = TightPacking(m)
    r = tp.disk_radius
    parts = [
        sample_ball_uniform(BallSpec(ORIGIN, radius), SamplePlan(seed=SEED + 10 * m + k, n=25000))
        for k, radius in enumerate((2.0, 5.0, 8.0))
    ]
    xs = np.concatenate([p[0] for p in parts])
    ys = np.concatenate([p[1] for p in parts])
    z = _vertices(tp, 8.0 + r)
    # p is covered iff a vertex lies in the r-ball about p, whose Euclidean
    # form is the disk about (x, y cosh r) of radius y sinh r
    hits = cKDTree(np.column_stack([z.real, z.imag])).query_ball_point(
        np.column_stack([xs, ys * math.cosh(r)]), ys * math.sinh(r), return_length=True
    )
    assert np.array_equal(tp.covers_xy(xs, ys), np.asarray(hits) > 0)


@pytest.mark.parametrize("m", [7, 8])
def test_tight_fold_windows_match_brute_force(m):
    tp = TightPacking(m)
    rng = np.random.default_rng(SEED + m)
    for _ in range(30):
        c = HPoint.from_log(rng.uniform(-3.0, 3.0), rng.uniform(-4.0, 4.0))
        radius = float(rng.uniform(0.5, 4.0))
        got = np.array([complex(v.x, v.y) for v in tp.centers_in_ball(BallSpec(c, radius))])
        z = _vertices(tp, distance(ORIGIN, c) + radius + 1e-6)
        want = z[_nearest_gap(z, np.array([complex(c.x, c.y)])) <= radius]
        assert got.size == want.size > 0
        assert _nearest_gap(got, want).max() <= 1e-9
        assert _nearest_gap(want, got).max() <= 1e-9


def _chamber_images(m, x, y):
    """(x, y) reflected across each chamber wall, then rotated by 2pi/m about (0, 1)."""
    e2r = math.exp(2.0 * tight_radius(m))
    c, r2 = 1.0 / math.tan(math.pi / m), 1.0 / math.sin(math.pi / m) ** 2
    q, dq = x * x + y * y, (x - c) ** 2 + y * y
    gx, gy = Isometry.rotation(2.0 * math.pi / m, ORIGIN).apply_xy(x, y)
    return [
        (-x, y),
        (e2r * x / q, e2r * y / q),
        (c + r2 * (x - c) / dq, r2 * y / dq),
        (float(gx), float(gy)),
    ]


@settings(max_examples=200, deadline=None)
@given(
    m=st.sampled_from([7, 8, 9, 12]),
    u=st.floats(-3.0, 3.0),
    log_y=st.floats(-30.0, 30.0),
)
def test_tight_covers_invariant_under_triangle_group(m, u, log_y):
    tp = TightPacking(m)
    r = tp.disk_radius
    y = math.exp(log_y)
    p = HPoint(u * y, y)
    near = min(distance(p, v) for v in tp.centers_in_ball(BallSpec(p, r + 0.5)))
    # folding carries p around circles about (0, 1), on which half-plane
    # coordinates resolve distances to about 1e-16 e^d; stay that far off
    # the disk boundaries, where roundoff may tip the answer either way
    assume(abs(near - r) > 1e-14 * math.exp(distance(ORIGIN, p)))
    covered = tp.covers(p)
    assert covered == (near <= r)
    pts = [(p.x, p.y)] + _chamber_images(m, p.x, p.y)
    for qx, qy in pts[1:]:
        assert tp.covers(HPoint(qx, qy)) == covered
    xs, ys = np.array(pts).T
    assert tp.covers_xy(xs, ys).tolist() == [tp.covers(HPoint(a, b)) for a, b in pts]


# ---------------------------------------------------------------- sector fold
# The fold turns a point about (0, 1), mirrors it and inverts it; the wall
# fold it replaced reflects across one chamber wall at a time. Both move
# points around circles about (0, 1), on which half-plane coordinates
# resolve distances to about 1e-16 e^d, d the distance to (0, 1), so the
# two agree to within 1e-12 e^d.


def _spokes(log_y, d, theta, n):
    """n points at distance d from (0, e^log_y), in directions theta + 2 pi j / n."""
    return polar_xy(0.0, math.exp(log_y), d, theta + 2.0 * math.pi * np.arange(n) / n)


def _slack(x, y):
    """1e-12 e^d, d the distance of (x, y) to (0, 1)."""
    return 1e-12 * np.exp(np.arccosh(np.maximum(cosh_distance_xy(x, y, 0.0, 1.0), 1.0)))


# Points lie within 25 of (0, 1), where the slack 1e-12 e^d is under 0.08;
# beyond about 27 it exceeds every margin a folded point can have, so no
# verdict would be firm.
@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(7, 12),
    log_y=st.floats(-12.5, 12.5),
    d=st.floats(0.0, 12.5),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_sector_fold_verdicts_match_wall_fold(m, log_y, d, theta):
    tp, oracle = TightPacking(m), WallFoldTightPacking(m)
    xs, ys = _spokes(log_y, d, theta, 32)
    fx, fy = oracle._wall_fold(xs, ys)
    # only a point whose folded image lies within the fold's precision of
    # the disk boundary may go either way
    margin = np.abs(cosh_distance_xy(fx, fy, 0.0, 1.0) - math.cosh(tp.disk_radius))
    firm = margin > _slack(xs, ys)
    got, want = tp.covers_xy(xs, ys), oracle.covers_xy(xs, ys)
    assert firm.any()
    assert np.array_equal(got[firm], want[firm])
    assert tp.covers(HPoint(xs[0], ys[0])) == bool(got[0])


# Centers lie within 25 of (0, 1), where the slack 1e-12 e^d is under 0.08;
# beyond about 29 it exceeds the window radius, so no vertex would be firm,
# and the wall fold misplaces windows near 46-50. Far windows are checked
# by test_far_tight_windows_are_admissible_and_in_place. Every ball of
# radius 1.5 holds a vertex: the circumradius of the {3,m} triangle,
# arccosh(cot(pi/3) cot(pi/m)), is at most 1.42 for m <= 12.
@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(7, 12),
    log_y=st.floats(-12.5, 12.5),
    d=st.floats(0.0, 12.5),
    theta=st.floats(0.0, 2.0 * math.pi),
    radius=st.floats(1.5, 3.0),
)
def test_sector_fold_windows_match_wall_fold(m, log_y, d, theta, radius):
    (cx,), (cy,) = _spokes(log_y, d, theta, 1)
    ball = BallSpec(HPoint(cx, cy), radius)
    tol = float(_slack(cx, cy))
    windows = []
    for packing in (TightPacking(m), WallFoldTightPacking(m)):
        x, y = packing._centers(ball)
        # a vertex within tol of the window's rim may fall either way
        rim = np.arccosh(np.maximum(cosh_distance_xy(x, y, cx, cy), 1.0))
        firm = np.abs(rim - radius) > tol
        windows.append(x[firm] + 1j * y[firm])
    got, want = windows
    assert got.size == want.size > 0
    assert _nearest_gap(got, want).max() <= tol
    assert _nearest_gap(want, got).max() <= tol


# ---------------------------------------------------------------- composed windows
# A window is carried home by one isometry composed from the center's
# sweeps; the replay it replaced undid every sweep on every vertex, so
# each vertex picked up the fold's roundoff, about 1e-16 e^d with d the
# center's distance to (0, 1), and the gaps between vertices with it.


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(7, 12),
    d=st.floats(0.0, 10.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    radius=st.floats(0.5, 4.0),
)
def test_composed_windows_match_replay(m, d, theta, radius):
    (cx,), (cy,) = polar_xy(0.0, 1.0, d, np.array([theta]))
    ball = BallSpec(HPoint(cx, cy), radius)
    tol = 1e-12 * math.exp(d)
    windows = []
    for packing in (TightPacking(m), ReplayTightPacking(m)):
        x, y = packing._centers(ball)
        # a vertex within tol of the window's rim may fall either way
        rim = np.arccosh(np.maximum(cosh_distance_xy(x, y, cx, cy), 1.0))
        firm = np.abs(rim - radius) > tol
        windows.append(x[firm] + 1j * y[firm])
    got, want = windows
    assert got.size == want.size
    if got.size:
        assert _nearest_gap(got, want).max() <= tol
        assert _nearest_gap(want, got).max() <= tol


def _assert_window_in_place(packing, ball):
    """The window's disks do not overlap, its centers lie in the ball, and
    every center 2 r_m inside the rim has its m neighbours in the window."""
    x, y = packing._centers(ball)
    r = packing.disk_radius
    assert pairwise_min_gap([HDisk(HPoint(a, b), r) for a, b in zip(x, y)]) >= -1e-9
    c = ball.center
    d = np.arccosh(np.maximum(cosh_distance_xy(x, y, c.x, c.y), 1.0))
    assert (d <= ball.radius + 1e-9).all()
    for i in np.flatnonzero(d <= ball.radius - 2.0 * r - 1e-6):
        e = np.arccosh(np.maximum(cosh_distance_xy(x, y, x[i], y[i]), 1.0))
        assert np.count_nonzero(np.abs(e - 2.0 * r) <= 1e-9) == packing.m


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(7, 12),
    u=st.floats(-1.0, 1.0),
    log_y=st.floats(-50.0, 50.0),
    radius=st.floats(0.5, 4.0),
)
# the replay's gap here was -2.1e-9; at log-height 40 its vertices lay up
# to 5 past the ball
@example(m=7, u=0.0, log_y=14.0, radius=4.0)
@example(m=7, u=0.5, log_y=40.0, radius=3.0)
def test_far_tight_windows_are_admissible_and_in_place(m, u, log_y, radius):
    _assert_window_in_place(
        TightPacking(m), BallSpec(HPoint.from_log(u * math.exp(log_y), log_y), radius))


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(7, 12),
    u=st.floats(-1.0, 1.0),
    log_y=st.floats(50.0, 200.0),
    sign=st.sampled_from([-1.0, 1.0]),
    radius=st.floats(0.5, 4.0),
)
def test_windows_past_float_reach_are_right_or_raise(m, u, log_y, sign, radius):
    ball = BallSpec(HPoint.from_log(u * math.exp(sign * log_y), sign * log_y), radius)
    try:
        _assert_window_in_place(TightPacking(m), ball)
    except RangeError:
        pass


@pytest.mark.parametrize("log_y", [-200.0, 200.0])
def test_window_beyond_the_composed_isometry_raises(log_y):
    # floats cannot form the isometry that carries this window home; the
    # replay returned overlapping disks here (gap -1.09)
    with pytest.raises(RangeError):
        TightPacking(7).bodies_in_ball(BallSpec(HPoint.from_log(0.0, log_y), 2.0))


@pytest.mark.parametrize("m", range(7, 13))
def test_tight_covers_resolves_the_disk_boundary(m):
    # 1e-11 inside and outside the disk about (0, 1); straight along an
    # edge, the point past the rim lies in the neighbouring disk
    tp = TightPacking(m)
    r = tp.disk_radius
    theta = 2.0 * math.pi * np.arange(4 * m) / (4 * m)
    along_edge = np.arange(4 * m) % 4 == 0
    assert tp.covers_xy(*polar_xy(0.0, 1.0, r - 1e-11, theta)).all()
    assert np.array_equal(tp.covers_xy(*polar_xy(0.0, 1.0, r + 1e-11, theta)), along_edge)


def test_sector_fold_raises_at_the_first_sweep_beyond_float_reach():
    tp = TightPacking(7)
    sweeps = []
    sweep = tp._sweep
    tp._sweep = lambda *args: (sweeps.append(args[0].size), sweep(*args))[1]
    with pytest.raises(RangeError), np.errstate(over="ignore"):
        tp.covers_xy(np.array([0.5, 1e200]), np.array([1.0, 1.0]))
    assert sweeps == [2]
    # x^2 + y^2 still finite: the point folds
    sweeps.clear()
    assert tp.covers_xy(np.array([1e150]), np.array([1.0])).shape == (1,)
    assert len(sweeps) > 1


def test_sector_fold_memory_is_blockwise():
    # temporaries are one block long, whatever the number of points
    tp = TightPacking(7)
    xs, ys = sample_ball_uniform(BallSpec(ORIGIN, 12.0), SamplePlan(seed=SEED + 5, n=200_000))
    tp.covers_xy(xs[:10], ys[:10])
    tracemalloc.start()
    try:
        tp.covers_xy(xs, ys)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the verdicts, plus under 3 MB
    assert peak < xs.size + 3e6


# ---------------------------------------------------------------- jumps
# covers_xy first carries far points near (0, 1) by symmetries of the
# packing from a table, then sweeps them; the sweeps alone reach the same
# chamber one edge at a time.


@pytest.mark.parametrize("m", [7, 8, 12, 18])
def test_jumped_fold_verdicts_match_sweeps(m):
    tp, oracle = TightPacking(m), SweepTightPacking(m)
    xs, ys = sample_ball_uniform(BallSpec(ORIGIN, 12.0), SamplePlan(seed=SEED + m, n=100_000))
    assert np.array_equal(tp.covers_xy(xs, ys), oracle.covers_xy(xs, ys))
    assert tp._jumps is not None and oracle._jumps is None
    g = Isometry.translation(0.7) @ Isometry.rotation(1.1, HPoint(0.2, 1.5))
    c = apply(g, ORIGIN)
    xs, ys = sample_ball_uniform(BallSpec(c, 12.0), SamplePlan(seed=SEED + 20 + m, n=100_000))
    got = TransformedPacking(g, tp).covers_xy(xs, ys)
    assert np.array_equal(got, TransformedPacking(g, oracle).covers_xy(xs, ys))


@pytest.mark.parametrize("m", range(7, 13))
def test_jump_table_sends_each_edge_to_the_chamber(m):
    tp = TightPacking(m)
    bounds, index, coef = tp._jump_table()
    # the table holds whole shells, one edge wide each
    rings = tp._rings(2.0 * tp.disk_radius * len(index) + 1e-9)
    z, n = (np.concatenate(parts) for parts in zip(*rings))
    assert coef.shape == (4, z.size)
    assert np.allclose(coef[0] * coef[3] - coef[1] * coef[2], 1.0, rtol=0.0, atol=1e-12)
    a, b, c, d = coef
    top = 1j * math.exp(2.0 * tp.disk_radius)
    for v, want in ((z, 1j), (n, top)):
        got = (a * v + b) / (c * v + d)
        assert _nearest_gap(got, np.array([want])).max() <= 1e-12
    # every bin names a vertex of its own shell
    t = cosh_distance_xy(z.real, z.imag, 0.0, 1.0) - 1.0
    assert index.shape == (bounds.size + 1, 4096)
    assert np.array_equal(np.searchsorted(bounds, t[index]), np.indices(index.shape)[0])


@pytest.mark.parametrize("m", [7, 8, 12, 18])
def test_jumped_fold_lands_within_its_error_bound(m):
    # far out, the jumped and the swept fold part by roundoff: within
    # 5e-15 e^d of each other (measured 1.1e-15 for m <= 12, 4.7e-15 for
    # m = 18), and their verdicts differ only within that of a disk's edge
    tp, oracle = TightPacking(m), SweepTightPacking(m)
    xs, ys = sample_ball_uniform(BallSpec(ORIGIN, 24.0), SamplePlan(seed=SEED + 30 + m, n=20_000))
    bound = 5e-15 * np.exp(np.arccosh(cosh_distance_xy(xs, ys, 0.0, 1.0)))
    ax, ay, _ = tp._fold(xs, ys)
    bx, by, _ = oracle._fold(xs, ys)
    gap = 2.0 * np.arcsinh(np.hypot(ax - bx, ay - by) / (2.0 * np.sqrt(ay * by)))
    assert (gap <= bound).all()
    edge = np.abs(np.arccosh(cosh_distance_xy(bx, by, 0.0, 1.0)) - tp.disk_radius)
    clear = edge > bound
    assert clear.mean() > 0.99
    got, want = tp.covers_xy(xs, ys), oracle.covers_xy(xs, ys)
    assert np.array_equal(got[clear], want[clear])


def test_points_past_the_jump_bound_fold_by_sweeps_alone():
    tp, oracle = TightPacking(7), SweepTightPacking(7)
    xs, ys = sample_ball_uniform(BallSpec(ORIGIN, 36.0), SamplePlan(seed=SEED + 40, n=5_000))
    past = cosh_distance_xy(xs, ys, 0.0, 1.0) - 1.0 >= _JUMP_BOUND * (1.0 + 1e-9)
    assert past.mean() > 0.9
    for got, want in zip(tp._fold(xs[past], ys[past]), oracle._fold(xs[past], ys[past])):
        assert np.array_equal(got, want)


def test_jumps_cut_the_sweeps_per_point():
    tp = TightPacking(7)
    xs, ys = sample_ball_uniform(BallSpec(ORIGIN, 12.0), SamplePlan(seed=SEED + 6, n=100_000))
    swept = []
    sweep = tp._sweep
    tp._sweep = lambda *args: (swept.append(args[0].size), sweep(*args))[1]
    tp.covers_xy(xs, ys)
    # the sweeps alone take 12.5 a point here
    assert sum(swept) / xs.size < 3.0


def test_near_points_leave_the_jump_table_unbuilt():
    tp = TightPacking(7)
    two_edges = 4.0 * tp.disk_radius
    xs, ys = sample_ball_uniform(BallSpec(ORIGIN, two_edges - 1e-6), SamplePlan(seed=SEED + 7, n=50_000))
    tp.covers_xy(xs, ys)
    tp.covers_xy(*polar_xy(0.0, 1.0, two_edges - 1e-6, np.linspace(0.0, 2.0 * math.pi, 1000)))
    # the packing metric's level nets and boundary rings at k = 1
    g = Isometry.translation(0.4) @ Isometry.rotation(1.0, HPoint(0.2, 1.1))
    truncate(tp, k_max=1)
    truncate(TransformedPacking(g, tp), k_max=1)
    assert tp._jumps is None


# ---------------------------------------------------------------- transformed

def test_transformed_packing_matches_base():
    base = BoroczkyPacking()
    g = Isometry.rotation(0.7, HPoint(0.4, 2.0)) @ Isometry.translation(0.3)
    moved = TransformedPacking(g, base)
    ball = BallSpec(ORIGIN, 3.0)
    xs, ys = sample_ball_uniform(ball, SamplePlan(seed=SEED + 2, n=1500))
    gx, gy = g.apply_xy(xs, ys)
    assert np.array_equal(moved.covers_xy(gx, gy), base.covers_xy(xs, ys))
    # bodies of the moved packing are the moved bodies
    c = apply(g, ORIGIN)
    got = moved.bodies_in_ball(BallSpec(c, 2.0))
    want = base.bodies_in_ball(BallSpec(ORIGIN, 2.0))
    assert len(got) == len(want)
    for dg, dw in zip(got, want):
        assert distance(dg.center, apply(g, dw.center)) < 1e-9


def test_transformed_covers_on_region_and_packing_bases():
    # the scalar answer of a moved region (a stripe) and a moved packing
    # is the base's coverage of the pulled-back point
    g = Isometry.translation(0.3) @ Isometry.dilation(1.7)
    xs, ys = sample_ball_uniform(BallSpec(ORIGIN, 3.0), SamplePlan(seed=SEED + 3, n=600))
    bx, by = g.inverse().apply_xy(xs, ys)
    for base in (StripeModel(1.0), BoroczkyPacking()):
        moved = TransformedPacking(g, base)
        got = [moved.covers(HPoint(x, y)) for x, y in zip(xs, ys)]
        assert all(isinstance(v, bool) for v in got)
        assert got == base.covers_xy(bx, by).tolist()
        assert got == moved.covers_xy(xs, ys).tolist()
        assert 0 < sum(got) < len(got)


@settings(max_examples=150, deadline=None)
@given(
    log_lam=st.one_of(st.floats(-300.0, 300.0), st.floats(-695.0, -685.0)),
    shift=st.floats(-5.0, 5.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    u=st.floats(-2.0, 2.0),
    v=st.floats(-2.0, 2.0),
    radius=st.one_of(st.floats(0.1, 3.0), st.floats(14.0, 30.0)),
)
def test_moved_tight_window_matches_per_center_apply(tight7, log_lam, shift, theta, u, v,
                                                     radius):
    # g carries (0, 1) to lam (shift + i); near log-height -690 some image
    # heights fall below the smallest an isometry may produce, and radii
    # past 14 exceed the tight window cap
    lam = math.exp(log_lam)
    g = Isometry.dilation(lam) @ Isometry.translation(shift) @ Isometry.rotation(theta)
    center = HPoint.from_log((shift + u) * lam, log_lam + v)
    _same_window(TransformedPacking(g, tight7), BallSpec(center, radius))


def test_moved_region_has_no_bodies():
    moved = TransformedPacking(Isometry.translation(0.3), StripeModel(5.0))
    with pytest.raises(UnsupportedOperationError):
        moved.bodies_in_ball(BallSpec(ORIGIN, 1.0))
    with pytest.raises(UnsupportedOperationError):
        moved.centers_in_ball(BallSpec(ORIGIN, 1.0))


# ---------------------------------------------------------------- bricks

def test_brick_area_closed_form_and_quadrature():
    t = BrickTile()
    assert abs(t.area() - math.exp(0.5) * (1.0 - math.exp(-2.0))) < 1e-15
    reg = brick_region(t)
    quad_area = reg.exact_area_in_ball(BallSpec(ORIGIN, 4.0))
    assert abs(quad_area - t.area()) <= 1e-9 * t.area()
    # congruent copy at another level and column: same closed form,
    # quadrature agrees through the isometry
    t2 = BrickTile(j=2, k=3)
    assert t2.area() == t.area()
    mid = HPoint(0.5 * sum(t2.x_bounds), math.exp(t2.log_s + 1.0))
    quad2 = brick_region(t2).exact_area_in_ball(BallSpec(mid, 4.0))
    assert abs(quad2 - t2.area()) <= 1e-9 * t2.area()
    # a ball whose Euclidean form overflows is out of range, even far away
    with pytest.raises(RangeError):
        brick_region(t).exact_area_in_ball(BallSpec(HPoint.from_log(0.0, 650.0), 100.0))


def test_brick_validation():
    with pytest.raises(DomainError):
        BrickTile(family_offset=2.0)
    with pytest.raises(DomainError):
        BrickTile(width_param=0.0)


def test_brick_family_partitions_plane():
    rng = np.random.default_rng(SEED)
    for offset, w in ((0.0, math.exp(0.5)), (1.0, math.exp(1.5)), (0.3, 2.0)):
        for _ in range(25):
            p = HPoint(float(rng.uniform(-5, 5)), math.exp(float(rng.uniform(-3, 3))))
            home = BrickTile.containing(p, offset, w)
            hits = 0
            for dj in (-1, 0, 1):
                for dk in (-1, 0, 1):
                    t = BrickTile(home.j + dj, home.k + dk, offset, w)
                    hits += brick_region(t).contains(p)
            assert hits == 1


def test_brick_nests_one_disk_tangent():
    # offset-0 family with w = e^{1/2}: brick (j, k) holds the row-j disk
    # of column k, tangent to both side walls
    bp = BoroczkyPacking()
    t = BrickTile(j=0, k=0)
    reg = brick_region(t)
    c = bp.center(0, 0)
    assert reg.contains(c)
    circ = bp.bodies_in_ball(BallSpec(c, 0.01))[0].euclid_form()
    xa, xb = t.x_bounds
    assert abs((circ.h - circ.r) - xa) < 1e-12
    assert abs((circ.h + circ.r) - xb) < 1e-12
    # offset-1 family with w = e^{3/2}: one row-(j+1) disk per brick
    t1 = BrickTile(j=0, k=0, family_offset=1.0, width_param=math.exp(1.5))
    reg1 = brick_region(t1)
    c1 = bp.center(1, 0)
    assert reg1.contains(c1)
    ya, yb = t1.y_bounds
    assert ya < c1.y * math.exp(-bp.disk_radius) and c1.y * math.exp(bp.disk_radius) < yb


def test_brick_sampler_stays_inside_and_is_deterministic():
    t = BrickTile(j=-1, k=2, family_offset=0.7, width_param=1.3)
    reg = brick_region(t)
    plan = SamplePlan(seed=77, n=4000)
    xs, ys = reg.sample_uniform(plan)
    assert reg.covers_xy(xs, ys).all()
    xs2, ys2 = reg.sample_uniform(plan)
    assert np.array_equal(xs, xs2) and np.array_equal(ys, ys2)
    # 1/y^2 height law: fraction below the geometric midline e s is
    # (1 - e^{-1})/(1 - e^{-2})
    want = (1.0 - math.exp(-1.0)) / (1.0 - math.exp(-2.0))
    got = float(np.mean(ys < t.s * math.e))
    assert abs(got - want) <= 4.0 * math.sqrt(want * (1 - want) / plan.n)

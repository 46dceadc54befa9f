import functools
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy import stats

import hypack
from hypack.errors import DomainError
from hypack.hgeom import (
    angle_of_parallelism,
    apply,
    ball_area,
    BallSpec,
    Geodesic,
    GeodesicPolygon,
    HPoint,
    Isometry,
    ORIGIN,
    polar_xy,
)
from hypack.regions import (
    SamplePlan,
    FullPlane,
    EmptyRegion,
    HalfSpaceRegion,
    PolygonRegion,
    StripeRegion,
    AnnulusRegionEuclid,
    sample_ball_uniform,
    mc_area_fraction,
    quad_stripe_area,
    quad_black_fraction,
    stripe_index_range,
    annulus_fraction_euclid,
    annulus_fraction_euclid_brute,
    _QUAD_REL,
)
from hypack.packings import BrickTile, TightPacking, brick_region
from hypack.voronoi import packing_cell
from oracles import ArcGeodesic, ArcPolygon, ArcPolygonRegion, distance, signed_distance_xy

SEED = 811


def hyperbolic_dist_xy(xs, ys, cx, cy):
    return np.arccosh(1.0 + ((xs - cx) ** 2 + (ys - cy) ** 2) / (2.0 * ys * cy))


# ---------------------------------------------------------------- sampling

def test_sampler_is_deterministic():
    ball = BallSpec(HPoint(0.3, 2.0), 3.0)
    plan = SamplePlan(seed=42, n=5000)
    xs1, ys1 = sample_ball_uniform(ball, plan)
    xs2, ys2 = sample_ball_uniform(ball, plan)
    assert np.array_equal(xs1, xs2) and np.array_equal(ys1, ys2)
    xs3, _ = sample_ball_uniform(ball, SamplePlan(seed=43, n=5000))
    assert not np.array_equal(xs1, xs3)


def test_sampler_stays_in_ball():
    ball = BallSpec(HPoint(-1.0, 0.5), 4.0)
    xs, ys = sample_ball_uniform(ball, SamplePlan(seed=7, n=20000))
    d = hyperbolic_dist_xy(xs, ys, ball.center.x, ball.center.y)
    assert float(np.max(d)) <= ball.radius + 1e-9


def test_sampler_uniformity_subball_and_halves():
    # area-uniformity oracle: fraction inside the concentric half-radius ball
    ball = BallSpec(HPoint(0.7, 2.0), 2.0)
    n = 100_000
    xs, ys = sample_ball_uniform(ball, SamplePlan(seed=5, n=n))
    d = hyperbolic_dist_xy(xs, ys, ball.center.x, ball.center.y)
    want = ball_area(1.0) / ball_area(2.0)
    got = float(np.mean(d <= 1.0))
    sigma = math.sqrt(want * (1 - want) / n)
    assert abs(got - want) <= 4 * sigma
    # symmetry: the vertical geodesic through the center splits it in half
    got_half = float(np.mean(xs >= ball.center.x))
    assert abs(got_half - 0.5) <= 4 * math.sqrt(0.25 / n)


def test_mc_full_and_empty():
    ball = BallSpec(ORIGIN, 1.5)
    full = mc_area_fraction(FullPlane(), ball, SamplePlan(seed=1, n=1000))
    assert full.fraction == 1.0 and full.std_error == 0.0
    empty = mc_area_fraction(EmptyRegion(), ball, SamplePlan(seed=1, n=1000))
    assert empty.fraction == 0.0
    # covers_xy keeps the input's shape, as for every other region
    xs, ys = np.zeros((2, 3)), np.ones((2, 3))
    assert FullPlane().covers_xy(xs, ys).shape == (2, 3)
    assert EmptyRegion().covers_xy(xs, ys).shape == (2, 3)


@pytest.mark.parametrize("region", [
    FullPlane(),
    EmptyRegion(),
    HalfSpaceRegion(Geodesic.vertical(0.2)),
    HalfSpaceRegion(Geodesic.vertical(-1.0), sign=-1),
    StripeRegion(1.0),
    PolygonRegion(TightPacking(7).fundamental_domain.polygon),
    brick_region(BrickTile(j=-1)),
    AnnulusRegionEuclid(),
], ids=lambda region: type(region).__name__)
def test_covers_xy_keeps_shape_and_agrees_with_scalars(region):
    rng = np.random.default_rng(SEED + 9)
    xs, ys = rng.uniform(-6.0, 6.0, (3, 40)), np.exp(rng.uniform(-3.0, 3.0, (3, 40)))
    got = region.covers_xy(xs, ys)
    assert got.shape == xs.shape
    for x, y, want in zip(xs.ravel(), ys.ravel(), got.ravel()):
        one = region.covers_xy(x, y)
        assert np.shape(one) == () and bool(one) == want


def test_plan_validation():
    for seed, n in ((0, 0), (-1, 10), (0.5, 10), ("1", 10), (None, 10), (0, 10.0), (0, "10")):
        with pytest.raises(DomainError):
            SamplePlan(seed=seed, n=n)
    # python and numpy integers both pass
    SamplePlan(seed=np.int64(3), n=np.uint32(5))
    SamplePlan(seed=2**64, n=1)


# ---------------------------------------------------------------- stripes

def test_stripe_region_membership_and_boundaries():
    W = 5.0
    reg = StripeRegion(W)
    assert reg.contains(ORIGIN)  # stripe j=-1 is black
    assert not reg.contains(HPoint(0, math.exp(W)))  # stripe j=0
    assert reg.contains(HPoint.from_log(0, 1.5 * W))  # bottom edge of stripe 1
    assert not reg.contains(HPoint.from_log(0, 1.5 * W - 1e-9))
    with pytest.raises(DomainError):
        StripeRegion(0.0)


@settings(max_examples=300, deadline=None)
@given(
    W=st.floats(0.1, 10.0),
    log_y=st.floats(-30.0, 30.0),
    k=st.integers(-500, 500),
    x=st.floats(-10.0, 10.0),
)
def test_stripe_contains_invariant_under_double_period(W, log_y, k, x):
    # log y -> log y + 2kW maps the black stripes to themselves; shifts
    # up to 10^4 reach log-heights where y itself under- or overflows
    reg = StripeRegion(W)
    s = log_y / W - 0.5
    assume(abs(s - round(s)) > 1e-9)
    black = reg.contains(HPoint.from_log(x, log_y))
    assert bool(reg.covers_xy(np.array([x]), np.array([math.exp(log_y)]))[0]) == black
    assert reg.contains(HPoint.from_log(x, log_y + 2.0 * k * W)) == black


def test_stripe_partition_sums_to_ball_area():
    for W in (1.0, 3.0, 5.0):
        for N in range(2, 9):
            R = (N + 0.5) * W
            j_lo, j_hi = stripe_index_range(W, R)
            total = sum(quad_stripe_area(W, R, j) for j in range(j_lo, j_hi + 1))
            assert abs(total - ball_area(R)) <= 1e-6 * ball_area(R)


def test_black_white_split_is_exhaustive():
    for W, R in ((2.0, 9.0), (5.0, 32.5), (0.7, 4.2)):
        j_lo, j_hi = stripe_index_range(W, R)
        black = sum(quad_stripe_area(W, R, j) for j in range(j_lo, j_hi + 1) if j % 2)
        white = sum(
            quad_stripe_area(W, R, j) for j in range(j_lo, j_hi + 1) if not j % 2
        )
        assert abs((black + white) / ball_area(R) - 1.0) <= 1e-9
        assert abs(quad_black_fraction(W, R) - black / ball_area(R)) <= 1e-12


def test_black_fraction_critical_radii():
    # frozen quadrature values: the ball of radius (N + 1/2) W about (0, 1)
    f6 = quad_black_fraction(5.0, 32.5)
    f7 = quad_black_fraction(5.0, 37.5)
    assert f6 >= 2.0 / 3.0
    assert f7 <= 1.0 / 3.0
    assert abs(f6 - 0.903531788) <= 1e-6
    assert abs(f7 - 0.096468212) <= 1e-6
    assert abs((f6 + f7) - 1.0) <= 1e-6  # complementary by the parity flip


def test_stripe_area_ratio_examples():
    W, R = 6.0, 51.0
    a0 = quad_stripe_area(W, R, 0)
    a1 = quad_stripe_area(W, R, 1)
    assert abs(a0 / a1 - math.exp(3.0)) <= 0.05 * math.exp(3.0)
    bottom = quad_stripe_area(W, R, -9)
    above = quad_stripe_area(W, R, -8)
    assert bottom / above >= 0.25 * math.exp(3.0)


def test_stripe_area_geometric_asymptotic():
    # interior stripes decay like e^{-(j+1/2)W/2} with prefactor 4 e^{R/2}(1-e^{-W/2})
    W, R = 6.0, 51.0
    for j in range(-7, 6):
        approx = 4.0 * math.exp(0.5 * R - 0.5 * (j + 0.5) * W) * (1 - math.exp(-W / 2))
        got = quad_stripe_area(W, R, j)
        assert abs(got / approx - 1.0) <= 0.1


def test_stripe_mc_matches_quadrature():
    rng = np.random.default_rng(SEED)
    cases = [(2.0, 1.0, ORIGIN, SamplePlan(seed=9, n=40000))]
    for trial in range(20):
        R = float(rng.uniform(3.0, 20.0))
        W = float(rng.uniform(0.5, 6.0))
        center = ORIGIN if trial % 3 else HPoint(1.3, math.exp(0.9))
        cases.append((R, W, center, SamplePlan(seed=1000 + trial, n=20000)))
    for R, W, center, plan in cases:
        ball = BallSpec(center, R)
        reg = StripeRegion(W)
        est = mc_area_fraction(reg, ball, plan)
        exact = reg.exact_area_in_ball(ball) / ball_area(R)
        sigma = max(est.std_error, 1e-4)
        assert abs(est.fraction - exact) <= 4 * sigma


def test_stripe_quadrature_offset_center():
    # moving the center along a stripe (x direction) changes nothing
    W, R = 2.0, 7.0
    f0 = quad_black_fraction(W, R, center_log_y=0.8)
    reg = StripeRegion(W)
    ball = BallSpec(HPoint(5.0, math.exp(0.8)), R)
    assert abs(reg.exact_area_in_ball(ball) / ball_area(R) - f0) <= 1e-12


# ---------------------------------------------------------------- halfspace

def test_halfspace_exact_area_matches_parallelism_limit():
    # frozen oracle: u-substituted chord quadrature at R=12 sits within
    # 6e-6 of the angle-of-parallelism limit
    geo = Geodesic.vertical(0.0)
    for t, bias in ((0.0, 1e-12), (1.0, 4e-6), (2.0, 6e-6)):
        ball = BallSpec(HPoint(math.sinh(t), 1.0), 12.0)
        near = HalfSpaceRegion(geo, +1)
        far = HalfSpaceRegion(geo, -1)
        a_near = near.exact_area_in_ball(ball)
        a_far = far.exact_area_in_ball(ball)
        want = 1.0 - angle_of_parallelism(t) / math.pi
        assert abs(a_near / ball_area(12.0) - want) <= bias + 1e-7
        assert abs(a_near + a_far - ball_area(12.0)) <= 1e-6 * ball_area(12.0)


def test_halfspace_contains_closed_boundary():
    reg = HalfSpaceRegion(Geodesic.vertical(0.0), +1)
    assert reg.contains(HPoint(0.0, 3.0))
    assert reg.contains(HPoint(1e-9, 3.0))
    assert not reg.contains(HPoint(-1e-9, 3.0))


def test_halfspace_boundary_beyond_float_heights():
    # y = e^-800 underflows to 0; the point still lies on the closed boundary
    p = HPoint.from_log(0.0, -800.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert HalfSpaceRegion(Geodesic.vertical(0.0), +1).contains(p)
        assert HalfSpaceRegion(Geodesic.vertical(0.0), -1).contains(p)
        assert not HalfSpaceRegion(Geodesic.vertical(1.0), +1).contains(p)


def test_halfspace_covers_matches_signed_distance():
    # on finite points the numerator's sign is the signed distance's sign
    rng = np.random.default_rng(SEED + 31)
    xs = rng.uniform(-4.0, 4.0, 20000)
    ys = np.exp(rng.uniform(-6.0, 6.0, 20000))
    for x0 in (0.3, -2.5, 3.99):
        for sign in (-1, +1):
            want = sign * signed_distance_xy(ArcGeodesic.vertical(x0), xs, ys) >= 0.0
            got = HalfSpaceRegion(Geodesic.vertical(x0), sign).covers_xy(xs, ys)
            assert np.array_equal(got, want)
            assert 0 < np.count_nonzero(got) < got.size


# ---------------------------------------------------------------- box quadrature

def _box_area_oracle(R, cx, cy, xa, xb, ya, yb):
    """40-digit area of the box {xa <= x < xb, ya <= y < yb} inside B((cx, cy), R).

    The ball is the Euclidean disk between heights cy e^-R and cy e^R
    about x = cx, and the area element is dx dy / y^2. The width of the
    slice at height y has a kink where the circle crosses an x edge, so
    the height range is split there.
    """
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        R, cx, cy = (mpmath.mpf(v) for v in (R, cx, cy))
        bottom, top = cy * mpmath.exp(-R), cy * mpmath.exp(R)
        lo, hi = max(mpmath.mpf(ya), bottom), min(mpmath.mpf(yb), top)
        if lo >= hi:
            return 0.0
        cuts = {lo, hi}
        k, r = (top + bottom) / 2, (top - bottom) / 2
        for xe in (xa, xb):
            if math.isfinite(xe) and abs(xe - cx) < r:
                s = mpmath.sqrt(r * r - (xe - cx) ** 2)
                # the two crossing heights multiply to cy^2 + (xe - cx)^2
                up = k + s
                cuts |= {y for y in ((cy**2 + (xe - cx) ** 2) / up, up) if lo < y < hi}

        def width(y):
            c = mpmath.sqrt(max((y - bottom) * (top - y), 0))
            return max(min(xb, cx + c) - max(xa, cx - c), 0) / (y * y)

        return float(mpmath.quad(width, sorted(cuts)))


def test_box_quadrature_matches_mpmath_oracle():
    # half-planes and bricks against a 40-digit oracle, to the relative
    # accuracy quad is asked for. The first two cases are fixed: an edge
    # crossing the ball's circle 5e-14 below its top, and a small ball over
    # a brick, whose area needs more than quad's default absolute tolerance
    halfplanes = [(-0.9296027817448582, 1, -0.16230218052711176, 9.796184017580677,
                   12.737823646214865)]
    bricks = [(BrickTile(0, 2, 1.746235255773355, 1.3876277543113298),
               15.926092400989397, 10.880664272909428, 0.2332197772407905)]
    rng = np.random.default_rng(SEED + 2)
    for trial in range(40):
        # half-planes {x >= x0} and {x <= x0}
        x0, sign = float(rng.uniform(-2.0, 2.0)), (1, -1)[trial % 2]
        cy = math.exp(float(rng.uniform(-3.0, 3.0)))
        cx = x0 + cy * float(rng.uniform(-4.0, 4.0))
        halfplanes.append((x0, sign, cx, cy, float(rng.uniform(0.2, 15.0))))
        # bricks, with balls about points in and around the brick
        tile = BrickTile(
            j=int(rng.integers(-2, 3)),
            k=int(rng.integers(-3, 4)),
            family_offset=float(rng.uniform(0.0, 2.0)),
            width_param=float(rng.uniform(0.5, 3.0)),
        )
        xa, xb = tile.x_bounds
        cy = math.exp(tile.log_s + float(rng.uniform(-1.0, 3.0)))
        cx = float(rng.uniform(2 * xa - xb, 2 * xb - xa))
        bricks.append((tile, cx, cy, float(rng.uniform(0.2, 6.0))))
    rel = _QUAD_REL
    for x0, sign, cx, cy, R in halfplanes:
        got = HalfSpaceRegion(Geodesic.vertical(x0), sign).exact_area_in_ball(
            BallSpec(HPoint(cx, cy), R)
        )
        xa, xb = (x0, math.inf) if sign > 0 else (-math.inf, x0)
        want = _box_area_oracle(R, cx, cy, xa, xb, 0.0, math.inf)
        assert abs(got - want) <= rel * want, (x0, sign, cx, cy, R, got, want)
    for tile, cx, cy, R in bricks:
        got = brick_region(tile).exact_area_in_ball(BallSpec(HPoint(cx, cy), R))
        want = _box_area_oracle(R, cx, cy, *tile.x_bounds, *tile.y_bounds)
        assert abs(got - want) <= rel * want, (tile, cx, cy, R, got, want)


# ---------------------------------------------------------------- polygons

def test_polygon_region_mc_fraction_matches_area_ratio():
    m = 7
    r = 0.5 * math.acosh(1.0 / (math.tan(math.pi / m) * math.tan(2 * math.pi / m)))
    v0 = ORIGIN
    v1 = HPoint(0.0, math.exp(2 * r))
    v2 = apply(Isometry.rotation(2 * math.pi / m, v0), v1)
    tri = GeodesicPolygon([v0, v1, v2])
    reg = PolygonRegion(tri)
    assert reg.contains(HPoint(-0.05, math.exp(r)))
    assert not reg.contains(HPoint(3.0, 1.0))
    # circumball of the triangle: center equidistant from the vertices
    Rc = 0.620671737556  # frozen circumradius for side 2 r_7
    # circumcenter sits on the vertical geodesic bisecting v0 v1? no: use the
    # rotation symmetry: it is the fixed point of the 2pi/3 rotation permuting
    # the vertices; located numerically once and frozen:
    # solved from d(c, v0) = d(c, v1) = d(c, v2)
    ball = BallSpec(_circumcenter(tri), Rc + 1e-9)
    n = 20000
    est = mc_area_fraction(reg, ball, SamplePlan(seed=3, n=n))
    want = tri.area() / ball_area(ball.radius)
    sigma = math.sqrt(want * (1 - want) / n)
    assert abs(est.fraction - want) <= 4 * sigma


def _circumcenter(tri):
    # on the hyperboloid the circumcenter C has equal Minkowski products
    # with the three vertices, so J C is normal to their differences
    P = np.array([[(v.x**2 + v.y**2 + 1.0) / (2.0 * v.y), v.x / v.y,
                   (v.x**2 + v.y**2 - 1.0) / (2.0 * v.y)] for v in tri.vertices])
    c = np.cross(P[0] - P[1], P[0] - P[2]) * np.array([1.0, -1.0, -1.0])
    c = c / math.sqrt(c[0] ** 2 - c[1] ** 2 - c[2] ** 2) * np.sign(c[0])
    y = 1.0 / (c[0] - c[2])
    return HPoint(c[1] * y, y)


@functools.lru_cache(maxsize=None)
def _tight_polygons(m):
    """The {3,m} face triangle and the Dirichlet cell of (0, 1)."""
    packing = TightPacking(m)
    return packing.fundamental_domain.polygon, packing_cell(packing, ORIGIN).polygon


@settings(max_examples=120, deadline=None)
@given(
    m=st.integers(7, 12),
    cell=st.booleans(),
    log_height=st.floats(-30.0, 30.0),
    shift=st.floats(-3.0, 3.0),
    theta=st.floats(0.0, 2.0 * math.pi),
    seed=st.integers(0, 2**32 - 1),
)
def test_polygon_matches_arc_oracle(m, cell, log_height, shift, theta, seed):
    # isometric images of tight triangles and cells, far up and far down:
    # coverage agrees with one signed distance per edge wherever every
    # edge is more than 1e-9 away, and the areas agree
    g = (Isometry.dilation(math.exp(log_height)) @ Isometry.translation(shift)
         @ Isometry.rotation(theta))
    verts = [apply(g, v) for v in _tight_polygons(m)[int(cell)].vertices]
    poly = GeodesicPolygon(verts)
    oracle = ArcPolygonRegion(ArcPolygon(verts))
    assert abs(poly.area() - oracle.polygon.area()) <= 1e-9

    center = apply(g, ORIGIN)
    rng = np.random.default_rng(seed)
    n = 2000
    rho = np.arccosh(1.0 + rng.random(n) * (math.cosh(1.5) - 1.0))
    xs, ys = polar_xy(center.x, center.y, rho, rng.uniform(0.0, 2.0 * math.pi, n))
    got = PolygonRegion(poly).covers_xy(xs, ys)
    clear = np.all(np.abs(oracle.signed_distances(xs, ys)) > 1e-9, axis=0)
    assert np.array_equal(got[clear], oracle.covers_xy(xs, ys)[clear])
    assert got[clear].any() and not got[clear].all()


def test_polygon_contains_is_covers_xy_on_one_point():
    tri = _tight_polygons(7)[0]
    reg = PolygonRegion(tri)
    rng = np.random.default_rng(SEED + 4)
    xs, ys = polar_xy(0.0, 1.0, rng.uniform(0.0, 1.0, 300), rng.uniform(0.0, 6.3, 300))
    got = [reg.contains(HPoint(x, y)) for x, y in zip(xs, ys)]
    assert got == reg.covers_xy(xs, ys).tolist()
    assert any(got) and not all(got)


def test_polygon_sampler_a1_points_inside():
    # the million points A1 draws all lie in the face triangle, by the
    # hyperboloid test and by the arc oracle
    tri = _tight_polygons(7)[0]
    xs, ys = PolygonRegion(tri).sample_uniform(SamplePlan(seed=101, n=1_000_000))
    assert xs.shape == ys.shape == (1_000_000,)
    assert PolygonRegion(tri).covers_xy(xs, ys).all()
    assert ArcPolygonRegion(ArcPolygon(tri.vertices)).covers_xy(xs, ys).all()


@pytest.fixture(scope="module")
def deep_cell():
    """The {3,7} Dirichlet cell of the vertex nearest (0.3, 0.005)."""
    packing = TightPacking(7)
    near = HPoint(0.3, 0.005)
    site = min(packing.centers_in_ball(BallSpec(near, 1.0)), key=lambda s: distance(s, near))
    assert abs(math.log(site.y / 0.005)) < 1.0
    return packing, packing_cell(packing, site)


def test_polygon_sampler_covered_fraction_deep_cell(deep_cell):
    # the covered part of a tight cell is its inscribed disk
    packing, cell = deep_cell
    n = 1_000_000
    xs, ys = PolygonRegion(cell.polygon).sample_uniform(SamplePlan(seed=SEED + 5, n=n))
    frac = float(np.mean(packing.covers_xy(xs, ys)))
    want = ball_area(packing.disk_radius) / cell.area()
    assert abs(frac - want) <= 5.0 * math.sqrt(want * (1.0 - want) / n)


def test_polygon_sampler_matches_rejection_oracle(deep_cell):
    # distance from the site and direction about it, against points
    # rejected from an enclosing ball
    _, cell = deep_cell
    plan = SamplePlan(seed=SEED + 6, n=50_000)
    xs, ys = PolygonRegion(cell.polygon).sample_uniform(plan)
    ox, oy = ArcPolygonRegion(ArcPolygon(cell.polygon.vertices)).sample_uniform(plan)
    site = complex(cell.site.x, cell.site.y)

    def polar(x, y):
        # |z - site|^2 / y grows with the distance from the site
        z = x + 1j * y
        return np.abs(z - site) ** 2 / y, np.angle((z - site) / (z - site.conjugate()))

    for got, want in zip(polar(xs, ys), polar(ox, oy)):
        assert stats.ks_2samp(got, want).pvalue > 1e-3


# ---------------------------------------------------------------- annulus

def test_annulus_closed_form_against_brute_force():
    assert annulus_fraction_euclid(2) == 0.75
    for K in range(2, 401):
        assert annulus_fraction_euclid(K) == annulus_fraction_euclid_brute(K)
    # in integers, 4^K at K = 1e12 would take 2e12 bits
    assert annulus_fraction_euclid(10**12) == 0.8
    assert annulus_fraction_euclid(10**12 + 1) == 0.2
    assert abs(annulus_fraction_euclid(10) - 0.8) <= 0.02 * 0.8
    assert abs(annulus_fraction_euclid(11) - 0.2) <= 0.02 * 0.2
    assert abs(annulus_fraction_euclid(12) - 0.8) <= 0.02 * 0.8
    with pytest.raises(DomainError):
        annulus_fraction_euclid(1)
    with pytest.raises(DomainError):
        annulus_fraction_euclid(2.5)


def test_annulus_region_matches_formula_by_euclid_mc():
    K = 4
    R = 2.0**K
    rng = np.random.default_rng(SEED + 1)
    n = 40000
    rr = R * np.sqrt(rng.random(n))
    th = rng.random(n) * 2 * math.pi
    xs, ys = rr * np.cos(th), rr * np.sin(th)
    frac = float(np.mean(AnnulusRegionEuclid().covers_xy(xs, ys)))
    want = annulus_fraction_euclid(K)
    sigma = math.sqrt(want * (1 - want) / n)
    assert abs(frac - want) <= 4 * sigma


def test_import_leaves_quadrature_unloaded():
    # scipy.integrate loads with the first box-in-ball quadrature, not
    # with the package
    src = str(Path(hypack.__file__).resolve().parent.parent)
    code = "import sys, hypack; print('scipy.integrate' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=env, check=True).stdout
    assert out.strip() == "False"

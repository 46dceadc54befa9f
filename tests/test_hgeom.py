import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.spatial import cKDTree

from hypack.errors import DomainError, RangeError
from hypack.hgeom import (
    angle_of_parallelism,
    apply,
    ball_area,
    BallSpec,
    cosh_distance_xy,
    GeodesicPolygon,
    HDisk,
    HPoint,
    Isometry,
    nearest_sites,
    ORIGIN,
    polar_xy,
)
from oracles import ArcGeodesic, boundary_point, distance, midpoint, signed_distance_xy

RNG_SEED = 20260816


def random_point(rng, span=3.0):
    return HPoint(rng.uniform(-span, span), math.exp(rng.uniform(-span, span)))


def random_isometry(rng):
    g = Isometry.translation(rng.uniform(-2, 2))
    g = g @ Isometry.dilation(math.exp(rng.uniform(-2, 2)))
    g = g @ Isometry.rotation(rng.uniform(-math.pi, math.pi))
    return g


# ---------------------------------------------------------------- distance

def test_distance_vertical_is_exact_log_identity():
    assert distance(HPoint(0, 1), HPoint(0, math.e)) == 1.0
    assert distance(HPoint(2.5, math.exp(-3)), HPoint(2.5, math.exp(4))) == 7.0


def test_distance_frozen_oracles():
    # values from an independent oracle: numeric quadrature of ds = |dz|/y
    # along the connecting semicircular geodesic (epsrel 1e-12)
    cases = [
        ((0.0, 1.0), (3.0, 2.0), 1.924847300238413),
        ((-1.0, 0.5), (2.0, 4.0), 2.529345200834626),
        ((0.3, 2.0), (5.0, 0.25), 3.956726246167853),
    ]
    for p, q, want in cases:
        got = distance(HPoint(*p), HPoint(*q))
        assert abs(got - want) < 1e-12


def test_distance_metric_properties():
    rng = np.random.default_rng(RNG_SEED)
    for _ in range(200):
        p, q, r = (random_point(rng) for _ in range(3))
        dpq = distance(p, q)
        assert dpq >= 0.0
        assert distance(p, p) == 0.0
        assert abs(dpq - distance(q, p)) < 1e-12
        assert dpq <= distance(p, r) + distance(r, q) + 1e-12


def test_distance_log_domain_matches_scaled_safe_domain():
    rng = np.random.default_rng(RNG_SEED + 1)
    shift = 599.0
    scale = math.exp(shift)
    for _ in range(50):
        x1, x2 = rng.uniform(-2, 2, size=2)
        l1, l2 = rng.uniform(-2, 2, size=2)
        d_safe = distance(HPoint(x1, math.exp(l1)), HPoint(x2, math.exp(l2)))
        d_ext = distance(
            HPoint.from_log(x1 * scale, l1 + shift),
            HPoint.from_log(x2 * scale, l2 + shift),
        )
        assert abs(d_ext - d_safe) < 1e-9 * max(1.0, d_safe)


def test_distance_extreme_vertical():
    p = HPoint.from_log(0.0, -650.0)
    q = HPoint.from_log(0.0, -649.0)
    assert distance(p, q) == 1.0


def test_point_validation():
    with pytest.raises(DomainError):
        HPoint(0.0, 0.0)
    with pytest.raises(DomainError):
        HPoint(0.0, -1.0)
    with pytest.raises(DomainError):
        HPoint(0.0, math.inf)
    p = HPoint.from_log(1.0, -800.0)  # below float underflow, still usable
    assert p.log_y == -800.0


# ---------------------------------------------------------------- isometries

def test_isometry_group_laws():
    rng = np.random.default_rng(RNG_SEED + 2)
    for _ in range(200):
        g = random_isometry(rng)
        h = random_isometry(rng)
        p = random_point(rng)
        assert abs(g.det - 1.0) < 1e-12
        assert distance((g @ h)(p), g(h(p))) < 1e-12
        assert distance((g @ g.inverse())(p), p) < 1e-12


def test_isometry_invariance_1000_pairs():
    rng = np.random.default_rng(RNG_SEED + 3)
    for _ in range(1000):
        g = random_isometry(rng)
        p, q = random_point(rng), random_point(rng)
        assert abs(distance(g(p), g(q)) - distance(p, q)) < 1e-9


def test_rotation_about_origin_by_pi():
    g = Isometry.rotation(math.pi, ORIGIN)
    img = g(HPoint(0, math.e))
    assert abs(img.x) < 1e-12
    assert abs(img.y - 1.0 / math.e) < 1e-12


def test_rotation_fixes_center():
    rng = np.random.default_rng(RNG_SEED + 4)
    for _ in range(50):
        p = random_point(rng)
        g = Isometry.rotation(rng.uniform(-math.pi, math.pi), p)
        assert distance(g(p), p) < 1e-12


def test_isometry_constructors():
    p = HPoint(0.5, 2.0)
    assert distance(Isometry.translation(1.0)(p), HPoint(1.5, 2.0)) < 1e-12
    assert distance(Isometry.dilation(4.0)(p), HPoint(2.0, 8.0)) < 1e-12
    g = Isometry.rotation(0.7, p)
    assert distance(g(p), p) < 1e-12
    with pytest.raises(DomainError):
        Isometry.dilation(-1.0)
    with pytest.raises(DomainError):
        Isometry(1.0, 0.0, 0.0, -1.0)  # negative determinant


def test_apply_rejects_underflowing_image():
    p = HPoint.from_log(0.0, -600.0)
    with pytest.raises(RangeError):
        apply(Isometry.dilation(math.exp(-200.0)), p)


def test_apply_extreme_heights_affine_and_inversion():
    p = HPoint.from_log(3.0, 650.0)
    g = Isometry.dilation(math.exp(2.0))
    img = g(p)
    assert abs(img.log_y - 652.0) < 1e-9
    # inversion z -> -1/z sends great heights to tiny ones
    inv = Isometry(0.0, -1.0, 1.0, 0.0)
    img2 = inv(p)
    assert abs(img2.log_y + 650.0) < 1e-6


def test_apply_xy_matches_pointwise():
    rng = np.random.default_rng(RNG_SEED + 5)
    g = random_isometry(rng)
    xs = rng.uniform(-3, 3, size=64)
    ys = np.exp(rng.uniform(-3, 3, size=64))
    nx, ny = g.apply_xy(xs, ys)
    for i in range(64):
        img = g(HPoint(xs[i], ys[i]))
        assert abs(nx[i] - img.x) < 1e-10
        assert abs(ny[i] - img.y) < 1e-10 * max(1.0, img.y)


def test_apply_and_apply_xy_agree_bit_for_bit():
    # one float expression in both: a float's ** 2 is pow, which rounded
    # this point's squared c y one unit off the product numpy forms
    g = Isometry.dilation(math.exp(209.04673344530693)) @ Isometry.rotation(5.164633286483477)
    cases = [(g, -1.1706757972145567, 0.4048659043405369)]
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(2000):
        g = (Isometry.dilation(math.exp(rng.uniform(-300.0, 300.0)))
             @ Isometry.translation(rng.uniform(-5.0, 5.0))
             @ Isometry.rotation(rng.uniform(0.0, 2.0 * math.pi)))
        cases.append((g, rng.uniform(-3.0, 3.0), math.exp(rng.uniform(-3.0, 3.0))))
    for g, x, y in cases:
        img = apply(g, HPoint(x, y))
        (nx,), (ny,) = g.apply_xy([x], [y])
        assert (img.x, img.y) == (nx, ny)


# ---------------------------------------------------------------- disks

def test_disk_euclid_form_identity_and_roundtrip():
    # (k - r)(k + r) = K^2, checked with the cancellation-free k - r field
    for K in (math.exp(-5), 1.0, math.exp(7)):
        for R in np.geomspace(1e-3, 30.0, 40):
            d = HDisk(HPoint(1.25, K), float(R))
            circ = d.euclid_form()
            # at large R the float difference k - r collapses; the stable
            # field must stay positive regardless
            assert circ.k >= circ.r
            assert circ.k_minus_r > 0.0
            lhs = circ.k_minus_r * (circ.k + circ.r)
            assert abs(lhs - K * K) <= 1e-10 * K * K
            # the inverse map: K^2 = (k + r)(k - r), e^{2R} = (k + r)/(k - r)
            kpr = circ.k + circ.r
            assert abs(math.sqrt(kpr * circ.k_minus_r) - K) <= 1e-10 * K
            assert abs(0.5 * math.log(kpr / circ.k_minus_r) - R) <= 1e-10 * max(1.0, R)


@settings(max_examples=300, deadline=None)
@given(
    u=st.floats(-5.0, 5.0),
    log_cy=st.floats(-30.0, 30.0),
    rho=st.floats(0.0, 30.0),
    theta=st.floats(0.0, 2.0 * math.pi),
)
def test_polar_xy_lands_at_distance_rho(u, log_cy, rho, theta):
    # the half-angle form has no cancellation, so the distance holds to
    # a few ulp at every radius
    cy = math.exp(log_cy)
    cx = u * cy
    x, y = polar_xy(cx, cy, rho, theta)
    cd = float(cosh_distance_xy(x, y, cx, cy))
    assert abs(cd / math.cosh(rho) - 1.0) <= 1e-12


def test_polar_xy_past_the_underflow_of_den():
    # straight up, e^-2 rho underflows beyond rho = 372; the map divided
    # through by e^-rho still lands at (0, e^rho)
    with np.errstate(divide="raise", invalid="raise", over="raise"):
        x, y = polar_xy(0.0, 1.0, 400.0, [0.0, 1e-3])
    assert x[0] == 0.0 and y[0] == math.exp(400.0)
    assert np.isfinite(x[1]) and np.isfinite(y[1]) and y[1] > 0.0
    x, y = polar_xy(0.0, 1.0, 700.0, 0.0)
    assert x == 0.0 and abs(y / math.exp(700.0) - 1.0) <= 1e-15


def test_polar_xy_unchanged_where_den_is_normal():
    # the form of every point whose den does not underflow, as it stood
    # before the underflow branch
    rng = np.random.default_rng(RNG_SEED + 5)
    rho = np.concatenate([rng.uniform(0.0, 40.0, 5000), rng.uniform(300.0, 700.0, 5000)])
    theta = rng.uniform(0.0, 2.0 * math.pi, rho.size)
    theta[::7] = 0.0
    e, h = np.exp(-rho), np.sin(0.5 * theta)
    den = 2.0 * h * h + e * e * (2.0 - 2.0 * h * h)
    normal = den > 0.0
    assert 0 < np.count_nonzero(~normal) < rho.size // 7
    x, y = polar_xy(0.3, 2.0, rho, theta)
    with np.errstate(divide="ignore", invalid="ignore"):
        want_x = 0.3 + 2.0 * (-(1.0 - e * e) * np.sin(theta) / den)
        want_y = 2.0 * (2.0 * e / den)
    assert np.array_equal(x[normal], want_x[normal])
    assert np.array_equal(y[normal], want_y[normal])
    assert np.isfinite(x).all() and np.isfinite(y).all()


@settings(max_examples=150, deadline=None)
@given(
    k=st.sampled_from([1, 2]),
    log_h=st.floats(-30.0, 30.0),
    n=st.integers(2, 60),
    seed=st.integers(0, 2**32 - 1),
)
def test_nearest_sites_matches_brute_force(k, log_h, n, seed):
    # sites spread over heights e^-2 .. e^2 about h, where the Euclidean
    # and the hyperbolic nearest sites often differ, at scales e^-30 .. e^30
    rng = np.random.default_rng(seed)
    h = math.exp(log_h)
    sx, sy = rng.uniform(-3.0, 3.0, n) * h, np.exp(rng.uniform(-2.0, 2.0, n)) * h
    qx, qy = rng.uniform(-4.0, 4.0, 300) * h, np.exp(rng.uniform(-3.0, 3.0, 300)) * h
    # some queries sit on a site, or next to one
    j = min(n, 10)
    qx[:j], qy[:j] = sx[:j] * (1.0 + 1e-12), sy[:j]
    idx, cd = nearest_sites(cKDTree(np.column_stack([sx, sy])), qx, qy, k)
    brute = cosh_distance_xy(qx[:, None], qy[:, None], sx[None, :], sy[None, :])
    assert np.array_equal(cd, np.sort(brute, axis=1)[:, :k])
    assert np.array_equal(np.take_along_axis(brute, idx, axis=1), cd)


def test_nearest_sites_needs_k_sites():
    tree = cKDTree(np.array([[0.0, 1.0]]))
    with pytest.raises(DomainError):
        nearest_sites(tree, [0.5], [1.0], 2)


def test_disk_boundary_points_at_radius():
    # polar_xy about a disk's center is its boundary, the same points as
    # the disk's top turned about the center by a rotation isometry
    rng = np.random.default_rng(RNG_SEED + 6)
    for _ in range(100):
        d = HDisk(random_point(rng), rng.uniform(0.1, 5.0))
        theta = rng.uniform(0, 2 * math.pi)
        x, y = polar_xy(d.center.x, d.center.y, d.radius, theta)
        bp = HPoint(float(x), float(y))
        assert abs(distance(d.center, bp) - d.radius) < 1e-9
        assert distance(bp, boundary_point(d, theta)) < 1e-9


def test_disk_contains_and_euclid_agreement():
    rng = np.random.default_rng(RNG_SEED + 7)
    for _ in range(200):
        d = HDisk(random_point(rng), rng.uniform(0.1, 3.0))
        circ = d.euclid_form()
        p = random_point(rng)
        inside_h = distance(d.center, p) <= d.radius
        inside_e = (p.x - circ.h) ** 2 + (p.y - circ.k) ** 2 <= circ.r**2
        if abs(distance(d.center, p) - d.radius) > 1e-9:
            assert inside_h == inside_e


def test_ballspec_validation():
    with pytest.raises(DomainError):
        BallSpec(ORIGIN, 0.0)
    b = BallSpec(ORIGIN, 2.0)
    circ = b.euclid_form()
    assert circ.k > circ.r
    with pytest.raises(RangeError):
        HDisk(ORIGIN, 800.0).euclid_form()


# ---------------------------------------------------------------- areas

def test_ball_area_closed_form():
    # cross-checked by an independent Euclidean-measure MC estimate
    # over the bounding box at R=1: 3.4082 +- 0.0025
    assert abs(ball_area(1.0) - 3.4122762652849022) < 1e-12
    assert ball_area(0.0) == 0.0
    with pytest.raises(DomainError):
        ball_area(-0.5)
    with pytest.raises(RangeError):
        ball_area(601.0)


def test_volume_growth_ratios():
    # area(R + r)/area(R) converges to e^r
    for r in (0.5, 1.0, 2.0):
        ratio = ball_area(30.0 + r) / ball_area(30.0)
        assert abs(ratio - math.exp(r)) < 1e-6
    # area(R) e^{-R} converges to pi
    assert abs(ball_area(30.0) * math.exp(-30.0) - math.pi) < 0.01 * math.pi
    assert abs(ball_area(19.0) / ball_area(20.0) - math.exp(-1.0)) < 1e-3


def test_angle_of_parallelism_values():
    assert angle_of_parallelism(0.0) == math.pi / 2
    # frozen from arcsin(1/cosh t)
    assert abs(angle_of_parallelism(1.0) - 0.7050268435552380) < 1e-12
    assert abs(angle_of_parallelism(2.0) - 0.2690359907488816) < 1e-12
    ts = np.linspace(0, 10, 50)
    vals = [angle_of_parallelism(float(t)) for t in ts]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-3
    with pytest.raises(DomainError):
        angle_of_parallelism(-0.1)


# ---------------------------------------------------------------- geodesics

def test_signed_distance_line_and_circle():
    line = ArcGeodesic.vertical(0.0)
    assert abs(signed_distance_xy(line, math.sinh(1.0), 1.0) - 1.0) < 1e-12
    assert signed_distance_xy(line, -0.5, 1.0) < 0.0
    circ = ArcGeodesic.circle(0.0, 1.0)
    assert abs(signed_distance_xy(circ, 0.0, 1.0)) < 1e-12
    # distance agrees with the true metric distance to the geodesic, here
    # sampled at the points of the unit circle at angles 2 atan(e^s)
    phi = 2.0 * np.arctan(np.exp(np.linspace(-12, 12, 4001)))
    on_x, on_y = np.cos(phi), np.sin(phi)
    rng = np.random.default_rng(RNG_SEED + 10)
    for _ in range(50):
        p = random_point(rng)
        sd = abs(float(signed_distance_xy(circ, p.x, p.y)))
        brute = float(np.arccosh(cosh_distance_xy(p.x, p.y, on_x, on_y)).min())
        assert sd <= brute + 1e-9
        assert brute - sd < 1e-4  # the sampled minimum is only approximate


# ---------------------------------------------------------------- polygons

def tight_triangle(m=7):
    r = 0.5 * math.acosh(1.0 / (math.tan(math.pi / m) * math.tan(2 * math.pi / m)))
    v0 = HPoint(0.0, 1.0)
    v1 = HPoint(0.0, math.exp(2 * r))
    v2 = apply(Isometry.rotation(2 * math.pi / m, v0), v1)
    return GeodesicPolygon([v0, v1, v2])


def test_polygon_area_tight_triangle():
    # equilateral triangle with all angles 2 pi / 7 has area pi - 3 * 2 pi / 7 = pi / 7
    tri = tight_triangle(7)
    assert abs(tri.area() - math.pi / 7) < 1e-9


def test_polygon_area_isometry_invariant():
    rng = np.random.default_rng(RNG_SEED + 12)
    tri = tight_triangle(7)
    for _ in range(25):
        g = random_isometry(rng)
        moved = GeodesicPolygon([g(v) for v in tri.vertices])
        assert abs(moved.area() - tri.area()) < 1e-9


def test_polygon_area_near_degenerate_is_tiny():
    # middle vertex sits just off the connecting geodesic, so the triangle
    # is a sliver and its area is near zero
    p, q = HPoint(0, 1), HPoint(2, 1)
    on_geo = midpoint(p, q)
    m = HPoint(on_geo.x, on_geo.y * (1 + 1e-5))
    tri = GeodesicPolygon([p, m, q])
    assert 0.0 < tri.area() < 1e-3
    # the area is linear in the offset to about 5e-6 between offsets 1e-5
    # and 1e-9, which needs the two tiny angles to many digits
    m = HPoint(on_geo.x, on_geo.y * (1 + 1e-9))
    thin = GeodesicPolygon([p, m, q])
    assert abs(thin.area() * 1e4 / tri.area() - 1.0) < 1e-4


def test_polygon_rejects_self_intersection():
    # bowtie: edges cross between vertices 0-1 and 2-3
    pts = [HPoint(0, 1), HPoint(2, 1), HPoint(0, 2), HPoint(2, 2)]
    with pytest.raises(DomainError):
        GeodesicPolygon(pts)


def test_polygon_rejects_star_polygon():
    # a pentagram turns the same way at every vertex, yet its edges cross
    pts = [HPoint(*xy) for xy in zip(*polar_xy(0.0, 1.0, 1.0, [
        2.0 * math.pi * k / 5.0 for k in (0, 2, 4, 1, 3)]))]
    with pytest.raises(DomainError):
        GeodesicPolygon(pts)
    assert GeodesicPolygon(sorted(pts, key=lambda p: math.atan2(p.y - 1.0, p.x))).area() > 0.0


def test_polygon_rejects_too_few_vertices():
    with pytest.raises(DomainError):
        GeodesicPolygon([HPoint(0, 1), HPoint(1, 1)])

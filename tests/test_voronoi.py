"""Dirichlet cell construction, cell densities, and partition audits."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.optimize import minimize_scalar
from scipy.spatial import cKDTree

from hypack.errors import DomainError, UnboundedCellError, UnsupportedOperationError
from hypack.hgeom import (
    ORIGIN,
    BallSpec,
    Geodesic,
    GeodesicPolygon,
    HPoint,
    Isometry,
    apply,
    ball_area,
    cosh_distance_xy,
    polar_xy,
)
from hypack.packings import (
    BoroczkyPacking,
    StripeModel,
    TightPacking,
    TransformedPacking,
    tight_density_formula,
    tight_radius,
)
from hypack import density, voronoi
from hypack.density import _owners, mass_transport_check
from hypack.regions import HalfSpaceRegion, PolygonRegion, SamplePlan
from hypack.voronoi import _klein_cell, _site_cells, cell_relative_density, packing_cell
from oracles import ArcGeodesic, distance, geodesic_intersection, partition_audit, point_along

SEED = 60112


def _xy(points):
    """Coordinate arrays of a list of points."""
    return np.array([p.x for p in points]), np.array([p.y for p in points])


@pytest.fixture(scope="module")
def tight7():
    return TightPacking(7)


@pytest.fixture(scope="module")
def origin_cell(tight7):
    return packing_cell(tight7, ORIGIN)


def test_seed_cell_is_regular_heptagon(origin_cell):
    cell = origin_cell
    assert len(cell.polygon.vertices) == 7
    assert len(cell.neighbor_sites) == 7
    r7 = tight_radius(7)
    for s in cell.neighbor_sites:
        assert abs(distance(ORIGIN, s) - 2.0 * r7) <= 1e-9
    radii = [distance(ORIGIN, v) for v in cell.polygon.vertices]
    assert max(radii) - min(radii) <= 1e-8
    # circumradius of the dual cell, frozen from the triangle solver
    assert abs(radii[0] - 0.6206717375563858) <= 1e-6


def test_cell_area_matches_dual_identity(origin_cell):
    area = origin_cell.area()
    assert abs(area - math.pi / 3.0) <= 1e-12
    assert abs(area - ball_area(tight_radius(7)) / tight_density_formula(7)) <= 1e-12


def test_vertices_equidistant_from_site_and_no_closer_site(tight7, origin_cell):
    window = tight7.centers_in_ball(BallSpec(ORIGIN, 3.0))
    for v in origin_cell.polygon.vertices:
        d_site = distance(v, ORIGIN)
        for s in window:
            assert d_site <= distance(v, s) + 1e-8


def test_cell_contains_its_site(origin_cell):
    assert PolygonRegion(origin_cell.polygon).contains(ORIGIN)


def test_cell_rotation_symmetry(origin_cell):
    rot = Isometry.rotation(2.0 * math.pi / 7.0, ORIGIN)
    verts = origin_cell.polygon.vertices
    for v in verts:
        image = apply(rot, v)
        assert min(distance(image, u) for u in verts) <= 1e-6


def test_relative_density_matches_formula(origin_cell):
    r7 = tight_radius(7)
    got = cell_relative_density(origin_cell, r7)
    assert abs(got - tight_density_formula(7)) <= 1e-9


def test_relative_density_rejects_oversized_disk(origin_cell):
    with pytest.raises(DomainError):
        cell_relative_density(origin_cell, 0.6)
    with pytest.raises(DomainError):
        cell_relative_density(origin_cell, 0.0)
    with pytest.raises(DomainError):
        cell_relative_density(origin_cell, -0.2)


def test_small_disk_density_shrinks(origin_cell):
    assert cell_relative_density(origin_cell, 1e-6) < 1e-11


def test_closure_over_interior_cells():
    # area-weighted mean of cell-relative densities reproduces the
    # closed-form packing density for several tight families
    for m in (7, 8, 9):
        p = TightPacking(m)
        rm = tight_radius(m)
        sites = p.centers_in_ball(BallSpec(ORIGIN, 2.5))
        cells = [packing_cell(p, s) for s in sites]
        areas = np.array([c.area() for c in cells])
        dens = np.array([cell_relative_density(c, rm) for c in cells])
        assert areas.max() - areas.min() <= 1e-9
        wmean = float(np.sum(dens * areas) / np.sum(areas))
        assert abs(wmean - tight_density_formula(m)) <= 1e-6


@pytest.mark.parametrize("m", [7, 8, 9])
def test_deep_cell_areas_exact(m):
    # every cell of a tight packing has area pi (m - 6) / 3, however far
    # its site lies from (0, 1); about 100 sites of B(0, 8) per m
    p = TightPacking(m)
    sites = p.centers_in_ball(BallSpec(ORIGIN, 8.0))
    want = math.pi * (m - 6) / 3.0
    for site in sites[:: len(sites) // 100]:
        assert abs(packing_cell(p, site).area() - want) <= 1e-11, site


def test_two_sites_unbounded():
    with pytest.raises(UnboundedCellError):
        _klein_cell(*_xy([ORIGIN, HPoint(1.0, 1.0)]), 0)
    with pytest.raises(UnboundedCellError):
        _klein_cell(*_xy([ORIGIN]), 0)


def test_hull_site_raises_rather_than_truncates(origin_cell):
    # a first-shell site with no sites beyond it has an open cell
    shell = [ORIGIN] + list(origin_cell.neighbor_sites)
    with pytest.raises(UnboundedCellError):
        _klein_cell(*_xy(shell), 1)


def test_duplicate_sites_rejected():
    with pytest.raises(DomainError):
        _klein_cell(*_xy([ORIGIN, HPoint(0.0, 1.0), HPoint(1.0, 1.0)]), 0)


def test_site_index_out_of_range():
    with pytest.raises(DomainError):
        _klein_cell(*_xy([ORIGIN, HPoint(1.0, 1.0)]), 5)


def test_packing_cell_rejects_non_center(tight7):
    with pytest.raises(DomainError):
        packing_cell(tight7, HPoint(0.1, 1.0))


def test_moved_tight_cell_is_the_moved_heptagon(tight7):
    g = Isometry.translation(0.37)
    cell = packing_cell(TransformedPacking(g, tight7), apply(g, ORIGIN))
    assert len(cell.polygon.vertices) == 7
    # the {7,3} face: (7 - 2) pi minus seven angles of 2 pi / 3
    assert abs(cell.area() - math.pi / 3.0) <= 1e-12


@pytest.mark.parametrize("region", [
    StripeModel(5.0),
    HalfSpaceRegion(Geodesic.vertical(0.0)),
    TransformedPacking(Isometry.translation(0.3), StripeModel(5.0)),
], ids=["stripe", "half-plane", "moved stripe"])
def test_regions_have_no_cells(region):
    with pytest.raises(UnsupportedOperationError):
        packing_cell(region, ORIGIN)


def test_partition_audit_near_one(tight7):
    radius = 2.5
    sites = tight7.centers_in_ball(BallSpec(ORIGIN, radius + 1.0))
    cells = [packing_cell(tight7, s) for s in sites]
    window = BallSpec(ORIGIN, radius)
    frac = partition_audit(cells, window, SamplePlan(seed=SEED, n=20000))
    assert frac >= 1.0 - 1e-3

    # negative control: deleting one interior cell leaves a visible hole
    dropped = [c for c in cells if distance(ORIGIN, c.site) > 1e-9]
    frac2 = partition_audit(dropped, window, SamplePlan(seed=SEED, n=20000))
    assert frac2 < 0.99


def test_partition_audit_single_cell(origin_cell):
    window = BallSpec(ORIGIN, 0.3)
    frac = partition_audit([origin_cell], window, SamplePlan(seed=SEED, n=2000))
    assert frac == 1.0


# ---------------------------------------------------------------- oracle
# The construction _klein_cell replaced: bisectors intersected
# pairwise in the half-plane, candidate vertices kept when no other
# site is nearer (within 1e-8), merged within 1e-8, and the site subset
# doubled until the provisional cell is certified. It is correct on
# packing windows, where every cell is surrounded by sites, and serves
# as the oracle there.

def _bisector(p, q):
    """Locus of points equidistant from p and q."""
    if p.x == q.x and p.log_y == q.log_y:
        raise DomainError("coincident points have no bisector")
    if abs(p.y - q.y) <= 1e-12 * max(p.y, q.y):
        return ArcGeodesic.vertical(0.5 * (p.x + q.x))
    dy = q.y - p.y
    c = (q.y * p.x - p.y * q.x) / dy
    e = (q.y * (p.x * p.x + p.y * p.y) - p.y * (q.x * q.x + q.y * q.y)) / dy
    return ArcGeodesic.circle(c, math.sqrt(c * c - e))


def _fan_closed(site, vx, vy):
    z = vx + 1j * vy
    p = complex(site.x, site.y)
    ang = np.sort(np.angle((z - p) / (z - p.conjugate())))
    gaps = np.diff(np.concatenate([ang, ang[:1] + 2.0 * math.pi]))
    return bool(gaps.max() < math.pi)


def _bisector_cell(sites, i, search_radius, tol=1e-8):
    """(vertices ordered by angle about the site, neighbour set)."""
    site = sites[i]
    others = [s for j, s in enumerate(sites) if j != i]
    near = sorted((s for s in others if distance(site, s) <= search_radius),
                  key=lambda s: distance(site, s))
    near_d = [distance(site, s) for s in near]
    sx = np.array([s.x for s in sites])
    sy = np.array([s.y for s in sites])

    def dist(vx, vy, px, py):
        return np.arccosh(np.maximum(cosh_distance_xy(vx, vy, px, py), 1.0))

    m_try = min(16, len(near))
    while True:
        sub = near[:m_try]
        bis = [_bisector(site, s) for s in sub]
        cands, pairs = [], []
        for a in range(m_try):
            for b in range(a + 1, m_try):
                v = geodesic_intersection(bis[a], bis[b])
                if v is not None:
                    cands.append(v)
                    pairs.append({a, b})
        full = m_try == len(near)
        vx = np.array([v.x for v in cands])
        vy = np.array([v.y for v in cands])
        if not full:
            bx = np.array([s.x for s in sub])
            by = np.array([s.y for s in sub])
            d_site = dist(vx, vy, site.x, site.y)
            d_sub = dist(vx[:, None], vy[:, None], bx[None, :], by[None, :])
            keep = d_site <= d_sub.min(axis=1) + tol
            if (not np.any(keep) or not _fan_closed(site, vx[keep], vy[keep])
                    or near_d[m_try] <= 2.0 * (d_site[keep].max() + tol)):
                m_try = min(2 * m_try, len(near))
                continue
        d_all = dist(vx[:, None], vy[:, None], sx[None, :], sy[None, :])
        keep = d_all[:, i] <= d_all.min(axis=1) + tol
        break

    merged = []
    for v, pair, k in zip(cands, pairs, keep):
        if not k:
            continue
        for entry in merged:
            if distance(entry[0], v) <= tol:
                entry[1] |= pair
                break
        else:
            merged.append([v, set(pair)])
    assert len(merged) >= 3
    z = np.array([complex(v.x, v.y) for v, _ in merged])
    p = complex(site.x, site.y)
    order = np.argsort(np.angle((z - p) / (z - p.conjugate())), kind="stable")
    counts = {}
    for _, pair in merged:
        for a in pair:
            counts[a] = counts.get(a, 0) + 1
    neighbors = {sub[a] for a in counts if counts[a] >= 2}
    return [merged[k][0] for k in order], neighbors


def test_perpendicular_bisector_closed_form():
    geo = _bisector(HPoint(0, 1), HPoint(0, math.e**2))
    assert not geo.is_line
    assert abs(geo.c) < 1e-12
    assert abs(geo.r - math.e) < 1e-12
    geo2 = _bisector(HPoint(-1, 2), HPoint(3, 2))
    assert geo2.is_line and abs(geo2.x0 - 1.0) < 1e-12


def test_perpendicular_bisector_equidistance():
    rng = np.random.default_rng(SEED + 11)
    for _ in range(100):
        p, q = (HPoint(rng.uniform(-3, 3), math.exp(rng.uniform(-3, 3)))
                for _ in range(2))
        if distance(p, q) < 1e-3:
            continue
        geo = _bisector(p, q)
        for s in (-1.0, 0.0, 1.5):
            z = point_along(geo, s)
            assert abs(distance(z, p) - distance(z, q)) < 1e-9


@pytest.mark.parametrize("m", [7, 8, 9])
def test_cells_match_bisector_oracle(m):
    p = TightPacking(m)
    spacing = 2.0 * p.disk_radius
    for site in p.centers_in_ball(BallSpec(HPoint(0.3, 1.2), 2.0)):
        cell = packing_cell(p, site)
        sites = p.centers_in_ball(BallSpec(site, 4.0 * spacing))
        i = min(range(len(sites)), key=lambda j: distance(sites[j], site))
        verts, neighbors = _bisector_cell(sites, i, 3.0 * spacing)
        got = cell.polygon.vertices
        assert len(got) == len(verts) == m
        # same cyclic order; the first vertex may differ by a roundoff
        # tie straight below the site
        shift = min(range(m), key=lambda k: distance(got[0], verts[k]))
        for k in range(m):
            w = verts[(k + shift) % m]
            assert abs(got[k].x - w.x) <= 1e-9 * w.y
            assert abs(got[k].y - w.y) <= 1e-9 * w.y
        assert set(cell.neighbor_sites) == neighbors


# ---------------------------------------------------------------- general site sets

def _owner_margin(sites, i, xs, ys):
    """d(point, nearest other site) - d(point, site i) for each point."""
    sx = np.array([s.x for s in sites])
    sy = np.array([s.y for s in sites])
    d = np.arccosh(np.maximum(
        cosh_distance_xy(xs[:, None], ys[:, None], sx[None, :], sy[None, :]), 1.0))
    return np.delete(d, i, axis=1).min(axis=1) - d[:, i]


def _witness(sites, i, rho):
    """Largest ownership margin over the circle of radius rho about site i."""
    site = sites[i]

    def margin(theta):
        x, y = polar_xy(site.x, site.y, rho, np.atleast_1d(theta))
        return _owner_margin(sites, i, x, y)

    return _refined_max(margin, np.linspace(0.0, 2.0 * math.pi, 4097)[:-1])


def _refined_max(margin, grid):
    """Largest margin over a grid of directions, refined about its best eight."""
    m = margin(grid)
    best = float(m.max())
    step = grid[1] - grid[0]
    for k in np.argsort(m)[-8:]:
        res = minimize_scalar(lambda t: -float(margin(t)[0]),
                              bounds=(grid[k] - step, grid[k] + step),
                              method="bounded", options={"xatol": 1e-14})
        best = max(best, -float(res.fun))
    return best


def test_open_cell_among_five_sites_raises():
    # a bisector-pair search within 3 times the nearest-site distance
    # closes this cell into a triangle within 1.6 of the site, yet the
    # site owns a point 10 away
    sites = [HPoint(-1.9, 1.03), HPoint(-0.69, 1.39), HPoint(0.26, 0.86),
             HPoint(0.64, 2.28), HPoint(0.17, 1.11)]
    far = HPoint(-1.16590, 7.05e-5)
    assert abs(distance(far, sites[1]) - 10.0) <= 1e-3
    assert all(distance(far, s) > distance(far, sites[1])
               for k, s in enumerate(sites) if k != 1)
    with pytest.raises(UnboundedCellError):
        _klein_cell(*_xy(sites), 1)


def _ideal_witness(sites, i):
    """Whether site i owns an ideal point: it minimises, ties allowed, the
    Busemann function -log y at infinity or log(((x - t)^2 + y^2) / y) at
    some real t. Real t are searched as the ideal points straight out from
    the site, t = x_i - y_i cot(theta / 2), on a grid of directions theta
    refined about its best points."""
    ly = np.array([s.log_y for s in sites])
    if ly[i] == ly.max():
        return True
    sx = np.array([s.x for s in sites])
    sy = np.array([s.y for s in sites])

    def margin(theta):
        t = sites[i].x - sites[i].y / np.tan(0.5 * np.atleast_1d(theta))
        b = np.log((sx[None, :] - t[:, None]) ** 2 + sy[None, :] ** 2) - ly[None, :]
        return np.delete(b, i, axis=1).min(axis=1) - b[:, i]

    # theta = 0 points at infinity, checked above
    return _refined_max(margin, np.linspace(0.0, 2.0 * math.pi, 4097)[1:-1]) >= 0.0


@settings(max_examples=150, deadline=None)
@given(
    data=st.lists(
        st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
        min_size=2, max_size=12,
    ),
    pick=st.integers(0, 11),
    seed=st.integers(0, 2**32 - 1),
)
# site (1, e^2) owns the strip 0.5 < x < 1.5 up to infinity, where its
# margin at radius 20 is below float resolution
@example(data=[(2.0, 2.0), (1.0, 2.0), (0.0, 0.0), (0.0, 2.0)], pick=1, seed=0)
def test_cell_agrees_with_nearest_site_ownership(data, pick, seed):
    sites = [HPoint(x, math.exp(t)) for x, t in data]
    i = pick % len(sites)
    assume(min(distance(sites[i], s) for k, s in enumerate(sites) if k != i) > 1e-3)
    try:
        cell = _klein_cell(*_xy(sites), i)[0]
    except UnboundedCellError:
        # the site owns a point 20 away, or an ideal point
        assert _witness(sites, i, 20.0) > 0.0 or _ideal_witness(sites, i)
        return
    site = sites[i]
    verts = cell.polygon.vertices
    assert len(verts) >= 3
    margin = _owner_margin(sites, i, np.array([v.x for v in verts]),
                           np.array([v.y for v in verts]))
    assert np.all(np.abs(margin) <= 1e-8)
    assert set(cell.neighbor_sites) <= set(sites) - {site}
    # sampled points of a ball just larger than the cell are inside the
    # polygon exactly when the site is their nearest site
    r = max(distance(site, v) for v in verts) * 1.25 + 0.1
    rng = np.random.default_rng(seed)
    n = 2000
    rho = np.arccosh(1.0 + rng.random(n) * (math.cosh(r) - 1.0))
    xs, ys = polar_xy(site.x, site.y, rho, rng.uniform(0.0, 2.0 * math.pi, n))
    owned = _owner_margin(sites, i, xs, ys)
    inside = PolygonRegion(cell.polygon).covers_xy(xs, ys)
    clear = np.abs(owned) > 1e-7
    assert np.array_equal(inside[clear], owned[clear] > 0.0)


def test_boroczky_cell_agrees_with_nearest_site_ownership():
    bp = BoroczkyPacking()
    cell = packing_cell(bp, bp.center(0, 0))
    site = cell.site
    sites = bp.centers_in_ball(BallSpec(site, 8.0))
    i = min(range(len(sites)), key=lambda j: distance(sites[j], site))
    verts = cell.polygon.vertices
    r = max(distance(site, v) for v in verts) * 1.25 + 0.1
    rng = np.random.default_rng(SEED + 7)
    n = 4000
    rho = np.arccosh(1.0 + rng.random(n) * (math.cosh(r) - 1.0))
    xs, ys = polar_xy(site.x, site.y, rho, rng.uniform(0.0, 2.0 * math.pi, n))
    owned = _owner_margin(sites, i, xs, ys)
    inside = PolygonRegion(cell.polygon).covers_xy(xs, ys)
    clear = np.abs(owned) > 1e-7
    assert inside.any() and (~inside).any()
    assert np.array_equal(inside[clear], owned[clear] > 0.0)


@pytest.mark.parametrize("rho", [0.1, 0.25, 0.26, 0.27, 0.28, 0.3])
def test_small_boroczky_cells_match_a_wide_window(rho):
    # a window of fixed disk spacings is too short for small disks: the
    # cell grows its window until it reaches twice the farthest vertex
    bp = BoroczkyPacking(rho)
    sx, sy = bp._centers(BallSpec(ORIGIN, 3.0))
    assert sx.size == 24
    for x, y in zip(sx, sy):
        site = HPoint(x, y)
        wx, wy = bp._centers(BallSpec(site, 5.0))
        want = _klein_cell(wx, wy, int(np.argmin((wx - x) ** 2 + (wy - y) ** 2)))[0]
        # the oracle's window holds every center within 5 of the site,
        # twice its cell's farthest vertex and more
        assert 2.0 * max(distance(site, v) for v in want.polygon.vertices) <= 5.0
        assert abs(packing_cell(bp, site).area() - want.area()) <= 1e-12


# ---------------------------------------------------------------- cells from one site array
# mass_transport_check builds its owners' cells from one site array, the
# centers within window.radius + 4 rho of the window's center; each cell
# must be the one packing_cell builds about its own window.


def _site_array(packing, window):
    """The transport's site array of a window as a KD-tree, and the radius
    it is complete to about each site."""
    reach = window.radius + 4.0 * packing.disk_radius
    sx, sy = packing._centers(BallSpec(window.center, reach))
    cd = cosh_distance_xy(sx, sy, window.center.x, window.center.y)
    return cKDTree(np.column_stack([sx, sy])), reach - np.arccosh(np.maximum(cd, 1.0))


def _assert_cells_match(monkeypatch, packing, tree, sites, complete):
    """Each cell of _site_cells has packing_cell's area and inscribed
    radius bound to 1e-12. Returns how many cells fell back to packing_cell."""
    fallbacks = []
    monkeypatch.setattr(voronoi, "packing_cell",
                        lambda p, s: fallbacks.append(s) or packing_cell(p, s))
    area, bound = _site_cells(packing, tree, sites, complete)
    assert area.shape == bound.shape == sites.shape
    for j, got_area, got_bound in zip(sites, area, bound):
        want = packing_cell(packing, HPoint(*tree.data[j]))
        assert abs(got_area - want.area()) <= 1e-12
        assert abs(got_bound - want.inscribed_radius_bound()) <= 1e-12
    return len(fallbacks)


@pytest.mark.parametrize("packing, window", [
    (TightPacking(7), BallSpec(ORIGIN, 3.0)),
    (TightPacking(7), BallSpec(HPoint(0.4, 1.3), 3.0)),
    (TightPacking(8), BallSpec(HPoint(-0.7, 0.6), 3.0)),
    (TransformedPacking(Isometry.translation(0.37), TightPacking(7)),
     BallSpec(apply(Isometry.translation(0.37), HPoint(0.2, 1.4)), 2.5)),
    (BoroczkyPacking(), BallSpec(HPoint(0.3, 2.0), 3.0)),
    (BoroczkyPacking(0.25), BallSpec(HPoint(0.3, 2.0), 4.0)),
], ids=["tight7", "tight7 off (0, 1)", "tight8 off (0, 1)", "moved tight7",
        "boroczky", "boroczky 0.25"])
def test_transport_cells_match_packing_cell(monkeypatch, packing, window):
    tree, complete = _site_array(packing, window)
    sites = np.unique(_owners(tree, window, SamplePlan(SEED, 256), 1e-9))
    fallbacks = _assert_cells_match(monkeypatch, packing, tree, sites, complete[sites])
    if isinstance(packing, BoroczkyPacking):
        # two disk spacings (1.93 or less) never certify a Boroczky cell
        # (2 rho_c is about 2.27): the cells that did not fall back were
        # certified on a later pass, at a larger radius
        assert 0 < fallbacks < sites.size
    else:
        assert fallbacks == 0


@pytest.mark.parametrize("packing, window", [
    (TightPacking(7), BallSpec(ORIGIN, 1.0)),
    (BoroczkyPacking(0.27), BallSpec(HPoint(0.3, 2.0), 3.0)),
], ids=["tight7", "boroczky 0.27"])
def test_site_cells_out_to_the_rim_of_the_array(monkeypatch, packing, window):
    # every site of the array, down to those it holds no neighbour beyond:
    # near the rim a cell among the array's sites is bounded and wrong, so
    # only the radius the array is complete to may certify it
    tree, complete = _site_array(packing, window)
    assert complete.min() < 2.0 * packing.disk_radius
    _assert_cells_match(monkeypatch, packing, tree, np.arange(tree.n), complete)


@pytest.mark.parametrize("packing, center, radius", [
    *((TightPacking(m), ORIGIN, 1.2 * tight_radius(m) * 2.0) for m in range(7, 13)),
    (BoroczkyPacking(), HPoint(0.3, 2.0), 2.5),
    (BoroczkyPacking(0.25), HPoint(-0.4, 0.7), 2.0),
], ids=[*(f"tight{m}" for m in range(7, 13)), "boroczky", "boroczky 0.25"])
def test_fan_area_matches_gauss_bonnet(monkeypatch, packing, center, radius):
    # the fan area of _site_cells against the Gauss-Bonnet area of the
    # same _klein_cell cell, among the centers within 8 of the center;
    # every cell near the center certifies well inside that array
    sx, sy = packing._centers(BallSpec(center, 8.0))
    d = np.arccosh(np.maximum(cosh_distance_xy(sx, sy, center.x, center.y), 1.0))
    sites = np.flatnonzero(d <= radius)
    monkeypatch.setattr(voronoi, "packing_cell", None)  # no cell may fall back
    area, _ = _site_cells(packing, cKDTree(np.column_stack([sx, sy])), sites, 8.0 - d[sites])
    want = np.array([_klein_cell(sx, sy, j)[0].area() for j in sites])
    assert sites.size > 1
    assert np.all(np.abs(area - want) <= 1e-13 * want)
    if isinstance(packing, TightPacking):
        exact = ball_area(packing.disk_radius) / tight_density_formula(packing.m)
        assert np.all(np.abs(area - exact) <= 1e-13 * exact)


def test_transport_builds_no_polygon(monkeypatch):
    # every owner's cell of B(0, 7) certifies in the batch: no per-owner
    # polygon is built, and the charge is the closed form to roundoff
    polygons = []
    init = GeodesicPolygon.__init__
    monkeypatch.setattr(GeodesicPolygon, "__init__",
                        lambda self, v: polygons.append(1) or init(self, v))
    got = mass_transport_check(TightPacking(7), BallSpec(ORIGIN, 7.0), SamplePlan(SEED, 256))
    assert polygons == []
    assert abs(got - tight_density_formula(7)) <= 1e-15


def test_transport_rejects_a_disk_past_its_cells(monkeypatch):
    # tight disks touch their cells' edges: a radius 1e-9 larger leaves them
    real = density._disk_radius
    monkeypatch.setattr(density, "_disk_radius", lambda p: real(p) + 1e-9)
    with pytest.raises(DomainError):
        mass_transport_check(TightPacking(7), BallSpec(ORIGIN, 2.0), SamplePlan(SEED, 64))


def test_site_cells_reject_a_repeated_center():
    # the tree holds one center twice; the packing itself does not
    p = TightPacking(7)
    sx, sy = p._centers(BallSpec(ORIGIN, 4.0))
    i = int(np.argmin(cosh_distance_xy(sx, sy, 0.0, 1.0)))
    tree = cKDTree(np.column_stack([np.append(sx, sx[i]), np.append(sy, sy[i])]))
    with pytest.raises(DomainError):
        _site_cells(p, tree, np.array([i]), np.array([4.0]))

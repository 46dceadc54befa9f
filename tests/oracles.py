"""Reference implementations the tests compare the package against.

These are the package's earlier, slower constructions, kept as
independent oracles:

- ``distance``, the scalar hyperbolic distance of two points, in log
  height beyond |log y| = 600 so that it holds at extreme heights;
- geodesics as half-plane arcs, vertical lines and semicircles
  (``ArcGeodesic``): ``geodesic_through``, ``geodesic_intersection``,
  ``arc_coordinate``, ``point_along``, ``midpoint`` and
  ``signed_distance_xy``;
- ``ArcPolygon``, a polygon that checks simplicity by intersecting its
  edge arcs pairwise and measures its interior angles between Euclidean
  tangents, with ``ArcPolygonRegion``, whose membership test takes one
  signed distance per edge and whose sampler rejects area-uniform points
  of an enclosing ball;
- ``gauss_bonnet_area``, a ``GeodesicPolygon``'s area from its interior
  angles, read off consecutive edge normals;
- ``partition_audit``, the fraction of window samples that lie in
  exactly one of a set of Dirichlet cells;
- ``kdtree_ball_hits``, the points of a KD-tree in hyperbolic balls by
  one ``query_ball_point`` call, and ``kdtree_nearest_sites``, each
  point's k hyperbolically nearest by the KD-tree's k + 1 Euclidean
  nearest and one ball refine;
- ``DedupTightPacking``, a tight packing whose neighbourhood of (0, 1)
  grows by turning every rim vertex's known neighbour through all its
  turns and merging the candidates that a KD-tree ball query finds
  within the disk radius of a known vertex or an earlier candidate;
- ``WallFoldTightPacking``, a tight packing that folds points into its
  chamber by reflecting them across one chamber wall at a time, and
  carries window vertices back by the word of walls crossed;
- ``StepsTightPacking``, a tight packing whose window center folds by a
  fold that appends each sweep's (k, mirrored, inverted) to a list, and
  whose isometry of the center replays that list;
- ``ReplayTightPacking``, a tight packing that carries window vertices
  back by replaying each sweep of the center's fold, inversion, mirror
  and turn, on every vertex;
- ``ChamberFoldTightPacking``, a tight packing whose coverage test folds
  every point all the way into the chamber, far points jumped first, and
  then compares it with the disk about (0, 1), and
  ``SweepChamberFoldTightPacking``, the same fold by sweeps alone (the
  last three derive from ``StepsTightPacking``);
- ``nearest_site``, the hyperbolically nearest site of one point and the
  margin to the second, by Euclidean disk queries of growing radius, and
  ``transport_loop``, the mass-transport mean and owners that it finds
  placing the samples one at a time;
- ``window_centers``, the disk centers of a packing in a ball, built one
  at a time: Boroczky centers disk by disk along each row, the centers of
  a moved packing by the scalar ``apply`` of each base center;
- ``level_net``, the level net of a truncation with one polar net per
  disk, about the disk's own center, over the disks meeting the level
  ball grown by one disk diameter, and ``nearest_site_hausdorff``, the
  Hausdorff distance from every point's hyperbolically nearest site in
  the other set (``kdtree_nearest_sites`` with k = 1 per pass), and
  ``kdtree_hausdorff``, the Hausdorff distance by the pruned pass as it
  was with a KD-tree (``kdtree_directed_cosh``): each point's Euclidean
  nearest site gives an upper bound and the Euclidean distance a lower
  one;
- ``brick_containing``, the brick of a family that holds a point, read
  off the point's log-height;
- ``all_pairs_min_gap``, the smallest gap between disks over every pair,
  in chunks of the all-pairs distance matrix, and ``kdtree_min_gap``, the
  smallest gap from each center's second ``kdtree_nearest_sites`` hit on
  a KD-tree of the centers;
- ``qhull_hulls``, the hulls of runs of Dirichlet dual points by one
  Qhull ``ConvexHull`` call per run;
- ``boundary_point`` and ``outline_element``, a disk's outline point by
  point, each the disk's top turned about its center by one rotation
  isometry, and the SVG element drawn from 64 of them;
- ``inplace_polar_xy``, the ball sampler's polar map run in place on
  buffers of the broadcast shape;
- the one-shot samplers ``ball_points``, ``ball_sample``,
  ``polygon_sample`` and ``brick_sample``, which draw all n points at
  once from one generator; ``fan_points``, the polygon sampler's block
  map with a new array for every step; and the estimators ``mc_area_fraction`` and
  ``tile_density`` that average the verdicts of all n points with
  ``np.mean``;
- ``quad_box_area_in_ball``, the area of a box {xa <= x < xb,
  la <= log y < lb} inside a ball by adaptive ``scipy.integrate.quad``
  over the clipped chord width, with the circle's crossings of the x
  edges as break points;
- ``covered_fraction_in_ball``, the exact covered fraction of a ball
  under a disk packing, a sum of whole disks and lenses over the disks
  near the ball, which checks the Monte Carlo layer without the ball
  sampler.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from scipy import integrate
from scipy.spatial import ConvexHull, QhullError, cKDTree

from hypack import density
from hypack.errors import DomainError, RangeError
from hypack.hgeom import (
    ORIGIN,
    BallSpec,
    GeodesicPolygon,
    HDisk,
    HPoint,
    Isometry,
    apply,
    _BALL_PAD,
    _SAFE_LOG,
    cosh_distance_xy,
    mobius_xy,
    polar_xy,
)
from hypack.packings import (
    _BLOCK,
    _COLUMN_BOUND,
    _DISK_CAP,
    _MAX_REFOLDS,
    _MAX_SWEEPS,
    BoroczkyPacking,
    BrickTile,
    TightPacking,
    TransformedPacking,
    _direction,
    _too_many_disks,
)
from hypack.pspace import _BLOCK_PAIRS, _boundary_ring
from hypack.svg import _disk_element, _path
from hypack.regions import AreaEstimate, PolygonRegion, SamplePlan, sample_ball_uniform
from hypack.voronoi import cell_relative_density, packing_cell

# two endpoint x's closer than this, relative to the points' size, make a
# vertical geodesic. (The package's version used max(1, |x|) as the size,
# which reads every edge narrower than 1e-12 as vertical and breaks
# polygons below log-height -26; relative to the size the test is the
# same at every height.)
_LINE_TOL = 1e-12
_LN2 = math.log(2.0)


# ---------------------------------------------------------------- distance

def _log_abs_diff_exp(a: float, b: float) -> float:
    """log|e^a - e^b| computed without forming the exponentials."""
    if a == b:
        return -math.inf
    hi, lo = (a, b) if a > b else (b, a)
    return hi + math.log1p(-math.exp(lo - hi))


def distance(p: HPoint, q: HPoint) -> float:
    """Hyperbolic distance. Vertically aligned pairs use the exact log identity."""
    if p.x == q.x:
        return abs(p.log_y - q.log_y)
    if abs(p.log_y) <= _SAFE_LOG and abs(q.log_y) <= _SAFE_LOG:
        s = math.hypot(p.x - q.x, p.y - q.y) / (2.0 * math.sqrt(p.y) * math.sqrt(q.y))
        return 2.0 * math.asinh(s)
    dx = p.x - q.x
    ln_dx2 = 2.0 * math.log(abs(dx)) if dx != 0.0 else -math.inf
    ln_dy2 = 2.0 * _log_abs_diff_exp(p.log_y, q.log_y)
    ln_e = 0.5 * np.logaddexp(ln_dx2, ln_dy2)
    ln_s = ln_e - 0.5 * (p.log_y + q.log_y) - _LN2
    if ln_s > 33.0:
        # asinh(s) = log(2s) + O(s^-2)
        return 2.0 * (_LN2 + ln_s)
    if ln_s < -33.0:
        return 2.0 * math.exp(ln_s)
    return 2.0 * math.asinh(math.exp(ln_s))


# ---------------------------------------------------------------- geodesic arcs

@dataclass(frozen=True)
class ArcGeodesic:
    """Vertical line x = x0 (is_line) or semicircle centered (c, 0), radius r."""

    is_line: bool
    x0: float = 0.0
    c: float = 0.0
    r: float = 0.0

    @classmethod
    def vertical(cls, x0: float) -> "ArcGeodesic":
        return cls(is_line=True, x0=float(x0))

    @classmethod
    def circle(cls, c: float, r: float) -> "ArcGeodesic":
        r = float(r)
        if not (r > 0.0) or not math.isfinite(r):
            raise DomainError(f"geodesic circle radius must be positive, got {r!r}")
        return cls(is_line=False, c=float(c), r=r)


def geodesic_through(p: HPoint, q: HPoint) -> ArcGeodesic:
    """The unique geodesic containing both points."""
    scale = max(abs(p.x), abs(q.x), p.y, q.y)
    if abs(p.x - q.x) <= _LINE_TOL * scale:
        if p.log_y == q.log_y:
            raise DomainError("coincident points do not determine a geodesic")
        return ArcGeodesic.vertical(0.5 * (p.x + q.x))
    c = (q.x * q.x + q.y * q.y - p.x * p.x - p.y * p.y) / (2.0 * (q.x - p.x))
    r = math.hypot(p.x - c, p.y)
    return ArcGeodesic.circle(c, r)


def arc_coordinate(geo: ArcGeodesic, p: HPoint) -> float:
    """Arclength coordinate of p along geo (p is assumed to lie on geo)."""
    if geo.is_line:
        return p.log_y
    phi = math.atan2(p.y, p.x - geo.c)
    return math.log(math.tan(0.5 * phi))


def point_along(geo: ArcGeodesic, s: float) -> HPoint:
    """Point at arclength coordinate s; inverse of arc_coordinate."""
    if geo.is_line:
        return HPoint.from_log(geo.x0, s)
    phi = 2.0 * math.atan(math.exp(s))
    return HPoint(geo.c + geo.r * math.cos(phi), geo.r * math.sin(phi))


def midpoint(p: HPoint, q: HPoint) -> HPoint:
    """Hyperbolic midpoint of the segment pq."""
    if p.x == q.x:
        return HPoint.from_log(p.x, 0.5 * (p.log_y + q.log_y))
    geo = geodesic_through(p, q)
    return point_along(geo, 0.5 * (arc_coordinate(geo, p) + arc_coordinate(geo, q)))


def signed_distance_xy(geo: ArcGeodesic, xs, ys):
    """Signed distance from points to geo: positive right of a line, outside a circle."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if geo.is_line:
        return np.arcsinh((xs - geo.x0) / ys)
    val = ((xs - geo.c) ** 2 + ys * ys - geo.r * geo.r) / (2.0 * geo.r * ys)
    return np.arcsinh(val)


def signed_distance(geo: ArcGeodesic, p: HPoint) -> float:
    """Signed distance from one point to geo."""
    return float(signed_distance_xy(geo, p.x, p.y))


def geodesic_intersection(g1: ArcGeodesic, g2: ArcGeodesic) -> HPoint | None:
    """Intersection point of two full geodesics in the open half-plane, if any."""
    if g1.is_line and g2.is_line:
        return None
    if g1.is_line or g2.is_line:
        line, circ = (g1, g2) if g1.is_line else (g2, g1)
        dx = line.x0 - circ.c
        rad = circ.r * circ.r - dx * dx
        if rad <= 0.0:
            return None
        return HPoint(line.x0, math.sqrt(rad))
    if g1.c == g2.c:
        return None
    x = (g1.c * g1.c - g2.c * g2.c - g1.r * g1.r + g2.r * g2.r) / (2.0 * (g1.c - g2.c))
    rad = g1.r * g1.r - (x - g1.c) ** 2
    if rad <= 0.0:
        return None
    return HPoint(x, math.sqrt(rad))


# ---------------------------------------------------------------- arc polygons

def _edge_interval(geo: ArcGeodesic, a: HPoint, b: HPoint):
    """Parameter interval of the arc from a to b: x-range (circle) or y-range (line)."""
    if geo.is_line:
        return min(a.log_y, b.log_y), max(a.log_y, b.log_y)
    return min(a.x, b.x), max(a.x, b.x)


def _strictly_inside(lo: float, hi: float, v: float) -> bool:
    span = max(hi - lo, 1e-30)
    pad = 1e-12 * max(1.0, abs(lo), abs(hi)) + 1e-9 * span
    return lo + pad < v < hi - pad


def _edges_cross(geo1, a1, b1, geo2, a2, b2) -> bool:
    """Whether two geodesic arcs meet away from shared endpoints."""
    if geo1.is_line and geo2.is_line:
        if abs(geo1.x0 - geo2.x0) > 1e-12 * max(1.0, abs(geo1.x0), abs(geo2.x0)):
            return False
        lo1, hi1 = _edge_interval(geo1, a1, b1)
        lo2, hi2 = _edge_interval(geo2, a2, b2)
        return min(hi1, hi2) - max(lo1, lo2) > 1e-12
    pt = geodesic_intersection(geo1, geo2)
    if pt is None:
        # concentric circles can overlap as sets
        if not geo1.is_line and not geo2.is_line and geo1.c == geo2.c and geo1.r == geo2.r:
            lo1, hi1 = _edge_interval(geo1, a1, b1)
            lo2, hi2 = _edge_interval(geo2, a2, b2)
            return min(hi1, hi2) - max(lo1, lo2) > 1e-12
        return False
    lo1, hi1 = _edge_interval(geo1, a1, b1)
    lo2, hi2 = _edge_interval(geo2, a2, b2)
    v1 = pt.log_y if geo1.is_line else pt.x
    v2 = pt.log_y if geo2.is_line else pt.x
    return _strictly_inside(lo1, hi1, v1) and _strictly_inside(lo2, hi2, v2)


def _tangent_toward(geo: ArcGeodesic, v: HPoint, w: HPoint):
    """Unit Euclidean tangent of geo at v pointing toward w."""
    if geo.is_line:
        return (0.0, 1.0) if w.log_y > v.log_y else (0.0, -1.0)
    phi_v = math.atan2(v.y, v.x - geo.c)
    phi_w = math.atan2(w.y, w.x - geo.c)
    tx, ty = -math.sin(phi_v), math.cos(phi_v)
    if phi_w < phi_v:
        tx, ty = -tx, -ty
    return tx, ty


class ArcPolygon:
    """Simple polygon with geodesic edges, all interior angles in (0, pi)."""

    def __init__(self, vertices):
        vertices = tuple(vertices)
        if len(vertices) < 3:
            raise DomainError(f"polygon needs at least 3 vertices, got {len(vertices)}")
        n = len(vertices)
        edges = [geodesic_through(vertices[i], vertices[(i + 1) % n]) for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if j == i + 1 or (i == 0 and j == n - 1):
                    continue  # adjacent edges share a vertex
                if _edges_cross(
                    edges[i], vertices[i], vertices[(i + 1) % n],
                    edges[j], vertices[j], vertices[(j + 1) % n],
                ):
                    raise DomainError(f"polygon is not simple: edges {i} and {j} cross")
        angles = []
        for i in range(n):
            v = vertices[i]
            t_prev = _tangent_toward(edges[(i - 1) % n], v, vertices[(i - 1) % n])
            t_next = _tangent_toward(edges[i], v, vertices[(i + 1) % n])
            dot = t_prev[0] * t_next[0] + t_prev[1] * t_next[1]
            ang = math.acos(max(-1.0, min(1.0, dot)))
            if not (0.0 < ang < math.pi):
                raise DomainError(f"interior angle {ang:.6f} at vertex {i} is outside (0, pi)")
            angles.append(ang)
        self.vertices = vertices
        self.edges = tuple(edges)
        self.angles = tuple(angles)

    def area(self) -> float:
        """Gauss-Bonnet area: (n - 2) pi - sum of interior angles."""
        area = (len(self.vertices) - 2) * math.pi - sum(self.angles)
        if area <= 0.0:
            raise DomainError(f"polygon area {area:.3e} is not positive")
        return area


def gauss_bonnet_area(polygon: GeodesicPolygon) -> float:
    """Gauss-Bonnet area of a GeodesicPolygon: (n - 2) pi - sum of interior angles.

    Both normals at vertex k are Minkowski-orthogonal to P_k, and the
    interior angle there has cosine -<n_k-1, n_k> and sine
    |det(n_k-1, n_k, P_k)|; taking both keeps small angles exact.
    """
    n = polygon.normals
    prev = np.roll(n, 1, axis=0)
    cos = -np.sum(prev * n * np.array([-1.0, 1.0, 1.0]), axis=1)
    sin = np.abs(np.sum(np.cross(prev, n) * polygon.lifted, axis=1))
    return (len(polygon.vertices) - 2) * math.pi - sum(np.arctan2(sin, cos).tolist())


class ArcPolygonRegion:
    """Closed region of an ArcPolygon: one signed distance per edge."""

    def __init__(self, polygon: ArcPolygon):
        self.polygon = polygon
        ref = _interior_point(polygon)
        signs = []
        for geo in polygon.edges:
            sd = signed_distance(geo, ref)
            if abs(sd) < 1e-12:
                raise DomainError("could not certify an interior reference point")
            signs.append(1.0 if sd > 0 else -1.0)
        self.signs = signs

    def signed_distances(self, xs, ys):
        """Signed distance of each point to each edge, positive inside (edges x points)."""
        return np.array([
            sign * signed_distance_xy(geo, xs, ys)
            for geo, sign in zip(self.polygon.edges, self.signs)
        ])

    def covers_xy(self, xs, ys):
        return np.all(self.signed_distances(xs, ys) >= -1e-12, axis=0)

    def enclosing_ball(self) -> BallSpec:
        """A ball containing the polygon, near-minimal over simple centers."""
        verts = self.polygon.vertices
        candidates = list(verts)
        for i in range(len(verts)):
            for j in range(i + 1, len(verts)):
                candidates.append(midpoint(verts[i], verts[j]))
        best_c, best_r = None, math.inf
        for c in candidates:
            r = max(distance(c, v) for v in verts)
            if r < best_r:
                best_c, best_r = c, r
        return BallSpec(best_c, best_r * (1.0 + 1e-12) + 1e-15)

    def sample_uniform(self, plan: SamplePlan):
        """Exactly plan.n area-uniform points, by rejection from a ball."""
        ball = self.enclosing_ball()
        rng = np.random.Generator(np.random.Philox(plan.seed))
        xs_out, ys_out = [], []
        got = 0
        batch = max(4 * plan.n, 1024)
        while got < plan.n:
            xs, ys = ball_points(ball, rng, batch)
            keep = self.covers_xy(xs, ys)
            xs_out.append(xs[keep])
            ys_out.append(ys[keep])
            got += int(np.count_nonzero(keep))
        return np.concatenate(xs_out)[: plan.n], np.concatenate(ys_out)[: plan.n]


def _interior_point(polygon: ArcPolygon) -> HPoint:
    verts = polygon.vertices
    n = len(verts)
    if n == 3:
        return midpoint(midpoint(verts[0], verts[1]), verts[2])
    return midpoint(verts[0], verts[n // 2])


# ---------------------------------------------------------------- cells

def partition_audit(cells, window: BallSpec, plan: SamplePlan) -> float:
    """Fraction of area-uniform window samples lying in exactly one cell."""
    xs, ys = sample_ball_uniform(window, plan)
    counts = np.zeros(xs.shape, dtype=np.int64)
    for c in cells:
        counts += PolygonRegion(c.polygon).covers_xy(xs, ys).astype(np.int64)
    return float(np.mean(counts == 1))


# ---------------------------------------------------------------- KD-tree queries

def kdtree_ball_hits(tree, xs, ys, cosh_r, sinh_r):
    """Points of a KD-tree over half-plane coordinates inside hyperbolic balls.

    The closed ball of radius r about (x, y) is the Euclidean disk with
    centre (x, y cosh r) and radius y sinh r, so one query_ball_point
    call finds the points of every ball. cosh_r and sinh_r are scalars
    or one value per ball. Returns the number of hits of each ball and
    the tree indices of the hits, flattened ball by ball.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    hits = tree.query_ball_point(np.column_stack([xs, ys * cosh_r]), ys * sinh_r)
    counts = np.fromiter(map(len, hits), np.intp, len(hits))
    flat = np.fromiter(itertools.chain.from_iterable(hits), np.intp, int(counts.sum()))
    return counts, flat


def kdtree_nearest_sites(tree, xs, ys, k: int):
    """The k hyperbolically nearest points of a KD-tree over half-plane
    coordinates, for each query point (x, y): (idx, cd) of shape (n, k),
    tree indices and cosh distances, nearest first.

    The largest cosh distance C of the k Euclidean nearest neighbours
    bounds the k-th hyperbolic one, and the ball {cosh d <= C} is the
    Euclidean disk about (x, y C) of radius y sqrt(C^2 - 1), padded by
    _BALL_PAD y C, so one kdtree_ball_hits refine finds every candidate.
    The disk reaches no farther than y (C - 1 + sqrt(C^2 - 1)) from (x, y): where
    the (k+1)-th Euclidean neighbour lies beyond that, the refine is
    skipped. Each pair's cosh distance is cosh_distance_xy(x, y, site).
    """
    if tree.n < k:
        raise DomainError(f"{k} nearest sites need at least {k} sites, got {tree.n}")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    pts = tree.data
    dist, j = tree.query(np.column_stack([xs, ys]), k=k + 1)
    j = j[:, :k]
    cd = cosh_distance_xy(xs[:, None], ys[:, None], pts[j, 0], pts[j, 1])
    order = np.argsort(cd, axis=1, kind="stable")
    idx = np.take_along_axis(j, order, axis=1)
    cd = np.take_along_axis(cd, order, axis=1)
    ub = cd[:, -1]
    sinh_r = np.sqrt((ub - 1.0) * (ub + 1.0)) + _BALL_PAD * ub
    # (ub - 1) and the KD-tree distance round far below the padding
    refine = np.flatnonzero(dist[:, k] <= ys * (ub - 1.0 + sinh_r))
    if refine.size:
        rx, ry = xs[refine], ys[refine]
        counts, hits = kdtree_ball_hits(tree, rx, ry, ub[refine], sinh_r[refine])
        hcd = cosh_distance_xy(np.repeat(rx, counts), np.repeat(ry, counts),
                               pts[hits, 0], pts[hits, 1])
        # sort each point's hits by cosh distance and take the first k
        rank = np.lexsort((hcd, np.repeat(np.arange(refine.size), counts)))
        take = rank[(np.cumsum(counts) - counts)[:, None] + np.arange(k)]
        idx[refine], cd[refine] = hits[take], hcd[take]
    return idx, cd


# ---------------------------------------------------------------- tight vertices

# generated vertices closer than this are the same vertex
DEDUP_RADIUS = 1e-6


class DedupTightPacking(TightPacking):
    """TightPacking whose neighbourhood grows by turns and KD-tree dedup.

    Each vertex keeps one known neighbour. The rim vertices turn it
    through all m turns (later rings through turns 2 ... m - 2), and a
    candidate is a new vertex unless a known vertex or an earlier
    candidate lies within the disk radius of it. Two points closer than
    the disk radius but farther than DEDUP_RADIUS raise AssertionError.
    """

    def __init__(self, m: int):
        super().__init__(m)
        self._nbr = np.array([1j * self._e2r])

    def _grow(self, radius: float) -> None:
        step = 2.0 * self.disk_radius
        # only vertices within one edge of the old rim have neighbors beyond
        # it; their known neighbors lie within one more edge
        rim = self._reach - step - 1e-6
        i0, i1 = np.searchsorted(self._cd, np.cosh(np.maximum([rim - step - 1e-6, rim], 0.0)))
        prev, ring, nbr = self._z[i0:i1], self._z[i1:], self._nbr[i1:]
        turns = np.arange(self.m)
        cosh_cap = math.cosh(radius)
        found, links = [self._z], [self._nbr]
        while ring.size:
            rot = np.exp(2j * math.pi * turns / self.m)[:, None]
            tk = rot * ((nbr - ring) / (nbr - ring.conj()))
            cand = ((ring - ring.conj() * tk) / (1.0 - tk)).ravel()
            par = np.broadcast_to(ring, tk.shape).ravel()
            keep = cosh_distance_xy(cand.real, cand.imag, 0.0, 1.0) <= cosh_cap
            cand, par = cand[keep], par[keep]
            new = self._fresh(cand, np.concatenate([prev, ring]))
            prev, ring, nbr = ring, cand[new], par[new]
            # a vertex found from p neighbors p and the two vertices flanking
            # the edge to p, all found by now: only the other m - 3 can be new
            turns = np.arange(2, self.m - 1)
            found.append(ring)
            links.append(nbr)
        z, nb = np.concatenate(found), np.concatenate(links)
        cd = cosh_distance_xy(z.real, z.imag, 0.0, 1.0)
        order = np.argsort(cd, kind="stable")
        self._z, self._nbr, self._cd = z[order], nb[order], cd[order]
        self._reach = radius

    def _fresh(self, cand, ref) -> np.ndarray:
        """Mask of candidates that are new vertices: not in ref, first of their kind."""
        pts = np.concatenate([ref, cand])
        tree = cKDTree(np.column_stack([pts.real, pts.imag]))
        r = self.disk_radius
        counts, flat = kdtree_ball_hits(tree, cand.real, cand.imag, math.cosh(r), math.sinh(r))
        a, b = np.repeat(cand, counts), pts[flat]
        gap = 2.0 * np.arcsinh(np.abs(a - b) / (2.0 * np.sqrt(a.imag * b.imag)))
        assert (gap <= DEDUP_RADIUS).all(), "vertex candidates in the ambiguity zone"
        first = np.minimum.reduceat(flat, np.cumsum(counts) - counts)
        return first == ref.size + np.arange(cand.size)


# ---------------------------------------------------------------- tight fold

# Points of finite y > 0 reach the chamber within a few thousand sweeps;
# more means float coordinates lost the point (y underflowed to zero).
_MAX_WALL_SWEEPS = 10_000


class WallFoldTightPacking(TightPacking):
    """TightPacking that folds by reflecting across the chamber walls.

    The walls are x = 0, |z| = e^{r_m} and the circle about
    (cot(pi/m), 0) of radius csc(pi/m). Each sweep reflects the points
    outside one wall across it, wall by wall, until no point moves.
    """

    def __init__(self, m: int):
        super().__init__(m)
        self._wall_c = 1.0 / math.tan(math.pi / self.m)
        # csc^2 = cot^2 + 1 keeps (0, 1) exactly on the circle wall
        self._wall_r2 = self._wall_c * self._wall_c + 1.0

    def _outside(self, wall: int, x, y):
        """Mask of points strictly outside the chamber across one wall."""
        if wall == 0:
            return x < 0.0
        if wall == 1:
            return x * x + y * y > self._e2r
        dx = x - self._wall_c
        return dx * dx + y * y < self._wall_r2

    def _reflect(self, wall: int, x, y):
        """Reflect points across one wall."""
        if wall == 0:
            return -x, y
        if wall == 1:
            s = self._e2r / (x * x + y * y)
            return s * x, s * y
        dx = x - self._wall_c
        s = self._wall_r2 / (dx * dx + y * y)
        return self._wall_c + s * dx, s * y

    def _wall_fold(self, xs, ys, word=None):
        """Reflect each point into the chamber until no point moves.

        Returns flat copies of the folded coordinates. For a single point,
        the walls it crossed are appended to word in order.
        """
        x = np.array(xs, dtype=float).ravel()
        y = np.array(ys, dtype=float).ravel()
        if not (np.isfinite(x).all() and np.isfinite(y).all() and (y > 0.0).all()):
            raise DomainError("half-plane points need finite x and finite y > 0")
        live = np.arange(x.size)
        for _ in range(_MAX_WALL_SWEEPS):
            if live.size == 0:
                return x, y
            lx, ly = x[live], y[live]
            moved = np.zeros(live.size, dtype=bool)
            for wall in range(3):
                out = self._outside(wall, lx, ly)
                if out.any():
                    lx[out], ly[out] = self._reflect(wall, lx[out], ly[out])
                    moved |= out
                    if word is not None:
                        word.append(wall)
            x[live], y[live] = lx, ly
            live = live[moved]
        raise RangeError(f"points did not fold into the chamber in {_MAX_WALL_SWEEPS} sweeps")

    def _centers(self, ball: BallSpec):
        """Coordinates of the vertices in the closed ball."""
        word: list[int] = []
        cx, cy = self._wall_fold([ball.center.x], [ball.center.y], word)
        cd = float(cosh_distance_xy(cx[0], cy[0], 0.0, 1.0))
        reach = math.acosh(max(cd, 1.0)) + ball.radius + 1e-9
        if reach > self._reach:
            self._grow(reach + math.log(2.0))
        z = self._z[: np.searchsorted(self._cd, math.cosh(reach), side="right")]
        near = cosh_distance_xy(z.real, z.imag, cx[0], cy[0]) <= math.cosh(ball.radius)
        x, y = z.real[near], z.imag[near]
        for wall in reversed(word):
            x, y = self._reflect(wall, x, y)
        return x, y

    def covers_xy(self, xs, ys):
        x, y = self._wall_fold(xs, ys)
        cd = cosh_distance_xy(x, y, 0.0, 1.0)
        return (cd <= math.cosh(self.disk_radius)).reshape(np.shape(xs))


class StepsTightPacking(TightPacking):
    """TightPacking whose window center folds through a steps side channel.

    Its _fold sweeps points until none is inverted, and each sweep of a
    single point appends its (k, mirrored, inverted) to a list; _home
    replays that list into the isometry of the center. Its _sweep takes
    that list, so only window queries run on this class; the subclasses
    below bring their own coverage test or keep none.
    """

    def _sweep(self, x, y, steps):
        """Turn points into the sector straight up from (0, 1), mirror them
        into x >= 0 and invert those outside |z| = e^{r_m}.

        Returns x, y and the inverted mask; appends a single point's (k,
        mirrored, inverted) to steps.
        """
        k = np.rint(_direction(x, y) * (self.m / (2.0 * math.pi))).astype(np.intp)
        # the turn by -2 pi k / m is z -> (c z - s) / (s z + c)
        s, c = self._sin.take(k, mode="wrap"), self._cos.take(k, mode="wrap")
        x, y = mobius_xy(c, -s, s, c, x, y)
        mirrored = steps is not None and bool(x[0] < 0.0)
        x = np.abs(x)
        q = x * x + y * y
        if not (np.isfinite(q).all() and (y > 0.0).all()):
            raise RangeError("points beyond float reach do not fold into the chamber")
        inv = q > self._e2r
        if steps is not None:
            steps.append((int(k[0]), mirrored, bool(inv[0])))
        # a factor of exactly 1.0 leaves the points inside the circle as they are
        s = np.minimum(self._e2r / q, 1.0)
        return x * s, y * s, inv

    def _fold(self, xs, ys, steps=None):
        """Sweep each point into the chamber until it is not inverted: flat
        copies of the folded x and y. Each sweep of a single point appends
        its (k, mirrored, inverted) to steps."""
        x, y = self._points(xs, ys)
        live, lx, ly = np.arange(x.size), x, y
        for _ in range(_MAX_SWEEPS):
            lx, ly, inv = self._sweep(lx, ly, steps)
            x[live], y[live] = lx, ly
            live, lx, ly = live[inv], lx[inv], ly[inv]
            if not live.size:
                return x, y
        raise RangeError(f"points did not fold into the chamber in {_MAX_SWEEPS} sweeps")

    def _home(self, p: HPoint):
        """An Isometry g of the packing with g(p) near (0, 1), and g(p).

        With sigma z = -conj(z) the mirror, a sweep's turn is (c, -s; s, c)
        and its inversion sigma (0, -e^{2 r_m}; 1, 0); moved past a sigma, a
        map (a, b; c, d) becomes (a, -b; -c, d), so the sweeps compose to
        sigma^flip g. A float g is an exact isometry of a nearby group
        element, while the folded point is off by about 1e-16 e^{d(p, (0, 1))},
        so g(p) is folded again until it folds without an inversion."""
        g, x, y = Isometry.identity(), p.x, p.y
        try:
            for _ in range(_MAX_REFOLDS):
                steps: list[tuple[int, bool, bool]] = []
                self._fold([x], [y], steps)
                if not any(inverted for _, _, inverted in steps):
                    return g, x, y
                flip = False
                for k, mirrored, inverted in steps:
                    c, s = self._cos[k % self.m], self._sin[k % self.m] * (-1.0 if flip else 1.0)
                    g = Isometry(c, -s, s, c) @ g
                    if inverted:
                        g = Isometry(0.0, -self._e2r, 1.0, 0.0) @ g
                    flip ^= mirrored ^ inverted
                (x,), (y,) = g.apply_xy([p.x], [p.y])
        except DomainError as exc:
            raise RangeError("floats cannot carry a window this far out home") from exc
        raise RangeError(f"a window center did not settle in {_MAX_REFOLDS} folds")


class ReplayTightPacking(StepsTightPacking):
    """TightPacking that carries window vertices back sweep by sweep.

    Each sweep of the window center's fold is undone on every vertex, last
    sweep first: the inversion, the mirror, then the turn back, so every
    vertex picks up the roundoff of every sweep.
    """

    def _turn(self, x, y, k):
        """Turn points about (0, 1) by -2 pi k / m: z -> (c z - s) / (s z + c)."""
        s, c = self._sin.take(k, mode="wrap"), self._cos.take(k, mode="wrap")
        p = s * x + c
        den = p * p + (s * y) ** 2
        return ((c * x - s) * p + c * s * y * y) / den, y / den

    def _centers(self, ball: BallSpec):
        """Coordinates of the vertices in the closed ball."""
        steps: list[tuple[int, bool, bool]] = []
        cx, cy = self._fold([ball.center.x], [ball.center.y], steps)
        cd = float(cosh_distance_xy(cx[0], cy[0], 0.0, 1.0))
        reach = math.acosh(max(cd, 1.0)) + ball.radius + 1e-9
        if reach > self._reach:
            self._grow(reach + math.log(2.0))
        z = self._z[: np.searchsorted(self._cd, math.cosh(reach), side="right")]
        near = cosh_distance_xy(z.real, z.imag, cx[0], cy[0]) <= math.cosh(ball.radius)
        x, y = z.real[near], z.imag[near]
        for k, mirrored, inverted in reversed(steps):
            if inverted:
                s = self._e2r / (x * x + y * y)
                x, y = s * x, s * y
            if mirrored:
                x = -x
            x, y = self._turn(x, y, -k)
        return x, y


class SweepTightPacking(TightPacking):
    """TightPacking whose covers_xy folds by sweeps alone, one per edge
    between a point and (0, 1): no point is far enough to jump."""

    def __init__(self, m: int):
        super().__init__(m)
        self._two_edges = math.inf


class ChamberFoldTightPacking(StepsTightPacking):
    """TightPacking whose covers_xy folds every point all the way into the
    chamber, far points jumped first, and only then compares it with the
    disk about (0, 1): an inverted point always sweeps once more."""

    def _fold(self, xs, ys, steps=None):
        """Sweep each point into the chamber until it is not inverted.

        Returns flat copies of the folded x and y and their x^2 + y^2. For
        a single point, each sweep's (k, mirrored, inverted) goes to steps;
        without steps, far points first jump near (0, 1) (see _jump). A
        point's last sweep leaves it as it is, so its x^2 + y^2 is the
        one that sweep compared with e^{2 r_m}.
        """
        x = np.array(xs, dtype=float).ravel()
        y = np.array(ys, dtype=float).ravel()
        if not (np.isfinite(x).all() and np.isfinite(y).all() and (y > 0.0).all()):
            raise DomainError("half-plane points need finite x and finite y > 0")
        if steps is None:
            self._jump(x, y)
        q = np.empty_like(x)
        live, lx, ly = np.arange(x.size), x, y
        for _ in range(_MAX_SWEEPS):
            lx, ly, inv = self._sweep(lx, ly, steps)
            x[live], y[live], q[live] = lx, ly, lx * lx + ly * ly
            live, lx, ly = live[inv], lx[inv], ly[inv]
            if not live.size:
                return x, y, q
        raise RangeError(f"points did not fold into the chamber in {_MAX_SWEEPS} sweeps")

    def covers_xy(self, xs, ys):
        """Whether each point's folded image lies within r_m of (0, 1),
        folded and compared one regions._BLOCK of points at a time."""
        xs = np.asarray(xs, dtype=float)
        x, y = xs.ravel(), np.asarray(ys, dtype=float).ravel()
        out = np.empty(x.size, dtype=bool)
        scale = 2.0 * math.cosh(self.disk_radius)
        for lo in range(0, x.size, _BLOCK):
            _, fy, q = self._fold(x[lo : lo + _BLOCK], y[lo : lo + _BLOCK])
            # cosh d((x, y), (0, 1)) = (x^2 + y^2 + 1) / (2 y)
            out[lo : lo + q.size] = q + 1.0 <= fy * scale
        return out.reshape(xs.shape)


class SweepChamberFoldTightPacking(ChamberFoldTightPacking, SweepTightPacking):
    """ChamberFoldTightPacking that folds by sweeps alone."""


# ---------------------------------------------------------------- Dirichlet hulls

def qhull_hulls(dual, counts):
    """Hulls of consecutive runs of dual points, counts[t] in run t: the
    runs t whose polar is closed, their hull vertices v as one flat array
    of rows of dual (counterclockwise in each run), the start first of each
    run in v, the successor nxt of each entry of v, and the Klein vertex
    (k1, k2) dual to each hull edge v -> v[nxt]."""
    hulls, closed = [], []
    for t, lo in enumerate(np.cumsum(counts) - counts):
        try:
            hull = ConvexHull(dual[lo:lo + counts[t]])
        except (QhullError, ValueError):
            continue
        # the hull edge on the line n . x = h (unit n, h = -offset) is dual
        # to a cell vertex at Klein radius 1/h: h <= 0 leaves the polar open
        # (the origin is not strictly inside the hull), and h < 1/2 puts the
        # vertex far past the ideal boundary whatever Qhull's roundoff
        if not np.any(hull.equations[:, 2] > -0.5):
            hulls.append(hull.vertices + lo)
            closed.append(t)
    v = np.concatenate(hulls) if hulls else np.empty(0, np.intp)
    size = np.fromiter(map(len, hulls), np.intp, len(hulls))
    first = np.cumsum(size) - size
    nxt = np.arange(1, v.size + 1)
    nxt[first + size - 1] = first
    # the hull edge a -> b is dual to the cell vertex k with D_a . k = D_b . k = 1
    a, b = dual[v], dual[v[nxt]]
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    k1, k2 = (b[:, 1] - a[:, 1]) / det, (a[:, 0] - b[:, 0]) / det
    return np.array(closed, dtype=np.intp), v, first, nxt, k1, k2


# ---------------------------------------------------------------- mass transport

def nearest_site(tree, sx, sy, x, y, rho0):
    """Index of the hyperbolically nearest site and the margin to the
    second nearest, via Euclidean disk queries of growing radius."""
    rho = rho0
    while True:
        _, idx = kdtree_ball_hits(tree, x, y, math.cosh(rho), math.sinh(rho))
        if len(idx) >= 2:
            break
        rho *= 1.5
        if rho > 50.0:
            raise DomainError("could not locate two sites near a sample point")
    d = np.arccosh(np.maximum(cosh_distance_xy(x, y, sx[idx], sy[idx]), 1.0))
    order = np.argsort(d)
    return int(idx[order[0]]), float(d[order[1]] - d[order[0]])


def transport_loop(packing, window: BallSpec, plan: SamplePlan, boundary_tol=1e-9):
    """Mean Dirichlet-cell density over area-uniform points of the window,
    and each sample's owner: its nearest site's index among the centers
    within two disk spacings of the window.

    Samples are placed one at a time; a sample within boundary_tol of a
    cell wall is replaced by one new point of the window at a time. A
    sample is charged its cell's cell_relative_density in a tight packing
    and the Monte Carlo tile_density of the cell in any other.
    """
    spacing = 2.0 * packing.disk_radius
    sites = packing.centers_in_ball(
        BallSpec(window.center, window.radius + 2.0 * spacing)
    )
    if len(sites) < 2:
        raise DomainError("window holds too few packing centers")
    sx = np.array([s.x for s in sites])
    sy = np.array([s.y for s in sites])
    tree = cKDTree(np.column_stack([sx, sy]))

    xs, ys = sample_ball_uniform(window, plan)
    rng = np.random.Generator(np.random.Philox(plan.seed + 977))
    owner = np.empty(plan.n, dtype=np.int64)
    for k in range(plan.n):
        while True:
            j, gap = nearest_site(tree, sx, sy, float(xs[k]), float(ys[k]), spacing)
            if gap >= boundary_tol:
                owner[k] = j
                break
            nx, ny = ball_points(window, rng, 1)
            xs[k], ys[k] = float(nx[0]), float(ny[0])

    values = np.empty(plan.n)
    cache: dict[int, float] = {}
    for k in range(plan.n):
        j = int(owner[k])
        if j not in cache:
            cell = packing_cell(packing, sites[j])
            if isinstance(packing, TightPacking):
                cache[j] = cell_relative_density(cell, packing.disk_radius)
            else:
                region = PolygonRegion(cell.polygon)
                cache[j] = density.tile_density(packing, region, plan).fraction
        values[k] = cache[j]
    return float(np.mean(values)), owner


# ---------------------------------------------------------------- windows

def _boroczky_window(packing, ball: BallSpec):
    """Boroczky centers in the closed ball, row by row and disk by disk."""
    reach = ball.radius
    L0 = ball.center.log_y
    half_scale = math.exp(-0.5 * L0)
    xhat = (ball.center.x * half_scale) * half_scale
    if not math.isfinite(xhat):
        raise RangeError("ball center coordinates overflow the window math")
    C = math.cosh(reach)
    j_lo = math.ceil((L0 - reach - 0.5) / 2.0)
    j_hi = math.floor((L0 + reach - 0.5) / 2.0)
    log_cap = math.log(_DISK_CAP + 1.0)
    out = []
    for j in range(j_lo, j_hi + 1):
        t = 2.0 * j + 0.5 - L0
        if 0.5 * (reach - t) > log_cap:
            raise _too_many_disks(ball.radius)
        inv = math.exp(-t)
        disc = 2.0 * (C - 1.0) * inv - (1.0 - inv) ** 2
        if disc < 0.0:
            continue
        half_k = math.sqrt(disc)
        base = xhat * inv
        if not math.isfinite(base):
            raise RangeError(f"row {j}'s columns lie beyond float reach")
        k_lo = math.ceil(base - half_k - 0.5)
        k_hi = math.floor(base + half_k - 0.5)
        if k_hi < k_lo:
            continue
        if k_lo <= -_COLUMN_BOUND or k_hi >= _COLUMN_BOUND:
            raise RangeError(f"row {j} reaches column {max(-k_lo, k_hi)}, past 2^52")
        if len(out) + (k_hi - k_lo + 1) > _DISK_CAP:
            raise _too_many_disks(ball.radius)
        a = 2.0 * j + 0.5
        if abs(a) > 700.0:
            raise RangeError(f"row {j} lies beyond representable heights")
        ea = math.exp(a)
        for k in range(k_lo, k_hi + 1):
            x = (k + 0.5) * ea
            if not math.isfinite(x):
                raise RangeError(f"center ({j}, {k}) overflows the x coordinate")
            out.append(HPoint.from_log(x, a))
    return out


def window_centers(packing, ball: BallSpec):
    """Disk centers of a packing in the closed ball, as a list of HPoints.

    A moved packing pulls the ball back and moves each base center by the
    scalar apply; a Boroczky packing enumerates its disks one at a time;
    a tight packing answers with its own window.
    """
    if isinstance(packing, TransformedPacking):
        pulled = BallSpec(apply(packing.g_inv, ball.center), ball.radius)
        return [apply(packing.g, c) for c in window_centers(packing.base, pulled)]
    if isinstance(packing, BoroczkyPacking):
        return _boroczky_window(packing, ball)
    return [HPoint(float(a), float(b)) for a, b in zip(*packing._centers(ball))]


def _disk_net(cx, cy, rho, spacing):
    """Deterministic polar net of the disk of radius rho about (cx, cy)."""
    rings = [0.0]
    steps = int(math.ceil(rho / spacing))
    edge = max(rho - 1e-9, 0.0)
    rings.extend(min(i * spacing, edge) for i in range(1, steps + 1))
    xs_all, ys_all = [], []
    for i, r in enumerate(rings):
        if r == 0.0:
            xs_all.append(np.array([cx]))
            ys_all.append(np.array([cy]))
            continue
        n_ang = max(3, int(math.ceil(2.0 * math.pi * math.sinh(r) / spacing)))
        theta = 2.0 * math.pi * (np.arange(n_ang) + 0.5 * (i % 2)) / n_ang
        xs, ys = polar_xy(cx, cy, r, theta)
        xs_all.append(xs)
        ys_all.append(ys)
    return np.concatenate(xs_all), np.concatenate(ys_all)


def level_net(packing, k, spacing):
    """Level-k net of a disk packing, one disk at a time.

    Every disk meeting the level ball grown by one disk diameter gets its
    own polar net about its center, clipped to the level ball; the
    covered arcs of the level boundary follow.
    """
    rho = packing.disk_radius
    cosh_k = math.cosh(k)
    xs_parts, ys_parts = [], []
    for c in window_centers(packing, BallSpec(ORIGIN, k + 3.0 * rho)):
        xs, ys = _disk_net(c.x, c.y, rho, spacing)
        keep = cosh_distance_xy(xs, ys, 0.0, 1.0) <= cosh_k * (1.0 + 1e-12)
        xs_parts.append(xs[keep])
        ys_parts.append(ys[keep])
    bx, by = _boundary_ring(k, spacing)
    keep = np.asarray(packing.covers_xy(bx, by), dtype=bool)
    xs_parts.append(bx[keep])
    ys_parts.append(by[keep])
    return np.column_stack([np.concatenate(xs_parts), np.concatenate(ys_parts)])


def _nearest_site_directed(a, c):
    _, cd = kdtree_nearest_sites(cKDTree(c), a[:, 0], a[:, 1], 1)
    return float(np.arccosh(np.maximum(cd[:, 0], 1.0)).max())


def nearest_site_hausdorff(a, c) -> float:
    """Hausdorff distance between two half-plane point sets, each directed
    pass finding every point's hyperbolically nearest site of the other."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    return max(_nearest_site_directed(a, c), _nearest_site_directed(c, a))


def _cut(best):
    """Smallest upper bound that may still reach the cosh distance best.

    The lower bounds that raise best round a few ulps high; the relative
    pad on best - 1 covers that, and the absolute ulps of best cover the
    cosh - 1 lost below one ulp in 1 + q.
    """
    return best - ((best - 1.0) * 1e-9 + 4.0 * np.finfo(float).eps * best)


def kdtree_directed_cosh(a, c, floor):
    """Largest cosh distance from a point of a to its nearest point of c,
    or floor if that is larger.

    Candidates are the points whose upper bound reaches the cut of the
    best known value; they are taken against all of c, largest upper
    bound first, in blocks of at most _BLOCK_PAIRS pairs (or one point).
    """
    x, y = a[:, 0], a[:, 1]
    delta, j = cKDTree(c).query(a)
    ub = cosh_distance_xy(x, y, c[j, 0], c[j, 1])
    lb = 1.0 + delta * delta / (2.0 * y * (y + delta))
    top = floor
    best = max(float(lb.max()), floor)
    cand = np.flatnonzero((ub > 1.0) & (ub >= _cut(best)))
    cand = cand[np.argsort(-ub[cand], kind="stable")]
    cx, cy = c[:, 0], c[:, 1]
    rows = max(1, _BLOCK_PAIRS // len(c))
    while cand.size:
        blk, cand = cand[:rows], cand[rows:]
        m = cosh_distance_xy(x[blk, None], y[blk, None], cx, cy).min(axis=1)
        top = max(top, float(m.max()))
        best = max(best, top)
        cand = cand[ub[cand] >= _cut(best)]
    return top


def kdtree_hausdorff(a, c) -> float:
    """Hausdorff distance between two half-plane point sets, each directed
    pass bounded by every point's Euclidean nearest site of the other."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    worst = kdtree_directed_cosh(a, c, 1.0)
    return float(np.arccosh(kdtree_directed_cosh(c, a, worst)))


# ---------------------------------------------------------------- bricks

def brick_containing(p: HPoint, family_offset: float = 0.0,
                     width_param: float = math.exp(0.5)) -> BrickTile:
    """The brick of the (family_offset, width_param) family whose
    half-open box contains p, by floor((log y - offset) / 2)."""
    j = math.floor((p.log_y - family_offset) / 2.0)
    s = math.exp(2.0 * j + family_offset)
    k = math.floor(p.x / (width_param * s))
    return BrickTile(j=j, k=k, family_offset=family_offset, width_param=width_param)


# ---------------------------------------------------------------- disks

def all_pairs_min_gap(disks) -> float:
    """Smallest (center distance - radius sum) over all pairs of disks,
    from the full distance matrix in chunks of rows; inf if < 2 disks."""
    n = len(disks)
    if n < 2:
        return math.inf
    xs = np.array([d.center.x for d in disks])
    ys = np.exp(np.array([d.center.log_y for d in disks]))
    rad = np.array([d.radius for d in disks])
    best = math.inf
    chunk = max(1, int(4.0e6 // n))
    for i0 in range(0, n, chunk):
        i1 = min(i0 + chunk, n)
        dx = xs[i0:i1, None] - xs[None, :]
        dy = ys[i0:i1, None] - ys[None, :]
        cd = 1.0 + (dx * dx + dy * dy) / (2.0 * ys[i0:i1, None] * ys[None, :])
        d = np.arccosh(np.maximum(cd, 1.0))
        gap = d - (rad[i0:i1, None] + rad[None, :])
        rows = np.arange(i0, i1)
        gap[rows - i0, rows] = np.inf
        best = min(best, float(gap.min()))
    return best


def kdtree_min_gap(disks) -> float:
    """Smallest (center distance - 2 radius) over pairs of disks of one
    radius; inf if < 2 disks.

    A packing window is admissible when this is >= -1e-9: interiors are
    pairwise disjoint up to roundoff, tangencies land at exactly zero.
    The nearest other center of each center is the second of its two
    nearest sites, the first being the center itself. Disks of different
    radii raise DomainError.
    """
    n = len(disks)
    if n < 2:
        return math.inf
    rad = np.array([d.radius for d in disks])
    if not (rad == rad[0]).all():
        raise DomainError("pairwise_min_gap needs disks of one radius")
    xs = np.array([d.center.x for d in disks])
    ys = np.exp(np.array([d.center.log_y for d in disks]))
    _, cd = kdtree_nearest_sites(cKDTree(np.column_stack([xs, ys])), xs, ys, 2)
    gap = np.arccosh(np.maximum(cd[:, 1], 1.0)) - 2.0 * rad[0]
    return float(gap.min())


def boundary_point(disk: HDisk, theta: float) -> HPoint:
    """Point of the disk's boundary at angle theta from straight up: the
    disk's top turned by theta about its center."""
    top = HPoint.from_log(disk.center.x, disk.center.log_y + disk.radius)
    if theta == 0.0:
        return top
    return apply(Isometry.rotation(theta, disk.center), top)


def outline_element(canvas, disk: HDisk, y_log: bool) -> str:
    """The SVG element of one disk; in y-log plots its outline is 64
    boundary_point calls, one rotation isometry each."""
    if not y_log:
        return _disk_element(canvas, disk, y_log)
    pts = []
    for i in range(64):
        q = boundary_point(disk, 2.0 * math.pi * i / 64)
        pts.append((canvas.px(q.x), canvas.py(math.log(q.y))))
    return (
        f'<path class="body" d="{_path(pts)}" fill="#4477aa" '
        f'fill-opacity="0.55" stroke="#223355" stroke-width="0.8"/>\n'
    )


def inplace_polar_xy(cx, cy, rho, theta):
    """hgeom.polar_xy's e = e^-rho, h = sin(theta/2) map written on two
    buffers of the broadcast shape, updated in place in the formula's
    order, with numpy scalars for scalar rho and theta."""
    rho = np.asarray(rho, dtype=float)
    theta = np.asarray(theta, dtype=float)
    shape = np.broadcast_shapes(rho.shape, theta.shape)
    # exp and sin run on the inputs' own shapes, as in the plain expression,
    # so their values are its values; the arithmetic rounds the same in any
    # shape and runs in place, in the expression's order
    e = np.exp(-rho)
    h = np.sin(0.5 * theta)
    s = np.sin(theta)
    ee = e * e
    hh = np.multiply(h, 2.0, out=np.empty(shape))
    hh *= h
    den = np.subtract(2.0, hh, out=np.empty(shape))
    den *= ee
    den += hh
    low = den == 0.0
    under = [np.broadcast_to(a, shape)[low] for a in (e, h, s)] if low.any() else None
    x = np.subtract(1.0, ee, out=hh)
    np.negative(x, out=x)
    x *= s
    with np.errstate(divide="ignore", invalid="ignore"):
        x /= den
        y = np.divide(2.0 * e, den, out=den)
    if under:
        e, h, s = under
        den_e = 2.0 * h * (h / e) + e * (2.0 - 2.0 * h * h)
        x[low] = -(1.0 - e * e) * (s / e) / den_e
        y[low] = 2.0 / den_e
    x *= cy
    x += cx
    y *= cy
    # scalar rho and theta give numpy scalars
    return x[()], y[()]


# ---------------------------------------------------------------- one-shot Monte Carlo
# Each sampler draws its first stream with one rng.random(n) call and its
# second with another, and each estimator holds all n points and verdicts.


def ball_points(ball: BallSpec, rng, n: int):
    """n area-uniform points of the ball from the generator: n radii, then
    n directions."""
    u = rng.random(n)
    theta = rng.random(n) * (2.0 * math.pi)
    rho = np.arccosh(1.0 + u * (math.cosh(ball.radius) - 1.0))
    return polar_xy(ball.center.x, ball.center.y, rho, theta)


def ball_sample(ball: BallSpec, plan: SamplePlan):
    return ball_points(ball, np.random.Generator(np.random.Philox(plan.seed)), plan.n)


def polygon_sample(region: PolygonRegion, plan: SamplePlan):
    """The fan sampler of PolygonRegion, all n points at once."""
    base = region.polygon.vertices[0]
    x0, x1, x2 = region.polygon.lifted.T
    w = (x1 + 1j * x2) / (1.0 + x0)
    b, c = w[1:-1], w[2:]
    bc = b.conj() * c
    cross, dot = np.abs(bc.imag), bc.real
    half = np.arctan2(cross, 1.0 - dot)
    rng = np.random.Generator(np.random.Philox(plan.seed))
    u = rng.random(plan.n)
    return fan_points(base, (w, cross, dot, half), u, rng.random(plan.n))


def fan_points(base: HPoint, fan, u, v):
    """The fan sampler's block map, PolygonRegion._points, with a new array
    for every operation: the polygon's vertex 0 and its fan (w, cross,
    dot, half), and two uniform blocks."""
    w, cross, dot, half = fan
    b, c = w[1:-1], w[2:]
    start = np.concatenate([[0.0], np.cumsum(half)[:-1]])

    h = u * (start[-1] + half[-1])
    k = np.searchsorted(start, h, side="right") - 1
    q = np.tan(h - start[k])
    b, c = b[k], c[k]
    c = q * c / (cross[k] + q * dot[k])
    phi = (c - b) / (1.0 - b.conj() * c)
    rho2 = phi.real ** 2 + phi.imag ** 2
    z = phi * np.sqrt(v / (1.0 - rho2 * (1.0 - v)))
    z = (z + b) / (1.0 + b.conj() * z)
    z = (z + 1j) / (1.0 + 1j * z)
    return base.x + base.y * z.real, base.y * z.imag


def brick_sample(region, plan: SamplePlan):
    """The brick sampler of BrickRegion, all n points at once."""
    t = region.tile
    rng = np.random.Generator(np.random.Philox(plan.seed))
    u = rng.random(plan.n)
    v = rng.random(plan.n)
    ys = t.s / (1.0 - u * (1.0 - math.exp(-2.0)))
    xa, xb = t.x_bounds
    return xa + v * (xb - xa), ys


def _mean_estimate(covered) -> AreaEstimate:
    cov = np.asarray(covered, dtype=bool)
    frac = float(np.mean(cov))
    return AreaEstimate(frac, math.sqrt(frac * (1.0 - frac) / cov.size), cov.size, "mc")


def mc_area_fraction(target, ball: BallSpec, plan: SamplePlan) -> AreaEstimate:
    return _mean_estimate(target.covers_xy(*ball_sample(ball, plan)))


def tile_density(packing, region, plan: SamplePlan) -> AreaEstimate:
    """Monte Carlo tile density over a PolygonRegion or BrickRegion."""
    sample = polygon_sample if isinstance(region, PolygonRegion) else brick_sample
    return _mean_estimate(packing.covers_xy(*sample(region, plan)))


# ---------------------------------------------------------------- quadrature

_QUAD_REL = 1e-10  # relative tolerance of the box-in-ball quadrature


def _chord_factor(u, R):
    """sqrt((1 - e^{-(R-u)})(1 - e^{-(R+u)})), clamped at the endpoints."""
    rad = (1.0 - math.exp(-(R - u))) * (1.0 - math.exp(-(R + u)))
    if rad <= 0.0:
        return 0.0
    return math.sqrt(rad)


def quad_box_area_in_ball(R: float, center: HPoint, xa, xb, la, lb) -> float:
    """Area of the box {xa <= x < xb, la <= log y < lb} inside B(center, R).

    Edges may be infinite. In u = log y - log y_c the ball's chord at
    height u spans x = x_c + y (-hw, hw) with
    hw = e^{(R-u)/2} sqrt((1 - e^{-(R-u)})(1 - e^{-(R+u)})), a factored,
    cancellation-free form, and the area element is dx du / y, so the
    integrand is the clipped chord width over y:
    min(hw, (xb - x_c)/y) - max(-hw, (xa - x_c)/y). Without finite x edges
    (a stripe) that is hw + hw. The width has a kink where the ball's
    circle crosses a finite x edge; those heights are passed to quad as
    break points. A box with a finite x edge raises RangeError when the
    ball's Euclidean form overflows, whether or not the two meet.
    """
    lo = max(la - center.log_y, -R)
    hi = min(lb - center.log_y, R)
    # x edges in units of the center's height; infinite edges stay infinite
    ea, eb = xa, xb
    points = []
    # stripes keep quad's default absolute tolerance, under which their
    # areas (and A2's fractions) were computed; a box with a finite x edge
    # can hold a tiny area, so it asks for relative accuracy alone
    epsabs = 1.49e-8
    if math.isfinite(xa) or math.isfinite(xb):
        epsabs = 0.0
        circ = BallSpec(center, R).euclid_form()
        ea, eb = (xa - circ.h) / center.y, (xb - circ.h) / center.y
        for xe in (xa, xb):
            dx = abs(xe - circ.h)
            if dx < circ.r:
                # the two crossing heights multiply to y_c^2 + dx^2
                top = math.log(circ.k + math.sqrt((circ.r - dx) * (circ.r + dx)))
                bottom = 2.0 * math.log(math.hypot(center.y, dx)) - top
                points += [bottom - center.log_y, top - center.log_y]
    if lo >= hi:
        return 0.0
    # quad cannot split the piece between a break point and an end closer
    # than this, and the kink there is too near the end to matter
    gap = 1e-9 * R
    points = [u for u in points if lo + gap < u < hi - gap]

    def width(u):
        hw = math.exp(0.5 * (R - u)) * _chord_factor(u, R)
        s = math.exp(-u)
        return max(min(hw, eb * s) - max(-hw, ea * s), 0.0)

    val, _ = integrate.quad(
        width,
        lo,
        hi,
        points=points or None,
        epsabs=epsabs,
        epsrel=_QUAD_REL,
        limit=200,
    )
    return val


# ---------------------------------------------------------------- exact covered area


def _triangle_angle(a, b, c, lib=math):
    """The angle opposite side a of the triangle with sides a, b, c, by the
    half-angle rule tan^2(A/2) = sinh(s - b) sinh(s - c) / (sinh s sinh(s - a)),
    s = (a + b + c)/2, which does not cancel as the arccos form does."""
    s = (a + b + c) / 2
    t = lib.sinh(s - b) * lib.sinh(s - c) / (lib.sinh(s) * lib.sinh(s - a))
    return 2 * lib.atan(lib.sqrt(t))


def covered_fraction_in_ball(packing, ball: BallSpec, lib=math) -> float:
    """The exact fraction of the ball that the packing's disjoint disks
    cover, summed over the disks with centres within R + r of the ball's.

    A whole disk counts 2 pi (cosh r - 1) and a disk holding the whole ball
    counts the ball. A lens counts 2a (cosh r - 1) + 2b (cosh R - 1)
    - 2 (pi - a - b - g), by Gauss-Bonnet, with a the angle at the disk's
    centre, b at the ball's and g at a crossing point in the triangle with
    sides r, R and d. The terms are summed by lib.fsum; lib = mpmath
    evaluates every step in mpmath's working precision.
    """
    num = float if lib is math else lib.mpf
    r, R = num(packing.disk_radius), num(ball.radius)
    cx, cy = num(ball.center.x), num(ball.center.y)
    xs, ys = packing._centers(BallSpec(ball.center, ball.radius + packing.disk_radius))
    disk, cap = 2 * lib.pi * (lib.cosh(r) - 1), 2 * lib.pi * (lib.cosh(R) - 1)
    terms = []
    for x, y in zip(xs.tolist(), ys.tolist()):
        x, y = num(x), num(y)
        d = 2 * lib.asinh(lib.hypot(x - cx, y - cy) / (2 * lib.sqrt(y * cy)))
        if d + r <= R:
            terms.append(disk)
        elif d + R <= r:
            terms.append(cap)
        elif d < R + r:
            a, b, g = (_triangle_angle(*sides, lib=lib) for sides in ((R, r, d), (r, R, d), (d, r, R)))
            terms += [2 * a * (lib.cosh(r) - 1), 2 * b * (lib.cosh(R) - 1), -2 * (lib.pi - a - b - g)]
    return float(lib.fsum(terms) / cap)

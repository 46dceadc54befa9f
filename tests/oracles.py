"""Reference implementations the tests compare the package against.

These are the package's earlier, slower constructions, kept as
independent oracles:

- geodesics as half-plane arcs: ``geodesic_through``,
  ``geodesic_intersection``, ``arc_coordinate``, ``point_along`` and
  ``midpoint``;
- ``ArcPolygon``, a polygon that checks simplicity by intersecting its
  edge arcs pairwise and measures its interior angles between Euclidean
  tangents, with ``ArcPolygonRegion``, whose membership test takes one
  signed distance per edge and whose sampler rejects area-uniform points
  of an enclosing ball;
- ``partition_audit``, the fraction of window samples that lie in
  exactly one of a set of Dirichlet cells.
"""

from __future__ import annotations

import math

import numpy as np

from hypack.errors import DomainError
from hypack.hgeom import BallSpec, Geodesic, HPoint, distance, signed_distance_xy
from hypack.regions import PolygonRegion, SamplePlan, _ball_points, sample_ball_uniform

# two endpoint x's closer than this, relative to the points' size, make a
# vertical geodesic. (The package's version used max(1, |x|) as the size,
# which reads every edge narrower than 1e-12 as vertical and breaks
# polygons below log-height -26; relative to the size the test is the
# same at every height.)
_LINE_TOL = 1e-12


# ---------------------------------------------------------------- geodesic arcs

def geodesic_through(p: HPoint, q: HPoint) -> Geodesic:
    """The unique geodesic containing both points."""
    scale = max(abs(p.x), abs(q.x), p.y, q.y)
    if abs(p.x - q.x) <= _LINE_TOL * scale:
        if p.log_y == q.log_y:
            raise DomainError("coincident points do not determine a geodesic")
        return Geodesic.vertical(0.5 * (p.x + q.x))
    c = (q.x * q.x + q.y * q.y - p.x * p.x - p.y * p.y) / (2.0 * (q.x - p.x))
    r = math.hypot(p.x - c, p.y)
    return Geodesic.circle(c, r)


def arc_coordinate(geo: Geodesic, p: HPoint) -> float:
    """Arclength coordinate of p along geo (p is assumed to lie on geo)."""
    if geo.is_line:
        return p.log_y
    phi = math.atan2(p.y, p.x - geo.c)
    return math.log(math.tan(0.5 * phi))


def point_along(geo: Geodesic, s: float) -> HPoint:
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


def signed_distance(geo: Geodesic, p: HPoint) -> float:
    """Signed distance from one point to geo."""
    return float(signed_distance_xy(geo, p.x, p.y))


def geodesic_intersection(g1: Geodesic, g2: Geodesic) -> HPoint | None:
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

def _edge_interval(geo: Geodesic, a: HPoint, b: HPoint):
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


def _tangent_toward(geo: Geodesic, v: HPoint, w: HPoint):
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
            xs, ys = _ball_points(ball, rng, batch)
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

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
- ``partition_audit``, the fraction of window samples that lie in
  exactly one of a set of Dirichlet cells;
- ``DedupTightPacking``, a tight packing whose neighbourhood of (0, 1)
  grows by turning every rim vertex's known neighbour through all its
  turns and merging the candidates that a KD-tree ball query finds
  within the disk radius of a known vertex or an earlier candidate;
- ``WallFoldTightPacking``, a tight packing that folds points into its
  chamber by reflecting them across one chamber wall at a time, and
  carries window vertices back by the word of walls crossed;
- ``ReplayTightPacking``, a tight packing that carries window vertices
  back by replaying each sweep of the center's fold, inversion, mirror
  and turn, on every vertex;
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
  the other set (``nearest_sites`` with k = 1 on a KD-tree per pass);
- ``all_pairs_min_gap``, the smallest gap between disks over every pair,
  in chunks of the all-pairs distance matrix;
- ``boundary_point`` and ``outline_element``, a disk's outline point by
  point, each the disk's top turned about its center by one rotation
  isometry, and the SVG element drawn from 64 of them;
- the one-shot samplers ``ball_points``, ``ball_sample``,
  ``polygon_sample`` and ``brick_sample``, which draw all n points at
  once from one generator, and the estimators ``mc_area_fraction`` and
  ``tile_density`` that average the verdicts of all n points with
  ``np.mean``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from scipy.spatial import cKDTree

from hypack import density
from hypack.errors import DomainError, RangeError
from hypack.hgeom import (
    ORIGIN,
    BallSpec,
    HDisk,
    HPoint,
    Isometry,
    apply,
    ball_hits,
    _SAFE_LOG,
    cosh_distance_xy,
    nearest_sites,
    polar_xy,
)
from hypack.packings import (
    _COLUMN_BOUND,
    _DISK_CAP,
    BoroczkyPacking,
    TightPacking,
    TransformedPacking,
    _too_many_disks,
)
from hypack.pspace import _boundary_ring
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
        counts, flat = ball_hits(tree, cand.real, cand.imag, math.cosh(r), math.sinh(r))
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


class ReplayTightPacking(TightPacking):
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
        cx, cy, _ = self._fold([ball.center.x], [ball.center.y], steps)
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


# ---------------------------------------------------------------- mass transport

def nearest_site(tree, sx, sy, x, y, rho0):
    """Index of the hyperbolically nearest site and the margin to the
    second nearest, via Euclidean disk queries of growing radius."""
    rho = rho0
    while True:
        _, idx = ball_hits(tree, x, y, math.cosh(rho), math.sinh(rho))
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
    _, cd = nearest_sites(cKDTree(c), a[:, 0], a[:, 1], 1)
    return float(np.arccosh(np.maximum(cd[:, 0], 1.0)).max())


def nearest_site_hausdorff(a, c) -> float:
    """Hausdorff distance between two half-plane point sets, each directed
    pass finding every point's hyperbolically nearest site of the other."""
    a = np.asarray(a, dtype=float)
    c = np.asarray(c, dtype=float)
    return max(_nearest_site_directed(a, c), _nearest_site_directed(c, a))


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
    start = np.concatenate([[0.0], np.cumsum(half)[:-1]])

    rng = np.random.Generator(np.random.Philox(plan.seed))
    h = rng.random(plan.n) * (start[-1] + half[-1])
    k = np.searchsorted(start, h, side="right") - 1
    q = np.tan(h - start[k])
    b, c = b[k], c[k]
    c = q * c / (cross[k] + q * dot[k])
    v = rng.random(plan.n)
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

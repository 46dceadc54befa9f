"""Upper half-plane hyperbolic geometry.

Points live in {(x, y): y > 0} with metric ds^2 = (dx^2 + dy^2)/y^2.
Geodesics are vertical rays and semicircles centered on the x axis.
Orientation-preserving isometries are real Mobius maps z -> (az+b)/(cz+d)
with ad - bc = 1.

Heights are tracked both as y and log(y). Formulas switch to the log
representation once |log y| exceeds _SAFE_LOG, so distances and isometries
stay accurate out to the extreme heights the exponential constructions here
produce.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .config import DEFAULT_TOLERANCES
from .errors import DomainError, RangeError

_LN2 = math.log(2.0)
_SAFE_LOG = 600.0
_LOG_MIN_IMAGE_Y = math.log(DEFAULT_TOLERANCES.min_image_y)


class HPoint:
    """Point (x, y) of the upper half-plane, with y mirrored as log_y."""

    __slots__ = ("x", "y", "log_y")

    def __init__(self, x: float, y: float):
        y = float(y)
        if not (y > 0.0) or not math.isfinite(y):
            raise DomainError(f"half-plane point needs finite y > 0, got y={y!r}")
        self.x = float(x)
        self.y = y
        self.log_y = math.log(y)

    @classmethod
    def from_log(cls, x: float, log_y: float) -> "HPoint":
        """Build a point from log height; y itself may under/overflow float."""
        log_y = float(log_y)
        if not math.isfinite(log_y):
            raise DomainError(f"log height must be finite, got {log_y!r}")
        p = object.__new__(cls)
        p.x = float(x)
        p.log_y = log_y
        try:
            p.y = math.exp(log_y)
        except OverflowError:
            p.y = math.inf
        return p

    def is_extreme(self) -> bool:
        return abs(self.log_y) > _SAFE_LOG

    def __eq__(self, other):
        if not isinstance(other, HPoint):
            return NotImplemented
        return self.x == other.x and self.log_y == other.log_y

    def __hash__(self):
        return hash((self.x, self.log_y))

    def __repr__(self):
        if self.is_extreme():
            return f"HPoint.from_log({self.x!r}, {self.log_y!r})"
        return f"HPoint({self.x!r}, {self.y!r})"


ORIGIN = HPoint(0.0, 1.0)


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


def cosh_distance_xy(x1, y1, x2, y2):
    """Vectorized cosh of the distance between coordinate arrays."""
    x1 = np.asarray(x1, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    return 1.0 + ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (2.0 * y1 * y2)


def polar_xy(cx, cy, rho, theta):
    """Vectorized points at distance rho from (cx, cy), in directions theta.

    The Poincare disk point tanh(rho/2) e^{i theta} is carried to the
    half-plane by w -> i (1 + w) / (1 - w), which sends 0 to (0, 1), and
    then scaled by cy and shifted by cx. theta = 0 points straight up.
    Written with e = e^-rho and h = sin(theta/2), the map has no
    cancellation: |1 - w|^2 (1 + e)^2 / 2 = 2h^2 + e^2 (2 - 2h^2), so the
    points sit at distance rho to a few ulp at any rho.
    """
    e = np.exp(-np.asarray(rho, dtype=float))
    h = np.sin(0.5 * np.asarray(theta, dtype=float))
    den = 2.0 * h * h + e * e * (2.0 - 2.0 * h * h)
    x = -(1.0 - e * e) * np.sin(theta) / den
    y = 2.0 * e / den
    return cx + cy * x, cy * y


def ball_hits(tree, xs, ys, cosh_r, sinh_r):
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


class Isometry:
    """Normalized real Mobius transformation of the half-plane."""

    __slots__ = ("a", "b", "c", "d")

    def __init__(self, a: float, b: float, c: float, d: float):
        a, b, c, d = float(a), float(b), float(c), float(d)
        det = a * d - b * c
        if not math.isfinite(det) or det <= 0.0:
            raise DomainError(f"isometry matrix needs positive determinant, got {det!r}")
        s = math.sqrt(det)
        self.a, self.b, self.c, self.d = a / s, b / s, c / s, d / s

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @classmethod
    def identity(cls) -> "Isometry":
        return cls(1.0, 0.0, 0.0, 1.0)

    @classmethod
    def translation(cls, t: float) -> "Isometry":
        """z -> z + t."""
        return cls(1.0, float(t), 0.0, 1.0)

    @classmethod
    def dilation(cls, lam: float) -> "Isometry":
        """z -> lam * z for lam > 0."""
        lam = float(lam)
        if not (lam > 0.0) or not math.isfinite(lam):
            raise DomainError(f"dilation factor must be positive and finite, got {lam!r}")
        r = math.sqrt(lam)
        return cls(r, 0.0, 0.0, 1.0 / r)

    @classmethod
    def rotation(cls, theta: float, center: HPoint | None = None) -> "Isometry":
        """Rotation by theta about center (default (0, 1))."""
        h = math.cos(theta / 2.0)
        s = math.sin(theta / 2.0)
        rot = cls(h, s, -s, h)
        if center is None or (center.x == 0.0 and center.log_y == 0.0):
            return rot
        move = cls.translation(center.x) @ cls.dilation(center.y)
        return move @ rot @ move.inverse()

    def inverse(self) -> "Isometry":
        return Isometry(self.d, -self.b, -self.c, self.a)

    def __matmul__(self, other: "Isometry") -> "Isometry":
        """(g @ h)(p) == g(h(p))."""
        return Isometry(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __call__(self, p: HPoint) -> HPoint:
        return apply(self, p)

    def apply_xy(self, xs, ys):
        """Vectorized action on coordinate arrays (safe-range heights only)."""
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        cd = self.c * xs + self.d
        den = cd * cd + (self.c * ys) ** 2
        nx = ((self.a * xs + self.b) * cd + self.a * self.c * ys * ys) / den
        ny = ys / den
        return nx, ny

    def __repr__(self):
        return f"Isometry({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def apply(g: Isometry, p: HPoint) -> HPoint:
    """Image of p under g, staying accurate at extreme heights."""
    if not p.is_extreme():
        x, y = p.x, p.y
        cd = g.c * x + g.d
        den = cd * cd + (g.c * y) ** 2
        if den > 0.0 and math.isfinite(den):
            ny = y / den
            if ny < DEFAULT_TOLERANCES.min_image_y:
                raise RangeError(
                    f"image height {ny:.3e} is below min_image_y={DEFAULT_TOLERANCES.min_image_y:g}"
                )
            nx = ((g.a * x + g.b) * cd + g.a * g.c * y * y) / den
            return HPoint(nx, ny)
        # fall through to the log-domain branch on overflow
    if g.c == 0.0:
        # affine map z -> a^2 z + a b (normalized, so d = 1/a)
        scale = 2.0 * math.log(abs(g.a))
        nx = (g.a * g.a) * p.x + g.a * g.b
        nlog = p.log_y + scale
    elif p.log_y > _SAFE_LOG:
        # y huge: z' -> a/c + i / (c^2 y)
        nx = g.a / g.c
        nlog = -2.0 * math.log(abs(g.c)) - p.log_y
    else:
        cd = g.c * p.x + g.d
        if cd != 0.0:
            nx = (g.a * p.x + g.b) / cd
            nlog = p.log_y - 2.0 * math.log(abs(cd))
        else:
            nx = g.a / g.c
            nlog = -2.0 * math.log(abs(g.c)) - p.log_y
    if nlog < _LOG_MIN_IMAGE_Y:
        raise RangeError(
            f"image log-height {nlog:.3f} is below log(min_image_y)={_LOG_MIN_IMAGE_Y:.3f}"
        )
    return HPoint.from_log(nx, nlog)


@dataclass(frozen=True)
class EuclidCircle:
    """Euclidean center (h, k) and radius r of a hyperbolic circle.

    k_minus_r carries k - r in a cancellation-free form (K e^{-R}); for large
    R the raw difference of k and r loses every significant digit, and this
    field is what makes the inverse map well conditioned.
    """

    h: float
    k: float
    r: float
    k_minus_r: float


def _euclid_form(center: HPoint, radius: float) -> EuclidCircle:
    if center.is_extreme() or abs(center.log_y) + radius > 700.0:
        raise RangeError(
            f"euclidean form overflows for log-height {center.log_y:.3g} and radius {radius:.3g}"
        )
    K = center.y
    return EuclidCircle(
        h=center.x,
        k=K * math.cosh(radius),
        r=K * math.sinh(radius),
        k_minus_r=K * math.exp(-radius),
    )


class HDisk:
    """Closed hyperbolic disk: center and hyperbolic radius."""

    __slots__ = ("center", "radius")

    def __init__(self, center: HPoint, radius: float):
        radius = float(radius)
        if not (radius > 0.0) or not math.isfinite(radius):
            raise DomainError(f"disk radius must be positive and finite, got {radius!r}")
        self.center = center
        self.radius = radius

    def euclid_form(self) -> EuclidCircle:
        return _euclid_form(self.center, self.radius)

    def contains(self, p: HPoint, tol: float = 0.0) -> bool:
        return distance(self.center, p) <= self.radius + tol

    def boundary_point(self, theta: float) -> HPoint:
        """Point of the boundary circle at angle theta from the upward direction."""
        top = HPoint.from_log(self.center.x, self.center.log_y + self.radius)
        if theta == 0.0:
            return top
        return apply(Isometry.rotation(theta, self.center), top)

    def __repr__(self):
        return f"HDisk({self.center!r}, {self.radius!r})"


@dataclass(frozen=True)
class BallSpec:
    """Query window: hyperbolic ball with a center and radius."""

    center: HPoint
    radius: float

    def __post_init__(self):
        if not (self.radius > 0.0) or not math.isfinite(self.radius):
            raise DomainError(f"ball radius must be positive and finite, got {self.radius!r}")

    def euclid_form(self) -> EuclidCircle:
        return _euclid_form(self.center, self.radius)

    def contains(self, p: HPoint, tol: float = 0.0) -> bool:
        return distance(self.center, p) <= self.radius + tol


def disk_from_euclidean(circ: EuclidCircle) -> HDisk:
    """Invert HDisk.euclid_form using the stable k - r field."""
    if not (circ.k_minus_r > 0.0):
        raise DomainError("euclidean circle must satisfy k > r to lie in the half-plane")
    kpr = circ.k + circ.r
    K = math.sqrt(kpr * circ.k_minus_r)
    R = 0.5 * math.log(kpr / circ.k_minus_r)
    return HDisk(HPoint(circ.h, K), R)


def ball_area(R: float) -> float:
    """Area of a hyperbolic ball of radius R: 2 pi (cosh R - 1)."""
    R = float(R)
    if R < 0.0 or not math.isfinite(R):
        raise DomainError(f"ball radius must be nonnegative and finite, got {R!r}")
    if R > DEFAULT_TOLERANCES.max_ball_radius:
        raise RangeError(
            f"radius {R:g} exceeds max_ball_radius={DEFAULT_TOLERANCES.max_ball_radius:g}"
        )
    return 2.0 * math.pi * (math.cosh(R) - 1.0)


def angle_of_parallelism(t: float) -> float:
    """Visual half-angle past a geodesic at distance t: arcsin(1/cosh t)."""
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise DomainError(f"distance must be nonnegative and finite, got {t!r}")
    return math.asin(1.0 / math.cosh(t))


@dataclass(frozen=True)
class Geodesic:
    """Vertical line x = x0 (is_line) or semicircle centered (c, 0), radius r."""

    is_line: bool
    x0: float = 0.0
    c: float = 0.0
    r: float = 0.0

    @classmethod
    def vertical(cls, x0: float) -> "Geodesic":
        return cls(is_line=True, x0=float(x0))

    @classmethod
    def circle(cls, c: float, r: float) -> "Geodesic":
        r = float(r)
        if not (r > 0.0) or not math.isfinite(r):
            raise DomainError(f"geodesic circle radius must be positive, got {r!r}")
        return cls(is_line=False, c=float(c), r=r)


def geodesic_through(p: HPoint, q: HPoint) -> Geodesic:
    """The unique geodesic containing both points."""
    scale = max(1.0, abs(p.x), abs(q.x))
    if abs(p.x - q.x) <= DEFAULT_TOLERANCES.line_tol * scale:
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
    """Signed distance from p to geo: positive right of a line / outside a circle."""
    if geo.is_line:
        return math.asinh((p.x - geo.x0) / p.y)
    val = ((p.x - geo.c) ** 2 + p.y * p.y - geo.r * geo.r) / (2.0 * geo.r * p.y)
    return math.asinh(val)


def signed_distance_xy(geo: Geodesic, xs, ys):
    """Vectorized signed_distance over coordinate arrays."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if geo.is_line:
        return np.arcsinh((xs - geo.x0) / ys)
    val = ((xs - geo.c) ** 2 + ys * ys - geo.r * geo.r) / (2.0 * geo.r * ys)
    return np.arcsinh(val)


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


class GeodesicPolygon:
    """Simple polygon with geodesic edges, all interior angles in (0, pi)."""

    __slots__ = ("vertices", "edges", "_angles")

    def __init__(self, vertices):
        vertices = tuple(vertices)
        if len(vertices) < 3:
            raise DomainError(f"polygon needs at least 3 vertices, got {len(vertices)}")
        n = len(vertices)
        edges = []
        for i in range(n):
            a, b = vertices[i], vertices[(i + 1) % n]
            edges.append(geodesic_through(a, b))
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
            prev_v = vertices[(i - 1) % n]
            next_v = vertices[(i + 1) % n]
            t_prev = _tangent_toward(edges[(i - 1) % n], v, prev_v)
            t_next = _tangent_toward(edges[i], v, next_v)
            dot = t_prev[0] * t_next[0] + t_prev[1] * t_next[1]
            ang = math.acos(max(-1.0, min(1.0, dot)))
            if not (0.0 < ang < math.pi):
                raise DomainError(f"interior angle {ang:.6f} at vertex {i} is outside (0, pi)")
            angles.append(ang)
        self.vertices = vertices
        self.edges = tuple(edges)
        self._angles = tuple(angles)

    @property
    def angles(self):
        return self._angles

    def area(self) -> float:
        return polygon_area(self)

    def __repr__(self):
        return f"GeodesicPolygon({list(self.vertices)!r})"


def polygon_area(poly: GeodesicPolygon) -> float:
    """Gauss-Bonnet area: (n - 2) pi - sum of interior angles."""
    n = len(poly.vertices)
    area = (n - 2) * math.pi - sum(poly.angles)
    if area <= 0.0:
        raise DomainError(f"polygon area {area:.3e} is not positive")
    return area

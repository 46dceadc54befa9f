"""Upper half-plane hyperbolic geometry.

Points live in {(x, y): y > 0} with metric ds^2 = (dx^2 + dy^2)/y^2.
Geodesics are vertical rays and semicircles centered on the x axis.
Orientation-preserving isometries are real Mobius maps z -> (az+b)/(cz+d)
with ad - bc = 1.

Heights are tracked both as y and log(y). Isometries switch to the log
representation once |log y| exceeds _SAFE_LOG, so they stay accurate out
to the extreme heights the exponential constructions here produce.

Polygons are convex and live on the hyperboloid -X0^2 + X1^2 + X2^2 = -1,
with (0, 1) at (1, 0, 0): each vertex is a hyperboloid vector relative to
the first vertex, each edge a unit normal from the Minkowski cross
product of its ends, so which side of an edge a point lies on is the
sign of one Minkowski product, and the area is the sum of a fan of
triangles about the first vertex, each read off in the Poincare disk.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError

_SAFE_LOG = 600.0
# Padding of the Euclidean radius of a nearest_sites or pairwise_min_gap
# ball, relative to its centre height y C, so that it holds every site at
# a float cosh distance of at most C. A float cosh distance is within 7 units in the last place
# of its exact value; that moves the radius y sqrt(C^2 - 1) by at most
# y C sqrt(14 * 2^-53) = 4e-8 y C (the square root is steep at C = 1),
# and cosh r, sinh r and the centre, radius and squared distances of
# ball_hits round at 1e-16 y C.
_BALL_PAD = 1e-7
_MIN_IMAGE_Y = 1e-300  # the smallest image height an isometry may produce
_LOG_MIN_IMAGE_Y = math.log(_MIN_IMAGE_Y)
_MAX_BALL_RADIUS = 600.0  # beyond it cosh and sinh keep no useful precision
_BAND_WIDTH = 0.5  # log-height of one band of a SiteGrid


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


def cosh_distance_xy(x1, y1, x2, y2):
    """Vectorized cosh of the distance between coordinate arrays."""
    x1 = np.asarray(x1, dtype=float)
    y1 = np.asarray(y1, dtype=float)
    x2 = np.asarray(x2, dtype=float)
    y2 = np.asarray(y2, dtype=float)
    return 1.0 + ((x1 - x2) ** 2 + (y1 - y2) ** 2) / (2.0 * y1 * y2)


def hyperboloid_xy(xs, ys, x0, y0):
    """Hyperboloid vectors of half-plane points relative to (x0, y0).

    z -> (z - x0) / y0 carries (x0, y0) to (0, 1), whose vector is
    (1, 0, 0). With u + iv the moved point, returns X0 - 1 = cosh d - 1
    (d the distance to (x0, y0)), X1 = u / v and X2 = (u^2 + v^2 - 1)/(2v),
    all formed without cancellation.
    """
    u = (np.asarray(xs, dtype=float) - x0) / y0
    v = np.asarray(ys, dtype=float) / y0
    x0m1 = (u * u + (v - 1.0) ** 2) / (2.0 * v)
    x2 = (u * u + (v - 1.0) * (v + 1.0)) / (2.0 * v)
    return x0m1, u / v, x2


def polar_xy(cx, cy, rho, theta):
    """Vectorized points at distance rho from (cx, cy), in directions theta.

    The Poincare disk point tanh(rho/2) e^{i theta} is carried to the
    half-plane by w -> i (1 + w) / (1 - w), which sends 0 to (0, 1), and
    then scaled by cy and shifted by cx. theta = 0 points straight up.
    Written with e = e^-rho and h = sin(theta/2), the map has no
    cancellation: |1 - w|^2 (1 + e)^2 / 2 = den = 2h^2 + e^2 (2 - 2h^2), so
    the points sit at distance rho to a few ulp at any rho. Where den
    underflows to 0 (h = 0 and rho beyond about 372) the map is taken
    divided through by e, which holds up to rho = 709. Scalar rho and
    theta give numpy scalars.
    """
    e = np.exp(-np.asarray(rho, dtype=float))
    theta = np.asarray(theta, dtype=float)
    h = np.sin(0.5 * theta)
    den = 2.0 * h * h + e * e * (2.0 - 2.0 * h * h)
    with np.errstate(divide="ignore", invalid="ignore"):
        x = np.asarray(-(1.0 - e * e) * np.sin(theta) / den)
        y = np.asarray(2.0 * e / den)
    low = den == 0.0
    if np.any(low):
        e, h, s = (np.broadcast_to(a, low.shape)[low] for a in (e, h, np.sin(theta)))
        den_e = 2.0 * h * (h / e) + e * (2.0 - 2.0 * h * h)
        x[low] = -(1.0 - e * e) * (s / e) / den_e
        y[low] = 2.0 / den_e
    return cx + cy * x, cy * y


class SiteGrid:
    """Sites of the half-plane on a grid of log-height bands, for the ball
    queries of ball_hits and nearest_sites.

    Site i lies in band floor(log y_i / _BAND_WIDTH); the sites are held in
    the order of the key band * n + (rank of x), so those of one band
    within an x interval are one run of that order, found by two
    searchsorted calls. Building the grid is two argsorts.
    """

    __slots__ = ("xs", "ys", "order", "key", "sorted_x", "bands")

    def __init__(self, xs, ys):
        self.xs = np.asarray(xs, dtype=float)
        self.ys = np.asarray(ys, dtype=float)
        band = np.floor(np.log(self.ys) / _BAND_WIDTH).astype(np.int64)
        n = self.xs.size
        by_x = np.argsort(self.xs)
        rank = np.empty(n, np.int64)
        rank[by_x] = np.arange(n)
        key = band * n + rank
        self.order = np.argsort(key)
        self.key, self.sorted_x = key[self.order], self.xs[by_x]
        # the lowest and highest band that holds a site
        self.bands = (int(band.min()), int(band.max())) if band.size else (0, -1)


def ball_hits(grid, xs, ys, cosh_r, sinh_r):
    """Sites of a SiteGrid inside hyperbolic balls.

    The closed ball of radius r about (x, y) is the Euclidean disk with
    centre (x, y cosh r) and radius y sinh r. Each disk looks in the bands
    it spans and, in each band, at the sites whose x lies within its
    widest chord over the band; it keeps those whose squared Euclidean
    distance from the centre is at most the radius squared. The bands and
    chords are padded far past the roundoff of that test, so the test
    alone decides. cosh_r and sinh_r are scalars or one value per ball.
    Returns the number of hits of each ball and the site indices of the
    hits, flattened ball by ball, each ball's in ascending order.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    cx, cy, rad = np.broadcast_arrays(xs, ys * cosh_r, ys * sinh_r)
    lo, hi = grid.bands
    with np.errstate(divide="ignore", invalid="ignore"):
        # a disk reaching down to y = 0 starts at the lowest band
        b0 = np.fmax(np.floor(np.log(cy - rad - 1e-9 * cy) / _BAND_WIDTH), lo)
        b1 = np.fmin(np.floor(np.log((cy + rad) * (1.0 + 1e-9)) / _BAND_WIDTH), hi)
    nb = np.maximum(b1 - b0 + 1.0, 0.0).astype(np.intp)
    # one (ball, band) pair per band each disk spans
    ball = np.repeat(np.arange(cx.size), nb)
    band = (np.repeat(b0, nb).astype(np.int64)
            + np.arange(ball.size) - np.repeat(np.cumsum(nb) - nb, nb))
    px, py, pr = cx[ball], cy[ball], rad[ball]
    # the band holds heights [e^(b w), e^((b+1) w)] up to the roundoff of
    # log, and the disk's widest chord over it is nearest the centre height
    ya = np.exp(band * _BAND_WIDTH) * (1.0 - 1e-10)
    yb = np.exp((band + 1) * _BAND_WIDTH) * (1.0 + 1e-10)
    gap = np.maximum(np.maximum(ya - py, py - yb), 0.0)
    chord = pr * pr * (1.0 + 1e-10) - gap * gap * (1.0 - 1e-10)
    half = np.sqrt(np.maximum(chord, 0.0)) * (1.0 + 1e-10) + 1e-12 * np.abs(px)
    n = grid.xs.size
    band *= n
    start = np.searchsorted(grid.key, band + np.searchsorted(grid.sorted_x, px - half, "left"))
    stop = np.searchsorted(grid.key, band + np.searchsorted(grid.sorted_x, px + half, "right"))
    count = stop - start
    pos = np.repeat(start - (np.cumsum(count) - count), count) + np.arange(count.sum())
    site, owner = grid.order[pos], np.repeat(ball, count)
    dx, dy, r = grid.xs[site] - cx[owner], grid.ys[site] - cy[owner], rad[owner]
    inside = dx * dx + dy * dy <= r * r
    site, owner = site[inside], owner[inside]
    flat = site[np.argsort(owner * n + site)]
    return np.bincount(owner, minlength=cx.size), flat


def nearest_sites(grid, xs, ys, k: int):
    """The k hyperbolically nearest sites of a SiteGrid to each query point
    (x, y): (idx, cd) of shape (n, k), site indices and cosh distances,
    nearest first.

    Each point draws balls of radius 1, 2, 4, ... until one holds k sites
    at cosh distance at most cosh r: then it holds the k nearest. The
    ball's disk is padded by _BALL_PAD y cosh r, so it holds every site at
    a float cosh distance of at most cosh r. Each pair's cosh distance is
    cosh_distance_xy(x, y, site). A point with fewer than k sites within
    _MAX_BALL_RADIUS raises RangeError.
    """
    if grid.xs.size < k:
        raise DomainError(f"{k} nearest sites need at least {k} sites, got {grid.xs.size}")
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    idx = np.empty((xs.size, k), dtype=np.intp)
    cd = np.empty((xs.size, k))
    todo, r = np.arange(xs.size), 1.0
    while todo.size:
        if r > _MAX_BALL_RADIUS:
            raise RangeError(f"{todo.size} points have fewer than {k} sites within "
                             f"{_MAX_BALL_RADIUS:g}")
        c = math.cosh(r)
        qx, qy = xs[todo], ys[todo]
        counts, hits = ball_hits(grid, qx, qy, c, math.sinh(r) + _BALL_PAD * c)
        ball = np.repeat(np.arange(todo.size), counts)
        hcd = cosh_distance_xy(qx[ball], qy[ball], grid.xs[hits], grid.ys[hits])
        done = np.bincount(ball[hcd <= c], minlength=todo.size) >= k
        # sort each point's hits by cosh distance and take the first k
        rank = np.lexsort((hcd, ball))
        take = rank[(np.cumsum(counts) - counts)[done, None] + np.arange(k)]
        idx[todo[done]], cd[todo[done]] = hits[take], hcd[take]
        todo, r = todo[~done], 2.0 * r
    return idx, cd


def mobius_xy(a, b, c, d, xs, ys):
    """z -> (a z + b) / (c z + d), ad - bc = 1, on coordinates; a..d are
    scalars or one per point. |c z + d|^2 is summed from two squares:
    expanded, it cancels near the pole z = -d/c."""
    cd = c * xs + d
    cy = c * ys
    den = cd * cd + cy * cy
    return ((a * xs + b) * cd + a * c * ys * ys) / den, ys / den


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
        return mobius_xy(self.a, self.b, self.c, self.d,
                         np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))

    def __repr__(self):
        return f"Isometry({self.a!r}, {self.b!r}, {self.c!r}, {self.d!r})"


def apply(g: Isometry, p: HPoint) -> HPoint:
    """Image of p under g, staying accurate at extreme heights."""
    if not p.is_extreme():
        with np.errstate(all="ignore"):
            nx, ny = mobius_xy(g.a, g.b, g.c, g.d, np.float64(p.x), np.float64(p.y))
        if 0.0 < ny < math.inf:
            if ny < _MIN_IMAGE_Y:
                raise RangeError(f"image height {ny:.3e} is below {_MIN_IMAGE_Y:g}")
            return HPoint(nx, ny)
        # fall through to the log-domain branch where |cz + d|^2 over- or underflows
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
            f"image log-height {nlog:.3f} is below log({_MIN_IMAGE_Y:g}) = {_LOG_MIN_IMAGE_Y:.3f}"
        )
    return HPoint.from_log(nx, nlog)


@dataclass(frozen=True)
class EuclidCircle:
    """Euclidean center (h, k) and radius r of a hyperbolic circle.

    k_minus_r carries k - r in a cancellation-free form (K e^{-R}); for large
    R the raw difference of k and r loses every significant digit, while
    this field keeps the circle's lowest point (h, K e^{-R}) exact.
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


def ball_area(R: float) -> float:
    """Area of a hyperbolic ball of radius R: 2 pi (cosh R - 1)."""
    R = float(R)
    if R < 0.0 or not math.isfinite(R):
        raise DomainError(f"ball radius must be nonnegative and finite, got {R!r}")
    if R > _MAX_BALL_RADIUS:
        raise RangeError(f"radius {R:g} exceeds the largest ball radius {_MAX_BALL_RADIUS:g}")
    return 2.0 * math.pi * (math.cosh(R) - 1.0)


def angle_of_parallelism(t: float) -> float:
    """Visual half-angle past a geodesic at distance t: arcsin(1/cosh t)."""
    t = float(t)
    if t < 0.0 or not math.isfinite(t):
        raise DomainError(f"distance must be nonnegative and finite, got {t!r}")
    return math.asin(1.0 / math.cosh(t))


@dataclass(frozen=True)
class Geodesic:
    """The vertical geodesic x = x0."""

    x0: float

    @classmethod
    def vertical(cls, x0: float) -> "Geodesic":
        return cls(x0=float(x0))


# Minkowski form <A, B> = -A0 B0 + A1 B1 + A2 B2, as a row of signs
_MINKOWSKI = np.array([-1.0, 1.0, 1.0])


class GeodesicPolygon:
    """Convex polygon with geodesic edges, vertices in cyclic order.

    Vertex k is held as its hyperboloid vector P_k relative to vertex 0
    (hyperboloid_xy), so roundoff follows the polygon's size and not its
    place in the half-plane. The normal n_k of the edge from P_k to
    P_{k+1} is their Minkowski cross product, scaled to <n_k, n_k> = 1
    and signed so that <n_k, X> is the sinh of the distance from X to
    the edge's geodesic, positive on the polygon's side. The polygon is
    convex when every vertex off an edge lies strictly on the same side
    of it; anything else (a repeated vertex, a straight or reflex angle,
    crossing edges) raises DomainError.

    The fan holds the points w of the Poincare disk about vertex 0 and,
    for each triangle (0, k, k+1), cross = |w_k x w_k+1|, dot = w_k . w_k+1
    and half its area, atan2(cross, 1 - dot).
    """

    __slots__ = ("vertices", "lifted", "normals", "fan")

    def __init__(self, vertices):
        vertices = tuple(vertices)
        n = len(vertices)
        if n < 3:
            raise DomainError(f"polygon needs at least 3 vertices, got {n}")
        base = vertices[0]
        x0m1, x1, x2 = hyperboloid_xy(
            [v.x for v in vertices], [v.y for v in vertices], base.x, base.y
        )
        p = np.column_stack([1.0 + x0m1, x1, x2])
        # <J (P_k x P_k+1), P_j> = det(P_k, P_k+1, P_j), J = diag(-1, 1, 1)
        cross = np.cross(p, np.roll(p, -1, axis=0))
        side = np.sign(cross @ p.T)
        k = np.arange(n)
        side[k, k] = side[k, (k + 1) % n] = side[0, 2]
        if side[0, 2] == 0.0 or np.any(side != side[0, 2]):
            raise DomainError("polygon is not convex: a vertex lies on or beyond an edge")
        norm = np.sqrt(np.sum(cross * cross * _MINKOWSKI, axis=1))
        self.vertices = vertices
        self.lifted = p
        self.normals = side[0, 2] * cross * _MINKOWSKI / norm[:, None]
        w = (x1 + 1j * x2) / (1.0 + p[:, 0])
        bc = w[1:-1].conj() * w[2:]
        cross, dot = np.abs(bc.imag), bc.real
        self.fan = (w, cross, dot, np.arctan2(cross, 1.0 - dot))

    def area(self) -> float:
        """Sum of the fan's triangle areas, 2 sum half."""
        area = 2.0 * float(self.fan[3].sum())
        if area <= 0.0:
            raise DomainError(f"polygon area {area:.3e} is not positive")
        return area

    def __repr__(self):
        return f"GeodesicPolygon({list(self.vertices)!r})"

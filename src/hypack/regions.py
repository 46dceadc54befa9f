"""Regions of the half-plane and area estimation.

Provides uniform sampling of hyperbolic balls, Monte Carlo coverage
fractions, exact ball areas by quadrature, and the closed-form Euclidean
annulus fractions. Every sampler is driven by a counter-based generator
keyed on the plan seed, so identical plans give identical output
regardless of platform or call order.

Monte Carlo works in blocks of at most _BLOCK = 2^14 points, so its
memory is bounded by the block, not by the sample count. A plan has two
uniform streams, u and v: u is the first n draws of Philox(seed) and v
the next n, as two rng.random(n) calls would give them. Each sampler is
a block map from a (u, v) block to points, written as its plain formula;
the public samplers fill their outputs block by block, and estimates
count the covered points of each block. TightPacking.covers_xy settles
its points' verdicts in blocks of the same size.

Stripes, half-planes and bricks are all boxes {xa <= x < xb,
la <= log y < lb}, with some edges at infinity, and a hyperbolic ball is
a Euclidean disk. One quadrature, _box_area_in_ball, measures a box
inside a ball for all three.

A convex polygon region works on the hyperboloid: a point is inside when
its Minkowski product with every edge normal is non-negative, and the
area and area-uniform points both come from the polygon's fan of
triangles: points are placed exactly, triangle by triangle, with no
rejection.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .hgeom import (
    BallSpec,
    Geodesic,
    GeodesicPolygon,
    HPoint,
    ball_area,
    hyperboloid_xy,
    polar_xy,
)


@dataclass(frozen=True)
class SamplePlan:
    """Reproducible Monte Carlo plan: seed and sample count."""

    seed: int
    n: int

    def __post_init__(self):
        try:
            ok = operator.index(self.seed) >= 0 and operator.index(self.n) >= 1
        except TypeError:
            ok = False
        if not ok:
            raise DomainError(
                f"a plan needs an integer seed >= 0 and an integer sample count >= 1, "
                f"got seed {self.seed!r} and count {self.n!r}"
            )


@dataclass(frozen=True)
class AreaEstimate:
    fraction: float
    std_error: float
    samples: int
    method: str

    @classmethod
    def monte_carlo(cls, hits: int, n: int) -> "AreaEstimate":
        """Covered fraction hits / n of n uniform samples, with its binomial
        standard error."""
        frac = hits / n
        return cls(frac, math.sqrt(frac * (1.0 - frac) / n), n, "mc")


def _covers_point(target, p: HPoint) -> bool:
    """target.covers_xy on the one point p.

    Raises RangeError where p's height y is not a normal float: 0 or
    subnormal below log y of about -708.4, inf above about 709.8. There y
    holds too few digits of p, or none, to decide coverage from (x, y).
    """
    if not (sys.float_info.min <= p.y < math.inf):
        raise RangeError(f"log-height {p.log_y:.6g} is beyond float heights")
    return bool(target.covers_xy(np.array([p.x]), np.array([p.y]))[0])


class Region:
    """Measurable subset of the half-plane (indicator interface).

    Subclasses provide covers_xy(xs, ys) for coordinate arrays, the one
    coverage predicate; contains(p) is covers_xy on one point (see
    _covers_point).
    """

    def contains(self, p: HPoint) -> bool:
        return _covers_point(self, p)

    def exact_area_in_ball(self, ball: BallSpec):
        """Exact covered area inside the ball, or None when unavailable."""
        return None


class FullPlane(Region):
    def covers_xy(self, xs, ys):
        return np.ones(np.shape(xs), dtype=bool)

    def exact_area_in_ball(self, ball):
        return ball_area(ball.radius)


class EmptyRegion(Region):
    def covers_xy(self, xs, ys):
        return np.zeros(np.shape(xs), dtype=bool)

    def exact_area_in_ball(self, ball):
        return 0.0


class HalfSpaceRegion(Region):
    """Closed side of a vertical geodesic x = x0: sign * (x - x0) >= 0.

    covers_xy reads the sign of x - x0 alone, which needs no division by
    y (0 or inf beyond log-heights of about 709).
    """

    def __init__(self, geodesic: Geodesic, sign: int = +1):
        if sign not in (-1, +1):
            raise DomainError(f"sign must be +1 or -1, got {sign!r}")
        self.geodesic = geodesic
        self.sign = sign

    def covers_xy(self, xs, ys):
        return self.sign * (np.asarray(xs, dtype=float) - self.geodesic.x0) >= 0.0

    def exact_area_in_ball(self, ball):
        if ball.radius > 50.0 or ball.center.is_extreme():
            return None
        x0 = self.geodesic.x0
        xa, xb = (x0, math.inf) if self.sign > 0 else (-math.inf, x0)
        return _box_area_in_ball(ball.radius, ball.center, xa, xb, -math.inf, math.inf)


class PolygonRegion(Region):
    """Closed region bounded by a convex geodesic polygon."""

    def __init__(self, polygon: GeodesicPolygon):
        self.polygon = polygon

    def covers_xy(self, xs, ys):
        """Points with <n_k, X> >= -1e-12 for every edge normal n_k."""
        base = self.polygon.vertices[0]
        x0m1, x1, x2 = hyperboloid_xy(xs, ys, base.x, base.y)
        ok = np.ones(np.shape(x1), dtype=bool)
        for n0, n1, n2 in self.polygon.normals:
            ok &= n1 * x1 + n2 * x2 - n0 * x0m1 - n0 >= -1e-12
        return ok

    def area(self) -> float:
        return self.polygon.area()

    def sample_uniform(self, plan: SamplePlan):
        """Exactly plan.n area-uniform points, placed without rejection.

        Point i is _points of draw i of the plan's first stream (u) and of
        its second (v); see _uniform_blocks.
        """
        return _fill(self._points, plan)

    def _points(self, u, v):
        """Area-uniform points of the polygon from two uniform blocks.

        The polygon is fanned from vertex 0 into the triangles (0, k, k+1).
        In the Poincare disk about vertex 0, where vertex k sits at b and
        vertex k+1 at c, triangle k has area D = 2 atan2(|b x c|, 1 - b.c).
        The draw u picks a triangle by cumulative area and the area h D of
        the part (0, b, c') cut off along the edge from 0 to c, with
        c' = q c / (|b x c| + q b.c) and q = tan(h D / 2), the disk form of
        Arvo's T_s = q / (T_c (sin a + q cos a)). The draw v places the
        point on the geodesic from b to c' at the distance t from b with
        cosh t = 1 + v (cosh |bc'| - 1).
        """
        base = self.polygon.vertices[0]
        w, cross, dot, half = self.polygon.fan
        start = np.concatenate([[0.0], np.cumsum(half)[:-1]])

        area = u * (start[-1] + half[-1])
        k = np.searchsorted(start, area, side="right") - 1
        q = np.tan(area - start[k])
        b, c = w[1:-1][k], w[2:][k]
        c = q * c / (cross[k] + q * dot[k])
        # the disk isometry taking b to 0 carries the geodesic from b to c'
        # to a diameter, along which tanh(t / 2) is the distance from 0
        z = (c - b) / (1.0 - b.conj() * c)
        rho2 = z.real ** 2 + z.imag ** 2
        z = z * np.sqrt(v / (1.0 - rho2 * (1.0 - v)))
        z = (z + b) / (1.0 + b.conj() * z)
        z = (z + 1j) / (1.0 + 1j * z)
        return base.x + base.y * z.real, base.y * z.imag


class StripeRegion(Region):
    """Union of the black stripes of width W (alternating horocyclic bands).

    Stripe j is {e^{(j+1/2)W} <= y < e^{(j+3/2)W}}; black stripes are the odd
    j, which puts the stripe through (0, 1) (j = -1) in the black family.
    """

    def __init__(self, W: float):
        W = float(W)
        if not (W > 0.0) or not math.isfinite(W):
            raise DomainError(f"stripe width must be positive and finite, got {W!r}")
        self.W = W

    def covers_xy(self, xs, ys):
        """Whether points fall in a black (odd-index) stripe."""
        j = np.floor(np.log(np.asarray(ys, dtype=float)) / self.W - 0.5)
        return 2.0 * np.floor(0.5 * j) != j

    def exact_area_in_ball(self, ball):
        frac = quad_black_fraction(self.W, ball.radius, center_log_y=ball.center.log_y)
        return frac * ball_area(ball.radius)


class AnnulusRegionEuclid:
    """Euclidean region: black annuli {2^{j-1} < r <= 2^j} for even j >= 2.

    Coordinates are Euclidean plane coordinates, not half-plane points; use
    this only with Euclidean samplers.
    """

    def covers_xy(self, xs, ys):
        r = np.hypot(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
        # r <= 2 is white; there log2 is taken of 2 and discarded
        return (r > 2.0) & (np.ceil(np.log2(np.maximum(r, 2.0))) % 2.0 == 0.0)


# ------------------------------------------------------------- sampling

_BLOCK = 1 << 14  # points per block of every sampler, estimate and fold


def _uniform_blocks(seed: int, n: int):
    """The plan's two uniform streams, in blocks of at most _BLOCK draws.

    Yields (u, v) blocks: u is draws [lo, lo + m) of Philox(seed) and v
    draws [n + lo, n + lo + m), so the blocks put together equal a first
    and a second rng.random(n) call. Philox makes four doubles per counter
    step, so the second stream is Philox(seed) advanced by n // 4 steps,
    with n % 4 doubles drawn and dropped.
    """
    first = np.random.Generator(np.random.Philox(seed))
    bits = np.random.Philox(seed)
    bits.advance(n // 4)
    second = np.random.Generator(bits)
    second.random(n % 4)
    for lo in range(0, n, _BLOCK):
        m = min(_BLOCK, n - lo)
        yield first.random(m), second.random(m)


def _fill(points, plan: SamplePlan):
    """The plan.n points of the block map points(u, v), as two arrays."""
    xs, ys = np.empty(plan.n), np.empty(plan.n)
    lo = 0
    for u, v in _uniform_blocks(plan.seed, plan.n):
        hi = lo + u.size
        xs[lo:hi], ys[lo:hi] = points(u, v)
        lo = hi
    return xs, ys


def _estimate(target, points, plan: SamplePlan) -> AreaEstimate:
    """Covered fraction under target of the plan.n points of points(u, v),
    counted block by block."""
    hits = 0
    for u, v in _uniform_blocks(plan.seed, plan.n):
        hits += int(np.count_nonzero(target.covers_xy(*points(u, v))))
    return AreaEstimate.monte_carlo(hits, plan.n)


def sample_ball_uniform(ball: BallSpec, plan: SamplePlan):
    """Area-uniform points of the ball, via the radial inverse CDF.

    Point i is _ball_points of draw i of the plan's first stream (the
    radius) and of its second (the direction); see _uniform_blocks.
    """
    return _fill(functools.partial(_ball_points, ball), plan)


def _ball_points(ball: BallSpec, u, v):
    """Area-uniform points of the ball from two uniform blocks: radius
    arccosh(1 + u (cosh R - 1)), independent direction 2 pi v."""
    rho = np.arccosh(1.0 + u * (math.cosh(ball.radius) - 1.0))
    return polar_xy(ball.center.x, ball.center.y, rho, v * (2.0 * math.pi))


def mc_area_fraction(target, ball: BallSpec, plan: SamplePlan) -> AreaEstimate:
    """Monte Carlo covered-area fraction of the ball under target.

    target is anything with covers_xy (Region or packing). The points are
    those of sample_ball_uniform, taken one block at a time.
    """
    return _estimate(target, functools.partial(_ball_points, ball), plan)


# ------------------------------------------------------------- quadrature

_QUAD_REL = 1e-10  # relative accuracy the box-in-ball quadrature is held to

# The tanh-sinh rule of Takahasi and Mori (1974) on [-1, 1]: nodes tanh s
# at s = (pi/2) sinh t for t = -6 ... 6 in steps of 1/32, weights
# (pi/2)(1/32) cosh t / cosh^2 s. A node is held as its distance from the
# nearer end, 1 - |tanh s| = 1 / (e^|s| cosh s), so that none lands on an end.
_TS_T = np.arange(-192, 193) / 32.0
_TS_S = 0.5 * math.pi * np.sinh(_TS_T)
_TS_LOW = _TS_S < 0.0
_TS_END = 1.0 / (np.exp(np.abs(_TS_S)) * np.cosh(_TS_S))
_TS_WEIGHT = (0.5 * math.pi / 32.0) * np.cosh(_TS_T) / np.cosh(_TS_S) ** 2


def _box_area_in_ball(R: float, center: HPoint, xa, xb, la, lb) -> float:
    """Area of the box {xa <= x < xb, la <= log y < lb} inside B(center, R).

    Edges may be infinite. In u = log y - log y_c the ball's chord at
    height u spans x = x_c + y (-hw, hw) with
    hw = e^{(R-u)/2} sqrt((1 - e^{-(R-u)})(1 - e^{-(R+u)})), a factored,
    cancellation-free form, and the area element is dx du / y, so the
    integrand is the clipped chord width over y:
    min(hw, (xb - x_c)/y) - max(-hw, (xa - x_c)/y). Without finite x edges
    (a stripe) that is hw + hw. The width has a kink where the ball's
    circle crosses a finite x edge; the range is split at those heights and
    each piece takes the tanh-sinh rule, all pieces in one array. A box
    with a finite x edge raises RangeError when the ball's Euclidean form
    overflows, whether or not the two meet.
    """
    lo = max(la - center.log_y, -R)
    hi = min(lb - center.log_y, R)
    # x edges in units of the center's height; infinite edges stay infinite
    ea, eb = xa, xb
    points = []
    if math.isfinite(xa) or math.isfinite(xb):
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
    ends = np.array([lo, *sorted(u for u in points if lo < u < hi), hi])
    a, b = ends[:-1, None], ends[1:, None]
    half = 0.5 * (b - a)
    u = np.where(_TS_LOW, a + half * _TS_END, b - half * _TS_END)
    rad = (1.0 - np.exp(-(R - u))) * (1.0 - np.exp(-(R + u)))
    hw = np.exp(0.5 * (R - u)) * np.sqrt(np.maximum(rad, 0.0))
    s = np.exp(-u)
    width = np.maximum(np.minimum(hw, eb * s) - np.maximum(-hw, ea * s), 0.0)
    return float(np.sum(half * width * _TS_WEIGHT))


def quad_stripe_area(W: float, R: float, j: int, center_log_y: float = 0.0) -> float:
    """Exact area of stripe j inside the ball of radius R about (x0, e^{center_log_y})."""
    W = float(W)
    if not (W > 0.0) or not math.isfinite(W):
        raise DomainError(f"stripe width must be positive and finite, got {W!r}")
    if not (R > 0.0):
        raise DomainError(f"ball radius must be positive, got {R!r}")
    ball_area(R)  # range validation
    return _box_area_in_ball(
        R,
        HPoint.from_log(0.0, center_log_y),
        -math.inf,
        math.inf,
        (j + 0.5) * W,
        (j + 1.5) * W,
    )


def stripe_index_range(W: float, R: float, center_log_y: float = 0.0):
    """Indices of stripes meeting the ball."""
    j_lo = int(math.floor((center_log_y - R) / W - 0.5))
    j_hi = int(math.floor((center_log_y + R) / W - 0.5))
    return j_lo, j_hi


def quad_black_fraction(W: float, R: float, center_log_y: float = 0.0) -> float:
    """Exact covered fraction of the ball by the black (odd-index) stripes."""
    j_lo, j_hi = stripe_index_range(W, R, center_log_y)
    black = 0.0
    for j in range(j_lo, j_hi + 1):
        if j % 2 != 0:
            black += quad_stripe_area(W, R, j, center_log_y)
    return black / ball_area(R)


# ------------------------------------------------------------- annulus

def annulus_fraction_euclid(K: int) -> float:
    """Black fraction of the Euclidean disk of radius 2^K.

    Annulus j is {2^{j-1} < r <= 2^j}; even j >= 2 are black. The closed
    form sums the geometric series in exact integer arithmetic. It tends
    to 4/5 (K even) or 1/5 (K odd) as 4^-K, which from K = 28 on rounds to
    the limit's double, so larger K return the limit at once.
    """
    if not isinstance(K, (int, np.integer)):
        raise DomainError(f"K must be an integer, got {K!r}")
    K = int(K)
    if K < 2:
        raise DomainError(f"K must be >= 2, got {K}")
    if K >= 28:
        return 0.8 if K % 2 == 0 else 0.2
    # sum over even j in [2, K] of 3 * 4^{j-1} = 3 * 4 * (16^{K//2} - 1) / 15
    num = 3 * (4 * (16 ** (K // 2) - 1) // 15)
    den = 4**K
    return num / den


def annulus_fraction_euclid_brute(K: int) -> float:
    """Literal partial sum, used as the oracle for the closed form."""
    if not isinstance(K, (int, np.integer)) or int(K) < 2:
        raise DomainError(f"K must be an integer >= 2, got {K!r}")
    K = int(K)
    num = sum(3 * 4 ** (j - 1) for j in range(2, K + 1) if j % 2 == 0)
    return num / 4**K

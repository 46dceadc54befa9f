"""Regions of the half-plane and area estimation.

Provides uniform sampling of hyperbolic balls, Monte Carlo coverage
fractions, exact ball areas by quadrature, and the closed-form Euclidean
annulus fractions. Every sampler is driven by a counter-based generator
keyed on the plan seed, so identical plans give identical output
regardless of platform or call order.

Monte Carlo works in blocks of at most _BLOCK points, so its memory is
bounded by the block, not by the sample count. A plan has two uniform
streams, u and v: u is the first n draws of Philox(seed) and v the next
n, as two rng.random(n) calls would give them. Each sampler is a block
map from a (u, v) block to points; the public samplers fill their
outputs block by block, and estimates count the covered points of each
block.

Stripes, half-planes and bricks are all boxes {xa <= x < xb,
la <= log y < lb}, with some edges at infinity, and a hyperbolic ball is
a Euclidean disk. One quadrature, _box_area_in_ball, measures a box
inside a ball for all three.

A convex polygon region works on the hyperboloid: a point is inside when
its Minkowski product with every edge normal is non-negative, the area
is Gauss-Bonnet from the normals, and area-uniform points are placed
exactly, triangle by triangle of a fan, with no rejection.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
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


class Region:
    """Measurable subset of the half-plane (indicator interface).

    Subclasses provide covers_xy(xs, ys) for coordinate arrays; contains(p)
    tests one point with it unless a subclass overrides it.
    """

    def contains(self, p):
        return bool(self.covers_xy(np.array([p.x]), np.array([p.y]))[0])

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
        x0, x1, x2 = self.polygon.lifted.T
        w = (x1 + 1j * x2) / (1.0 + x0)
        b, c = w[1:-1], w[2:]
        bc = b.conj() * c
        cross, dot = np.abs(bc.imag), bc.real
        half = np.arctan2(cross, 1.0 - dot)
        start = np.concatenate([[0.0], np.cumsum(half)[:-1]])

        h = u * (start[-1] + half[-1])
        k = np.searchsorted(start, h, side="right") - 1
        q = np.tan(h - start[k])
        b, c = b[k], c[k]
        c = q * c / (cross[k] + q * dot[k])
        # the disk isometry taking b to 0 carries the geodesic from b to c'
        # to a diameter, along which tanh(t / 2) is the distance from 0
        phi = (c - b) / (1.0 - b.conj() * c)
        rho2 = phi.real ** 2 + phi.imag ** 2
        z = phi * np.sqrt(v / (1.0 - rho2 * (1.0 - v)))
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

    def _black(self, log_y):
        """Whether log-heights fall in a black (odd-index) stripe."""
        j = np.floor(log_y / self.W - 0.5)
        return 2.0 * np.floor(0.5 * j) != j

    def contains(self, p):
        # log_y stays finite where y itself under- or overflows
        return bool(self._black(p.log_y))

    def covers_xy(self, xs, ys):
        return self._black(np.log(np.asarray(ys, dtype=float)))

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

_BLOCK = 1 << 16  # points per Monte Carlo block, which bounds its temporaries


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
    theta = v * (2.0 * math.pi)
    rho = np.arccosh(1.0 + u * (math.cosh(ball.radius) - 1.0))
    return polar_xy(ball.center.x, ball.center.y, rho, theta)


def mc_area_fraction(target, ball: BallSpec, plan: SamplePlan) -> AreaEstimate:
    """Monte Carlo covered-area fraction of the ball under target.

    target is anything with covers_xy (Region or packing). The points are
    those of sample_ball_uniform, taken one block at a time.
    """
    return _estimate(target, functools.partial(_ball_points, ball), plan)


# ------------------------------------------------------------- quadrature

_QUAD_REL = 1e-10  # relative tolerance of the box-in-ball quadrature


def _chord_factor(u, R):
    """sqrt((1 - e^{-(R-u)})(1 - e^{-(R+u)})), clamped at the endpoints."""
    rad = (1.0 - math.exp(-(R - u))) * (1.0 - math.exp(-(R + u)))
    if rad <= 0.0:
        return 0.0
    return math.sqrt(rad)


def _box_area_in_ball(R: float, center: HPoint, xa, xb, la, lb) -> float:
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

    # imported here, so that importing the package does not load scipy.integrate
    from scipy import integrate

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

"""Regions of the half-plane and area estimation.

Provides uniform sampling of hyperbolic balls, Monte Carlo coverage
fractions, exact quadrature for horocyclic stripe areas, and the closed-form
Euclidean annulus fractions. Every sampler is driven by a counter-based
generator keyed on the plan seed, so identical plans give identical output
regardless of platform or call order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate

from .config import DEFAULT_TOLERANCES
from .errors import DomainError
from .hgeom import (
    BallSpec,
    Geodesic,
    GeodesicPolygon,
    HDisk,
    HPoint,
    ball_area,
    distance,
    midpoint,
    signed_distance,
    signed_distance_xy,
)


@dataclass(frozen=True)
class SamplePlan:
    """Reproducible Monte Carlo plan: seed, sample count, optional strata."""

    seed: int
    n: int
    strata: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"sample count must be >= 1, got {self.n}")
        if self.strata < 0:
            raise DomainError(f"strata must be >= 0, got {self.strata}")


@dataclass(frozen=True)
class AreaEstimate:
    fraction: float
    std_error: float
    samples: int
    method: str


class Region:
    """Measurable subset of the half-plane (indicator interface)."""

    def contains(self, p: HPoint) -> bool:
        raise NotImplementedError

    def covers_xy(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return np.fromiter(
            (self.contains(HPoint(float(x), float(y))) for x, y in zip(xs, ys)),
            dtype=bool,
            count=len(xs),
        )

    def exact_area_in_ball(self, ball: BallSpec):
        """Exact covered area inside the ball, or None when unavailable."""
        return None


class FullPlane(Region):
    def contains(self, p):
        return True

    def covers_xy(self, xs, ys):
        return np.ones(np.shape(xs), dtype=bool)

    def exact_area_in_ball(self, ball):
        return ball_area(ball.radius)


class EmptyRegion(Region):
    def contains(self, p):
        return False

    def covers_xy(self, xs, ys):
        return np.zeros(np.shape(xs), dtype=bool)

    def exact_area_in_ball(self, ball):
        return 0.0


class DiskRegion(Region):
    def __init__(self, disk: HDisk):
        self.disk = disk

    def contains(self, p):
        return self.disk.contains(p)

    def covers_xy(self, xs, ys):
        circ = self.disk.euclid_form()
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        return (xs - circ.h) ** 2 + (ys - circ.k) ** 2 <= circ.r**2


class HalfSpaceRegion(Region):
    """Closed side of a geodesic: sign * signed_distance >= 0."""

    def __init__(self, geodesic: Geodesic, sign: int = +1):
        if sign not in (-1, +1):
            raise DomainError(f"sign must be +1 or -1, got {sign!r}")
        self.geodesic = geodesic
        self.sign = sign

    def contains(self, p):
        return self.sign * signed_distance(self.geodesic, p) >= 0.0

    def covers_xy(self, xs, ys):
        return self.sign * signed_distance_xy(self.geodesic, xs, ys) >= 0.0

    def exact_area_in_ball(self, ball):
        if not self.geodesic.is_line:
            return None
        if ball.radius > 50.0 or ball.center.is_extreme():
            return None
        return _halfplane_area_in_ball(self.geodesic.x0, self.sign, ball)


class PolygonRegion(Region):
    """Closed region bounded by a convex geodesic polygon."""

    def __init__(self, polygon: GeodesicPolygon):
        self.polygon = polygon
        ref = _interior_point(polygon)
        signs = []
        for geo in polygon.edges:
            sd = signed_distance(geo, ref)
            if abs(sd) < 1e-12:
                raise DomainError("could not certify an interior reference point")
            signs.append(1.0 if sd > 0 else -1.0)
        self._signs = signs

    def contains(self, p):
        for geo, sign in zip(self.polygon.edges, self._signs):
            if sign * signed_distance(geo, p) < -1e-12:
                return False
        return True

    def covers_xy(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        ok = np.ones(len(xs), dtype=bool)
        for geo, sign in zip(self.polygon.edges, self._signs):
            ok &= sign * signed_distance_xy(geo, xs, ys) >= -1e-12
        return ok

    def area(self) -> float:
        return self.polygon.area()

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
        xs = np.concatenate(xs_out)[: plan.n]
        ys = np.concatenate(ys_out)[: plan.n]
        return xs, ys


def _interior_point(polygon: GeodesicPolygon) -> HPoint:
    verts = polygon.vertices
    n = len(verts)
    if n == 3:
        return midpoint(midpoint(verts[0], verts[1]), verts[2])
    return midpoint(verts[0], verts[n // 2])


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

    def stripe_index(self, p: HPoint) -> int:
        return int(math.floor(p.log_y / self.W - 0.5))

    def contains(self, p):
        return self.stripe_index(p) % 2 != 0

    def covers_xy(self, xs, ys):
        ys = np.asarray(ys, dtype=float)
        idx = np.floor(np.log(ys) / self.W - 0.5).astype(np.int64)
        return idx % 2 != 0

    def exact_area_in_ball(self, ball):
        frac = quad_black_fraction(self.W, ball.radius, center_log_y=ball.center.log_y)
        return frac * ball_area(ball.radius)


class AnnulusRegionEuclid:
    """Euclidean region: black annuli {2^{j-1} < r <= 2^j} for even j >= 2.

    Coordinates are Euclidean plane coordinates, not half-plane points; use
    this only with Euclidean samplers.
    """

    def covers_xy(self, xs, ys):
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        r = np.hypot(xs, ys)
        out = np.zeros(len(xs), dtype=bool)
        pos = r > 2.0
        j = np.ceil(np.log2(r, where=pos, out=np.ones_like(r))).astype(np.int64)
        out[pos] = j[pos] % 2 == 0
        return out


# ------------------------------------------------------------- sampling

def sample_ball_uniform(ball: BallSpec, plan: SamplePlan):
    """Area-uniform points of the ball, via the radial inverse CDF.

    The radius is drawn from arccosh(1 + u (cosh R - 1)); the direction is an
    independent uniform angle. Optional strata partition u into equal bands
    indexed by sample position.
    """
    rng = np.random.Generator(np.random.Philox(plan.seed))
    return _ball_points(ball, rng, plan.n, plan.strata)


def _ball_points(ball: BallSpec, rng, n: int, strata: int = 0):
    u = rng.random(n)
    theta = rng.random(n) * (2.0 * math.pi)
    if strata > 1:
        u = (np.arange(n) % strata + u) / strata
    R = ball.radius
    rho = np.arccosh(1.0 + u * (math.cosh(R) - 1.0))
    t = np.tanh(0.5 * rho)
    a = t * np.cos(theta)
    b = t * np.sin(theta)
    den = (1.0 - a) ** 2 + b**2
    x = -2.0 * b / den
    y = (1.0 - a * a - b * b) / den
    cx, cy = ball.center.x, ball.center.y
    return cx + cy * x, cy * y


def _stratum_indices(plan: SamplePlan):
    return np.arange(plan.n) % plan.strata


def mc_area_fraction(target, ball: BallSpec, plan: SamplePlan) -> AreaEstimate:
    """Monte Carlo covered-area fraction of the ball under target.

    target is anything with covers_xy (Region or packing).
    """
    xs, ys = sample_ball_uniform(ball, plan)
    cov = np.asarray(target.covers_xy(xs, ys), dtype=bool)
    n = plan.n
    if plan.strata > 1:
        strata = _stratum_indices(plan)
        var = 0.0
        frac = 0.0
        for s in range(plan.strata):
            sel = strata == s
            ns = int(np.count_nonzero(sel))
            if ns == 0:
                continue
            fs = float(np.mean(cov[sel]))
            w = ns / n
            frac += w * fs
            var += w * w * fs * (1.0 - fs) / ns
        return AreaEstimate(frac, math.sqrt(var), n, "mc")
    frac = float(np.mean(cov))
    se = math.sqrt(frac * (1.0 - frac) / n)
    return AreaEstimate(frac, se, n, "mc")


# ------------------------------------------------------------- quadrature

def _chord_factor(u, R):
    """sqrt((1 - e^{-(R-u)})(1 - e^{-(R+u)})), clamped at the endpoints."""
    rad = (1.0 - math.exp(-(R - u))) * (1.0 - math.exp(-(R + u)))
    if rad <= 0.0:
        return 0.0
    return math.sqrt(rad)


def _band_area_in_ball(lo: float, hi: float, R: float) -> float:
    """Area of B_R about a center at shifted log-height 0, between
    log-heights lo..hi relative to the center.

    In the substituted variable u = ln y - ln(center y) the area element is
    2 e^{(R-u)/2} sqrt((1 - e^{-(R-u)})(1 - e^{-(R+u)})) du, which keeps the
    endpoint square roots in factored, cancellation-free form.
    """
    lo = max(lo, -R)
    hi = min(hi, R)
    if lo >= hi:
        return 0.0
    val, _ = integrate.quad(
        lambda u: 2.0 * math.exp(0.5 * (R - u)) * _chord_factor(u, R),
        lo,
        hi,
        epsrel=DEFAULT_TOLERANCES.quad_rel,
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
    lo = (j + 0.5) * W - center_log_y
    hi = (j + 1.5) * W - center_log_y
    return _band_area_in_ball(lo, hi, R)


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


def _halfplane_area_in_ball(x0: float, sign: int, ball: BallSpec) -> float:
    """Exact area of {sign (x - x0) >= 0} inside the ball (u-substituted quadrature)."""
    R = ball.radius
    cx, cy = ball.center.x, ball.center.y

    def overlap(u):
        w = cy * math.exp(0.5 * (R + u)) * _chord_factor(u, R)
        y = cy * math.exp(u)
        lo, hi = cx - w, cx + w
        if sign > 0:
            ov = hi - max(lo, x0)
        else:
            ov = min(hi, x0) - lo
        if ov <= 0.0:
            return 0.0
        return ov / y

    val, _ = integrate.quad(overlap, -R, R, epsrel=1e-9, limit=400)
    return val


# ------------------------------------------------------------- annulus

def annulus_fraction_euclid(K: int) -> float:
    """Black fraction of the Euclidean disk of radius 2^K.

    Annulus j is {2^{j-1} < r <= 2^j}; even j >= 2 are black. The closed
    form sums the geometric series in exact integer arithmetic.
    """
    if not isinstance(K, (int, np.integer)):
        raise DomainError(f"K must be an integer, got {K!r}")
    K = int(K)
    if K < 2:
        raise DomainError(f"K must be >= 2, got {K}")
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

"""Coverage-density curves, limits, and transport-style averages.

The central object is the density curve: the covered fraction of balls
of growing radius about a fixed center. Exact quadrature and closed
forms are used whenever the target supplies them; otherwise fractions
are Monte Carlo estimates with reported standard errors. In this
geometry boundary effects never vanish, so curves need not converge;
the oscillation report summarizes their tail behavior instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnsupportedOperationError
from .hgeom import (
    ORIGIN,
    BallSpec,
    HPoint,
    Isometry,
    SiteGrid,
    angle_of_parallelism,
    apply,
    ball_area,
    cosh_distance_xy,
    nearest_sites,
)
from .packings import BrickTile, TransformedPacking, _disk_radius, brick_region
from .regions import (
    AreaEstimate,
    SamplePlan,
    _ball_points,
    _estimate,
    annulus_fraction_euclid,
    mc_area_fraction,
    sample_ball_uniform,
)
from .voronoi import _cell_densities, _site_cells

CSV_HEADER = "radius,fraction,std_error,samples,method"
# a transport sample nearer a cell wall than this is redrawn
_BOUNDARY_TOL = 1e-9


@dataclass(frozen=True)
class CurvePoint:
    radius: float
    fraction: float
    std_error: float
    samples: int


@dataclass(frozen=True)
class DensityCurve:
    """Covered fraction of balls about a fixed center, one point per radius."""

    center: HPoint
    points: tuple
    method: str

    def __post_init__(self):
        if self.method not in ("mc", "quadrature", "closed-form", "mixed"):
            raise DomainError(f"unknown curve method {self.method!r}")
        radii = [pt.radius for pt in self.points]
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise DomainError("curve radii must be strictly increasing")
        for pt in self.points:
            if not (0.0 <= pt.fraction <= 1.0):
                raise DomainError(f"fraction {pt.fraction} outside [0, 1]")

    @property
    def radii(self):
        return np.array([pt.radius for pt in self.points])

    @property
    def fractions(self):
        return np.array([pt.fraction for pt in self.points])

    def to_csv(self) -> str:
        lines = [CSV_HEADER]
        for pt in self.points:
            method = self.method
            if method == "mixed":
                method = "mc" if pt.samples else "quadrature"
            lines.append(
                f"{pt.radius:.17g},{pt.fraction:.17g},{pt.std_error:.17g},"
                f"{pt.samples},{method}"
            )
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OscillationReport:
    liminf_est: float
    limsup_est: float
    window: tuple
    converged: bool
    tolerance: float


def _exact_fraction(target, ball: BallSpec):
    exact = getattr(target, "exact_area_in_ball", None)
    if exact is None:
        return None
    area = exact(ball)
    if area is None:
        return None
    total = ball_area(ball.radius)
    return min(max(area / total, 0.0), 1.0)


def density_curve(target, center: HPoint, radii, plan: SamplePlan) -> DensityCurve:
    """Density curve of a packing or region about center at the given radii.

    Radii where the target's exact ball quadrature applies use it; the
    others are Monte Carlo, the k-th radius with seed plan.seed + k. A
    curve with points of both kinds has method "mixed".
    """
    radii = [float(r) for r in radii]
    if not radii:
        raise DomainError("at least one radius is required")
    if any(not (r > 0.0) or not math.isfinite(r) for r in radii):
        raise DomainError("radii must be positive and finite")
    if any(b <= a for a, b in zip(radii, radii[1:])):
        raise DomainError("radii must be strictly increasing")

    points = []
    for k, r in enumerate(radii):
        ball = BallSpec(center, r)
        f = _exact_fraction(target, ball)
        if f is None:
            est = mc_area_fraction(target, ball, SamplePlan(seed=plan.seed + k, n=plan.n))
            points.append(CurvePoint(r, est.fraction, est.std_error, est.samples))
        else:
            points.append(CurvePoint(r, f, 0.0, 0))
    methods = {"mc" if pt.samples else "quadrature" for pt in points}
    method = methods.pop() if len(methods) == 1 else "mixed"
    return DensityCurve(center=center, points=tuple(points), method=method)


def f_R_average(target, R: float, plan: SamplePlan) -> AreaEstimate:
    """Covered fraction of the ball of radius R about the standard origin."""
    curve = density_curve(target, ORIGIN, [R], plan)
    pt = curve.points[0]
    return AreaEstimate(pt.fraction, pt.std_error, pt.samples, curve.method)


def oscillation_report(
    curve: DensityCurve,
    window_fraction: float = 0.5,
    tolerance: float = 0.01,
) -> OscillationReport:
    """Tail extrema of a density curve over its trailing radius window.

    The window is the last window_fraction of the radius range. Fewer
    than four curve points inside it leave the extrema meaningless, so
    that is a domain error.
    """
    if not (0.0 < window_fraction <= 1.0):
        raise DomainError("window_fraction must lie in (0, 1]")
    radii = curve.radii
    r_hi = float(radii[-1])
    r_lo = float(radii[-1] - window_fraction * (radii[-1] - radii[0]))
    sel = radii >= r_lo - 1e-12
    if int(np.count_nonzero(sel)) < 4:
        raise DomainError(
            f"only {int(np.count_nonzero(sel))} curve points in the tail "
            f"window [{r_lo:g}, {r_hi:g}]; need at least 4"
        )
    tail = curve.fractions[sel]
    liminf_est = float(tail.min())
    limsup_est = float(tail.max())
    return OscillationReport(
        liminf_est=liminf_est,
        limsup_est=limsup_est,
        window=(r_lo, r_hi),
        converged=(limsup_est - liminf_est) <= tolerance,
        tolerance=tolerance,
    )


def halfspace_density_limit(t: float, side: str) -> float:
    """Limiting covered fraction of balls centered distance t into a
    closed half-space ("near") or its complement ("far")."""
    if not (t >= 0.0) or not math.isfinite(t):
        raise DomainError(f"signed distance must be >= 0, got {t}")
    far = angle_of_parallelism(t) / math.pi
    if side == "near":
        return 1.0 - far
    if side == "far":
        return far
    raise DomainError(f"side must be 'near' or 'far', got {side!r}")


def fundamental_domain_density(packing) -> float:
    """Exact covered fraction of the packing's fundamental domain."""
    domain = getattr(packing, "fundamental_domain", None)
    if domain is None:
        raise UnsupportedOperationError(
            f"{type(packing).__name__} carries no fundamental domain"
        )
    return domain.covered_area() / domain.area()


def _resolve_tile(tile):
    """Normalize a tile argument to (region with a block sampler, exact area).

    A BrickTile stands for its brick_region. Any other tile must have
    area() and _points(u, v), the block map behind its sample_uniform.
    """
    if isinstance(tile, BrickTile):
        return brick_region(tile), tile.area()
    area_fn = getattr(tile, "area", None)
    if area_fn is None or not hasattr(tile, "_points"):
        raise UnsupportedOperationError(
            f"{type(tile).__name__} supports neither exact area nor sampling"
        )
    return tile, float(area_fn())


def tile_density(packing, tile, plan: SamplePlan) -> AreaEstimate:
    """Monte Carlo covered fraction of a tile under a packing, by
    area-uniform sampling of the tile.

    A Dirichlet cell's exact density is cell_relative_density; its
    estimate here is tile_density(packing, PolygonRegion(cell.polygon), plan).
    """
    region, area = _resolve_tile(tile)
    if not (area > 0.0):
        raise DomainError(f"tile has non-positive area {area:g}")
    return _estimate(packing, region._points, plan)


def annulus_density_curve(exponents) -> DensityCurve:
    """Closed-form density curve of the dyadic annulus region.

    One point per integer exponent K: the black fraction of the
    Euclidean disk of radius 2^K about the origin. The radius column
    carries K itself (the log2 radius), matching how the region
    oscillates on dyadic scales.
    """
    pts = []
    for K in exponents:
        if not float(K).is_integer():
            raise DomainError(f"annulus exponents must be integers, got {K!r}")
        pts.append(CurvePoint(float(K), annulus_fraction_euclid(int(K)), 0.0, 0))
    return DensityCurve(center=ORIGIN, points=tuple(pts), method="closed-form")


def mass_transport_check(packing, window: BallSpec, plan: SamplePlan) -> float:
    """Mean Dirichlet-cell density over area-uniform points of the window.

    Each sampled point is charged the covered fraction of the cell it
    lands in. Points within _BOUNDARY_TOL of a cell wall (equidistant
    from their two nearest sites) are resampled, all of them in one batch
    per round, so the charge is well defined. For packings whose cells
    tile with one density this mean reproduces that density regardless
    of the window. Regions raise UnsupportedOperationError. Packing and
    window are first dilated by the power of 4 that brings the window
    nearest height 1: exact in float, it keeps squared distances finite.

    The owners and their cells come from the one site array of the
    window, grown by two disk spacings and held in a SiteGrid: about an
    owner at distance d from the window's center it holds every center
    within window.radius + 4 rho - d, and a cell is kept only where its
    certificate holds within that radius. The cells are arrays of fan
    areas and inscribed radius bounds (voronoi._site_cells).
    """
    rho = _disk_radius(packing)
    # 4^k and 4^-k are normal floats for |k| <= 511
    k = max(-511, min(511, round(window.center.log_y / math.log(4.0))))
    if k:
        g = Isometry.dilation(4.0**-k)
        packing = TransformedPacking(g, packing)
        window = BallSpec(apply(g, window.center), window.radius)
    reach = window.radius + 4.0 * rho
    sx, sy = packing._centers(BallSpec(window.center, reach))
    if sx.size < 2:
        raise DomainError("window holds too few packing centers")
    grid = SiteGrid(sx, sy)
    owner = _owners(grid, window, plan)

    # a disk lies in its own cell: d(p, q) >= d(s, q) - d(s, p) >= rho
    sites, inverse = np.unique(owner, return_inverse=True)
    cd = cosh_distance_xy(sx[sites], sy[sites], window.center.x, window.center.y)
    cells = _site_cells(packing, grid, sites, reach - np.arccosh(np.maximum(cd, 1.0)))
    return float(np.mean(_cell_densities(rho, *cells)[inverse]))


def _owners(grid, window: BallSpec, plan: SamplePlan):
    """Index of the nearest site of a SiteGrid to each area-uniform point
    of the window; points within _BOUNDARY_TOL of a cell wall are redrawn
    from the Philox(plan.seed + 977) stream, one batch per round."""
    xs, ys = sample_ball_uniform(window, plan)
    rng = np.random.Generator(np.random.Philox(plan.seed + 977))
    owner = np.empty(plan.n, dtype=np.intp)
    todo = np.arange(plan.n)
    while todo.size:
        idx, cd = nearest_sites(grid, xs[todo], ys[todo], 2)
        d = np.arccosh(np.maximum(cd, 1.0))
        clear = d[:, 1] - d[:, 0] >= _BOUNDARY_TOL
        owner[todo[clear]] = idx[clear, 0]
        todo = todo[~clear]
        if todo.size:
            u, v = rng.random(todo.size), rng.random(todo.size)
            xs[todo], ys[todo] = _ball_points(window, u, v)
    return owner

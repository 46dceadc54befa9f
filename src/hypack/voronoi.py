"""Dirichlet-Voronoi cells of disk packings and cell-relative densities.

A cell is the set of points at least as close to its site as to any
other site. In the Klein model about the site, every bisector is a
straight line: with the site moved to the centre, a point with Klein
coordinates k is at least as close to the site as to a site q exactly
when D_q . k <= 1, where D_q is q's hyperboloid vector (X1, X2) divided
by cosh d(site, q) - 1. The cell is therefore the polar of the convex
hull of the points D_q: the hull's vertices are the sites that share an
edge with the cell, and each hull edge is dual to one cell vertex.

The cell is unbounded among the given sites, and UnboundedCellError is
raised, when the origin is not strictly inside the hull (the polar is
then an unbounded polygon), when the hull cannot be built (fewer than
three other sites, or all of them on one line in the dual plane), or
when a cell vertex lies on or beyond the unit circle, the ideal
boundary. Nothing is truncated to a search radius.

Among sites that hold every center within r of the site, a cell is exact
when |k|^2 <= tanh^2(r / 2) at each vertex k: a center that cut it at v
lies within 2 d(site, v) = 2 atanh|k| of the site. packing_cell returns
one cell as a polygon; _site_cells returns arrays of the areas and inscribed
radius bounds of many. Both build on _dual and _hulls, in coordinates
relative to the site, and measure a cell by a fan: neighbouring vertices
k_i, k_j fan a triangle about the site of area
2 atan2(|k_i x k_j|, 1 + s_i + s_j + s_i s_j - k_i . k_j), s = sqrt(1 - |k|^2):
the Poincare disk's 2 atan2(|p_i x p_j|, 1 - p_i . p_j) at p = k / (1 + s).
A polygon fans about its first vertex instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, UnboundedCellError
from .hgeom import (
    BallSpec,
    GeodesicPolygon,
    HPoint,
    ball_area,
    ball_hits,
    hyperboloid_xy,
)
from .packings import _disk_radius

@dataclass(frozen=True)
class VoronoiCell:
    """One bounded Dirichlet cell: site, polygon, and the sites sharing an edge."""

    site: HPoint
    polygon: GeodesicPolygon
    neighbor_sites: tuple

    def area(self) -> float:
        return self.polygon.area()

    def inscribed_radius_bound(self) -> float:
        """Half the distance to the nearest edge-sharing site."""
        xs, ys = np.array([(s.x, s.y) for s in self.neighbor_sites]).T
        return 0.5 * math.acosh(1.0 + hyperboloid_xy(xs, ys, self.site.x, self.site.y)[0].min())


def _dual(xs, ys, x0, y0):
    """x0m1 = cosh d - 1 of the sites (xs, ys) about (x0, y0), and their
    dual points D_q as rows; raises DomainError on a site at (x0, y0)."""
    x0m1, x1, x2 = hyperboloid_xy(xs, ys, x0, y0)
    if np.any(x0m1 == 0.0):
        raise DomainError("sites must be pairwise distinct")
    return x0m1, np.column_stack([x1, x2]) / x0m1[:, None]


def _hulls(dual, counts):
    """Hulls of consecutive runs of dual points, counts[t] in run t: the
    runs t whose polar is closed, their hull vertices v as one flat array
    of rows of dual (counterclockwise in each run), the start first of each
    run in v, the successor nxt of each entry of v, and the Klein vertex
    (k1, k2) dual to each hull edge v -> v[nxt]."""
    # imported here, so that importing the package does not load scipy.spatial
    from scipy.spatial import ConvexHull, QhullError

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


def _klein_cell(xs, ys, i: int):
    """Voronoi cell of site i among the sites with coordinates (xs, ys),
    as the polar dual of one convex hull in the Klein model about the
    site, and the squared Klein radii |k|^2 of its vertices about the site.

    Vertices are ordered by ascending angle about the site, and
    neighbor_sites are the sites whose bisector carries a cell edge.
    """
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    n = xs.size
    if not (0 <= i < n):
        raise DomainError(f"site index {i} out of range for {n} sites")
    site = HPoint(xs[i], ys[i])
    ox, oy = np.delete(xs, i), np.delete(ys, i)
    _, dual = _dual(ox, oy, site.x, site.y)
    closed, v, _, _, k1, k2 = _hulls(dual, np.array([n - 1]))
    kk = k1 * k1 + k2 * k2
    if not closed.size or np.any(kk >= 1.0):
        raise UnboundedCellError(
            f"cell of site {i} is unbounded among {n} sites: its bisectors "
            f"leave a way out to the ideal boundary"
        )
    # Klein -> half-plane about (0, 1), then back about the site
    vx = site.x + site.y * (k1 / (1.0 - k2))
    vy = site.y * (np.sqrt(1.0 - kk) / (1.0 - k2))
    # ascending angle about the site, starting straight down; a vertex
    # straight below the site comes first whichever way roundoff tilts it
    ang = np.arctan2(-k1, k2)
    ang[ang > math.pi - 1e-12] -= 2.0 * math.pi
    vertices = [HPoint(vx[k], vy[k]) for k in np.argsort(ang)]
    neighbors = tuple(HPoint(ox[j], oy[j]) for j in v)
    cell = VoronoiCell(site=site, polygon=GeodesicPolygon(vertices),
                       neighbor_sites=neighbors)
    return cell, kk


def packing_cell(packing, site: HPoint) -> VoronoiCell:
    """Dirichlet cell of one disk center of a disk packing, among the
    centers of a window about it. The window, two disk spacings at first,
    doubles until it reaches twice the cell's farthest vertex.
    Regions raise UnsupportedOperationError.
    """
    radius = 4.0 * _disk_radius(packing)
    while True:
        sx, sy = packing._centers(BallSpec(site, radius))
        # sinh^2(d / 2) = (cosh d - 1) / 2
        x0m1 = hyperboloid_xy(sx, sy, site.x, site.y)[0]
        if not sx.size or 2.0 * math.asinh(math.sqrt(0.5 * x0m1.min())) > 1e-9:
            raise DomainError(f"point ({site.x:g}, {site.y:g}) is not a center of the packing")
        try:
            cell, kk = _klein_cell(sx, sy, int(np.argmin(x0m1)))
            if kk.max() <= math.tanh(0.5 * radius) ** 2:
                return cell
        except UnboundedCellError:
            pass
        radius *= 2.0


def _site_cells(packing, tree, sites, complete):
    """Fan areas and inscribed radius bounds, as two arrays, of the
    Dirichlet cells of the sites tree.data[sites] of a disk packing.

    The tree must hold every center within complete[i] of sites[i]. One
    ball_hits query gathers each site's centers within two disk spacings,
    capped at complete[i]. Only the hulls are built site by site; the
    vertices, certificates, areas and bounds (half the distance to the
    nearest hull vertex) are formed for all sites at once. A cell that is
    not certified is redone at twice the radius, again capped; one that
    fails at complete[i] is a packing_cell.
    """
    sx, sy = tree.data[:, 0], tree.data[:, 1]
    area, bound = np.empty(len(sites)), np.empty(len(sites))
    todo, trial = np.arange(len(sites)), 4.0 * _disk_radius(packing)
    while todo.size:
        j = sites[todo]
        radius = np.minimum(trial, complete[todo])
        counts, flat = ball_hits(tree, sx[j], sy[j], np.cosh(radius), np.sinh(radius))
        # each ball holds its own site once
        own = np.repeat(j, counts)
        flat, own, counts = flat[flat != own], own[flat != own], counts - 1
        x0m1, dual = _dual(sx[flat], sy[flat], sx[own], sy[own])
        closed, v, first, nxt, k1, k2 = _hulls(dual, counts)
        kk = k1 * k1 + k2 * k2
        ok = np.maximum.reduceat(kk, first) <= np.tanh(0.5 * radius[closed]) ** 2
        # an uncertified cell may reach past the ideal boundary; its area is dropped
        s = np.sqrt(np.maximum(1.0 - kk, 0.0))
        l1, l2, sl = k1[nxt], k2[nxt], s[nxt]
        half = np.arctan2(np.abs(k1 * l2 - k2 * l1),
                          1.0 + s + sl + s * sl - (k1 * l1 + k2 * l2))
        done = np.zeros(todo.size, dtype=bool)
        done[closed[ok]] = True
        area[todo[done]] = 2.0 * np.add.reduceat(half, first)[ok]
        bound[todo[done]] = 0.5 * np.arccosh(1.0 + np.minimum.reduceat(x0m1[v], first)[ok])
        again = ~done & (radius < complete[todo])
        for t in todo[~done & ~again]:
            cell = packing_cell(packing, HPoint(sx[sites[t]], sy[sites[t]]))
            area[t], bound[t] = cell.area(), cell.inscribed_radius_bound()
        todo, trial = todo[again], 2.0 * trial
    return area, bound


def cell_relative_density(cell: VoronoiCell, rho: float) -> float:
    """ball_area(rho) / cell area, for a disk that fits inside the cell."""
    if not (rho > 0.0) or not math.isfinite(rho):
        raise DomainError(f"disk radius must be positive, got {rho}")
    return float(_cell_densities(rho, cell.area(), cell.inscribed_radius_bound()))


def _cell_densities(rho, area, bound):
    """ball_area(rho) / area for a disk in each cell of the given areas and
    inscribed radius bounds; tight disks touch their cells' edges, so the
    bounds allow for roundoff."""
    if np.any(rho > bound + 1e-12):
        raise DomainError(f"disk radius {rho:g} exceeds an inscribed bound {np.min(bound):g}")
    return ball_area(rho) / area

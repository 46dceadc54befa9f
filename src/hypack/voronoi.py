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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import ConvexHull, QhullError

from .errors import DomainError, UnboundedCellError
from .hgeom import (
    BallSpec,
    GeodesicPolygon,
    HPoint,
    ball_area,
    ball_hits,
    distance,
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
        return min(distance(self.site, s) for s in self.neighbor_sites) / 2.0


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
    x0m1, x1, x2 = hyperboloid_xy(ox, oy, site.x, site.y)
    if np.any(x0m1 == 0.0):
        raise DomainError("sites must be pairwise distinct")
    dual = np.column_stack([x1, x2]) / x0m1[:, None]
    try:
        hull = ConvexHull(dual)
    except (QhullError, ValueError) as exc:
        raise UnboundedCellError(
            f"cell of site {i} is unbounded among {n} sites: no dual hull"
        ) from exc
    # the hull edge on the line n . x = h (unit n, h = -offset) is dual to
    # a cell vertex at Klein radius 1/h: h <= 0 leaves the polar open
    # (the origin is not strictly inside the hull), and h < 1/2 puts the
    # vertex far past the ideal boundary whatever Qhull's roundoff
    if np.any(hull.equations[:, 2] > -0.5):
        raise UnboundedCellError(
            f"cell of site {i} is unbounded among {n} sites: its bisectors "
            f"leave a way out to the ideal boundary"
        )

    # hull vertices come counterclockwise; the edge from a to b is dual
    # to the cell vertex k with D_a . k = D_b . k = 1
    a = dual[hull.vertices]
    b = np.roll(a, -1, axis=0)
    det = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
    k1 = (b[:, 1] - a[:, 1]) / det
    k2 = (a[:, 0] - b[:, 0]) / det
    kk = k1 * k1 + k2 * k2
    if np.any(kk >= 1.0):
        raise UnboundedCellError(
            f"cell of site {i} is unbounded among {n} sites: it reaches "
            f"the ideal boundary"
        )
    # Klein -> half-plane about (0, 1), then back about the site
    vx = site.x + site.y * (k1 / (1.0 - k2))
    vy = site.y * (np.sqrt(1.0 - kk) / (1.0 - k2))
    # ascending angle about the site, starting straight down; a vertex
    # straight below the site comes first whichever way roundoff tilts it
    ang = np.arctan2(-k1, k2)
    ang[ang > math.pi - 1e-12] -= 2.0 * math.pi
    vertices = [HPoint(vx[k], vy[k]) for k in np.argsort(ang)]
    neighbors = tuple(HPoint(ox[j], oy[j]) for j in hull.vertices)
    cell = VoronoiCell(site=site, polygon=GeodesicPolygon(vertices),
                       neighbor_sites=neighbors)
    return cell, kk


def _certified(kk, radius) -> bool:
    """Whether a cell is exact among sites that hold every center within
    radius of its site, given the squared Klein radii kk of its vertices.

    A center that cut the cell at a vertex v lies nearer v than the site,
    so within 2 d(site, v) = 2 atanh|k| of the site: the cell is exact when
    that reach is at most radius, that is when |k|^2 <= tanh^2(radius / 2).
    """
    return bool(kk.max() <= math.tanh(0.5 * radius) ** 2)


def packing_cell(packing, site: HPoint) -> VoronoiCell:
    """Dirichlet cell of one disk center of a disk packing, among the
    centers of a window about it. The window, two disk spacings at first,
    doubles until it reaches twice the cell's farthest vertex (_certified).
    Regions raise UnsupportedOperationError.
    """
    radius = 4.0 * _disk_radius(packing)
    while True:
        sx, sy = packing._centers(BallSpec(site, radius))
        # sinh^2(d / 2) = (cosh d - 1) / 2, formed without cancellation
        half = ((sx - site.x) ** 2 + (sy - site.y) ** 2) / (4.0 * sy * site.y)
        if not sx.size or 2.0 * math.asinh(math.sqrt(half.min())) > 1e-9:
            raise DomainError(f"point ({site.x:g}, {site.y:g}) is not a center of the packing")
        try:
            cell, kk = _klein_cell(sx, sy, int(np.argmin(half)))
            if _certified(kk, radius):
                return cell
        except UnboundedCellError:
            pass
        radius *= 2.0


def _site_cells(packing, tree, sites, complete):
    """Dirichlet cells of the sites tree.data[sites] of a disk packing,
    built from the sites of the KD-tree alone.

    The tree must hold every center within complete[i] of site sites[i].
    One ball_hits query gathers each site's centers within two disk
    spacings, or within complete[i] if that is less. A cell that is not
    _certified at that radius is redone at twice the radius, again capped
    at complete[i]; one that fails at complete[i] is a packing_cell.
    """
    sx, sy = tree.data[:, 0], tree.data[:, 1]
    cells = [None] * len(sites)
    todo = np.arange(len(sites))
    trial = 4.0 * _disk_radius(packing)
    while todo.size:
        j = sites[todo]
        radius = np.minimum(trial, complete[todo])
        counts, flat = ball_hits(tree, sx[j], sy[j], np.cosh(radius), np.sinh(radius))
        retry = []
        for t, hits, r in zip(todo, np.split(flat, np.cumsum(counts)[:-1]), radius):
            try:
                cell, kk = _klein_cell(sx[hits], sy[hits], int(np.flatnonzero(hits == sites[t])[0]))
                if _certified(kk, r):
                    cells[t] = cell
                    continue
            except UnboundedCellError:
                pass
            if r < complete[t]:
                retry.append(t)
            else:
                cells[t] = packing_cell(packing, HPoint(sx[sites[t]], sy[sites[t]]))
        todo = np.array(retry, dtype=np.intp)
        trial *= 2.0
    return cells


def cell_relative_density(cell: VoronoiCell, rho: float) -> float:
    """ball_area(rho) / cell area, for a disk that fits inside the cell."""
    if not (rho > 0.0) or not math.isfinite(rho):
        raise DomainError(f"disk radius must be positive, got {rho}")
    bound = cell.inscribed_radius_bound()
    if rho > bound + 1e-12:
        raise DomainError(
            f"disk radius {rho:g} exceeds the inscribed bound {bound:g} "
            f"of the cell"
        )
    return ball_area(rho) / cell.area()

"""A metric on packings via truncated covered sets.

A packing is truncated to levels k = 1..k_max: deterministic sample
nets of its covered set intersected with the ball of radius k about the
standard origin. The distance between two packings is the largest over
levels of the Hausdorff distance between same-level nets, scaled by
1/k. Small distance means the packings nearly agree on a large ball,
which is the topology in which density results are stable.

A directed Hausdorff distance needs only its maximum, not every point's
nearest neighbour (the early break of Taha and Hanbury, 2015). One k = 1
KD-tree query gives each point its Euclidean nearest site at Euclidean
distance delta; that site's cosh distance is an upper bound ub on the
point's nearest cosh distance, and 1 + delta^2 / (2 y (y + delta)) a
lower bound, since every site q has |p - q| >= delta and y_q <= y + |p -
q|. Only points whose ub reaches the largest value known so far can
attain the maximum: they are taken against every site, largest ub first,
and the rest are dropped as the maximum rises. The result equals the
all-pairs minimum bit for bit: each pair's cosh distance is the same
float expression, and the point attaining the maximum is never dropped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError
from .hgeom import ORIGIN, BallSpec, cosh_distance_xy, polar_xy

# Net spacing h yields a covering radius of about 0.72 h in the body
# interiors and at worst about 1.25 h where bodies meet the level
# boundary, so h <= 0.04 keeps every covered point within 0.05 of a net
# point.
_NET_SPACING = 0.03
MIN_LEVEL_POINTS = 64
# With |x|, y and 1/y at most 1e30, cosh distances stay below 3e120, and
# the KD-tree's squared distances and the lower bounds' delta^2 and
# y (y + delta) stay finite and normal.
_COORD_LIMIT = 1e30
# (point, site) pairs taken against each other at once in the exact pass
_BLOCK_PAIRS = 2**16


@dataclass(frozen=True)
class TruncatedPacking:
    """Per-level sample nets of a packing's covered set.

    levels[k-1] is an (n_k, 2) array of half-plane points sampling the
    covered set within distance k of the origin; empty arrays mark
    levels the packing does not reach.
    """

    k_max: int
    levels: tuple

    def __post_init__(self):
        if self.k_max < 1:
            raise DomainError(f"k_max must be >= 1, got {self.k_max}")
        if len(self.levels) != self.k_max:
            raise DomainError(
                f"expected {self.k_max} levels, got {len(self.levels)}"
            )
        for k, pts in enumerate(self.levels, start=1):
            if pts.ndim != 2 or (pts.size and pts.shape[1] != 2):
                raise DomainError("levels must be (n, 2) coordinate arrays")
            if 0 < len(pts) < MIN_LEVEL_POINTS * k:
                raise DomainError(
                    f"level {k} holds only {len(pts)} points; a nonempty "
                    f"level needs at least {MIN_LEVEL_POINTS * k}"
                )


def _disk_net(rho, spacing):
    """Deterministic polar net of the disk of radius rho about (0, 1)."""
    steps = int(math.ceil(rho / spacing))
    # the outermost ring sits a hair inside the boundary so the net stays
    # within the closed disk under roundoff
    edge = max(rho - 1e-9, 0.0)
    xs_all, ys_all = [np.zeros(1)], [np.ones(1)]
    for i in range(1, steps + 1):
        r = min(i * spacing, edge)
        n_ang = max(3, int(math.ceil(2.0 * math.pi * math.sinh(r) / spacing)))
        theta = 2.0 * math.pi * (np.arange(n_ang) + 0.5 * (i % 2)) / n_ang
        xs, ys = polar_xy(0.0, 1.0, r, theta)
        xs_all.append(xs)
        ys_all.append(ys)
    return np.concatenate(xs_all), np.concatenate(ys_all)


def _boundary_ring(k, spacing):
    """Points along the level-k ball boundary at net spacing."""
    n = max(8, int(math.ceil(2.0 * math.pi * math.sinh(k) / spacing)))
    theta = 2.0 * math.pi * np.arange(n) / n
    return polar_xy(0.0, 1.0, k, theta)


def _level_net(target, k, spacing):
    """Net of the covered set within distance k of the origin.

    A disk packing nets every disk that meets the level ball at once: the
    net about (0, 1) is carried to each center (cx, cy) by z -> cx + cy z.
    A region keeps the points of the level ball's own net that it covers.
    """
    rho = getattr(target, "disk_radius", None)
    if rho is None:
        xs, ys = _disk_net(float(k), spacing)
        keep = np.asarray(target.covers_xy(xs, ys), dtype=bool)
    else:
        cx, cy = target._centers(BallSpec(ORIGIN, k + rho))
        nx, ny = _disk_net(rho, spacing)
        xs = (cx[:, None] + cy[:, None] * nx).ravel()
        ys = (cy[:, None] * ny).ravel()
        keep = cosh_distance_xy(xs, ys, 0.0, 1.0) <= math.cosh(k) * (1.0 + 1e-12)
    bx, by = _boundary_ring(k, spacing)
    bkeep = np.asarray(target.covers_xy(bx, by), dtype=bool)
    return np.column_stack([np.concatenate([xs[keep], bx[bkeep]]),
                            np.concatenate([ys[keep], by[bkeep]])])


def truncate(target, k_max: int = 8) -> TruncatedPacking:
    """Deterministic truncation of a packing or region to k_max levels.

    Disk packings net each disk meeting a level ball from one polar net;
    regions get a polar net of each level ball filtered by coverage.
    Level boundaries carry their own covered arcs so clipped bodies stay
    within the net bound. Nets have spacing _NET_SPACING; a nonempty
    level too thin to reach its minimum point count is refined at halved
    spacing.
    """
    if k_max < 1:
        raise DomainError(f"k_max must be >= 1, got {k_max}")
    levels = []
    for k in range(1, k_max + 1):
        h = _NET_SPACING
        pts = _level_net(target, k, h)
        refinements = 0
        while 0 < len(pts) < MIN_LEVEL_POINTS * k:
            h *= 0.5
            refinements += 1
            if refinements > 8:
                raise DomainError(
                    f"could not populate level {k} to {MIN_LEVEL_POINTS * k} "
                    f"points even at spacing {h:g}"
                )
            pts = _level_net(target, k, h)
        levels.append(pts)
    return TruncatedPacking(k_max=k_max, levels=tuple(levels))


def _cut(best):
    """Smallest upper bound that may still reach the cosh distance best.

    The lower bounds that raise best round a few ulps high; the relative
    pad on best - 1 covers that, and the absolute ulps of best cover the
    cosh - 1 lost below one ulp in 1 + q.
    """
    return best - ((best - 1.0) * 1e-9 + 4.0 * np.finfo(float).eps * best)


def _directed_cosh(a, c, floor):
    """Largest cosh distance from a point of a to its nearest point of c,
    or floor if that is larger.

    Candidates are the points whose upper bound reaches the cut of the
    best known value; they are taken against all of c, largest upper
    bound first, in blocks of at most _BLOCK_PAIRS pairs (or one point).
    """
    # imported here, so that importing the package does not load scipy.spatial
    from scipy.spatial import cKDTree

    x, y = a[:, 0], a[:, 1]
    delta, j = cKDTree(c).query(a)
    ub = cosh_distance_xy(x, y, c[j, 0], c[j, 1])
    lb = 1.0 + delta * delta / (2.0 * y * (y + delta))
    top = floor
    best = max(float(lb.max()), floor)
    cand = np.flatnonzero((ub > 1.0) & (ub >= _cut(best)))
    cand = cand[np.argsort(-ub[cand], kind="stable")]
    cx, cy = c[:, 0], c[:, 1]
    rows = max(1, _BLOCK_PAIRS // len(c))
    while cand.size:
        blk, cand = cand[:rows], cand[rows:]
        m = cosh_distance_xy(x[blk, None], y[blk, None], cx, cy).min(axis=1)
        top = max(top, float(m.max()))
        best = max(best, top)
        cand = cand[ub[cand] >= _cut(best)]
    return top


def _point_set(pts):
    """Validated (n, 2) float array of half-plane points."""
    pts = np.asarray(pts, dtype=float)
    if pts.size == 0:
        raise DomainError("hausdorff distance of an empty set is undefined")
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DomainError("point sets must be (n, 2) coordinate arrays")
    x, y = pts[:, 0], pts[:, 1]
    if not (np.isfinite(pts).all() and (y > 0.0).all()):
        raise DomainError("half-plane points need finite x and finite y > 0")
    if (np.abs(x) > _COORD_LIMIT).any() or (np.abs(np.log(y)) > math.log(_COORD_LIMIT)).any():
        raise RangeError(
            f"hausdorff distance needs |x| <= {_COORD_LIMIT:g} and "
            f"{1.0 / _COORD_LIMIT:g} <= y <= {_COORD_LIMIT:g}"
        )
    return pts


def hausdorff_distance(a, c) -> float:
    """Hausdorff distance between two finite half-plane point sets.

    Coordinates must satisfy |x| <= 1e30 and 1e-30 <= y <= 1e30
    (RangeError otherwise).
    """
    a, c = _point_set(a), _point_set(c)
    # the pass from a sets the floor below which the pass from c drops points
    worst = _directed_cosh(a, c, 1.0)
    return float(np.arccosh(_directed_cosh(c, a, worst)))


@dataclass(frozen=True)
class PackingDistance:
    """Scaled-Hausdorff distance with the level attaining the maximum."""

    value: float
    argmax_level: int
    per_level: tuple

    def __float__(self):
        return self.value


def packing_distance(t1: TruncatedPacking, t2: TruncatedPacking) -> PackingDistance:
    """max over k of (1/k) x Hausdorff distance between level-k nets.

    A level where exactly one side is empty contributes the diameter
    bound 2k, i.e. a scaled value of 2; two empty sides contribute 0.
    """
    if t1.k_max != t2.k_max:
        raise DomainError(
            f"truncation levels differ: {t1.k_max} vs {t2.k_max}"
        )
    per_level = []
    for k in range(1, t1.k_max + 1):
        a, c = t1.levels[k - 1], t2.levels[k - 1]
        if len(a) == 0 and len(c) == 0:
            per_level.append(0.0)
        elif len(a) == 0 or len(c) == 0:
            per_level.append(2.0)
        else:
            per_level.append(hausdorff_distance(a, c) / k)
    value = max(per_level)
    argmax_level = 1 + int(np.argmax(per_level))
    return PackingDistance(value=value, argmax_level=argmax_level,
                           per_level=tuple(per_level))

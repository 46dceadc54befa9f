"""Packing constructors for the upper half-plane.

A packing is a collection of closed disks with pairwise disjoint
interiors. This module builds the studied families: the horocyclic
stripe model, the Boroczky disk packing with its tile-dependent density,
the tight {3,m} packings whose disks sit on the vertices of the {3,m}
triangulation, and the horoball brick tiles used to exhibit the density
ambiguity of the Boroczky packing.

The stripe model and the brick tiles are regions, not disk packings:
both are boxes in (x, log y), so the area they cover in a ball comes from
the one box-in-ball quadrature of the regions module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, RangeError, SaturationError, UnsupportedOperationError
from .hgeom import (
    ORIGIN,
    BallSpec,
    GeodesicPolygon,
    HDisk,
    HPoint,
    Isometry,
    SiteGrid,
    _BALL_PAD,
    _MIN_IMAGE_Y,
    apply,
    ball_area,
    ball_hits,
    cosh_distance_xy,
    mobius_xy,
)
from .regions import (
    Region,
    SamplePlan,
    StripeRegion,
    _BLOCK,
    _box_area_in_ball,
    _covers_point,
    _fill,
)


# --------------------------------------------------------------------------
# base type


class Packing:
    """Closed disks of one radius with pairwise disjoint interiors.

    Subclasses provide disk_radius, covers_xy(xs, ys) for coordinate
    arrays, the one coverage predicate, and the one window primitive
    _centers(ball) -> (xs, ys): the coordinates of the disk centers in the
    closed ball. The base class derives covers(p), covers_xy on one point
    (see regions._covers_point), and centers_in_ball and bodies_in_ball
    from _centers.
    """

    fundamental_domain = None

    def covers(self, p: HPoint) -> bool:
        return _covers_point(self, p)

    def centers_in_ball(self, ball: BallSpec) -> list[HPoint]:
        """Disk centers lying in the closed ball."""
        return [HPoint(float(a), float(b)) for a, b in zip(*self._centers(ball))]

    def bodies_in_ball(self, ball: BallSpec) -> list[HDisk]:
        """Disks meeting the closed ball: centers within ball.radius + disk_radius."""
        r = _disk_radius(self)
        grown = BallSpec(ball.center, ball.radius + r)
        return [HDisk(HPoint(float(a), float(b)), r) for a, b in zip(*self._centers(grown))]


def _disk_radius(target) -> float:
    """The disk radius of a disk packing; regions have none."""
    r = getattr(target, "disk_radius", None)
    if r is None:
        raise UnsupportedOperationError(
            f"{type(target).__name__} is a region, not a disk packing"
        )
    return r


_GAP_BALLS = 2**14  # centers whose balls pairwise_min_gap searches at once


def pairwise_min_gap(disks) -> float:
    """Smallest (center distance - 2 radius) over pairs of disks of one
    radius; inf if < 2 disks.

    A packing window is admissible when this is >= -1e-9: interiors are
    pairwise disjoint up to roundoff, tangencies land at exactly zero.
    The coordinates are scaled by the power of two that brings the median
    height near 1, which is exact and keeps the squares finite at any
    height. Neighbours in log-height order and in x order bound the
    smallest cosh distance by u; each center's ball of cosh radius u,
    padded by _BALL_PAD as nearest_sites pads its balls, holds every
    center at a float cosh distance of at most u, and ball_hits finds
    them on a SiteGrid. The gap is that of the closest pair's
    cosh_distance_xy, which is symmetric bit for bit. Disks of different
    radii raise DomainError, centers with |log y| > 709 RangeError.
    """
    n = len(disks)
    if n < 2:
        return math.inf
    rad = np.array([d.radius for d in disks])
    if not (rad == rad[0]).all():
        raise DomainError("pairwise_min_gap needs disks of one radius")
    ly = np.array([d.center.log_y for d in disks])
    if np.abs(ly).max() > 709.0:  # exp(log y) overflows from 709.78
        raise RangeError("pairwise_min_gap needs centers with |log y| <= 709")
    e = -round(float(np.median(ly)) / math.log(2.0))
    xs = np.ldexp(np.array([d.center.x for d in disks]), e)
    ys = np.ldexp(np.exp(ly), e)
    best = min(float(cosh_distance_xy(xs[o[:-1]], ys[o[:-1]], xs[o[1:]], ys[o[1:]]).min())
               for o in (np.lexsort((xs, ly)), np.lexsort((ly, xs))))
    grid, u = SiteGrid(xs, ys), best
    sinh_u = math.sqrt((u - 1.0) * (u + 1.0)) + _BALL_PAD * u
    for a in range(0, n, _GAP_BALLS):
        s = slice(a, a + _GAP_BALLS)
        counts, j = ball_hits(grid, xs[s], ys[s], u, sinh_u)
        i = a + np.repeat(np.arange(counts.size), counts)
        i, j = i[j > i], j[j > i]
        best = float(cosh_distance_xy(xs[i], ys[i], xs[j], ys[j]).min(initial=best))
    return float(np.arccosh(np.maximum(best, 1.0)) - 2.0 * rad[0])


# --------------------------------------------------------------------------
# stripe model


class StripeModel(StripeRegion):
    """Alternating black/white stripes between equidistant horocycles.

    Consecutive horocycles y_j = e^{(j+1/2) W} are at hyperbolic distance
    exactly W. The model is the indicator region of the black union; the
    covered area of any ball is the box-in-ball quadrature summed over the
    black stripes it meets.
    """


# --------------------------------------------------------------------------
# Boroczky packing

_WITHIN_ROW = math.acosh(1.5)

# Window queries of either disk packing refuse to enumerate more disks.
_DISK_CAP = 2_000_000
# Boroczky columns from here on have no exact k + 1/2 in float.
_COLUMN_BOUND = 2**52


def _too_many_disks(radius: float) -> RangeError:
    return RangeError(
        f"window of radius {radius:g} would enumerate more than {_DISK_CAP} "
        f"disks; use a smaller window"
    )


def _columns_beyond(j: int) -> RangeError:
    return RangeError(f"row {j} reaches a column index of 2^52, beyond float resolution")


def boroczky_max_radius() -> float:
    """Largest admissible disk radius arccosh(3/2)/2.

    Adjacent centers within a row are at distance arccosh(3/2); distinct
    rows are at least distance 2 apart, so the within-row spacing is the
    binding constraint and this radius realizes within-row tangency.
    """
    return 0.5 * _WITHIN_ROW


class BoroczkyPacking(Packing):
    """Equal disks about the centers (e^{2j+1/2}(k+1/2), e^{2j+1/2}).

    Row j sits at height e^{2j+1/2}; within a row the spacing equals the
    height. The center set is invariant under the dilation
    (x, y) -> (e^2 x, e^2 y), which shifts j by one, and under the
    x-translation by one spacing, which shifts k. Coverage queries are
    O(1): only the row j = floor(log(y)/2) can cover a point, and only
    the nearest column.
    """

    def __init__(self, disk_radius: float | None = None):
        rho_max = boroczky_max_radius()
        if disk_radius is None:
            disk_radius = rho_max
        if not (disk_radius > 0.0) or not math.isfinite(disk_radius):
            raise DomainError(f"disk radius must be positive, got {disk_radius}")
        if disk_radius > rho_max + 1e-12:
            raise SaturationError(
                f"disk radius {disk_radius:.12g} exceeds the saturation bound "
                f"{rho_max:.12g} set by within-row tangency",
                maximum=rho_max,
            )
        self.disk_radius = float(disk_radius)

    def center(self, j: int, k: int) -> HPoint:
        a = 2.0 * j + 0.5
        if abs(a) > 700.0:
            raise RangeError(f"row {j} lies beyond representable heights")
        x = (k + 0.5) * math.exp(a)
        if not math.isfinite(x):
            raise RangeError(f"center ({j}, {k}) overflows the x coordinate")
        return HPoint.from_log(x, a)

    def covers_xy(self, xs, ys):
        """Whether each point lies in a disk.

        In row units (u, v) = (x, y) / e^a the row's centers sit at
        (k + 1/2, 1), and the nearest of them, k = floor(u), is the only
        one that can cover the point.
        """
        xs = np.asarray(xs, dtype=float)
        L = np.log(np.asarray(ys, dtype=float))
        a = 2.0 * np.floor(L / 2.0) + 0.5
        v = np.exp(L - a)
        # x beyond the float range of the row spacing gives u = inf: uncovered
        with np.errstate(invalid="ignore", over="ignore"):
            scale = np.exp(-0.5 * a)
            u = (xs * scale) * scale
            du = u - (np.floor(u) + 0.5)
            return 1.0 + (du * du + (v - 1.0) ** 2) / (2.0 * v) <= math.cosh(self.disk_radius)

    def _centers(self, ball: BallSpec):
        """Coordinates of the centers in the closed ball, one row at a time.

        Raises RangeError if the window would enumerate more than two
        million disks (deep windows grow exponentially), reach a column
        index of 2^52, where k + 1/2 is no longer exact, or run off
        representable coordinates.
        """
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
        xs, ys = [np.empty(0)], [np.empty(0)]
        count = 0
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
                raise _columns_beyond(j)
            k_lo = math.ceil(base - half_k - 0.5)
            k_hi = math.floor(base + half_k - 0.5)
            if k_hi < k_lo:
                continue
            if max(-k_lo, k_hi) >= _COLUMN_BOUND:
                raise _columns_beyond(j)
            count += k_hi - k_lo + 1
            if count > _DISK_CAP:
                raise _too_many_disks(ball.radius)
            a = 2.0 * j + 0.5
            if abs(a) > 700.0:
                raise RangeError(f"row {j} lies beyond representable heights")
            ea = math.exp(a)
            with np.errstate(over="ignore"):
                x = (np.arange(k_lo, k_hi + 1) + 0.5) * ea
            if not np.isfinite(x).all():
                raise RangeError(f"row {j} overflows the x coordinate")
            xs.append(x)
            ys.append(np.full(x.size, ea))
        return np.concatenate(xs), np.concatenate(ys)


# --------------------------------------------------------------------------
# tight {3,m} packings


def _check_m(m) -> int:
    if isinstance(m, bool) or not isinstance(m, (int, np.integer)):
        raise DomainError(f"m must be an integer, got {m!r}")
    if m < 7:
        raise DomainError(f"m must be at least 7 (hyperbolic regime), got {m}")
    return int(m)


def tight_radius(m: int) -> float:
    """Disk radius r_m making the side-2r_m equilateral triangle tile with angles 2pi/m.

    r_m = arccosh(cot(pi/m) cot(2pi/m)) / 2, equivalently
    cosh(r_m) = 1/(2 sin(pi/m)); r_m grows without bound in m.
    """
    m = _check_m(m)
    c = 1.0 / (math.tan(math.pi / m) * math.tan(2.0 * math.pi / m))
    return 0.5 * math.acosh(c)


def tight_density_formula(m: int) -> float:
    """Covered fraction of the {3,m} triangle: (3 csc(pi/m) - 6)/(m - 6)."""
    m = _check_m(m)
    return (3.0 / math.sin(math.pi / m) - 6.0) / (m - 6.0)


@dataclass(frozen=True)
class FundamentalDomain:
    """A tiling domain carrying the inventory of disk sectors inside it."""

    polygon: GeodesicPolygon
    sectors: tuple  # (disk center, disk radius, angular fraction) triples

    def area(self) -> float:
        return self.polygon.area()

    def covered_area(self) -> float:
        return sum(f * ball_area(r) for _, r, f in self.sectors)


# Each inversion brings a point closer to (0, 1), so every point reaches
# the chamber; the cap guards against roundoff cycling a point.
_MAX_SWEEPS = 10_000
_JUMP_REACH = 7.0  # the jump table holds whole shells of vertices out to about this
_JUMP_BINS = 4096  # direction bins per shell of the jump table, a power of two
_JUMP_PASSES = 6  # jumps a point takes at most before the sweeps
# points with cosh d - 1 past this are left to the sweeps: the jumps' error
# is measured out to d = 32 (see TightPacking)
_JUMP_BOUND = math.cosh(32.0) - 1.0
_MAX_REFOLDS = 4  # one refold settles every window center floats can carry


def _direction(x, y):
    """The angle of points about (0, 1) from straight up: arg (z - i) / (z + i)."""
    return np.arctan2(-2.0 * x, x * x + y * y - 1.0)


class TightPacking(Packing):
    """Disks of radius r_m about the vertices of the {3,m} triangulation.

    The packing is one disk carried around by the (2,3,m) triangle group.
    Its chamber is the triangle at (0, 1) between x = 0, the geodesic
    through (0, 1) at angle pi/m to it and the circle |z| = e^{r_m}. A
    sweep turns a point about (0, 1) by the multiple of 2 pi/m nearest
    straight up, mirrors it into x >= 0 and, if it lies outside that
    circle, inverts it. A point left inside is in the chamber: covered iff
    within r_m of (0, 1). An inverted one is covered if its image is, as
    the inversion carries (0, e^{2 r_m}) to (0, 1), and else sweeps again.

    A sweep gains about one edge, so coverage queries first jump points
    farther than two edges from (0, 1) near it (see _jump): by the
    symmetry g_v that carries a table vertex v of the point's shell and
    direction to (0, 1), at most _JUMP_PASSES times. At R = 12 for m = 7 a
    point then takes 1.06 sweeps instead of 11.6. Each g_v is exact up to
    float: it misplaces v and its neighbour by at most 2.9e-13, about
    1e-16 e^{d(v, (0, 1))} (m = 7..12). The jumped fold of a point at
    distance d lands within 1.1e-15 e^d of the swept one for m <= 12 and
    4.7e-15 e^d for m = 18 (measured out to d = 32), next to the sweeps'
    own 1e-16 e^d; farther points are not jumped. The table is built at
    the first far point, in a few milliseconds. A jump saves the most
    sweeps where edges are short and points far: against the sweeps alone
    the fold takes 0.41 of the time at R = 12 for m = 7, but up to 1.03
    where points lie only two or three edges out for m = 9..16.

    Window queries carry the window's center near (0, 1) by one isometry
    g (see _home), take the vertices of a cached neighbourhood of (0, 1)
    in the moved window and carry them back by g^-1.

    The neighbourhood is generated ring by ring from the layered structure
    of the {3,m} triangulation (Dunham, Lindgren and Witte, 1981), which
    names each vertex exactly once, so no vertex is ever deduplicated
    (see _rings). The first window grows it to its own reach only. A later
    window that reaches past the cached radius regenerates it with ln 2 of
    headroom, which about doubles the vertex count, so a creeping window's
    generation is amortized linear in the vertices finally held. No vertex
    within R hangs on a parent beyond R and the sort by distance is
    stable, so the vertices within any radius, and their order, do not
    depend on how far the neighbourhood was grown. A window
    whose neighbourhood would exceed two million vertices raises
    RangeError. Window gaps are exact to 2e-14 about (x, y) with |x| <= y,
    and windows sit in place, out to |log y| = 60 for m = 7 and 95 for
    m = 8 and 12; beyond, each is right or raises RangeError, and all
    raise by 80 and 110. Off that axis, gaps lose about 1e-14 |x| / y.
    """

    def __init__(self, m: int):
        self.m = _check_m(m)
        self.disk_radius = tight_radius(self.m)
        self._e2r = math.exp(2.0 * self.disk_radius)
        # cos and sin of pi k / m: the turn by 2 pi k / m about (0, 1)
        half_turns = np.pi * np.arange(self.m) / self.m
        self._cos, self._sin = np.cos(half_turns), np.sin(half_turns)
        # the neighbourhood: vertices and their cosh distances to (0, 1),
        # nearest first, complete out to _reach
        self._z = np.array([1j])
        self._cd = np.array([1.0])
        self._reach = 0.0
        # the radius about (0, 1) that holds _DISK_CAP vertices
        self._cap_radius = math.acosh(1.0 + _DISK_CAP * (self.m - 6) / 6.0)
        # cosh d - 1 two edges out from (0, 1), past which points jump
        self._two_edges = math.cosh(4.0 * self.disk_radius) - 1.0
        self._jumps = None
        self._fd = None

    # -- the fold ------------------------------------------------------------

    def _sweep(self, x, y):
        """Turn points into the sector straight up from (0, 1), mirror them
        into x >= 0 and invert those outside |z| = e^{r_m}.

        Returns x, y, the inverted mask, the turn index k of each point
        (the turn is by -2 pi k / m) and the mask of the points the turn
        left at x < 0, which the mirror carried.
        """
        k = np.rint(_direction(x, y) * (self.m / (2.0 * math.pi))).astype(np.intp)
        # the turn by -2 pi k / m is z -> (c z - s) / (s z + c). As |k| <= (m + 1) / 2,
        # a negative k indexes the tables from the end, at k mod m.
        s, c = self._sin[k], self._cos[k]
        x, y = mobius_xy(c, -s, s, c, x, y)
        mirrored = x < 0.0
        x = np.abs(x)
        q = x * x + y * y
        if not (np.isfinite(q).all() and (y > 0.0).all()):
            raise RangeError("points beyond float reach do not fold into the chamber")
        inv = q > self._e2r
        # a factor of exactly 1.0 leaves the points inside the circle as they are
        s = np.minimum(self._e2r / q, 1.0)
        return x * s, y * s, inv, k, mirrored

    @staticmethod
    def _points(xs, ys):
        """Flat float copies of half-plane points; DomainError off it."""
        x, y = np.array(xs, dtype=float).ravel(), np.array(ys, dtype=float).ravel()
        if not (np.isfinite(x).all() and np.isfinite(y).all() and (y > 0.0).all()):
            raise DomainError("half-plane points need finite x and finite y > 0")
        return x, y

    def _home(self, p: HPoint):
        """An Isometry g of the packing with g(p) near (0, 1), and g(p).

        g(p), from g = identity, is swept until a sweep leaves it
        uninverted, and each sweep composes onto h = g. With sigma z =
        -conj(z) the mirror, a sweep's turn is (c, -s; s, c) and its
        inversion sigma (0, -e^{2 r_m}; 1, 0); moved past a sigma, a map
        (a, b; c, d) becomes (a, -b; -c, d), so the sweeps compose to
        sigma^flip h. A float h is an exact isometry of a nearby group
        element, while the swept point is off by about 1e-16 e^{d(p, (0, 1))},
        so g = h carries p again, until g(p)'s first sweep does not invert
        it."""
        g, x, y = Isometry.identity(), p.x, p.y
        try:
            for _ in range(_MAX_REFOLDS):
                (lx, ly), h, flip = self._points([x], [y]), g, False
                for sweeps in range(_MAX_SWEEPS):
                    lx, ly, inv, k, mirrored = self._sweep(lx, ly)
                    # as Python scalars, which cost less than numpy's in this loop
                    (inv,), (k,), (mirrored,) = inv.tolist(), k.tolist(), mirrored.tolist()
                    c, s = self._cos[k % self.m], self._sin[k % self.m] * (-1.0 if flip else 1.0)
                    h = Isometry(c, -s, s, c) @ h
                    if not inv:
                        break
                    h = Isometry(0.0, -self._e2r, 1.0, 0.0) @ h
                    flip ^= mirrored ^ inv
                else:
                    raise RangeError(f"points did not fold into the chamber in {_MAX_SWEEPS} sweeps")
                if not sweeps:
                    return g, x, y
                g = h
                (x,), (y,) = g.apply_xy([p.x], [p.y])
        except DomainError as exc:
            raise RangeError("floats cannot carry a window this far out home") from exc
        raise RangeError(f"a window center did not settle in {_MAX_REFOLDS} folds")

    # -- the neighbourhood of (0, 1) -------------------------------------------

    def _rings(self, radius: float):
        """Yield each ring of vertices within radius of (0, 1), with the
        neighbour that emitted each vertex.

        Ring 1 is the m neighbours of (0, 1). Every later vertex v keeps
        its reference neighbour N0, the vertex that emitted it, and N_k is
        N0 turned by 2 pi k / m about v. A vertex with one parent emits
        N2 ... N_{m-3}, one with two parents N3 ... N_{m-3}; the first
        child it emits has two parents, the others one. The child N_{m-2}
        it skips is emitted by its other parent, so each vertex is made
        exactly once. Children beyond radius are dropped as they are made.
        """
        m = self.m
        cosh_cap = math.cosh(radius)
        # first: the turn of each vertex's first child. (0, 1) emits all m
        # turns of the vertex straight above it, none with two parents.
        ring, ref, first = np.array([1j]), np.array([1j * self._e2r]), np.array([-1])
        turns = np.arange(m)
        while ring.size:
            yield ring, ref
            rot = np.exp(2j * math.pi * turns / m)[:, None]
            tk = rot * ((ref - ring) / (ref - ring.conj()))
            cand = (ring - ring.conj() * tk) / (1.0 - tk)
            keep = (turns[:, None] >= first) & (
                cosh_distance_xy(cand.real, cand.imag, 0.0, 1.0) <= cosh_cap
            )
            ring, ref = cand[keep], np.broadcast_to(ring, cand.shape)[keep]
            first = 2 + np.broadcast_to(turns[:, None] == first, cand.shape)[keep]
            turns = np.arange(2, m - 2)

    def _grow(self, radius: float) -> None:
        """Generate every vertex within radius of (0, 1); see _rings."""
        z = np.concatenate([ring for ring, _ in self._rings(radius)])
        cd = cosh_distance_xy(z.real, z.imag, 0.0, 1.0)
        order = np.argsort(cd, kind="stable")
        self._z, self._cd = z[order], cd[order]
        self._reach = radius

    # -- the jumps -----------------------------------------------------------

    def _jump_table(self):
        """The table of the jumps, built at the first call: the upper
        cosh d - 1 of each shell but the last, the vertex of each (shell,
        bin) and, per vertex v, the coefficients (a, b, c, d) of g_v.

        Shell s holds the vertices v with 2 r_m s < d(v, (0, 1)) <=
        2 r_m (s + 1), in the count of whole shells that comes nearest
        _JUMP_REACH, so the outermost is as full as the others; bin b of a
        shell the one whose direction about (0, 1) is nearest the bin's
        centre. With n the neighbour that emitted v, T(z) = (z - v_x) / v_y
        and R the turn about (0, 1) that carries T(n) straight up,
        g_v = R T sends v to (0, 1) and n to (0, e^{2 r_m}): the rotations
        of the packing act simply transitively on its directed edges, so
        g_v is the one that carries (v, n) there.
        """
        if self._jumps is None:
            edge = 2.0 * self.disk_radius
            shells = max(1, round(_JUMP_REACH / edge))
            # with the vertices on the outer boundary, which roundoff may put past it
            rings = self._rings(edge * shells + 1e-9)
            z, n = (np.concatenate(parts) for parts in zip(*rings))
            x, y = z.real, z.imag
            w = (n - x) / y
            # R turns by minus the direction of T(n), as (c, -s; s, c) with half of it
            half = 0.5 * _direction(w.real, w.imag)
            c, s = np.cos(half), np.sin(half)
            # (c, -s; s, c) (1, -v_x; 0, v_y), of determinant v_y
            coef = np.stack([c, -c * x - s * y, s, c * y - s * x]) / np.sqrt(y)
            bounds = np.cosh(edge * np.arange(1.0, shells)) - 1.0
            t = cosh_distance_xy(x, y, 0.0, 1.0) - 1.0
            shell, angle = np.searchsorted(bounds, t), _direction(x, y)
            centres = (np.arange(_JUMP_BINS) + 0.5) * (2.0 * math.pi / _JUMP_BINS) - math.pi
            index = np.empty((bounds.size + 1, _JUMP_BINS), dtype=np.intp)
            for k in range(bounds.size + 1):
                mine = np.flatnonzero(shell == k)
                if not mine.size:
                    # an empty shell copies the one below; shell 0 holds (0, 1)
                    index[k] = index[k - 1]
                    continue
                mine = mine[np.argsort(angle[mine])]
                pos = np.searchsorted(angle[mine], centres)
                below, above = mine[pos - 1], mine[pos % mine.size]
                nearer = (centres - angle[below]) % (2.0 * math.pi) <= (
                    angle[above] - centres) % (2.0 * math.pi)
                index[k] = np.where(nearer, below, above)
            self._jumps = bounds, index, coef
        return self._jumps

    def _jump(self, x, y):
        """Carry the points farther than two edges from (0, 1) near it, in
        place: each takes the g_v of its shell and direction bin, pass by
        pass, at most _JUMP_PASSES times.

        Points with cosh d - 1 >= _JUMP_BOUND stay put, so the sweeps
        alone fold them, and the first sweep reports those beyond float
        reach.
        """
        live, lx, ly = None, x, y
        for _ in range(_JUMP_PASSES):
            with np.errstate(over="ignore"):
                # x^2 + (y - 1)^2 is 2y (cosh d - 1); in place, as most
                # points are near and this test is all they pay
                t = lx * lx
                t += (ly - 1.0) ** 2
            far = t > (2.0 * self._two_edges) * ly
            if not far.any():
                return
            live = np.flatnonzero(far) if live is None else live[far]
            lx, ly = lx[far], ly[far]
            t = t[far] / (2.0 * ly)
            near = t < _JUMP_BOUND
            if not near.all():
                live, lx, ly, t = live[near], lx[near], ly[near], t[near]
            bounds, index, coef = self._jump_table()
            cell = np.searchsorted(bounds, t) * _JUMP_BINS
            turn = (_direction(lx, ly) + math.pi) * (_JUMP_BINS / (2.0 * math.pi))
            # the bin of angle pi is the bin of -pi
            cell += turn.astype(np.intp) & (_JUMP_BINS - 1)
            a, b, c, d = coef.take(index.take(cell), axis=1)
            lx, ly = mobius_xy(a, b, c, d, lx, ly)
            x[live], y[live] = lx, ly

    # -- queries -------------------------------------------------------------

    def _centers(self, ball: BallSpec):
        """Coordinates of the vertices in the closed ball, carried by _home."""
        g, cx, cy = self._home(ball.center)
        cd = float(cosh_distance_xy(cx, cy, 0.0, 1.0))
        reach = math.acosh(max(cd, 1.0)) + ball.radius + 1e-9
        if reach > self._cap_radius:
            raise _too_many_disks(ball.radius)
        if reach > self._reach:
            # the first growth stops at the window's reach; later ones add ln 2
            headroom = math.log(2.0) if self._reach else 0.0
            self._grow(min(reach + headroom, self._cap_radius))
        z = self._z[: np.searchsorted(self._cd, math.cosh(reach), side="right")]
        near = cosh_distance_xy(z.real, z.imag, cx, cy) <= math.cosh(ball.radius)
        return g.inverse().apply_xy(z.real[near], z.imag[near])

    def covers_xy(self, xs, ys):
        """Whether each point lies in a disk, one regions._BLOCK of points at
        a time: jumped near (0, 1), then swept until its verdict settles."""
        xs = np.asarray(xs, dtype=float)
        x, y = xs.ravel(), np.asarray(ys, dtype=float).ravel()
        out = np.empty(x.size, dtype=bool)
        scale = 2.0 * math.cosh(self.disk_radius)
        for lo in range(0, x.size, _BLOCK):
            lx, ly = self._points(x[lo : lo + _BLOCK], y[lo : lo + _BLOCK])
            self._jump(lx, ly)
            live = np.arange(lo, lo + lx.size)
            for _ in range(_MAX_SWEEPS):
                lx, ly, inv, _, _ = self._sweep(lx, ly)
                # cosh d((x, y), (0, 1)) = (x^2 + y^2 + 1) / (2 y)
                out[live] = hit = lx * lx + ly * ly + 1.0 <= ly * scale
                inv &= ~hit
                if not inv.any():
                    break
                live, lx, ly = live[inv], lx[inv], ly[inv]
            else:
                raise RangeError(f"points did not fold into the chamber in {_MAX_SWEEPS} sweeps")
        return out.reshape(xs.shape)

    @property
    def fundamental_domain(self) -> FundamentalDomain:
        """The {3,m} face triangle with its three 1/m disk sectors."""
        if self._fd is None:
            r = self.disk_radius
            v0 = ORIGIN
            v1 = HPoint.from_log(0.0, 2.0 * r)
            v2 = apply(Isometry.rotation(2.0 * math.pi / self.m, v0), v1)
            poly = GeodesicPolygon([v0, v1, v2])
            frac = 1.0 / self.m
            self._fd = FundamentalDomain(
                polygon=poly,
                sectors=((v0, r, frac), (v1, r, frac), (v2, r, frac)),
            )
        return self._fd


# --------------------------------------------------------------------------
# transformed packings


class TransformedPacking(Packing):
    """The image g P of a packing under an isometry g."""

    def __init__(self, g: Isometry, base: Packing):
        self.g = g
        self.g_inv = g.inverse()
        self.base = base
        self.disk_radius = getattr(base, "disk_radius", None)

    def covers_xy(self, xs, ys):
        bx, by = self.g_inv.apply_xy(xs, ys)
        return self.base.covers_xy(bx, by)

    def _centers(self, ball: BallSpec):
        """Coordinates of the moved base centers in the closed ball.

        apply_xy is apply's float path: it gives the same coordinates for
        base centers of safe-range height, and like apply this raises
        RangeError for an image height below _MIN_IMAGE_Y. A moved region
        has no centers and raises UnsupportedOperationError.
        """
        _disk_radius(self)
        pulled = BallSpec(apply(self.g_inv, ball.center), ball.radius)
        centers = self.base._centers(pulled)
        # as in apply, an over- or underflowing |c z + d|^2 is caught below
        with np.errstate(all="ignore"):
            x, y = self.g.apply_xy(*centers)
        if not (np.isfinite(x).all() and np.isfinite(y).all() and (y >= _MIN_IMAGE_Y).all()):
            raise RangeError(f"image heights fall below {_MIN_IMAGE_Y:g} or beyond float reach")
        return x, y


# --------------------------------------------------------------------------
# brick tiles


@dataclass(frozen=True)
class BrickTile:
    """The brick {s <= y < e^2 s, w s k <= x < w s (k+1)} with s = e^{2j+offset}.

    Bricks of a fixed (family_offset, width_param) family tile the plane;
    all bricks are isometric with hyperbolic area w (1 - e^{-2}). The
    boundary convention is half-open from below in both coordinates, and
    a brick's top is the float bottom of the brick above it, so the family
    is an exact partition.
    """

    j: int = 0
    k: int = 0
    family_offset: float = 0.0
    width_param: float = math.exp(0.5)

    def __post_init__(self):
        if not (0.0 <= self.family_offset < 2.0):
            raise DomainError(
                f"family offset must lie in [0, 2), got {self.family_offset}"
            )
        if not (self.width_param > 0.0) or not math.isfinite(self.width_param):
            raise DomainError(f"width parameter must be positive, got {self.width_param}")
        if abs(self.log_s) > 690.0:
            raise RangeError(f"brick level {self.j} is beyond representable heights")

    @property
    def log_s(self) -> float:
        return 2.0 * self.j + self.family_offset

    @property
    def s(self) -> float:
        return math.exp(self.log_s)

    @property
    def x_bounds(self) -> tuple[float, float]:
        ws = self.width_param * self.s
        return (ws * self.k, ws * (self.k + 1))

    @property
    def _log_top(self) -> float:
        # the next brick's log_s, so that the family partitions exactly
        return 2.0 * (self.j + 1) + self.family_offset

    @property
    def y_bounds(self) -> tuple[float, float]:
        return (self.s, math.exp(self._log_top))

    def area(self) -> float:
        """Closed-form hyperbolic area, independent of j and k."""
        return self.width_param * (1.0 - math.exp(-2.0))


class BrickRegion(Region):
    """Indicator region of one brick.

    The brick is the box {xa <= x < xb, log s <= log y < log s + 2}, with
    the next brick's bottom as its top, so its area inside a ball is the
    box-in-ball quadrature of the regions module.
    """

    def __init__(self, tile: BrickTile):
        self.tile = tile

    def covers_xy(self, xs, ys):
        t = self.tile
        xs = np.asarray(xs, dtype=float)
        ys = np.asarray(ys, dtype=float)
        xa, xb = t.x_bounds
        ya, yb = t.y_bounds
        return (ys >= ya) & (ys < yb) & (xs >= xa) & (xs < xb)

    def exact_area_in_ball(self, ball: BallSpec) -> float:
        t = self.tile
        xa, xb = t.x_bounds
        return _box_area_in_ball(ball.radius, ball.center, xa, xb, t.log_s, t._log_top)

    def sample_uniform(self, plan: SamplePlan):
        """Area-uniform sample of the brick: x uniform, 1/y^2 in height.

        Point i is _points of draw i of the plan's first stream (the
        height) and of its second (x); see regions._uniform_blocks.
        """
        return _fill(self._points, plan)

    def _points(self, u, v):
        """Area-uniform points of the brick from two uniform blocks."""
        t = self.tile
        ys = t.s / (1.0 - u * (1.0 - math.exp(-2.0)))
        xa, xb = t.x_bounds
        xs = xa + v * (xb - xa)
        return xs, ys

    def area(self) -> float:
        return self.tile.area()


def brick_region(tile: BrickTile) -> BrickRegion:
    """Indicator region of the brick; see BrickRegion."""
    return BrickRegion(tile)

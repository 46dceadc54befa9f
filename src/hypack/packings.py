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
from scipy.spatial import cKDTree

from .errors import DomainError, RangeError, SaturationError, UnsupportedOperationError
from .hgeom import (
    ORIGIN,
    BallSpec,
    GeodesicPolygon,
    HDisk,
    HPoint,
    Isometry,
    _MIN_IMAGE_Y,
    apply,
    ball_area,
    cosh_distance_xy,
    mobius_xy,
    nearest_sites,
)
from .regions import (
    Region,
    SamplePlan,
    StripeRegion,
    _box_area_in_ball,
    _fill,
)


# --------------------------------------------------------------------------
# base type


class Packing:
    """Closed disks of one radius with pairwise disjoint interiors.

    Subclasses provide disk_radius, covers_xy(xs, ys) for coordinate
    arrays, covers(p) for one point, and the one window primitive
    _centers(ball) -> (xs, ys): the coordinates of the disk centers in the
    closed ball. The base class derives centers_in_ball and bodies_in_ball
    from _centers.
    """

    label = "packing"
    fundamental_domain = None

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
            f"{getattr(target, 'label', type(target).__name__)} is a region, not a disk packing"
        )
    return r


def pairwise_min_gap(disks) -> float:
    """Smallest (center distance - 2 radius) over pairs of disks of one
    radius; inf if < 2 disks.

    A packing window is admissible when this is >= -1e-9: interiors are
    pairwise disjoint up to roundoff, tangencies land at exactly zero.
    The nearest other center of each center is the second of its two
    nearest sites, the first being the center itself. Disks of different
    radii raise DomainError.
    """
    n = len(disks)
    if n < 2:
        return math.inf
    rad = np.array([d.radius for d in disks])
    if not (rad == rad[0]).all():
        raise DomainError("pairwise_min_gap needs disks of one radius")
    xs = np.array([d.center.x for d in disks])
    ys = np.exp(np.array([d.center.log_y for d in disks]))
    _, cd = nearest_sites(cKDTree(np.column_stack([xs, ys])), xs, ys, 2)
    gap = np.arccosh(np.maximum(cd[:, 1], 1.0)) - 2.0 * rad[0]
    return float(gap.min())


# --------------------------------------------------------------------------
# stripe model


class StripeModel(StripeRegion):
    """Alternating black/white stripes between equidistant horocycles.

    Consecutive horocycles y_j = e^{(j+1/2) W} are at hyperbolic distance
    exactly W. The model is the indicator region of the black union; the
    covered area of any ball is the box-in-ball quadrature summed over the
    black stripes it meets.
    """

    def __init__(self, W: float):
        super().__init__(W)
        self.label = f"stripe(W={self.W:g})"


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
        self.label = f"boroczky(rho={self.disk_radius:.6g})"

    def center(self, j: int, k: int) -> HPoint:
        a = 2.0 * j + 0.5
        if abs(a) > 700.0:
            raise RangeError(f"row {j} lies beyond representable heights")
        x = (k + 0.5) * math.exp(a)
        if not math.isfinite(x):
            raise RangeError(f"center ({j}, {k}) overflows the x coordinate")
        return HPoint.from_log(x, a)

    def _covers(self, xs, L):
        """Coverage of points given by x and log-height L.

        In row units (u, v) = (x, y) / e^a the row's centers sit at
        (k + 1/2, 1), and the nearest of them, k = floor(u), is the only
        one that can cover the point.
        """
        a = 2.0 * np.floor(L / 2.0) + 0.5
        v = np.exp(L - a)
        # x beyond the float range of the row spacing gives u = inf: uncovered
        with np.errstate(invalid="ignore", over="ignore"):
            scale = np.exp(-0.5 * a)
            u = (xs * scale) * scale
            du = u - (np.floor(u) + 0.5)
            return 1.0 + (du * du + (v - 1.0) ** 2) / (2.0 * v) <= math.cosh(self.disk_radius)

    def covers(self, p: HPoint) -> bool:
        # log_y stays finite where y itself under- or overflows
        return bool(self._covers(p.x, p.log_y))

    def covers_xy(self, xs, ys):
        return self._covers(np.asarray(xs, dtype=float), np.log(np.asarray(ys, dtype=float)))

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
_FOLD_BLOCK = 1 << 14  # points per block of the fold, which bounds its temporaries
_MAX_REFOLDS = 4  # one refold settles every window center floats can carry


class TightPacking(Packing):
    """Disks of radius r_m about the vertices of the {3,m} triangulation.

    The packing is one disk carried around by the (2,3,m) triangle group.
    Its chamber is the triangle at (0, 1) between x = 0, the geodesic
    through (0, 1) at angle pi/m to it and the circle |z| = e^{r_m}. A
    sweep turns a point about (0, 1) by the multiple of 2 pi/m nearest
    straight up, mirrors it into x >= 0 and, if it lies outside that
    circle, inverts it, which starts another sweep. A point is covered
    iff its folded image lies within r_m of (0, 1). Window queries carry
    the window's center near (0, 1) by one isometry g (see _home), take
    the vertices of a cached neighbourhood of (0, 1) in the moved window
    and carry them back by g^-1.

    The neighbourhood is generated ring by ring from the layered structure
    of the {3,m} triangulation (Dunham, Lindgren and Witte, 1981), which
    names each vertex exactly once, so no vertex is ever deduplicated
    (see _grow). A window that reaches past the cached radius regenerates
    it with ln 2 of headroom, which about doubles the vertex count, so
    generation is amortized linear in the vertices finally held. A window
    whose neighbourhood would exceed two million vertices raises
    RangeError. Window gaps are exact to 2e-14 about (x, y) with |x| <= y,
    and windows sit in place, out to |log y| = 60 for m = 7 and 95 for
    m = 8 and 12; beyond, each is right or raises RangeError, and all
    raise by 80 and 110. Off that axis, gaps lose about 1e-14 |x| / y.
    """

    def __init__(self, m: int):
        self.m = _check_m(m)
        self.disk_radius = tight_radius(self.m)
        self.label = f"tight(m={self.m})"
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
        self._fd = None

    # -- the fold ------------------------------------------------------------

    def _sweep(self, x, y, steps):
        """Turn points into the sector straight up from (0, 1), mirror them
        into x >= 0 and invert those outside |z| = e^{r_m}.

        Returns x, y, x^2 + y^2 before the inversion and the inverted mask;
        appends a single point's (k, mirrored, inverted) to steps.
        """
        # the angle about (0, 1) from straight up is arg (z - i) / (z + i)
        angle = np.arctan2(-2.0 * x, x * x + y * y - 1.0)
        k = np.rint(angle * (self.m / (2.0 * math.pi))).astype(np.intp)
        # the turn by -2 pi k / m is z -> (c z - s) / (s z + c)
        s, c = self._sin.take(k, mode="wrap"), self._cos.take(k, mode="wrap")
        x, y = mobius_xy(c, -s, s, c, x, y)
        mirrored = steps is not None and bool(x[0] < 0.0)
        x = np.abs(x)
        q = x * x + y * y
        if not (np.isfinite(q).all() and (y > 0.0).all()):
            raise RangeError("points beyond float reach do not fold into the chamber")
        inv = q > self._e2r
        if steps is not None:
            steps.append((int(k[0]), mirrored, bool(inv[0])))
        # a factor of exactly 1.0 leaves the points inside the circle as they are
        s = np.minimum(self._e2r / q, 1.0)
        return x * s, y * s, q, inv

    def _fold(self, xs, ys, steps=None):
        """Sweep each point into the chamber until it is not inverted.

        Returns flat copies of the folded x and y and their x^2 + y^2. For
        a single point, each sweep's (k, mirrored, inverted) goes to steps.
        """
        x = np.array(xs, dtype=float).ravel()
        y = np.array(ys, dtype=float).ravel()
        if not (np.isfinite(x).all() and np.isfinite(y).all() and (y > 0.0).all()):
            raise DomainError("half-plane points need finite x and finite y > 0")
        q = np.empty_like(x)
        live, lx, ly = np.arange(x.size), x, y
        for _ in range(_MAX_SWEEPS):
            lx, ly, lq, inv = self._sweep(lx, ly, steps)
            x[live], y[live], q[live] = lx, ly, lq
            live, lx, ly = live[inv], lx[inv], ly[inv]
            if not live.size:
                return x, y, q
        raise RangeError(f"points did not fold into the chamber in {_MAX_SWEEPS} sweeps")

    def _home(self, p: HPoint):
        """An Isometry g of the packing with g(p) near (0, 1), and g(p).

        With sigma z = -conj(z) the mirror, a sweep's turn is (c, -s; s, c)
        and its inversion sigma (0, -e^{2 r_m}; 1, 0); moved past a sigma, a
        map (a, b; c, d) becomes (a, -b; -c, d), so the sweeps compose to
        sigma^flip g. A float g is an exact isometry of a nearby group
        element, while the folded point is off by about 1e-16 e^{d(p, (0, 1))},
        so g(p) is folded again until it folds without an inversion."""
        g, x, y = Isometry.identity(), p.x, p.y
        try:
            for _ in range(_MAX_REFOLDS):
                steps: list[tuple[int, bool, bool]] = []
                self._fold([x], [y], steps)
                if not any(inverted for _, _, inverted in steps):
                    return g, x, y
                flip = False
                for k, mirrored, inverted in steps:
                    c, s = self._cos[k % self.m], self._sin[k % self.m] * (-1.0 if flip else 1.0)
                    g = Isometry(c, -s, s, c) @ g
                    if inverted:
                        g = Isometry(0.0, -self._e2r, 1.0, 0.0) @ g
                    flip ^= mirrored ^ inverted
                (x,), (y,) = g.apply_xy([p.x], [p.y])
        except DomainError as exc:
            raise RangeError("floats cannot carry a window this far out home") from exc
        raise RangeError(f"a window center did not settle in {_MAX_REFOLDS} folds")

    # -- the neighbourhood of (0, 1) -------------------------------------------

    def _grow(self, radius: float) -> None:
        """Generate every vertex within radius of (0, 1), ring by ring.

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
        found = [ring]
        while ring.size:
            rot = np.exp(2j * math.pi * turns / m)[:, None]
            tk = rot * ((ref - ring) / (ref - ring.conj()))
            cand = (ring - ring.conj() * tk) / (1.0 - tk)
            keep = (turns[:, None] >= first) & (
                cosh_distance_xy(cand.real, cand.imag, 0.0, 1.0) <= cosh_cap
            )
            ring, ref = cand[keep], np.broadcast_to(ring, cand.shape)[keep]
            first = 2 + np.broadcast_to(turns[:, None] == first, cand.shape)[keep]
            turns = np.arange(2, m - 2)
            found.append(ring)
        z = np.concatenate(found)
        cd = cosh_distance_xy(z.real, z.imag, 0.0, 1.0)
        order = np.argsort(cd, kind="stable")
        self._z, self._cd = z[order], cd[order]
        self._reach = radius

    # -- queries -------------------------------------------------------------

    def _centers(self, ball: BallSpec):
        """Coordinates of the vertices in the closed ball, carried by _home."""
        g, cx, cy = self._home(ball.center)
        cd = float(cosh_distance_xy(cx, cy, 0.0, 1.0))
        reach = math.acosh(max(cd, 1.0)) + ball.radius + 1e-9
        if reach > self._cap_radius:
            raise _too_many_disks(ball.radius)
        if reach > self._reach:
            self._grow(min(reach + math.log(2.0), self._cap_radius))
        z = self._z[: np.searchsorted(self._cd, math.cosh(reach), side="right")]
        near = cosh_distance_xy(z.real, z.imag, cx, cy) <= math.cosh(ball.radius)
        return g.inverse().apply_xy(z.real[near], z.imag[near])

    def covers(self, p: HPoint) -> bool:
        return bool(self.covers_xy(np.array([p.x]), np.array([p.y]))[0])

    def covers_xy(self, xs, ys):
        """Whether each point's folded image lies within r_m of (0, 1),
        folded and compared one _FOLD_BLOCK of points at a time."""
        xs = np.asarray(xs, dtype=float)
        x, y = xs.ravel(), np.asarray(ys, dtype=float).ravel()
        out = np.empty(x.size, dtype=bool)
        scale = 2.0 * math.cosh(self.disk_radius)
        for lo in range(0, x.size, _FOLD_BLOCK):
            _, fy, q = self._fold(x[lo : lo + _FOLD_BLOCK], y[lo : lo + _FOLD_BLOCK])
            # cosh d((x, y), (0, 1)) = (x^2 + y^2 + 1) / (2 y), compared in place
            q += 1.0
            fy *= scale
            np.less_equal(q, fy, out=out[lo : lo + q.size])
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
        self.label = f"moved({base.label})"
        self.disk_radius = getattr(base, "disk_radius", None)

    def covers(self, p: HPoint) -> bool:
        q = apply(self.g_inv, p)
        return bool(self.base.covers_xy(np.array([q.x]), np.array([q.y]))[0])

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
        x, y = self.g.apply_xy(*self.base._centers(pulled))
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
    boundary convention is half-open from below in both coordinates so
    the family is an exact partition.
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
    def y_bounds(self) -> tuple[float, float]:
        return (self.s, math.exp(self.log_s + 2.0))

    def area(self) -> float:
        """Closed-form hyperbolic area, independent of j and k."""
        return self.width_param * (1.0 - math.exp(-2.0))

    @classmethod
    def containing(cls, p: HPoint, family_offset: float = 0.0,
                   width_param: float = math.exp(0.5)) -> "BrickTile":
        """The unique family brick whose half-open box contains p."""
        j = math.floor((p.log_y - family_offset) / 2.0)
        s = math.exp(2.0 * j + family_offset)
        k = math.floor(p.x / (width_param * s))
        return cls(j=j, k=k, family_offset=family_offset, width_param=width_param)


class BrickRegion(Region):
    """Indicator region of one brick.

    The brick is the box {xa <= x < xb, log s <= log y < log s + 2}, so its
    area inside a ball is the box-in-ball quadrature of the regions module.
    """

    def __init__(self, tile: BrickTile):
        self.tile = tile

    def contains(self, p: HPoint) -> bool:
        t = self.tile
        if not (t.log_s <= p.log_y < t.log_s + 2.0):
            return False
        xa, xb = t.x_bounds
        return xa <= p.x < xb

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
        return _box_area_in_ball(ball.radius, ball.center, xa, xb, t.log_s, t.log_s + 2.0)

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

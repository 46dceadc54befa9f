"""Deterministic SVG rendering of packings, regions, and density curves.

Output is plain SVG text built by string assembly: no timestamps, no
randomness, fixed float formatting, so identical inputs give identical
bytes. Coordinates are half-plane coordinates (y up); the y-log option
plots (x, log y) instead, which straightens horocyclic structure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, UnsupportedOperationError
from .hgeom import BallSpec, polar_xy
from .packings import BrickRegion
from .regions import AnnulusRegionEuclid, HalfSpaceRegion, StripeRegion


_WIDTH = 640  # pixels
# directions of a disk outline's vertices, turning from straight up
_OUTLINE_THETA = 2.0 * np.pi * np.arange(64) / 64


def _fmt(x: float) -> str:
    return f"{x:.6g}"


class _Canvas:
    """Affine map from a world box (y up) to pixel coordinates (y down)."""

    def __init__(self, x0, x1, y0, y1, margin=20):
        if not (x1 > x0 and y1 > y0):
            raise DomainError("degenerate render window")
        self.x0, self.x1, self.y0, self.y1 = x0, x1, y0, y1
        self.scale = (_WIDTH - 2 * margin) / (x1 - x0)
        self.width = _WIDTH
        self.height = int(round(2 * margin + self.scale * (y1 - y0)))
        self.margin = margin

    def px(self, x):
        return self.margin + (x - self.x0) * self.scale

    def py(self, y):
        return self.height - self.margin - (y - self.y0) * self.scale

    def header(self):
        return (
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" '
            f'viewBox="0 0 {self.width} {self.height}">\n'
        )

    def frame(self):
        w = self.width - 2 * self.margin
        h = self.height - 2 * self.margin
        return (
            f'<rect class="frame" x="{self.margin}" y="{self.margin}" '
            f'width="{w}" height="{h}" fill="none" stroke="#333" '
            f'stroke-width="1"/>\n'
        )


def _window_box(window: BallSpec, y_log: bool):
    ec = window.euclid_form()
    x0, x1 = ec.h - ec.r, ec.h + ec.r
    if y_log:
        return x0, x1, math.log(ec.k_minus_r), math.log(ec.k + ec.r)
    return x0, x1, max(ec.k_minus_r, 0.0), ec.k + ec.r


def _path(points, close=True):
    parts = [f"M {_fmt(points[0][0])} {_fmt(points[0][1])}"]
    parts.extend(f"L {_fmt(x)} {_fmt(y)}" for x, y in points[1:])
    if close:
        parts.append("Z")
    return " ".join(parts)


def _disk_element(canvas, disk, y_log):
    if not y_log:
        ec = disk.euclid_form()
        return (
            f'<circle class="body" cx="{_fmt(canvas.px(ec.h))}" '
            f'cy="{_fmt(canvas.py(ec.k))}" r="{_fmt(ec.r * canvas.scale)}" '
            f'fill="#4477aa" fill-opacity="0.55" stroke="#223355" '
            f'stroke-width="0.8"/>\n'
        )
    xs, ys = polar_xy(disk.center.x, disk.center.y, disk.radius, _OUTLINE_THETA)
    pts = list(zip(canvas.px(xs), canvas.py(np.log(ys))))
    return (
        f'<path class="body" d="{_path(pts)}" fill="#4477aa" '
        f'fill-opacity="0.55" stroke="#223355" stroke-width="0.8"/>\n'
    )


def render_packing(packing, window: BallSpec, *, y_log: bool = False) -> str:
    """SVG of all bodies meeting the window ball, one element per body."""
    canvas = _Canvas(*_window_box(window, y_log))
    bodies = packing.bodies_in_ball(window)
    bodies = sorted(bodies, key=lambda d: (d.center.x, d.center.y, d.radius))
    out = [canvas.header(), canvas.frame()]
    out.extend(_disk_element(canvas, d, y_log) for d in bodies)
    out.append("</svg>\n")
    return "".join(out)


def _stripe_elements(canvas, W, y_log):
    # visible stripe bands, painted bottom-up with alternating fills
    lo_log = canvas.y0 if y_log else math.log(max(canvas.y0, 1e-300))
    hi_log = canvas.y1 if y_log else math.log(canvas.y1)
    j_lo = int(math.floor(lo_log / W - 0.5))
    j_hi = int(math.floor(hi_log / W - 0.5))
    parts = []
    for j in range(j_lo, j_hi + 1):
        band_lo, band_hi = (j + 0.5) * W, (j + 1.5) * W
        if not y_log:
            band_lo, band_hi = math.exp(band_lo), math.exp(band_hi)
        lo = max(band_lo, canvas.y0)
        hi = min(band_hi, canvas.y1)
        if hi <= lo:
            continue
        fill = "#333333" if j % 2 != 0 else "#eeeeee"
        parts.append(
            f'<rect class="stripe" x="{_fmt(canvas.px(canvas.x0))}" '
            f'y="{_fmt(canvas.py(hi))}" '
            f'width="{_fmt((canvas.x1 - canvas.x0) * canvas.scale)}" '
            f'height="{_fmt((hi - lo) * canvas.scale)}" '
            f'fill="{fill}" fill-opacity="0.8"/>\n'
        )
    return parts


def _halfspace_elements(canvas, region):
    x = canvas.px(region.geodesic.x0)
    pts = [(x, canvas.py(y)) for y in np.linspace(canvas.y0, canvas.y1, 33)]
    return [
        f'<path class="boundary" d="{_path(pts, close=False)}" fill="none" '
        f'stroke="#aa3311" stroke-width="1.5"/>\n'
    ]


def _annulus_elements(canvas):
    # Euclidean mode: alternating filled disks, largest first
    r_max = max(abs(canvas.x0), abs(canvas.x1), abs(canvas.y0), abs(canvas.y1))
    j_hi = max(2, int(math.ceil(math.log2(max(r_max, 2.0)))))
    parts = []
    for j in range(j_hi, 0, -1):
        fill = "#333333" if (j >= 2 and j % 2 == 0) else "#eeeeee"
        parts.append(
            f'<circle class="annulus" cx="{_fmt(canvas.px(0.0))}" '
            f'cy="{_fmt(canvas.py(0.0))}" r="{_fmt(2.0**j * canvas.scale)}" '
            f'fill="{fill}" fill-opacity="0.8"/>\n'
        )
    return parts


def _brick_elements(canvas, region, y_log):
    (xa, xb), (ya, yb) = region.tile.x_bounds, region.tile.y_bounds
    if y_log:
        ya, yb = math.log(ya), math.log(yb)
    xa, xb = max(xa, canvas.x0), min(xb, canvas.x1)
    ya, yb = max(ya, canvas.y0), min(yb, canvas.y1)
    if xb <= xa or yb <= ya:
        return []
    return [
        f'<rect class="brick" x="{_fmt(canvas.px(xa))}" '
        f'y="{_fmt(canvas.py(yb))}" '
        f'width="{_fmt((xb - xa) * canvas.scale)}" '
        f'height="{_fmt((yb - ya) * canvas.scale)}" '
        f'fill="#779944" fill-opacity="0.5" stroke="#445522" '
        f'stroke-width="1"/>\n'
    ]


def render_region(region, window: BallSpec, *, y_log: bool = False) -> str:
    """SVG of a region clipped to the window: stripes as alternating
    bands, half-spaces as their boundary geodesic, bricks as their
    rectangle, Euclidean dyadic annuli as circles in [-R, R]^2, R = window.radius."""
    if isinstance(region, AnnulusRegionEuclid):
        R = window.radius
        canvas = _Canvas(-R, R, -R, R)
    else:
        canvas = _Canvas(*_window_box(window, y_log))

    if isinstance(region, StripeRegion):
        parts = _stripe_elements(canvas, region.W, y_log)
    elif isinstance(region, HalfSpaceRegion):
        parts = _halfspace_elements(canvas, region)
    elif isinstance(region, AnnulusRegionEuclid):
        parts = _annulus_elements(canvas)
    elif isinstance(region, BrickRegion):
        parts = _brick_elements(canvas, region, y_log)
    else:
        raise UnsupportedOperationError(
            f"no renderer for {type(region).__name__}"
        )
    return "".join([canvas.header(), canvas.frame(), *parts, "</svg>\n"])

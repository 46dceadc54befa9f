"""Command-line interface: gen, density, voronoi, render, verify.

Every command writes deterministic bytes for a fixed argument list:
JSON is dumped with sorted keys, CSV uses fixed float formatting, and
SVG is assembled from formatted strings. Identical invocations produce
identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .density import annulus_density_curve, density_curve
from .errors import (
    DomainError,
    RangeError,
    SaturationError,
    UnboundedCellError,
    UnsupportedOperationError,
)
from .hgeom import BallSpec, Geodesic, HPoint
from .packings import (
    BoroczkyPacking,
    BrickTile,
    StripeModel,
    TightPacking,
    brick_region,
)
from .regions import AnnulusRegionEuclid, HalfSpaceRegion, SamplePlan
from .svg import render_packing, render_region
from .voronoi import packing_cell

KINDS = ("stripe", "halfspace", "annulus", "boroczky", "tight", "bricks")

_USER_ERRORS = (
    DomainError,
    RangeError,
    UnboundedCellError,
    UnsupportedOperationError,
)


def _parse_center(text: str) -> HPoint:
    try:
        x, y = (float(v) for v in text.split(","))
    except ValueError:
        raise DomainError(f"--center expects 'x,y', got {text!r}") from None
    if not (math.isfinite(x) and math.isfinite(y)):
        raise DomainError(f"--center needs finite coordinates, got {text!r}")
    return HPoint(x, y)


def _parse_radii(text: str):
    try:
        radii = [float(v) for v in text.split(",") if v.strip() != ""]
    except ValueError:
        raise DomainError(f"--radii expects comma-separated numbers, got {text!r}")
    if not radii:
        raise DomainError("--radii is empty")
    return radii


def _build_target(args):
    """Instantiate the requested packing or region with its descriptor."""
    kind = args.kind
    if kind == "stripe":
        params = {"W": args.W}
        return StripeModel(args.W), params, "uhp", False
    if kind == "halfspace":
        params = {"boundary": "x=0", "sign": 1}
        return HalfSpaceRegion(Geodesic.vertical(0.0)), params, "uhp", False
    if kind == "annulus":
        params = {"base": 2.0, "black": "even exponents >= 2"}
        return AnnulusRegionEuclid(), params, "euclid", False
    if kind == "boroczky":
        packing = BoroczkyPacking(args.rho)
        params = {"rho": packing.disk_radius}
        return packing, params, "uhp", True
    if kind == "tight":
        packing = TightPacking(args.m)
        params = {"m": args.m, "rho": packing.disk_radius}
        return packing, params, "uhp", True
    if kind == "bricks":
        if args.offset not in (0, 1):
            raise DomainError(f"--offset must be 0 or 1, got {args.offset}")
        width = math.exp(0.5 + args.offset)
        tile = BrickTile(family_offset=float(args.offset), width_param=width)
        params = {"offset": args.offset, "width_param": width}
        return brick_region(tile), params, "uhp", False
    raise DomainError(f"unknown kind {kind!r}")


def _check_euclidean(args):
    """The annulus region is the one Euclidean target."""
    if (args.kind == "annulus") != args.euclidean:
        raise DomainError("--kind annulus needs --euclidean, and every other kind refuses it")


def _emit(text: str, out_path):
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    _check_euclidean(args)
    target, params, model, has_bodies = _build_target(args)
    doc = {
        "version": "hypack/1",
        "model": model,
        "kind": args.kind,
        "params": params,
    }
    if has_bodies:
        center = _parse_center(args.center)
        window = BallSpec(center, args.R)
        disks = target.bodies_in_ball(window)
        disks = sorted(disks, key=lambda d: (d.center.x, d.center.y))
        doc["bodies"] = [
            {"H": d.center.x, "K": d.center.y, "R": d.radius} for d in disks
        ]
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_density(args) -> int:
    radii = _parse_radii(args.radii)
    _check_euclidean(args)
    if args.kind == "annulus":
        curve = annulus_density_curve(radii)
    else:
        target, _, _, _ = _build_target(args)
        center = _parse_center(args.center)
        plan = SamplePlan(seed=args.seed, n=args.samples)
        curve = density_curve(target, center, radii, plan)
    _emit(curve.to_csv(), args.out)
    return 0


def _cmd_voronoi(args) -> int:
    if args.kind != "tight":
        raise UnsupportedOperationError(
            f"dirichlet cells are only generated for tight packings, "
            f"not {args.kind!r}"
        )
    _check_euclidean(args)
    packing = TightPacking(args.m)
    site = _parse_center(args.center)
    cell = packing_cell(packing, site)
    doc = {
        "site": {"x": cell.site.x, "y": cell.site.y},
        "vertices": [{"x": v.x, "y": v.y} for v in cell.polygon.vertices],
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_render(args) -> int:
    _check_euclidean(args)
    target, _, _, has_bodies = _build_target(args)
    center = _parse_center(args.center)
    window = BallSpec(center, args.R)
    if has_bodies:
        svg = render_packing(target, window, y_log=args.y_log)
    else:
        svg = render_region(target, window, y_log=args.y_log)
    _emit(svg, args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import format_report, run_criteria

    ids = None
    if args.criteria:
        ids = [c.strip().upper() for c in args.criteria.split(",") if c.strip()]
    results = run_criteria(ids, negative_control=args.negative_control)
    text, doc = format_report(results)
    sys.stdout.write(text)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 0 if all(r.passed for r in results) else 1


def _add_common(sub):
    sub.add_argument("--kind", required=True, choices=KINDS)
    sub.add_argument("--W", type=float, default=5.0, help="stripe width")
    sub.add_argument("--m", type=int, default=7, help="disks per vertex cycle")
    sub.add_argument("--rho", type=float, default=None, help="disk radius")
    sub.add_argument("--offset", type=int, default=0, help="brick family offset")
    sub.add_argument("--center", default="0,1", help="x,y half-plane point")
    sub.add_argument("--euclidean", action="store_true",
                     help="interpret the target in the Euclidean plane")
    sub.add_argument("--out", default=None, help="output file (default stdout)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hypack",
        description="hyperbolic packings: generation, densities, cells, plots",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    gen = subs.add_parser("gen", help="emit a packing/region descriptor")
    _add_common(gen)
    gen.add_argument("--R", type=float, default=3.0, help="window ball radius")

    dens = subs.add_parser("density", help="density curve as CSV")
    _add_common(dens)
    dens.add_argument("--radii", required=True, help="comma-separated radii")
    dens.add_argument("--seed", type=int, default=0)
    dens.add_argument("--samples", type=int, default=20000)

    vor = subs.add_parser("voronoi", help="dirichlet cell of a packing site")
    _add_common(vor)

    rend = subs.add_parser("render", help="SVG picture of a window")
    _add_common(rend)
    rend.add_argument("--R", type=float, default=3.0, help="window ball radius")
    rend.add_argument("--y-log", dest="y_log", action="store_true",
                      help="plot (x, log y) coordinates")

    ver = subs.add_parser("verify", help="run acceptance criteria")
    ver.add_argument("--criteria", default=None,
                     help="comma-separated subset, e.g. A1,A3")
    ver.add_argument("--negative-control", action="store_true",
                     help="tamper with measurements to prove failures are caught")
    ver.add_argument("--json", default=None, help="also write a JSON report")
    return parser


_COMMANDS = {
    "gen": _cmd_gen,
    "density": _cmd_density,
    "voronoi": _cmd_voronoi,
    "render": _cmd_render,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except SaturationError as exc:
        print(f"error: {exc} (maximum {exc.maximum:.12g})", file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""In-memory spans around calls into hypack's public API.

The tracer wraps public functions and methods from outside the package:
a function is replaced wherever a module binds it (so ``from .regions
import mc_area_fraction`` inside ``hypack.density`` is wrapped too), a
method is replaced on its class. Each call records one span: name,
start, end, parent span, growth of the process's peak RSS, and the
counters its layer needs (points queried, centers returned, bytes
written). Spans stay in memory until the run ends. ``uninstall`` puts
every original back, so untraced iterations run the untouched code.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
import time

import numpy as np

_NO_ATTR = object()


def maxrss_mb() -> float:
    """Peak resident set size of this process, in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


class Span:
    __slots__ = ("name", "t0", "t1", "parent", "rss_mb", "info")

    def __init__(self, name, parent, info):
        self.name = name
        self.parent = parent
        self.info = info
        self.t0 = self.t1 = 0.0
        self.rss_mb = 0.0

    @property
    def seconds(self) -> float:
        return self.t1 - self.t0


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self.missing: list[str] = []

    # -- recording ----------------------------------------------------------

    def call(self, name, fn, args, kwargs, before, after):
        parent = self._stack[-1] if self._stack else -1
        info = before(self, parent, args, kwargs) if before else {}
        span = Span(name, parent, info)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        rss0 = maxrss_mb()
        span.t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            span.t1 = time.perf_counter()
            span.rss_mb = maxrss_mb() - rss0
            self._stack.pop()
        if after:
            after(info, args, kwargs, out)
        return out

    def enclosing(self, index, name):
        """The nearest span named ``name`` at or above span ``index``."""
        while index >= 0:
            span = self.spans[index]
            if span.name == name:
                return span
            index = span.parent
        return None

    # -- patching -----------------------------------------------------------

    def _wrapper(self, name, fn, before, after):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, before, after)

        return traced

    def wrap_function(self, module, attr, name, before=None, after=None):
        """Wrap ``module.attr`` in every hypack module that binds the same object."""
        fn = getattr(module, attr, None)
        if fn is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        traced = self._wrapper(name, fn, before, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "hypack" or mod_name.startswith("hypack.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is fn:
                    self._patched.append((mod, key, fn))
                    setattr(mod, key, traced)

    def wrap_method(self, cls, attr, name, before=None, after=None):
        """Wrap ``cls.attr``, inherited or defined on the class itself."""
        if cls is None or getattr(cls, attr, None) is None:
            owner = getattr(cls, "__name__", "?")
            self.missing.append(f"{owner}.{attr}")
            return
        own = cls.__dict__.get(attr, _NO_ATTR)
        self._patched.append((cls, attr, own))
        setattr(cls, attr, self._wrapper(name, getattr(cls, attr), before, after))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            if original is _NO_ATTR:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patched.clear()

    # -- output -------------------------------------------------------------

    def write_jsonl(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, s in enumerate(self.spans):
                rec = {
                    "id": i, "name": s.name, "parent": s.parent,
                    "t0": s.t0, "t1": s.t1, "rss_growth_mb": s.rss_mb,
                    "info": s.info,
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")


# --------------------------------------------------------------------------
# what is wrapped, and the counters each layer records


def _points(arg_index):
    def before(tracer, parent, args, kwargs):
        return {"points": int(np.size(args[arg_index]))}
    return before


def _plan_points(plan_index):
    def before(tracer, parent, args, kwargs):
        plan = args[plan_index] if len(args) > plan_index else kwargs["plan"]
        return {"points": int(plan.n)}
    return before


def _tight_covers(tracer, parent, args, kwargs):
    # bin by the radius of the sampled ball this query serves, if any
    info = _points(1)(tracer, parent, args, kwargs)
    mc = tracer.enclosing(parent, "regions.mc_area_fraction")
    if mc is not None:
        info["radius"] = mc.info["radius"]
    return info


def _mc_before(tracer, parent, args, kwargs):
    ball = args[1] if len(args) > 1 else kwargs["ball"]
    plan = args[2] if len(args) > 2 else kwargs["plan"]
    return {"radius": float(ball.radius), "points": int(plan.n)}


def _count_result(info, args, kwargs, out):
    info["count"] = len(out)


def _svg_bytes(info, args, kwargs, out):
    info["bytes"] = len(out.encode("utf-8"))


def _hausdorff_pairs(tracer, parent, args, kwargs):
    return {"pairs": int(len(args[0])) * int(len(args[1]))}


def _truncate_points(info, args, kwargs, out):
    info["level_points"] = [int(len(level)) for level in out.levels]


def _cli_command(tracer, parent, args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else "?"}


def install(tracer: Tracer, hp) -> None:
    """Wrap the public entry points of each hypack module in spans."""
    from hypack import cli, density, pspace, regions, svg, voronoi

    wm, wf = tracer.wrap_method, tracer.wrap_function
    wm(hp.TightPacking, "covers_xy", "packings.tight.covers_xy", _tight_covers)
    wm(hp.TightPacking, "centers_in_ball", "packings.tight.centers_in_ball",
       after=_count_result)
    wm(hp.TightPacking, "bodies_in_ball", "packings.tight.bodies_in_ball",
       after=_count_result)
    wm(hp.BoroczkyPacking, "covers_xy", "packings.boroczky.covers_xy", _points(1))
    wm(hp.BoroczkyPacking, "bodies_in_ball", "packings.boroczky.bodies_in_ball",
       after=_count_result)
    wm(hp.StripeModel, "covers_xy", "packings.stripe.covers_xy", _points(1))
    wm(hp.BrickRegion, "covers_xy", "packings.bricks.covers_xy", _points(1))
    wm(hp.TransformedPacking, "covers_xy", "packings.transformed.covers_xy",
       _points(1))
    wm(hp.Isometry, "apply_xy", "hgeom.isometry.apply_xy", _points(1))

    wf(regions, "sample_ball_uniform", "regions.sample_ball_uniform",
       _plan_points(1))
    wm(hp.PolygonRegion, "sample_uniform", "regions.polygon.sample_uniform",
       _plan_points(1))
    wf(regions, "mc_area_fraction", "regions.mc_area_fraction", _mc_before)
    wf(regions, "quad_black_fraction", "regions.quad")
    wf(regions, "quad_stripe_area", "regions.quad")
    for cls in (hp.HalfSpaceRegion, hp.StripeRegion, hp.StripeModel,
                hp.BrickRegion, hp.FullPlane, hp.EmptyRegion):
        wm(cls, "exact_area_in_ball", "regions.quad")

    wf(voronoi, "packing_cell", "voronoi.packing_cell")
    wf(density, "density_curve", "density.density_curve")
    wf(density, "mass_transport_check", "density.mass_transport_check")
    wf(density, "tile_density", "density.tile_density")

    wf(pspace, "truncate", "pspace.truncate", after=_truncate_points)
    wf(pspace, "hausdorff_distance", "pspace.hausdorff_distance", _hausdorff_pairs)
    wf(pspace, "packing_distance", "pspace.packing_distance")

    wf(svg, "render_packing", "svg.render_packing", after=_svg_bytes)
    wf(svg, "render_region", "svg.render_region", after=_svg_bytes)
    wf(cli, "main", "cli.main", _cli_command)


# --------------------------------------------------------------------------
# per-layer metrics from the spans of the traced iterations

CLI_COMMANDS = ("gen", "density", "voronoi", "render")
RSS_SPANS = (
    "packings.tight.covers_xy",
    "packings.tight.centers_in_ball",
    "packings.tight.bodies_in_ball",
    "regions.polygon.sample_uniform",
    "density.mass_transport_check",
    "pspace.truncate",
    "pspace.hausdorff_distance",
    "cli.main",
)


def _tight_bin(radius):
    if radius is None:
        return None
    if radius <= 4.0:
        return "R4"
    if radius <= 8.0:
        return "R8"
    return "R12"


def layer_metrics(spans, iterations: int) -> dict:
    """Per-iteration layer metrics; a layer the workload never reaches reads 0.

    Times and counts sum the outermost span of each name (a quadrature
    call nested in another quadrature call is not counted twice), then
    divide by the number of traced iterations. Self time subtracts the
    time covered by a span's direct children. RSS growth is summed over
    the run, since the process's peak only rises once.
    """
    total_s, calls, points, rss = {}, {}, {}, {}
    self_s, counts, bins = {}, {}, {}
    child_s = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_s[s.parent] += s.seconds
    for i, s in enumerate(spans):
        self_s[s.name] = self_s.get(s.name, 0.0) + s.seconds - child_s[i]
        p, nested = s.parent, False
        while p >= 0:
            if spans[p].name == s.name:
                nested = True
                break
            p = spans[p].parent
        if nested:
            continue
        total_s[s.name] = total_s.get(s.name, 0.0) + s.seconds
        calls[s.name] = calls.get(s.name, 0) + 1
        rss[s.name] = rss.get(s.name, 0.0) + s.rss_mb
        if "points" in s.info:
            points[s.name] = points.get(s.name, 0) + s.info["points"]
        if s.name == "packings.tight.covers_xy":
            key = _tight_bin(s.info.get("radius"))
            if key:
                n, t = bins.get(key, (0, 0.0))
                bins[key] = (n + s.info["points"], t + s.seconds)
        for key in ("count", "bytes", "pairs"):
            if key in s.info:
                counts[(s.name, key)] = counts.get((s.name, key), 0) + s.info[key]
        if "level_points" in s.info:
            for k, n in enumerate(s.info["level_points"][:2], start=1):
                counts[(s.name, f"k{k}")] = counts.get((s.name, f"k{k}"), 0) + n
        if "command" in s.info:
            key = (s.name, "s." + s.info["command"])
            counts[key] = counts.get(key, 0.0) + s.seconds

    it = float(iterations)

    def per_it(value):
        return value / it

    def rate(name):
        t = total_s.get(name, 0.0)
        return points.get(name, 0) / t / 1e6 if t > 0 else 0.0

    def ms_per_call(name):
        n = calls.get(name, 0)
        return 1e3 * total_s[name] / n if n else 0.0

    m = {}

    def put(name, value, unit):
        m[name] = {"value": value, "unit": unit}

    put("packings.tight.centers_in_ball.centers",
        per_it(counts.get(("packings.tight.centers_in_ball", "count"), 0)), "count")
    for key in ("R4", "R8", "R12"):
        n, t = bins.get(key, (0, 0.0))
        put(f"packings.tight.covers_xy.mpts_per_s.{key}",
            n / t / 1e6 if t > 0 else 0.0, "Mpt/s")
    for fam in ("boroczky", "stripe", "bricks"):
        name = f"packings.{fam}.covers_xy"
        put(f"{name}.mpts_per_s", rate(name), "Mpt/s")
    for name in ("packings.tight.centers_in_ball", "packings.tight.covers_xy",
                 "packings.tight.bodies_in_ball", "packings.boroczky.bodies_in_ball",
                 "packings.transformed.covers_xy", "regions.polygon.sample_uniform",
                 "regions.mc_area_fraction", "pspace.truncate",
                 "pspace.hausdorff_distance", "pspace.packing_distance",
                 "svg.render_packing", "svg.render_region"):
        put(f"{name}.s", per_it(total_s.get(name, 0.0)), "s")
    put("hgeom.isometry.apply_xy.mpts_per_s", rate("hgeom.isometry.apply_xy"), "Mpt/s")
    put("regions.sample_ball_uniform.mpts_per_s",
        rate("regions.sample_ball_uniform"), "Mpt/s")
    for name in ("regions.mc_area_fraction", "regions.quad", "voronoi.packing_cell",
                 "pspace.hausdorff_distance", "cli.main"):
        put(f"{name}.calls", per_it(calls.get(name, 0)), "count")
    put("regions.quad.ms_per_call", ms_per_call("regions.quad"), "ms")
    put("voronoi.packing_cell.ms_per_cell", ms_per_call("voronoi.packing_cell"), "ms")
    for name in ("density.density_curve", "density.mass_transport_check",
                 "density.tile_density"):
        put(f"{name}.self_s", per_it(self_s.get(name, 0.0)), "s")
    for k in ("k1", "k2"):
        put(f"pspace.truncate.points.{k}",
            per_it(counts.get(("pspace.truncate", k), 0)), "count")
    put("pspace.hausdorff_distance.point_pairs",
        per_it(counts.get(("pspace.hausdorff_distance", "pairs"), 0)), "count")
    for name in ("svg.render_packing", "svg.render_region"):
        put(f"{name}.bytes", per_it(counts.get((name, "bytes"), 0)), "bytes")
    for cmd in CLI_COMMANDS:
        put(f"cli.main.s.{cmd}", per_it(counts.get(("cli.main", "s." + cmd), 0.0)), "s")
    for name in RSS_SPANS:  # the peak grows once per run: a total, not per iteration
        put(f"{name}.rss_growth_mb", rss.get(name, 0.0), "MB")
    return m

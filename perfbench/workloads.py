"""The three seeded workloads: deep, shallow and metric.

Each workload has two halves. ``inputs(seed)`` turns the workload seed
into plain numbers and strings (Monte Carlo seeds, centres, isometry
parameters); it calls nothing in hypack. ``run(hp, inp, scratch)``
builds every packing afresh from those inputs, calls hypack's public
API (the README sketch, the CLI and the names ``hypack.verify``
imports), and returns one ``(name, ok)`` pair per checked result. The
size of the work is fixed; the seed moves only where it happens.

The oracles are independent of the code under test where that is
possible: D(m) is evaluated here from its closed form, the stripe and
half-plane Monte Carlo estimates are held against quadrature, and the
metric is held to its axioms.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import xml.etree.ElementTree as ET

# D(7) = (3 csc(pi/7) - 6) / (7 - 6), evaluated independently of hypack
D7 = 3.0 / math.sin(math.pi / 7.0) - 6.0
TRANSPORT_TARGET = 0.9143


def _seed(rng: random.Random) -> int:
    return rng.randrange(1, 2**31)


def _polar(rho: float, phi: float):
    """The point at distance rho from (0, 1) in direction phi, as (x, y).

    In the disk model that point is tanh(rho / 2) e^{i phi}; the map
    w -> i (1 + w) / (1 - w) carries it to the half-plane.
    """
    w = math.tanh(0.5 * rho) * complex(math.cos(phi), math.sin(phi))
    z = 1j * (1.0 + w) / (1.0 - w)
    return z.real, z.imag


def _center(rng: random.Random, rho: float = 0.5):
    """A point at distance rho from (0, 1), in a seeded direction.

    The distance is fixed so that the seed moves where the work happens
    but not how far from the origin the packing must be generated.
    """
    return _polar(rho, rng.uniform(0.0, 2.0 * math.pi))


def _tight7_vertex(k: int):
    """Vertex k of the {3,7} packing: (0, 1) for k = 0, else its k-th neighbour.

    The neighbours sit at distance 2 r_7, cosh r_7 = 1 / (2 sin(pi/7)), at
    angles 2 pi k / 7 about (0, 1).
    """
    if k == 0:
        return 0.0, 1.0
    r7 = math.acosh(1.0 / (2.0 * math.sin(math.pi / 7.0)))
    return _polar(2.0 * r7, 2.0 * math.pi * k / 7.0)


def _xy(p) -> str:
    return f"{p[0]!r},{p[1]!r}"


# --------------------------------------------------------------------------
# deep: the A8/A9 computation on a fresh {3,7} packing

# f_R at R = 12 generates the packing to 12.55. The transport's deepest
# cell window reaches the window radius + 0.62 (the cell circumradius)
# + 4.91 (the cell's search window), which stays inside 12.55 for a
# window of radius 7, so how deep the packing grows, and with it the
# time and the memory, does not depend on which cells the seed hits.
DEEP_RADII = (6.0, 8.0, 10.0, 12.0)
DEEP_TRANSPORT_RADIUS = 7.0
DEEP_SAMPLES = 100_000
DEEP_TRANSPORT_SAMPLES = 256


def deep_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "f_seeds": [_seed(rng) for _ in DEEP_RADII],
        "transport_seed": _seed(rng),
    }


def deep_run(hp, inp: dict, scratch: str) -> list:
    packing = hp.TightPacking(7)
    estimates = [
        hp.f_R_average(packing, r, hp.SamplePlan(seed=s, n=DEEP_SAMPLES))
        for r, s in zip(DEEP_RADII, inp["f_seeds"])
    ]
    mean = hp.mass_transport_check(
        packing,
        hp.BallSpec(hp.ORIGIN, DEEP_TRANSPORT_RADIUS),
        hp.SamplePlan(seed=inp["transport_seed"], n=DEEP_TRANSPORT_SAMPLES),
    )
    return [
        ("deep.f12_vs_D7", abs(estimates[-1].fraction - D7) <= 0.02),
        ("deep.transport_mean", abs(mean - TRANSPORT_TARGET) <= 0.01),
    ]


# --------------------------------------------------------------------------
# shallow: many small queries at R <= 8 across every family

# Each trial compares two independent Monte Carlo curves at three radii,
# so one run makes 12 z-tests of a true null, and a bound of 4 fails a
# correct program now and then: seed 1754750222 gave z = 4.34, and two
# of seeds 2000-2199 exceed 4 at these sample counts, while 10^6 samples
# per side agree within 1.2 standard errors on each of those isometries.
# A bound of 5.5 makes a false alarm about one seed in 10^6 (normal tail
# with the binomial's skew). Doubling the samples keeps the smallest
# bias it catches, 5.5 * sqrt(2) * se = 0.017, no larger than before
# (4 * sqrt(2) * se at 8000 samples).
INVARIANCE_TRIALS = 4
INVARIANCE_RADII = (2.0, 3.0, 4.0)
INVARIANCE_SAMPLES = 16_000
INVARIANCE_Z = 5.5


def shallow_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    trials = []
    for _ in range(INVARIANCE_TRIALS):
        trials.append({
            "t": rng.uniform(-0.5, 0.5),
            "theta": rng.uniform(0.0, 2.0 * math.pi),
            "log_lam": rng.uniform(-0.3, 0.3),
            "seeds": (_seed(rng), _seed(rng)),
        })
    return {
        "cli_center": _xy(_center(rng)),
        "cli_vertex": _xy(_tight7_vertex(rng.randrange(8))),
        "cli_seed": _seed(rng),
        "a1_seed": _seed(rng),
        "trials": trials,
        "stripe_W": rng.uniform(4.0, 6.0),
        "stripe_center": _center(rng),
        "stripe_seed": _seed(rng),
        "halfspace_t": rng.uniform(0.0, 2.0),
        "halfspace_seed": _seed(rng),
        "boroczky_center": _center(rng),
        "brick_seeds": (_seed(rng), _seed(rng), _seed(rng)),
        "brick_center": (rng.uniform(0.2, 1.4), math.exp(rng.uniform(0.5, 1.5))),
        "render_center": _center(rng),
    }


def _cli_commands(inp: dict) -> list:
    c, seed = inp["cli_center"], str(inp["cli_seed"])
    return [
        (["gen", "--kind", "tight", "--m", "7", "--R", "3", "--center=" + c], "json"),
        (["gen", "--kind", "boroczky", "--R", "4", "--center=" + c], "json"),
        (["gen", "--kind", "stripe", "--W", "5"], "json"),
        (["density", "--kind", "stripe", "--W", "5", "--radii", "2.5,7.5,12.5,17.5",
          "--center=" + c], "csv"),
        (["density", "--kind", "tight", "--m", "7", "--radii", "4,6,8",
          "--samples", "50000", "--seed", seed, "--center=" + c], "csv"),
        (["density", "--kind", "annulus", "--euclidean", "--radii", "10,11,12"], "csv"),
        (["voronoi", "--kind", "tight", "--m", "7", "--center=" + inp["cli_vertex"]],
         "json"),
        (["render", "--kind", "boroczky", "--R", "4", "--y-log", "--center=" + c], "svg"),
        (["render", "--kind", "annulus", "--euclidean", "--R", "8"], "svg"),
    ]


def _parses(text: str, kind: str) -> bool:
    try:
        if kind == "json":
            doc = json.loads(text)
            return isinstance(doc, dict) and bool(doc)
        if kind == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            return (
                len(rows) >= 2
                and rows[0] == ["radius", "fraction", "std_error", "samples", "method"]
                and all(0.0 <= float(row[1]) <= 1.0 for row in rows[1:])
            )
        return ET.fromstring(text).tag.endswith("svg")
    except (ValueError, IndexError, ET.ParseError):
        return False


def _agrees(mc, exact: float) -> bool:
    """Monte Carlo estimate within 5 standard errors of an exact fraction."""
    return abs(mc.fraction - exact) <= 5.0 * mc.std_error + 1e-12


def shallow_run(hp, inp: dict, scratch: str) -> list:
    from hypack import cli

    checks = []
    out = os.path.join(scratch, "cli.out")
    for argv, kind in _cli_commands(inp):
        if os.path.exists(out):
            os.remove(out)
        try:
            code = cli.main(argv + ["--out", out])
        except SystemExit as exc:  # argparse rejects the argument list
            code = exc.code
        ok = code == 0 and os.path.exists(out)
        if ok:
            with open(out, encoding="utf-8") as fh:
                ok = _parses(fh.read(), kind)
        checks.append((f"shallow.cli.{argv[0]}.{argv[2]}", ok))

    # A1: Monte Carlo over the fundamental triangle
    packing = hp.TightPacking(7)
    region = hp.PolygonRegion(packing.fundamental_domain.polygon)
    xs, ys = region.sample_uniform(hp.SamplePlan(seed=inp["a1_seed"], n=1_000_000))
    mc = float(packing.covers_xy(xs, ys).mean())
    del xs, ys
    checks.append(("shallow.a1_mc_vs_D7", abs(mc - D7) <= 3e-3))

    # A11: density curves are invariant under joint isometries
    for trial in inp["trials"]:
        g = (
            hp.Isometry.translation(trial["t"])
            @ hp.Isometry.rotation(trial["theta"], hp.ORIGIN)
            @ hp.Isometry.dilation(math.exp(trial["log_lam"]))
        )
        moved = hp.TransformedPacking(g, packing)
        sa, sb = trial["seeds"]
        base = hp.density_curve(packing, hp.ORIGIN, INVARIANCE_RADII,
                                hp.SamplePlan(seed=sa, n=INVARIANCE_SAMPLES))
        image = hp.density_curve(moved, hp.apply(g, hp.ORIGIN), INVARIANCE_RADII,
                                 hp.SamplePlan(seed=sb, n=INVARIANCE_SAMPLES))
        worst = max(
            abs(a.fraction - b.fraction) / math.hypot(a.std_error, b.std_error)
            for a, b in zip(base.points, image.points)
        )
        checks.append(("shallow.invariance_z", worst <= INVARIANCE_Z))

    # A2: the stripe oscillation, by quadrature, and stripe Monte Carlo
    W = inp["stripe_W"]
    f_lo = hp.quad_black_fraction(W, 6.5 * W)
    f_hi = hp.quad_black_fraction(W, 7.5 * W)
    checks.append(("shallow.stripe_6.5W", f_lo >= 2.0 / 3.0))
    checks.append(("shallow.stripe_7.5W", f_hi <= 1.0 / 3.0))
    stripe = hp.StripeModel(W)
    ball = hp.BallSpec(hp.HPoint(*inp["stripe_center"]), 8.0)
    est = hp.mc_area_fraction(stripe, ball, hp.SamplePlan(seed=inp["stripe_seed"],
                                                          n=200_000))
    exact = hp.density_curve(stripe, ball.center, [8.0], hp.SamplePlan(seed=0, n=1))
    checks.append(("shallow.stripe_mc_vs_quad", _agrees(est, exact.points[0].fraction)))

    # A5: a half-plane, by quadrature and by Monte Carlo
    t = inp["halfspace_t"]
    half = hp.HalfSpaceRegion(hp.Geodesic.vertical(0.0), sign=+1)
    center = hp.HPoint(math.tanh(t), 1.0 / math.cosh(t))
    quad = hp.density_curve(half, center, [2.0, 4.0, 6.0, 8.0],
                            hp.SamplePlan(seed=0, n=1))
    est = hp.mc_area_fraction(half, hp.BallSpec(center, 8.0),
                              hp.SamplePlan(seed=inp["halfspace_seed"], n=200_000))
    checks.append(("shallow.halfspace_mc_vs_quad",
                   quad.method == "quadrature" and _agrees(est, quad.points[-1].fraction)))

    # A6: the Boroczky window is tangent within rows and never overlaps
    boro = hp.BoroczkyPacking()
    disks = boro.bodies_in_ball(hp.BallSpec(hp.HPoint(*inp["boroczky_center"]), 6.0))
    gap = hp.pairwise_min_gap(disks)
    checks.append(("shallow.boroczky_gap", len(disks) >= 500 and abs(gap) <= 1e-9))

    # A7: brick families measure the same packing as d and d/e; brick MC
    s0, s1, s2 = inp["brick_seeds"]
    d0 = hp.tile_density(boro, hp.BrickTile(), hp.SamplePlan(seed=s0, n=400_000))
    d1 = hp.tile_density(
        boro,
        hp.BrickTile(family_offset=1.0, width_param=math.exp(1.5)),
        hp.SamplePlan(seed=s1, n=400_000),
    )
    checks.append(("shallow.brick_ratio", abs(d0.fraction / d1.fraction - math.e) <= 0.05))
    brick = hp.brick_region(hp.BrickTile())
    ball = hp.BallSpec(hp.HPoint(*inp["brick_center"]), 2.0)
    est = hp.mc_area_fraction(brick, ball, hp.SamplePlan(seed=s2, n=200_000))
    exact = brick.exact_area_in_ball(ball) / hp.ball_area(2.0)
    checks.append(("shallow.brick_mc_vs_quad", _agrees(est, exact)))

    # SVG renders of a packing and of regions
    rc = hp.BallSpec(hp.HPoint(*inp["render_center"]), 3.0)
    for name, svg in (("tight", hp.render_packing(packing, rc)),
                      ("stripe", hp.render_region(stripe, rc, y_log=True)),
                      ("brick", hp.render_region(brick, rc))):
        checks.append((f"shallow.svg.{name}", _parses(svg, "svg")))
    return checks


# --------------------------------------------------------------------------
# metric: the packing metric over a pool of packings and their images


def metric_inputs(seed: int) -> dict:
    rng = random.Random(seed)
    return {
        "tight_shift": rng.uniform(0.2, 0.5),
        "tight_turn": (rng.uniform(0.5, 1.5), _center(rng, 0.3)),
        "boroczky_log_lam": rng.uniform(0.2, 0.4),
    }


def metric_run(hp, inp: dict, scratch: str) -> list:
    tight7, tight8 = hp.TightPacking(7), hp.TightPacking(8)
    boro = hp.BoroczkyPacking()
    theta, (cx, cy) = inp["tight_turn"]
    turn = hp.Isometry.rotation(theta, hp.HPoint(cx, cy))
    moved = hp.Isometry.translation(inp["tight_shift"]) @ turn
    boro_image = hp.TransformedPacking(
        hp.Isometry.dilation(math.exp(inp["boroczky_log_lam"])), boro)
    members = [
        tight7,
        tight8,
        boro,
        hp.StripeModel(1.0),
        hp.TransformedPacking(moved, tight7),
        boro_image,
    ]
    pool = [hp.truncate(m, k_max=1) for m in members]
    n = len(pool)
    dist = [[0.0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            dist[i][j] = dist[j][i] = hp.packing_distance(pool[i], pool[j]).value

    checks = [
        ("metric.identity", hp.packing_distance(pool[2], pool[2]).value == 0.0),
        ("metric.symmetry", hp.packing_distance(pool[5], pool[3]).value == dist[3][5]),
    ]
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(j + 1, n):
                a, b, c = dist[i][j], dist[j][k], dist[i][k]
                ok = a <= b + c + 1e-9 and b <= a + c + 1e-9 and c <= a + b + 1e-9
                checks.append((f"metric.triangle.{i}.{j}.{k}", ok))

    # k_max = 2 for one pair: its level-1 term repeats the k_max = 1 distance
    deep_pair = hp.packing_distance(hp.truncate(boro, k_max=2),
                                    hp.truncate(boro_image, k_max=2))
    checks.append(("metric.k2_level1",
                   deep_pair.per_level[0] == dist[2][5]
                   and deep_pair.value >= deep_pair.per_level[0]))
    return checks


WORKLOADS = {
    "deep": (deep_inputs, deep_run),
    "shallow": (shallow_inputs, shallow_run),
    "metric": (metric_inputs, metric_run),
}

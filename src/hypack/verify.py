"""Acceptance criteria A1-A11: one runner per criterion.

Each runner measures the quantities its criterion names, compares them
at the stated tolerances, and reports PASS/FAIL with the measured
values. The negative-control mode injects a deliberate bias into each
runner's primary measurement, proving that the harness actually fails
when the numbers are wrong. Each runner builds its own packings, so no
criterion's result or time depends on which criteria ran before it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from .density import (
    density_curve,
    f_R_average,
    halfspace_density_limit,
    mass_transport_check,
    tile_density,
)
from .errors import DomainError, SaturationError
from .hgeom import ORIGIN, BallSpec, Geodesic, HPoint, Isometry, apply, ball_area
from .packings import (
    BoroczkyPacking,
    BrickTile,
    StripeModel,
    TightPacking,
    TransformedPacking,
    boroczky_max_radius,
    pairwise_min_gap,
    tight_density_formula,
)
from .pspace import packing_distance, truncate
from .regions import (
    HalfSpaceRegion,
    PolygonRegion,
    SamplePlan,
    annulus_fraction_euclid,
    annulus_fraction_euclid_brute,
    mc_area_fraction,
    quad_black_fraction,
    quad_stripe_area,
)

TIGHT_DENSITY_LITERAL = 0.914307


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    passed: bool
    detail: str
    measured: dict = field(default_factory=dict)
    seconds: float = 0.0


def _a1(bias):
    # closed-form density of the m=7 family: literal, dual evaluation,
    # and a 1e6-sample Monte Carlo over the fundamental triangle
    t0 = time.perf_counter()
    packing = TightPacking(7)
    formula = tight_density_formula(7) + bias
    domain = packing.fundamental_domain
    dual = domain.covered_area() / domain.area()
    mc = tile_density(packing, PolygonRegion(domain.polygon),
                      SamplePlan(seed=101, n=1_000_000)).fraction
    elapsed = time.perf_counter() - t0
    ok_lit = abs(formula - TIGHT_DENSITY_LITERAL) <= 5e-5
    ok_dual = abs(formula - dual) <= 1e-12
    ok_mc = abs(mc - dual) <= 3e-3
    ok_time = elapsed < 10.0
    passed = ok_lit and ok_dual and ok_mc and ok_time
    detail = (
        f"formula={formula:.9f} dual={dual:.9f} mc={mc:.6f} "
        f"elapsed={elapsed:.2f}s"
    )
    return passed, detail, {
        "formula": formula, "dual": dual, "mc": mc, "elapsed": elapsed,
    }


def _a2(bias):
    # stripe fractions at half-integer multiples of W, and the
    # geometric progression of inner stripe areas
    f6 = quad_black_fraction(5.0, 32.5) + bias
    f7 = quad_black_fraction(5.0, 37.5)
    worst = 0.0
    target = math.exp(3.0)
    for j in range(-7, 6):
        a_j = quad_stripe_area(6.0, 51.0, j)
        a_j1 = quad_stripe_area(6.0, 51.0, j + 1)
        worst = max(worst, abs(a_j / a_j1 - target) / target)
    passed = (f6 >= 2.0 / 3.0 - 1e-6) and (f7 <= 1.0 / 3.0 + 1e-6) and worst <= 0.10
    detail = f"f(N=6)={f6:.6f} f(N=7)={f7:.6f} worst_ratio_dev={worst:.4f}"
    return passed, detail, {"f6": f6, "f7": f7, "worst_ratio_dev": worst}


def _a3(bias):
    ratio = ball_area(19.0) / ball_area(20.0) + bias
    scaled = ball_area(30.0) * math.exp(-30.0)
    ok_ratio = abs(ratio - math.exp(-1.0)) <= 1e-3
    ok_pi = abs(scaled - math.pi) / math.pi <= 0.01
    passed = ok_ratio and ok_pi
    detail = f"area19/area20={ratio:.6f} area30*e^-30={scaled:.6f}"
    return passed, detail, {"ratio": ratio, "scaled": scaled}


def _a4(bias):
    targets = {10: 4.0 / 5.0, 11: 1.0 / 5.0, 12: 4.0 / 5.0}
    fracs = {}
    ok = True
    for K, want in targets.items():
        got = annulus_fraction_euclid(K) + (bias if K == 10 else 0.0)
        fracs[f"K{K}"] = got
        ok = ok and abs(got - want) <= 0.02 * want
    oracle_dev = max(
        abs(annulus_fraction_euclid(K) - annulus_fraction_euclid_brute(K))
        for K in range(2, 13)
    )
    passed = ok and oracle_dev <= 1e-12
    detail = (
        f"K10={fracs['K10']:.6f} K11={fracs['K11']:.6f} "
        f"K12={fracs['K12']:.6f} oracle_dev={oracle_dev:.2e}"
    )
    fracs["oracle_dev"] = oracle_dev
    return passed, detail, fracs


def _a5(bias):
    hs = HalfSpaceRegion(Geodesic.vertical(0.0), sign=+1)
    measured = {}
    passed = True
    details = []
    for t in (0.0, 1.0, 2.0):
        center = HPoint(math.tanh(t), 1.0 / math.cosh(t))
        est = mc_area_fraction(hs, BallSpec(center, 12.0),
                               SamplePlan(seed=55, n=200_000))
        got = est.fraction + (bias if t == 0.0 else 0.0)
        want = halfspace_density_limit(t, "near")
        measured[f"t{t:g}"] = got
        passed = passed and abs(got - want) <= 0.02
        details.append(f"t={t:g}:{got:.5f}/{want:.5f}")
    return passed, " ".join(details), measured


def _a6(bias):
    packing = BoroczkyPacking()
    disks = packing.bodies_in_ball(BallSpec(ORIGIN, 6.0))
    gap = pairwise_min_gap(disks) + bias
    try:
        BoroczkyPacking(0.49)
        rejected = False
    except SaturationError:
        rejected = True
    passed = (
        len(disks) >= 1000
        and gap >= -1e-9
        and abs(gap) <= 1e-9
        and rejected
    )
    detail = (
        f"disks={len(disks)} min_gap={gap:.2e} "
        f"rho=0.49 rejected={rejected} rho*={boroczky_max_radius():.6f}"
    )
    return passed, detail, {
        "disks": float(len(disks)), "min_gap": gap,
        "oversized_rejected": float(rejected),
    }


def _a7(bias):
    packing = BoroczkyPacking()
    d0 = tile_density(packing, BrickTile(), SamplePlan(seed=301, n=400_000))
    d1 = tile_density(
        packing,
        BrickTile(family_offset=1.0, width_param=math.exp(1.5)),
        SamplePlan(seed=302, n=400_000),
    )
    ratio = d0.fraction / d1.fraction + bias
    passed = abs(ratio - math.e) <= 0.05
    detail = f"d0={d0.fraction:.5f} d1={d1.fraction:.5f} ratio={ratio:.5f}"
    return passed, detail, {
        "density0": d0.fraction, "density1": d1.fraction, "ratio": ratio,
    }


def _a8(bias):
    packing = TightPacking(7)
    radii = (6.0, 8.0, 10.0, 12.0)
    fracs, errs, ses = [], [], []
    for k, radius in enumerate(radii):
        est = f_R_average(packing, radius, SamplePlan(seed=401 + k, n=200_000))
        frac = est.fraction + (bias if radius == 12.0 else 0.0)
        fracs.append(frac)
        errs.append(abs(frac - TIGHT_DENSITY_LITERAL))
        ses.append(est.std_error)
    ok_final = errs[-1] <= 0.02
    ok_trend = all(
        errs[i + 1] <= errs[i] + 2.0 * math.hypot(ses[i], ses[i + 1])
        for i in range(len(errs) - 1)
    )
    passed = ok_final and ok_trend
    detail = " ".join(
        f"R={r:g}:f={f:.5f}(err {e:.5f})" for r, f, e in zip(radii, fracs, errs)
    )
    measured = {f"f_R{r:g}": f for r, f in zip(radii, fracs)}
    return passed, detail, measured


def _a9(bias):
    packing = TightPacking(7)
    got = mass_transport_check(
        packing, BallSpec(ORIGIN, 8.0), SamplePlan(seed=901, n=512)
    ) + bias
    passed = abs(got - 0.9143) <= 0.01
    detail = f"transport_mean={got:.6f} target=0.9143+-0.01"
    return passed, detail, {"transport_mean": got}


def _a10(bias):
    # metric axioms over a pool of truncated packings, then strict
    # monotone decay of d(P, gP) as g walks back to the identity
    tight = TightPacking(7)
    boro = BoroczkyPacking()
    members = [
        tight,
        TransformedPacking(Isometry.translation(0.37), tight),
        TransformedPacking(Isometry.rotation(0.9, HPoint(0.2, 1.5)), tight),
        boro,
        TransformedPacking(Isometry.dilation(1.35), boro),
        StripeModel(1.0),
        TransformedPacking(Isometry.dilation(math.exp(0.2)), StripeModel(1.0)),
        TightPacking(8),
    ]
    pool = [truncate(m, k_max=1) for m in members]
    n = len(pool)
    dmat = np.zeros((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            dmat[i, j] = dmat[j, i] = packing_distance(pool[i], pool[j]).value
    ident_ok = all(packing_distance(t, t).value == 0.0 for t in pool[:3])
    rng = np.random.default_rng(1001)
    slack_worst = -math.inf
    for _ in range(100):
        i, j, k = rng.choice(n, size=3, replace=False)
        slack_worst = max(slack_worst, dmat[i, k] - dmat[i, j] - dmat[j, k])
    slack_worst += bias
    base = truncate(boro, k_max=1)
    values = []
    for i in range(10):
        g = Isometry.translation(0.8 * 0.75**i)
        values.append(
            packing_distance(base, truncate(TransformedPacking(g, boro), k_max=1)).value
        )
    monotone = all(b < a for a, b in zip(values, values[1:]))
    passed = ident_ok and slack_worst <= 1e-9 and monotone
    detail = (
        f"identity_zero={ident_ok} triangle_slack={slack_worst:.2e} "
        f"monotone_10_checkpoints={monotone}"
    )
    return passed, detail, {
        "triangle_slack": slack_worst,
        "monotone": float(monotone),
        "path_first": values[0],
        "path_last": values[-1],
    }


def _a11(bias):
    packing = TightPacking(7)
    rng = np.random.default_rng(1202)
    radii = [2.0, 3.0, 4.0]
    worst_z = 0.0
    for trial in range(50):
        t = float(rng.uniform(-0.5, 0.5))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        lam = float(np.exp(rng.uniform(-0.3, 0.3)))
        g = (
            Isometry.translation(t)
            @ Isometry.rotation(theta, ORIGIN)
            @ Isometry.dilation(lam)
        )
        moved = TransformedPacking(g, packing)
        base = density_curve(packing, ORIGIN, radii,
                             SamplePlan(seed=11000 + 31 * trial, n=8000))
        image = density_curve(moved, apply(g, ORIGIN), radii,
                              SamplePlan(seed=11001 + 31 * trial, n=8000))
        for pa, pb in zip(base.points, image.points):
            z = abs(pa.fraction - pb.fraction) / math.hypot(pa.std_error, pb.std_error)
            worst_z = max(worst_z, z)
    worst_z += bias
    passed = worst_z <= 4.0
    detail = f"trials=50 radii={radii} worst_z={worst_z:.2f} (limit 4)"
    return passed, detail, {"worst_z": worst_z}


_CRITERIA = {
    "A1": (_a1, 0.01),
    "A2": (_a2, -0.5),
    "A3": (_a3, 0.01),
    "A4": (_a4, 0.05),
    "A5": (_a5, 0.05),
    "A6": (_a6, -1e-6),
    "A7": (_a7, 0.3),
    "A8": (_a8, 0.05),
    "A9": (_a9, 0.05),
    "A10": (_a10, 1.0),
    "A11": (_a11, 5.0),
}


def run_criteria(ids=None, negative_control: bool = False):
    """Run the requested criteria (all by default), in order."""
    if ids is None:
        ids = list(_CRITERIA)
    results = []
    for cid in ids:
        if cid not in _CRITERIA:
            raise DomainError(
                f"unknown criterion {cid!r}; valid: {', '.join(_CRITERIA)}"
            )
        runner, tamper = _CRITERIA[cid]
        bias = tamper if negative_control else 0.0
        t0 = time.perf_counter()
        passed, detail, measured = runner(bias)
        results.append(
            CriterionResult(
                cid=cid,
                passed=passed,
                detail=detail,
                measured=measured,
                seconds=time.perf_counter() - t0,
            )
        )
    return results


def format_report(results):
    """One PASS/FAIL line per criterion plus a machine-readable dict."""
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{r.cid} {status} {r.detail} ({r.seconds:.1f}s)")
    all_passed = all(r.passed for r in results)
    lines.append(f"{'ALL PASS' if all_passed else 'FAILURES PRESENT'}")
    doc = {
        "all_passed": all_passed,
        "criteria": [
            {
                "id": r.cid,
                "passed": r.passed,
                "detail": r.detail,
                "measured": r.measured,
                "seconds": round(r.seconds, 3),
            }
            for r in results
        ],
    }
    return "\n".join(lines) + "\n", doc

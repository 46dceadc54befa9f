"""Density curves, limits, tile densities, and transport averages."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hypack import density
from hypack.density import (
    CSV_HEADER,
    _owners,
    CurvePoint,
    DensityCurve,
    annulus_density_curve,
    density_curve,
    f_R_average,
    fundamental_domain_density,
    halfspace_density_limit,
    mass_transport_check,
    oscillation_report,
    tile_density,
)
from hypack.errors import DomainError, RangeError, UnsupportedOperationError
from hypack.hgeom import (
    ORIGIN,
    BallSpec,
    Geodesic,
    HPoint,
    Isometry,
    SiteGrid,
    apply,
    ball_area,
)
from hypack.packings import (
    BoroczkyPacking,
    BrickTile,
    StripeModel,
    TightPacking,
    TransformedPacking,
    brick_region,
    tight_density_formula,
    tight_radius,
)
from hypack.regions import (
    HalfSpaceRegion,
    PolygonRegion,
    SamplePlan,
    mc_area_fraction,
    _BLOCK,
    quad_black_fraction,
    sample_ball_uniform,
)
from hypack.voronoi import cell_relative_density, packing_cell
import oracles
from oracles import transport_loop

SEED = 72051


@pytest.fixture(scope="module")
def tight7():
    return TightPacking(7)


def stripe_radii(W, n_lo, n_hi):
    return [(N + 0.5) * W for N in range(n_lo, n_hi + 1)]


def test_stripe_curve_is_exact_quadrature():
    sm = StripeModel(5.0)
    radii = stripe_radii(5.0, 1, 8)
    curve = density_curve(sm, ORIGIN, radii, SamplePlan(seed=SEED, n=100))
    assert curve.method == "quadrature"
    assert all(pt.std_error == 0.0 for pt in curve.points)
    for pt in curve.points:
        assert pt.samples == 0
        assert abs(pt.fraction - quad_black_fraction(5.0, pt.radius)) <= 1e-12


def test_stripe_mc_agrees_with_quadrature_at_every_radius():
    sm = StripeModel(5.0)
    radii = stripe_radii(5.0, 1, 5)
    exact = density_curve(sm, ORIGIN, radii, SamplePlan(seed=SEED, n=10))
    for k, r in enumerate(radii):
        est = mc_area_fraction(sm, BallSpec(ORIGIN, r), SamplePlan(seed=SEED + k, n=20000))
        tol = 4.0 * max(est.std_error, 1e-4)
        assert abs(est.fraction - exact.points[k].fraction) <= tol


def test_covered_area_monotone_in_radius():
    sm = StripeModel(3.0)
    radii = [1.0 + 0.7 * k for k in range(40)]
    curve = density_curve(sm, ORIGIN, radii, SamplePlan(seed=SEED, n=10))
    covered = curve.fractions * np.array([ball_area(r) for r in radii])
    assert np.all(np.diff(covered) > 0.0)


def test_curve_validation():
    sm = StripeModel(5.0)
    plan = SamplePlan(seed=SEED, n=10)
    with pytest.raises(DomainError):
        density_curve(sm, ORIGIN, [], plan)
    with pytest.raises(DomainError):
        density_curve(sm, ORIGIN, [5.0, 4.0], plan)
    with pytest.raises(DomainError):
        density_curve(sm, ORIGIN, [-1.0, 2.0], plan)
    with pytest.raises(DomainError):
        DensityCurve(ORIGIN, (CurvePoint(1.0, 1.2, 0.0, 0),), "quadrature")
    with pytest.raises(DomainError):
        DensityCurve(ORIGIN, (CurvePoint(1.0, 0.5, 0.0, 0),), "magic")


def test_oscillation_stripe_never_settles():
    sm = StripeModel(5.0)
    radii = stripe_radii(5.0, 1, 10)
    curve = density_curve(sm, ORIGIN, radii, SamplePlan(seed=SEED, n=10))
    rep = oscillation_report(curve, window_fraction=0.5)
    assert rep.limsup_est >= 2.0 / 3.0
    assert rep.liminf_est <= 1.0 / 3.0
    assert rep.limsup_est - rep.liminf_est >= 1.0 / 3.0
    assert not rep.converged
    assert rep.window[0] < rep.window[1] == radii[-1]


def test_oscillation_requires_four_points():
    sm = StripeModel(5.0)
    curve = density_curve(sm, ORIGIN, [7.5, 12.5, 17.5], SamplePlan(seed=SEED, n=10))
    with pytest.raises(DomainError):
        oscillation_report(curve, window_fraction=0.3)
    with pytest.raises(DomainError):
        oscillation_report(curve, window_fraction=2.0)


def test_oscillation_tight_packing_settles(tight7):
    radii = [6.0, 6.5, 7.0, 7.5, 8.0]
    curve = density_curve(tight7, ORIGIN, radii, SamplePlan(seed=SEED, n=20000))
    assert curve.method == "mc"
    rep = oscillation_report(curve, window_fraction=1.0, tolerance=0.05)
    assert rep.converged
    for pt in curve.points:
        assert abs(pt.fraction - tight_density_formula(7)) <= 0.05


def test_f_R_average_stripe_exact():
    est = f_R_average(StripeModel(5.0), 32.5, SamplePlan(seed=SEED, n=10))
    assert est.method == "quadrature"
    assert est.std_error == 0.0
    assert abs(est.fraction - quad_black_fraction(5.0, 32.5)) <= 1e-12


def test_f_R_average_tight_near_formula(tight7):
    est = f_R_average(tight7, 6.0, SamplePlan(seed=SEED, n=20000))
    assert est.method == "mc"
    assert abs(est.fraction - tight_density_formula(7)) <= 0.03


@pytest.mark.parametrize("R", [2.0, 3.0, 4.0, 5.0, 6.0])
@pytest.mark.parametrize("family", ["tight7", "boroczky", "moved_tight7"])
def test_mc_area_fraction_matches_exact_covered_fraction(family, R, tight7):
    # the ball sampler and each family's covers_xy against the lens sum,
    # which uses neither, about a seeded centre
    packing = {
        "tight7": tight7,
        "boroczky": BoroczkyPacking(),
        "moved_tight7": TransformedPacking(
            Isometry.rotation(0.9, HPoint(0.4, 2.0)) @ Isometry.translation(-1.3), tight7),
    }[family]
    rng = np.random.default_rng([SEED, int(R)])
    ball = BallSpec(HPoint(rng.uniform(-1.0, 1.0), math.exp(rng.uniform(-1.0, 1.0))), R)
    est = mc_area_fraction(packing, ball, SamplePlan(seed=SEED, n=50_000))
    exact = oracles.covered_fraction_in_ball(packing, ball)
    assert abs(est.fraction - exact) <= 5.0 * est.std_error


def test_halfspace_limits():
    assert halfspace_density_limit(0.0, "near") == 0.5
    assert halfspace_density_limit(0.0, "far") == 0.5
    for t in (0.3, 1.0, 2.0):
        near = halfspace_density_limit(t, "near")
        far = halfspace_density_limit(t, "far")
        assert abs(near + far - 1.0) <= 1e-15
    # frozen values of the parallelism integral
    assert abs(halfspace_density_limit(1.0, "near") - 0.7755829856714149) <= 1e-12
    assert abs(halfspace_density_limit(2.0, "near") - 0.9143631844053801) <= 1e-12
    ts = np.linspace(0.0, 4.0, 17)
    nears = [halfspace_density_limit(float(t), "near") for t in ts]
    assert np.all(np.diff(nears) > 0.0)
    with pytest.raises(DomainError):
        halfspace_density_limit(1.0, "left")
    with pytest.raises(DomainError):
        halfspace_density_limit(-0.5, "near")


def test_fundamental_domain_density_exact_or_unsupported(tight7):
    assert abs(fundamental_domain_density(tight7) - tight_density_formula(7)) <= 1e-12
    assert abs(fundamental_domain_density(TightPacking(8)) - tight_density_formula(8)) <= 1e-12
    with pytest.raises(UnsupportedOperationError):
        fundamental_domain_density(StripeModel(5.0))
    with pytest.raises(UnsupportedOperationError):
        fundamental_domain_density(BoroczkyPacking())


def test_brick_tile_density_ratio(tight7):
    bp = BoroczkyPacking()
    d0 = tile_density(bp, BrickTile(), SamplePlan(seed=SEED, n=40000))
    d1 = tile_density(
        bp,
        BrickTile(family_offset=1.0, width_param=math.exp(1.5)),
        SamplePlan(seed=SEED + 1, n=40000),
    )
    assert d0.method == "mc"
    assert abs(d0.fraction / d1.fraction - math.e) <= 0.15


def test_tile_density_mc_on_cell_matches_exact(tight7):
    cell = packing_cell(tight7, ORIGIN)
    proxy = TransformedPacking(Isometry.identity(), tight7)
    est = tile_density(proxy, PolygonRegion(cell.polygon), SamplePlan(seed=SEED, n=20000))
    assert est.method == "mc"
    exact = cell_relative_density(cell, tight_radius(7))
    assert abs(est.fraction - exact) <= 4.0 * est.std_error + 1e-4


def test_tile_density_zero_area_rejected(tight7):
    class FlatTile:
        def area(self):
            return 0.0

        def _points(self, u, v):
            raise AssertionError("should not sample a degenerate tile")

    with pytest.raises(DomainError):
        tile_density(tight7, FlatTile(), SamplePlan(seed=SEED, n=10))


def test_annulus_curve_closed_form():
    curve = annulus_density_curve([10, 11, 12])
    assert curve.method == "closed-form"
    assert all(pt.std_error == 0.0 for pt in curve.points)
    for frac, want in zip(curve.fractions, (4.0 / 5.0, 1.0 / 5.0, 4.0 / 5.0)):
        assert abs(frac - want) <= 0.02 * want
    with pytest.raises(DomainError):
        annulus_density_curve([2.5])


def test_mass_transport_reproduces_density(tight7):
    got = mass_transport_check(tight7, BallSpec(ORIGIN, 2.5), SamplePlan(seed=SEED, n=256))
    want = tight_density_formula(7)
    assert abs(got - want) <= 1e-9
    # consistency triangle: closed form, fundamental domain, transport mean
    fd = fundamental_domain_density(tight7)
    assert abs(fd - want) <= 1e-12
    assert abs(got - fd) <= 0.01


@pytest.mark.parametrize("center, radius, seed", [
    (HPoint(0.4, 1.3), 2.0, SEED + 1),
    (ORIGIN, 2.5, SEED),
    (ORIGIN, 7.0, SEED + 2),
])
def test_mass_transport_matches_sample_loop(center, radius, seed):
    # every tight cell has one density, so the mean would hide a wrong
    # owner in its last bits: the owners themselves must be equal
    packing = TightPacking(7)
    window, plan = BallSpec(center, radius), SamplePlan(seed=seed, n=256)
    want, want_owner = transport_loop(packing, window, plan)
    sx, sy = packing._centers(BallSpec(center, radius + 4.0 * packing.disk_radius))
    owner = _owners(SiteGrid(sx, sy), window, plan)
    assert np.array_equal(owner, want_owner)
    assert abs(mass_transport_check(packing, window, plan) - want) <= 1e-14


def test_mass_transport_folds_only_the_window_center(monkeypatch):
    # the owners' cells come from the window's site array: the window
    # query is the one fold home, with none per owner
    homes = []
    home = TightPacking._home
    monkeypatch.setattr(TightPacking, "_home", lambda self, p: homes.append(p) or home(self, p))
    mass_transport_check(TightPacking(7), BallSpec(ORIGIN, 7.0), SamplePlan(seed=SEED, n=256))
    assert homes == [ORIGIN]


def test_mass_transport_on_a_moved_packing(tight7):
    g = Isometry.translation(0.37)
    moved = TransformedPacking(g, tight7)
    window = BallSpec(apply(g, HPoint(0.2, 1.4)), 2.5)
    got = mass_transport_check(moved, window, SamplePlan(seed=SEED + 3, n=256))
    assert abs(got - fundamental_domain_density(tight7)) <= 1e-12


@pytest.mark.parametrize("j", [180, 345, -200])
def test_mass_transport_at_every_height(j):
    # the dilation by e^(2j) maps the Boroczky packing to itself; at these
    # heights the squared distances of the ball queries over- or underflow
    def window(log_y):
        return BallSpec(HPoint.from_log(0.2 * math.exp(log_y), log_y), 3.0)

    plan = SamplePlan(3, 64)
    want = mass_transport_check(BoroczkyPacking(), window(0.5), plan)
    assert abs(mass_transport_check(BoroczkyPacking(), window(0.5 + 2.0 * j), plan) - want) <= 1e-12


@pytest.mark.parametrize("log_y", [750.0, -750.0])
def test_mass_transport_past_float_heights(log_y):
    # 4^k overflows past k = 511: the dilation stops there, and the
    # packing refuses the window
    with pytest.raises(RangeError):
        mass_transport_check(BoroczkyPacking(), BallSpec(HPoint.from_log(0.0, log_y), 3.0),
                             SamplePlan(3, 64))


@pytest.mark.parametrize("packing, window", [
    (BoroczkyPacking(), BallSpec(HPoint.from_log(0.2 * math.exp(1.3), 1.3), 3.0)),
    (TightPacking(7), BallSpec(HPoint(0.4, 1.3), 2.5)),
], ids=["boroczky", "tight7"])
@pytest.mark.parametrize("j", [300, -300])
def test_mass_transport_is_invariant_under_dilations_by_powers_of_4(packing, window, j):
    # z -> 4^j z is exact in float, so the check on the dilated packing
    # and window is the same computation bit for bit
    g = Isometry.dilation(4.0**j)
    plan = SamplePlan(SEED, 128)
    moved = mass_transport_check(TransformedPacking(g, packing),
                                 BallSpec(apply(g, window.center), window.radius), plan)
    assert moved == mass_transport_check(packing, window, plan)


@pytest.mark.parametrize("region", [
    StripeModel(5.0),
    HalfSpaceRegion(Geodesic.vertical(0.0)),
    TransformedPacking(Isometry.translation(0.3), StripeModel(5.0)),
], ids=["stripe", "half-plane", "moved stripe"])
def test_mass_transport_on_a_region_is_unsupported(region):
    with pytest.raises(UnsupportedOperationError):
        mass_transport_check(region, BallSpec(ORIGIN, 2.0), SamplePlan(seed=SEED, n=64))


def test_mass_transport_boundary_resampling(monkeypatch, tight7):
    # a large boundary margin forces the resampling path; congruent cells
    # keep the answer pinned regardless
    monkeypatch.setattr(density, "_BOUNDARY_TOL", 0.2)
    got = mass_transport_check(tight7, BallSpec(ORIGIN, 2.0), SamplePlan(seed=SEED, n=64))
    assert abs(got - tight_density_formula(7)) <= 1e-9


def test_density_curve_equivariant_under_isometries(tight7):
    g = Isometry.rotation(0.6, center=None) @ Isometry.translation(0.2)
    moved = TransformedPacking(g, tight7)
    radii = [2.0, 3.0]
    base = density_curve(tight7, ORIGIN, radii, SamplePlan(seed=SEED, n=20000))
    image = density_curve(moved, apply(g, ORIGIN), radii, SamplePlan(seed=SEED + 7, n=20000))
    for a, b in zip(base.points, image.points):
        tol = 4.0 * math.hypot(a.std_error, b.std_error) + 1e-4
        assert abs(a.fraction - b.fraction) <= tol


def test_csv_output_shape():
    sm = StripeModel(5.0)
    radii = stripe_radii(5.0, 1, 4)
    curve = density_curve(sm, ORIGIN, radii, SamplePlan(seed=SEED, n=10))
    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + len(radii)
    for line in lines[1:]:
        r, f, se, n, method = line.split(",")
        assert float(f) == pytest.approx(quad_black_fraction(5.0, float(r)), abs=1e-12)
        assert float(se) == 0.0
        assert int(n) == 0
        assert method == "quadrature"
    assert curve.to_csv() == text


# ---------------------------------------------------------------- streaming Monte Carlo
# Samplers and estimators work in blocks of _BLOCK = 2^14 points; the
# one-shot oracles draw each stream with one rng.random(n) call. The second
# stream starts n draws in, which is where a block source can go wrong:
# around multiples of 4 (Philox makes four doubles per counter step) and
# around the block edges. The sizes about 2^16 span several blocks.

_STREAM_NS = [
    *range(1, 10), _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 3,
    2**16 - 1, 2**16, 2**16 + 1, 2**17 + 3,
]


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.sampled_from(_STREAM_NS) | st.integers(1, 64))
def test_block_samplers_match_one_shot_draws(seed, n):
    plan = SamplePlan(seed=seed, n=n)
    ball = BallSpec(HPoint(0.3, 2.0), 3.0)
    fd = PolygonRegion(TightPacking(7).fundamental_domain.polygon)
    brick = brick_region(BrickTile(j=1, k=-2))
    for got, want in (
        (sample_ball_uniform(ball, plan), oracles.ball_sample(ball, plan)),
        (fd.sample_uniform(plan), oracles.polygon_sample(fd, plan)),
        (brick.sample_uniform(plan), oracles.brick_sample(brick, plan)),
    ):
        assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**63 - 1), n=st.sampled_from(_STREAM_NS) | st.integers(1, 64))
def test_block_estimators_match_one_shot_estimates(seed, n, tight7):
    plan = SamplePlan(seed=seed, n=n)
    fd = PolygonRegion(tight7.fundamental_domain.polygon)
    boro, brick = BoroczkyPacking(), BrickTile(family_offset=1.0)
    ball = BallSpec(ORIGIN, 4.0)
    for got, want in (
        (mc_area_fraction(tight7, ball, plan), oracles.mc_area_fraction(tight7, ball, plan)),
        (tile_density(tight7, fd, plan), oracles.tile_density(tight7, fd, plan)),
        (tile_density(boro, brick, plan), oracles.tile_density(boro, brick_region(brick), plan)),
    ):
        assert (got.fraction, got.std_error, got.samples) == (
            want.fraction, want.std_error, want.samples)


def _traced_peak(run, n):
    tracemalloc.start()
    try:
        run(n)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_monte_carlo_memory_is_bounded_by_the_block(tight7):
    # A1's region and seed, and a ball estimate: the peak stays under a
    # constant, and four times the points add no memory
    fd = PolygonRegion(tight7.fundamental_domain.polygon)
    ball = BallSpec(ORIGIN, 6.0)
    runs = (
        lambda n: tile_density(tight7, fd, SamplePlan(seed=101, n=n)),
        lambda n: mc_area_fraction(tight7, ball, SamplePlan(seed=101, n=n)),
    )
    for run in runs:
        run(10)
        small, large = _traced_peak(run, 2**18), _traced_peak(run, 2**20)
        assert large < 4e6
        assert large <= small + 1e6

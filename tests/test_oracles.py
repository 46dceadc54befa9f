"""Self-tests of the reference implementations in oracles.py."""

import math

import numpy as np
import pytest

from hypack.hgeom import ORIGIN, BallSpec, HPoint
from hypack.packings import TightPacking, tight_density_formula
from oracles import (
    arc_coordinate,
    covered_fraction_in_ball,
    distance,
    geodesic_through,
    midpoint,
    point_along,
)

RNG_SEED = 20260816


def random_point(rng, span=3.0):
    return HPoint(rng.uniform(-span, span), math.exp(rng.uniform(-span, span)))


def test_geodesic_through_and_arclength():
    rng = np.random.default_rng(RNG_SEED + 8)
    for _ in range(100):
        p, q = random_point(rng), random_point(rng)
        if abs(p.x - q.x) < 1e-6:
            continue
        geo = geodesic_through(p, q)
        s_p = arc_coordinate(geo, p)
        s_q = arc_coordinate(geo, q)
        assert abs(abs(s_p - s_q) - distance(p, q)) < 1e-9
        # point_along inverts arc_coordinate
        assert distance(point_along(geo, s_p), p) < 1e-9


def test_midpoint_bisects():
    rng = np.random.default_rng(RNG_SEED + 9)
    for _ in range(100):
        p, q = random_point(rng), random_point(rng)
        m = midpoint(p, q)
        half = 0.5 * distance(p, q)
        assert abs(distance(p, m) - half) < 1e-9
        assert abs(distance(q, m) - half) < 1e-9
    m = midpoint(HPoint(0, 1), HPoint(0, math.exp(4)))
    assert m.x == 0.0 and abs(m.log_y - 2.0) < 1e-15


@pytest.mark.parametrize("R, excess", [(6.0, 3.688e-4), (8.0, -4.503e-6), (10.0, 7.010e-5)])
def test_covered_fraction_of_tight7_about_the_origin(R, excess):
    # f_R - D(7) about (0, 1), to the four digits of the lens sum's first
    # record; R = 8 lies below R = 10, so the exact curve is not monotone
    got = covered_fraction_in_ball(TightPacking(7), BallSpec(ORIGIN, R)) - tight_density_formula(7)
    assert abs(got - excess) <= 5e-4 * abs(excess)


def test_covered_fraction_matches_mpmath_lens_sum():
    # the same disks summed with every step in 40 digits
    mpmath = pytest.importorskip("mpmath")
    packing, ball = TightPacking(7), BallSpec(ORIGIN, 8.0)
    with mpmath.workdps(40):
        want = covered_fraction_in_ball(packing, ball, lib=mpmath)
    assert abs(covered_fraction_in_ball(packing, ball) - want) <= 1e-14

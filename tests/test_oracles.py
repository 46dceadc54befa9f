"""Self-tests of the reference implementations in oracles.py."""

import math

import numpy as np

from hypack.hgeom import HPoint
from oracles import arc_coordinate, distance, geodesic_through, midpoint, point_along

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

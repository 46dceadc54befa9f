"""Dirichlet cell construction, cell densities, and partition audits."""

import math

import numpy as np
import pytest

from hypack.errors import DomainError, UnboundedCellError
from hypack.hgeom import (
    ORIGIN,
    BallSpec,
    HPoint,
    Isometry,
    apply,
    ball_area,
    distance,
)
from hypack.packings import TightPacking, tight_density_formula, tight_radius
from hypack.regions import PolygonRegion, SamplePlan
from hypack.voronoi import (
    cell_relative_density,
    dirichlet_cell,
    packing_cell,
    partition_audit,
)

SEED = 60112


@pytest.fixture(scope="module")
def tight7():
    return TightPacking(7)


@pytest.fixture(scope="module")
def origin_cell(tight7):
    return packing_cell(tight7, ORIGIN)


def test_seed_cell_is_regular_heptagon(origin_cell):
    cell = origin_cell
    assert len(cell.polygon.vertices) == 7
    assert len(cell.neighbor_sites) == 7
    r7 = tight_radius(7)
    for s in cell.neighbor_sites:
        assert abs(distance(ORIGIN, s) - 2.0 * r7) <= 1e-9
    radii = [distance(ORIGIN, v) for v in cell.polygon.vertices]
    assert max(radii) - min(radii) <= 1e-8
    # circumradius of the dual cell, frozen from the triangle solver
    assert abs(radii[0] - 0.6206717375563858) <= 1e-6


def test_cell_area_matches_dual_identity(origin_cell):
    area = origin_cell.area()
    assert abs(area - math.pi / 3.0) <= 1e-12
    assert abs(area - ball_area(tight_radius(7)) / tight_density_formula(7)) <= 1e-12


def test_vertices_equidistant_from_site_and_no_closer_site(tight7, origin_cell):
    window = tight7.centers_in_ball(BallSpec(ORIGIN, 3.0))
    for v in origin_cell.polygon.vertices:
        d_site = distance(v, ORIGIN)
        for s in window:
            assert d_site <= distance(v, s) + 1e-8


def test_cell_contains_its_site(origin_cell):
    assert PolygonRegion(origin_cell.polygon).contains(ORIGIN)


def test_cell_rotation_symmetry(origin_cell):
    rot = Isometry.rotation(2.0 * math.pi / 7.0, ORIGIN)
    verts = origin_cell.polygon.vertices
    for v in verts:
        image = apply(rot, v)
        assert min(distance(image, u) for u in verts) <= 1e-6


def test_relative_density_matches_formula(origin_cell):
    r7 = tight_radius(7)
    got = cell_relative_density(origin_cell, r7)
    assert abs(got - tight_density_formula(7)) <= 1e-9


def test_relative_density_rejects_oversized_disk(origin_cell):
    with pytest.raises(DomainError):
        cell_relative_density(origin_cell, 0.6)
    with pytest.raises(DomainError):
        cell_relative_density(origin_cell, 0.0)
    with pytest.raises(DomainError):
        cell_relative_density(origin_cell, -0.2)


def test_small_disk_density_shrinks(origin_cell):
    assert cell_relative_density(origin_cell, 1e-6) < 1e-11


def test_closure_over_interior_cells():
    # area-weighted mean of cell-relative densities reproduces the
    # closed-form packing density for several tight families
    for m in (7, 8, 9):
        p = TightPacking(m)
        rm = tight_radius(m)
        sites = p.centers_in_ball(BallSpec(ORIGIN, 2.5))
        cells = [packing_cell(p, s) for s in sites]
        areas = np.array([c.area() for c in cells])
        dens = np.array([cell_relative_density(c, rm) for c in cells])
        assert areas.max() - areas.min() <= 1e-9
        wmean = float(np.sum(dens * areas) / np.sum(areas))
        assert abs(wmean - tight_density_formula(m)) <= 1e-6


def test_two_sites_unbounded():
    with pytest.raises(UnboundedCellError):
        dirichlet_cell([ORIGIN, HPoint(1.0, 1.0)], 0)


def test_hull_site_raises_rather_than_truncates(origin_cell):
    # a first-shell site with no sites beyond it has an open cell
    shell = [ORIGIN] + list(origin_cell.neighbor_sites)
    with pytest.raises(UnboundedCellError):
        dirichlet_cell(shell, 1)


def test_duplicate_sites_rejected():
    with pytest.raises(DomainError):
        dirichlet_cell([ORIGIN, HPoint(0.0, 1.0), HPoint(1.0, 1.0)], 0)


def test_site_index_out_of_range():
    with pytest.raises(DomainError):
        dirichlet_cell([ORIGIN, HPoint(1.0, 1.0)], 5)


def test_packing_cell_rejects_non_center(tight7):
    with pytest.raises(DomainError):
        packing_cell(tight7, HPoint(0.1, 1.0))


def test_partition_audit_near_one(tight7):
    radius = 2.5
    sites = tight7.centers_in_ball(BallSpec(ORIGIN, radius + 1.0))
    cells = [packing_cell(tight7, s) for s in sites]
    window = BallSpec(ORIGIN, radius)
    frac = partition_audit(cells, window, SamplePlan(seed=SEED, n=20000))
    assert frac >= 1.0 - 1e-3

    # negative control: deleting one interior cell leaves a visible hole
    dropped = [c for c in cells if distance(ORIGIN, c.site) > 1e-9]
    frac2 = partition_audit(dropped, window, SamplePlan(seed=SEED, n=20000))
    assert frac2 < 0.99


def test_partition_audit_single_cell(origin_cell):
    window = BallSpec(ORIGIN, 0.3)
    frac = partition_audit([origin_cell], window, SamplePlan(seed=SEED, n=2000))
    assert frac == 1.0

"""End-to-end checks of the command line entry point."""

import json
import os
import subprocess
import sys
import time
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import hypack
from hypack import svg
from hypack.cli import main
from hypack.hgeom import ORIGIN, BallSpec, Geodesic
from hypack.packings import tight_radius
from hypack.regions import (
    HalfSpaceRegion,
    SamplePlan,
    annulus_fraction_euclid,
    mc_area_fraction,
    quad_black_fraction,
)
from oracles import outline_element


def run(capsys, argv):
    code = main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# ---------------------------------------------------------------- gen

def test_gen_tight_document(capsys):
    code, out, _ = run(capsys, ["gen", "--kind", "tight", "--m", "7", "--R", "2.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["version"] == "hypack/1"
    assert doc["model"] == "uhp"
    assert doc["kind"] == "tight"
    assert doc["params"]["m"] == 7
    assert abs(doc["params"]["rho"] - tight_radius(7)) < 1e-15
    bodies = doc["bodies"]
    assert len(bodies) >= 20
    r7 = tight_radius(7)
    for b in bodies:
        assert set(b) == {"H", "K", "R"}
        assert b["K"] > 0.0
        assert abs(b["R"] - r7) < 1e-15
    keys = [(b["H"], b["K"]) for b in bodies]
    assert keys == sorted(keys)


def test_gen_region_document_has_no_bodies(capsys):
    code, out, _ = run(capsys, ["gen", "--kind", "stripe", "--W", "2.0"])
    assert code == 0
    doc = json.loads(out)
    assert doc["params"] == {"W": 2.0}
    assert "bodies" not in doc


def test_gen_oversized_radius_fails(capsys):
    code, out, err = run(capsys, ["gen", "--kind", "boroczky", "--rho", "0.49"])
    assert code == 2
    assert out == ""
    assert "saturation bound" in err


def test_gen_tight_window_over_the_disk_cap_fails_fast(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, ["gen", "--kind", "tight", "--m", "7", "--R", "14"])
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "more than 2000000 disks" in err


def test_gen_bricks_offset_validation(capsys):
    code, _, err = run(capsys, ["gen", "--kind", "bricks", "--offset", "2"])
    assert code == 2
    assert "offset" in err


def test_unknown_kind_is_a_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["gen", "--kind", "quux"])


# ---------------------------------------------------------------- density

def test_density_stripe_quadrature_csv(capsys):
    code, out, _ = run(capsys, ["density", "--kind", "stripe", "--W", "5.0",
                                "--radii", "2,7.5"])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "radius,fraction,std_error,samples,method"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[4] for r in rows] == ["quadrature", "quadrature"]
    for r, radius in zip(rows, (2.0, 7.5)):
        assert float(r[0]) == radius
        assert float(r[1]) == pytest.approx(quad_black_fraction(5.0, radius), abs=1e-12)
        assert float(r[2]) == 0.0
        assert int(r[3]) == 0


def test_density_annulus_needs_euclidean_flag(capsys):
    code, _, err = run(capsys, ["density", "--kind", "annulus", "--radii", "10,11"])
    assert code == 2
    assert "--euclidean" in err


@pytest.mark.parametrize("argv", [
    ["density", "--kind", "stripe", "--radii", "2.5", "--euclidean"],
    ["render", "--kind", "stripe", "--R", "4", "--euclidean"],
    ["render", "--kind", "tight", "--R", "2", "--euclidean"],
    ["render", "--kind", "annulus", "--R", "8"],
    ["gen", "--kind", "stripe", "--euclidean"],
    ["gen", "--kind", "annulus"],
    ["voronoi", "--kind", "tight", "--euclidean"],
], ids=["density stripe", "render stripe", "render tight", "render annulus",
        "gen stripe", "gen annulus", "voronoi tight"])
def test_euclidean_flag_goes_with_the_annulus_alone(capsys, tmp_path, argv):
    path = tmp_path / "out"
    code, out, err = run(capsys, argv + ["--out", str(path)])
    assert code == 2
    assert out == "" and not path.exists()
    assert err.startswith("error:") and "--euclidean" in err


@pytest.mark.parametrize("value", ["inf", "nan"])
def test_density_annulus_rejects_non_finite_exponents(capsys, value):
    code, _, err = run(capsys, ["density", "--kind", "annulus", "--euclidean",
                                "--radii", value])
    assert code == 2
    assert err.startswith("error:")


def test_density_rejects_a_negative_seed(capsys):
    code, _, err = run(capsys, ["density", "--kind", "tight", "--radii", "4",
                                "--samples", "10", "--seed", "-1"])
    assert code == 2
    assert err.startswith("error:") and "seed" in err


def test_density_annulus_closed_form(capsys):
    code, out, _ = run(capsys, ["density", "--kind", "annulus",
                                "--radii", "10,11,12", "--euclidean"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    for r, K in zip(rows, (10, 11, 12)):
        assert float(r[1]) == pytest.approx(annulus_fraction_euclid(K), abs=1e-15)
        assert r[4] == "closed-form"


def test_density_mc_path(capsys):
    code, out, _ = run(capsys, ["density", "--kind", "tight", "--radii", "2.5",
                                "--seed", "5", "--samples", "4000"])
    assert code == 0
    row = out.strip().splitlines()[1].split(",")
    assert row[4] == "mc"
    assert int(row[3]) == 4000
    assert 0.8 < float(row[1]) < 1.0
    assert float(row[2]) > 0.0


def test_density_mc_past_radius_37(capsys):
    # beyond rho = 37.4 tanh(rho/2) rounds to 1; a sampler built on it
    # puts points at y <= 0, and the command fails
    code, out, err = run(capsys, ["density", "--kind", "tight", "--radii", "40",
                                  "--samples", "2000"])
    assert code == 0, err
    row = out.strip().splitlines()[1].split(",")
    assert row[4] == "mc"
    assert int(row[3]) == 2000
    assert 0.8 < float(row[1]) < 1.0


def test_density_halfspace_quadrature_rows_beside_mc(capsys):
    # radius 60 is past the half-plane quadrature's reach; radii 1 and 2
    # keep their quadrature, and the Monte Carlo row keeps seed 0 + 2
    code, out, _ = run(capsys, ["density", "--kind", "halfspace", "--radii", "1,2,60"])
    assert code == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert [row[4] for row in rows] == ["quadrature", "quadrature", "mc"]
    for row in rows[:2]:
        assert abs(float(row[1]) - 0.5) <= 1e-12
        assert (row[2], row[3]) == ("0", "0")
    est = mc_area_fraction(HalfSpaceRegion(Geodesic.vertical(0.0)), BallSpec(ORIGIN, 60.0),
                           SamplePlan(seed=2, n=20000))
    assert rows[2][1:4] == [f"{est.fraction:.17g}", f"{est.std_error:.17g}", "20000"]


def test_density_bad_radii_fails(capsys):
    code, _, err = run(capsys, ["density", "--kind", "stripe", "--radii", "3,2"])
    assert code == 2
    assert "error:" in err


# ---------------------------------------------------------------- voronoi

def test_voronoi_cell_document(capsys):
    code, out, _ = run(capsys, ["voronoi", "--kind", "tight", "--m", "7"])
    assert code == 0
    doc = json.loads(out)
    assert set(doc) == {"site", "vertices"}
    assert doc["site"] == {"x": 0.0, "y": 1.0}
    assert len(doc["vertices"]) == 7
    assert all(set(v) == {"x", "y"} for v in doc["vertices"])
    # counterclockwise from the vertex straight below the site
    want = [(0.0, 0.5375832014542177), (0.3208945713600302, 0.6206584499374541),
            (0.6130073880031298, 0.9508163936233484),
            (0.47577390127870045, 1.6581762773402215),
            (-0.4757739012786996, 1.6581762773402202),
            (-0.6130073880031298, 0.9508163936233448),
            (-0.32089457136003025, 0.620658449937454)]
    for v, (x, y) in zip(doc["vertices"], want):
        assert abs(v["x"] - x) <= 1e-12 and abs(v["y"] - y) <= 1e-12


def test_voronoi_rejects_other_kinds(capsys):
    code, _, err = run(capsys, ["voronoi", "--kind", "stripe"])
    assert code == 2
    assert "tight" in err


def test_voronoi_rejects_non_center_site(capsys):
    code, _, err = run(capsys, ["voronoi", "--kind", "tight", "--center", "0.2,1.3"])
    assert code == 2
    assert "not a center" in err


# ---------------------------------------------------------------- render

def test_render_packing_svg(capsys):
    code, out, _ = run(capsys, ["render", "--kind", "tight", "--R", "2.0"])
    assert code == 0
    root = ET.fromstring(out)
    assert root.tag.endswith("svg")
    tags = [el.tag.split("}")[-1] for el in root.iter()]
    assert tags.count("circle") >= 20


def test_render_y_log_uses_paths(capsys):
    code, out, _ = run(capsys, ["render", "--kind", "tight", "--R", "2.0", "--y-log"])
    assert code == 0
    tags = [el.tag.split("}")[-1] for el in ET.fromstring(out).iter()]
    assert tags.count("circle") == 0
    assert tags.count("path") >= 20


@pytest.mark.parametrize("argv", [
    ["render", "--kind", "tight", "--R", "2", "--y-log"],
    ["render", "--kind", "tight", "--m", "9", "--R", "3", "--y-log", "--center=0.7,0.4"],
    ["render", "--kind", "boroczky", "--R", "4", "--y-log"],
    ["render", "--kind", "boroczky", "--R", "3", "--y-log", "--center=-2.5,5"],
])
def test_render_y_log_matches_rotation_outlines(capsys, monkeypatch, argv):
    # polar_xy outlines print the same bytes as 64 rotations of each
    # disk's top about its center
    code, out, _ = run(capsys, argv)
    assert code == 0 and out.count("<path") >= 20
    monkeypatch.setattr(svg, "_disk_element", outline_element)
    code, want, _ = run(capsys, argv)
    assert code == 0
    assert out == want


def test_render_empty_window_is_bare(capsys):
    # a cell vertex is the farthest point from every center (about 0.62),
    # so a tiny window there meets no disk of radius 0.55
    code, out, _ = run(capsys, ["voronoi", "--kind", "tight"])
    assert code == 0
    v = json.loads(out)["vertices"][0]
    code, out, _ = run(capsys, ["render", "--kind", "tight", "--R", "0.02",
                                f"--center={v['x']!r},{v['y']!r}"])
    assert code == 0
    tags = [el.tag.split("}")[-1] for el in ET.fromstring(out).iter()]
    assert tags.count("circle") == 0


def test_render_region_kinds(capsys):
    for argv in (
        ["render", "--kind", "stripe", "--R", "4.0", "--y-log"],
        ["render", "--kind", "halfspace", "--R", "3.0"],
        ["render", "--kind", "annulus", "--R", "8.0", "--euclidean"],
        ["render", "--kind", "bricks", "--R", "3.0"],
    ):
        code, out, _ = run(capsys, argv)
        assert code == 0, argv
        ET.fromstring(out)


# ---------------------------------------------------------------- plumbing

def test_out_file_matches_stdout_and_is_deterministic(tmp_path, capsys):
    argv = ["gen", "--kind", "boroczky", "--R", "3.0"]
    code, out, _ = run(capsys, argv)
    assert code == 0
    p1 = tmp_path / "a.json"
    p2 = tmp_path / "b.json"
    assert run(capsys, argv + ["--out", str(p1)])[0] == 0
    assert run(capsys, argv + ["--out", str(p2)])[0] == 0
    assert p1.read_text() == out
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_center_fails(capsys):
    commands = (
        ["gen", "--kind", "tight"],
        ["gen", "--kind", "boroczky"],
        ["density", "--kind", "stripe", "--W", "5", "--radii", "2"],
    )
    for command in commands:
        for center in ("1;2", "a,1", "nan,1", "inf,1"):
            code, _, err = run(capsys, command + ["--center", center])
            assert code == 2, (command, center)
            assert "error:" in err


# ---------------------------------------------------------------- verify

def test_verify_subset_report_and_json(tmp_path, capsys):
    report = tmp_path / "report.json"
    code, out, _ = run(capsys, ["verify", "--criteria", "A3,A4",
                                "--json", str(report)])
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("A3 PASS")
    assert lines[1].startswith("A4 PASS")
    assert lines[-1] == "ALL PASS"
    doc = json.loads(report.read_text())
    assert doc["all_passed"] is True
    assert [c["id"] for c in doc["criteria"]] == ["A3", "A4"]
    assert all(c["passed"] for c in doc["criteria"])


def test_transport_and_metric_criteria_load_no_scipy():
    # in a fresh interpreter neither the transport (A9) nor the packing
    # metric (A10) loads a scipy module
    src = str(Path(hypack.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", "import sys; from hypack.verify import run_criteria; "
                          "assert all(r.passed for r in run_criteria(['A9', 'A10'])); "
                          "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                         env=env, check=True, capture_output=True, text=True).stdout
    assert out == "[]\n"


def test_verify_negative_control_is_caught(capsys):
    code, out, _ = run(capsys, ["verify", "--criteria", "A2,A3,A4,A6",
                                "--negative-control"])
    assert code == 1
    lines = out.strip().splitlines()
    assert all(line.split()[1] == "FAIL" for line in lines[:-1])
    assert lines[-1] == "FAILURES PRESENT"


def test_verify_unknown_criterion(capsys):
    code, _, err = run(capsys, ["verify", "--criteria", "A99"])
    assert code == 2
    assert "unknown criterion" in err

"""Cold wall time and peak RSS of the README's CLI commands, per checkout.

    python3 scripts/cold_cli.py --tree parent=../hypack-parent --tree change=. --runs 5

Each command runs as a fresh interpreter, `hypack.cli.main` with the
checkout's `src` on PYTHONPATH and output to a scratch file, the way a
user at a shell runs it. A round runs every command once per tree, the
order of the trees rotating from round to round. Prints one JSON object:
for each command and tree, the wall seconds and `ru_maxrss` (MB, from
`os.wait4`) of every run and their medians, and the scipy subpackages
(`scipy.spatial`, ...) that each run had loaded when the command returned.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time

COMMANDS = {
    "gen tight": ["gen", "--kind", "tight", "--m", "7", "--R", "3"],
    "gen boroczky": ["gen", "--kind", "boroczky", "--R", "4"],
    "density tight": ["density", "--kind", "tight", "--m", "7", "--radii", "4,6,8",
                      "--samples", "50000", "--seed", "7"],
    "density annulus": ["density", "--kind", "annulus", "--euclidean", "--radii", "10,11,12"],
    "render boroczky": ["render", "--kind", "boroczky", "--R", "4", "--y-log"],
    "voronoi tight": ["voronoi", "--kind", "tight", "--m", "7", "--center", "0,1"],
    "density stripe": ["density", "--kind", "stripe", "--W", "5", "--radii", "2.5,7.5,12.5,17.5"],
}
# runs the command, then writes the scipy subpackages it loaded to the file
# named by COLD_CLI_SCIPY
MAIN = """import json, os, sys
from hypack.cli import main
code = main(sys.argv[1:])
with open(os.environ["COLD_CLI_SCIPY"], "w") as f:
    json.dump(sorted({".".join(m.split(".")[:2]) for m in sys.modules
                      if m.split(".")[0] == "scipy"}), f)
sys.exit(code)
"""


def run_once(tree, argv, out):
    """Wall seconds, peak RSS in MB and the scipy subpackages loaded of one
    cold run of the CLI."""
    loaded = out + ".scipy"
    env = dict(os.environ, PYTHONPATH=os.path.join(os.path.abspath(tree), "src"),
               COLD_CLI_SCIPY=loaded)
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", MAIN, *argv, "--out", out], env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"{' '.join(argv)} exited {code} in {tree}")
    with open(loaded) as f:
        return wall, usage.ru_maxrss / 1024.0, json.load(f)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tree", action="append", required=True, metavar="NAME=PATH")
    parser.add_argument("--runs", type=int, default=5)
    args = parser.parse_args()
    trees = [tuple(t.split("=", 1)) for t in args.tree]

    rows = {cmd: {name: {"wall_s": [], "rss_mb": [], "scipy": []} for name, _ in trees}
            for cmd in COMMANDS}
    with tempfile.TemporaryDirectory() as scratch:
        out = os.path.join(scratch, "out")
        for r in range(args.runs):
            order = trees[r % len(trees):] + trees[:r % len(trees)]
            for cmd, argv in COMMANDS.items():
                for name, path in order:
                    wall, rss, loaded = run_once(path, argv, out)
                    rows[cmd][name]["wall_s"].append(wall)
                    rows[cmd][name]["rss_mb"].append(rss)
                    rows[cmd][name]["scipy"].append(loaded)
    for sides in rows.values():
        for row in sides.values():
            row["median_wall_s"] = statistics.median(row["wall_s"])
            row["median_rss_mb"] = statistics.median(row["rss_mb"])
    print(json.dumps({"runs": args.runs, "python": sys.version.split()[0],
                      "nproc": os.cpu_count(), "commands": rows}, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())

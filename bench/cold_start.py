"""Cold-start benchmark: fresh `infcc` processes per figure, two source trees.

Usage: ``python bench/cold_start.py [--baseline OLD/src]`` (see harness.py).

Each round runs, per bytecode mode, fresh child processes for each figure
and source tree.  For a wall time the trees' processes alternate, REPEATS
processes each, and a tree's figure in the round is its fastest process:

* ``pass_ms``: ``python -c pass``, the bare interpreter;
* ``import_infcc_ms``: ``python -c "import infcc"``;
* ``verb_<verb>_ms``: ``python -m infcc.cli`` on one working argv per verb
  (VERBS), the way the perfbench cli_cold workload runs it;
* ``importtime_infcc_cli_ms`` and ``importtime_infcc_ms``: the cumulative
  times ``python -X importtime -c "import infcc.cli"`` reports for
  ``infcc.cli``, which is the whole import (the package is imported inside
  it), and for the package ``infcc`` alone;
* ``verify_full_ms``: ``python -m infcc.cli verify --size full``;
* ``criterion_9_ms``: criterion 9 (66 in-process ``cli.main`` calls) timed
  inside a child, after its imports.

The two bytecode modes run on private copies of each tree's ``infcc``
package, with ``PYTHONDONTWRITEBYTECODE=1`` as in perfbench's children:
``no_cache`` has no ``__pycache__``, so every module is compiled from source
in every process; ``cache`` was byte-compiled with ``compileall`` first.
A figure's name starts with its mode, as in ``no_cache.verb_cc_ms``.
Rounds, quartiles and ratios are those of harness.py.
The result goes to ``BENCH_cold.json`` at the repository root.
"""

from __future__ import annotations

import compileall
import functools
import re
import shutil
import tempfile
import time
from pathlib import Path

from harness import ROOT, compare, run

OUT = ROOT / "BENCH_cold.json"
ROUNDS = 9
REPEATS = 3  # processes per tree, wall-time figure and round; verify_full_ms runs once
MODES = ("no_cache", "cache")
VERBS = {
    "cc": ["cc", "--triangulation", "zigzag:0", "--arc", "2,7"],
    "flip": ["flip", "--triangulation", "zigzag:0", "--arc", "0,2"],
    "validate": ["validate", "--triangulation", "zigzag:0", "--window", "-3,3"],
    "quiver": ["quiver", "--triangulation", "polygon:0-4:0.2,0.3"],
    "tiling": ["tiling", "--triangulation", "zigzag:0", "--window", "-3,3", "--check"],
    "frontier": ["frontier", "--word", "RURU", "--bbox", "-3,-3,3,3"],
    "reduce": ["reduce", "--triangulation", "fountain:0", "--arc", "-4,0"],
}
CRITERION_9 = """
import random, time
from infcc import verify
t0 = time.perf_counter()
name, ok, detail = verify.criterion_9_reachability(random.Random(20240901 + 9), "full")
dt = time.perf_counter() - t0
if not ok:
    raise SystemExit(detail)
print(1e3 * dt)
"""
WALL = {  # wall-time figure -> interpreter arguments
    "pass_ms": ["-c", "pass"],
    "import_infcc_ms": ["-c", "import infcc"],
    **{f"verb_{verb}_ms": ["-m", "infcc.cli", *argv] for verb, argv in VERBS.items()},
    "verify_full_ms": ["-m", "infcc.cli", "verify", "--size", "full"],
}
_IMPORTTIME = re.compile(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$")


def _importtime_ms(pkg: Path) -> dict:
    err = run(pkg, ["-X", "importtime", "-c", "import infcc.cli"]).stderr
    cumulative = {m[2]: int(m[1]) for m in map(_IMPORTTIME.match, err.splitlines()) if m}
    return {f"importtime_{name.replace('.', '_')}_ms": cumulative[name] / 1e3
            for name in ("infcc", "infcc.cli")}


def measure_round(pkgs: dict) -> dict:
    """tree -> every figure once, from fresh child processes importing infcc from pkgs[tree].

    For a wall-time figure the trees' processes alternate, REPEATS each, so a
    pair of processes is never far apart in time; a tree's figure is its
    fastest process, because host noise only ever adds time.
    """
    out = {name: {} for name in pkgs}
    for figure, args in WALL.items():
        for _ in range(1 if figure == "verify_full_ms" else REPEATS):
            for name, pkg in pkgs.items():
                t0 = time.perf_counter()
                run(pkg, args)
                ms = 1e3 * (time.perf_counter() - t0)
                out[name][figure] = min(out[name].get(figure, ms), ms)
    for name, pkg in pkgs.items():
        out[name].update(_importtime_ms(pkg))
        out[name]["criterion_9_ms"] = float(run(pkg, ["-c", CRITERION_9]).stdout)
    return out


def _package(tmp: Path, name: str, src: Path, mode: str) -> Path:
    """A directory holding a private copy of the tree's infcc package for `mode`, made once."""
    dest = tmp / name / mode
    if not dest.exists():
        shutil.copytree(src / "infcc", dest / "infcc", ignore=shutil.ignore_patterns("__pycache__"))
        if mode == "cache" and not compileall.compile_dir(dest / "infcc", quiet=1):
            raise SystemExit(f"cannot byte-compile {dest / 'infcc'}")
    return dest


def _round(tmp: Path, trees: dict) -> dict:
    """tree -> every figure of both modes once, named mode.figure."""
    out = {name: {} for name in trees}
    for mode in MODES:
        pkgs = {name: _package(tmp, name, src, mode) for name, src in trees.items()}
        for name, figures in measure_round(pkgs).items():
            out[name].update({f"{mode}.{k}": v for k, v in figures.items()})
    return out


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="infcc-cold-") as tmp:
        compare(__doc__, OUT, ROUNDS, functools.partial(_round, Path(tmp)), unit="ms", verbs=VERBS)

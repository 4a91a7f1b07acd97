"""Cold-start benchmark: fresh `infcc` processes per figure, two source trees.

Usage:

    python bench/cold_start.py                      # this checkout only
    python bench/cold_start.py --baseline OLD/src   # OLD/src against this checkout

Each of ROUNDS rounds runs, per bytecode mode, fresh child processes for
each figure and source tree.  For a wall time the trees' processes
alternate (which tree goes first alternates by round), REPEATS processes
each, and a tree's figure in the round is its fastest process:

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
A reported figure is the median over rounds; ratios are baseline / change.
The result goes to ``BENCH_cold.json`` at the repository root.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
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


def _run(pkg: Path, args) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(pkg), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{args} failed under {pkg}:\n{proc.stderr}")
    return proc


def _wall_s(pkg: Path, args) -> float:
    t0 = time.perf_counter()
    _run(pkg, args)
    return time.perf_counter() - t0


def _importtime_ms(pkg: Path) -> dict:
    err = _run(pkg, ["-X", "importtime", "-c", "import infcc.cli"]).stderr
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
                ms = 1e3 * _wall_s(pkg, args)
                out[name][figure] = min(out[name].get(figure, ms), ms)
    for name, pkg in pkgs.items():
        out[name].update(_importtime_ms(pkg))
        out[name]["criterion_9_ms"] = float(_run(pkg, ["-c", CRITERION_9]).stdout)
    return out


def _copies(trees: dict, tmp: Path) -> dict:
    """(tree, mode) -> a directory holding a private copy of the tree's infcc package."""
    pkgs = {}
    for name, src in trees.items():
        for mode in MODES:
            dest = tmp / name / mode
            shutil.copytree(src / "infcc", dest / "infcc",
                            ignore=shutil.ignore_patterns("__pycache__"))
            if mode == "cache" and not compileall.compile_dir(dest / "infcc", quiet=1):
                raise SystemExit(f"cannot byte-compile {dest / 'infcc'}")
            pkgs[name, mode] = dest
    return pkgs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, help="src directory of the tree to compare against")
    args = ap.parse_args(argv)
    trees = {"change": ROOT / "src"}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), **trees}
    samples = {name: {mode: {} for mode in MODES} for name in trees}
    with tempfile.TemporaryDirectory(prefix="infcc-cold-") as tmp:
        pkgs = _copies(trees, Path(tmp))
        for r in range(ROUNDS):
            order = list(trees) if r % 2 == 0 else list(reversed(trees))
            for mode in MODES:
                figures = measure_round({name: pkgs[name, mode] for name in order})
                for name, figs in figures.items():
                    for k, v in figs.items():
                        samples[name][mode].setdefault(k, []).append(v)
            print(f"round {r + 1}/{ROUNDS} done", file=sys.stderr)
    figures = {name: {mode: {k: statistics.median(v) for k, v in s.items()}
                      for mode, s in by_mode.items()}
               for name, by_mode in samples.items()}
    result = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        "unit": "ms",
        "rounds": ROUNDS,
        "verbs": VERBS,
        "figures": figures,
        "samples": samples,
    }
    if "baseline" in figures:
        base, new = figures["baseline"], figures["change"]
        result["ratio_baseline_over_change"] = {
            mode: {k: base[mode][k] / new[mode][k] for k in base[mode]} for mode in MODES}
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result.get("ratio_baseline_over_change", figures["change"]), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

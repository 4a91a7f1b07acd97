"""Shared driver of the layer benchmarks in bench/: two source trees, rounds, one JSON file.

``python bench/<script>.py`` measures this checkout's src as the tree
``change``; with ``--baseline OLD/src`` it measures OLD/src as ``baseline``
too.  Each round runs every figure once per tree, and the tree that runs
first alternates by round, so neither always runs on a warmer machine.  The
reported figure is the median over rounds, beside the lower and upper
quartile (``quartiles``) and every round (``samples``).  A ratio is baseline
/ change of the medians; it reads "unresolved" unless every round of one
tree beat every round of the other, and 1.0 when every round of both trees
read the same value (a deterministic figure such as a tracemalloc peak).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 300  # seconds a child interpreter may take before subprocess.TimeoutExpired
MIN_REPS, MIN_SECONDS = 3, 0.3


class ChildFailed(SystemExit):
    """A child interpreter exited non-zero; the message holds its output."""


def run(path: Path, args) -> subprocess.CompletedProcess:
    """`python *args` in a fresh interpreter that imports infcc from the directory `path`."""
    env = dict(os.environ, PYTHONPATH=str(path), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=TIMEOUT)
    if proc.returncode != 0:
        raise ChildFailed(f"{args} failed under {path}:\n{proc.stdout}{proc.stderr}")
    return proc


def child(script, src: Path) -> dict:
    """measure() of `script` in a fresh interpreter that imports infcc from `src`.

    bench/ goes on the child's sys.path, which runpy.run_path does not do,
    so that the script can import this module.
    """
    code = (f"import json, runpy, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); "
            f"print(json.dumps(runpy.run_path({str(script)!r})['measure']()))")
    return json.loads(run(src, ["-c", code]).stdout)


def time_median(make, fn) -> float:
    """Median seconds of fn(make()) over at least MIN_REPS calls and MIN_SECONDS;
    make() runs outside the timed region."""
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
        arg = make()
        t = time.perf_counter()
        fn(arg)
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def ratio(base: list, new: list):
    """Median of base / median of new, or "unresolved" when the two ranges
    overlap; 1.0 when every round of both trees reads one value."""
    if len({*base, *new}) == 1:
        return 1.0
    if max(base) < min(new) or max(new) < min(base):
        return statistics.median(base) / statistics.median(new)
    return "unresolved"


def compare(doc: str, out: Path, rounds: int, round_fn, argv=None, **about) -> None:
    """Run the rounds and write `out`, with `about` as it is given.

    round_fn({tree: src}) runs every figure once per tree, in the order
    given, and returns {tree: {figure: value}}.
    """
    ap = argparse.ArgumentParser(description=doc.splitlines()[0])
    ap.add_argument("--baseline", type=Path, help="src directory of the tree to compare against")
    args = ap.parse_args(argv)
    trees = {"change": ROOT / "src"}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), **trees}
    samples = {name: {} for name in trees}
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for name, figures in round_fn({name: trees[name] for name in order}).items():
            for k, v in figures.items():
                samples[name].setdefault(k, []).append(v)
        print(f"round {r + 1}/{rounds} done", file=sys.stderr)
    result = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        **about,
        "rounds": rounds,
        "figures": {name: {k: statistics.median(v) for k, v in s.items()} for name, s in samples.items()},
        "quartiles": {name: {k: statistics.quantiles(v, n=4, method="inclusive")[::2]
                             for k, v in s.items()} for name, s in samples.items()},
        "samples": samples,
    }
    if "baseline" in trees:
        base, new = samples["baseline"], samples["change"]
        result["ratio_baseline_over_change"] = {k: ratio(base[k], new[k]) for k in base}
    Path(out).write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result.get("ratio_baseline_over_change", result["figures"]["change"]), indent=2))

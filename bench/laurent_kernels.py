"""Laurent kernel benchmark: per-kernel and end-to-end figures, two source trees.

Usage:

    python bench/laurent_kernels.py                      # this checkout only
    python bench/laurent_kernels.py --baseline OLD/src   # OLD/src against this checkout

Each of ROUNDS rounds runs one fresh child process per source tree
(alternating, so both see the same drift in machine speed; the tree that
runs first alternates by round) and one cold ``infcc verify --size full``
per tree.  A child times, on
``nested_zigzag(0)``:

* ``mul`` and ``div_exact_variable`` on ``cc((2, 11))``, 2584 terms
  (``mul`` multiplies it by ``cc((2, 5))``, 8 terms, from the same session);
* the renderings ``format_fraction``, ``to_json`` and ``json_dumps``
  (``json.dumps(p.to_json())``, the call the CLI makes) on three answers:
  ``cc((2, 11))`` (the bare names), ``cc((2, 10))``, 987 terms (suffix
  ``_987``), and ``cc((2, 5))``, 8 terms (suffix ``_8``);
* ``cc_k14``, ``cc_k22`` and ``cc_k26``: ``cc((2, 10))``, ``cc((2, 14))``
  and ``cc((2, 16))`` on a fresh session, with 14, 22 and 26 crossers and
  987, 46,368 and 317,811 terms; ``cc_k22_peak_mb`` and ``cc_k26_peak_mb``
  are the ``tracemalloc`` peaks of one such call.

A kernel figure is the median of its repetitions inside the child; the
reported figure is the median over rounds, and ``quartiles`` holds the
lower and upper quartile over rounds beside it.  Ratios are baseline /
change; a ratio reads "unresolved" when the two trees' quartile ranges
overlap (the medians stay in ``figures``).
The result goes to ``BENCH_laurent.json`` at the repository root, with the
machine and the Python version.
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
import tracemalloc
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "BENCH_laurent.json"
RENDERINGS = ("format_fraction", "to_json", "json_dumps")
SIZES = {"": (11, 2584), "_987": (10, 987), "_8": (5, 8)}  # suffix: (n of arc (2, n), terms)
CC_FRESH = {"cc_k14": 10, "cc_k22": 14, "cc_k26": 16}  # name: n of arc (2, n)
PEAKS = ("cc_k22", "cc_k26")  # also measured for their tracemalloc peak
KERNELS = ("mul", "div_exact_variable",
           *(r + suffix for suffix in SIZES for r in RENDERINGS), *CC_FRESH)
FIGURES = KERNELS + tuple(name + "_peak_mb" for name in PEAKS) + ("verify_full_s",)
ROUNDS = 5
MIN_REPS, MIN_SECONDS = 3, 0.3


def _time(fn) -> float:
    """Median seconds of fn() over at least MIN_REPS calls and MIN_SECONDS."""
    samples = []
    start = time.perf_counter()
    while len(samples) < MIN_REPS or time.perf_counter() - start < MIN_SECONDS:
        t = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t)
    return statistics.median(samples)


def _peak_mb(fn) -> float:
    """tracemalloc peak of one fn() call, in MB."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def measure() -> dict:
    """Kernel figures (ms, and MB for the peaks) for the infcc found on sys.path."""
    from infcc import CCSession, cc, format_fraction, nested_zigzag
    from infcc.arcs import Arc

    Z = nested_zigzag(0)
    ses = CCSession()
    answers = {suffix: cc(Z, Arc(2, n), ses) for suffix, (n, _) in SIZES.items()}
    sizes = {suffix: len(p.terms) for suffix, p in answers.items()}
    if sizes != {suffix: terms for suffix, (_, terms) in SIZES.items()}:
        raise SystemExit(f"unexpected sizes {sizes}")
    p, q = answers[""], answers["_8"]
    u = Z.crossers(Arc(2, 11))[0]
    fns = {
        "mul": lambda: p * q,
        "div_exact_variable": lambda: p.div_exact_variable(u),
        **{name: lambda n=n: cc(Z, Arc(2, n), CCSession()) for name, n in CC_FRESH.items()},
    }
    for suffix, a in answers.items():
        fns["format_fraction" + suffix] = lambda a=a: format_fraction(a)
        fns["to_json" + suffix] = a.to_json
        fns["json_dumps" + suffix] = lambda a=a: json.dumps(a.to_json())
    out = {name: 1e3 * _time(fns[name]) for name in KERNELS}
    for name in PEAKS:
        out[name + "_peak_mb"] = _peak_mb(fns[name])
    return out


def _child(src: Path) -> dict:
    """measure() in a fresh interpreter that imports infcc from `src`."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    code = f"import json, runpy; print(json.dumps(runpy.run_path({__file__!r})['measure']()))"
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _verify_seconds(src: Path) -> float:
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    t = time.perf_counter()
    done = subprocess.run([sys.executable, "-m", "infcc.cli", "verify", "--size", "full"],
                          env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - t
    if done.returncode != 0 or done.stdout.count("[PASS]") != 10:
        raise SystemExit(f"verify --size full failed under {src}:\n{done.stdout}{done.stderr}")
    return seconds


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--baseline", type=Path, help="src directory of the tree to compare against")
    args = ap.parse_args(argv)
    trees = {"change": ROOT / "src"}
    if args.baseline is not None:
        trees = {"baseline": args.baseline.resolve(), **trees}
    samples = {name: {k: [] for k in FIGURES} for name in trees}
    for r in range(ROUNDS):
        # alternate which tree runs first, so neither always runs on a warmer machine
        for name in (list(trees) if r % 2 == 0 else list(reversed(trees))):
            src = trees[name]
            for k, v in _child(src).items():
                samples[name][k].append(v)
            samples[name]["verify_full_s"].append(_verify_seconds(src))
        print(f"round {r + 1}/{ROUNDS} done", file=sys.stderr)
    figures = {name: {k: statistics.median(v) for k, v in s.items()} for name, s in samples.items()}
    quartiles = {name: {k: statistics.quantiles(v, n=4, method="inclusive")[::2] for k, v in s.items()}
                 for name, s in samples.items()}
    result = {
        "machine": {
            "platform": platform.platform(),
            "processor": platform.processor() or platform.machine(),
            "cpu_count": os.cpu_count(),
        },
        "python": platform.python_version(),
        "sizes": {
            "family": "nested_zigzag(0)", "mul_by_terms": 8,
            "cc_k14_terms": 987, "cc_k22_terms": 46368, "cc_k26_terms": 317811,
            **{name + "_arc": [2, n] for name, n in CC_FRESH.items()},
            **{"terms" + suffix: terms for suffix, (_, terms) in SIZES.items()},
            **{"arc" + suffix: [2, n] for suffix, (n, _) in SIZES.items()},
        },
        "units": {**{k: "ms" for k in KERNELS}, **{name + "_peak_mb": "MB" for name in PEAKS},
                  "verify_full_s": "s"},
        "rounds": ROUNDS,
        "figures": figures,
        "quartiles": quartiles,
        "samples": samples,
    }
    if "baseline" in figures:
        base, new = figures["baseline"], figures["change"]
        bq, cq = quartiles["baseline"], quartiles["change"]
        result["ratio_baseline_over_change"] = {
            k: "unresolved" if bq[k][0] <= cq[k][1] and cq[k][0] <= bq[k][1] else base[k] / new[k]
            for k in base}
    OUT.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps(result.get("ratio_baseline_over_change", figures["change"]), indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Laurent kernel benchmark: per-kernel and end-to-end figures, two source trees.

Usage: ``python bench/laurent_kernels.py [--baseline OLD/src]`` (see harness.py).

Each round runs one fresh child process and one cold ``infcc verify --size
full`` per source tree.  A child times, on ``nested_zigzag(0)``:

* ``mul`` and ``div_exact_variable`` on ``cc((2, 11))``, 2584 terms
  (``mul`` multiplies it by ``cc((2, 5))``, 8 terms, from the same session);
* the renderings ``format_fraction``, ``to_json`` and ``json_dumps``
  (``json.dumps(p.to_json())``, the call the CLI makes) on three answers:
  ``cc((2, 11))`` (the bare names), ``cc((2, 10))``, 987 terms (suffix
  ``_987``), and ``cc((2, 5))``, 8 terms (suffix ``_8``);
* ``cc_k8``, ``cc_k14``, ``cc_k22`` and ``cc_k26``: ``cc((2, 7))``,
  ``cc((2, 10))``, ``cc((2, 14))`` and ``cc((2, 16))`` on a fresh session,
  with 8, 14, 22 and 26 crossers and 55, 987, 46,368 and 317,811 terms
  (``cc_k8`` is where cc_deep's median operation sits);
  ``cc_k22_peak_mb`` and ``cc_k26_peak_mb``
  are the ``tracemalloc`` peaks of one such call.

A kernel figure is the median of its repetitions inside the child.
Rounds, quartiles and ratios are those of harness.py.
The result goes to ``BENCH_laurent.json`` at the repository root, with the
machine and the Python version.
"""

from __future__ import annotations

import json
import time
import tracemalloc

from harness import ROOT, child, compare, run, time_median

OUT = ROOT / "BENCH_laurent.json"
RENDERINGS = ("format_fraction", "to_json", "json_dumps")
SIZES = {"": (11, 2584), "_987": (10, 987), "_8": (5, 8)}  # suffix: (n of arc (2, n), terms)
CC_FRESH = {"cc_k8": 7, "cc_k14": 10, "cc_k22": 14, "cc_k26": 16}  # name: n of arc (2, n)
PEAKS = ("cc_k22", "cc_k26")  # also measured for their tracemalloc peak
KERNELS = ("mul", "div_exact_variable",
           *(r + suffix for suffix in SIZES for r in RENDERINGS), *CC_FRESH)
ROUNDS = 5


def _peak_mb(make, fn) -> float:
    """tracemalloc peak of one fn(make()) call, in MB."""
    arg = make()
    tracemalloc.start()
    try:
        fn(arg)
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def measure() -> dict:
    """Kernel figures (ms, and MB for the peaks) for the infcc found on sys.path."""
    from infcc import CCSession, LaurentPoly, cc, format_fraction, nested_zigzag
    from infcc.arcs import Arc

    Z = nested_zigzag(0)
    ses = CCSession()
    answers = {suffix: cc(Z, Arc(2, n), ses) for suffix, (n, _) in SIZES.items()}
    sizes = {suffix: len(p.terms) for suffix, p in answers.items()}
    if sizes != {suffix: terms for suffix, (_, terms) in SIZES.items()}:
        raise SystemExit(f"unexpected sizes {sizes}")
    p, q = answers[""], answers["_8"]
    u = Z.crossers(Arc(2, 11))[0]
    fns = {  # name: (make, fn), timed as fn(make())
        "mul": (lambda: p, lambda a: a * q),
        "div_exact_variable": (lambda: p, lambda a: a.div_exact_variable(u)),
        **{name: (CCSession, lambda s, n=n: cc(Z, Arc(2, n), s)) for name, n in CC_FRESH.items()},
    }
    for suffix, a in answers.items():
        fns["format_fraction" + suffix] = (lambda a=a: a, format_fraction)
        fns["to_json" + suffix] = (lambda a=a: a, LaurentPoly.to_json)
        fns["json_dumps" + suffix] = (lambda a=a: a, lambda a: json.dumps(a.to_json()))
    out = {name: 1e3 * time_median(*fns[name]) for name in KERNELS}
    for name in PEAKS:
        out[name + "_peak_mb"] = _peak_mb(*fns[name])
    return out


def _round(trees: dict) -> dict:
    """tree -> every figure once: measure() in a child, then one cold verify --size full."""
    out = {}
    for name, src in trees.items():
        out[name] = child(__file__, src)
        t = time.perf_counter()
        done = run(src, ["-m", "infcc.cli", "verify", "--size", "full"])
        out[name]["verify_full_s"] = time.perf_counter() - t
        if done.stdout.count("[PASS]") != 10:
            raise SystemExit(f"verify --size full failed under {src}:\n{done.stdout}")
    return out


if __name__ == "__main__":
    compare(
        __doc__, OUT, ROUNDS, _round,
        sizes={
            "family": "nested_zigzag(0)", "mul_by_terms": 8,
            "cc_k8_terms": 55, "cc_k14_terms": 987, "cc_k22_terms": 46368, "cc_k26_terms": 317811,
            **{name + "_arc": [2, n] for name, n in CC_FRESH.items()},
            **{"terms" + suffix: terms for suffix, (_, terms) in SIZES.items()},
            **{"arc" + suffix: [2, n] for suffix, (n, _) in SIZES.items()},
        },
        units={**{k: "ms" for k in KERNELS}, **{name + "_peak_mb": "MB" for name in PEAKS},
               "verify_full_s": "s"})

"""Seeded benchmark of infcc: end-to-end metrics, or per-layer metrics traced.

Run from the repository root:

    python3 perfbench/run.py --workload cc_deep --seed 1 --seconds 20 --trace 0

Workloads: cc_deep, tiling_window, polygon_routes, cli_cold (BENCHMARK.json
says why each exists).  Load is one process with one closed-loop client: the
next operation starts when the previous one ends.  The run goes through whole
sets of operations, each freshly generated from the seed with the same
stratified mix, until the timed operations add up to --seconds; no operation
repeats.  Every answer is checked outside the timed region; a wrong answer,
an unexpected exception or an unexpected exit code is a failed operation.

Timings are gated in reference units.  A fixed pure-Python task of dict and
tuple work, independent of infcc, is timed between consecutive operations,
and each operation's latency is divided by the mean of the two reference
timings around it.  The host's speed swings by 10-30 % within seconds and
over minutes; the ratio cancels most of that swing, while a change to infcc
moves it in full.  The same latencies in ms are printed in the report.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  With --trace 0 the metrics are the end-to-end
ones (BENCHMARK.json "end_to_end"); with --trace 1 they are the per-layer
ones ("per_layer"), from wrappers around infcc's public functions.  The lines
before it are a human-readable report: machine, seed, every metric with its
unit, sample counts and latency by the quantity that drives cost.  Each run
also writes its per-operation records (and, traced, its spans) to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter
from typing import NamedTuple, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
VERIFY_SEED = 20240901  # the default seed of `infcc verify`


class Rec(NamedTuple):
    seconds: float
    ref: float  # reference-task seconds around the operation
    failure: Optional[str]
    key: str  # size group, e.g. "k=12" or "staircase hw=20"
    size: dict  # the quantities that drive the operation's cost
    label: str


def _fail(msg):
    sys.stderr.write(f"perfbench: {msg}\n")
    return 2


def _setup(workload, seed):
    """Import infcc and build the first set of operations.

    Returns (seconds, workload, sets), where `sets` yields that first set
    and then fresh sets from the same seeded generator.
    """
    t0 = perf_counter()
    import infcc  # noqa: F401  (timed: the cold import is part of set-up)
    from perfbench.workloads import WORKLOADS

    w = WORKLOADS[workload]
    rng = random.Random(seed)
    first = w.build(rng)
    seconds = perf_counter() - t0

    def sets():
        yield first
        while True:
            yield w.build(rng)

    return seconds, w, sets()


def _setup_in_children(workload, seed):
    """Set-up times of fresh interpreters, each importing infcc cold."""
    from perfbench.workloads import child_env

    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, env=child_env(), cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout.split()[-1]))
    return times


def _reference():
    acc = {}
    for i in range(600):
        key = tuple(sorted(((i * 7) % 13, (i * 11) % 17, i % 5)))
        acc[key] = acc.get(key, 0) + i * i
    return len(acc)


def _reference_s():
    """Seconds for the reference task; the collector is off so heap size cannot matter."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        _reference()
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def _pass(w, ops, run, check, tracer=None):
    """Run one set of operations; returns their records."""
    records = []
    ref_before = _reference_s()
    for op in ops:
        if tracer is not None:
            tracer.active = True
        t0 = perf_counter()
        try:
            out, err = run(op), None
        except Exception as e:  # an unexpected exception is a failed operation
            out, err = None, f"{type(e).__name__}: {e}"
        dt = perf_counter() - t0
        if tracer is not None:
            tracer.active = False
            tracer.end_op()
        ref_after = _reference_s()
        if err is None:
            err = check(op, out)
        size, key = w.size(op, out) if out is not None else ({}, "error")
        label = " ".join(op.argv) if hasattr(op, "argv") else op.label
        records.append(Rec(dt, (ref_before + ref_after) / 2, err, key, size, label))
        ref_before = ref_after
    return records


def _timed(records):
    return sum(r.seconds for r in records)


def _tail(values):
    """The value with exactly ten samples beyond it, and its percentile."""
    s = sorted(values)
    i = max(len(s) - 11, 0)
    return s[i], 100.0 * (i + 1) / len(s)


def _verify_full():
    from perfbench.workloads import run_cli_child

    dt, code, out, err = run_cli_child(["verify", "--size", "full"], timeout=170)
    ok = code == 0 and out.count("[PASS]") == 10 and "Traceback" not in err
    return dt, ok, out


def _machine(args):
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "loadavg": [round(x, 2) for x in os.getloadavg()],
        "platform": platform.platform(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _by_size(records):
    groups = {}
    for r in records:
        groups.setdefault(r.key, []).append(r)
    lines = []
    for key in sorted(groups):
        rows = groups[key]
        med = statistics.median(r.seconds for r in rows)
        ratio = statistics.median(r.seconds / r.ref for r in rows)
        sizes = {}
        for r in rows:
            for name, v in r.size.items():
                sizes.setdefault(name, []).append(v)
        costs = " ".join(f"{n}={statistics.median(v):g}" for n, v in sizes.items())
        lines.append(f"  size {key:<22} n={len(rows):<4} p50={1e3 * med:9.3f} ms "
                     f"{ratio:10.2f} ref  {costs}")
    return lines


def _failures(records, limit=20):
    lines = []
    for err, label in dict.fromkeys((r.failure, r.label) for r in records if r.failure):
        lines.append(f"  failure: {err} [{label}]")
        if len(lines) >= limit:
            break
    return lines


def _probe_lines(w, seed):
    """Run the ROADMAP item 4 probes cold; list every mismatch by argv."""
    from perfbench.workloads import cli_mismatch, run_cli_child

    probes = w.probes(random.Random(seed ^ 0x5EED))
    lines, bad = [], 0
    for op in probes:
        _, code, out, err = run_cli_child(op.argv)
        why = cli_mismatch(op, code, out, err)
        if why is not None:
            bad += 1
            lines.append(f"  probe-failure: {why} [{' '.join(op.argv)}]")
    head = (f"validation probes (ROADMAP item 4, expected exit 1): "
            f"{bad} of {len(probes)} mismatched, probe_failed_ratio {bad / len(probes):.3f}")
    return [head] + lines, bad


def run_untraced(args, machine, w, sets, setup_first):
    records, n_sets = [], 0
    for ops in sets:
        records += _pass(w, ops, w.run, w.check)
        n_sets += 1
        if _timed(records) >= args.seconds:
            break
    timed = _timed(records)
    if w.name == "cli_cold":
        peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    setups = [setup_first] + _setup_in_children(args.workload, args.seed)

    n = len(records)
    lat = [r.seconds for r in records]
    rel = [r.seconds / r.ref for r in records]
    failed = sum(1 for r in records if r.failure)
    p90, q = _tail(lat)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_ref": (statistics.median(rel), "ref"),
        "op_p90_ref": (_tail(rel)[0], "ref"),
        "ops_per_ref": (n / sum(rel), "1/ref"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
    }
    ref_ms = 1e3 * statistics.median(r.ref for r in records)
    print(f"setup_s       {metrics['setup_s'][0]:.4f} s  (median of {len(setups)} set-ups)")
    print(f"op_p50_ms     {1e3 * statistics.median(lat):.3f} ms; "
          f"op_p50_ref {metrics['op_p50_ref'][0]:.3f} ref  (n={n})")
    print(f"op_p90_ms     {1e3 * p90:.3f} ms; op_p90_ref {metrics['op_p90_ref'][0]:.3f} ref  "
          f"(p{q:.1f}, n={n})")
    print(f"ops_per_s     {n / timed:.3f} 1/s; ops_per_ref {metrics['ops_per_ref'][0]:.6f} 1/ref  "
          f"({n} ops in {timed:.2f} s timed, {n_sets} sets)")
    print(f"ref           {ref_ms:.4f} ms  (median reference task)")
    print(f"failed_ratio  {failed / n:.4f}  ({failed} of {n})")
    print(f"peak_rss_mb   {metrics['peak_rss_mb'][0]:.2f} MB"
          + ("  (peak over the CLI child processes)" if w.name == "cli_cold" else ""))
    if w.name == "tiling_window":
        cells = sum(r.size.get("cells", 0) for r in records)
        print(f"cells_per_s   {cells / timed:.1f} 1/s  ({cells} cells)")
    verify_ok = True
    if w.name == "cli_cold":
        # one 5-7 s sample per run is too exposed to host noise to gate
        verify_s, verify_ok, verify_out = _verify_full()
        print(f"verify_full_s {verify_s:.4f} s  (cold `infcc verify --size full`, "
              f"{'exit 0, 10 PASS' if verify_ok else 'FAILED'})")
        if not verify_ok:
            print("  failure: verify --size full did not pass\n" + verify_out)
    print("\n".join(_by_size(records)))
    print("\n".join(_failures(records)) or "  no failed operations")
    if w.name == "cli_cold":
        print("\n".join(_probe_lines(w, args.seed)[0]))
    _write_out(args, machine, metrics, records)
    return failed == 0 and verify_ok, n, failed, metrics


def _layer_table():
    """Per-layer metric name -> unit, in BENCHMARK.json order."""
    path = ROOT / "BENCHMARK.json"
    return {m["name"]: m["unit"] for m in json.loads(path.read_text())["per_layer"]}


def _criteria():
    """Each verify criterion in process, with the seeds run_suite uses."""
    from infcc import verify

    times, bad = [], []
    for i, fn in enumerate(verify.CRITERIA, start=1):
        t0 = perf_counter()
        name, ok, detail = fn(random.Random(VERIFY_SEED + i), "full")
        times.append(perf_counter() - t0)
        if not ok:
            bad.append(f"criterion {i} {name}: {detail}")
    return times, bad


def _import_ms(repeats=7):
    """Cold `import infcc` minus a bare interpreter, medians over child processes."""
    from perfbench.workloads import child_env

    bare, full = [], []
    for _ in range(repeats):
        for code, acc in (("pass", bare), ("import infcc", full)):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", code], check=True, env=child_env(),
                           cwd=ROOT, timeout=60)
            acc.append(perf_counter() - t0)
    return 1e3 * (statistics.median(full) - statistics.median(bare))


def run_traced(args, machine, w, sets):
    from perfbench.tracer import Tracer

    # cli_cold runs cli.main in process here, so the layers under it are traced
    run = getattr(w, "run_in_process", w.run)
    check = getattr(w, "check_in_process", w.check)
    # untraced and traced sets alternate, so both see the same host state
    plain, traced, n_sets = [], [], 0
    tracer = Tracer()
    while n_sets == 0 or _timed(plain) + _timed(traced) < args.seconds:
        plain += _pass(w, next(sets), run, check)
        tracer.install()
        try:
            traced += _pass(w, next(sets), run, check, tracer)
        finally:
            tracer.uninstall()
        n_sets += 1
    records = plain + traced

    per_set = {}
    for name, calls in tracer.calls.items():
        per_set[f"{name}.calls"] = calls / n_sets
        per_set[f"{name}.self_ms"] = tracer.self_ns[name] / 1e6 / n_sets
    for name, v in tracer.counts.items():
        per_set[name] = v if name == "laurent.peak_terms" else v / n_sets
    masks = per_set.get("modules.submodule_classes.masks", 0)
    per_set["modules.submodule_classes.useful_ratio"] = (
        per_set.get("modules.submodule_classes.entries", 0) / masks if masks else 0.0)
    untraced_rate = len(plain) / _timed(plain)
    traced_rate = len(traced) / _timed(traced)
    per_set["trace.overhead_ratio"] = untraced_rate / traced_rate

    failed, notes = sum(1 for r in records if r.failure), []
    if w.name == "cli_cold":
        per_set["cli.import_ms"] = _import_ms()
        lines, mismatched = _probe_lines(w, args.seed)
        per_set["cli.exit_mismatch"] = mismatched + sum(1 for r in traced if r.failure)
        notes += lines
        times, bad = _criteria()
        for i, t in enumerate(times, start=1):
            per_set[f"verify.criterion_{i}_s"] = t
        per_set["verify.criteria_sum_s"] = sum(times)
        verify_s, verify_ok, _ = _verify_full()
        notes.append(f"verify: criteria in process sum to {sum(times):.3f} s; "
                     f"cold `verify --size full` {verify_s:.3f} s "
                     f"({'exit 0, 10 PASS' if verify_ok else 'FAILED'})")
        notes += [f"  failure: {b}" for b in bad]
        failed += len(bad) + (not verify_ok)

    metrics = {name: (float(per_set.get(name, 0.0)), unit)
               for name, unit in _layer_table().items()}
    calls = tracer.calls
    predictions = {
        "no laurent or exchange calls on tiling_window":
            w.name != "tiling_window" or not (calls["laurent.mul"] or calls["exchange.cc"]),
        "no submodule_classes or reduction calls on cc_deep and tiling_window":
            w.name not in ("cc_deep", "tiling_window") or not (
                calls["modules.submodule_classes"] or calls["reduction.reduce"]
                or calls["reduction.cc_bar"]),
        "no cli calls outside cli_cold": w.name == "cli_cold" or not calls["cli.main"],
    }

    print(f"traced: {len(traced)} ops in {n_sets} sets, per-layer figures per set; "
          f"ops_per_s untraced {untraced_rate:.3f} 1/s, traced {traced_rate:.3f} 1/s")
    for name, (v, unit) in metrics.items():
        print(f"  {name:<45} {v:14.4f} {unit}")
    for text, ok in predictions.items():
        print(f"prediction {'holds' if ok else 'FAILS'}: {text}")
    print("\n".join(notes))
    print("\n".join(_failures(records)) or "  no failed operations")
    _write_out(args, machine, metrics, records, tracer)
    return failed == 0, len(records), failed, metrics


def _write_out(args, machine, metrics, records, tracer=None):
    """Per-operation records (and spans, when traced) for later analysis."""
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    data = {
        "machine": machine,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "ops": [{"label": r.label, "seconds": r.seconds, "ref_seconds": r.ref,
                 "failure": r.failure, **r.size} for r in records],
    }
    if tracer is not None:
        data["spans"] = {"fields": ["id", "parent", "op", "name", "start_ns", "end_ns"],
                         "rows": tracer.spans, "dropped": tracer.dropped}
    path.write_text(json.dumps(data))
    print(f"records: {path.relative_to(ROOT)}")


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=["cc_deep", "tiling_window", "polygon_routes", "cli_cold"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not (SRC / "infcc" / "__init__.py").is_file():
        return _fail(f"no infcc sources under {SRC}; run from a checkout of the repository")
    sys.path[:0] = [str(SRC), str(ROOT)]
    if args.setup_probe:
        print(repr(_setup(args.workload, args.seed)[0]))
        return 0

    machine = _machine(args)  # load average before any work
    setup_first, w, sets = _setup(args.workload, args.seed)
    import infcc

    if Path(infcc.__file__).resolve().parent != SRC / "infcc":
        return _fail(f"imported infcc from {infcc.__file__}, not from {SRC}")
    print("machine " + json.dumps(machine))
    if args.trace:
        correct, attempted, failed, metrics = run_traced(args, machine, w, sets)
    else:
        correct, attempted, failed, metrics = run_untraced(args, machine, w, sets, setup_first)
    result = {
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

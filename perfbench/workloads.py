"""The four benchmark workloads: seeded inputs, one timed operation, checks.

``build(rng)`` makes one set of operations from a ``random.Random`` seeded by
the benchmark seed; the library only ever sees the generated inputs.  A set
is stratified: every set holds the same mix of families, sizes and formats,
and the seed picks the concrete instances, so runs on different seeds, and
sets within a run, measure the same mix.  No operation repeats, so nothing
can be reused from one operation to the next.

``run(op)`` is the timed part.  ``check(op, out)`` runs outside the timed
region and returns a failure reason or None; where the library has a second
route to an answer, the check uses it.  ``size(op, out)`` names the quantity
that drives the operation's cost.  Every call into the library goes through a module
attribute (``infcc.cc(...)``), so the tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import infcc
from infcc import cli, tilings
from infcc.arcs import Arc

ROOT = Path(__file__).resolve().parent.parent


def _flipped(T, rng, count, lo, hi):
    """T after `count` random flips of members inside [lo, hi], and the targets."""
    targets = []
    for _ in range(count):
        t = rng.choice(T.members_in_window(lo, hi))
        targets.append(t)
        T = T.flip(t).new_triangulation
    return T, tuple(targets)


def _base(rng, family):
    a = rng.randint(-2, 2)
    if family == "zigzag":
        return infcc.nested_zigzag(a), a
    if family == "staircase":
        word = "".join(rng.choice("UR") for _ in range(rng.randint(2, 8)))
        return infcc.staircase((a, a + 2), word), a
    return infcc.fountain(a), a


# ---------------------------------------------------------------------------
# cc_deep


@dataclass
class CCOp:
    base: object
    flips: tuple
    arc: Arc
    fmt: str
    k: int
    straddles: bool
    label: str


class CCDeep:
    """Flip sequence, cc on a fresh session, rendering; no reuse across ops."""

    name = "cc_deep"
    K = range(4, 15)
    DEPTH_TRIES = 6
    STRADDLE_PER_SET = 6

    def build(self, rng):
        ops = [self._reachable(rng, family, k, fmt)
               for family in ("zigzag", "staircase", "fountain")
               for k in self.K for fmt in ("text", "json")]
        # op_p90 is the 11th-largest latency.  Two more k=14 renderings per set
        # give a run about twenty of its slowest kind of operation, so the
        # 11th largest falls inside that group rather than at its lower edge.
        ops += [self._reachable(rng, family, self.K[-1], "text")
                for family in ("zigzag", "staircase")]
        ops += [self._straddling(rng) for _ in range(self.STRADDLE_PER_SET)]
        rng.shuffle(ops)
        return ops

    def _reachable(self, rng, family, k, fmt):
        """A reachable arc crossing k members, the deepest of a few candidates.

        Depth is the submodule count, which bounds the number of terms; taking
        the deepest of DEPTH_TRIES arcs keeps the cost at a given k steady
        from seed to seed.
        """
        base, a = _base(rng, family)
        T, flips = _flipped(base, rng, rng.randint(0, 6), a - 6, a + 7)
        if family == "fountain":
            # one side of the fountain vertex a: q <= a or p >= a
            if rng.random() < 0.5:
                cands = [Arc(m, n) for n in range(a - 3, a + 1) for m in range(a - 20, n - 1)]
            else:
                cands = [Arc(m, n) for m in range(a, a + 4) for n in range(m + 2, a + 21)]
            rng.shuffle(cands)
        else:
            # an arc of length L crosses about 2L - 2 members: try those lengths first
            cands = []
            for length in sorted(range(2, k + 2), key=lambda L: abs(2 * L - 2 - k)):
                row = [Arc(m, m + length) for m in range(a - length - 3, a + 4)]
                rng.shuffle(row)
                cands += row
        best, nearest, found = None, None, 0
        for d in cands:
            if T.is_member(d):
                continue
            kd = len(T.crossers(d))
            if kd != k:
                if nearest is None or abs(kd - k) < abs(nearest[0] - k):
                    nearest = (kd, d)
                continue
            depth = infcc.count_submodules(infcc.g_module(T, d))
            if best is None or depth > best[0]:
                best = (depth, d)
            found += 1
            if found == self.DEPTH_TRIES:
                break
        if best is None:  # no arc crosses exactly k members: the nearest one
            return CCOp(base, flips, nearest[1], fmt, nearest[0], False, f"{family} k={k}")
        return CCOp(base, flips, best[1], fmt, k, False, f"{family} k={k}")

    def _straddling(self, rng):
        base, a = _base(rng, "fountain")
        _, flips = _flipped(base, rng, rng.randint(0, 6), a - 6, a + 7)
        m = rng.randint(a - 8, a - 1)
        d = Arc(m, rng.randint(a + 1, a + 8))
        return CCOp(base, flips, d, "text", 0, True, "fountain straddle")

    def run(self, op):
        T = op.base
        for t in op.flips:
            T = T.flip(t).new_triangulation
        try:
            p = infcc.cc(T, op.arc, infcc.CCSession())
        except infcc.Unreachable:
            return T, None, None
        text = infcc.format_fraction(p) if op.fmt == "text" else json.dumps(p.to_json())
        return T, p, text

    def check(self, op, out):
        T, p, text = out
        if op.straddles or p is None:
            # Unreachable exactly for arcs straddling the fountain vertex
            return None if op.straddles and p is None else f"Unreachable mismatch at {tuple(op.arc)}"
        if not text:
            return "empty rendering"
        if any(c <= 0 for c in p.coefficients()):
            return f"non-positive coefficient at {tuple(op.arc)}"
        if p.eval_all_ones() != infcc.count_submodules(infcc.g_module(T, op.arc)):
            return f"value at all-ones != submodule count at {tuple(op.arc)}"
        if infcc.LaurentPoly.from_json(p.to_json()) != p:
            return f"JSON round trip changed the value at {tuple(op.arc)}"
        return None

    def size(self, op, out):
        p = out[1]
        if op.straddles:
            return {}, "straddle"
        return {"k": op.k, "terms": len(p.terms)}, f"k={op.k:02d}"


# ---------------------------------------------------------------------------
# tiling_window


@dataclass
class TilingOp:
    kind: str  # 'tiling' | 'frontier'
    T: object = None
    lo: int = 0
    hi: int = 0
    frontier: object = None
    bbox: tuple = ()
    recurrence: bool = False
    label: str = ""


class TilingWindow:
    """tiling --check on locally finite families, plus frontier extension."""

    name = "tiling_window"
    HALF_WIDTHS = (10, 12, 14, 16, 18, 20)
    WORD_LENGTHS = (3, 6, 9, 12)

    def build(self, rng):
        ops = []
        for family in ("zigzag", "staircase"):
            for hw in self.HALF_WIDTHS:
                width = hw - rng.randint(0, 1)  # fill the gaps between strata
                base, a = _base(rng, family)
                T, _ = _flipped(base, rng, rng.randint(0, 6), a - 6, a + 7)
                ops.append(TilingOp("tiling", T=T, lo=a - width, hi=a + width,
                                    label=f"{family} hw={hw}"))
        for length in self.WORD_LENGTHS:
            word = "".join(rng.choice("UR") for _ in range(length))
            a = rng.randint(-2, 2)
            span = length + 4
            ops.append(TilingOp("frontier", frontier=infcc.Frontier(word, anchor=a),
                                bbox=(a - span, a - 2, a + 3, a + span),
                                label=f"frontier len={length}"))
        rng.shuffle(ops)
        for i, op in enumerate(o for o in ops if o.kind == "tiling"):
            op.recurrence = i % 3 == 0
        return ops

    def run(self, op):
        if op.kind == "frontier":
            return infcc.extend_frontier(op.frontier, op.bbox), None
        W = infcc.tiling_window(op.T, op.lo, op.hi)
        return W, infcc.verify_sl2(W)

    def check(self, op, out):
        W, bad = out
        if min(W.values.values()) < 1:
            return "non-positive entry"
        if op.kind == "frontier":
            if infcc.verify_sl2(W):
                return f"frontier {op.frontier.word}: unimodular relation violated"
            i_lo, j_lo, i_hi, j_hi = op.bbox
            for i, j in op.frontier.points_covering(*op.bbox):
                if i_lo <= i <= i_hi and j_lo <= j <= j_hi and W.values[(i, j)] != 1:
                    return f"frontier {op.frontier.word}: path cell ({i},{j}) is not 1"
            return None
        if bad:
            return f"{len(bad)} violated relations on [{op.lo},{op.hi}]"
        ones = {p for p, v in W.values.items() if v == 1}
        members = {(a.m, a.n) for a in op.T.members_in_window(op.lo, op.hi)}
        if ones != members:
            return f"r == 1 off the members on [{op.lo},{op.hi}]"
        if op.recurrence:
            R = tilings.recurrence_window(op.T, op.lo, op.hi, strict=False)
            if not R or any(W.values[p] != v for p, v in R.items()):
                return f"recurrence oracle disagrees on [{op.lo},{op.hi}]"
        return None

    def size(self, op, out):
        cells = len(out[0].values)
        if op.kind == "frontier":
            return {"cells": cells, "walk": len(op.frontier.word)}, op.label
        return {"cells": cells}, op.label


# ---------------------------------------------------------------------------
# polygon_routes


@dataclass
class PolygonOp:
    kind: str  # 'polygon' | 'reduce'
    T: object
    t: Arc = None
    label: str = ""


class PolygonRoutes:
    """Both routes on every diagonal of a polygon; reduce plus cc_bar sweeps."""

    name = "polygon_routes"
    VERTICES = range(8, 14)

    def build(self, rng):
        ops = []
        for n in self.VERTICES:
            diags = sorted(infcc.random_polygon_triangulation(0, n - 1, rng))
            ops.append(PolygonOp("polygon", infcc.polygon(0, n - 1, diags),
                                 label=f"{n:02d}-gon"))
        for family in ("fountain", "zigzag"):
            base, a = _base(rng, family)
            width = rng.randint(5, 8)
            if family == "fountain":
                t = Arc(a - width, a) if rng.random() < 0.5 else Arc(a, a + width)
            else:
                j = (width - 2) // 2
                t = Arc(a - j, a + j + 2) if width % 2 == 0 else Arc(a - j - 1, a + j + 2)
            ops.append(PolygonOp("reduce", base, t, label=f"reduce {family}"))
        rng.shuffle(ops)
        return ops

    def run(self, op):
        if op.kind == "polygon":
            P = op.T
            diagonals = infcc.polygon_diagonals(P.base.lo, P.base.hi)
            session = infcc.CCSession()
            return [(infcc.cc(P, c, session), infcc.cc_direct(P, c)) for c in diagonals]
        T, t = op.T, op.t
        red = infcc.reduce(T, t)
        U = infcc.u_of(T, t)
        ambient, model = infcc.CCSession(), infcc.CCSession()
        return [(infcc.cc_bar(T, U, d, ambient), infcc.cc(red.model, d, model))
                for d in infcc.polygon_diagonals(t.m, t.n)]

    def check(self, op, out):
        for i, (a, b) in enumerate(out):
            if a != b:
                what = "cc != cc_direct" if op.kind == "polygon" else "cc_bar != cc(model)"
                return f"{op.label}: {what} on diagonal #{i}"
            if any(c <= 0 for c in a.coefficients()):
                return f"{op.label}: non-positive coefficient on diagonal #{i}"
        return None

    def size(self, op, out):
        if op.kind == "polygon":
            return {"vertices": op.T.base.hi + 1, "diagonals": len(out)}, op.label
        return {"rank": op.t.n - op.t.m - 2, "diagonals": len(out)}, op.label


# ---------------------------------------------------------------------------
# cli_cold


@dataclass
class CLIOp:
    argv: list
    expect: int  # exit code of the argv's class: 0 ok, 1 usage error, 2 refusal
    label: str = ""


def child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_child(argv, timeout=120):
    """One cold `python -m infcc.cli` process: (seconds, exit code, stdout, stderr)."""
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-m", "infcc.cli", *argv], capture_output=True,
                          text=True, env=child_env(), cwd=ROOT, timeout=timeout)
    return perf_counter() - t0, proc.returncode, proc.stdout, proc.stderr


def run_cli_inprocess(argv):
    """cli.main on argv with captured output: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except Exception as e:  # a leaked exception is a finding, not a crash
            return f"exception {type(e).__name__}", out.getvalue(), err.getvalue()
    return code, out.getvalue(), err.getvalue()


def _spec(rng, family):
    a = rng.randint(-2, 2)
    if family == "zigzag":
        return f"zigzag:{a}", infcc.nested_zigzag(a), a
    if family == "fountain":
        return f"fountain:{a}", infcc.fountain(a), a
    if family == "staircase":
        word = "".join(rng.choice("UR") for _ in range(rng.randint(2, 6)))
        spec = json.dumps({"base": {"kind": "staircase", "anchor": a, "word": word}})
        return spec, infcc.staircase((a, a + 2), word), a
    hi = rng.randint(5, 9)
    diags = sorted(infcc.random_polygon_triangulation(0, hi, rng))
    text = f"polygon:0-{hi}:" + ",".join(f"{d.m}.{d.n}" for d in diags)
    return text, infcc.polygon(0, hi, diags), 0


def _arc_text(d):
    return f"{d[0]},{d[1]}"


class CLICold:
    """One cold CLI process per operation over a seeded argv mix.

    Per set: 14 argvs that succeed (two per verb other than verify), 3
    mathematically meaningful refusals (exit 2) and 3 malformed inputs the
    CLI rejects as usage errors (exit 1): 70/15/15.  The inputs of ROADMAP
    item 4 (boundary and reversed arcs, crossing polygon diagonals, empty
    windows) are drawn separately by `probes`.
    """

    name = "cli_cold"

    def build(self, rng):
        ops = [self._ok(rng, verb) for verb in
               ("cc", "flip", "validate", "reduce", "tiling", "frontier", "quiver") * 2]
        ops += [self._refusal(rng, kind) for kind in ("cc", "tiling", "tiling_check")]
        ops += [self._usage(rng, kind) for kind in ("argv", "non_member", "letters")]
        rng.shuffle(ops)
        return ops

    def _ok(self, rng, verb):
        fmt = rng.choice(["text", "json"])
        if verb == "cc":
            spec, T, a = _spec(rng, rng.choice(["zigzag", "fountain", "staircase", "polygon"]))
            if T.is_polygon:
                pool = infcc.polygon_diagonals(T.base.lo, T.base.hi)
            elif T.classify().kind == "fountain":
                pool = [Arc(m, n) for m in range(a - 7, a - 1) for n in range(m + 2, a + 1)]
            else:
                pool = [Arc(m, n) for m in range(a - 5, a + 2) for n in range(m + 2, m + 8)]
            d = rng.choice(pool)
            argv = ["cc", "--triangulation", spec, "--arc", _arc_text(d), "--format", fmt]
        elif verb == "flip":
            spec, T, a = _spec(rng, rng.choice(["zigzag", "fountain", "staircase", "polygon"]))
            lo, hi = (T.base.lo, T.base.hi) if T.is_polygon else (a - 6, a + 7)
            d = rng.choice(T.members_in_window(lo, hi))
            argv = ["flip", "--triangulation", spec, "--arc", _arc_text(d), "--format", fmt]
        elif verb == "validate":
            spec, T, a = _spec(rng, rng.choice(["zigzag", "fountain", "staircase"]))
            w = rng.randint(3, 5)
            argv = ["validate", "--triangulation", spec, "--window", f"{a - w},{a + w}",
                    "--format", fmt]
        elif verb == "reduce":
            family = rng.choice(["zigzag", "fountain"])
            spec, T, a = _spec(rng, family)
            d = rng.choice([t for t in T.members_in_window(a - 4, a + 5) if t.n - t.m >= 4])
            argv = ["reduce", "--triangulation", spec, "--arc", _arc_text(d), "--format", fmt]
        elif verb == "tiling":
            spec, T, a = _spec(rng, rng.choice(["zigzag", "staircase"]))
            w = rng.randint(4, 8)
            argv = ["tiling", "--triangulation", spec, "--window", f"{a - w},{a + w}",
                    "--format", rng.choice(["ascii", "csv", "json"])]
            if rng.random() < 0.5:
                argv.append("--check")
        elif verb == "frontier":
            word = "".join(rng.choice("UR") for _ in range(rng.randint(2, 8)))
            s = len(word) + 3
            argv = ["frontier", "--word", word, "--bbox", f"{-s},-2,3,{s}",
                    "--format", rng.choice(["ascii", "csv", "json"])]
        else:  # quiver
            spec, T, a = _spec(rng, rng.choice(["zigzag", "fountain", "polygon"]))
            argv = ["quiver", "--triangulation", spec, "--format", fmt]
            if not T.is_polygon:
                argv += ["--window", f"{a - 4},{a + 4}"]
        return CLIOp(argv, 0, f"ok {verb}")

    def _refusal(self, rng, kind):
        spec, T, a = _spec(rng, "fountain")
        if kind == "cc":
            d = Arc(rng.randint(a - 5, a - 1), rng.randint(a + 1, a + 5))
            argv = ["cc", "--triangulation", spec, "--arc", _arc_text(d)]
        else:
            argv = ["tiling", "--triangulation", spec, "--window", f"{a - 4},{a + 4}"]
            if kind == "tiling_check":
                argv.append("--check")
        return CLIOp(argv, 2, f"refusal {kind}")

    def _usage(self, rng, kind):
        spec, T, a = _spec(rng, rng.choice(["zigzag", "fountain"]))
        if kind == "argv":
            bad = rng.choice([f"spiral:{a}", "zigzag", f"fountain:{a}:1",
                              json.dumps({"base": {"kind": "spiral", "n": a}})])
            argv = rng.choice([["cc", "--triangulation", bad, "--arc", f"{a - 3},{a + 1}"],
                               ["cc", "--triangulation", spec],
                               ["tiling", "--window", "0,5"]])
        elif kind == "non_member":
            d = next(Arc(a - j, a + j + 3) for j in range(1, 20)
                     if not T.is_member(Arc(a - j, a + j + 3)))
            argv = ["flip", "--triangulation", spec, "--arc", _arc_text(d)]
        else:
            word = "".join(rng.choice("URX") for _ in range(5)) + "X"
            argv = ["frontier", "--word", word, "--bbox", "-6,-2,3,6"]
        return CLIOp(argv, 1, f"usage {kind}")

    def probes(self, rng, count=8):
        """ROADMAP item 4 inputs, drawn from the seed and never filtered.

        Each is malformed, so the expected outcome is a usage error, exit 1.
        """
        out = []
        for i in range(count):
            kind = ("boundary", "reversed", "crossing", "empty_window")[i % 4]
            spec, T, a = _spec(rng, rng.choice(["zigzag", "fountain"]))
            if kind == "boundary":
                m = rng.randint(a - 4, a + 4)
                argv = ["cc", "--triangulation", spec, "--arc", f"{m},{m + 1}"]
            elif kind == "reversed":
                m = rng.randint(a - 4, a + 1)
                argv = ["cc", "--triangulation", spec, "--arc", f"{m + rng.randint(2, 5)},{m}"]
            elif kind == "crossing":
                hi = rng.randint(4, 8)
                i0 = rng.randint(0, hi - 3)
                diags = f"{i0}.{i0 + 2},{i0 + 1}.{i0 + 3}"
                verb = rng.choice(["cc", "flip"])
                target = f"{i0},{i0 + 2}" if verb == "flip" else f"0,{hi - 1}"
                argv = [verb, "--triangulation", f"polygon:0-{hi}:{diags}", "--arc", target]
            else:
                w = rng.randint(1, 5)
                verb = rng.choice(["tiling", "validate", "quiver"])
                argv = [verb, "--triangulation", spec, "--window", f"{a + w},{a - w}"]
            out.append(CLIOp(argv, 1, f"probe {kind}"))
        return out

    def run(self, op):
        return run_cli_child(op.argv)

    def check(self, op, out):
        _, code, stdout, stderr = out
        return cli_mismatch(op, code, stdout, stderr)

    def run_in_process(self, op):
        return run_cli_inprocess(op.argv)

    def check_in_process(self, op, out):
        return None if out[0] == op.expect else f"exit {out[0]}, expected {op.expect}"

    def size(self, op, out):
        # out is (seconds, code, stdout, stderr) cold or (code, stdout, stderr) in process
        return {"stdout_bytes": len(out[-2])}, op.argv[0]


def cli_mismatch(op, code, stdout, stderr):
    """Why a cold CLI result is wrong for the argv's class, or None."""
    if "Traceback" in stderr:
        return f"traceback ({stderr.strip().splitlines()[-1]})"
    if code != op.expect:
        return f"exit {code}, expected {op.expect}"
    in_code, in_out, _ = run_cli_inprocess(op.argv)
    if in_code != code:
        return f"in-process run gave {in_code}, cold process {code}"
    if in_out != stdout:
        return "stdout differs from the in-process run"
    return None


WORKLOADS = {w.name: w for w in (CCDeep(), TilingWindow(), PolygonRoutes(), CLICold())}

"""Command line front end.

Exit codes: 0 success, 1 usage error, 2 mathematically meaningful refusal
(unreachable arc, fountain tiling, infinitely many crossers) with a JSON
diagnostic on stderr.  All output is deterministic for fixed inputs.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import List, Optional, Tuple

from .arcs import Arc, Edge, arc
from .errors import (
    InfccError,
    InfiniteCrossers,
    NonAdmissibleFrontier,
    NotLocallyFinite,
    Unreachable,
)
from .exchange import cc
from .laurent import format_fraction
from .reduction import cc_bar, reduce, u_of
from .tilings import Frontier, extend_frontier, tiling_window, verify_sl2
from .triangulation import Triangulation, build, check_window, fountain, nested_zigzag, polygon


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like -3,-1 or -8,8 pass as arguments, not flags
        self._negative_number_matcher = re.compile(r"^-\d+[\d,.-]*$")

    def error(self, message):
        raise _UsageError(message)


def parse_triangulation(text: str) -> Triangulation:
    """Shorthand: fountain:0 | zigzag:0 | polygon:0-4:0.2,0.3 | JSON spec."""
    text = text.strip()
    if text.startswith("{"):
        return build(json.loads(text))
    parts = text.split(":")
    kind = parts[0]
    if kind == "fountain" and len(parts) == 2:
        return fountain(int(parts[1]))
    if kind == "zigzag" and len(parts) == 2:
        return nested_zigzag(int(parts[1]))
    if kind == "polygon" and len(parts) == 3:
        lo, hi = (int(v) for v in parts[1].split("-"))
        diags = []
        if parts[2]:
            for item in parts[2].split(","):
                m, n = (int(v) for v in item.split("."))
                diags.append((m, n))
        return polygon(lo, hi, diags)
    raise _UsageError(f"cannot parse triangulation spec {text!r}")


def parse_arc(text: str) -> Arc:
    m, n = (int(v) for v in text.split(","))
    return arc(m, n)


def parse_window(text: str) -> Tuple[int, int]:
    lo, hi = (int(v) for v in text.split(","))
    check_window(lo, hi)
    return lo, hi


def _seg_json(s):
    if isinstance(s, Edge):
        return [s.i, s.i + 1]
    return [s.m, s.n]


def _emit_poly(p, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(p.to_json()))
    else:
        print(format_fraction(p))


def _cmd_cc(args) -> int:
    T = parse_triangulation(args.triangulation)
    _emit_poly(cc(T, parse_arc(args.arc)), args.format)
    return 0


def _cmd_flip(args) -> int:
    T = parse_triangulation(args.triangulation)
    res = T.flip(parse_arc(args.arc))
    payload = {
        "replaced": _seg_json(res.replaced),
        "replacement": _seg_json(res.replacement),
        "quad": list(res.quad),
        "middle_c": [_seg_json(s) for s in res.middle_c],
        "middle_c_prime": [_seg_json(s) for s in res.middle_c_prime],
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"flip {payload['replaced']} -> {payload['replacement']}  quad {res.quad}")
        print(f"middle terms: {payload['middle_c']} | {payload['middle_c_prime']}")
    return 0


def _cmd_validate(args) -> int:
    T = parse_triangulation(args.triangulation)
    lo, hi = parse_window(args.window)
    d = T.validate_window(lo, hi)
    payload = {
        "valid": d.ok,
        "crossing_pairs": [[_seg_json(a), _seg_json(b) if b else None] for a, b in d.crossing_pairs],
        "missing": [_seg_json(a) for a in d.missing],
    }
    if args.format == "json":
        print(json.dumps(payload))
    elif d.ok:
        print(f"valid on [{lo},{hi}]")
    else:
        for a, b in d.crossing_pairs:
            print(f"crossing: {_seg_json(a)} x {_seg_json(b) if b else 'infinitely many'}")
        for a in d.missing:
            print(f"addable arc crosses nothing: {_seg_json(a)}")
    return 0


def _cmd_reduce(args) -> int:
    T = parse_triangulation(args.triangulation)
    t = parse_arc(args.arc)
    red = reduce(T, t)
    U = u_of(T, t)
    diagonals = [d for d in red.model.polygon_members()]
    checks = []
    from .triangulation import polygon_diagonals

    for d in polygon_diagonals(t.m, t.n):
        lhs = cc_bar(T, U, d)
        rhs = cc(red.model, d)
        checks.append({"arc": _seg_json(d), "agree": lhs == rhs})
    payload = {
        "polygon": [t.m, t.n],
        "rank": red.rank,
        "triangulation": [_seg_json(d) for d in diagonals],
        "specialisation_checks": checks,
        "all_agree": all(c["agree"] for c in checks),
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print(f"polygon {{{t.m}..{t.n}}}, rank {red.rank}, diagonals {payload['triangulation']}")
        print("specialised values agree with the reduced model on all "
              f"{len(checks)} diagonals: {payload['all_agree']}")
    return 0 if payload["all_agree"] else 2


def _cmd_tiling(args) -> int:
    T = parse_triangulation(args.triangulation)
    W = tiling_window(T, *parse_window(args.window))
    if args.check:
        bad = verify_sl2(W)
        if bad:
            sys.stderr.write(json.dumps({"violations": [list(v.at) for v in bad]}) + "\n")
            return 2
    _print_window(W, args.format)
    return 0


WINDOW_FORMATS = ("text", "ascii", "csv", "json")  # text is ascii


def _print_window(W, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([[i, j, v] for (i, j), v in sorted(W.values.items())]))
        return
    i_lo, j_lo, i_hi, j_hi = W.bounds()
    rows = []
    for j in range(j_hi, j_lo - 1, -1):
        row = []
        for i in range(i_lo, i_hi + 1):
            v = W.values.get((i, j))
            row.append("" if v is None else str(v))
        rows.append((j, row))
    if fmt == "csv":
        print("j\\i," + ",".join(str(i) for i in range(i_lo, i_hi + 1)))
        for j, row in rows:
            print(f"{j}," + ",".join(row))
    else:  # ascii, also for the text default
        width = max((len(c) for _, row in rows for c in row), default=1)
        header = " ".join(str(i).rjust(width) for i in range(i_lo, i_hi + 1))
        print(" " * 6 + header)
        for j, row in rows:
            print(f"{j:>4} | " + " ".join(c.rjust(width) or " " * width for c in row))


def _cmd_frontier(args) -> int:
    F = Frontier(args.word, anchor=args.anchor)
    W = extend_frontier(F, tuple(int(v) for v in args.bbox.split(",")))
    _print_window(W, args.format)
    return 0


def _cmd_quiver(args) -> int:
    T = parse_triangulation(args.triangulation)
    if args.window:
        Q = T.quiver(*parse_window(args.window))
    else:
        Q = T.quiver()
    payload = {
        "vertices": [_seg_json(v) for v in Q.vertices],
        "arrows": [[_seg_json(a), _seg_json(b)] for a, b in Q.arrows],
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print("vertices:", " ".join(str(v) for v in payload["vertices"]))
        for a, b in payload["arrows"]:
            print(f"  {a} -> {b}")
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_suite

    ok = run_suite(args.suite, args.size, seed=args.seed)
    return 0 if ok else 1


def _build_parser() -> _Parser:
    p = _Parser(prog="infcc", description=__doc__)
    sub = p.add_subparsers(dest="verb", required=True)

    def common(sp, tri=True, arc=False, window=False, formats=("text", "json")):
        if tri:
            sp.add_argument("--triangulation", required=True)
        if arc:
            sp.add_argument("--arc", required=True)
        if window:
            sp.add_argument("--window", required=True)
        sp.add_argument("--format", default="text", choices=formats)

    sp = sub.add_parser("cc");       common(sp, arc=True);       sp.set_defaults(fn=_cmd_cc)
    sp = sub.add_parser("flip");     common(sp, arc=True);       sp.set_defaults(fn=_cmd_flip)
    sp = sub.add_parser("validate"); common(sp, window=True);    sp.set_defaults(fn=_cmd_validate)
    sp = sub.add_parser("reduce");   common(sp, arc=True);       sp.set_defaults(fn=_cmd_reduce)
    sp = sub.add_parser("tiling");   common(sp, window=True, formats=WINDOW_FORMATS)
    sp.add_argument("--check", action="store_true");             sp.set_defaults(fn=_cmd_tiling)
    sp = sub.add_parser("frontier")
    sp.add_argument("--word", required=True)
    sp.add_argument("--anchor", type=int, default=0)
    sp.add_argument("--bbox", required=True)
    sp.add_argument("--format", default="ascii", choices=WINDOW_FORMATS)
    sp.set_defaults(fn=_cmd_frontier)
    sp = sub.add_parser("quiver");   common(sp)
    sp.add_argument("--window");                                 sp.set_defaults(fn=_cmd_quiver)
    sp = sub.add_parser("verify")
    sp.add_argument("--suite", default="all")
    sp.add_argument("--size", default="full", choices=["small", "full"])
    sp.add_argument("--seed", type=int, default=20240901);       sp.set_defaults(fn=_cmd_verify)
    return p


def main(argv: Optional[List[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except _UsageError as e:
        sys.stderr.write(f"usage error: {e}\n")
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as e:
        sys.stderr.write(f"usage error: {e}\n")
        return 1
    except Unreachable as e:
        sys.stderr.write(json.dumps({"unreachable": {"fountain": e.fountain, "arc": list(e.arc)}}) + "\n")
        return 2
    except NotLocallyFinite as e:
        sys.stderr.write(json.dumps({"not_locally_finite": str(e)}) + "\n")
        return 2
    except InfiniteCrossers as e:
        sys.stderr.write(json.dumps({"infinite_crossers": {"fountain": e.fountain}}) + "\n")
        return 2
    except NonAdmissibleFrontier as e:
        sys.stderr.write(json.dumps({"non_admissible_frontier": str(e)}) + "\n")
        return 2
    except InfccError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

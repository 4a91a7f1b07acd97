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
from functools import lru_cache
from typing import TYPE_CHECKING, List, Optional, Tuple

from .arcs import Arc, Edge, arc
from .errors import (
    InfccError,
    InfiniteCrossers,
    NotLocallyFinite,
    Unreachable,
)

if TYPE_CHECKING:
    from .triangulation import Triangulation

# Each verb imports the modules it runs inside its _cmd_* function, so a
# cold process compiles only those (README "Cold start").


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # let values like -3,-1 or -8,8 pass as arguments, not flags
        self._negative_number_matcher = re.compile(r"^-\d+[\d,.-]*$")

    def error(self, message):
        raise _UsageError(message)


_TRIANGULATION_SHAPE = "fountain:N, zigzag:N, polygon:LO-HI:M.N,M.N,... or a JSON spec"
_INT = r"[-+]?\d+"
_SHORTHAND = re.compile(rf"(fountain|zigzag):({_INT})|polygon:({_INT})-({_INT}):(.*)")
_DIAGONAL = re.compile(rf"({_INT})\.({_INT})")


def _ints(text: str, count: int, option: str, shape: str) -> Tuple[int, ...]:
    """`count` comma-separated integers, or a usage error naming the option."""
    parts = text.split(",")
    if len(parts) == count:
        try:
            return tuple(int(v) for v in parts)
        except ValueError:
            pass
    raise _UsageError(f"{option} expects {shape}, got {text!r}")


def parse_triangulation(text: str) -> Triangulation:
    """Shorthand: fountain:0 | zigzag:0 | polygon:0-4:0.2,0.3 | JSON spec."""
    from .triangulation import build, fountain, nested_zigzag, polygon

    text = text.strip()
    if text.startswith("{"):
        return build(json.loads(text))
    m = _SHORTHAND.fullmatch(text)
    if m is not None:
        kind, n, lo, hi, diagonals = m.groups()
        if kind == "fountain":
            return fountain(int(n))
        if kind == "zigzag":
            return nested_zigzag(int(n))
        pairs = [_DIAGONAL.fullmatch(item) for item in diagonals.split(",")] if diagonals else []
        if all(pairs):
            return polygon(int(lo), int(hi), [(int(p[1]), int(p[2])) for p in pairs])
    raise _UsageError(f"--triangulation expects {_TRIANGULATION_SHAPE}, got {text!r}")


def parse_arc(text: str) -> Arc:
    return arc(*_ints(text, 2, "--arc", "M,N (two integers)"))


def parse_window(text: str) -> Tuple[int, int]:
    from .triangulation import check_window

    lo, hi = _ints(text, 2, "--window", "LO,HI (two integers)")
    check_window(lo, hi)
    return lo, hi


def _seg_json(s):
    if isinstance(s, Edge):
        return [s.i, s.i + 1]
    return [s.m, s.n]


def _cmd_cc(args) -> int:
    from .exchange import cc
    from .laurent import format_fraction

    T = parse_triangulation(args.triangulation)
    p = cc(T, parse_arc(args.arc))
    print(json.dumps(p.to_json()) if args.format == "json" else format_fraction(p))
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
    from .exchange import cc
    from .reduction import cc_bar, reduce, u_of
    from .triangulation import polygon_diagonals

    T = parse_triangulation(args.triangulation)
    t = parse_arc(args.arc)
    red = reduce(T, t)
    U = u_of(T, t)
    diagonals = [d for d in red.model.polygon_members()]
    checks = []
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
    from .tilings import tiling_window, verify_sl2

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
    """Print W.  Its entries are exact integers of any length, so Python's
    int-to-str digit limit (3.10.7 on) is lifted while they are formatted."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if limit:
        sys.set_int_max_str_digits(0)
    try:
        _write_window(W, fmt)
    finally:
        if limit:
            sys.set_int_max_str_digits(limit)


def _write_window(W, fmt: str) -> None:
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
    from .tilings import Frontier, extend_frontier

    F = Frontier(args.word, anchor=args.anchor)
    W = extend_frontier(F, _ints(args.bbox, 4, "--bbox", "I_LO,J_LO,I_HI,J_HI (four integers)"))
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
    from .verify import CRITERIA, run_suite

    if args.suite != "all":
        numbers = [n.strip() for n in args.suite.split(",")]
        if not all(n.isdecimal() and 1 <= int(n) <= len(CRITERIA) for n in numbers):
            raise _UsageError(f"--suite expects 'all' or criterion numbers 1-{len(CRITERIA)} "
                              f"separated by commas, got {args.suite!r}")
    ok = run_suite(args.suite, args.size, seed=args.seed)
    return 0 if ok else 1


@lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built once per process (criterion 9 calls main many times)."""
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
    except (_UsageError, ValueError, KeyError) as e:
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
    except InfccError as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())

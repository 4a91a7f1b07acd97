"""Span tracer that wraps infcc's public functions from outside the package.

Imports bind names at load time, so a function is wrapped under every name
that refers to it: each module-level global of every ``infcc`` module that
is the original function object (``cli.cc``, ``tilings.count_submodules``,
``infcc.cc``, ...), and methods on their class (``LaurentPoly.__mul__`` and
``__rmul__``, ``Triangulation.is_member``, ...).  ``uninstall`` restores
every name.

Each wrapper pushes a frame on a span stack while it runs.  A span's self
time is its duration minus the time its child spans cover.  Per-name call
counts and self times are aggregated for every span; the spans themselves
(id, parent, operation, name, start, end) are kept in memory up to a cap
and written out by the caller when the run ends.  Recording happens only
while ``active`` is true, so answer checks outside the timed region leave
no trace.
"""

from __future__ import annotations

import importlib
import pkgutil
from collections import defaultdict
from time import perf_counter_ns

import infcc
from infcc import exchange
from infcc.laurent import LaurentPoly

MAX_SPANS = 20_000


def _mul_work(tracer, args, out):
    a, b = args
    tracer.counts["laurent.mul.term_pairs"] += len(a.terms) * (
        len(b.terms) if isinstance(b, LaurentPoly) else 1)
    _peak_terms(tracer, args, out)


def _peak_terms(tracer, args, out):
    if isinstance(out, LaurentPoly) and len(out.terms) > tracer.counts["laurent.peak_terms"]:
        tracer.counts["laurent.peak_terms"] = len(out.terms)


def _submodule_work(tracer, args, out):
    tracer.counts["modules.submodule_classes.masks"] += 1 << len(args[0].walk)
    tracer.counts["modules.submodule_classes.entries"] += out.size


def _cells(tracer, args, out):
    tracer.counts["tilings.cells"] += len(out.values)


# (module, attribute or Class.method, span name, hook run on the result)
TARGETS = [
    ("laurent", "LaurentPoly.__mul__", "laurent.mul", _mul_work),
    ("laurent", "LaurentPoly.__rmul__", "laurent.mul", _mul_work),
    ("laurent", "LaurentPoly.div_exact_variable", "laurent.div_exact_variable", None),
    ("laurent", "LaurentPoly.to_json", "laurent.to_json", None),
    ("laurent", "format_fraction", "laurent.format_fraction", None),
    ("exchange", "cc", "exchange.cc", _peak_terms),
    ("triangulation", "Triangulation.is_member", "triangulation.is_member", None),
    ("triangulation", "Triangulation.crossers", "triangulation.crossers", None),
    ("triangulation", "Triangulation.flip", "triangulation.flip", None),
    ("triangulation", "Triangulation.members_in_window", "triangulation.members_in_window", None),
    ("modules", "g_module", "modules.g_module", None),
    ("modules", "count_submodules", "modules.count_submodules", None),
    ("modules", "submodule_classes", "modules.submodule_classes", _submodule_work),
    ("ktheory", "theta", "ktheory.theta", None),
    ("ktheory", "coindex", "ktheory.coindex", None),
    ("cc_direct", "cc_direct", "cc_direct.cc_direct", None),
    ("reduction", "reduce", "reduction.reduce", None),
    ("reduction", "cc_bar", "reduction.cc_bar", None),
    ("tilings", "tiling_window", "tilings.tiling_window", _cells),
    ("tilings", "verify_sl2", "tilings.verify_sl2", None),
    ("tilings", "extend_frontier", "tilings.extend_frontier", _cells),
    ("cli", "main", "cli.main", None),
]


def _modules():
    names = [info.name for info in pkgutil.iter_modules(infcc.__path__, "infcc.")]
    return [infcc] + [importlib.import_module(name) for name in names]


class Tracer:
    def __init__(self):
        self.active = False
        self.op = 0
        self.calls = defaultdict(int)
        self.self_ns = defaultdict(int)
        self.counts = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self.sessions = []
        self._stack = []
        self._next_id = 1
        self._undo = []

    def _wrap(self, name, fn, hook):
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1][2] if stack else 0
            frame = [perf_counter_ns(), 0, span_id]
            stack.append(frame)
            try:
                out = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                dur = end - frame[0]
                tracer.calls[name] += 1
                tracer.self_ns[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if len(tracer.spans) < MAX_SPANS:
                    tracer.spans.append((span_id, parent, tracer.op, name, frame[0], end))
                else:
                    tracer.dropped += 1
            if hook is not None:
                hook(tracer, args, out)
            return out

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self):
        """Wrap every target under each name that refers to it."""
        mods = _modules()
        for mod_name, attr, span, hook in TARGETS:
            mod = importlib.import_module(f"infcc.{mod_name}")
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name)
                orig = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(span, orig, hook))
                self._undo.append((cls, meth, orig))
                continue
            orig = getattr(mod, attr)
            wrapped = self._wrap(span, orig, hook)
            for m in mods:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, key, wrapped)
                        self._undo.append((m, key, orig))
        # sessions created inside the library (cc without a session) are
        # counted too: exchange.cc looks CCSession up at call time
        tracer = self
        orig_session = exchange.CCSession

        class TrackedSession(orig_session):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                if tracer.active:
                    tracer.sessions.append(self)

        for m in mods:
            for key, value in list(vars(m).items()):
                if value is orig_session:
                    setattr(m, key, TrackedSession)
                    self._undo.append((m, key, orig_session))

    def uninstall(self):
        for owner, key, orig in reversed(self._undo):
            setattr(owner, key, orig)
        self._undo.clear()

    def end_op(self):
        """Close one operation: fold its sessions' memo sizes into the counts."""
        self.counts["exchange.memo_entries"] += sum(len(s.memo) for s in self.sessions)
        self.sessions.clear()
        self.op += 1

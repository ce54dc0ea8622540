"""Per-layer call counts and span timings for the traced benchmark run.

Everything here acts on the package from outside: it wraps the public
functions of each surfalg module, plus the few methods that carry a layer's
work, and leaves ``src/`` untouched.  A wrapper is bound under every name that
refers to the original in any loaded surfalg module.  That matters because
``cli``, ``nilpotent`` and ``enveloping`` import functions by name
(``from .nilpotent import center_of_quotient``, ``from ._kernel import
mul_reduce``), so patching only the defining module would miss their calls
without any error.

Each wrapped call is a span.  A layer's self time is the time its spans cover
minus the time covered by the spans they call; a function's inclusive time
counts only its outermost active call, so recursion is not counted twice.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "cli",
    "surface",
    "freelie",
    "intlinalg",
    "kernel",
    "enveloping",
    "nilpotent",
    "symplectic",
    "torelli",
)

# The kernel implementations recurse through their own module globals
# (reduce_word calls reduce_word).  Those bindings stay unwrapped, so a kernel
# span marks an entry into the kernel, not every step of a rewrite.
_KERNEL_IMPLEMENTATIONS = ("surfalg._kernel._pure", "surfalg._kernel._speedups")


def _cells(args, kwargs):
    a = args[0] if args else kwargs["a"]
    return a.rows * a.cols


def _pairs(args, kwargs):
    a = args[0] if args else kwargs["a"]
    b = args[1] if len(args) > 1 else kwargs["b"]
    return len(a) * len(b)


class Tracer:
    """Counters and span stack for one traced process."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.inclusive_s: defaultdict = defaultdict(float)
        self.sizes: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.suite_s: defaultdict = defaultdict(float)
        self._stack: list[list[float]] = []
        self._depth: Counter = Counter()
        self._memos: dict[int, dict] = {}
        self._rings: dict[int, object] = {}

    # -- wrappers -------------------------------------------------------------

    def span(self, fn, key, layer, size=None, observe=None):
        """Wrap fn so each call is counted and timed as a span of layer."""
        calls, sizes, inclusive, self_s = self.calls, self.sizes, self.inclusive_s, self.self_s
        stack, depth, clock = self._stack, self._depth, time.perf_counter

        def wrapped(*args, **kwargs):
            calls[key] += 1
            if size is not None:
                sizes[key] += size(args, kwargs)
            if observe is not None:
                observe(args, kwargs)
            frame = [0.0]
            stack.append(frame)
            depth[key] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                depth[key] -= 1
                self_s[layer] += elapsed - frame[0]
                if stack:
                    stack[-1][0] += elapsed
                if not depth[key]:
                    inclusive[key] += elapsed

        wrapped.__wrapped__ = fn
        return wrapped

    def counter(self, fn, key):
        """Wrap fn so its calls are counted, without a span."""
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        wrapped.__wrapped__ = fn
        return wrapped

    def _observe_memo(self, position):
        memos = self._memos

        def observe(args, kwargs):
            memo = args[position] if len(args) > position else kwargs["memo"]
            memos[id(memo)] = memo

        return observe

    def _observe_ring(self, args, kwargs):
        self._rings[id(args[0])] = args[0]

    def _suite(self, fn, suite):
        """Span for one cli suite; also sums the runtime_ms its checks report."""
        inner = self.span(fn, f"cli.suite.{suite}", "cli")
        suite_s = self.suite_s

        def wrapped(session):
            checks = inner(session)
            suite_s[suite] += sum(c.runtime_ms for c in checks) / 1000.0
            return checks

        return wrapped

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and rebind every reference."""
        from surfalg import cli, freelie, intlinalg, nilpotent

        modules = {
            layer: importlib.import_module("surfalg._kernel" if layer == "kernel" else f"surfalg.{layer}")
            for layer in LAYERS
        }
        hooks = {
            "intlinalg.hermite_with_transform": {"size": _cells},
            "intlinalg.snf": {"size": _cells},
            "kernel.mul_reduce": {"size": _pairs, "observe": self._observe_memo(7)},
            "kernel.reduce_terms": {"observe": self._observe_memo(5)},
            "kernel.reduce_word": {"observe": self._observe_memo(5)},
        }
        replacements: dict[int, object] = {}
        for layer, module in modules.items():
            if layer == "kernel":
                # the dispatch module re-exports either implementation; the
                # compiled one's functions are not Python function objects
                names = ("mul_reduce", "reduce_terms", "reduce_word")
            else:
                names = [
                    name
                    for name, obj in vars(module).items()
                    if not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__  # else wrapped by its own layer
                ]
            for name in names:
                key = f"{layer}.{name}"
                obj = getattr(module, name)
                replacements[id(obj)] = self.span(obj, key, layer, **hooks.get(key, {}))
        # sparse_echelon accepts any iterable of rows; the wrapper measures the
        # input, so it materialises a one-shot iterator before passing it on
        echelon = intlinalg.sparse_echelon
        echelon_span = replacements[id(echelon)]

        def sparse_echelon(rows, *args, **kwargs):
            rows = list(rows)
            self.sizes["intlinalg.sparse_echelon"] += sum(len(r) for r in rows)
            return echelon_span(rows, *args, **kwargs)

        replacements[id(echelon)] = sparse_echelon

        for module_name, module in list(sys.modules.items()):
            if module is None or module_name in _KERNEL_IMPLEMENTATIONS:
                continue
            if module_name != "surfalg" and not module_name.startswith("surfalg."):
                continue
            for name, obj in list(vars(module).items()):
                wrapper = replacements.get(id(obj))
                if wrapper is not None:
                    setattr(module, name, wrapper)

        methods = (
            (freelie.FreeLieAlgebra, "bracket_words", "freelie.bracket_words", "freelie", None),
            (nilpotent.GroupRingTruncation, "expand_raw", "nilpotent.expand", "nilpotent", self._observe_ring),
            (nilpotent.GroupRingTruncation, "commutator_raw", "nilpotent.commutator", "nilpotent", None),
            (cli.Report, "to_json", "cli.report", "cli", None),
        )
        for cls, name, key, layer, observe in methods:
            setattr(cls, name, self.span(vars(cls)[name], key, layer, observe=observe))
        intlinalg.IntMatrix.__init__ = self.counter(
            vars(intlinalg.IntMatrix)["__init__"], "intlinalg.intmatrix.constructed"
        )
        for suite, fn in list(cli._SUITES.items()):
            cli._SUITES[suite] = self._suite(fn, suite)

    # -- results --------------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, keyed by the names the benchmark reports."""
        calls, incl, sizes = self.calls, self.inclusive_s, self.sizes
        expand_calls = calls["nilpotent.expand"]
        expand_entries = sum(len(ring._cache) for ring in self._rings.values())
        out = {
            "intlinalg.hnf.calls": calls["intlinalg.hermite_with_transform"],
            "intlinalg.hnf.s": incl["intlinalg.hermite_with_transform"],
            "intlinalg.hnf.cells": sizes["intlinalg.hermite_with_transform"],
            "intlinalg.row_span_contains.calls": calls["intlinalg.row_span_contains"],
            "intlinalg.intmatrix.constructed": calls["intlinalg.intmatrix.constructed"],
            "intlinalg.snf.calls": calls["intlinalg.snf"],
            "intlinalg.snf.s": incl["intlinalg.snf"],
            "intlinalg.snf.cells": sizes["intlinalg.snf"],
            "intlinalg.sparse_echelon.calls": calls["intlinalg.sparse_echelon"],
            "intlinalg.sparse_echelon.s": incl["intlinalg.sparse_echelon"],
            "intlinalg.sparse_echelon.nnz_in": sizes["intlinalg.sparse_echelon"],
            "surface.build.s": incl["surface.build"],
            "surface.center_in_degree.s": incl["surface.center_in_degree"],
            "kernel.mul_reduce.calls": calls["kernel.mul_reduce"],
            "kernel.mul_reduce.s": incl["kernel.mul_reduce"],
            "kernel.mul_reduce.pairs": sizes["kernel.mul_reduce"],
            "kernel.reduce_terms.calls": calls["kernel.reduce_terms"],
            "kernel.reduce_terms.s": incl["kernel.reduce_terms"],
            "kernel.memo_entries": sum(len(m) for m in self._memos.values()),
            "nilpotent.center_of_quotient.s": incl["nilpotent.center_of_quotient"],
            "nilpotent.expand.calls": expand_calls,
            "nilpotent.expand.hit_ratio": 1 - expand_entries / expand_calls if expand_calls else 0.0,
            "nilpotent.commutator.calls": calls["nilpotent.commutator"],
            "nilpotent.graded_rank_certificate.s": incl["nilpotent.graded_rank_certificate"],
            "symplectic.lambda3_action.calls": calls["symplectic.lambda3_action"],
            "symplectic.lambda3_action.s": incl["symplectic.lambda3_action"],
            "symplectic.commutant_dimension.s": incl["symplectic.commutant_dimension"],
            "symplectic.roundtrip.calls": calls["symplectic.summand_correspondence_roundtrip"],
            "symplectic.roundtrip.s": incl["symplectic.summand_correspondence_roundtrip"],
            "freelie.bracket_words.calls": calls["freelie.bracket_words"],
            "freelie.bracket_words.s": incl["freelie.bracket_words"],
            "enveloping.center_in_degree_assoc.s": incl["enveloping.center_in_degree_assoc"],
            "torelli.pullback.s": incl["torelli.pullback_d1"] + incl["torelli.pullback_d3"],
            "torelli.gf2_rank.s": incl["torelli.gf2_rank"],
            "cli.report_s": incl["cli.report"],
        }
        from surfalg.cli import SUITE_NAMES

        for suite in SUITE_NAMES:
            out[f"cli.suite_s.{suite}"] = self.suite_s[suite]
        for layer in LAYERS:
            out[f"self_s.{layer}"] = self.self_s[layer]
        return out

    def all_calls(self) -> dict[str, int]:
        """Every counted key, for checks that counts repeat run to run."""
        return dict(sorted(self.calls.items()))

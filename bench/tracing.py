"""Per-layer tracing from outside the package.

``Tracer.installed()`` replaces each traced function in every namespace of
the package that holds it (``jordanform.jordan.rational_roots`` and
``jordanform.cli.char_poly`` as well as the defining module), and the
traced ``Mat`` and ``Poly`` methods on their classes, then restores the
originals on exit. ``src/`` itself carries no instrumentation, and a run
without tracing installs nothing.

A span is one wrapped call: ``[name, start, end, parent, op]``. Spans stay
in memory; self time is a span's duration minus the durations of the spans
whose parent it is.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import Counter
from time import perf_counter

from jordanform.matrices import Mat
from jordanform.polynomials import Poly

import gate

PACKAGE = "jordanform"

#: (span name, defining module, function name)
FUNCTIONS = (
    ("jordan.char_poly", "jordan", "char_poly"),
    ("jordan.eigenvalues", "jordan", "eigenvalues"),
    ("jordan.generalized_eigenspace", "jordan", "generalized_eigenspace"),
    ("jordan.restrict", "jordan", "restrict"),
    ("jordan.jordan_form", "jordan", "jordan_form"),
    ("jordan.matrix_exp", "jordan", "matrix_exp"),
    ("jordan.similar", "jordan", "similar"),
    ("jordan.validate_decomposition", "jordan", "validate_decomposition"),
    ("polynomials.rational_roots", "polynomials", "rational_roots"),
    ("nilpotent.block_generators", "nilpotent", "block_generators"),
    ("nilpotent.chains_to_basis", "nilpotent", "chains_to_basis"),
    ("nilpotent.d_sequence", "nilpotent", "d_sequence"),
    ("nilpotent.block_sizes", "nilpotent", "block_sizes"),
    ("matrices.solve_right", "matrices", "solve_right"),
    ("matrices.extend_independent", "matrices", "extend_independent"),
    ("cli.parse", "cli", "parse_matrix_json"),
    ("cli.parse", "cli", "parse_matrix_text"),
    ("cli.run", "cli", "run"),
)

#: name -> unit, better; values are per op of the traced run unless noted.
LAYER_METRICS = {
    "matrices.mul.calls": ("calls/op", "lower"),
    "matrices.mul.self_s": ("s/op", "lower"),
    "matrices.mul.scalar_mults": ("mults/op", "lower"),
    "jordan.char_poly.self_s": ("s/op", "lower"),
    "jordan.generalized_eigenspace.self_s": ("s/op", "lower"),
    "jordan.generalized_eigenspace.mul_calls": ("calls/op", "lower"),
    "matrices.rref.calls": ("calls/op", "lower"),
    "matrices.rref.self_s": ("s/op", "lower"),
    "matrices.solve_right.self_s": ("s/op", "lower"),
    "matrices.extend_independent.self_s": ("s/op", "lower"),
    "matrices.apply.calls": ("calls/op", "lower"),
    "matrices.max_entry_bits": ("bits", "lower"),
    "polynomials.rational_roots.calls": ("calls/op", "lower"),
    "polynomials.rational_roots.self_s": ("s/op", "lower"),
    "polynomials.poly_evals": ("evals/op", "lower"),
    "polynomials.root_hit_ratio": ("ratio", "higher"),
    "polynomials.const_term_bits": ("bits", "lower"),
    "nilpotent.block_generators.self_s": ("s/op", "lower"),
    "nilpotent.chains_to_basis.self_s": ("s/op", "lower"),
    "nilpotent.d_sequence.self_s": ("s/op", "lower"),
    "nilpotent.block_sizes.self_s": ("s/op", "lower"),
    "jordan.eigenvalues.self_s": ("s/op", "lower"),
    "jordan.restrict.self_s": ("s/op", "lower"),
    "jordan.jordan_form.self_s": ("s/op", "lower"),
    "jordan.matrix_exp.self_s": ("s/op", "lower"),
    "jordan.similar.self_s": ("s/op", "lower"),
    "jordan.validate_decomposition.self_s": ("s/op", "lower"),
    "cli.parse.self_s": ("s/op", "lower"),
    "cli.run.self_s": ("s/op", "lower"),
    "cli.stdout_bytes": ("bytes/call", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.counts: Counter = Counter()
        self.max_entry_bits = 0
        self.const_term_bits = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- wrappers -------------------------------------------------------

    def _spanned(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(args, result)
                return result
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _after_mul(self, args, result):
        left, right = args
        self.counts["scalar_mults"] += left.nrows * left.ncols * right.ncols
        self.max_entry_bits = max(self.max_entry_bits, gate.entry_bits(gate.rows(result)))

    def _after_rref(self, args, result):
        self.max_entry_bits = max(self.max_entry_bits, gate.entry_bits(gate.rows(args[0])))

    def _after_roots(self, args, result):
        roots, _ = result
        self.counts["roots_found"] += sum(roots.values())
        self.const_term_bits = max(
            self.const_term_bits, gate.cleared_const_term(args[0].coeffs).bit_length()
        )

    def _mul(self, original):
        matmul = self._spanned("matrices.mul", original, self._after_mul)

        @functools.wraps(original)
        def wrapper(left, right):
            if isinstance(right, Mat):
                return matmul(left, right)
            return original(left, right)

        return wrapper

    def _counted(self, counter, original):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[counter] += 1
            return original(*args, **kwargs)

        return wrapper

    # -- installation ---------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    @contextlib.contextmanager
    def installed(self):
        modules = [m for name, m in list(sys.modules.items())
                   if name == PACKAGE or name.startswith(PACKAGE + ".")]
        after = {"polynomials.rational_roots": self._after_roots}
        try:
            for span, module, attr in FUNCTIONS:
                original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
                wrapper = self._spanned(span, original, after.get(span))
                for mod in modules:
                    for name, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, name, wrapper)
            self._patch(Mat, "__mul__", self._mul(Mat.__mul__))
            self._patch(Mat, "rref", self._spanned("matrices.rref", Mat.rref, self._after_rref))
            self._patch(Mat, "apply", self._counted("apply", Mat.apply))
            self._patch(Poly, "__call__", self._counted("poly_evals", Poly.__call__))
            yield self
        finally:
            while self._patches:
                owner, attr, original = self._patches.pop()
                setattr(owner, attr, original)

    # -- results --------------------------------------------------------

    def to_reference(self, clock) -> None:
        """Re-stamps every span in reference seconds of a stopped ``HostClock``."""
        for rec in self.spans:
            rec[1], rec[2] = clock.ref(rec[1]), clock.ref(rec[2])

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total (inclusive) seconds and self seconds."""
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, dict[str, float]] = {}
        for rec, inner in zip(self.spans, child):
            entry = out.setdefault(rec[0], {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += rec[2] - rec[1]
            entry["self_s"] += rec[2] - rec[1] - inner
        return out

    def muls_under(self, ancestor: str) -> int:
        """Number of matmul spans with ``ancestor`` on their parent chain."""
        total = 0
        for rec in self.spans:
            if rec[0] != "matrices.mul":
                continue
            parent = rec[3]
            while parent >= 0:
                if self.spans[parent][0] == ancestor:
                    total += 1
                    break
                parent = self.spans[parent][3]
        return total

    def layer_metrics(self, ops: int, cli_calls: int, stdout_bytes: int,
                      untraced_s: float, traced_s: float) -> dict[str, float]:
        spans = self.summary()
        values = {}
        for metric in LAYER_METRICS:
            layer, _, measure = metric.rpartition(".")
            if measure in ("self_s", "calls"):
                values[metric] = spans.get(layer, {}).get(measure, 0) / ops
        evals = self.counts["poly_evals"]
        values.update({
            "matrices.mul.scalar_mults": self.counts["scalar_mults"] / ops,
            "jordan.generalized_eigenspace.mul_calls":
                self.muls_under("jordan.generalized_eigenspace") / ops,
            "matrices.apply.calls": self.counts["apply"] / ops,
            "matrices.max_entry_bits": self.max_entry_bits,
            "polynomials.poly_evals": evals / ops,
            "polynomials.root_hit_ratio": self.counts["roots_found"] / evals if evals else 0.0,
            "polynomials.const_term_bits": self.const_term_bits,
            "cli.stdout_bytes": stdout_bytes / cli_calls if cli_calls else 0.0,
            "trace.overhead_ratio": traced_s / untraced_s - 1,
        })
        return {name: values[name] for name in LAYER_METRICS}

"""Spans and counters installed around wigreg's public functions.

Nothing in the package is edited.  ``Tracer.install`` wraps the public
functions listed in ``SPANNED`` and rebinds every module attribute that holds
the original, so a name imported with ``from .symbols import build_b_symbol``
(as ``wigreg.pipeline`` does) is traced as well as ``wigreg.symbols`` itself.
The hot methods of the exact layer and the ``numpy.fft`` transforms are only
counted: a span per call would cost more than the work it measures.

Spans are kept in memory as ``[name, start, end, parent, op_id]`` lists and
written out by ``write_spans`` when the run ends.
"""

from __future__ import annotations

import functools
import json
import os
import sys
from collections import Counter
from time import perf_counter

PACKAGE_MODULES = ("cli", "pipeline", "symbols", "exact", "certify",
                   "hermite", "wigner", "spectral")

# module -> public functions that get a span on every call
SPANNED = {
    "cli": ("main",),
    "pipeline": ("parse_spec", "certify", "emit_report", "render_summary",
                 "generate_from_positive_symbol", "generate_quasi_homogeneous",
                 "check_positivity"),
    "symbols": ("build_b_symbol", "verify_degeneracy", "a_tilde", "weyl_wick",
                "weyl_wick_inverse", "symbol_compose", "t_conjugate"),
    "certify": ("hypo_certify_quadratic", "hypo_certify_newton",
                "hypo_certify_first_order", "hypo_falsify",
                "injectivity_quadratic", "injectivity_sos", "injectivity_wick",
                "first_order_certify", "recognize_newton_family",
                "recognize_first_order", "extract_quadratic_coeffs",
                "verify_certificate"),
    "hermite": ("apply_model_operator",),
    "wigner": ("wig_forward", "wig_inverse", "write_grid", "read_grid"),
    "spectral": ("apply_operator_2d", "intertwine_residual"),
}

# counter name -> (class name in wigreg.exact, method names)
COUNTED_METHODS = {
    "exact.poly_mul": ("MultiPoly", ("__mul__", "__rmul__")),
    "exact.poly_add": ("MultiPoly", ("__add__", "__radd__")),
    "exact.poly_new": ("MultiPoly", ("__init__",)),
    "exact.substitute": ("MultiPoly", ("substitute",)),
    "exact.gr_mul": ("GaussianRational", ("__mul__", "__rmul__")),
}

FFT_FUNCTIONS = ("fft", "ifft")

# attempt outcomes that decided something: a certificate, a kernel witness or
# a falsification
USEFUL_OUTCOMES = ("certified", "witness", "falsified")


def _grid_file_bytes(path) -> int:
    """Size of a grid file and its manifest; both exist once the call returned."""
    return os.path.getsize(path) + os.path.getsize(str(path) + ".manifest.json")


class Tracer:
    """Collects spans and counts while installed; restores everything on
    ``uninstall``."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- wrappers ---------------------------------------------------------

    def _span(self, name: str, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _fft_counter(self, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = sys._getframe(1).f_globals.get("__name__", "")
            if caller.startswith("wigreg."):
                counts[caller[len("wigreg."):] + ".fft"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- post-call measurements ---------------------------------------------

    def _after(self, qualified: str):
        counts = self.counts
        if qualified == "pipeline.certify":
            def after(args, kwargs, result):
                counts["certify.attempts"] += len(result.attempts)
                counts["certify.useful_attempts"] += sum(
                    a["outcome"] in USEFUL_OUTCOMES for a in result.attempts)
        elif qualified == "symbols.build_b_symbol":
            def after(args, kwargs, result):
                counts["symbols.b_terms"] += len(result.terms)
        elif qualified in ("wigner.wig_forward", "wigner.wig_inverse"):
            def after(args, kwargs, result):
                counts["wigner.grid_points"] += result.grid.N * result.grid.N
        elif qualified == "wigner.write_grid":
            def after(args, kwargs, result):
                path = args[1] if len(args) > 1 else kwargs["path"]
                counts["wigner.bytes_written"] += _grid_file_bytes(path)
        elif qualified == "wigner.read_grid":
            def after(args, kwargs, result):
                path = args[0] if args else kwargs["path"]
                counts["wigner.bytes_read"] += _grid_file_bytes(path)
        else:
            after = None
        return after

    # -- installation -----------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        import numpy.fft

        import wigreg

        modules = {name: sys.modules[f"wigreg.{name}"] for name in PACKAGE_MODULES}
        holders = list(modules.values()) + [wigreg]
        for mod_name, functions in SPANNED.items():
            module = modules[mod_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                qualified = f"{mod_name}.{fn_name}"
                wrapped = self._span(qualified, original, self._after(qualified))
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            self._set(holder, attr, wrapped)
        exact = modules["exact"]
        for key, (cls_name, methods) in COUNTED_METHODS.items():
            cls = getattr(exact, cls_name)
            for method in methods:
                self._set(cls, method, self._counter(key, vars(cls)[method]))
        for fn_name in FFT_FUNCTIONS:
            self._set(numpy.fft, fn_name, self._fft_counter(getattr(numpy.fft, fn_name)))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- derived numbers ----------------------------------------------------

    def self_times(self, first: int) -> list[float]:
        """Span duration minus the time its direct child spans cover, for the
        spans from ``first`` on (a span's children always follow it)."""
        spans = self.spans[first:]
        own = [end - start for _, start, end, _, _ in spans]
        for _, start, end, parent, _ in spans:
            if parent >= first:
                own[parent - first] -= end - start
        return own

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op_id in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op_id": op_id}) + "\n")

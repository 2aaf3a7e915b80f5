"""Span tracing of qtsym from outside the package.

The tracer replaces public entry points with wrappers: methods at class
level on Coeff, CoeffMatrix and SymmetricFunctions, and module attributes
of qtsym.exprs.  The benchmark also opens its own spans around direct calls
(edge builds, combinatorics).  Each span is a list
``[name, start, end, parent index]`` kept in memory; ``summary`` folds them
into calls, self time and inclusive time per name, and per parent-child
pair of names, at the end of the run.
Self time is a span's duration minus the durations of its children.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, start: float, end: float) -> None:
        self._stack.pop()
        span = self.spans[idx]
        span[1] = start
        span[2] = end

    def wrap(self, owner, attr: str, name) -> None:
        """Replace owner.attr by a traced wrapper.

        `name` is a span name, or a function of the call's positional
        arguments that returns one.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        label = name if callable(name) else (lambda args: name)
        perf = time.perf_counter
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            idx = open_(label(args))
            start = perf()
            try:
                return original(*args, **kwargs)
            finally:
                close(idx, start, perf())

        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def install(self) -> None:
        from qtsym import exprs
        from qtsym.algebra import SymmetricFunctions
        from qtsym.coeffs import Coeff
        from qtsym.linalg import CoeffMatrix

        for attr, name in (
            ("__add__", "coeffs.add"),
            ("__radd__", "coeffs.add"),
            ("__mul__", "coeffs.mul"),
            ("__rmul__", "coeffs.mul"),
            ("__truediv__", "coeffs.div"),
            ("__rtruediv__", "coeffs.div"),
        ):
            self.wrap(Coeff, attr, name)
        for attr, name in (
            ("__matmul__", "linalg.matmul"),
            ("invert", "linalg.invert"),
            ("apply", "linalg.apply"),
        ):
            self.wrap(CoeffMatrix, attr, name)
        for attr in ("conversion_matrix", "convert", "scalar", "multiply", "apply_operator"):
            self.wrap(SymmetricFunctions, attr, f"algebra.{attr}")
        # gram_schmidt(self, n, product): one span name per scalar product
        self.wrap(
            SymmetricFunctions,
            "gram_schmidt",
            lambda args: f"algebra.gram_schmidt.{args[2]}",
        )
        for attr in ("parse", "evaluate"):
            self.wrap(exprs, attr, f"exprs.{attr}")

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._close(idx, start, time.perf_counter())

    def summary(self, region: tuple[float, float]) -> dict:
        """Per-name totals, and the time that top-level spans cover inside
        `region` (start, end) on the perf_counter clock."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        names: dict[str, dict] = {}
        tree: dict[str, list] = {}
        covered = 0.0
        lo, hi = region
        for i, (name, start, end, parent) in enumerate(spans):
            dur = end - start
            rec = names.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
            rec["calls"] += 1
            rec["self_s"] += dur - child[i]
            rec["total_s"] += dur
            edge = tree.setdefault(
                f"{spans[parent][0] if parent >= 0 else '-'} > {name}", [0, 0.0]
            )
            edge[0] += 1
            edge[1] += dur
            if parent < 0 and start >= lo and end <= hi:
                covered += dur
        return {
            "names": names,
            "tree": {k: {"calls": c, "total_s": t} for k, (c, t) in tree.items()},
            "covered_s": covered,
            "spans": len(spans),
        }

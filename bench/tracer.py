"""Per-layer tracing from outside the package.

The tracer replaces functions of the umpair modules with timing wrappers for
the length of one traced pass, then puts the originals back.  A function is
replaced wherever it is looked up: in every umpair module namespace that
holds it (``engine`` imports ``canonical_key`` by name, ``dim2`` calls its
module-global ``glue2``) and, for methods, in the class dict under every
alias (``Scalar.__radd__`` is ``Scalar.__add__``).

Each wrapped call is a span.  A layer's self time is the span's duration
minus the durations of the wrapped calls it made, so the self times of all
layers plus the time spent outside any wrapped call add up to the pass.
Hot leaf layers (glue, complexity, Scalar, FormalSum) are only summed;
coarse layers also keep each span (name, start, end, parent, request) in
memory, written to a file when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Any, Callable

# (module, attribute, self-time metric, call-count metric, keep each span)
WRAPS: tuple[tuple[str, str, str, str | None, bool], ...] = (
    ("cli", "main", "cli.self_s", None, True),
    ("engine", "verify_lemma", "engine.verify_lemma_self_s", None, True),
    ("engine", "null_search", "engine.null_search_self_s", None, True),
    ("engine", "certify_positive", "engine.certify_self_s", None, True),
    ("engine", "pair", "engine.pair_self_s", "engine.pair_calls", True),
    ("dim1", "enumerate1", "dim1.enumerate1_s", None, True),
    ("dim1", "glue1", "dim1.glue1_self_s", "dim1.glue1_calls", False),
    ("dim2", "enumerate2", "dim2.enumerate2_s", None, True),
    ("dim2", "verify_lemma_grid", "dim2.grid_self_s", None, True),
    ("dim2", "glue2", "dim2.glue2_self_s", "dim2.glue2_calls", False),
    ("dim2", "complexity2", "dim2.complexity2_self_s", "dim2.complexity2_calls", False),
    ("monomial", "enumerate_monomials", "monomial.enumerate_s", None, True),
    ("monomial", "MonomialTheory.glue", "monomial.glue_self_s", "monomial.glue_calls", False),
    ("monomial", "complexity_mono", "monomial.complexity_self_s",
     "monomial.complexity_calls", False),
    ("algebra", "canonical_key", "algebra.canonical_key_self_s",
     "algebra.canonical_key_calls", False),
    ("algebra", "FormalSum.from_json", "algebra.from_json_self_s", None, False),
    ("algebra", "Scalar.from_json", "algebra.from_json_self_s", None, False),
    ("algebra", "FormalSum.__init__", "algebra.formalsum_self_s", "algebra.formalsum_new", False),
    ("algebra", "FormalSum.coefficient", "algebra.formalsum_self_s", None, False),
    ("algebra", "FormalSum.to_json", "algebra.formalsum_self_s", None, False),
    ("algebra", "sum_combine", "algebra.formalsum_self_s", None, False),
    ("algebra", "Scalar.__init__", "algebra.scalar_self_s", "algebra.scalar_new", False),
    ("algebra", "as_scalar", "algebra.scalar_self_s", None, False),
    *(("algebra", f"Scalar.{m}", "algebra.scalar_self_s", None, False)
      for m in ("__add__", "__sub__", "__mul__", "__neg__", "__truediv__",
                "conj", "inverse", "norm2", "is_zero", "to_json")),
)

# Theory classes whose ``glue`` counts towards engine.glue_calls.
GLUE_THEORIES = (("dim1", "Dim1Theory"), ("dim2", "Dim2Theory"),
                 ("monomial", "MonomialTheory"), ("fourdim", "FourDimTheory"))

SELF_METRICS = tuple(dict.fromkeys(w[2] for w in WRAPS))
COUNT_METRICS = tuple(w[3] for w in WRAPS if w[3]) + ("engine.glue_calls",)


class Tracer:
    """Span accounting for one traced pass at a time."""

    def __init__(self) -> None:
        self._patches: list[tuple[Any, str, Any]] = []
        self.reset()

    def reset(self) -> None:
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.glue_keys: set[Any] = set()
        self.stack: list[float] = []      # child time of each open wrapped call
        self.open_spans: list[int] = []   # ids of open kept spans
        self.spans: list[dict[str, Any]] = []
        self.top_s = 0.0                  # time inside outermost wrapped calls
        self.request = 0

    # -- wrappers --------------------------------------------------------

    def _timed(self, fn: Callable, name: str, metric: str, counter: str | None,
               keep: bool) -> Callable:
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = self.stack
            if keep:
                sid = len(self.spans)
                span = {"id": sid, "name": name, "request": self.request,
                        "parent": self.open_spans[-1] if self.open_spans else None}
                self.spans.append(span)
                self.open_spans.append(sid)
            start = clock()
            stack.append(0.0)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                duration = end - start
                self.self_s[metric] += duration - stack.pop()
                if stack:
                    stack[-1] += duration
                else:
                    self.top_s += duration
                if counter:
                    self.calls[counter] += 1
                if keep:
                    self.open_spans.pop()
                    span["start"], span["end"] = start, end
        return wrapper

    def _glue_counter(self, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(theory: Any, a: Any, b: Any) -> Any:
            self.calls["engine.glue_calls"] += 1
            try:
                self.glue_keys.add((theory, a, b))
            except TypeError:  # theory not hashable (fourdim's table)
                self.glue_keys.add((id(theory), a, b))
            return fn(theory, a, b)
        return wrapper

    # -- install / remove ------------------------------------------------

    def _replace(self, module: str, attribute: str, make: Callable[[Callable], Callable]
                 ) -> None:
        mod = sys.modules[f"umpair.{module}"]
        if "." in attribute:
            cls_name, name = attribute.split(".")
            owner = getattr(mod, cls_name)
            raw = vars(owner)[name]
            if isinstance(raw, classmethod):
                new: Any = classmethod(make(raw.__func__))
            else:
                new = make(raw)
            owners = [(owner, n) for n, v in vars(owner).items() if v is raw]
        else:
            raw = getattr(mod, attribute)
            new = make(raw)
            owners = [(m, n) for key, m in list(sys.modules.items())
                      if key == "umpair" or key.startswith("umpair.")
                      for n, v in vars(m).items() if v is raw]
        for owner, name in owners:
            self._patches.append((owner, name, raw))
            setattr(owner, name, new)

    def install(self) -> None:
        """Wrap every listed function; counters start from zero."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        self.reset()
        for module, attribute, metric, counter, keep in WRAPS:
            name = f"{module}.{attribute}"
            self._replace(module, attribute, lambda fn, n=name, m=metric, c=counter, k=keep:
                          self._timed(fn, n, m, c, k))
        for module, cls_name in GLUE_THEORIES:
            self._replace(module, f"{cls_name}.glue", self._glue_counter)

    def remove(self) -> None:
        while self._patches:
            owner, name, raw = self._patches.pop()
            setattr(owner, name, raw)

    # -- results ---------------------------------------------------------

    def layers(self) -> dict[str, float | int]:
        """Self times and counts of the last traced pass, every metric present."""
        out: dict[str, float | int] = {m: self.self_s.get(m, 0.0) for m in SELF_METRICS}
        out.update({c: self.calls.get(c, 0) for c in COUNT_METRICS})
        distinct, glue_calls = len(self.glue_keys), out["engine.glue_calls"]
        out["engine.distinct_glue_pairs"] = distinct
        out["engine.glue_reuse_ratio"] = distinct / glue_calls if glue_calls else 0.0
        return out

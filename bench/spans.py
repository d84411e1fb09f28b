"""In-memory span tracer for the projpair benchmark.

The tracer wraps the module attributes through which projpair's layers
call each other, so every call into a layer's public function becomes a
span: name, start, end, the span that was open when it began, and the
benchmark item it belongs to.  Functions that other modules import by
name are wrapped in each importing module as well, because those
callers look the name up in their own globals.  ``Matrix.__mul__`` is
wrapped on the class.

Spans stay in memory; :meth:`Tracer.dump` writes them out once the run
is over.  Nothing here changes what projpair computes: every wrapper
calls the original and returns its result unchanged.
"""

from __future__ import annotations

import importlib
import json
import time
from fractions import Fraction

# (module, attribute, span name).  The module is named relative to the
# projpair package; "linalg.Matrix" means the class inside linalg.
LAYER_PATCHES = (
    ("linalg.Matrix", "__mul__", "linalg.matmul"),
    ("linalg", "rank", "linalg.rank"),
    ("linalg", "kernel_basis", "linalg.kernel_basis"),
    ("linalg", "subspace_intersection", "linalg.subspace_intersection"),
    ("linalg", "subspace_sum", "linalg.subspace_sum"),
    ("linalg", "restrict_operator", "linalg.restrict_operator"),
    ("fitting", "rank", "linalg.rank"),
    ("fitting", "kernel_basis", "linalg.kernel_basis"),
    ("fitting", "subspace_sum", "linalg.subspace_sum"),
    ("fitting", "restrict_operator", "linalg.restrict_operator"),
    ("index", "rank", "linalg.rank"),
    ("index", "kernel_basis", "linalg.kernel_basis"),
    ("index", "subspace_intersection", "linalg.subspace_intersection"),
    ("pairs", "make_pair", "pairs.make_pair"),
    ("pairfile", "make_pair", "pairs.make_pair"),
    ("pairs", "derived_ops", "pairs.derived_ops"),
    ("fitting", "derived_ops", "pairs.derived_ops"),
    ("index", "derived_ops", "pairs.derived_ops"),
    ("fitting", "verify_fitting", "fitting.verify_fitting"),
    ("fitting", "fitting_decomposition", "fitting.fitting_decomposition"),
    ("index", "fitting_decomposition", "fitting.fitting_decomposition"),
    ("index", "compute_eigenspaces", "index.compute_eigenspaces"),
    ("index", "index_report", "index.index_report"),
    ("cli", "index_report", "index.index_report"),
    ("pairfile", "load_pair", "pairfile.load_pair"),
    ("cli", "load_pair", "pairfile.load_pair"),
)

def entry_bits(matrices) -> int:
    """Largest numerator or denominator bit length over rational matrices."""
    best = 0
    for m in matrices:
        for row in m.data:
            for x in row:
                if isinstance(x, Fraction):
                    best = max(best, x.numerator.bit_length(), x.denominator.bit_length())
    return best


class Tracer:
    """Records spans around projpair's layer boundaries while installed.

    A span is ``[id, parent_id, item, name, start, end, error]``; ``error``
    is the exception class name when the call raised, else None.  The
    counters collect facts about results that the spans cannot carry:
    the largest Fitting exponent and the largest rational entry size.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.item: int | None = None
        self.counters = {"fitting.k_max": 0, "linalg.max_entry_bits": 0}
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn):
        """Return ``fn`` recording a span named ``name`` around each call."""
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(spans)
            span = [sid, stack[-1] if stack else None, self.item, name, 0.0, 0.0, None]
            spans.append(span)
            stack.append(sid)
            span[4] = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span[6] = type(exc).__name__
                raise
            finally:
                span[5] = clock()
                stack.pop()
            if name == "fitting.fitting_decomposition":
                self._observe_fitting(args[0], result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _observe_fitting(self, pair, fd) -> None:
        self.counters["fitting.k_max"] = max(self.counters["fitting.k_max"], fd.k)
        mats = [pair.P, pair.Q, fd.F.basis, fd.Y.basis, fd.P_F, fd.Q_F, fd.M_F,
                fd.S_F, fd.P_Y, fd.Q_Y, fd.M_Y, fd.S_Y]
        bits = entry_bits(mats)
        self.counters["linalg.max_entry_bits"] = max(self.counters["linalg.max_entry_bits"], bits)

    def install(self, package) -> None:
        """Wrap every attribute in LAYER_PATCHES inside ``package``'s modules."""
        for owner_name, attr, span_name in LAYER_PATCHES:
            mod_name, _, cls_name = owner_name.partition(".")
            owner = importlib.import_module(f"{package.__name__}.{mod_name}")
            if cls_name:
                owner = getattr(owner, cls_name)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(span_name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def dump(self, path, extra: dict | None = None) -> None:
        doc = {"spans": self.spans, "counters": self.counters}
        doc.update(extra or {})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)


def span_totals(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and total self seconds.

    Total seconds count only the outermost span of a name, so a function
    that reaches itself through another traced call is not counted twice.
    Self time is a span's duration minus the durations of its direct
    children; spans on one thread nest, so children never overlap.  Span
    ids must be positions in ``spans``, as :class:`Tracer` assigns them.
    """
    child_time: dict[int, float] = {}
    for s in spans:
        if s[1] is not None:
            child_time[s[1]] = child_time.get(s[1], 0.0) + (s[5] - s[4])
    out: dict[str, dict[str, float]] = {}
    for s in spans:
        sid, parent, _, name, start, end, _ = s
        row = out.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += (end - start) - child_time.get(sid, 0.0)
        ancestor = parent
        while ancestor is not None and spans[ancestor][3] != name:
            ancestor = spans[ancestor][1]
        if ancestor is None:
            row["s"] += end - start
    return out

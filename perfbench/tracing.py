"""Spans and counters recorded around sylres's public functions, from outside.

`Tracer.install` replaces each function in TRACED by a wrapper in every
loaded `sylres` module that binds it: the modules import each other's names
with `from .x import y`, so patching only the defining module would miss
most calls. The lru-cached Schur functions are wrapped outside their cache,
so a cache hit is a short span.

Spans live in flat arrays (name, start, end, parent, op) until the run ends.
A span's self time is its duration minus the durations of its children;
calls are single-threaded and strictly nested, so children never overlap.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, attribute path) of every function that gets a span.
TRACED = (
    ("verify", "replay"),
    ("verify", "grid_check_identity"),
    ("sylvester", "sres_det"),
    ("sylvester", "sylm"),
    ("sylvester", "syl_double"),
    ("sylvester", "syl_single"),
    ("sylvester", "single_sum_eval"),
    ("sylvester", "exchange_rhs_eval"),
    ("sylvester", "apery_jouanolou_rhs"),
    ("schur", "schur_value"),
    ("schur", "schur_poly_x"),
    ("linalg", "det_q"),
    ("linalg", "det_p"),
    ("rootsets", "rprod"),
    ("rootsets", "rprod_vals"),
    ("io", "parse_multiset"),
    ("combinatorics", "sigma_sign"),
    ("poly", "Poly.exact_div"),
)

CACHED = ("schur_value", "schur_poly_x")


def _max_bits(poly) -> int:
    return max((max(c.numerator.bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


class Tracer:
    """Records spans and exact counts for one run of one process."""

    def __init__(self):
        self.names = [f"{mod}.{path}" for mod, path in TRACED]
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.current_op = -1
        self._stack = [-1]
        self.terms = 0
        self.det_n_max = 0
        self.det_work_n3 = 0
        self.rprod_zero = 0
        self.out_bits_max = 0
        self._caches = {}

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if (name == "sylres" or name.startswith("sylres."))
                   and m is not None]
        for idx, (mod, path) in enumerate(TRACED):
            owner = sys.modules[f"sylres.{mod}"]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                setattr(cls, attr, self._span(idx, getattr(cls, attr)))
                continue
            original = getattr(owner, path)
            if path in CACHED:
                self._caches[f"{mod}.{path}"] = original
            wrapped = self._span(idx, original, self._observer(path))
            for m in modules:
                if getattr(m, path, None) is original:
                    setattr(m, path, wrapped)
        original = sys.modules["sylres.sylvester"].sylm_terms
        counted = self._count_terms(original)
        for m in modules:
            if getattr(m, "sylm_terms", None) is original:
                setattr(m, "sylm_terms", counted)

    def _observer(self, path):
        if path == "det_q":
            def observe(args, result):
                n = args[0].rows
                self.det_n_max = max(self.det_n_max, n)
                self.det_work_n3 += n ** 3
            return observe
        if path == "rprod":
            def observe(args, result):
                if result == 0:
                    self.rprod_zero += 1
            return observe
        if path in ("sres_det", "sylm"):
            def observe(args, result):
                self.out_bits_max = max(self.out_bits_max, _max_bits(result))
            return observe
        return None

    def _span(self, idx, fn, observe=None):
        name, start, end = self.name, self.start, self.end
        parent, op, stack = self.parent, self.op, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            sid = len(start)
            name.append(idx)
            parent.append(stack[-1])
            op.append(self.current_op)
            end.append(0.0)
            stack.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _count_terms(self, fn):
        def wrapper(*args, **kwargs):
            terms = fn(*args, **kwargs)  # the degree check stays eager

            def counted():
                for term in terms:
                    self.terms += 1
                    yield term
            return counted()

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results -------------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Per-function calls, total and self seconds, and the exact counts."""
        k = len(self.names)
        calls, total, self_s = [0] * k, [0.0] * k, [0.0] * k
        for sid in range(len(self.start)):
            dur = self.end[sid] - self.start[sid]
            i = self.name[sid]
            calls[i] += 1
            total[i] += dur
            self_s[i] += dur
            if self.parent[sid] >= 0:
                self_s[self.name[self.parent[sid]]] -= dur
        out = {}
        for i, label in enumerate(self.names):
            out[f"{label}.calls"] = calls[i]
            out[f"{label}.total_s"] = total[i]
            out[f"{label}.self_s"] = self_s[i]
        out["sylvester.sylm_terms.terms"] = self.terms
        for label, cached in self._caches.items():
            info = cached.cache_info()
            out[f"{label}.hits"] = info.hits
            out[f"{label}.misses"] = info.misses
        out["linalg.det_q.n_max"] = self.det_n_max
        out["linalg.det_q.work_n3"] = self.det_work_n3
        rprod_calls = out["rootsets.rprod.calls"]
        out["rootsets.rprod.zero_frac"] = (self.rprod_zero / rprod_calls
                                           if rprod_calls else 0.0)
        out["rationals.out_bits_max"] = self.out_bits_max
        return out

    def write_spans(self, path) -> None:
        """Write every span as gzipped JSON, one column per field."""
        doc = {
            "names": self.names,
            "fields": ["name", "start", "end", "parent", "op"],
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.op.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh, separators=(",", ":"))

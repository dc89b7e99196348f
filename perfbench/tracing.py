"""Spans around the public functions of each ``diffalg`` module.

``Tracer.install()`` wraps every public module-level function of every
``diffalg`` module, plus the hot methods named in ``METHODS``, and rebinds
each wrapper wherever the original is bound by name: in the module that
defines it and in every module that imports it (``diffalg.cli.radical_member``,
``diffalg.decompose.ritt_reduce_seq``, the package namespace, ...).
``remove()`` puts every original object back.

A span is (name, start, end, parent span, query).  Spans are kept in
a flat array while the traced pass runs and written out at the end.  Counts
are taken from the objects the functions return.  A layer is a module; its
self time is the time its spans cover minus the time their child spans
cover, so work the layer does in the standard library (``Fraction``
arithmetic, for instance) counts toward the layer that called it.
"""

from __future__ import annotations

import functools
import gzip
import re
import sys
import time
from array import array
from collections import Counter
from pathlib import Path

PACKAGE = "diffalg"
MODULES = (
    "cli",
    "sysfile",
    "decompose",
    "reduction",
    "ranking",
    "jacobi",
    "linearize",
    "oracle",
    "diffpoly",
    "fields",
)

# (module, class, attribute, span name) for methods that get spans.
METHODS = (
    ("diffpoly", "DiffPoly", "__mul__", "diffpoly.mul"),
    ("diffpoly", "DiffPoly", "derive", "diffpoly.derive"),
    ("fields", "RatFunc", "__add__", "fields.ratfunc.add"),
    ("fields", "RatFunc", "__sub__", "fields.ratfunc.sub"),
    ("fields", "RatFunc", "__neg__", "fields.ratfunc.neg"),
    ("fields", "RatFunc", "__mul__", "fields.ratfunc.mul"),
    ("fields", "RatFunc", "__truediv__", "fields.ratfunc.div"),
    ("fields", "RatFunc", "derive", "fields.ratfunc.derive"),
)

# Static methods that are only counted: they are called far too often for a
# span each, and their time stays in the caller's self time.
COUNTED = (("diffpoly", "Monomial", "make", "diffpoly.monomial_make"),)

_CAP_SKIPS = re.compile(r"(\d+) stage\(s\) skipped by the candidate cap")


def _count_cert(tracer, cert) -> None:
    tracer.counts["reduction.steps"] += cert.steps
    tracer.counts["reduction.remainder_terms"] += cert.remainder.term_count()
    tracer.counts["reduction.zero_remainders"] += cert.remainder.is_zero()


def _count_witness(tracer, w) -> None:
    if w.is_member():
        tracer.counts["oracle.members"] += 1
        return
    m = _CAP_SKIPS.search(w.diagnostic)
    if m:
        tracer.counts["oracle.cap_skips"] += int(m.group(1))
    elif "candidate cap" in w.diagnostic:
        tracer.counts["oracle.cap_skips"] += 1


def _count_radical(tracer, w) -> None:
    if w.is_member():
        tracer.counts["oracle.radical.witness_power"] += w.power


def _count_decomposition(tracer, dec) -> None:
    tracer.counts["decompose.components"] += len(dec.components)
    tracer.counts["decompose.incomplete"] += not dec.complete


def _count_product(tracer, p) -> None:
    tracer.counts["diffpoly.mul.terms_out"] += p.term_count()


ON_RETURN = {
    "reduction.ritt_reduce_seq": _count_cert,
    "oracle.truncated_member": _count_witness,
    "oracle.radical_member": _count_radical,
    "decompose.split_decompose": _count_decomposition,
    "diffpoly.mul": _count_product,
}


class Tracer:
    """Span store plus the patch table that installs and removes the
    wrappers.  Single-threaded: spans nest through one stack."""

    def __init__(self):
        self.names: list = []
        self._name_ids: dict = {}
        # Five numbers per span (name id, parent, query, start, end), in one
        # array so that a span is added by a single call: a timer signal
        # that cuts a query short can land between calls, never inside one.
        self.spans = array("d")
        self.stack: list = []
        self.query = -1
        self.counts: Counter = Counter()
        self._patches: list = []  # (owner, attribute, original)

    # -- spans ---------------------------------------------------------------

    def start_query(self, index: int) -> None:
        self.query = index
        self.stack.clear()

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _spanned(self, fn, name: str):
        nid = self._name_id(name)
        on_return = ON_RETURN.get(name)
        clock = time.perf_counter
        spans, stack = self.spans, self.stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans) // 5
            spans.extend((nid, stack[-1] if stack else -1, tracer.query, clock(), 0.0))
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                spans[5 * idx + 4] = clock()
                if stack and stack[-1] == idx:
                    stack.pop()
            if on_return is not None:
                on_return(tracer, result)
            return result

        return wrapper

    def _counted(self, fn, name: str):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name + ".calls"] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- patching ------------------------------------------------------------

    def _setattr(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = [
            m for name, m in sorted(sys.modules.items()) if name.split(".")[0] == PACKAGE and m is not None
        ]
        for short in MODULES:
            mod = sys.modules[f"{PACKAGE}.{short}"]
            for attr, obj in sorted(vars(mod).items()):
                if attr.startswith("_") or not callable(obj) or isinstance(obj, type):
                    continue
                if getattr(obj, "__module__", None) != mod.__name__:
                    continue
                wrapper = self._spanned(obj, f"{short}.{attr}")
                for other in modules:
                    for name, value in list(vars(other).items()):
                        if value is obj:
                            self._setattr(other, name, wrapper)
        for short, cls_name, attr, name in METHODS:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            self._setattr(cls, attr, self._spanned(cls.__dict__[attr], name))
        for short, cls_name, attr, name in COUNTED:
            cls = getattr(sys.modules[f"{PACKAGE}.{short}"], cls_name)
            fn = cls.__dict__[attr].__func__
            self._setattr(cls, attr, staticmethod(self._counted(fn, name)))

    def remove(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -------------------------------------------------------------

    def span_count(self) -> int:
        return len(self.spans) // 5

    def _rows(self):
        """(name, parent, query, start, end) per span; a span that a timer
        signal cut off before its end was stored gets zero duration."""
        s = self.spans
        for i in range(0, len(s), 5):
            start, end = s[i + 3], s[i + 4]
            yield int(s[i]), int(s[i + 1]), int(s[i + 2]), start, max(start, end)

    def aggregate(self) -> dict:
        """Calls and self time per span name; direct child calls per
        (parent name, child name); per layer the self time and the time its
        outermost spans cover; self time per (query, layer)."""
        rows = list(self._rows())
        names = self.names
        layer_ids = {}
        layer_of = [layer_ids.setdefault(n.split(".")[0], len(layer_ids)) for n in names]
        dur = [end - start for _, _, _, start, end in rows]
        child = [0.0] * len(rows)
        active = [0] * len(rows)  # bit mask of the layers open around a span
        calls: Counter = Counter()
        self_s: Counter = Counter()
        direct: Counter = Counter()
        layer_incl: Counter = Counter()
        for i, (nid, parent, _, _, _) in enumerate(rows):
            bit = 1 << layer_of[nid]
            outer = active[parent] if parent >= 0 else 0
            active[i] = outer | bit
            if not outer & bit:
                layer_incl[names[nid].split(".")[0]] += dur[i]
            if parent >= 0:
                child[parent] += dur[i]
                direct[(names[rows[parent][0]], names[nid])] += 1
        layer_self: Counter = Counter()
        query_layer: Counter = Counter()
        for i, (nid, _, query, _, _) in enumerate(rows):
            name = names[nid]
            own = dur[i] - child[i]
            calls[name] += 1
            self_s[name] += own
            layer_self[name.split(".")[0]] += own
            query_layer[(query, name.split(".")[0])] += own
        return {
            "calls": calls,
            "self": self_s,
            "direct": direct,
            "layer_self": layer_self,
            "layer_incl": layer_incl,
            "query_layer": query_layer,
        }

    def write(self, path: Path, query_ids) -> None:
        """All spans as gzip'd tab-separated lines: span, parent, query id,
        name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tparent\tquery\tname\tstart_s\tend_s\n")
            for i, (nid, parent, q, start, end) in enumerate(self._rows()):
                qid = query_ids[q] if q >= 0 else "-"
                fh.write(f"{i}\t{parent}\t{qid}\t{self.names[nid]}\t{start:.7f}\t{end:.7f}\n")

"""Outside-in tracing of deltacalc's public functions.

``Tracer.install`` replaces each function named in ``TIMED`` with a wrapper,
in its class or in every deltacalc module that holds it by name (for
example ``fdeg_general`` in ``fdeg``, ``cli`` and ``identities``), so
calls made inside the library are seen as well as the benchmark's own.
Nothing in the library changes.

Each wrapped call adds to its name's call count, self time (its
duration minus the time covered by wrapped calls it made) and inclusive
time.  Calls of the coarse names (``keep_span``) are also kept as spans
(name, start, end, parent span, op id) in memory and written out at the
end.  The hot leaf functions are called millions of times per run; they
are folded into the counters only, which keeps the traced run's memory
small.  ``COUNTED`` names only count calls.

Wrappers do nothing but call through while the tracer is inactive, so
the benchmark's output checks are not traced.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter
from time import perf_counter

# (metric prefix, module, attribute, keep spans)
TIMED = [
    ("group_ring.mul", "deltacalc.group_ring", "GroupRingElement.__mul__", False),
    ("group_ring.apply", "deltacalc.group_ring", "apply", False),
    ("group_ring.word_operator", "deltacalc.group_ring", "word_operator", True),
    ("polyfract.shift_by", "deltacalc.polyfract", "Polyfract.shift_by", False),
    ("polyfract.delta_direction", "deltacalc.polyfract", "Polyfract.delta_direction", False),
    ("polyfract.eval", "deltacalc.polyfract", "Polyfract.eval", False),
    ("polyfract.from_samples", "deltacalc.polyfract", "from_samples", True),
    ("expansion.expand_word_grouped", "deltacalc.expansion", "expand_word_grouped", True),
    ("expansion.expand_word_sequence", "deltacalc.expansion", "expand_word_sequence", True),
    ("fdeg.fdeg_general", "deltacalc.fdeg", "fdeg_general", True),
    ("fdeg.fdeg_standard_by_search", "deltacalc.fdeg", "fdeg_standard_by_search", True),
    ("identities.verify_identity", "deltacalc.identities", "verify_identity", True),
    ("identities.alt_sum_multivariate", "deltacalc.identities", "alt_sum_multivariate", False),
    ("cli.run", "deltacalc.cli", "run", True),
    ("cli.parse", "deltacalc.cli", "parse", True),
    ("cli.lower", "deltacalc.cli", "lower", True),
]

COUNTED = [
    ("group_ring.init", "deltacalc.group_ring", "GroupRingElement.__init__"),
    ("polyfract.init", "deltacalc.polyfract", "Polyfract.__init__"),
]

LAYERS = ["group_ring", "polyfract", "expansion", "fdeg", "identities", "cli"]

# The library's two memo caches, read through cache_info().
CACHES = [("polyfract.binom", "binom"), ("polyfract.shifted_basis", "_shifted_basis")]


class Tracer:
    def __init__(self):
        self.active = False
        self.names = [name for name, *_ in TIMED] + [name for name, *_ in COUNTED]
        self.index = {name: i for i, name in enumerate(self.names)}
        self.calls = [0] * len(self.names)
        self.self_s = [0.0] * len(self.names)
        self.wall_s = [0.0] * len(self.names)
        self.stack: list[list[float]] = []  # time covered by children, per open call
        self.open: list[int] = []  # ids of the open kept spans
        self.spans: list = []
        self.seen: set[int] = set()  # names reached by the current op
        self.extra: Counter = Counter()
        self.op = -1
        self._op_span = -1
        self._op_start = 0.0
        self._caches = []
        self._cache_marks = []

    # -- ops

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self.seen.clear()
        self._cache_marks = [fn.cache_info() for _, fn in self._caches]
        self.active = True
        self._op_span = self.open_span()
        self._op_start = perf_counter()

    def end_op(self) -> set[str]:
        """Close the op; return the names it reached."""
        end = perf_counter()
        self.active = False
        self.close_span(self._op_span, "op", self._op_start, end)
        for (name, fn), mark in zip(self._caches, self._cache_marks):
            info = fn.cache_info()
            self.extra[f"{name}.hits"] += info.hits - mark.hits
            self.extra[f"{name}.misses"] += info.misses - mark.misses
        return {self.names[i] for i in self.seen}

    # -- spans

    def open_span(self) -> int:
        span = len(self.spans)
        self.spans.append(None)
        self.open.append(span)
        return span

    def close_span(self, span: int, name: str, start: float, end: float) -> None:
        self.open.pop()
        parent = self.open[-1] if self.open else -1
        self.spans[span] = (name, start, end, parent, self.op)

    def write_spans(self, path: str) -> None:
        with open(path, "w") as out:
            for name, start, end, parent, op in self.spans:
                record = {"name": name, "start": start, "end": end, "parent": parent, "op": op}
                out.write(json.dumps(record) + "\n")

    # -- wrappers

    def timed(self, name: str, fn, keep_span: bool, before=None, after=None):
        index = self.index[name]
        calls, self_s, wall_s, stack, seen = (
            self.calls, self.self_s, self.wall_s, self.stack, self.seen
        )

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = self.open_span() if keep_span else None
            mark = before() if before else None
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                elapsed = end - start
                if stack:
                    stack[-1][0] += elapsed
                calls[index] += 1
                self_s[index] += elapsed - frame[0]
                wall_s[index] += elapsed
                seen.add(index)
                if keep_span:
                    self.close_span(span, name, start, end)
            if after:
                after(result, mark)
            return result

        return wrapper

    def counted(self, name: str, fn):
        index = self.index[name]
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                calls[index] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks that read what a call returned

    def _hooks(self, name: str):
        extra = self.extra
        if name == "fdeg.fdeg_general":
            deltas = self.index["polyfract.delta_direction"]

            def after(report, mark):
                extra["fdeg.delta_calls"] += self.calls[deltas] - mark
                extra["fdeg.words_refuted"] += report.words_refuted
                extra["fdeg.exhaustive"] += report.exhaustive

            return (lambda: self.calls[deltas]), after
        if name == "expansion.expand_word_sequence":
            return None, lambda terms, _: extra.update({"expansion.sequence_terms": len(terms)})
        if name == "expansion.expand_word_grouped":
            return None, lambda grouped, _: extra.update({"expansion.groups": len(grouped.terms)})
        if name == "identities.verify_identity":
            return None, lambda report, _: extra.update(
                {"identities.instances": report.instances_checked}
            )
        return None, None

    def install(self) -> None:
        """Wrap every traced name in the loaded deltacalc modules."""
        import deltacalc.cli  # noqa: F401  (loads every layer)
        import deltacalc.polyfract

        for name, module_name, attribute, keep_span in TIMED:
            cls, attr, original = _resolve(module_name, attribute)
            before, after = self._hooks(name)
            _replace(cls, attr, original, self.timed(name, original, keep_span, before, after))
        for name, module_name, attribute in COUNTED:
            cls, attr, original = _resolve(module_name, attribute)
            _replace(cls, attr, original, self.counted(name, original))
        # A cache the library drops or renames reads as zero lookups.
        self._caches = [
            (name, fn)
            for name, attribute in CACHES
            if hasattr(fn := getattr(deltacalc.polyfract, attribute, None), "cache_info")
        ]

    # -- results

    def counts(self) -> dict:
        """Every count the traced run makes; two runs of the same ops must agree."""
        out = {f"{name}.calls": self.calls[i] for i, name in enumerate(self.names)}
        out.update(self.extra)
        for name, fn in self._caches:
            out[f"{name}.cache_size"] = fn.cache_info().currsize
        out["trace.spans"] = len(self.spans)
        return out

    def metrics(self) -> dict:
        counts = self.counts()
        out = {f"{name}.calls": counts[f"{name}.calls"] for name in self.names}
        for name, *_ in TIMED:
            out[f"{name}.self_s"] = self.self_s[self.index[name]]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                self.self_s[self.index[name]]
                for name, *_ in TIMED
                if name.split(".")[0] == layer
            )
        for name, _ in CACHES:
            hits = counts.get(f"{name}.hits", 0)
            lookups = hits + counts.get(f"{name}.misses", 0)
            out[f"{name}.lookups"] = lookups
            out[f"{name}.hit_ratio"] = hits / lookups if lookups else 0.0
            out[f"{name}.cache_size"] = counts.get(f"{name}.cache_size", 0)
        terms = counts.get("expansion.sequence_terms", 0)
        groups = counts.get("expansion.groups", 0)
        out["expansion.sequence_terms"] = terms
        out["expansion.groups"] = groups
        out["expansion.group_yield"] = groups / terms if terms else 0.0
        degree_calls = counts["fdeg.fdeg_general.calls"]
        out["fdeg.words_refuted"] = counts.get("fdeg.words_refuted", 0)
        out["fdeg.delta_calls_per_call"] = (
            counts.get("fdeg.delta_calls", 0) / degree_calls if degree_calls else 0.0
        )
        out["fdeg.exhaustive_ratio"] = (
            counts.get("fdeg.exhaustive", 0) / degree_calls if degree_calls else 0.0
        )
        instances = counts.get("identities.instances", 0)
        verify_wall = self.wall_s[self.index["identities.verify_identity"]]
        out["identities.instances"] = instances
        out["identities.verify_identity.wall_s"] = verify_wall
        out["identities.instances_per_s"] = instances / verify_wall if verify_wall else 0.0
        out["trace.spans"] = counts["trace.spans"]
        return out


def _resolve(module_name: str, attribute: str):
    owner = sys.modules[module_name]
    if "." in attribute:
        class_name, method = attribute.split(".")
        cls = getattr(owner, class_name)
        return cls, method, cls.__dict__[method]
    return None, attribute, getattr(owner, attribute)


def _replace(cls, attribute: str, original, wrapper) -> None:
    if cls is not None:
        setattr(cls, attribute, wrapper)
        return
    for module_name, module in list(sys.modules.items()):
        if module_name == "deltacalc" or module_name.startswith("deltacalc."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)

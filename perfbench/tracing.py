"""Per-layer tracing from outside the package.

`Tracer.installed()` replaces each function in `WRAPS` by a recording
wrapper under the module attribute its callers look it up by, and puts
every original back on exit.  Spans stay in memory as
[name, start, end, parent, size] lists; a span's self time is its
duration minus the durations of its direct children.

`partitions` is not wrapped: its helpers are leaves called hundreds of
thousands of times per sweep, so a wrapper would distort the trace, and
their time lands in their callers' self time instead.
"""

from __future__ import annotations

import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, metric name, kind).  A "span" wrapper records a
# span per call; a "count" wrapper only counts calls and truthy results,
# because it runs once per path or class and a span each would dominate
# the trace -- its time stays in the enclosing span's self time.
WRAPS = (
    ("branching", "enumerate_std", "branching.enumerate_std", "span"),
    ("branching", "enumerate_std0", "branching.enumerate_std0", "span"),
    ("tableaux", "enumerate_std0", "branching.enumerate_std0", "span"),
    ("tableaux", "mu_classes", "tableaux.mu_classes", "span"),
    ("tableaux", "count_sstd", "tableaux.count_sstd", "span"),
    ("tableaux", "swap_adjacent", "tableaux.swap_adjacent", "count"),
    ("tableaux", "is_semistandard", "tableaux.is_semistandard", "count"),
    ("tableaux", "is_lattice", "tableaux.is_lattice", "count"),
    ("oracle", "stable_kronecker_oracle", "oracle.stable_kronecker_oracle", "span"),
    ("oracle", "kronecker", "oracle.kronecker", "span"),
    ("diagalg", "verify_thm33", "diagalg.verify_thm33", "span"),
    ("diagalg", "murphy_u", "diagalg.murphy_u", "span"),
    ("diagalg", "multiply", "diagalg.multiply", "span"),
)

# The size recorded with a span: paths returned, classes formed, or the
# n a Kronecker coefficient was evaluated at.
SIZES = {
    "branching.enumerate_std": lambda args, result: len(result),
    "branching.enumerate_std0": lambda args, result: len(result),
    "tableaux.mu_classes": lambda args, result: len(result),
    "oracle.kronecker": lambda args, result: sum(args[0]),
}

# Per-layer metric: unit.
LAYER_METRICS = {
    "branching.enumerate_std.calls": "count",
    "branching.enumerate_std.repeat_calls": "count",
    "branching.enumerate_std.paths": "count",
    "branching.enumerate_std.self_s": "s",
    "branching.enumerate_std0.kept": "count",
    "branching.radical_keep_ratio": "ratio",
    "tableaux.mu_classes.calls": "count",
    "tableaux.mu_classes.classes": "count",
    "tableaux.mu_classes.self_s": "s",
    "tableaux.swap_adjacent.calls": "count",
    "tableaux.swap_adjacent.valid_ratio": "ratio",
    "tableaux.semistandard_ratio": "ratio",
    "tableaux.latticed_ratio": "ratio",
    "tableaux.count_sstd.calls": "count",
    "oracle.stable_kronecker_oracle.calls": "count",
    "oracle.stable_kronecker_oracle.self_s": "s",
    "oracle.kronecker.calls": "count",
    "oracle.kronecker.self_s": "s",
    "oracle.kronecker.max_n": "n",
    "oracle.n_per_result": "ratio",
    "diagalg.verify_thm33.calls": "count",
    "diagalg.verify_thm33.self_s": "s",
    "diagalg.murphy_u.calls": "count",
    "diagalg.murphy_u.self_s": "s",
    "diagalg.multiply.calls": "count",
    "diagalg.multiply.self_s": "s",
    "cli.verify.checks": "count",
    "cli.verify.time_s": "s",
    "trace.wall_s": "s",
}


def ratio(part, whole) -> float:
    """part / whole, or 0.0 when nothing was attempted."""
    return part / whole if whole else 0.0


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.truthy: Counter = Counter()
        self.repeat_calls = 0
        self._stack: list[int] = []
        self._seen: set = set()

    def _span(self, name, fn):
        spans, stack, calls = self.spans, self._stack, self.calls
        size_of = SIZES.get(name)
        repeats = name == "branching.enumerate_std"

        def wrapper(*args, **kwargs):
            calls[name] += 1
            if repeats:
                key = (tuple(args[0]), tuple(args[1]), args[2])
                if key in self._seen:
                    self.repeat_calls += 1
                self._seen.add(key)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if size_of is not None:
                span[4] = size_of(args, result)
            return result

        return wrapper

    def _count(self, name, fn):
        calls, truthy = self.calls, self.truthy

        def wrapper(*args, **kwargs):
            calls[name] += 1
            result = fn(*args, **kwargs)
            if result is not None and result is not False:
                truthy[name] += 1
            return result

        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every name in WRAPS for the duration of the block."""
        originals = []
        try:
            for module_name, attr, name, kind in WRAPS:
                module = importlib.import_module(f"stablekron.{module_name}")
                fn = getattr(module, attr)
                originals.append((module, attr, fn))
                wrap = self._span if kind == "span" else self._count
                setattr(module, attr, wrap(name, fn))
            yield self
        finally:
            for module, attr, fn in reversed(originals):
                setattr(module, attr, fn)

    def layer_metrics(self) -> dict:
        """Every LAYER_METRICS value this trace determines; the cli and
        trace metrics are the caller's."""
        self_s: Counter = Counter()
        size: Counter = Counter()
        for span in self.spans:
            name, start, end, parent, n = span
            self_s[name] += end - start
            size[name] += n
            if parent >= 0:
                self_s[self.spans[parent][0]] -= end - start
        enumerated_for_std0 = sum(
            span[4] for span in self.spans
            if span[0] == "branching.enumerate_std" and span[3] >= 0
            and self.spans[span[3]][0] == "branching.enumerate_std0")
        calls, truthy = self.calls, self.truthy
        kron_n = [span[4] for span in self.spans if span[0] == "oracle.kronecker"]
        return {
            "branching.enumerate_std.calls": calls["branching.enumerate_std"],
            "branching.enumerate_std.repeat_calls": self.repeat_calls,
            "branching.enumerate_std.paths": size["branching.enumerate_std"],
            "branching.enumerate_std.self_s": self_s["branching.enumerate_std"],
            "branching.enumerate_std0.kept": size["branching.enumerate_std0"],
            "branching.radical_keep_ratio": ratio(
                size["branching.enumerate_std0"], enumerated_for_std0),
            "tableaux.mu_classes.calls": calls["tableaux.mu_classes"],
            "tableaux.mu_classes.classes": size["tableaux.mu_classes"],
            "tableaux.mu_classes.self_s": self_s["tableaux.mu_classes"],
            "tableaux.swap_adjacent.calls": calls["tableaux.swap_adjacent"],
            "tableaux.swap_adjacent.valid_ratio": ratio(
                truthy["tableaux.swap_adjacent"], calls["tableaux.swap_adjacent"]),
            "tableaux.semistandard_ratio": ratio(
                truthy["tableaux.is_semistandard"], calls["tableaux.is_semistandard"]),
            "tableaux.latticed_ratio": ratio(
                truthy["tableaux.is_lattice"], calls["tableaux.is_lattice"]),
            "tableaux.count_sstd.calls": calls["tableaux.count_sstd"],
            "oracle.stable_kronecker_oracle.calls":
                calls["oracle.stable_kronecker_oracle"],
            "oracle.stable_kronecker_oracle.self_s":
                self_s["oracle.stable_kronecker_oracle"],
            "oracle.kronecker.calls": calls["oracle.kronecker"],
            "oracle.kronecker.self_s": self_s["oracle.kronecker"],
            "oracle.kronecker.max_n": max(kron_n, default=0),
            "oracle.n_per_result": ratio(
                calls["oracle.kronecker"], calls["oracle.stable_kronecker_oracle"]),
            "diagalg.verify_thm33.calls": calls["diagalg.verify_thm33"],
            "diagalg.verify_thm33.self_s": self_s["diagalg.verify_thm33"],
            "diagalg.murphy_u.calls": calls["diagalg.murphy_u"],
            "diagalg.murphy_u.self_s": self_s["diagalg.murphy_u"],
            "diagalg.multiply.calls": calls["diagalg.multiply"],
            "diagalg.multiply.self_s": self_s["diagalg.multiply"],
        }

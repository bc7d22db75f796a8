"""Spans around the benchmark's calls into boxsteer.

A traced run records one span per op and one per library call inside
it: name, start, end, parent span and op id, kept in memory and written
out when the run ends.  Untraced runs call the library functions
directly, so the end-to-end numbers carry no tracing cost.
"""

from __future__ import annotations

import contextlib
import importlib
import statistics
import time
from types import SimpleNamespace

# (layer, public name) of every library call a workload makes.  The
# layer is the boxsteer module; the span is named "<layer>.<name>".
CALLS = (
    ("boxes", "BipartiteBox"),
    ("boxes", "LocalBox"),
    ("boxes", "no_signalling_violations"),
    ("ensembles", "Ensemble"),
    ("ensembles", "NonlocalEnsemble.from_weights"),
    ("ensembles", "mix_nonlocal"),
    ("steering", "construct_steering_state"),
    ("steering", "verify_steering_state"),
    ("steering", "steered_ensemble"),
    ("blind", "TargetState"),
    ("blind", "plan_blind_steering"),
    ("blind", "bob_posterior"),
    ("polytope", "decompose"),
    ("polytope", "is_local"),
    ("simulate", "run_protocol"),
    ("simulate", "referee_audit"),
    ("serialize", "logs_to_ndjson"),
    ("serialize", "logs_from_ndjson"),
)

CLI_COMMANDS = ("blind", "decompose", "check", "simulate", "audit")

# Layers in the order they are reported; "import" and "cli" are timed
# in child processes rather than through CALLS.
LAYERS = ("import", "boxes", "ensembles", "steering", "blind", "polytope",
          "simulate", "serialize", "cli")


class Tracer:
    """In-memory spans: ``[name, start, end, parent index, op id]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.op = None
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        record = [name, 0.0, 0.0, self._open[-1] if self._open else None, self.op]
        self._open.append(len(self.spans))
        self.spans.append(record)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        clock = time.perf_counter

        def traced(*args, **kwargs):
            record = [name, 0.0, 0.0, stack[-1] if stack else None, self.op]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()

        return traced


def library(tracer: Tracer | None = None) -> SimpleNamespace:
    """The calls of CALLS as attributes named by their last component
    (``lib.decompose``, ``lib.from_weights``), wrapped in spans when a
    tracer is given; ``lib.span(name)`` opens a span of the harness's
    own, or does nothing without a tracer."""
    lib = SimpleNamespace(
        span=tracer.span if tracer is not None else contextlib.nullcontext)
    for layer, name in CALLS:
        fn = importlib.import_module(f"boxsteer.{layer}")
        for part in name.split("."):
            fn = getattr(fn, part)
        if tracer is not None:
            fn = tracer.wrap(f"{layer}.{name}", fn)
        setattr(lib, name.split(".")[-1], fn)
    return lib


def durations(spans) -> dict[str, list[float]]:
    by_name: dict[str, list[float]] = {}
    for name, start, end, _, _ in spans:
        by_name.setdefault(name, []).append(end - start)
    return by_name


def self_times(spans) -> dict[str, float]:
    """Seconds each layer spent outside its child spans, keyed by the
    first component of the span name.  Children run one at a time inside
    their parent, so a span's self time is its duration minus the sum of
    its children's."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _, _), child in zip(spans, covered):
        layer = name.split(".")[0]
        out[layer] = out.get(layer, 0.0) + (end - start - child)
    return out


def call_metrics(spans) -> dict[str, float]:
    """``<layer>.<name>.calls``, ``.busy_s`` and ``.us_per_call_p50`` for
    every entry of CALLS."""
    by_name = durations(spans)
    out = {}
    for layer, name in CALLS:
        times = by_name.get(f"{layer}.{name}", [])
        prefix = f"{layer}.{name}"
        out[f"{prefix}.calls"] = len(times)
        out[f"{prefix}.busy_s"] = sum(times)
        out[f"{prefix}.us_per_call_p50"] = statistics.median(times) * 1e6 if times else 0.0
    return out

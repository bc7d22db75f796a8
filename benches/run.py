#!/usr/bin/env python3
"""Run one boxsteer benchmark workload and print its metrics.

    python3 benches/run.py --workload protocol --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from ``--seed``, runs ops closed-loop for
``--seconds`` and on to the end of the workload's period (the ops after
which its mix of op kinds repeats), checks every output, and prints a report whose last line
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end ones,
their times scaled to a reference host speed (see ``hostspeed.py``);
with ``--trace 1`` every library call is wrapped in a span, the metrics
are the per-layer ones, and the spans are written to
``.bench_out/spans-<workload>-seed<seed>.json``.

The package is imported from ``src/`` next to this directory and from
nowhere else: without it the run exits with code 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import spec
from hostspeed import REFERENCE_S, HostSpeed, pin
from workloads import (FULL, GOLDEN_REPLAY, PROBE, WORKLOADS, Counters, audit_strength,
                       child_env, workload_rng)

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
# Calibration before the first set-up process, as if after one this long.
SETUP_GUESS_S = 1.5


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    (value, percentile).  Below 20 samples no percentile above the
    median has ten beyond it, and the median is reported instead."""
    ordered = sorted(times)
    rank = len(ordered) - 10
    if rank < (len(ordered) + 1) // 2:
        return statistics.median(ordered), 50.0
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def attempt(workload, lib, item, kind: str, check=True) -> tuple[float, list[str]]:
    """Run one op and check it: (seconds, problems).  An exception from
    the op or its check is a failed op, never the end of the run."""
    start = time.perf_counter()
    try:
        with lib.span(f"op.{kind}"):
            result = workload.run(lib, item)
    except Exception as exc:  # noqa: BLE001 - a failing op is a measurement
        return time.perf_counter() - start, [f"{type(exc).__name__}: {exc}"]
    elapsed = time.perf_counter() - start
    if not check:
        return elapsed, []
    try:
        return elapsed, workload.check(item, result)
    except Exception as exc:  # noqa: BLE001
        return elapsed, [f"check raised {type(exc).__name__}: {exc}"]


class Run:
    """The checked ops of one invocation: counts, times and failures."""

    def __init__(self, lib, tracer) -> None:
        self.lib = lib
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.times: list[float] = []      # measured ops only
        self.windows: list[tuple[float, float]] = []  # and their (start, end)
        self.round_count = 0              # rounds carried by checked ops
        self.round_time = 0.0

    def op(self, workload, item, op_id, kind: str, measured=False) -> None:
        if self.tracer is not None:
            self.tracer.op = op_id
        start = time.perf_counter()
        elapsed, problems = attempt(workload, self.lib, item, kind)
        self.attempted += 1
        if problems:
            self.failures.append(f"op {op_id}: " + "; ".join(problems))
        if measured:
            self.times.append(elapsed)
            self.windows.append((start, start + elapsed))
        rounds = workload.rounds(item)
        if rounds:
            self.round_count += rounds
            self.round_time += elapsed

    def probe(self, seed: int, counters, workdir: Path) -> None:
        """One op of every kind of every workload, at probe sizes, so a
        traced run times every layer whatever its workload."""
        for name, cls in WORKLOADS.items():
            probe = cls(ROOT, seed, PROBE, counters, workdir / f"probe-{name}")
            probe.setup()
            rng = random.Random("probe")
            for k in range(len(probe.cycle)):
                self.op(probe, probe.make(rng, k), f"probe.{name}.{k}", probe.kind(k))


def provenance(bx, workload: str, seed: int, seconds: float, trace: bool, sizes) -> dict:
    import numpy
    import scipy

    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=30)
            commit = done.stdout.strip() or commit
        except OSError:
            pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "boxsteer": bx.__version__,
        "commit": commit,
        "nproc": os.cpu_count(),
        "catalog_hash": bx.catalog_hash(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "sizes": dataclasses.asdict(sizes),
    }


def setup_seconds(name: str, reps: int, workdir: Path,
                  host: HostSpeed) -> tuple[float, float, bool]:
    """Median wall time of ``reps`` fresh processes that import boxsteer
    and make the workload's first call: for ``cli`` one `boxsteer blind`
    child, otherwise one op of the workload.  Returns the median scaled
    by ``host``, which calibrates before and after each process, the raw
    median, and whether all exited 0."""
    if name == "cli":
        argv = [sys.executable, "-m", "boxsteer", "blind", "1/4", "1/2"]
    else:
        argv = [sys.executable, str(Path(__file__).resolve()), "--warmup", name]
    times, scaled, ok = [], [], True
    host.keep_up(SETUP_GUESS_S)
    for _ in range(reps):
        start = time.perf_counter()
        done = subprocess.run(argv, cwd=workdir, env=child_env(ROOT),
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                              timeout=120)
        end = time.perf_counter()
        host.keep_up(end - start)
        times.append(end - start)
        scaled.append((end - start) * host.scale(start, end))
        ok = ok and done.returncode == 0
    return statistics.median(scaled), statistics.median(times), ok


def import_times() -> dict[str, float]:
    """`import boxsteer`, `scipy.stats` within it, and the boxsteer
    modules' own share, in seconds, from ``python -X importtime``."""
    done = subprocess.run([sys.executable, "-X", "importtime", "-c", "import boxsteer"],
                          env=child_env(ROOT), capture_output=True, text=True, timeout=120)
    cumulative, own = {}, 0
    for line in done.stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not line.startswith("import time:"):
            continue
        try:
            self_us, cum_us = int(parts[0].split(":")[1]), int(parts[1])
        except ValueError:
            continue  # the header line
        module = parts[2].strip()
        cumulative[module] = cum_us
        if module == "boxsteer" or module.startswith("boxsteer."):
            own += self_us
    return {
        "import.boxsteer_s": cumulative["boxsteer"] / 1e6,
        "import.scipy_stats_s": cumulative.get("scipy.stats", 0) / 1e6,
        "import.self_s": own / 1e6,
    }


def layer_metrics(records, counters, done: Run) -> dict[str, float]:
    """Per-layer numbers from a traced run's spans and counters."""
    values = spans.call_metrics(records)
    selfs = spans.self_times(records)
    # import has no spans; import_times gives its self time
    values.update({f"{layer}.self_s": selfs.get(layer, 0.0)
                   for layer in spans.LAYERS if layer != "import"})
    values["harness.self_s"] = selfs.get("op", 0.0)
    times = spans.durations(records)
    busy = {n: sum(t) for n, t in times.items()}
    rounds = max(counters.protocol_rounds, 1)
    values.update({
        "serialize.ndjson.encode_us_per_round":
            busy.get("serialize.logs_to_ndjson", 0.0) * 1e6 / rounds,
        "serialize.ndjson.decode_us_per_round":
            busy.get("serialize.logs_from_ndjson", 0.0) * 1e6 / rounds,
        "serialize.ndjson.bytes_per_round": counters.log_bytes / rounds,
        "simulate.run_protocol.us_per_round":
            busy.get("simulate.run_protocol", 0.0) * 1e6 / rounds,
        "simulate.referee_audit.us_per_round":
            busy.get("simulate.referee_audit", 0.0) * 1e6 / rounds,
        "simulate.rounds_per_s":
            done.round_count / done.round_time if done.round_time else 0.0,
        "simulate.referee_audit.honest_audited": counters.honest_audited,
        "simulate.referee_audit.honest_flagged": counters.honest_flagged,
        "polytope.decompose.max_den_bits": counters.max_den_bits,
    })
    for command in spans.CLI_COMMANDS:
        child = times.get(f"cli.{command}", [])
        values[f"cli.{command}.s"] = statistics.median(child) if child else 0.0
    return values


def run(name: str, seed: int, seconds: float, trace: bool, sizes) -> tuple[dict, list[str]]:
    """One benchmark run: (result object, report lines)."""
    import boxsteer as bx
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    counters = Counters()
    tracer = spans.Tracer() if trace else None
    raw = spans.library()
    done = Run(spans.library(tracer), tracer)
    host = None if trace else HostSpeed()
    values: dict[str, float] = {}
    try:
        workload = WORKLOADS[name](ROOT, seed, sizes, counters, workdir)
        workload.setup()
        if name == "protocol":
            for k, item in enumerate(workload.golden_items(GOLDEN_REPLAY)):
                done.op(workload, item, f"golden.{k}", "golden")
        if trace:
            done.probe(seed, counters, workdir)
            values.update(import_times())
            rejected, tampered = audit_strength(sizes.tamper_rounds)
            values["simulate.referee_audit.tampered_rejected"] = rejected / tampered
        else:
            values["setup_s"], raw_setup_s, setup_ok = setup_seconds(
                name, sizes.setup_reps, workdir, host)
            done.attempted += 1
            if not setup_ok:
                done.failures.append("setup: a warm-up process failed")
            if name != "cli":
                done.op(workload, workload.warm_up_item(), "warm-up", workload.kind(0))

        rng = workload_rng(name, seed)
        untraced_s = 0.0
        index = 0
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or index % workload.period:
            item = workload.make(rng, index)
            kind = workload.kind(index)
            # a traced run also runs each op untraced, alternately before
            # and after; the difference in time is the tracing overhead
            if trace and index % 2:
                untraced_s += attempt(workload, raw, item, kind, check=False)[0]
            done.op(workload, item, index, kind, measured=True)
            if trace and not index % 2:
                untraced_s += attempt(workload, raw, item, kind, check=False)[0]
            if host is not None:
                host.keep_up(done.times[-1])
            index += 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        values.update(layer_metrics(tracer.spans, counters, done))
        values["trace.overhead_pct"] = 100.0 * (sum(done.times) / untraced_s - 1)
        units = {n: u for n, u, _ in spec.per_layer()}
    else:
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if name == "cli" else resource.RUSAGE_SELF)
        scaled = [t * host.scale(*w) for t, w in zip(done.times, done.windows)]
        values.update({
            "ops_per_s": len(scaled) / sum(scaled),
            "op_ms_p50": statistics.median(scaled) * 1e3,
            "op_ms_tail": tail(scaled)[0] * 1e3,
            "peak_rss_mib": usage.ru_maxrss / 1024,
        })
        units = {n: u for n, u, _, _ in spec.END_TO_END}
    if set(values) != set(units):
        raise RuntimeError(f"metrics do not match spec: {set(values) ^ set(units)}")

    info = provenance(bx, name, seed, seconds, trace, sizes)
    failed = len(done.failures)
    lines = [
        "provenance " + json.dumps(info, sort_keys=True),
        f"ops {len(done.times)} measured, {done.attempted} attempted, {failed} failed, "
        f"error_rate {failed / done.attempted:.4f}",
        f"op_ms_tail is p{tail(done.times)[1]:.1f} of {len(done.times)} ops",
        f"rounds_per_s {done.round_count / done.round_time if done.round_time else 0:.6g} "
        f"1/s ({done.round_count} rounds)",
        f"honest logs flagged by the audit: {counters.honest_flagged} of "
        f"{counters.honest_audited} (not failures)",
    ]
    if host is not None:
        lines.append(
            f"host speed: mean slice {host.mean_slice() * 1e3:.4g} ms against "
            f"{REFERENCE_S * 1e3:.4g} ms, {len(host.slices)} slices; unscaled: "
            f"setup_s {raw_setup_s:.6g} s, ops_per_s {len(done.times) / sum(done.times):.6g} 1/s, "
            f"op_ms_p50 {statistics.median(done.times) * 1e3:.6g} ms, "
            f"op_ms_tail {tail(done.times)[0] * 1e3:.6g} ms")
    lines += [f"FAILED {message}" for message in done.failures[:20]]
    lines += [f"{n} {values[n]:.6g} {units[n]}" for n in units]
    if trace:
        dump = OUT / f"spans-{name}-seed{seed}.json"
        dump.write_text(json.dumps({"provenance": info, "spans": tracer.spans}))
        lines.append(f"spans written to {dump.relative_to(ROOT)}")
    result = {
        "correct": not done.failures,
        "attempted": done.attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }
    return result, lines


def warm_up(name: str) -> int:
    """Child of setup_seconds: set up the workload and run one op."""
    workdir = OUT / f"work-{os.getpid()}"
    try:
        workload = WORKLOADS[name](ROOT, 0, FULL, Counters(), workdir)
        workload.setup()
        item = workload.warm_up_item()
        return 1 if workload.check(item, workload.run(spans.library(), item)) else 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=tuple(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--warmup", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "boxsteer" / "__init__.py").is_file():
        print(f"error: no boxsteer package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    pin()
    if args.warmup:
        return warm_up(args.warmup)
    if args.workload is None:
        parser.error("--workload is required")
    result, lines = run(args.workload, args.seed, args.seconds, bool(args.trace), FULL)
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

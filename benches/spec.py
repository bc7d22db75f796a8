"""What the boxsteer benchmark measures, and why.

This module is the one source of BENCHMARK.json at the repository root;
``python3 benches/spec.py`` rewrites that file and prints which
end-to-end metric each layer metric is expected to move.
"""

from __future__ import annotations

import json
from pathlib import Path

from spans import CALLS, CLI_COMMANDS, LAYERS

COMMAND = ["python3", "benches/run.py"]
PATHS = ["benches"]
RUN_SECONDS = 20

WORKLOADS = {
    "protocol": "Referee experiments in-process: time goes to per-round sampling in "
                "simulate and to the NDJSON codec, almost none to the polytope",
    "geometry": "decompose, remix and is_local on seeded no-signalling boxes: the exact "
                "simplex in polytope dominates; no RNG and no NDJSON",
    "construct": "remote preparation and blind planning with random splits: steering, "
                 "blind, ensembles and box validation, without simplex or simulator",
    "cli": "one boxsteer child process per op: the only workload that pays "
           "`import boxsteer`, process start-up, file I/O and reading logs back",
}

# name, unit, better, bound (the share of the parent's median by which
# a change may worsen the metric).  Ten same-code runs per workload on a
# shared 2-vCPU VM, with times scaled to the reference host speed (see
# hostspeed.py), spread between the quartiles by at most 4 % of the
# median in ops_per_s and op_ms_p50 in-process, 12 % on cli, 11 % in
# op_ms_tail and 19 % in setup_s, so the time bounds are the widest
# allowed.
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_ms_p50", "ms", "lower", 0.25),
    ("op_ms_tail", "ms", "lower", 0.25),
    ("peak_rss_mib", "MiB", "lower", 0.1),
]


def per_layer() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every metric a traced run reports."""
    out = []
    for layer, name in CALLS:
        out += [
            (f"{layer}.{name}.calls", "count", "higher"),
            (f"{layer}.{name}.busy_s", "s", "lower"),
            (f"{layer}.{name}.us_per_call_p50", "us", "lower"),
        ]
    out += [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    out += [
        ("harness.self_s", "s", "lower"),
        ("import.boxsteer_s", "s", "lower"),
        ("import.scipy_stats_s", "s", "lower"),
        ("serialize.ndjson.encode_us_per_round", "us", "lower"),
        ("serialize.ndjson.decode_us_per_round", "us", "lower"),
        ("serialize.ndjson.bytes_per_round", "bytes", "lower"),
        ("simulate.run_protocol.us_per_round", "us", "lower"),
        ("simulate.referee_audit.us_per_round", "us", "lower"),
        ("simulate.rounds_per_s", "1/s", "higher"),
        ("simulate.referee_audit.honest_audited", "count", "higher"),
        ("simulate.referee_audit.honest_flagged", "count", "lower"),
        ("simulate.referee_audit.tampered_rejected", "ratio", "higher"),
        ("polytope.decompose.max_den_bits", "bits", "lower"),
    ]
    out += [(f"cli.{command}.s", "s", "lower") for command in CLI_COMMANDS]
    out.append(("trace.overhead_pct", "%", "lower"))
    return out


# Which end-to-end metric each layer metric should move, written down
# before any optimisation is measured against it.
MOVES = {
    "simulate.*, serialize.ndjson.*":
        "op_ms_p50 and ops_per_s on protocol and cli (simulate.rounds_per_s "
        "with them); nothing on geometry or construct",
    "polytope.*":
        "ops_per_s and op_ms_tail on geometry; barely on cli (decompose, check)",
    "steering.*, blind.*":
        "construct; blind.* also cli.blind.s",
    "ensembles.mix_nonlocal":
        "geometry (the remix) and construct (blind verification)",
    "import.*":
        "setup_s on all four workloads, and op_ms_p50 on cli",
    "simulate.referee_audit, once it streams the log":
        "peak_rss_mib on cli",
}


def manifest() -> dict:
    return {
        "command": COMMAND,
        "paths": PATHS,
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": why} for n, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in per_layer()],
    }


if __name__ == "__main__":
    path = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
    path.write_text(json.dumps(manifest(), indent=2) + "\n")
    print(f"wrote {path}")
    for layer, moves in MOVES.items():
        print(f"  {layer}: {moves}")

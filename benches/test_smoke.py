"""Smoke test of the benchmark itself, at tiny sizes.

    PYTHONPATH=src python -m pytest -q benches/test_smoke.py

It lives outside the tier-1 ``testpaths``.  It checks that every run
prints every metric named in spec.py with its unit, that the golden log
digests still match, and that each oracle rejects a deliberately wrong
result.
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import boxsteer as bx  # noqa: E402
import hostspeed  # noqa: E402
import inputs  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spec  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = workloads.Sizes(protocol_rounds=100, cli_rounds=300, tamper_rounds=400, setup_reps=1)


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(name, trace):
    result, lines = run.run(name, seed=2, seconds=0.3, trace=trace, sizes=TINY)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    named = spec.per_layer() if trace else spec.END_TO_END
    assert list(result["metrics"]) == [m[0] for m in named]
    for metric_name, unit, *_ in named:
        metric = result["metrics"][metric_name]
        assert metric["unit"] == unit
        assert isinstance(metric["value"], (int, float))
        assert any(line.startswith(f"{metric_name} ") and line.endswith(f" {unit}")
                   for line in lines)


def test_manifest_matches_the_committed_file():
    committed = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert committed == spec.manifest()
    assert list(spec.WORKLOADS) == list(workloads.WORKLOADS)


def test_golden_digests_match():
    protocol = workloads.Protocol(HERE, 0, workloads.FULL, workloads.Counters(), HERE)
    protocol.setup()
    lib = spans.library()
    for item in protocol.golden_items(2):
        assert protocol.check(item, protocol.run(lib, item)) == []
        wrong = item[:3] + ("0" * 64,)
        assert any("golden" in p for p in protocol.check(wrong, protocol.run(lib, wrong)))


def test_warm_up_op_at_the_golden_seed_has_no_digest():
    protocol = workloads.Protocol(HERE, workloads.GOLDEN_SEED, workloads.FULL,
                                  workloads.Counters(), HERE)
    protocol.setup()
    item = protocol.warm_up_item()
    assert item[3] is None
    assert protocol.check(item, protocol.run(spans.library(), item)) == []


def test_construct_period_takes_every_remote_shape():
    construct = workloads.Construct(HERE, 3, TINY, workloads.Counters(), HERE)
    rng = random.Random(0)
    items = [construct.make(rng, k) for k in range(construct.period)]
    remote = [item for item in items if item[0] == "remote"]
    shapes = {(len(sources), len(sources[0][0][1]), outputs) for _, outputs, sources in remote}
    assert shapes == set(inputs.SAME_MIXTURE_SHAPES) and len(remote) == len(shapes)


def test_host_speed_scales_by_the_slices_next_to_an_op():
    host = hostspeed.HostSpeed()
    # slow slices up to t=10, fast ones from t=10.2 on
    host.marks = [9.0 + k / 100 for k in range(100)] + [10.2 + k / 100 for k in range(100)]
    host.slices = [0.004] * 100 + [0.002] * 100
    # a short op takes the NEAREST slices on each side
    assert host.scale(10.0, 10.01) == pytest.approx(hostspeed.REFERENCE_S / 0.003)
    # a long one as many as cover SHARE of its length: 5 slow and 10 fast
    assert host.scale(10.0, 10.1) == pytest.approx(hostspeed.REFERENCE_S * 15 / 0.04)


def test_without_sources_the_run_fails_without_a_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "benches")
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "benches/run.py", "--workload", "geometry",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


# ---------------------------------------------------------------------------
# each oracle rejects a wrong result
# ---------------------------------------------------------------------------

PR = inputs.pr_vertex(0, 0, 0)
NOISE = tuple(F(1, 4) for _ in range(16))


def test_chsh_oracle():
    assert not oracles.chsh_local(PR)
    assert oracles.chsh_local(NOISE)
    assert oracles.chsh_local(tuple(p / 2 + F(1, 8) for p in PR))  # on the facet


def test_geometry_oracle():
    box = bx.BipartiteBox(inputs.nest(PR))
    ensemble = bx.decompose(box)
    right = ([], ensemble, bx.mix_nonlocal(ensemble), False)
    assert oracles.check_geometry(PR, *right) == []
    assert oracles.check_geometry(PR, ["signals"], *right[1:])
    assert oracles.check_geometry(PR, *right[:3], True)
    other = bx.decompose(bx.BipartiteBox(inputs.nest(NOISE)))
    assert oracles.check_geometry(PR, [], other, right[2], False)
    assert oracles.check_geometry(PR, [], ensemble, bx.mix_nonlocal(other), False)


def test_blind_oracle():
    target = (F(3, 4), F(1, 8))
    plan = bx.plan_blind_steering(bx.TargetState(*target))
    products, prs = oracles.ensemble_weights(plan.ensemble)
    posteriors = {(y, b): bx.bob_posterior(plan.ensemble, y, b)
                  for y in inputs.BITS for b in oracles.bob_outcomes(products, prs, y)}
    assert oracles.check_blind(target, plan, posteriors) == []
    assert oracles.check_blind((F(1, 4), F(1, 8)), plan, posteriors)
    one = dict(posteriors)
    one[0, 0] = {bx.SBox(0, 0): F(1)}
    assert oracles.check_blind(target, plan, one)
    failing = SimpleNamespace(
        report=SimpleNamespace(passed=False, checks=()), ensemble=plan.ensemble)
    assert oracles.check_blind(target, failing, posteriors)


def test_steering_oracle():
    num_outputs, sources = inputs.same_mixture_case(random.Random(0), (2, 3, 2))
    assert sources[0] != sources[1]

    def build(members):
        return bx.Ensemble(tuple(
            (w, bx.LocalBox(inputs.strategy_table(f, num_outputs))) for w, f in members))

    state = bx.construct_steering_state([build(m) for m in sources])
    report = bx.verify_steering_state(state)
    steered = [bx.steered_ensemble(state, y) for y in range(len(sources))]
    assert oracles.check_steering(num_outputs, sources, state, report, steered) == []
    assert oracles.check_steering(num_outputs, sources, state, report, steered[::-1])
    swapped = [sources[1], sources[0]] + sources[2:]
    assert oracles.check_steering(num_outputs, swapped, state, report, steered)


def test_protocol_oracle():
    plan = bx.plan_blind_steering(bx.TargetState(F(1, 4), F(1, 2)))
    report, logs = bx.run_protocol(plan.ensemble, rounds=50, seed=3)
    verdict = bx.referee_audit(logs, plan.ensemble)
    assert oracles.check_protocol(50, report, logs, list(logs), verdict) == []
    wrong = dataclasses.replace(logs[5], referee_inference=bx.SBox(1, 1)
                                if logs[5].alice_actual != bx.SBox(1, 1) else bx.SBox(0, 0))
    bad = logs[:5] + [wrong] + logs[6:]
    assert oracles.check_protocol(50, report, bad, bad, verdict)
    assert oracles.check_protocol(50, report, logs, logs[:-1], verdict)
    assert oracles.check_protocol(49, report, logs, logs, verdict)
    mismatching = dataclasses.replace(verdict, mismatch_count=1)
    assert oracles.check_protocol(50, report, logs, logs, mismatching)


def test_cli_oracle(tmp_path):
    cli = workloads.Cli(HERE.parent, 0, TINY, workloads.Counters(), tmp_path)
    rng = random.Random(1)
    for index in range(3):  # blind, decompose, check
        command, args, base, _ = item = cli.make(rng, index)
        code, stdout = workloads.in_process([command, *args])
        (base / "stdout").write_text(stdout)
        assert cli.check(item, code) == []
        assert cli.check(item, 5)
        doc = json.loads(stdout)
        if command == "check":
            doc["local"] = not doc["local"]
        else:
            ensemble = doc["ensemble"]
            key = "products" if ensemble["products"] else "prs"
            ensemble[key] = ensemble[key][1:]
        (base / "stdout").write_text(json.dumps(doc))
        assert cli.check(item, code)

    # simulate --out, then audit of the log it wrote
    command, args, base, _ = simulate = cli.make(rng, 3)
    code, stdout = workloads.in_process([command, *args])
    (base / "stdout").write_text(stdout)
    assert cli.check(simulate, code) == []
    logs = base / "out" / "logs.ndjson"
    honest = logs.read_text()
    command, args, audit_base, _ = audit = cli.make(rng, 4)
    code, stdout = workloads.in_process([command, *args])
    (audit_base / "stdout").write_text(stdout)
    assert cli.check(audit, code) == []
    doc = json.loads(stdout)
    doc["verdict"]["mismatch_count"] = 1
    (audit_base / "stdout").write_text(json.dumps(doc))
    assert cli.check(audit, code)
    first, rest = honest.split("\n", 1)
    record = json.loads(first)
    record["referee_inference"] = "S11" if record["alice_actual"] != "S11" else "S00"
    logs.write_text(json.dumps(record, sort_keys=True) + "\n" + rest)
    assert cli.check(simulate, 0)


def test_audit_strength_counts_tamperings():
    rejected, tampered = workloads.audit_strength(TINY.tamper_rounds)
    assert tampered == 10 and 0 <= rejected <= 10

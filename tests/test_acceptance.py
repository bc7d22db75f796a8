"""Acceptance gate: one test (and one pytest -v pass/fail line) per
criterion.  Seeded batches, exact oracles, pinned tolerances and runtime
bounds; each test also prints a `[criterion N]` summary line.
"""

import dataclasses
import itertools
import random
import time
from fractions import Fraction as F

import boxsteer as bx
from boxsteer import serialize
from strategies import (
    chsh_values,
    ensembles_equal,
    pr_bipartite_box,
    random_blind_split,
    random_nonlocal_ensemble,
    random_same_mixture_case,
)

BITS = (0, 1)
SEED = 20260814

GRID_DENOMINATOR = 16
INTERIOR_GRID = [
    bx.TargetState(F(i, GRID_DENOMINATOR), F(j, GRID_DENOMINATOR))
    for i in range(1, GRID_DENOMINATOR)
    for j in range(i + 1, GRID_DENOMINATOR - i)
]


def stamp(number: int, label: str, elapsed: float) -> None:
    print(f"[criterion {number}] PASS: {label} ({elapsed:.2f}s)")


def test_criterion_1_remote_preparation_suite():
    started = time.perf_counter()
    rng = random.Random(SEED)
    for _ in range(200):
        num_inputs = rng.randint(2, 3)
        num_outputs = rng.randint(2, 3)
        k = rng.randint(2, 3)
        ensembles = random_same_mixture_case(rng, k, num_inputs, num_outputs)
        state = bx.construct_steering_state(ensembles)
        report = bx.verify_steering_state(state)
        assert report.passed, [c.name for c in report.checks if not c.passed]
        assert {c.name for c in report.checks} == {
            "mixture_consistency",
            "no_signalling",
            "conditioning",
        }
        for y, source in enumerate(ensembles):
            assert ensembles_equal(bx.steered_ensemble(state, y), source)
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"200 cases took {elapsed:.2f}s, bound is 10s"
    stamp(1, "200 randomized remote preparations, exact obligations", elapsed)


def test_criterion_2_pr_box_emergence():
    started = time.perf_counter()
    uniform_pairs = [
        bx.Ensemble(
            (
                (F(1, 2), bx.SBox(y, 0).as_local_box()),
                (F(1, 2), bx.SBox(y, 1).as_local_box()),
            )
        )
        for y in BITS
    ]
    state = bx.construct_steering_state(uniform_pairs)
    # brute-force oracle: 1/2 exactly where the outputs satisfy a^b = x*y
    for x, y, a, b in itertools.product(BITS, BITS, BITS, BITS):
        expected = F(1, 2) if (a ^ b) == (x & y) else F(0)
        assert state.box.prob(x, y, a, b) == expected
    assert state.box == pr_bipartite_box(bx.PRBox(0, 0, 0))
    stamp(2, "uniform S-box pairs assemble the PR table entry by entry",
          time.perf_counter() - started)


def test_criterion_3_blind_grid():
    started = time.perf_counter()
    assert len(INTERIOR_GRID) == 49
    for target in INTERIOR_GRID:
        s, t = target.s, target.t
        plan = bx.plan_blind_steering(target)
        # the closed-form aggregates; no S00 or S10 product, no beta=1 PR
        assert plan.ensemble.pr_totals() == {0: 2 * s}
        assert plan.ensemble.product_totals() == {(0, 1): 1 - s - t, (1, 1): t - s}
        assert plan.report.passed
        for y, b in itertools.product(BITS, BITS):
            assert len(bx.bob_posterior(plan.ensemble, y, b)) >= 2
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, f"grid took {elapsed:.2f}s, bound is 5s"
    stamp(3, "49 interior grid targets solved, verified, and blind", elapsed)


def test_criterion_4_family_invariance():
    started = time.perf_counter()
    rng = random.Random(SEED + 4)
    for target in INTERIOR_GRID:
        canonical = bx.plan_blind_steering(target).ensemble
        expected = {
            y: bx.posterior_alice_reduction(canonical, y).ensemble for y in BITS
        }
        for _ in range(100):
            split = random_blind_split(rng, canonical)
            plan = bx.plan_blind_steering(target, split)
            assert plan.report.passed
            for y in BITS:
                assert ensembles_equal(
                    bx.posterior_alice_reduction(plan.ensemble, y).ensemble,
                    expected[y],
                )
    stamp(4, "100 random splits per grid point, identical reductions",
          time.perf_counter() - started)


def test_criterion_5_decomposition_round_trip_and_transition():
    started = time.perf_counter()
    rng = random.Random(SEED + 5)
    for _ in range(200):
        ensemble = random_nonlocal_ensemble(rng)
        box = bx.mix_nonlocal(ensemble)
        assert bx.mix_nonlocal(bx.decompose(box)) == box

    # locality transition at the facet-oracle value, never assumed
    pr = pr_bipartite_box(bx.PRBox(0, 0, 0))
    flat = F(1, 4)
    vstar = F(2) / max(chsh_values(pr))
    assert vstar == F(1, 2)

    def noisy(v):
        table = tuple(
            tuple(
                tuple(
                    tuple(
                        v * pr.prob(x, y, a, b) + (1 - v) * flat
                        for b in BITS
                    )
                    for a in BITS
                )
                for y in BITS
            )
            for x in BITS
        )
        return bx.BipartiteBox(table)

    sweep = [F(0), F(1, 4), vstar - F(1, 16), vstar, vstar + F(1, 16), F(3, 4), F(1)]
    for v in sweep:
        assert bx.is_local(noisy(v)) == (v <= vstar), f"v = {v}"
    stamp(5, "200 exact decompose round-trips; transition at facet value",
          time.perf_counter() - started)


def test_criterion_6_simulation_statistics():
    started = time.perf_counter()
    plan = bx.plan_blind_steering(bx.TargetState(F(1, 4), F(1, 2)))
    rounds = 100_000
    report, logs = bx.run_protocol(plan.ensemble, rounds=rounds, seed=SEED)
    assert report.verdict.passed

    expected = {
        0: {bx.SBox(0, 0): F(1, 4), bx.SBox(0, 1): F(1, 2), bx.SBox(1, 1): F(1, 4)},
        1: {bx.SBox(0, 1): F(1, 4), bx.SBox(1, 0): F(1, 4), bx.SBox(1, 1): F(1, 2)},
    }
    for y in BITS:
        observed = report.alice_frequencies[y]
        assert set(observed) <= set(expected[y])
        deviation = max(
            abs(observed.get(sbox, 0.0) - float(weight))
            for sbox, weight in expected[y].items()
        )
        assert deviation <= 0.01, f"y={y} sup-norm {deviation:.4f}"

    # same seed, same bytes
    _, again = bx.run_protocol(plan.ensemble, rounds=rounds, seed=SEED)
    assert serialize.logs_to_ndjson(again) == serialize.logs_to_ndjson(logs)

    # a single flipped outcome bit on a PR round must be caught
    pr_ids = {
        i for i, m in enumerate(plan.ensemble.members)
        if isinstance(m, bx.PRMember)
    }
    victim = next(i for i, log in enumerate(logs) if log.member_id in pr_ids)
    tampered = list(logs)
    tampered[victim] = dataclasses.replace(
        tampered[victim], b=tampered[victim].b ^ 1
    )
    verdict = bx.referee_audit(tampered, plan.ensemble)
    assert not verdict.passed
    assert verdict.mismatch_count == 1
    assert tampered[victim].round_id in verdict.mismatch_rounds

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"simulation block took {elapsed:.2f}s, bound is 30s"
    stamp(6, "100k rounds: 0.01 sup-norm, audit, fault, identical logs", elapsed)


def test_criterion_7_region_handling():
    started = time.perf_counter()
    for s, t in ((F(1, 2), F(1, 2)), (F(1, 4), F(3, 4)), (F(1), F(0)), (F(0), F(1))):
        try:
            bx.plan_blind_steering(bx.TargetState(s, t))
        except bx.RegionError:
            pass
        else:
            raise AssertionError(f"diagonal target ({s}, {t}) was not rejected")

    mirrored = [
        bx.TargetState(F(3, 4), F(1, 2)),   # reflect outputs
        bx.TargetState(F(1, 2), F(1, 4)),   # swap inputs
        bx.TargetState(F(5, 8), F(7, 8)),   # both
    ]
    for target in mirrored:
        plan = bx.plan_blind_steering(target)
        assert not plan.report.relabeling.is_identity
        assert plan.report.canonical_target.in_canonical_region
        assert plan.report.passed
        marginal = bx.alice_marginal(bx.mix_nonlocal(plan.ensemble))
        assert marginal.prob(0, 0) == target.s
        assert marginal.prob(1, 0) == target.t
    stamp(7, "diagonals rejected; mirrored targets solved and re-verified",
          time.perf_counter() - started)

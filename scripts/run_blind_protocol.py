#!/usr/bin/env python3
"""Walk one blind-steering experiment end to end.

Solves a target state, prints the Referee's ensemble and both reduced
ensembles, runs a seeded batch of protocol rounds, and audits the log.
Every printed probability is exact; only the empirical frequencies are
floats.
"""

import argparse
from fractions import Fraction

import boxsteer as bx


def fmt_ensemble(ensemble: bx.Ensemble) -> str:
    return " + ".join(
        f"{w} {bx.SBox.from_local_box(box).label}" for w, box in ensemble.members
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--s", default="1/4", help='p(a=0|x=0), e.g. "1/4"')
    parser.add_argument("--t", default="1/2", help='p(a=0|x=1), e.g. "1/2"')
    parser.add_argument("--rounds", type=int, default=20000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    target = bx.TargetState(Fraction(args.s), Fraction(args.t))
    plan = bx.plan_blind_steering(target)

    print(f"target state: s = {target.s}, t = {target.t}")
    if not plan.report.relabeling.is_identity:
        canonical = plan.report.canonical_target
        print(
            f"  relabeled into the canonical triangle as "
            f"(s = {canonical.s}, t = {canonical.t})"
        )
    print("referee ensemble:")
    for member in plan.ensemble.members:
        print(f"  {member.weight}  {member.label}")
    print(f"verification: {'pass' if plan.report.passed else 'FAIL'}")
    for y, expected in ((0, plan.report.expected_upper), (1, plan.report.expected_lower)):
        print(f"  y = {y} prepares  {fmt_ensemble(expected)}")
    for (y, b), support in plan.report.posterior_supports:
        print(f"  Bob at (y={y}, b={b}) sees candidates {{{', '.join(support)}}}")

    print(f"\nrunning {args.rounds} rounds with seed {args.seed} ...")
    report, logs = bx.run_protocol(plan.ensemble, rounds=args.rounds, seed=args.seed)
    for y in (0, 1):
        observed = {
            sbox.label: f"{freq:.4f}"
            for sbox, freq in sorted(
                report.alice_frequencies[y].items(), key=lambda kv: kv[0].index
            )
        }
        print(f"  empirical weights at y = {y}: {observed}")
    verdict = report.verdict
    print(
        f"audit: {'pass' if verdict.passed else 'FAIL'} "
        f"({verdict.mismatch_count} mismatched rounds, "
        f"{len(verdict.frequency_cells)} frequency cells at "
        f"significance {verdict.significance})"
    )
    return 0 if plan.report.passed and verdict.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())

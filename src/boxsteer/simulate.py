"""Seeded Monte Carlo execution of the refereed preparation protocol.

Each round the Referee draws a member of the declared ensemble, the
players draw inputs (x, y) from the input policy, and outcomes (a, b)
are sampled from the member's table.  The Referee then names Alice's
resulting constituent twice, through two independent routes: the
parity-relation rule (:func:`constituent_after_measurement`) and table
conditioning (:func:`condition_on_bob`); a round is logged with both.

Randomness scheme: one substream per round.  Round ``r`` of a run with
seed ``s`` uses ``numpy.random.default_rng([s, r])``, i.e. a fresh
generator keyed on the (seed, round) pair through numpy's SeedSequence.
Three uniform draws per round — member, inputs, outcomes — in that
order.  Logs are therefore bit-for-bit reproducible and independent of
execution order; a parallel runner would produce the identical log.

All sampling thresholds are exact rationals compared against the float
uniforms (an exact comparison in Python); floats appear only in
empirical frequencies and test statistics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .boxes import SBox, as_prob, condition_on_bob
from .ensembles import (
    AliceReduction,
    Member,
    NonlocalEnsemble,
    constituent_after_measurement,
    posterior_alice_reduction,
)
from .errors import ValidationError

DEFAULT_SIGNIFICANCE = 1e-3


@dataclass(frozen=True)
class InputPolicy:
    """Distribution over input pairs; ``table[x][y]`` is p(x, y)."""

    table: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        table = tuple(tuple(as_prob(p) for p in row) for row in self.table)
        if len(table) != 2 or any(len(row) != 2 for row in table):
            raise ValidationError("input policy must be a 2x2 table")
        total = sum(p for row in table for p in row)
        if total != 1:
            raise ValidationError(f"input policy sums to {total}, expected 1")
        object.__setattr__(self, "table", table)

    @classmethod
    def uniform(cls) -> "InputPolicy":
        quarter = Fraction(1, 4)
        return cls(((quarter, quarter), (quarter, quarter)))


@dataclass(frozen=True)
class RoundLog:
    """One protocol round as the Referee records it."""

    round_id: int
    member_id: int
    x: int
    y: int
    a: int
    b: int
    referee_inference: SBox
    alice_actual: SBox


@dataclass(frozen=True)
class FrequencyCell:
    """Binomial comparison of one constituent's empirical frequency
    against its exact weight, at a fixed Bob input."""

    input_choice: int
    constituent: SBox
    expected: Fraction
    observed: int
    total: int
    pvalue: float | None
    ok: bool


@dataclass(frozen=True)
class AuditVerdict:
    """Outcome of the Referee's log audit.

    ``mismatch_rounds`` lists at most the first 20 offending rounds;
    ``mismatch_count`` is the full count.
    """

    passed: bool
    mismatch_count: int
    mismatch_rounds: tuple[int, ...]
    frequency_cells: tuple[FrequencyCell, ...]
    significance: float


@dataclass(frozen=True)
class SimulationReport:
    rounds: int
    rng_seed: int
    policy: InputPolicy
    empirical_joint: tuple[tuple[tuple[tuple[float, ...], ...], ...], ...]
    alice_frequencies: dict[int, dict[SBox, float]]
    alice_frequencies_by_outcome: dict[tuple[int, int], dict[SBox, float]]
    verdict: AuditVerdict


def _round_rng(seed: int, round_id: int) -> np.random.Generator:
    return np.random.default_rng([seed, round_id])


def _pick(cumulative, u):
    # cumulative: [(threshold, value)] with final threshold == 1
    for threshold, value in cumulative:
        if u < threshold:
            return value
    return cumulative[-1][1]


def _cumulative(pairs):
    acc = Fraction(0)
    out = []
    for weight, value in pairs:
        if weight == 0:
            continue
        acc += weight
        out.append((acc, value))
    return out


def run_protocol(
    ensemble: NonlocalEnsemble,
    rounds: int,
    seed: int,
    policy: InputPolicy | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> tuple[SimulationReport, list[RoundLog]]:
    """Run ``rounds`` protocol rounds and audit the resulting log.

    Raises if the two constituent-naming routes ever disagree, which
    would mean the implementation (not the protocol) is broken.
    """
    if rounds < 1:
        raise ValidationError(f"rounds must be positive, got {rounds}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")
    policy = policy or InputPolicy.uniform()

    members = ensemble.members
    member_cum = _cumulative((m.weight, i) for i, m in enumerate(members))
    policy_cum = _cumulative(
        (policy.table[x][y], (x, y)) for x in (0, 1) for y in (0, 1)
    )
    outcome_cums = {}
    inferred = {}
    actual = {}
    for i, member in enumerate(members):
        box = member.as_bipartite_box()
        for x in (0, 1):
            for y in (0, 1):
                outcome_cums[i, x, y] = _cumulative(
                    (box.prob(x, y, a, b), (a, b)) for a in (0, 1) for b in (0, 1)
                )
        for y in (0, 1):
            for b in (0, 1):
                if any(box.prob(0, y, a, b) > 0 for a in (0, 1)):
                    inferred[i, y, b] = constituent_after_measurement(member, y, b)
                    actual[i, y, b] = SBox.from_local_box(
                        condition_on_bob(box, y, b)
                    )

    logs: list[RoundLog] = []
    for round_id in range(rounds):
        rng = _round_rng(seed, round_id)
        u_member, u_inputs, u_outcomes = rng.random(3)
        member_id = _pick(member_cum, u_member)
        x, y = _pick(policy_cum, u_inputs)
        a, b = _pick(outcome_cums[member_id, x, y], u_outcomes)
        inference = inferred[member_id, y, b]
        truth = actual[member_id, y, b]
        if inference != truth:
            raise RuntimeError(
                f"constituent-naming routes disagree at round {round_id}: "
                f"{inference.label} vs {truth.label}"
            )
        logs.append(
            RoundLog(round_id, member_id, x, y, a, b, inference, truth)
        )

    verdict = referee_audit(logs, ensemble, significance=significance)
    report = SimulationReport(
        rounds=rounds,
        rng_seed=seed,
        policy=policy,
        empirical_joint=_lenient_joint(logs),
        alice_frequencies=_frequencies_by_input(logs),
        alice_frequencies_by_outcome=_frequencies_by_outcome(logs),
        verdict=verdict,
    )
    return report, logs


def _lenient_joint(logs) -> tuple:
    counts = {}
    totals = {}
    for log in logs:
        totals[log.x, log.y] = totals.get((log.x, log.y), 0) + 1
        key = (log.x, log.y, log.a, log.b)
        counts[key] = counts.get(key, 0) + 1
    return tuple(
        tuple(
            tuple(
                tuple(
                    counts.get((x, y, a, b), 0) / totals[x, y]
                    if (x, y) in totals
                    else math.nan
                    for b in (0, 1)
                )
                for a in (0, 1)
            )
            for y in (0, 1)
        )
        for x in (0, 1)
    )


def _frequencies_by_input(logs) -> dict[int, dict[SBox, float]]:
    out: dict[int, dict[SBox, float]] = {}
    for y in (0, 1):
        selected = [log for log in logs if log.y == y]
        if not selected:
            continue
        counts: dict[SBox, int] = {}
        for log in selected:
            counts[log.alice_actual] = counts.get(log.alice_actual, 0) + 1
        out[y] = {sbox: k / len(selected) for sbox, k in counts.items()}
    return out


def _frequencies_by_outcome(logs) -> dict[tuple[int, int], dict[SBox, float]]:
    out: dict[tuple[int, int], dict[SBox, float]] = {}
    for y in (0, 1):
        for b in (0, 1):
            selected = [log for log in logs if log.y == y and log.b == b]
            if not selected:
                continue
            counts: dict[SBox, int] = {}
            for log in selected:
                counts[log.alice_actual] = counts.get(log.alice_actual, 0) + 1
            out[y, b] = {sbox: k / len(selected) for sbox, k in counts.items()}
    return out


def estimate_box(
    logs: list[RoundLog],
) -> tuple[tuple[tuple[tuple[float, ...], ...], ...], ...]:
    """Empirical conditional table from a log: relative frequency of
    (a, b) among rounds with inputs (x, y).  Every input pair must have
    been sampled at least once."""
    totals: dict[tuple[int, int], int] = {}
    for log in logs:
        totals[log.x, log.y] = totals.get((log.x, log.y), 0) + 1
    missing = [(x, y) for x in (0, 1) for y in (0, 1) if (x, y) not in totals]
    if missing:
        raise ValidationError(
            "cannot estimate the table: input pairs never sampled: "
            + ", ".join(f"(x={x}, y={y})" for x, y in missing)
        )
    return _lenient_joint(logs)


def referee_audit(
    logs: list[RoundLog],
    ensemble: NonlocalEnsemble,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> AuditVerdict:
    """Audit a log against the declared ensemble.

    Two prongs: every round's recorded constituent must match what the
    declared member implies for that round's (y, b); and for each Bob
    input, the empirical constituent frequencies must pass a two-sided
    exact binomial test against the declared reduction weights.
    """
    # scipy.stats takes most of a second to import; only the audit needs it
    from scipy.stats import binomtest

    if not 0 < significance < 1:
        raise ValidationError(f"significance must be in (0, 1), got {significance}")
    members = ensemble.members
    mismatches: list[int] = []
    for log in logs:
        if not 0 <= log.member_id < len(members):
            mismatches.append(log.round_id)
            continue
        expected = constituent_after_measurement(members[log.member_id], log.y, log.b)
        if expected != log.alice_actual:
            mismatches.append(log.round_id)

    reductions: dict[int, AliceReduction] = {
        y: posterior_alice_reduction(ensemble, y) for y in (0, 1)
    }
    cells: list[FrequencyCell] = []
    for y in (0, 1):
        selected = [log for log in logs if log.y == y]
        if not selected:
            continue
        counts: dict[SBox, int] = {}
        for log in selected:
            counts[log.alice_actual] = counts.get(log.alice_actual, 0) + 1
        expected_weights = reductions[y].constituent_weights()
        for sbox in sorted(
            set(expected_weights) | set(counts), key=lambda s: s.index
        ):
            weight = expected_weights.get(sbox, Fraction(0))
            observed = counts.get(sbox, 0)
            if weight == 0:
                ok = observed == 0
                pvalue = None
            else:
                pvalue = float(
                    binomtest(observed, len(selected), float(weight)).pvalue
                )
                ok = pvalue >= significance
            cells.append(
                FrequencyCell(
                    input_choice=y,
                    constituent=sbox,
                    expected=weight,
                    observed=observed,
                    total=len(selected),
                    pvalue=pvalue,
                    ok=ok,
                )
            )

    return AuditVerdict(
        passed=not mismatches and all(cell.ok for cell in cells),
        mismatch_count=len(mismatches),
        mismatch_rounds=tuple(mismatches[:20]),
        frequency_cells=tuple(cells),
        significance=significance,
    )

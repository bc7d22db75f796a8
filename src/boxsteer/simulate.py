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

A log is counted once, by cell (member, x, y, a, b, inference, actual),
and the report and the Referee audit both come from those counts
(:class:`LogTally`).  Rounds are drawn (:func:`sample_rounds`) and
counted one at a time, so a log can be streamed without being held.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from operator import attrgetter, itemgetter

import numpy as np

from .boxes import SBox, as_prob, condition_on_bob
from .ensembles import (
    NonlocalEnsemble,
    constituent_after_measurement,
    posterior_alice_reduction,
)
from .errors import ValidationError

DEFAULT_SIGNIFICANCE = 1e-3
BITS = (0, 1)
PAIRS = tuple(product(BITS, BITS))


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

    ``mismatch_rounds`` lists at most the first 20 offending rounds, in
    log order; ``mismatch_count`` is the full count.  An empty log fails.
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


def _pick(cumulative, u):
    # cumulative: [(threshold, value)] with final threshold == 1
    for threshold, value in cumulative:
        if u < threshold:
            return value
    return cumulative[-1][1]


def _cumulative(pairs):
    # [(running total, value)] over the pairs of nonzero weight
    kept = [(weight, value) for weight, value in pairs if weight != 0]
    return list(zip(accumulate(weight for weight, _ in kept), (v for _, v in kept)))


def sample_rounds(
    ensemble: NonlocalEnsemble, rounds: int, seed: int, policy: InputPolicy
) -> Iterator[RoundLog]:
    """The ``rounds`` rounds of a seeded run, drawn one at a time.  The
    arguments, and the agreement of the two constituent-naming routes
    (a broken implementation otherwise), are checked on the call."""
    if rounds < 1:
        raise ValidationError(f"rounds must be positive, got {rounds}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValidationError(f"seed must be a nonnegative integer, got {seed!r}")

    members = ensemble.members
    member_cum = _cumulative((m.weight, i) for i, m in enumerate(members))
    policy_cum = _cumulative((policy.table[x][y], (x, y)) for x, y in PAIRS)
    outcome_cums = {}
    constituents = {}
    for i, member in enumerate(members):
        box = member.as_bipartite_box()
        for x, y in PAIRS:
            outcome_cums[i, x, y] = _cumulative(
                (box.prob(x, y, a, b), (a, b)) for a, b in PAIRS
            )
        for y, b in PAIRS:
            if any(box.prob(0, y, a, b) > 0 for a in BITS):
                inference = constituent_after_measurement(member, y, b)
                truth = SBox.from_local_box(condition_on_bob(box, y, b))
                if inference != truth:
                    raise RuntimeError(
                        f"constituent-naming routes disagree for member {i} "
                        f"at (y={y}, b={b}): {inference.label} vs {truth.label}"
                    )
                constituents[i, y, b] = inference

    def draw() -> Iterator[RoundLog]:
        for round_id in range(rounds):
            rng = np.random.default_rng([seed, round_id])
            u_member, u_inputs, u_outcomes = rng.random(3)
            member_id = _pick(member_cum, u_member)
            x, y = _pick(policy_cum, u_inputs)
            a, b = _pick(outcome_cums[member_id, x, y], u_outcomes)
            sbox = constituents[member_id, y, b]
            yield RoundLog(round_id, member_id, x, y, a, b, sbox, sbox)

    return draw()


def run_protocol(
    ensemble: NonlocalEnsemble,
    rounds: int,
    seed: int,
    policy: InputPolicy | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> tuple[SimulationReport, list[RoundLog]]:
    """Run ``rounds`` protocol rounds, tallying the log as it is built,
    and return the report with the log."""
    policy = policy or InputPolicy.uniform()
    draws = sample_rounds(ensemble, rounds, seed, policy)
    tally = LogTally(ensemble, significance)
    logs: list[RoundLog] = []
    for log in draws:
        tally.add(log)
        logs.append(log)
    return tally.report(seed, policy), logs


def referee_audit(
    logs: Iterable[RoundLog],
    ensemble: NonlocalEnsemble,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> AuditVerdict:
    """Audit a log against the declared ensemble, in one pass over it.

    Two prongs: every round's recorded constituent must match what the
    declared member implies for that round's (y, b); and for each Bob
    input, the empirical constituent frequencies must pass a two-sided
    exact binomial test against the declared reduction weights.
    """
    tally = LogTally(ensemble, significance)
    for log in logs:
        tally.add(log)
    return tally.verdict()


_cell = attrgetter("member_id", "x", "y", "a", "b", "referee_inference", "alice_actual")
_X, _Y, _A, _B, _ACTUAL = 1, 2, 3, 4, 6  # positions in a cell


class LogTally:
    """A log counted by cell ``(member_id, x, y, a, b, referee_inference,
    alice_actual)``.  The per-round rule (the member exists and implies
    the recorded constituent for the round's (y, b)) runs once per
    distinct cell; the round loop only counts, and keeps the first 20
    offending round ids in log order."""

    def __init__(
        self, ensemble: NonlocalEnsemble, significance: float = DEFAULT_SIGNIFICANCE
    ) -> None:
        if not 0 < significance < 1:
            raise ValidationError(f"significance must be in (0, 1), got {significance}")
        self.ensemble = ensemble
        self.significance = significance
        self.counts: dict[tuple, int] = {}
        self.offending: set[tuple] = set()
        self.mismatch_rounds: list[int] = []

    def add(self, log: RoundLog) -> None:
        cell = _cell(log)
        if cell not in self.counts and self._breaks_rule(cell):
            self.offending.add(cell)
        self.counts[cell] = self.counts.get(cell, 0) + 1
        if cell in self.offending and len(self.mismatch_rounds) < 20:
            self.mismatch_rounds.append(log.round_id)

    def _breaks_rule(self, cell: tuple) -> bool:
        member_id, _, y, _, b, _, actual = cell
        members = self.ensemble.members
        if not 0 <= member_id < len(members):
            return True
        return constituent_after_measurement(members[member_id], y, b) != actual

    def _grouped(self, group: tuple[int, ...], value: tuple[int, ...]) -> dict:
        """Rounds by the cell fields at ``group``, then at ``value``: groups
        sorted, values in the order the log first shows them."""
        by_group, by_value = itemgetter(*group), itemgetter(*value)
        out: dict = {}
        for cell, count in self.counts.items():
            counts = out.setdefault(by_group(cell), {})
            counts[by_value(cell)] = counts.get(by_value(cell), 0) + count
        return dict(sorted(out.items()))

    def verdict(self) -> AuditVerdict:
        # scipy.stats takes most of a second to import; only the audit needs it
        from scipy.stats import binomtest

        cells: list[FrequencyCell] = []
        for y, counts in self._grouped((_Y,), (_ACTUAL,)).items():
            total = sum(counts.values())
            weights = posterior_alice_reduction(self.ensemble, y).constituent_weights()
            for sbox in sorted(set(weights) | set(counts), key=lambda s: s.index):
                weight = weights.get(sbox, Fraction(0))
                seen = counts.get(sbox, 0)
                if weight == 0:
                    pvalue, ok = None, seen == 0
                else:
                    pvalue = float(binomtest(seen, total, float(weight)).pvalue)
                    ok = pvalue >= self.significance
                cells.append(FrequencyCell(y, sbox, weight, seen, total, pvalue, ok))
        mismatches = sum(self.counts[cell] for cell in self.offending)
        return AuditVerdict(
            passed=bool(self.counts) and not mismatches and all(c.ok for c in cells),
            mismatch_count=mismatches,
            mismatch_rounds=tuple(self.mismatch_rounds),
            frequency_cells=tuple(cells),
            significance=self.significance,
        )

    def report(self, seed: int, policy: InputPolicy) -> SimulationReport:
        """The run's report; the joint cells of input pairs never drawn are NaN."""
        joint = _relative(self._grouped((_X, _Y), (_A, _B)))
        undrawn = dict.fromkeys(PAIRS, math.nan)
        return SimulationReport(
            rounds=sum(self.counts.values()),
            rng_seed=seed,
            policy=policy,
            empirical_joint=tuple(
                tuple(
                    tuple(
                        tuple(joint.get((x, y), undrawn).get((a, b), 0.0) for b in BITS)
                        for a in BITS
                    )
                    for y in BITS
                )
                for x in BITS
            ),
            alice_frequencies=_relative(self._grouped((_Y,), (_ACTUAL,))),
            alice_frequencies_by_outcome=_relative(self._grouped((_Y, _B), (_ACTUAL,))),
            verdict=self.verdict(),
        )


def _relative(grouped: dict) -> dict:
    return {
        key: {value: n / sum(counts.values()) for value, n in counts.items()}
        for key, counts in grouped.items()
    }

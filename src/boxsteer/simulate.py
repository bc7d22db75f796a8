"""Seeded Monte Carlo execution of the refereed preparation protocol.

Each round the Referee draws a member of the declared ensemble, the
players draw inputs (x, y) from the input policy, and the round is one
of the member's equally likely rounds on (x, y) in the ensemble's round
table: an outcome (a, b) its vertex allows, with the constituent Alice
is left in, logged as both the Referee's inference and Alice's actual
constituent.

Randomness scheme: one substream per round.  Round ``r`` of a run with
seed ``s`` uses ``numpy.random.default_rng([s, r])``, i.e. a fresh
generator keyed on the (seed, round) pair through numpy's SeedSequence.
Three uniform draws per round — member, inputs, outcomes — in that
order.  Logs are therefore bit-for-bit reproducible and independent of
execution order; a parallel runner would produce the identical log.
The scheme is evaluated for a block of rounds at once, in
:mod:`boxsteer._stream`: numpy's SeedSequence hash and its PCG64 seeding
and output, written out over arrays of round ids, give the integers k
with ``u = k * 2**-53`` that ``random()`` returns.  That module is the
only one that imports numpy, and it is loaded when rounds are drawn.

Draws are exact: a cumulative weight c = num/den picks iff u < c, iff
k < ceil(num * 2**53 / den); the outcome, one of n equally likely rounds,
is entry k * n >> 53 (u < i/n iff k < i * 2**53 / n, an integer as n
divides 2**53).  Floats appear only in frequencies and the audit's e-value.

A :class:`RoundLog` checks its fields, and no count re-checks them.  A
log is counted as one list of rounds by honest-cell id, a cell (member,
x, y, a, b, inference, actual) for each round of the round table, in
table order (:class:`LogTally`); a round of any other cell is a
mismatch.  The report and the Referee audit both come from those
counts: the audit flags the mismatches, and scores the honest counts
with one Krichevsky–Trofimov e-value against the exact cell law given
each round's inputs (:meth:`LogTally.log_e_value`), in :mod:`math` alone.
Rounds are drawn and counted as cell ids a block at a time, and a
:class:`RoundLog` is stamped from its cell only where a caller asks for
one, so a log can be streamed without being held.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import count, islice
from math import lgamma, log
from operator import add, attrgetter, itemgetter

from .boxes import (
    SBox, _is_index, _quoted, _require_index, _require_natural, _shown, _sums_to_one,
    as_prob,
)
from .ensembles import PAIRS, NonlocalEnsemble
from .errors import ValidationError

DEFAULT_SIGNIFICANCE = 1e-3
BITS = (0, 1)


@dataclass(frozen=True)
class InputPolicy:
    """Distribution over input pairs; ``table[x][y]`` is p(x, y)."""

    table: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        try:
            table = tuple(tuple(as_prob(p) for p in row) for row in self.table)
        except TypeError as exc:
            raise ValidationError("input policy must be a 2x2 table") from exc
        if len(table) != 2 or any(len(row) != 2 for row in table):
            raise ValidationError("input policy must be a 2x2 table")
        _sums_to_one([p for row in table for p in row], "input policy sums to")
        object.__setattr__(self, "table", table)

    @classmethod
    def uniform(cls) -> "InputPolicy":
        quarter = Fraction(1, 4)
        return cls(((quarter, quarter), (quarter, quarter)))


@dataclass(frozen=True, slots=True)
class RoundLog:
    """One protocol round as the Referee records it, its fields checked when
    built (``dataclasses.replace`` too) with the NDJSON reader's rules."""

    round_id: int
    member_id: int
    x: int
    y: int
    a: int
    b: int
    referee_inference: SBox
    alice_actual: SBox

    def __post_init__(self) -> None:
        _require_natural("round_id", self.round_id)
        _require_natural("member_id", self.member_id)
        for name in "xyab":
            _require_index(name, getattr(self, name), 2)
        for name in ("referee_inference", "alice_actual"):
            if not isinstance(sbox := getattr(self, name), SBox):
                raise ValidationError(f"{name} must be an SBox, got {_quoted(sbox)}")


@dataclass(frozen=True)
class AuditVerdict:
    """Outcome of the Referee's log audit.

    ``mismatch_rounds`` lists at most the first 20 offending rounds, in
    log order; ``mismatch_count`` is the full count.  ``log_e_value`` is
    the log of the honest cells' e-value, which fails the log at
    ``log(1 / significance)`` or above.  An empty log fails.
    """

    passed: bool
    mismatch_count: int
    mismatch_rounds: tuple[int, ...]
    log_e_value: float
    significance: float


@dataclass(frozen=True)
class SimulationReport:
    rounds: int
    rng_seed: int
    policy: InputPolicy
    empirical_joint: tuple[tuple[tuple[tuple[float | None, ...], ...], ...], ...]
    alice_frequencies: dict[int, dict[SBox, float]]
    alice_frequencies_by_outcome: dict[tuple[int, int], dict[SBox, float]]
    verdict: AuditVerdict


def _cell_blocks(
    ensemble: NonlocalEnsemble, rounds: int, seed: int, policy: InputPolicy
) -> Iterator:
    """The rounds of a seeded run as (first round id, ids into
    ``_cells(ensemble)``) blocks, after the arguments are checked."""
    if not _is_index(rounds):
        raise ValidationError(f"rounds must be an integer, got {_quoted(rounds)}")
    if rounds < 1:
        raise ValidationError(f"rounds must be positive, got {_shown(rounds)}")
    _require_natural("seed", seed)

    from . import _stream  # numpy loads only when rounds are drawn

    sizes = [[len(outcomes) for outcomes in rows] for rows in ensemble._round_table]
    return _stream.blocks(seed, rounds, [m.weight for m in ensemble.members],
                          [policy.table[x][y] for x, y in PAIRS], sizes)


def _cells(ensemble: NonlocalEnsemble) -> list[tuple]:
    """The honest cells (m, x, y, a, b, c, c), one per round (x, y, a, b, c)
    of member m in the ensemble's round table, in table order, each cell's
    id its index.  The table holds c as its ``SBOXES`` instance, the one
    the NDJSON reader returns, so a read cell matches by identity."""
    return [(m, x, y, a, b, c, c) for m, rows in enumerate(ensemble._round_table)
            for outcomes in rows for x, y, a, b, c in outcomes]


_SETTERS = tuple(getattr(RoundLog, f.name).__set__ for f in fields(RoundLog))


def _stamp(round_id: int, cell: tuple) -> RoundLog:
    """The RoundLog of a round and its cell, valid by construction as in
    ``boxes._built``: no ``__init__`` runs, each slot is set directly."""
    log = object.__new__(RoundLog)
    s0, s1, s2, s3, s4, s5, s6, s7 = _SETTERS
    member_id, x, y, a, b, inference, actual = cell
    s0(log, round_id)
    s1(log, member_id)
    s2(log, x)
    s3(log, y)
    s4(log, a)
    s5(log, b)
    s6(log, inference)
    s7(log, actual)
    return log


def run_protocol(
    ensemble: NonlocalEnsemble,
    rounds: int,
    seed: int,
    policy: InputPolicy | None = None,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> tuple[SimulationReport, list[RoundLog]]:
    """Run ``rounds`` protocol rounds, tallying the log a block at a time
    as it is built, and return the report with the log."""
    policy = policy or InputPolicy.uniform()
    blocks = _cell_blocks(ensemble, rounds, seed, policy)
    tally = LogTally(ensemble, significance)
    logs: list[RoundLog] = []
    for start, ids in blocks:
        tally.add_block(ids)
        logs += map(_stamp, count(start), map(tally.honest_cells.__getitem__, ids.tolist()))
    return tally.report(seed, policy), logs


def referee_audit(
    logs: Iterable[RoundLog],
    ensemble: NonlocalEnsemble,
    significance: float = DEFAULT_SIGNIFICANCE,
) -> AuditVerdict:
    """Audit a log against the declared ensemble, in one pass over it.

    A round is a mismatch unless its cell is one of :func:`_cells`, one
    of its member's rounds with its constituent, found with one dict
    lookup per round (:meth:`LogTally.add`).  The counts of the honest
    cells are scored by :meth:`LogTally.log_e_value`, an e-value
    against the declared ensemble's cell law given the logged inputs, so
    an honest log fails with probability at most ``significance``.  The
    log passes if it is non-empty, has no mismatch and its log e-value is
    below ``log(1 / significance)``.
    """
    tally = LogTally(ensemble, significance)
    for log in logs:
        tally.add(log)
    return tally.verdict()


_cell = attrgetter("member_id", "x", "y", "a", "b", "referee_inference", "alice_actual")
_X, _Y, _A, _B, _ACTUAL = 1, 2, 3, 4, 6  # positions in a cell
_LGAMMA_HALF = lgamma(0.5)


class LogTally:
    """A log as the rounds of each honest cell, ``counts[i]`` for cell i of
    ``honest_cells`` (:func:`_cells`), and the rounds of any other cell as
    mismatches: ``mismatch_count`` of them, the first 20 round ids in log
    order in ``mismatch_rounds``.  A round is counted with one lookup of its
    cell ``(member_id, x, y, a, b, referee_inference, alice_actual)``; its
    types are its :class:`RoundLog`'s to check.  Drawn rounds, honest by
    construction, are counted a block of cell ids at a time
    (:meth:`add_block`).  The verdict adds the honest cells' e-value
    (:meth:`log_e_value`) to the rule."""

    def __init__(
        self, ensemble: NonlocalEnsemble, significance: float = DEFAULT_SIGNIFICANCE
    ) -> None:
        if not 0 < significance < 1:
            raise ValidationError(f"significance must be in (0, 1), got {significance}")
        self.ensemble = ensemble
        self.significance = significance
        self.honest_cells = _cells(ensemble)
        # distinct: members differ in m, a member's rounds on (x, y) in (a, b)
        self._ids = {cell: i for i, cell in enumerate(self.honest_cells)}
        self.counts = [0] * len(self.honest_cells)
        self.mismatch_count = 0
        self.mismatch_rounds: list[int] = []

    def add(self, log: RoundLog) -> None:
        i = self._ids.get(_cell(log))
        if i is not None:
            self.counts[i] += 1
            return
        self.mismatch_count += 1
        if len(self.mismatch_rounds) < 20:
            self.mismatch_rounds.append(log.round_id)

    def add_block(self, ids) -> None:
        """Count a block of drawn rounds, ids into ``honest_cells``, with one bincount."""
        import numpy as np  # loaded already, with the draws

        drawn = np.bincount(ids, minlength=len(self.counts)).tolist()
        self.counts = list(map(add, self.counts, drawn))

    def _frequencies(self, group: tuple[int, ...], value: tuple[int, ...]) -> dict:
        """The honest rounds' relative frequencies of the fields at ``value``
        given those at ``group``: groups sorted, values in the order of their
        first cell in the table, and a group or value with no rounds left out."""
        by_group, by_value = itemgetter(*group), itemgetter(*value)
        out: dict = {}
        for cell, n in zip(self.honest_cells, self.counts):
            counts = out.setdefault(by_group(cell), {})
            counts[by_value(cell)] = counts.get(by_value(cell), 0) + n
        return {key: {value: n / total for value, n in counts.items() if n}
                for key, counts in sorted(out.items()) if (total := sum(counts.values()))}

    def log_e_value(self) -> float:
        """The log of the Krichevsky–Trofimov e-value of the honest cells'
        counts.  Given its inputs (x, y), a round of an honest log is one
        of the K rounds of the round table on (x, y), member m's each with
        probability q = w_m / n_m(x, y); the N rounds on (x, y) score

            lgamma(K/2) - lgamma(N + K/2) + sum_i [lgamma(n_i + 1/2)
                                                   - lgamma(1/2) - n_i log q_i]

        and the log e-value is the sum over the four input pairs.  Its
        e-value has mean 1 under any input policy, so it reaches 1/alpha
        with probability at most alpha (Markov; Ville for a log cut at a
        data-dependent length).  Mismatched cells stay out: the rule fails
        them.  The terms are summed in table order, whatever the log's."""
        counts = iter(self.counts)  # in the round table's shape, [member][pair]
        table = [[list(islice(counts, len(outcomes))) for outcomes in rows]
                 for rows in self.ensemble._round_table]
        total = 0.0
        for pair in range(len(PAIRS)):
            k = rounds = 0
            for member, rows in zip(self.ensemble.members, table):
                k += len(rows[pair])
                q = member.weight / len(rows[pair])  # as a float, it may underflow
                log_q = log(q.numerator) - log(q.denominator)
                for n in rows[pair]:
                    if n:
                        rounds += n
                        total += lgamma(n + 0.5) - _LGAMMA_HALF - n * log_q
            total += lgamma(k / 2) - lgamma(rounds + k / 2)
        return total

    def verdict(self) -> AuditVerdict:
        log_e = self.log_e_value()
        return AuditVerdict(
            passed=(any(self.counts) and not self.mismatch_count
                    and log_e < -log(self.significance)),
            mismatch_count=self.mismatch_count,
            mismatch_rounds=tuple(self.mismatch_rounds),
            log_e_value=log_e,
            significance=self.significance,
        )

    def report(self, seed: int, policy: InputPolicy) -> SimulationReport:
        """The report of a run's drawn rounds, every one of them an honest
        cell's; the joint cells of input pairs never drawn are None."""
        joint = self._frequencies((_X, _Y), (_A, _B))
        undrawn = dict.fromkeys(PAIRS)
        return SimulationReport(
            rounds=sum(self.counts),
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
            alice_frequencies=self._frequencies((_Y,), (_ACTUAL,)),
            alice_frequencies_by_outcome=self._frequencies((_Y, _B), (_ACTUAL,)),
            verdict=self.verdict(),
        )

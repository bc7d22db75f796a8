"""Seeded Monte Carlo execution of the refereed preparation protocol.

Each round the Referee draws a member of the declared ensemble, the
players draw inputs (x, y) from the input policy, and the round is one
of the member's equally likely rounds on (x, y) in the ensemble's round
table: an outcome (a, b) its ``cells`` allow, with the constituent Alice
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
divides 2**53).  Floats appear only in frequencies and test statistics.

A :class:`RoundLog` checks its fields, and no count re-checks them.  A
log is counted once, by cell (member, x, y, a, b, inference, actual),
and the report and the Referee audit both come from those counts
(:class:`LogTally`); the audit flags each round that is not one of its
member's rounds in the same table, and tests Alice's constituent
frequencies per Bob input against :func:`posterior_alice_reduction`,
with scipy's two-sided exact binomial test (:func:`_binom_pvalue`).
Rounds are drawn and counted as cell ids a block at a time, and a
:class:`RoundLog` is stamped from its cell only where a caller asks for
one, so a log can be streamed without being held.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, fields
from fractions import Fraction
from itertools import count
from math import ceil, floor
from operator import attrgetter, itemgetter

from .boxes import (
    SBox, _is_index, _quoted, _require_index, _require_natural, _sums_to_one, as_prob,
)
from .ensembles import PAIRS, NonlocalEnsemble, posterior_alice_reduction
from .errors import ValidationError

DEFAULT_SIGNIFICANCE = 1e-3
BITS = (0, 1)


@dataclass(frozen=True)
class InputPolicy:
    """Distribution over input pairs; ``table[x][y]`` is p(x, y)."""

    table: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        table = tuple(tuple(as_prob(p) for p in row) for row in self.table)
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
        raise ValidationError(f"rounds must be an integer, got {rounds!r}")
    if rounds < 1:
        raise ValidationError(f"rounds must be positive, got {rounds}")
    _require_natural("seed", seed)

    from . import _stream  # numpy loads only when rounds are drawn

    sizes = [[len(outcomes) for outcomes in rows] for rows in ensemble._round_table]
    return _stream.blocks(seed, rounds, [m.weight for m in ensemble.members],
                          [policy.table[x][y] for x, y in PAIRS], sizes)


def _cells(ensemble: NonlocalEnsemble) -> list[tuple]:
    """The honest cells (m, x, y, a, b, c, c), one per round (x, y, a, b, c)
    of member m in the ensemble's round table, in table order."""
    return [(m, *entry, entry[-1]) for m, rows in enumerate(ensemble._round_table)
            for outcomes in rows for entry in outcomes]


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


def sample_rounds(
    ensemble: NonlocalEnsemble, rounds: int, seed: int, policy: InputPolicy
) -> Iterator[RoundLog]:
    """The ``rounds`` rounds of a seeded run, drawn in blocks and yielded
    one at a time, after the arguments are checked."""
    blocks, cells = _cell_blocks(ensemble, rounds, seed, policy), _cells(ensemble)
    return (_stamp(r, cells[c])
            for start, ids in blocks for r, c in enumerate(ids.tolist(), start))


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
    of its member's rounds with its constituent.  For each Bob input, the
    constituent frequencies must also pass a two-sided exact binomial test
    against the declared reduction weights.  The log passes if it is
    non-empty, has no mismatch and fails no test.
    """
    tally = LogTally(ensemble, significance)
    for log in logs:
        tally.add(log)
    return tally.verdict()


_cell = attrgetter("member_id", "x", "y", "a", "b", "referee_inference", "alice_actual")
_X, _Y, _A, _B, _ACTUAL = 1, 2, 3, 4, 6  # positions in a cell


class LogTally:
    """A log counted by cell ``(member_id, x, y, a, b, referee_inference,
    alice_actual)`` as [rounds, breaks the rule], in the order the log
    first shows each cell.  The per-round rule is membership in the honest
    cells (:func:`_cells`), decided once per distinct cell; the round loop
    makes one lookup, counts, and keeps the first 20 offending round ids
    in log order.  A round's types are its :class:`RoundLog`'s to check.
    Drawn rounds, honest by construction, are counted a block of cell ids
    at a time (:meth:`add_block`)."""

    def __init__(
        self, ensemble: NonlocalEnsemble, significance: float = DEFAULT_SIGNIFICANCE
    ) -> None:
        if not 0 < significance < 1:
            raise ValidationError(f"significance must be in (0, 1), got {significance}")
        self.ensemble = ensemble
        self.significance = significance
        self.honest_cells = _cells(ensemble)
        self._honest = set(self.honest_cells)
        self.cells: dict[tuple, list] = {}
        self.mismatch_rounds: list[int] = []

    def add(self, log: RoundLog) -> None:
        cell = _cell(log)
        entry = self.cells.get(cell) or self._entry(cell)
        entry[0] += 1
        if entry[1] and len(self.mismatch_rounds) < 20:
            self.mismatch_rounds.append(log.round_id)

    def add_block(self, ids) -> None:
        """Count a block of drawn rounds, ids into ``honest_cells``, with one
        bincount; new cells enter in the order the block first shows them."""
        import numpy as np  # loaded already, with the draws

        counts = np.bincount(ids).tolist()
        for i in sorted((i for i, n in enumerate(counts) if n), key=ids.tolist().index):
            cell = self.honest_cells[i]
            entry = self.cells.get(cell) or self._entry(cell)
            entry[0] += counts[i]

    def _entry(self, cell: tuple) -> list:
        return self.cells.setdefault(cell, [0, cell not in self._honest])

    def _grouped(self, group: tuple[int, ...], value: tuple[int, ...]) -> dict:
        """Rounds by the fields at ``group``, then at ``value``: groups
        sorted, values in the order the log first shows them."""
        by_group, by_value = itemgetter(*group), itemgetter(*value)
        out: dict = {}
        for cell, (n, _) in self.cells.items():
            counts = out.setdefault(by_group(cell), {})
            counts[by_value(cell)] = counts.get(by_value(cell), 0) + n
        return dict(sorted(out.items()))

    def verdict(self) -> AuditVerdict:
        cells: list[FrequencyCell] = []
        for y, counts in self._grouped((_Y,), (_ACTUAL,)).items():
            total = sum(counts.values())
            weights = posterior_alice_reduction(self.ensemble, y)
            for sbox in sorted(set(weights) | set(counts), key=lambda s: s.index):
                weight = weights.get(sbox, Fraction(0))
                seen = counts.get(sbox, 0)
                if weight == 0:
                    pvalue, ok = None, seen == 0
                else:
                    pvalue = _binom_pvalue(seen, total, float(weight))
                    ok = pvalue >= self.significance
                cells.append(FrequencyCell(y, sbox, weight, seen, total, pvalue, ok))
        mismatches = sum(n for n, breaks in self.cells.values() if breaks)
        return AuditVerdict(
            passed=bool(self.cells) and not mismatches and all(c.ok for c in cells),
            mismatch_count=mismatches,
            mismatch_rounds=tuple(self.mismatch_rounds),
            frequency_cells=tuple(cells),
            significance=self.significance,
        )

    def report(self, seed: int, policy: InputPolicy) -> SimulationReport:
        """The run's report; the joint cells of input pairs never drawn are None."""
        joint = _relative(self._grouped((_X, _Y), (_A, _B)))
        undrawn = dict.fromkeys(PAIRS)
        return SimulationReport(
            rounds=sum(n for n, _ in self.cells.values()),
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


def _binom_pvalue(k: int, n: int, p: float) -> float:
    """The two-sided p-value of scipy's ``binomtest(k, n, p)``, for
    0 <= k <= n and n >= 1: its algorithm on the binomial ufuncs that
    scipy's ``binom`` distribution reads, with its clamps outside the
    support, so the value is the same float.  The outcomes at most as
    likely as k (up to a relative 1e-7) are those out to k on its side
    of the mode and, found by bisection, the tail beyond it on the other
    side."""
    # loaded by the audit alone; scipy's stats package would add about 0.6 s
    from scipy.special._ufuncs import _binom_cdf, _binom_pmf, _binom_sf

    def pmf(i: int) -> float:
        return float(_binom_pmf(i, n, p)) if 0 <= i <= n else 0.0

    def cdf(i: int) -> float:
        return 1.0 if i >= n else float(_binom_cdf(i, n, p)) if i >= 0 else 0.0

    def sf(i: int) -> float:
        return 0.0 if i >= n else float(_binom_sf(i, n, p)) if i >= 0 else 1.0

    def last_at_most(value, bound: float, lo: int, hi: int) -> int:
        """The i in [lo - 1, hi] with value(i) <= bound < value(i + 1), for
        ``value`` ascending on [lo, hi] (scipy's
        ``_binary_search_for_binom_tst``)."""
        while lo < hi:
            mid = lo + (hi - lo) // 2
            at = value(mid)
            if at < bound:
                lo = mid + 1
            elif at > bound:
                hi = mid - 1
            else:
                return mid
        return lo if value(lo) <= bound else lo - 1

    if k == p * n:
        return 1.0
    d = pmf(k) * (1 + 1e-7)
    if k < p * n:
        i = last_at_most(lambda j: -pmf(j), -d, ceil(p * n), n)
        beyond = n - i + int(d == pmf(i))
        pvalue = cdf(k) + sf(n - beyond)
    else:
        i = last_at_most(pmf, d, 0, floor(p * n))
        pvalue = cdf(i) + sf(k - 1)
    return min(1.0, pvalue)


def _relative(grouped: dict) -> dict:
    return {
        key: {value: n / sum(counts.values()) for value, n in counts.items()}
        for key, counts in grouped.items()
    }

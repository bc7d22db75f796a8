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
The scheme is evaluated for a block of rounds at once
(:func:`_round_ints`): numpy's SeedSequence hash and its PCG64 seeding
and output, written out over arrays of round ids, give the integers k
with ``u = k * 2**-53`` that ``random()`` returns.

Draws are exact: a cumulative weight c = num/den picks iff u < c, iff
k < ceil(num * 2**53 / den); the outcome, one of n equally likely rounds,
is entry k * n >> 53 (u < i/n iff k < i * 2**53 / n, an integer as n
divides 2**53).  Floats appear only in frequencies and test statistics.

A log is counted once, by cell (member, x, y, a, b, inference, actual),
and the report and the Referee audit both come from those counts
(:class:`LogTally`); the audit flags each round that is not one of its
member's rounds in the same table, and tests Alice's constituent
frequencies per Bob input against :func:`posterior_alice_reduction`.
Rounds are drawn (:func:`sample_rounds`) and counted one at a time, so a
log can be streamed without being held.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, product
from operator import attrgetter, itemgetter

import numpy as np

from .boxes import SBox, _is_index, _require_natural, _sums_to_one, as_prob
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
    empirical_joint: tuple[tuple[tuple[tuple[float | None, ...], ...], ...], ...]
    alice_frequencies: dict[int, dict[SBox, float]]
    alice_frequencies_by_outcome: dict[tuple[int, int], dict[SBox, float]]
    verdict: AuditVerdict


# numpy's SeedSequence (NEP 19) and PCG64 (O'Neill 2014, XSL-RR 128/64)
_M32, _M64 = (1 << 32) - 1, (1 << 64) - 1
_HASH_A = (0x43B0D7E5, 0x931E8875)  # SeedSequence pool mixing
_HASH_B = (0x8B51F9DD, 0x58F38DED)  # SeedSequence.generate_state
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U32, _U64 = np.uint32, np.uint64
_BLOCK = 1024  # rounds drawn per numpy evaluation


def _words(n: int) -> list[int]:
    """The little-endian 32-bit words SeedSequence reads from an int."""
    words = [n & _M32]
    while n := n >> 32:
        words.append(n & _M32)
    return words


def _hashes(h: int, mult: int) -> Iterator[tuple[np.uint32, np.uint32]]:
    """The (xor, multiply) constants of successive hashmix calls."""
    while True:
        following = h * mult & _M32
        yield _U32(h), _U32(following)
        h = following


def _hashmix(value: np.ndarray, hashes: Iterator) -> np.ndarray:
    xor, mult = next(hashes)
    value = (value ^ xor) * mult
    return value ^ value >> _U32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    value = x * _MIX_L - y * _MIX_R
    return value ^ value >> _U32(16)


def _mul_add(state: tuple, inc: tuple) -> tuple:
    """One PCG step, state * _PCG_MULT + inc mod 2**128, on (high, low)
    pairs of uint64 arrays."""
    hi, lo = state
    m_hi, m_lo = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & _M64)
    mask, s32 = _U64(_M32), _U64(32)
    # the high word of lo * m_lo, from 32-bit limbs
    l0, l1, m0, m1 = lo & mask, lo >> s32, m_lo & mask, m_lo >> s32
    p00, p01, p10 = l0 * m0, l0 * m1, l1 * m0
    mid = (p00 >> s32) + (p01 & mask) + (p10 & mask)
    carry = l1 * m1 + (p01 >> s32) + (p10 >> s32) + (mid >> s32)
    return _add((carry + lo * m_hi + hi * m_lo, lo * m_lo), inc)


def _add(x: tuple, y: tuple) -> tuple:
    """(high, low) sums mod 2**128."""
    lo = x[1] + y[1]
    return x[0] + y[0] + (lo < y[1]), lo


def _generate_state(seed: int, start: int, stop: int) -> np.ndarray:
    """``SeedSequence([seed, r]).generate_state(4, np.uint64)`` for rounds
    ``r`` in [start, stop), as an array of shape (stop - start, 4)."""
    blocks = []
    while start < stop:
        # entropy: the seed's words, then r's; above its lowest word, r is
        # the same for every round of the segment
        high = start >> 32
        n = min(stop, (high + 1) << 32) - start
        low = np.arange(start & _M32, (start & _M32) + n, dtype=_U64).astype(_U32)
        words = [np.full(n, w, _U32) for w in _words(seed)] + [low]
        words += [np.full(n, w, _U32) for w in _words(high)] if high else []
        words += [np.zeros(n, _U32)] * (4 - len(words))
        # a pool of 4 hashed words, cross-mixed, then mixed with the rest
        hashes = _hashes(*_HASH_A)
        pool = [_hashmix(word, hashes) for word in words[:4]]
        for src, dst in product(range(4), repeat=2):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], hashes))
        for word in words[4:]:
            for dst in range(4):
                pool[dst] = _mix(pool[dst], _hashmix(word, hashes))
        hashes = _hashes(*_HASH_B)
        halves = [_hashmix(pool[i % 4], hashes).astype(_U64) for i in range(8)]
        pairs = [halves[i] | halves[i + 1] << _U64(32) for i in (0, 2, 4, 6)]
        blocks.append(np.stack(pairs, 1))
        start += n
    return np.concatenate(blocks)


def _pcg64_seeded(words: np.ndarray) -> tuple[tuple, tuple]:
    """PCG64's (state, inc) after ``srandom_r`` on the words of
    :func:`_generate_state`, each a (high, low) pair of uint64 arrays."""
    seed_hi, seed_lo, seq_hi, seq_lo = words.T
    inc = (seq_hi << _U64(1) | seq_lo >> _U64(63), seq_lo << _U64(1) | _U64(1))
    return _mul_add(_add(inc, (seed_hi, seed_lo)), inc), inc


def _pcg64_ints(state: tuple, inc: tuple) -> np.ndarray:
    """The next three XSL-RR outputs, shifted right by 11, as (n, 3)."""
    draws = []
    for _ in range(3):
        state = _mul_add(state, inc)
        folded, rot = state[0] ^ state[1], state[0] >> _U64(58)
        folded = folded >> rot | folded << (_U64(64) - rot & _U64(63))
        draws.append(folded >> _U64(11))
    return np.stack(draws, 1)


def _round_ints(seed: int, start: int, stop: int) -> np.ndarray:
    """For rounds ``r`` in [start, stop), the three integers k that
    ``default_rng([seed, r]).random(3)`` returns as k * 2**-53, as an
    array of shape (stop - start, 3)."""
    return _pcg64_ints(*_pcg64_seeded(_generate_state(seed, start, stop)))


def _thresholds(weights: Iterable[Fraction]) -> list[int]:
    """ceil(c * 2**53) for each cumulative weight c: with u = k * 2**-53,
    u < c iff k < ceil(c * 2**53), so the first c above u is at index
    ``searchsorted(thresholds, k, side="right")``; zero weights are never
    picked."""
    return [-((-c.numerator << 53) // c.denominator) for c in accumulate(weights)]


def sample_rounds(
    ensemble: NonlocalEnsemble, rounds: int, seed: int, policy: InputPolicy
) -> Iterator[RoundLog]:
    """The ``rounds`` rounds of a seeded run, drawn in blocks and yielded
    one at a time, after the arguments are checked.  The outcome is entry
    k * n >> 53 of the member's n rounds on (x, y) in its round table:
    u < i/n iff k < i * 2**53 / n, exact as n, 1 or 2, divides 2**53."""
    if not _is_index(rounds):
        raise ValidationError(f"rounds must be an integer, got {rounds!r}")
    if rounds < 1:
        raise ValidationError(f"rounds must be positive, got {rounds}")
    _require_natural("seed", seed)

    member_thresholds = np.array(_thresholds(m.weight for m in ensemble.members), _U64)
    pair_thresholds = np.array(_thresholds(policy.table[x][y] for x, y in PAIRS), _U64)
    table = ensemble._round_table

    def draw() -> Iterator[RoundLog]:
        for start in range(0, rounds, _BLOCK):
            stop = min(start + _BLOCK, rounds)
            k = _round_ints(seed, start, stop)
            member_ids = np.searchsorted(member_thresholds, k[:, 0], side="right")
            pairs = np.searchsorted(pair_thresholds, k[:, 1], side="right")
            drawn = member_ids.tolist(), pairs.tolist(), k[:, 2].tolist()
            for round_id, member_id, pair, k_outcome in zip(range(start, stop), *drawn):
                outcomes = table[member_id][pair]
                x, y, a, b, sbox = outcomes[k_outcome * len(outcomes) >> 53]
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

    A round is a mismatch unless its member exists, its x, y, a and b
    are bits, and it is one of the member's rounds, its inference and
    actual constituent included (:meth:`LogTally._breaks_rule`).  For
    each Bob input, the constituent frequencies of the well-typed rounds
    must also pass a two-sided exact binomial test against the declared
    reduction weights.  The log passes if it is non-empty, has no
    mismatch and fails no test.
    """
    tally = LogTally(ensemble, significance)
    for log in logs:
        tally.add(log)
    return tally.verdict()


_cell = attrgetter("member_id", "x", "y", "a", "b", "referee_inference", "alice_actual")
_X, _Y, _A, _B, _ACTUAL = 1, 2, 3, 4, 6  # positions in a cell
_UNHASHABLE = (None,) * 7  # the ill-typed cell of every round with an unhashable field


def _well_typed(cell: tuple) -> bool:
    """x, y, a and b are bits, and the inference and the actual
    constituent are S boxes."""
    return all(_is_index(v) and 0 <= v < 2 for v in cell[_X:_B + 1]) and all(
        isinstance(sbox, SBox) for sbox in cell[_B + 1:]
    )


class LogTally:
    """A log counted by cell ``(member_id, x, y, a, b, referee_inference,
    alice_actual)`` as [rounds, breaks the rule].  The per-round rule is
    membership in the honest cells: (m, x, y, a, b, c, c) for each round
    (x, y, a, b, c) of member m in the ensemble's round table.  It runs
    once per distinct cell; the round loop makes one lookup, counts, and
    keeps the first 20 offending round ids in log order.  A cell that is
    not well-typed is a mismatch and stays out of the frequency tests and
    the report's tables."""

    def __init__(
        self, ensemble: NonlocalEnsemble, significance: float = DEFAULT_SIGNIFICANCE
    ) -> None:
        if not 0 < significance < 1:
            raise ValidationError(f"significance must be in (0, 1), got {significance}")
        self.ensemble = ensemble
        self.significance = significance
        self._honest = {
            (m, *entry, entry[-1]) for m, rows in enumerate(ensemble._round_table)
            for outcomes in rows for entry in outcomes
        }
        self.cells: dict[tuple, list] = {}
        self.mismatch_rounds: list[int] = []

    def add(self, log: RoundLog) -> None:
        cell = _cell(log)
        try:
            entry = self.cells.get(cell)
        except TypeError:  # an unhashable field
            entry = self.cells.get(cell := _UNHASHABLE)
        if entry is None:
            entry = self.cells[cell] = [0, self._breaks_rule(cell)]
        entry[0] += 1
        if entry[1] and len(self.mismatch_rounds) < 20:
            self.mismatch_rounds.append(log.round_id)

    def _breaks_rule(self, cell: tuple) -> bool:
        # the types first: True == 1 and 1.0 == 1 would find an honest cell
        return not (_is_index(cell[0]) and _well_typed(cell) and cell in self._honest)

    def _grouped(self, group: tuple[int, ...], value: tuple[int, ...]) -> dict:
        """Rounds of the well-typed cells by the fields at ``group``, then at
        ``value``: groups sorted, values in the order the log first shows
        them."""
        by_group, by_value = itemgetter(*group), itemgetter(*value)
        out: dict = {}
        for cell, (count, _) in self.cells.items():
            if not _well_typed(cell):
                continue
            counts = out.setdefault(by_group(cell), {})
            counts[by_value(cell)] = counts.get(by_value(cell), 0) + count
        return dict(sorted(out.items()))

    def verdict(self) -> AuditVerdict:
        # scipy.stats takes most of a second to import; only the audit needs it
        from scipy.stats import binomtest

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
                    pvalue = float(binomtest(seen, total, float(weight)).pvalue)
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


def _relative(grouped: dict) -> dict:
    return {
        key: {value: n / sum(counts.values()) for value, n in counts.items()}
        for key, counts in grouped.items()
    }

"""numpy's ``default_rng([seed, round])`` stream, evaluated for blocks of
rounds at once: the SeedSequence hash and PCG64's seeding and output,
written out over arrays of round ids, give the integers k with
``u = k * 2**-53`` that ``random()`` returns (:func:`_round_ints`).

Only the simulator's draws (:func:`boxsteer.simulate._cell_blocks`)
import this module, so numpy loads when rounds are drawn and not with
``import boxsteer``.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, product

import numpy as np

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


def blocks(
    seed: int, rounds: int, members: Iterable[Fraction], pairs: Iterable[Fraction],
    sizes: Sequence[Sequence[int]],
) -> Iterator[tuple[int, np.ndarray]]:
    """Rounds 0 to ``rounds`` - 1 of the stream, a block at a time, each
    block as (its first round id, the cell id of each round).  The member
    m and the input pair p are picked by their weights, in order, and the
    outcome is entry k * n >> 53 of the n = ``sizes[m][p]`` equally likely
    ones (u < i/n iff k < i * 2**53 / n, exact as n, 1 or 2, divides
    2**53); cells are numbered in (m, p, outcome) order."""
    member_thresholds = np.array(_thresholds(members), _U64)
    pair_thresholds = np.array(_thresholds(pairs), _U64)
    n = np.array(sizes, np.int64)
    base = (np.cumsum(n) - n.ravel()).reshape(n.shape)
    for start in range(0, rounds, _BLOCK):
        k = _round_ints(seed, start, min(start + _BLOCK, rounds))
        m = np.searchsorted(member_thresholds, k[:, 0], side="right")
        p = np.searchsorted(pair_thresholds, k[:, 1], side="right")
        yield start, base[m, p] + (k[:, 2].astype(np.int64) * n[m, p] >> 53)

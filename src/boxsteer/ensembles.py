"""Weighted ensembles of boxes and their reductions.

An :class:`Ensemble` is a finite convex combination of deterministic
single-party boxes, each held as its strategy: the tuple of outputs
``a = f(x)``, one per input.  :func:`mix` collapses it to the box it
realizes, one weight addition per (member, input), and keeps that box
on the ensemble.  The validated 0/1 tables of ``Ensemble.members`` are
built only when they are read.  Only deterministic constituents are
supported: mixed constituents can always be refined into deterministic
ones without changing anything observable.  ``Ensemble(pairs)`` reads
each box into its strategy and ends in ``Ensemble.from_strategies``'s check.

A :class:`NonlocalEnsemble` is a convex combination of two-party
members over the one-bit scenario: uncorrelated pairs of S boxes and
extremal PR correlations.  A vertex's rounds, its equally likely
outcomes per input pair with the S box Alice is left in, are worked out
once (:func:`_vertex_rounds`); the mixture, the measurement update and
the round table read them.  The table's rows at x = 0 give the joint
law after each of Bob's inputs (``_joints``, built once), of which
Alice's reduction, Bob's outcomes and his posterior are sums; the
sampler and the audit read the table.

Duplicate members are merged and zero weights dropped on construction,
so equality of member tuples is canonical up to ordering.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Hashable, Iterable, Sequence, TypeVar, Union

from .boxes import (
    SBOXES,
    BipartiteBox,
    LocalBox,
    PRBox,
    SBox,
    _built,
    _is_index,
    _quoted,
    _require_index,
    _sums_to_one,
    as_prob,
    deterministic_table,
)
from .errors import ValidationError

_K = TypeVar("_K", bound=Hashable)

Strategy = tuple[int, ...]
_Round = tuple[int, int, int, int, SBox]  # (x, y, a, b, Alice's S box after b on y)
# an entry of the joint after Bob's input: (share, b, drew, constituent)
_Entry = tuple[Fraction, int, bool, SBox]
PAIRS = ((0, 0), (0, 1), (1, 0), (1, 1))  # input pairs (x, y), in round-table order


def _merge_weighted(pairs: Iterable[tuple[Fraction, _K]]) -> list[tuple[Fraction, _K]]:
    # first-occurrence order (the dict's), duplicates merged, exact zeros dropped
    totals: dict[_K, Fraction] = {}
    for weight, key in pairs:
        totals[key] = totals[key] + weight if key in totals else weight
    return [(w, k) for k, w in totals.items() if w != 0]


def _listed(items: object, message: str, kind: type = object) -> tuple:
    """``items`` as a tuple of ``kind`` instances, or bad input that ``message`` names."""
    try:
        listed = tuple(items)
    except TypeError as exc:
        raise ValidationError(message) from exc
    if not all(isinstance(item, kind) for item in listed):
        raise ValidationError(message)
    return listed


def _strategy_of(
    rows: Sequence[Sequence[Fraction]], mass: Fraction = Fraction(1)
) -> Strategy:
    """The output per input of a deterministic table: in each row, the
    one cell that holds the row's whole ``mass``."""
    if any(mass not in row for row in rows):
        raise ValidationError("ensemble constituents must be deterministic boxes")
    return tuple(row.index(mass) for row in rows)


@dataclass(frozen=True, init=False)
class Ensemble:
    """Convex combination of deterministic single-party boxes.

    ``strategies`` is a tuple of (weight, strategy) pairs, a strategy
    listing the output out of ``num_outputs`` for each input; weights
    are exact, positive and sum to one.  ``Ensemble(((w, box), ...))``
    reads each deterministic :class:`LocalBox` into its strategy;
    :meth:`from_strategies` takes the pairs as they are.
    """

    strategies: tuple[tuple[Fraction, Strategy], ...]
    num_outputs: int

    def __init__(self, members: Iterable[tuple[Fraction, LocalBox]]) -> None:
        message = "ensemble members must be (weight, box) pairs"
        strategies, shape = [], None
        for entry in _listed(members, message):
            try:
                weight, box = entry
            except (TypeError, ValueError) as exc:
                raise ValidationError(message) from exc
            if not isinstance(box, LocalBox):
                raise ValidationError(f"ensemble member {_quoted(box)} is not a LocalBox")
            shape = shape or (box.num_inputs, box.num_outputs)
            if (box.num_inputs, box.num_outputs) != shape:
                raise ValidationError("ensemble members must share the same alphabet")
            strategies.append((weight, _strategy_of(box.table)))
        object.__setattr__(self, "strategies", strategies)
        # with no member any count will do: __post_init__ names the empty ensemble
        object.__setattr__(self, "num_outputs", shape[1] if shape else 1)
        self.__post_init__()

    @classmethod
    def from_strategies(
        cls, pairs: Iterable[tuple[Fraction, Strategy]], num_outputs: int
    ) -> "Ensemble":
        ensemble = cls.__new__(cls)
        object.__setattr__(ensemble, "strategies", pairs)
        object.__setattr__(ensemble, "num_outputs", num_outputs)
        ensemble.__post_init__()
        return ensemble

    def __post_init__(self) -> None:
        # the validation both constructors end in
        outputs = self.num_outputs
        if not _is_index(outputs) or outputs < 1:
            raise ValidationError(f"num_outputs {outputs!r} is not a positive int")
        if outputs > sys.maxsize:  # no list, so no mixture row, is that long
            raise ValidationError(f"num_outputs={_quoted(outputs)} is too many for a table")
        message = "ensemble members must be (weight, strategy) pairs"
        pairs = []
        for entry in _listed(self.strategies, message):
            try:
                weight, strategy = entry
                strategy = tuple(strategy)
            except (TypeError, ValueError) as exc:
                raise ValidationError(message) from exc
            for x, a in enumerate(strategy):
                _require_index(f"f[{x}]", a, outputs)
            if not strategy:
                raise ValidationError("a strategy needs at least one input")
            if pairs and len(strategy) != len(pairs[0][1]):
                raise ValidationError("ensemble members must share the same alphabet")
            pairs.append((as_prob(weight), strategy))
        if not pairs:
            raise ValidationError("ensemble needs at least one member")
        merged = _merge_weighted(pairs)
        _sums_to_one([w for w, _ in merged], "ensemble weights sum to")
        object.__setattr__(self, "strategies", tuple(merged))

    @functools.cached_property
    def members(self) -> tuple[tuple[Fraction, LocalBox], ...]:
        """(weight, box) pairs in the order of ``strategies``."""
        return tuple(
            (w, LocalBox(deterministic_table(strategy, self.num_outputs)))
            for w, strategy in self.strategies
        )

    @property
    def cardinality(self) -> int:
        return len(self.strategies)

    @property
    def num_inputs(self) -> int:
        return len(self.strategies[0][1])

    @functools.cached_property
    def _mixture(self) -> LocalBox:
        rows = [[Fraction(0)] * self.num_outputs for _ in range(self.num_inputs)]
        for weight, strategy in self.strategies:
            for row, a in zip(rows, strategy):
                row[a] += weight
        return LocalBox(tuple(tuple(row) for row in rows))


def mix(ensemble: Ensemble) -> LocalBox:
    """The box realized by the ensemble: each member adds its weight to
    one cell per input.  Computed once and kept on the ensemble."""
    return ensemble._mixture


# ---------------------------------------------------------------------------
# two-party ensembles over the one-bit scenario
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProductMember:
    """Weighted uncorrelated pair: Alice holds one S box, Bob another."""

    weight: Fraction
    alice: SBox
    bob: SBox

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_prob(self.weight))
        if not isinstance(self.alice, SBox) or not isinstance(self.bob, SBox):
            raise ValidationError("product member factors must be S boxes")

    @property
    def label(self) -> str:
        return f"{self.alice.label}x{self.bob.label}"

    @property
    def vertex(self) -> tuple[int, ...]:  # its rounds' key: Alice's bits, then Bob's
        return self.alice.alpha, self.alice.beta, self.bob.alpha, self.bob.beta


@dataclass(frozen=True)
class PRMember:
    """Weighted extremal nonlocal correlation."""

    weight: Fraction
    box: PRBox

    def __post_init__(self) -> None:
        object.__setattr__(self, "weight", as_prob(self.weight))
        if not isinstance(self.box, PRBox):
            raise ValidationError("PR member must wrap a PRBox")

    @property
    def label(self) -> str:
        return self.box.label

    @property
    def vertex(self) -> tuple[int, ...]:  # its rounds' key: (alpha, beta, delta)
        return self.box.alpha, self.box.beta, self.box.delta


Member = Union[ProductMember, PRMember]


@dataclass(frozen=True)
class NonlocalEnsemble:
    """Convex combination of product members and PR members.

    Members carry a stable position: products first, then PR members,
    each group in construction order after duplicate merging.
    """

    products: tuple[ProductMember, ...]
    prs: tuple[PRMember, ...]

    def __post_init__(self) -> None:
        products = _listed(
            self.products, "products must be ProductMember instances", ProductMember
        )
        prs = _listed(self.prs, "prs must be PRMember instances", PRMember)
        merged_products = _merge_weighted(
            (m.weight, (m.alice, m.bob)) for m in products
        )
        merged_prs = _merge_weighted((m.weight, m.box) for m in prs)
        weights = [w for w, _ in merged_products + merged_prs]
        _sums_to_one(weights, "member weights sum to")
        # each merged weight is a sum of checked weights, and their total is one
        object.__setattr__(self, "products", tuple(
            _built(ProductMember, weight=w, alice=alice, bob=bob)
            for w, (alice, bob) in merged_products
        ))
        object.__setattr__(self, "prs", tuple(
            _built(PRMember, weight=w, box=box) for w, box in merged_prs
        ))

    @classmethod
    def from_weights(
        cls,
        products: dict[tuple[tuple[int, int], tuple[int, int]], Fraction | int | str]
        | None = None,
        prs: dict[tuple[int, int, int], Fraction | int | str] | None = None,
    ) -> "NonlocalEnsemble":
        """Build from ``{((i,j),(k,l)): weight}`` and ``{(alpha,beta,delta): weight}``."""
        try:
            product_members = tuple(
                ProductMember(w, SBox(*ij), SBox(*kl))
                for (ij, kl), w in (products or {}).items()
            )
            pr_members = tuple(
                PRMember(w, PRBox(*abd)) for abd, w in (prs or {}).items()
            )
        except ValidationError:
            raise
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValidationError("from_weights takes {bits: weight} dicts") from exc
        return cls(product_members, pr_members)

    @property
    def members(self) -> tuple[Member, ...]:
        return self.products + self.prs

    def member(self, member_id: int) -> Member:
        members = self.members
        _require_index("member_id", member_id, len(members))
        return members[member_id]

    @functools.cached_property
    def _round_table(self) -> tuple[tuple[tuple[_Round, ...], ...], ...]:
        """``[member][index of (x, y) in PAIRS]``: its vertex's rounds on
        (x, y), shared by every ensemble over the vertex.  The sampler, the
        audit and the joints after Bob's input read it."""
        return tuple(_vertex_rounds(m.vertex) for m in self.members)

    @functools.cached_property
    def _joints(self) -> tuple[tuple[_Entry, ...], tuple[_Entry, ...]]:
        """Per y, the joint law of Bob's outcome and Alice's constituent
        once Bob has chosen y: per member, in member order, one entry
        (w_m / n, b, drew, constituent) for each of its n rounds at (0, y),
        in b order; ``drew`` is n = 2, a PR member drawing b.  Alice's
        input never reaches Bob, so the rows at x = 1 give the same."""
        return tuple(
            tuple(
                (m.weight / len(rows[y]), b, len(rows[y]) == 2, constituent)
                for m, rows in zip(self.members, self._round_table)  # (0, y) is pair y
                for *_, b, constituent in sorted(rows[y], key=lambda round_: round_[3])
            )
            for y in (0, 1)
        )


@functools.cache
def _vertex_rounds(vertex: tuple[int, ...]) -> tuple[tuple[_Round, ...], ...]:
    """Per (x, y) of PAIRS, the equally likely rounds (x, y, a, b, c) of the
    vertex with bits ``vertex`` (ints, quick to hash), c the ``SBOXES`` S box
    Alice holds once Bob has seen b on y: a product's one outcome and Alice's
    factor; a PR box's ``cells`` in order, c giving on each x the a paired with b."""
    if len(vertex) == 3:
        pr = PRBox(*vertex)
        def after(y: int, b: int) -> SBox:
            f0, f1 = (b ^ pr.parity(x, y) for x in (0, 1))
            return SBOXES[2 * (f0 ^ f1) + f0]  # outputs f0 on x = 0, f1 on 1
        return tuple(tuple((x, y, a, b, after(y, b)) for a, b in pr.cells(x, y))
                     for x, y in PAIRS)
    alice, bob = SBox(*vertex[:2]), SBox(*vertex[2:])
    return tuple(((x, y, alice.output(x), bob.output(y), SBOXES[alice.index]),)
                 for x, y in PAIRS)


@functools.cache
def _vertex_spread(vertex: tuple[int, ...]) -> tuple[tuple[int, int], ...]:
    """(8x + 4y + 2a + b, 2 / n) per round of the vertex's n on (x, y), read
    off its rounds once per vertex, so that no loop checks an index."""
    return tuple((8 * x + 4 * y + 2 * a + b, 2 // len(rounds))
                 for rounds in _vertex_rounds(vertex) for x, y, a, b, _ in rounds)


def mix_nonlocal(ensemble: NonlocalEnsemble) -> BipartiteBox:
    """The two-party box realized by the ensemble.

    Built from the vertex formula: on every input pair (x, y) each
    member spreads its weight evenly over its vertex's rounds, one for a
    product and two for a PR member.  The sums are the box's numerators,
    valid by construction, so no table is checked.
    """
    weights = [m.weight for m in ensemble.members]
    lcm = math.lcm(*[w.denominator for w in weights])
    # over D = 2 lcm, a PR member puts one share on each of its cells, a product two
    acc = [0] * 16
    for m, w in zip(ensemble.members, weights):
        share = w.numerator * (lcm // w.denominator)
        for cell, times in _vertex_spread(m.vertex):
            acc[cell] += times * share
    return BipartiteBox._of_numerators(2 * lcm, acc, (2, 2, 2, 2))


def constituent_after_measurement(member: Member, y: int, b: int) -> SBox:
    """Alice's definite S box once Bob has measured ``y`` and seen ``b``:
    that of the member's round on (0, y) giving b.  A product's one round
    may give the other b; its constituent, Alice's factor, is the answer."""
    _require_index("y", y, 2)
    _require_index("b", b, 2)
    rounds = _vertex_rounds(member.vertex)[y]  # (0, y) is pair y
    return next((c for *_, seen, c in rounds if seen == b), rounds[0][4])


def _reduction(entries: Iterable[_Entry]) -> dict[SBox, Fraction]:
    """The shares of joint entries summed per constituent, in
    first-occurrence order; shares are positive, so no sum is zero."""
    totals: dict[SBox, Fraction] = {}
    for w, _, _, c in entries:
        totals[c] = totals[c] + w if c in totals else w
    return totals


def posterior_alice_reduction(
    ensemble: NonlocalEnsemble, y: int
) -> dict[SBox, Fraction]:
    """Alice's ensemble after Bob's input ``y``, as S-box weights: the
    joint after that input summed over Bob's outcome."""
    return _reduction(ensemble._joints[_require_index("y", y, 2)])

"""Exact single-party and two-party boxes.

A box is an input/output device described by a conditional outcome
distribution.  A :class:`LocalBox` holds a table ``p(a|x)`` for one party;
a :class:`BipartiteBox` holds ``p(ab|xy)`` for two parties (Alice gets
``x`` and outputs ``a``, Bob gets ``y`` and outputs ``b``).

Every probability in a table is an exact :class:`fractions.Fraction`.
Construction validates nonnegativity and normalization exactly, and all
comparisons in this module are exact equalities; floats are rejected at
the door so that no rounding can leak into a derivation.  The sums run
on integers: a row sums to one iff its numerators over the lcm of its
denominators sum to that lcm.  A :class:`BipartiteBox` is integers over
one denominator D: its state, which equality and hashing compare and the
no-signalling scan and the marginals add, building a ``Fraction`` only
to print one.  A box computed from valid data (a remix) skips the checks.
Every exact value a message or a witness prints, here or in any module,
goes through :func:`_shown`, so none is longer than 60 bytes.

Special families used throughout the package:

* deterministic boxes ``a = f(x)``, kept as the strategy tuple
  ``(f(0), f(1), ...)``; :func:`deterministic_table` writes out their
  0/1 table,
* the four reversible single-bit strategies ``a = alpha*x XOR beta``
  (:class:`SBox`),
* the eight extremal nonlocal correlations with
  ``a XOR b = (x XOR alpha)(y XOR beta) XOR delta`` (:class:`PRBox`),
  uniform on the two outcomes :meth:`PRBox.cells` names per input pair.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, TypeVar

from .errors import SignallingError, ValidationError

_T = TypeVar("_T")


def as_prob(value: Fraction | int | str) -> Fraction:
    """Coerce ``value`` to an exact probability in [0, 1].

    Accepts Fractions, ints and strings such as ``"3/8"``; floats are
    rejected because they would contaminate exact arithmetic, and bools
    because they are not numbers (the rule of :func:`_is_index`).
    """
    if isinstance(value, float):
        raise ValidationError(
            f"probabilities must be exact rationals, got float {value!r}"
        )
    if isinstance(value, Fraction):
        frac = value
    elif isinstance(value, str) or _is_index(value):
        try:
            frac = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise ValidationError(f"not a rational literal: {_quoted(value)}") from exc
    else:
        raise ValidationError(f"cannot interpret {_quoted(value)} as a probability")
    if not 0 <= frac.numerator <= frac.denominator:
        raise ValidationError(f"probability {_shown(frac)} outside [0, 1]")
    return frac


def _shown(value: object) -> str:
    """An exact value for a message or a witness: ``str(value)``, such as
    ``1/4``, clipped to its ends past 60 bytes; past the int-string limit,
    where ``str`` raises, ``(too long to print)``."""
    try:
        return _clipped(str(value), 60)
    except ValueError:
        return "(too long to print)"


def _sums_to_one(probs: tuple[Fraction, ...] | list[Fraction], what: str) -> None:
    """Exact normalization on integers: the numerators over the lcm of the
    denominators must sum to that lcm; if not, ``what`` names the total."""
    den = math.lcm(*(p.denominator for p in probs))
    if sum(p.numerator * (den // p.denominator) for p in probs) != den:
        raise ValidationError(f"{what} {_shown(sum(probs, Fraction(0)))}, expected 1")


def _clipped(text: str, width: int = 40) -> str:
    """``text`` for a message: past ``width`` bytes as stderr writes them,
    its ends only, of at most ``width - 20`` and 10 bytes."""
    if len(text) <= width and _size(text) <= width:
        return text
    head, tail = text[:width - 20], text[-10:]
    while _size(head) > width - 20:
        head = head[:-1]
    while _size(tail) > 10:
        tail = tail[1:]
    return head + "..." + tail


def _size(text: str) -> int:
    """Bytes on stderr: UTF-8, a lone surrogate as its 6-byte ``\\udcXX`` escape."""
    return len(text.encode("utf-8", "backslashreplace"))


def _quoted(value: object) -> str:
    """``repr(value)`` clipped; an int too long for a repr, by its size,
    and a value holding one, by its type."""
    try:
        return _clipped(repr(value))
    except ValueError:
        if isinstance(value, int):
            return f"<{value.bit_length()}-bit int>"
        return f"<{type(value).__name__}>"


def _built(cls: type[_T], **state: object) -> _T:
    """A ``cls`` holding ``state`` as given, for data valid by
    construction: no ``__init__`` or ``__post_init__`` runs, so nothing
    is checked twice.  The public constructors keep every check."""
    obj = object.__new__(cls)
    vars(obj).update(state)
    return obj


def _grouped(flat: Sequence[int], shape: tuple) -> tuple:
    """``flat``, in (x, y, a, b) order, as ``[x][y][a][b]`` tuples of a
    ``shape`` of positive sizes: zip over one iterator k times groups by k."""
    _, y_dim, a_dim, b_dim = shape
    rows = zip(*[iter(flat)] * b_dim)
    return tuple(zip(*[zip(*[rows] * a_dim)] * y_dim))


def _is_index(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_index(name: str, value: object, size: int) -> int:
    """``value`` if it is an index into ``range(size)``: an ``int``, never a
    ``bool`` or a float.  A bit is an index with ``size`` 2."""
    if _is_index(value) and 0 <= value < size:
        return value
    raise ValidationError(f"{name}={_quoted(value)} outside range(0, {size})")


def _require_natural(name: str, value: object) -> int:
    """``value`` if it is a nonnegative ``int``, never a ``bool``."""
    if _is_index(value) and value >= 0:
        return value
    raise ValidationError(f"{name} must be a nonnegative integer, got {_quoted(value)}")


@dataclass(frozen=True)
class LocalBox:
    """Single-party box: ``table[x][a]`` is the exact probability p(a|x)."""

    table: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self) -> None:
        try:
            rows = tuple(tuple(as_prob(p) for p in row) for row in self.table)
        except TypeError as exc:
            raise ValidationError("local box table must be nested sequences") from exc
        if not rows or any(not row for row in rows):
            raise ValidationError("local box table must be non-empty")
        width = len(rows[0])
        if any(len(row) != width for row in rows):
            raise ValidationError("every input row must list the same outcomes")
        for x, row in enumerate(rows):
            _sums_to_one(row, f"row x={x} sums to")
        object.__setattr__(self, "table", rows)

    @property
    def num_inputs(self) -> int:
        return len(self.table)

    @property
    def num_outputs(self) -> int:
        return len(self.table[0])

    def prob(self, x: int, a: int) -> Fraction:
        return self.table[x][a]


def deterministic_table(
    strategy: tuple[int, ...], num_outputs: int
) -> tuple[tuple[Fraction, ...], ...]:
    """The 0/1 table ``p(a|x) = [a = strategy[x]]``."""
    return tuple(
        tuple(Fraction(1 if a == fx else 0) for a in range(num_outputs))
        for fx in strategy
    )


@dataclass(frozen=True)
class SBox:
    """Reversible single-bit strategy ``a = alpha*x XOR beta``.

    The four instances are the deterministic vertices of the one-bit
    local square; ``beta`` is the output at x=0 and ``alpha`` is the
    slope that decides whether the input is echoed into the output.
    ``label`` names it, as "S01" for alpha 0 and beta 1.
    """

    alpha: int
    beta: int

    def __post_init__(self) -> None:
        _require_index("alpha", self.alpha, 2)
        _require_index("beta", self.beta, 2)
        # set once, as every log line writes the label and every log cell
        # hashes its S boxes; the hash is the dataclass's
        object.__setattr__(self, "label", f"S{self.alpha}{self.beta}")
        object.__setattr__(self, "_hash", hash((self.alpha, self.beta)))

    def __hash__(self) -> int:
        return self._hash

    def output(self, x: int) -> int:
        return (self.alpha * _require_index("x", x, 2)) ^ self.beta

    @property
    def index(self) -> int:
        """Canonical position 2*alpha + beta in the S-box family."""
        return 2 * self.alpha + self.beta

    def as_local_box(self) -> LocalBox:
        return LocalBox(deterministic_table((self.output(0), self.output(1)), 2))


SBOXES = tuple(SBox(i >> 1, i & 1) for i in range(4))  # S00, S01, S10, S11: by index


@dataclass(frozen=True, init=False, repr=False)
class BipartiteBox:
    """Two-party box p(ab|xy), held as integers over one denominator.

    ``den`` is D, the lcm of the entries' reduced denominators, and
    ``numerators[x][y][a][b]`` is D p(ab|xy).  The form is canonical, so
    equality and hashing compare those integers.  ``table[x][y][a][b]``
    is the same box as exact ``Fraction`` entries, a read-only view.

    ``BipartiteBox(table)`` enforces nonnegative entries and exact
    normalization for every input pair; it does *not* enforce
    no-signalling, which is a separate predicate (:func:`is_no_signalling`).
    """

    den: int
    numerators: tuple[tuple[tuple[tuple[int, ...], ...], ...], ...]

    def __init__(self, table: Sequence) -> None:
        # one pass: each entry coerced once, its numerator and denominator read once
        cells, ns, ds = [], [], []
        try:
            for by in table:
                block_y = []
                for ba in by:
                    block_a = []
                    for r in ba:
                        row = []
                        for p in r:
                            if type(p) is not Fraction:
                                p = as_prob(p)
                            n, d = p.numerator, p.denominator
                            if not 0 <= n <= d:
                                as_prob(p)  # raises, with as_prob's message
                            row.append(p)
                            ns.append(n)
                            ds.append(d)
                        block_a.append(tuple(row))
                    block_y.append(tuple(block_a))
                cells.append(tuple(block_y))
        except TypeError as exc:
            raise ValidationError("bipartite table must be nested sequences") from exc
        if not cells or any(not y_block for y_block in cells):
            raise ValidationError("bipartite table must be non-empty")
        den = math.lcm(*ds)
        flat = [n * (den // d) for n, d in zip(ns, ds)]
        y_dim, a_dim = len(cells[0]), len(cells[0][0])
        b_dim = len(cells[0][0][0]) if a_dim else 0
        size = a_dim * b_dim
        for x, block_y in enumerate(cells):
            if len(block_y) != y_dim:
                raise ValidationError("ragged table: y dimension varies with x")
            for y, block_a in enumerate(block_y):
                if len(block_a) != a_dim or any(len(r) != b_dim for r in block_a):
                    raise ValidationError("ragged table: outcome dimensions vary")
                start = (x * y_dim + y) * size  # the blocks before it passed
                if sum(flat[start:start + size]) != den:  # raises, naming the total
                    _sums_to_one(sum(block_a, ()), f"entries for (x={x}, y={y}) sum to")
        object.__setattr__(self, "den", den)
        object.__setattr__(self, "numerators", _grouped(flat, (len(cells), y_dim, a_dim, b_dim)))
        # the validated Fractions are the view, so it is never rebuilt
        object.__setattr__(self, "table", tuple(cells))

    @classmethod
    def _of_numerators(cls, den: int, flat: Sequence[int], shape: tuple) -> BipartiteBox:
        """The box of ``shape`` with numerators ``flat`` over ``den``, valid
        already (nonnegative, each (x, y) block summing to ``den``), in
        lowest terms: both are divided by their gcd.  Nothing is checked."""
        g = math.gcd(den, *flat)
        return _built(cls, den=den // g, numerators=_grouped([n // g for n in flat], shape))

    @functools.cached_property
    def table(self) -> tuple[tuple[tuple[tuple[Fraction, ...], ...], ...], ...]:
        """p(ab|xy) as exact ``Fraction`` entries, read off the numerators on first use."""
        den = self.den
        return tuple(tuple(tuple(tuple(Fraction(n, den) for n in r) for r in ba)
                           for ba in by) for by in self.numerators)

    def __repr__(self) -> str:
        return f"BipartiteBox(table={self.table!r})"

    @property
    def num_inputs_alice(self) -> int:
        return len(self.numerators)

    @property
    def num_inputs_bob(self) -> int:
        return len(self.numerators[0])

    @property
    def num_outputs_alice(self) -> int:
        return len(self.numerators[0][0])

    @property
    def num_outputs_bob(self) -> int:
        return len(self.numerators[0][0][0])

    @property
    def shape(self) -> tuple[int, int, int, int]:
        t = self.numerators
        return len(t), len(t[0]), len(t[0][0]), len(t[0][0][0])

    def prob(self, x: int, y: int, a: int, b: int) -> Fraction:
        return self.table[x][y][a][b]

    # the scan is kept on the instance: each marginal re-asks for it
    @functools.cached_property
    def _no_signalling_problems(self) -> tuple[str, ...]:
        return _no_signalling_scan(self)

    # kept too, for a one-bit box: decompose and is_local both ask for it
    @functools.cached_property
    def _strongest_chsh(self) -> tuple[int, int, int]:
        """(C_pq, p, q) for the CHSH form of largest |C_pq| (first in (p, q)
        order on ties), C_pq as a numerator over D, of a one-bit box."""
        # E_xy by 2x + y; the sign flips only at (x, y) = (1-p, 1-q)
        e = [t[0][0] + t[1][1] - t[0][1] - t[1][0] for by in self.numerators for t in by]
        forms = [(sum(e) - 2 * e[3 - 2 * p - q], p, q) for p in (0, 1) for q in (0, 1)]
        return max(forms, key=lambda form: abs(form[0]))


@dataclass(frozen=True)
class PRBox:
    """Extremal nonlocal correlation with uniform marginals.

    Outputs satisfy ``a XOR b = (x XOR alpha)(y XOR beta) XOR delta``
    with probability one, each consistent pair occurring with
    probability 1/2.  ``alpha`` and ``beta`` shift which input pair
    carries the anticorrelation, ``delta`` flips the output parity.
    """

    alpha: int
    beta: int
    delta: int

    def __post_init__(self) -> None:
        _require_index("alpha", self.alpha, 2)
        _require_index("beta", self.beta, 2)
        _require_index("delta", self.delta, 2)

    @property
    def label(self) -> str:
        return f"PR{self.alpha}{self.beta}{self.delta}"

    def parity(self, x: int, y: int) -> int:
        """The forced value of a XOR b on inputs (x, y)."""
        return (
            (_require_index("x", x, 2) ^ self.alpha)
            & (_require_index("y", y, 2) ^ self.beta)
        ) ^ self.delta

    def cells(self, x: int, y: int) -> tuple[tuple[int, int], ...]:
        """The two outcomes (a, b) with ``a XOR b`` = parity, equally likely."""
        p = self.parity(x, y)
        return (0, p), (1, 1 ^ p)


# ---------------------------------------------------------------------------
# marginals and the no-signalling scan
# ---------------------------------------------------------------------------


def _marginals(name: str, sums: Sequence[int], den: int) -> str:
    """``name=k: p`` per input k, for marginals ``sums`` over ``den``."""
    return ", ".join(f"{name}={k}: {_shown(Fraction(s, den))}" for k, s in enumerate(sums))


def _no_signalling_scan(box: BipartiteBox) -> tuple[str, ...]:
    """Per party and input, its marginal vectors, one per input of the
    other party, compared whole; only where they differ are outcomes named."""
    den, t = box.den, box.numerators
    # [x][y]: Alice's row sums by a; [y][x]: Bob's column sums by b
    alice = [[tuple(map(sum, block)) for block in by] for by in t]
    bob = zip(*[[tuple(map(sum, zip(*block))) for block in by] for by in t])
    problems: list[str] = []
    for (party, out, inp, other, other_inp), marginals in (
        (("Alice", "a", "x", "Bob", "y"), alice), (("Bob", "b", "y", "Alice", "x"), bob)
    ):
        for k, vectors in enumerate(marginals):
            if any(v != vectors[0] for v in vectors):
                for c, sums in enumerate(zip(*vectors)):
                    if any(s != sums[0] for s in sums):
                        problems.append(
                            f"{party} marginal p({out}={c}|{inp}={k}) depends on "
                            f"{other}'s input: " + _marginals(other_inp, sums, den)
                        )
    return tuple(problems)


def no_signalling_violations(box: BipartiteBox) -> list[str]:
    """Human-readable list of marginal-dependence violations (empty iff
    the box is no-signalling)."""
    return list(box._no_signalling_problems)


def is_no_signalling(box: BipartiteBox) -> bool:
    """True iff each party's marginal is independent of the other's input."""
    return not no_signalling_violations(box)


def _require_no_signalling(box: BipartiteBox, op: str) -> None:
    problems = no_signalling_violations(box)
    if problems:
        raise SignallingError(f"{op} needs a no-signalling box: " + "; ".join(problems))


def alice_marginal(box: BipartiteBox) -> LocalBox:
    """Alice's reduced box p(a|x).

    By no-signalling the sum over Bob's outcomes is the same for every
    y; we read it off at y=0.
    """
    _require_no_signalling(box, "alice_marginal")
    den, t = box.den, box.numerators
    return LocalBox([[Fraction(sum(row), den) for row in block[0]] for block in t])


def bob_outcome_distribution(box: BipartiteBox, y: int) -> tuple[Fraction, ...]:
    """Bob's outcome distribution p(b|y); x-independent by no-signalling
    (read off at x=0)."""
    _require_no_signalling(box, "bob_outcome_distribution")
    _require_index("y", y, box.num_inputs_bob)
    den, t = box.den, box.numerators
    return tuple(Fraction(sum(column), den) for column in zip(*t[0][y]))

"""Remote ensemble preparation from interchangeable decompositions.

If several ensembles realize the same single-party box, there is a
two-party no-signalling box that lets Bob choose *which* of them Alice's
lab is decomposed into: give Bob one input per ensemble, one outcome per
constituent, and set

    p(ab|xy) = w_{y,b} * [a = f_{y,b}(x)],

where ``(w_{y,b}, f_{y,b})`` is member b of ensemble y as a weight and a
strategy.  Alice's marginal is then the common mixture whatever Bob does
(so no signal is sent), while conditioning on Bob's outcome hands Alice
the matching constituent with the right probability.  Bob's outcome
tells him exactly which constituent Alice holds.

:func:`construct_steering_state` writes that table from the strategies,
and :func:`verify_steering_state` runs the three proof obligations
behind it, one ``check_*`` function each.  The conditioning check
compares the box with the formula entry by entry, so it needs no
no-signalling precondition and builds no conditional box.  A witness
prints tables as rows such as ``((1/2, 1/2), (1, 0))``, clipped.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boxes import (
    BipartiteBox,
    _clipped,
    _shown,
    bob_outcome_distribution,
    deterministic_table,
    no_signalling_violations,
)
from .ensembles import Ensemble, _strategy_of, mix
from .errors import IncompatibleEnsemblesError, ValidationError
from .reports import CheckResult, VerificationReport


@dataclass(frozen=True)
class SteeringState:
    """A two-party box together with the ensembles it was built from.

    Bob input y selects ``source_ensembles[y]``; Bob outcome b selects
    constituent b of that ensemble (outcomes past the ensemble's
    cardinality are zero-weight padding).
    """

    box: BipartiteBox
    source_ensembles: tuple[Ensemble, ...]

    def __post_init__(self) -> None:
        ensembles = tuple(self.source_ensembles)
        if len(ensembles) != self.box.num_inputs_bob:
            raise ValidationError(
                "box must offer one Bob input per source ensemble"
            )
        if self.box.num_outputs_bob < max(e.cardinality for e in ensembles):
            raise ValidationError(
                "box must offer one Bob outcome per constituent"
            )
        object.__setattr__(self, "source_ensembles", ensembles)


def construct_steering_state(ensembles: Sequence[Ensemble]) -> SteeringState:
    """Build the remote-preparation box for two or more ensembles that
    realize the same single-party box.

    Ensembles of unequal cardinality are padded with zero-weight
    outcomes whose table entries are all zero.
    """
    ensembles = tuple(ensembles)
    if len(ensembles) < 2:
        raise ValidationError(
            f"need at least two ensembles to steer between, got {len(ensembles)}"
        )
    shape = (ensembles[0].num_inputs, ensembles[0].num_outputs)
    for e in ensembles:
        if (e.num_inputs, e.num_outputs) != shape:
            raise ValidationError("ensembles must share the same alphabet")
    mixture = check_common_mixture(ensembles)
    if not mixture.passed:
        raise IncompatibleEnsemblesError(
            f"{mixture.witness}; remote preparation needs a common box"
        )
    X, A = shape
    B = max(e.cardinality for e in ensembles)
    zero = Fraction(0)
    table = [[[[zero] * B for _ in range(A)] for _ in ensembles] for _ in range(X)]
    for y, ensemble in enumerate(ensembles):
        for b, (weight, strategy) in enumerate(ensemble.strategies):
            for x, a in enumerate(strategy):
                table[x][y][a][b] = weight
    return SteeringState(box=BipartiteBox(table), source_ensembles=ensembles)


def steered_ensemble(state: SteeringState, y: int) -> Ensemble:
    """Recover ensemble y from the box alone: each of Bob's
    positive-probability outcomes b names the strategy whose cells carry
    all of p(b|y)."""
    box = state.box
    pairs = []
    for b, weight in enumerate(bob_outcome_distribution(box, y)):
        if weight > 0:
            cells = [[row[b] for row in block[y]] for block in box.table]
            pairs.append((weight, _strategy_of(cells, weight)))
    return Ensemble.from_strategies(pairs, box.num_outputs_alice)


# ---------------------------------------------------------------------------
# proof obligations
# ---------------------------------------------------------------------------


def _shown_rows(table: Sequence[Sequence[Fraction]]) -> str:
    """Rows p(a|x) for a message, as ``((1/2, 1/2), ...)``, each entry as
    :func:`boxes._shown` prints it, the whole clipped past 40 bytes."""
    text = ", ".join("(" + ", ".join(map(_shown, row)) + ")" for row in table)
    return _clipped(f"({text})")


def check_common_mixture(ensembles: Sequence[Ensemble]) -> CheckResult:
    """All ensembles mix to one and the same box."""
    ensembles = tuple(ensembles)
    common = mix(ensembles[0])
    for position, e in enumerate(ensembles[1:], start=1):
        other = mix(e)
        if other != common:
            return CheckResult(
                "mixture_consistency",
                False,
                f"ensemble {position} mixes to {_shown_rows(other.table)}, "
                f"expected {_shown_rows(common.table)}",
            )
    return CheckResult("mixture_consistency", True)


def check_no_signalling_box(box: BipartiteBox) -> CheckResult:
    problems = no_signalling_violations(box)
    if problems:
        return CheckResult("no_signalling", False, "; ".join(problems[:3]))
    return CheckResult("no_signalling", True)


def check_conditioning(state: SteeringState) -> CheckResult:
    """Bob's outcome distribution (read at x=0) matches the ensemble
    weights, and at each positive-weight outcome the box equals
    ``w * [a = f(x)]`` entry by entry."""
    box = state.box
    X, _, A, B = box.shape
    for y, ensemble in enumerate(state.source_ensembles):
        for b in range(B):
            observed = sum(box.table[0][y][a][b] for a in range(A))
            weight, strategy = (
                ensemble.strategies[b] if b < ensemble.cardinality else (Fraction(0), ())
            )
            if observed != weight:
                return CheckResult(
                    "conditioning",
                    False,
                    f"p(b={b}|y={y}) = {_shown(observed)}, expected weight {_shown(weight)}",
                )
            if weight > 0 and not (
                (ensemble.num_inputs, ensemble.num_outputs) == (X, A)
                and all(
                    box.table[x][y][a][b] == (weight if a == fx else 0)
                    for x, fx in enumerate(strategy)
                    for a in range(A)
                )
            ):
                conditional = tuple(
                    tuple(box.table[x][y][a][b] / observed for a in range(A))
                    for x in range(X)
                )
                constituent = deterministic_table(strategy, ensemble.num_outputs)
                return CheckResult(
                    "conditioning",
                    False,
                    f"conditional at (y={y}, b={b}) is {_shown_rows(conditional)}, "
                    f"expected constituent {_shown_rows(constituent)}",
                )
    return CheckResult("conditioning", True)


def verify_steering_state(state: SteeringState) -> VerificationReport:
    """Run all three proof obligations against a steering state.  The
    box's entries need no check of their own: :class:`BipartiteBox`
    validates them on construction."""
    return VerificationReport(
        checks=(
            check_common_mixture(state.source_ensembles),
            check_no_signalling_box(state.box),
            check_conditioning(state),
        )
    )

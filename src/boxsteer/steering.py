"""Remote ensemble preparation from interchangeable decompositions.

If several ensembles realize the same single-party box, there is a
two-party no-signalling box that lets Bob choose *which* of them Alice's
lab is decomposed into: give Bob one input per ensemble, one outcome per
constituent, and set

    p(ab|xy) = (weight of constituent b in ensemble y) * p_b^y(a|x).

Alice's marginal is then the common mixture whatever Bob does (so no
signal is sent), while conditioning on Bob's outcome hands Alice the
matching constituent with the right probability.  Bob's outcome tells
him exactly which constituent Alice holds.

:func:`construct_steering_state` builds that box; the four proof
obligations behind it are exposed as independently callable checks and
bundled by :func:`verify_steering_state`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

from .boxes import (
    BipartiteBox,
    LocalBox,
    bob_outcome_distribution,
    condition_on_bob,
    no_signalling_violations,
)
from .ensembles import Ensemble, ensembles_equal, mix
from .errors import (
    IncompatibleEnsemblesError,
    ValidationError,
    ZeroProbabilityError,
)
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
    Y = len(ensembles)
    B = max(e.cardinality for e in ensembles)
    zero = Fraction(0)
    table = tuple(
        tuple(
            tuple(
                tuple(
                    ensembles[y].members[b][0] * ensembles[y].members[b][1].prob(x, a)
                    if b < ensembles[y].cardinality
                    else zero
                    for b in range(B)
                )
                for a in range(A)
            )
            for y in range(Y)
        )
        for x in range(X)
    )
    return SteeringState(box=BipartiteBox(table), source_ensembles=ensembles)


def steered_ensemble(state: SteeringState, y: int) -> Ensemble:
    """Recover ensemble y from the box alone, by conditioning on each of
    Bob's positive-probability outcomes."""
    weights = bob_outcome_distribution(state.box, y)
    members = [
        (weights[b], condition_on_bob(state.box, y, b))
        for b in range(len(weights))
        if weights[b] > 0
    ]
    return Ensemble(tuple(members))


def bob_identifies_constituent(
    state: SteeringState, y: int, b: int
) -> tuple[int, LocalBox]:
    """The constituent Bob knows Alice holds after his input y gave outcome b."""
    if not 0 <= y < len(state.source_ensembles):
        raise ValidationError(f"y={y} outside range(0, {len(state.source_ensembles)})")
    if not 0 <= b < state.box.num_outputs_bob:
        raise ValidationError(
            f"b={b} outside range(0, {state.box.num_outputs_bob})"
        )
    ensemble = state.source_ensembles[y]
    if b >= ensemble.cardinality or ensemble.members[b][0] == 0:
        raise ZeroProbabilityError(
            f"outcome b={b} has zero weight under ensemble y={y}"
        )
    return b, ensemble.members[b][1]


# ---------------------------------------------------------------------------
# proof obligations, independently callable
# ---------------------------------------------------------------------------


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
                f"ensemble {position} mixes to {other.table}, expected {common.table}",
            )
    return CheckResult("mixture_consistency", True)


def check_probability_table(box: BipartiteBox) -> CheckResult:
    """Entries nonnegative, every input pair exactly normalized."""
    for x, block_y in enumerate(box.table):
        for y, block_a in enumerate(block_y):
            total = Fraction(0)
            for a, row in enumerate(block_a):
                for b, p in enumerate(row):
                    if p < 0:
                        return CheckResult(
                            "probability_table",
                            False,
                            f"negative entry at (x={x}, y={y}, a={a}, b={b}): {p}",
                        )
                    total += p
            if total != 1:
                return CheckResult(
                    "probability_table",
                    False,
                    f"entries for (x={x}, y={y}) sum to {total}",
                )
    return CheckResult("probability_table", True)


def check_no_signalling_box(box: BipartiteBox) -> CheckResult:
    problems = no_signalling_violations(box)
    if problems:
        return CheckResult("no_signalling", False, "; ".join(problems[:3]))
    return CheckResult("no_signalling", True)


def check_conditioning(state: SteeringState) -> CheckResult:
    """Bob's outcome distribution matches the ensemble weights, and each
    positive-probability conditional equals the matching constituent."""
    for y, ensemble in enumerate(state.source_ensembles):
        observed = bob_outcome_distribution(state.box, y)
        for b in range(state.box.num_outputs_bob):
            expected = (
                ensemble.members[b][0] if b < ensemble.cardinality else Fraction(0)
            )
            if observed[b] != expected:
                return CheckResult(
                    "conditioning",
                    False,
                    f"p(b={b}|y={y}) = {observed[b]}, expected weight {expected}",
                )
            if expected > 0:
                conditional = condition_on_bob(state.box, y, b)
                if conditional != ensemble.members[b][1]:
                    return CheckResult(
                        "conditioning",
                        False,
                        f"conditional at (y={y}, b={b}) is {conditional.table}, "
                        f"expected constituent {ensemble.members[b][1].table}",
                    )
    return CheckResult("conditioning", True)


def verify_steering_state(state: SteeringState) -> VerificationReport:
    """Run all four proof obligations against a steering state."""
    return VerificationReport(
        checks=(
            check_common_mixture(state.source_ensembles),
            check_probability_table(state.box),
            check_no_signalling_box(state.box),
            check_conditioning(state),
        )
    )


def round_trips(state: SteeringState) -> bool:
    """True iff conditioning recovers every source ensemble exactly."""
    return all(
        ensembles_equal(steered_ensemble(state, y), ensemble)
        for y, ensemble in enumerate(state.source_ensembles)
    )

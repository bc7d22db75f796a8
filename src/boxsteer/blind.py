"""Blind remote preparation of one-bit ensembles.

Setting: a Referee hands Alice and Bob one half each of a two-party
no-signalling box, announcing only Alice's reduced state, described by
the pair

    s = p(a=0|x=0),    t = p(a=0|x=1),

a point of the unit square whose corners are the four S boxes.  Bob's
input decides which of two fixed decompositions of that state Alice
ends up holding.  Alice sees only her marginal.  Bob's outcome leaves at
least two candidates in :func:`bob_posterior`'s model, where he does not
know how the aggregates split over members, but in the default plan's
ensemble every Bob factor is S00, so b = 1 comes only from a PR round
and can name Alice's constituent.  Only the Referee, who knows the
member drawn in each round, can always tell.

The square's two diagonals cut it into four triangles.  Everything is
solved in the canonical *left* triangle ``t >= s, s + t < 1``; the two
reversible relabelings of Alice's wire (flip the output: (s,t) ->
(1-s,1-t); flip the input: swap s and t) map every off-diagonal point
into it and back.  Points on the anti-diagonal ``s + t = 1`` stay on it
under both relabelings, so no construction exists there.

In the canonical triangle the two decompositions are read off the
figure directly ("upper" pairs the target with the constant boxes' edge,
"lower" with the input-echo edge):

    upper:  s * S00 + (1-t) * S01 + (t-s) * S11      (Bob input 0)
    lower:  (1-s-t) * S01 + s * S10 + t * S11        (Bob input 1)

Matching the Bob-input-0 reduction of a product-plus-PR ensemble to the
upper triangle and its Bob-input-1 reduction to the lower one leaves a
single free aggregate, the weight of products whose Alice factor is
S00.  Positivity forces it to zero, and with it the S10 products and
the whole ``beta = 1`` PR sector.  What is left is unique:

    PR (beta=0) total = 2s,   S01 products = 1-s-t,   S11 products = t-s.

:func:`plan_blind_steering` builds these as PR000, S01xS00 and S11xS00
and relabels them into the target's coordinates.  How the aggregates
split over individual members is free: the reductions depend on the
aggregates alone, so every split with these aggregates gives the same
ones, which is what keeps Bob blind.  A caller's split is therefore
accepted iff it verifies; the tests check with an exact simplex that
no other aggregates give both triangles, on the boundary too.

Verification reads the joint law after each of Bob's inputs (per
member and outcome b, the share w / n and Alice's constituent), built
once per ensemble, without mixing a two-party box: the reduction is the
joint summed over b;
Alice's marginal is p(a|x) = sum of w * [S(x) = a] over its S-box
weights; Bob sees b iff some entry gives b; and his posterior after b
holds the entries of members that drew b and every product entry.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .boxes import SBOXES, PRBox, SBox, _clipped, _require_index, _shown, as_prob
from .ensembles import (
    NonlocalEnsemble,
    PRMember,
    ProductMember,
    _Entry,
    _reduction,
)
from .errors import (
    DegenerateRegionWarning,
    RegionError,
    ValidationError,
    ZeroProbabilityError,
)
from .reports import CheckResult, VerificationReport

_S00, _S01, _S10, _S11 = SBOXES
_PR000 = PRBox(0, 0, 0)


@dataclass(frozen=True)
class TargetState:
    """Alice's announced reduced state: s = p(0|x=0), t = p(0|x=1)."""

    s: Fraction
    t: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", as_prob(self.s))
        object.__setattr__(self, "t", as_prob(self.t))

    @property
    def in_canonical_region(self) -> bool:
        return self.t >= self.s and self.s + self.t < 1

    @property
    def on_boundary(self) -> bool:
        """In the canonical region but on one of its degenerate edges."""
        return self.in_canonical_region and (self.t == self.s or self.s == 0)


@dataclass(frozen=True)
class Relabeling:
    """Reversible rewiring of Alice's side; each flag is an involution.

    ``flip_outputs`` complements a, mapping (s,t) to (1-s,1-t);
    ``flip_inputs`` complements x, swapping s and t.  Bob's wires are
    untouched, so relabeling commutes with everything Bob does.
    """

    flip_outputs: bool = False
    flip_inputs: bool = False

    @property
    def is_identity(self) -> bool:
        return not (self.flip_outputs or self.flip_inputs)

    def on_target(self, target: TargetState) -> TargetState:
        s, t = target.s, target.t
        if self.flip_inputs:
            s, t = t, s
        if self.flip_outputs:
            s, t = 1 - s, 1 - t
        return TargetState(s, t)

    def on_sbox(self, sbox: SBox) -> SBox:
        beta = sbox.beta
        if self.flip_inputs:
            beta ^= sbox.alpha
        if self.flip_outputs:
            beta ^= 1
        return SBox(sbox.alpha, beta)

    def on_prbox(self, pr: PRBox) -> PRBox:
        return PRBox(
            pr.alpha ^ (1 if self.flip_inputs else 0),
            pr.beta,
            pr.delta ^ (1 if self.flip_outputs else 0),
        )


def canonicalize(target: TargetState) -> tuple[TargetState, Relabeling]:
    """Map the target into the canonical triangle; the returned relabeling
    is its own inverse.  Points on the anti-diagonal are rejected: both
    relabelings preserve s + t = 1, so none reaches the open region."""
    s, t = target.s, target.t
    if s + t == 1:
        raise RegionError(
            f"target (s={_shown(s)}, t={_shown(t)}) lies on a diagonal of the local square; "
            "no pair of decomposition triangles exists there"
        )
    if s + t < 1:
        relabeling = Relabeling(flip_inputs=t < s)
    else:
        relabeling = Relabeling(flip_outputs=True, flip_inputs=s < t)
    return relabeling.on_target(target), relabeling


def upper_triangle_weights(target: TargetState) -> dict[SBox, Fraction]:
    """The decomposition Bob's input 0 prepares for a canonical target."""
    s, t = target.s, target.t
    return {_S00: s, _S01: 1 - t, _S10: Fraction(0), _S11: t - s}


def lower_triangle_weights(target: TargetState) -> dict[SBox, Fraction]:
    """The decomposition Bob's input 1 prepares for a canonical target."""
    s, t = target.s, target.t
    return {_S00: Fraction(0), _S01: 1 - s - t, _S10: s, _S11: t}


# ---------------------------------------------------------------------------
# verification, Bob's posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlindReport(VerificationReport):
    """Verification outcome plus the expected decompositions, as the S-box
    weights it compared in the target's own coordinates, and Bob's supports."""

    target: TargetState
    canonical_target: TargetState
    relabeling: Relabeling
    expected_upper: dict[SBox, Fraction]
    expected_lower: dict[SBox, Fraction]
    posterior_supports: tuple[tuple[tuple[int, int], tuple[str, ...]], ...]


def verify_blind_steering(
    ensemble: NonlocalEnsemble, target: TargetState
) -> BlindReport:
    """Check that ``ensemble`` blind-steers ``target``: its two reductions
    equal the target's triangle decompositions and its Alice marginal is
    the target state itself.  Both sides are compared as S-box weights;
    the canonical triangles are relabeled S box by S box."""
    return _verify(ensemble, target, *canonicalize(target))


def _verify(
    ensemble: NonlocalEnsemble,
    target: TargetState,
    canonical_target: TargetState,
    relabeling: Relabeling,
) -> BlindReport:
    """:func:`verify_blind_steering` for a target already canonicalized."""
    expected = [
        {
            relabeling.on_sbox(sbox): w
            for sbox, w in triangle(canonical_target).items()
            if w != 0
        }
        for triangle in (upper_triangle_weights, lower_triangle_weights)
    ]

    joints = ensemble._joints
    reduced = [_reduction(joint) for joint in joints]
    checks = []
    for y in (0, 1):
        if reduced[y] == expected[y]:
            checks.append(CheckResult(f"reduction_y{y}", True))
        else:
            checks.append(
                CheckResult(
                    f"reduction_y{y}",
                    False,
                    f"Bob input {y} prepares {_describe(reduced[y])}, "
                    f"expected {_describe(expected[y])}",
                )
            )
    marginal = _alice_marginal(reduced[0])
    s, t = target.s, target.t
    if marginal == ((s, 1 - s), (t, 1 - t)):
        checks.append(CheckResult("alice_marginal", True))
    else:
        rows = ", ".join(f"({_shown(p0)}, {_shown(p1)})" for p0, p1 in marginal)
        checks.append(
            CheckResult(
                "alice_marginal",
                False,
                f"mixture marginal is ({rows}), expected (s={_shown(s)}, t={_shown(t)})",
            )
        )

    supports = []
    for y, joint in enumerate(joints):
        for b in (0, 1):
            kept = _kept_in_play(joint, b)
            if kept is not None:
                supports.append(((y, b), tuple(sorted(sbox.label for sbox in kept))))
    return BlindReport(
        checks=tuple(checks),
        target=target,
        canonical_target=canonical_target,
        relabeling=relabeling,
        expected_upper=expected[0],
        expected_lower=expected[1],
        posterior_supports=tuple(supports),
    )


def _alice_marginal(
    weights: dict[SBox, Fraction],
) -> tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]:
    """Alice's table p(a|x) from the S-box weights of either reduction:
    each S box adds its weight to the one output it gives at x."""
    rows = [[Fraction(0), Fraction(0)], [Fraction(0), Fraction(0)]]
    for sbox, w in weights.items():
        for x, row in enumerate(rows):
            row[sbox.output(x)] += w
    return tuple(rows[0]), tuple(rows[1])


def _kept_in_play(joint: tuple[_Entry, ...], b: int) -> dict[SBox, Fraction] | None:
    """The constituent weights of the joint's entries Bob keeps in play
    after outcome ``b``: those of members that drew b, and every entry of
    a member that drew nothing.  None if no entry gives b."""
    if all(seen != b for _, seen, _, _ in joint):
        return None
    return _reduction(e for e in joint if e[1] == b or not e[2])


def _describe(weights: dict[SBox, Fraction]) -> str:
    return " + ".join(f"{_shown(w)}*{sbox.label}" for sbox, w in weights.items())


def bob_posterior(
    ensemble: NonlocalEnsemble, y: int, b: int
) -> dict[SBox, Fraction]:
    """Bob's best guess about Alice's constituent given his input, his
    outcome, and the declared aggregates.

    The split of aggregate weight over concrete members is never
    announced, so Bob cannot hold his outcome against the product
    members: any Bob factor is possible, and a product round stays in
    play with its full weight whatever b he saw.  Only PR rounds let the
    outcome select between the two constituents they can leave behind.
    Over the joint after ``y``, p(c | b) is the sum of the shares of the
    entries (share, b', drew, c) in play, b' = b or not drew, over the
    sum of the shares of all entries in play.
    """
    _require_index("y", y, 2)
    _require_index("b", b, 2)
    kept = _kept_in_play(ensemble._joints[y], b)
    if kept is None:
        raise ZeroProbabilityError(
            f"Bob never sees b={b} on input y={y} under this ensemble"
        )
    norm = sum(kept.values())
    return {sbox: w / norm for sbox, w in kept.items()}


# ---------------------------------------------------------------------------
# end-to-end planning for arbitrary off-diagonal targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlindSteeringPlan:
    """The ensemble that blind-steers a target, in the target's own
    coordinates, and its verification report, which passed; the report
    also names the canonical target and the relabeling used."""

    ensemble: NonlocalEnsemble
    report: BlindReport


def plan_blind_steering(
    target: TargetState, split: NonlocalEnsemble | None = None
) -> BlindSteeringPlan:
    """The blind-steering ensemble for an off-diagonal target, verified.

    Without ``split`` the ensemble is the canonical closed form relabeled
    into the target's coordinates.  A ``split``, given in the target's
    own coordinates, is used as it is if it verifies: that is, iff its
    aggregates equal the closed form's, the only ones whose reductions
    are the target's triangles.  Otherwise a :class:`ValidationError`
    names the failed checks, then their witnesses, clipped to 190 bytes.
    """
    canonical_target, relabeling = canonicalize(target)
    if canonical_target.on_boundary:
        warnings.warn(
            f"target (s={_shown(target.s)}, t={_shown(target.t)}) sits on the triangle "
            "boundary: construction degenerates and blindness may fail",
            DegenerateRegionWarning,
            stacklevel=2,
        )
    if split is None:
        # the canonical split, all PR weight on PR000 and every Bob factor S00:
        # S01xS00 with weight 1-s-t, S11xS00 with t-s and PR000 with 2s,
        # zero weights dropped and Alice's side relabeled
        s, t = canonical_target.s, canonical_target.t
        products = ((1 - s - t, _S01), (t - s, _S11))
        split = NonlocalEnsemble(
            tuple(
                ProductMember(w, relabeling.on_sbox(alice), _S00)
                for w, alice in products
                if w != 0
            ),
            (PRMember(2 * s, relabeling.on_prbox(_PR000)),) if s != 0 else (),
        )
    report = _verify(split, target, canonical_target, relabeling)
    if not report.passed:  # only a caller's split: the tests verify the closed form
        failed = [check for check in report.checks if not check.passed]
        names = ", ".join(check.name for check in failed)
        witnesses = "; ".join(check.witness for check in failed)
        raise ValidationError(_clipped(f"split rejected ({names}): {witnesses}", 190))
    return BlindSteeringPlan(split, report)

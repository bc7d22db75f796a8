"""Blind remote preparation of one-bit ensembles.

Setting: a Referee hands Alice and Bob one half each of a two-party
no-signalling box, announcing only Alice's reduced state, described by
the pair

    s = p(a=0|x=0),    t = p(a=0|x=1),

a point of the unit square whose corners are the four S boxes.  Bob's
input decides which of two fixed decompositions of that state Alice
ends up holding, yet neither player learns which constituent a given
round used: Alice sees only her marginal, and Bob's outcome does not
single out a constituent.  Only the Referee, who knows the member drawn
in each round, can tell.

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

Matching both against the reductions of a product-plus-PR ensemble
forces, via positivity, a unique set of aggregate weights: PR members
must all have ``beta = 0`` with total weight 2s, and the product
members' Alice factors carry ``1-s-t`` on S01 and ``t-s`` on S11.  How
those aggregates split over individual members is free, and every valid
split produces identical reductions, which is what keeps Bob blind.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction

from .boxes import LocalBox, PRBox, SBox, alice_marginal, as_prob, bob_outcome_distribution
from .ensembles import (
    AliceReduction,
    Ensemble,
    NonlocalEnsemble,
    PRMember,
    ProductMember,
    _sbox_ensemble,
    mix_nonlocal,
    posterior_alice_reduction,
)
from .errors import (
    DegenerateRegionWarning,
    RegionError,
    ValidationError,
    ZeroProbabilityError,
)
from .reports import CheckResult, VerificationReport

_S00 = SBox(0, 0)
_S01 = SBox(0, 1)
_S10 = SBox(1, 0)
_S11 = SBox(1, 1)


@dataclass(frozen=True)
class TargetState:
    """Alice's announced reduced state: s = p(0|x=0), t = p(0|x=1)."""

    s: Fraction
    t: Fraction

    def __post_init__(self) -> None:
        object.__setattr__(self, "s", as_prob(self.s))
        object.__setattr__(self, "t", as_prob(self.t))

    def to_box(self) -> LocalBox:
        return LocalBox(((self.s, 1 - self.s), (self.t, 1 - self.t)))

    @classmethod
    def from_box(cls, box: LocalBox) -> "TargetState":
        if box.num_inputs != 2 or box.num_outputs != 2:
            raise ValidationError("target state requires a 2-input/2-output box")
        return cls(box.prob(0, 0), box.prob(1, 0))

    @property
    def in_canonical_region(self) -> bool:
        return self.t >= self.s and self.s + self.t < 1

    @property
    def is_interior(self) -> bool:
        """Strictly inside the canonical triangle (all constructed weights positive)."""
        return self.s > 0 and self.t > self.s and self.s + self.t < 1

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

    def on_nonlocal_ensemble(self, ensemble: NonlocalEnsemble) -> NonlocalEnsemble:
        return NonlocalEnsemble(
            tuple(
                ProductMember(m.weight, self.on_sbox(m.alice), m.bob)
                for m in ensemble.products
            ),
            tuple(PRMember(m.weight, self.on_prbox(m.box)) for m in ensemble.prs),
        )


def canonicalize(target: TargetState) -> tuple[TargetState, Relabeling]:
    """Map the target into the canonical triangle; the returned relabeling
    is its own inverse.  Points on the anti-diagonal are rejected: both
    relabelings preserve s + t = 1, so none reaches the open region."""
    s, t = target.s, target.t
    if s + t == 1:
        raise RegionError(
            f"target (s={s}, t={t}) lies on a diagonal of the local square; "
            "no pair of decomposition triangles exists there"
        )
    if s + t < 1:
        relabeling = Relabeling(flip_inputs=t < s)
    else:
        relabeling = Relabeling(flip_outputs=True, flip_inputs=s < t)
    return relabeling.on_target(target), relabeling


def _require_canonical(target: TargetState, op: str) -> None:
    if not target.in_canonical_region:
        raise RegionError(
            f"{op} expects a target in the canonical triangle "
            f"(t >= s and s + t < 1); got (s={target.s}, t={target.t}). "
            "Canonicalize via relabeling first."
        )
    if target.on_boundary:
        warnings.warn(
            f"target (s={target.s}, t={target.t}) sits on the triangle "
            "boundary: construction degenerates and blindness may fail",
            DegenerateRegionWarning,
            stacklevel=3,
        )


def upper_triangle_weights(target: TargetState) -> dict[SBox, Fraction]:
    """The decomposition Bob's input 0 prepares for a canonical target."""
    s, t = target.s, target.t
    return {_S00: s, _S01: 1 - t, _S10: Fraction(0), _S11: t - s}


def lower_triangle_weights(target: TargetState) -> dict[SBox, Fraction]:
    """The decomposition Bob's input 1 prepares for a canonical target."""
    s, t = target.s, target.t
    return {_S00: Fraction(0), _S01: 1 - s - t, _S10: s, _S11: t}


# ---------------------------------------------------------------------------
# aggregate weights
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlindSteeringSolution:
    """Pinned aggregate weights for a canonical target and the
    canonical-split ensemble realizing them."""

    target: TargetState
    product_totals: dict[tuple[int, int], Fraction]
    pr_totals: dict[int, Fraction]
    ensemble: NonlocalEnsemble

    def product_total(self, alpha: int, beta: int) -> Fraction:
        return self.product_totals.get((alpha, beta), Fraction(0))

    def pr_total(self, beta: int) -> Fraction:
        return self.pr_totals.get(beta, Fraction(0))


def solve_constraints(target: TargetState) -> BlindSteeringSolution:
    """The aggregate member weights for a canonical-region target.

    Matching the Bob-input-0 reduction to the upper triangle and the
    Bob-input-1 reduction to the lower one leaves one free aggregate,
    the S00-product weight; positivity forces it to zero, and with it
    the S10 products and the whole beta=1 PR sector, leaving

        PR total (beta=0) = 2s,   S01 products = 1-s-t,   S11 products = t-s.
    """
    _require_canonical(target, "solve_constraints")
    s, t = target.s, target.t
    zero = Fraction(0)
    product_totals = {(0, 0): zero, (0, 1): 1 - s - t, (1, 0): zero, (1, 1): t - s}
    pr_totals = {0: 2 * s, 1: zero}
    # canonical split: all PR weight on the (0,0,0) box, all Bob factors on S00
    ensemble = NonlocalEnsemble(
        tuple(
            ProductMember(w, SBox(*key), _S00)
            for key, w in product_totals.items()
            if w != 0
        ),
        (PRMember(pr_totals[0], PRBox(0, 0, 0)),) if s != 0 else (),
    )
    return BlindSteeringSolution(
        target=target,
        product_totals=product_totals,
        pr_totals=pr_totals,
        ensemble=ensemble,
    )


def build_nonlocal_ensemble(
    solution: BlindSteeringSolution, split: NonlocalEnsemble | None = None
) -> NonlocalEnsemble:
    """The canonical-split ensemble, or a caller-chosen split validated
    against the solution's aggregates.

    A split may distribute PR weight over any beta=0 boxes and product
    weight over any Bob factors; reductions depend only on aggregates,
    so every valid split steers identically.
    """
    if split is None:
        return solution.ensemble
    split_products = {
        k: v for k, v in split.product_totals().items() if v != 0
    }
    wanted_products = {k: v for k, v in solution.product_totals.items() if v != 0}
    if split_products != wanted_products:
        raise ValidationError(
            f"split product aggregates {split_products} do not match "
            f"required {wanted_products}"
        )
    split_prs = {k: v for k, v in split.pr_totals().items() if v != 0}
    wanted_prs = {k: v for k, v in solution.pr_totals.items() if v != 0}
    if split_prs != wanted_prs:
        raise ValidationError(
            f"split PR aggregates {split_prs} do not match required {wanted_prs}"
        )
    return split


# ---------------------------------------------------------------------------
# verification, Bob's posterior
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlindReport(VerificationReport):
    """Verification outcome plus the expected decompositions (already
    mapped to the target's own coordinates) and Bob's posterior supports."""

    target: TargetState
    canonical_target: TargetState
    relabeling: Relabeling
    expected_upper: Ensemble
    expected_lower: Ensemble
    posterior_supports: tuple[tuple[tuple[int, int], tuple[str, ...]], ...]


def verify_blind_steering(
    ensemble: NonlocalEnsemble, target: TargetState
) -> BlindReport:
    """Check that ``ensemble`` blind-steers ``target``: its two reductions
    equal the target's triangle decompositions and its Alice marginal is
    the target state itself.  Both sides are compared as S-box weights;
    the canonical triangles are relabeled S box by S box."""
    canonical_target, relabeling = canonicalize(target)
    expected = [
        {
            relabeling.on_sbox(sbox): w
            for sbox, w in triangle(canonical_target).items()
            if w != 0
        }
        for triangle in (upper_triangle_weights, lower_triangle_weights)
    ]

    reductions = [posterior_alice_reduction(ensemble, y) for y in (0, 1)]
    checks = []
    for y in (0, 1):
        reduced = reductions[y].constituent_weights()
        if reduced == expected[y]:
            checks.append(CheckResult(f"reduction_y{y}", True))
        else:
            checks.append(
                CheckResult(
                    f"reduction_y{y}",
                    False,
                    f"Bob input {y} prepares {_describe(reduced)}, "
                    f"expected {_describe(expected[y])}",
                )
            )
    box = mix_nonlocal(ensemble)
    marginal = alice_marginal(box)
    if marginal == target.to_box():
        checks.append(CheckResult("alice_marginal", True))
    else:
        checks.append(
            CheckResult(
                "alice_marginal",
                False,
                f"mixture marginal is {marginal.table}, expected "
                f"(s={target.s}, t={target.t})",
            )
        )

    supports = []
    for y in (0, 1):
        outcome_dist = bob_outcome_distribution(box, y)
        for b in (0, 1):
            if outcome_dist[b] == 0:
                continue
            posterior = _posterior(reductions[y], b)
            supports.append(
                ((y, b), tuple(sorted(sbox.label for sbox in posterior)))
            )
    return BlindReport(
        checks=tuple(checks),
        target=target,
        canonical_target=canonical_target,
        relabeling=relabeling,
        expected_upper=_sbox_ensemble(expected[0]),
        expected_lower=_sbox_ensemble(expected[1]),
        posterior_supports=tuple(supports),
    )


def _describe(weights: dict[SBox, Fraction]) -> str:
    return " + ".join(f"{w}*{sbox.label}" for sbox, w in weights.items())


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
    """
    if y not in (0, 1) or b not in (0, 1):
        raise ValidationError(f"(y, b) must be bits, got ({y!r}, {b!r})")
    outcome_dist = bob_outcome_distribution(mix_nonlocal(ensemble), y)
    if outcome_dist[b] == 0:
        raise ZeroProbabilityError(
            f"Bob never sees b={b} on input y={y} under this ensemble"
        )
    return _posterior(posterior_alice_reduction(ensemble, y), b)


def _posterior(reduction: AliceReduction, b: int) -> dict[SBox, Fraction]:
    totals: dict[SBox, Fraction] = {}
    norm = Fraction(0)
    for record in reduction.records:
        if record.bob_outcome is not None and record.bob_outcome != b:
            continue
        totals[record.constituent] = (
            totals.get(record.constituent, Fraction(0)) + record.weight
        )
        norm += record.weight
    return {sbox: w / norm for sbox, w in totals.items() if w != 0}


# ---------------------------------------------------------------------------
# end-to-end planning for arbitrary off-diagonal targets
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlindSteeringPlan:
    """Everything needed to run the protocol on an off-diagonal target:
    the solved canonical problem, the relabeling used, the final ensemble
    in the target's own coordinates, and its verification report."""

    target: TargetState
    canonical_target: TargetState
    relabeling: Relabeling
    solution: BlindSteeringSolution
    ensemble: NonlocalEnsemble
    report: BlindReport


def plan_blind_steering(
    target: TargetState, split: NonlocalEnsemble | None = None
) -> BlindSteeringPlan:
    """Solve the target (relabeling into the canonical triangle if
    needed), apply an optional split, map the ensemble back, and verify
    it against the original coordinates.

    ``split``, when given, is interpreted in the target's own
    coordinates; it is relabeled alongside everything else before its
    aggregates are checked.
    """
    canonical_target, relabeling = canonicalize(target)
    solution = solve_constraints(canonical_target)
    canonical_split = (
        relabeling.on_nonlocal_ensemble(split) if split is not None else None
    )
    canonical_ensemble = build_nonlocal_ensemble(solution, canonical_split)
    ensemble = relabeling.on_nonlocal_ensemble(canonical_ensemble)
    report = verify_blind_steering(ensemble, target)
    return BlindSteeringPlan(
        target=target,
        canonical_target=canonical_target,
        relabeling=relabeling,
        solution=solution,
        ensemble=ensemble,
        report=report,
    )

"""Output oracles: independent checks of what the library returned.

Each oracle takes plain data (or a library result plus the plain input
it came from) and returns a list of problems; an empty list means the
output is right.  They use only the exact arithmetic in ``inputs``, so a
fast but wrong library answer shows up as a failed op.
"""

from __future__ import annotations

from fractions import Fraction

from inputs import BITS, CELLS, mix_weights, nest


def chsh_local(flat) -> bool:
    """Fine's theorem: a 2x2x2x2 no-signalling box is local iff all
    eight CHSH expressions sum_xy (-1)^((x^p)(y^q)) E_xy are <= 2."""
    corr = {(x, y): Fraction(0) for x in BITS for y in BITS}
    for (x, y, a, b), p in zip(CELLS, flat):
        corr[x, y] += -p if a ^ b else p
    for p in BITS:
        for q in BITS:
            value = sum(
                -corr[x, y] if (x ^ p) & (y ^ q) else corr[x, y]
                for x in BITS
                for y in BITS
            )
            if abs(value) > 2:
                return False
    return True


def ensemble_weights(ensemble) -> tuple[dict, dict]:
    """A library ``NonlocalEnsemble`` as ``from_weights`` dicts."""
    products = {}
    for m in ensemble.products:
        key = ((m.alice.alpha, m.alice.beta), (m.bob.alpha, m.bob.beta))
        products[key] = products.get(key, 0) + m.weight
    prs = {}
    for m in ensemble.prs:
        key = (m.box.alpha, m.box.beta, m.box.delta)
        prs[key] = prs.get(key, 0) + m.weight
    return products, prs


def check_geometry(flat, violations, ensemble, remix, local) -> list[str]:
    """no_signalling_violations, decompose, mix_nonlocal and is_local on
    one no-signalling box."""
    problems = []
    if violations:
        problems.append(f"no-signalling box reported as signalling: {violations}")
    table = nest(flat)
    if remix.table != table:
        problems.append("mix_nonlocal(decompose(box)) differs from the box")
    products, prs = ensemble_weights(ensemble)
    if any(w <= 0 for w in [*products.values(), *prs.values()]):
        problems.append("decomposition has a nonpositive weight")
    if mix_weights(products, prs) != tuple(flat):
        problems.append("decomposition weights do not remix to the box")
    if local != chsh_local(flat):
        problems.append(f"is_local says {local}, CHSH oracle says {not local}")
    return problems


def alice_marginal(products: dict, prs: dict) -> tuple[Fraction, Fraction]:
    """(p(a=0|x=0), p(a=0|x=1)) of a nonlocal ensemble: a product member
    S(i,j) outputs i*x ^ j, a PR member is uniform."""
    marginal = [Fraction(0), Fraction(0)]
    for ((i, j), _), w in products.items():
        for x in BITS:
            if (i & x) ^ j == 0:
                marginal[x] += w
    for w in prs.values():
        for x in BITS:
            marginal[x] += w / 2
    return marginal[0], marginal[1]


def bob_outcomes(products: dict, prs: dict, y: int) -> set[int]:
    """Outcomes Bob sees with positive probability on input y."""
    if any(prs.values()):
        return set(BITS)
    return {(k & y) ^ l for (_, (k, l)), w in products.items() if w}


def check_blind(target, plan, posteriors) -> list[str]:
    """A blind plan for ``target``: the report passes, Alice's marginal
    is the target, and Bob's outcome never narrows Alice's constituent
    to one candidate.  ``posteriors`` maps every (y, b) Bob can see to
    ``bob_posterior``'s answer."""
    problems = []
    if not plan.report.passed:
        failed = [c.name for c in plan.report.checks if not c.passed]
        problems.append(f"blind report failed: {failed}")
    products, prs = ensemble_weights(plan.ensemble)
    if alice_marginal(products, prs) != tuple(target):
        problems.append(
            f"Alice's marginal {alice_marginal(products, prs)} is not the target {target}"
        )
    expected_keys = {(y, b) for y in BITS for b in bob_outcomes(products, prs, y)}
    if set(posteriors) != expected_keys:
        problems.append(f"posteriors for {sorted(posteriors)}, expected {sorted(expected_keys)}")
    for (y, b), posterior in posteriors.items():
        if len(posterior) < 2:
            problems.append(f"Bob at (y={y}, b={b}) identifies the constituent")
        if sum(posterior.values()) != 1:
            problems.append(f"Bob's posterior at (y={y}, b={b}) does not sum to 1")
    return problems


def check_steering(num_outputs, sources, state, report, steered) -> list[str]:
    """A remote-preparation box built from ``sources`` (lists of
    (weight, strategy)): p(ab|xy) = w_b^y [a = f_b^y(x)], the report
    passes, and conditioning on Bob gives back every source ensemble."""
    problems = []
    if not report.passed:
        problems.append(f"steering report failed: {[c.name for c in report.checks if not c.passed]}")
    box = state.box
    for y, members in enumerate(sources):
        for x in range(box.num_inputs_alice):
            for a in range(num_outputs):
                for b in range(box.num_outputs_bob):
                    want = 0
                    if b < len(members) and members[b][1][x] == a:
                        want = members[b][0]
                    if box.prob(x, y, a, b) != want:
                        problems.append(f"p(a={a},b={b}|x={x},y={y}) is wrong")
                        return problems
    for y, (members, got) in enumerate(zip(sources, steered)):
        want = _merged(members)
        have = {}
        for w, local in got.members:
            strategy = tuple(row.index(1) for row in local.table)
            have[strategy] = have.get(strategy, 0) + w
        if have != want:
            problems.append(f"steered ensemble {y} differs from its source")
    return problems


def _merged(members) -> dict:
    out: dict = {}
    for w, strategy in members:
        out[strategy] = out.get(strategy, 0) + w
    return out


def check_logs(logs, rounds: int) -> list[str]:
    """Per-round bookkeeping of an honest run: one record per round in
    order, and the Referee names the constituent Alice holds."""
    problems = []
    if len(logs) != rounds:
        problems.append(f"{len(logs)} rounds logged, expected {rounds}")
    for position, log in enumerate(logs):
        if log.round_id != position:
            problems.append(f"round {position} logged as {log.round_id}")
            break
        if log.referee_inference != log.alice_actual:
            problems.append(f"round {position}: referee_inference != alice_actual")
            break
    return problems


def check_protocol(rounds, report, logs, decoded, verdict) -> list[str]:
    """run_protocol -> logs_to_ndjson -> logs_from_ndjson -> referee_audit:
    the log is honest, survives the codec unchanged, and both audits see
    no mismatch and agree on the statistical verdict."""
    problems = check_logs(logs, rounds)
    if decoded != logs:
        problems.append("decode(encode(logs)) != logs")
    for name, v in (("run_protocol", report.verdict), ("referee_audit", verdict)):
        if v.mismatch_count:
            problems.append(f"{name} audit found {v.mismatch_count} mismatching rounds")
    if report.verdict.passed != verdict.passed:
        problems.append("audit of the decoded log disagrees with run_protocol's audit")
    return problems

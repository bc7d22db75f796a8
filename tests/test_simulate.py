import collections
import dataclasses
import itertools
import math
import random
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction as F
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import boxsteer as bx
from boxsteer import _stream, simulate
from strategies import (
    catalog_ensembles,
    member_box,
    nonlocal_ensembles,
    pr_bipartite_box,
    refuse_boxes,
    weight_vectors,
)

BITS = (0, 1)

CANONICAL = bx.TargetState(F(1, 4), F(1, 2))


def canonical_ensemble():
    return bx.plan_blind_steering(CANONICAL).ensemble


def pr_singleton():
    return bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): F(1)})


class TestInputPolicy:
    def test_uniform(self):
        policy = bx.InputPolicy.uniform()
        assert policy.table == ((F(1, 4), F(1, 4)), (F(1, 4), F(1, 4)))

    def test_shape_rejected(self):
        with pytest.raises(bx.ValidationError):
            bx.InputPolicy(((F(1, 2), F(1, 2)),))

    def test_sum_rejected(self):
        with pytest.raises(bx.ValidationError):
            bx.InputPolicy(((F(1, 2), F(1, 2)), (F(1, 2), F(0))))

    def test_float_rejected(self):
        with pytest.raises(bx.ValidationError):
            bx.InputPolicy(((0.25, F(1, 4)), (F(1, 4), F(1, 4))))

    @pytest.mark.parametrize("table", [5, None, (5, 6), ((F(1, 4), F(1, 4)), 7)])
    def test_non_table_rejected(self, table):
        # as LocalBox and BipartiteBox do, where iterating it raised TypeError
        with pytest.raises(bx.ValidationError, match="^input policy must be a 2x2 table$"):
            bx.InputPolicy(table)


class TestRunProtocol:
    def test_point_mass_ensemble(self):
        e = bx.NonlocalEnsemble.from_weights(products={((0, 1), (0, 0)): F(1)})
        report, logs = bx.run_protocol(e, rounds=200, seed=7)
        assert all(log.a == 1 and log.b == 0 for log in logs)
        assert all(log.member_id == 0 for log in logs)
        assert all(log.referee_inference == bx.SBox(0, 1) for log in logs)
        assert report.verdict.passed

    def test_reproducible(self):
        e = canonical_ensemble()
        _, first = bx.run_protocol(e, rounds=300, seed=11)
        _, second = bx.run_protocol(e, rounds=300, seed=11)
        assert first == second
        _, other = bx.run_protocol(e, rounds=300, seed=12)
        assert first != other

    def test_prefix_stable(self):
        # per-round substreams: a longer run extends the log, never
        # rewrites it
        e = canonical_ensemble()
        _, short = bx.run_protocol(e, rounds=150, seed=3)
        _, long = bx.run_protocol(e, rounds=600, seed=3)
        assert long[:150] == short

    def test_round_ids_sequential(self):
        _, logs = bx.run_protocol(pr_singleton(), rounds=50, seed=0)
        assert [log.round_id for log in logs] == list(range(50))

    def test_routes_agree_in_log(self):
        _, logs = bx.run_protocol(canonical_ensemble(), rounds=400, seed=5)
        assert all(log.referee_inference == log.alice_actual for log in logs)

    def test_rounds_validated(self):
        for rounds in (0, True, 2.5, "10"):
            with pytest.raises(bx.ValidationError):
                bx.run_protocol(pr_singleton(), rounds=rounds, seed=0)

    @pytest.mark.parametrize("rounds", [-10**5000, "1" * 5000], ids=["long-int", "long-str"])
    def test_long_rounds_quoted(self, rounds):
        # a count past the int-string limit, or a long string, is quoted
        # short, where printing the int raised ValueError
        with pytest.raises(bx.ValidationError) as raised:
            bx.run_protocol(pr_singleton(), rounds=rounds, seed=0)
        assert len(str(raised.value)) <= 80

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "0"])
    def test_seed_validated(self, seed):
        with pytest.raises(bx.ValidationError):
            bx.run_protocol(pr_singleton(), rounds=10, seed=seed)

    @pytest.mark.parametrize(
        "significance", [0.0, 1.0, -0.1, "0.01", True, None, F(3, 2), F(1, 10**400)]
    )
    def test_significance_validated(self, significance):
        with pytest.raises(bx.ValidationError):
            bx.run_protocol(
                pr_singleton(), rounds=10, seed=0, significance=significance
            )

    @pytest.mark.parametrize("significance", [F(1, 1000), 0.001])
    def test_significance_kept_as_float(self, significance):
        report, _ = bx.run_protocol(
            pr_singleton(), rounds=10, seed=0, significance=significance
        )
        assert type(report.verdict.significance) is float
        assert report.verdict.significance == 0.001

    def test_restricted_policy(self):
        policy = bx.InputPolicy(((F(1, 2), F(0)), (F(1, 2), F(0))))
        report, logs = bx.run_protocol(
            canonical_ensemble(), rounds=300, seed=9, policy=policy
        )
        assert all(log.y == 0 for log in logs)
        assert set(report.alice_frequencies) == {0}
        # inputs never sampled show up as None in the table
        assert report.empirical_joint[0][1][0][0] is None

    def test_frequencies_near_reduction(self):
        report, _ = bx.run_protocol(canonical_ensemble(), rounds=20000, seed=1)
        expected = {
            0: {bx.SBox(0, 0): 0.25, bx.SBox(0, 1): 0.5, bx.SBox(1, 1): 0.25},
            1: {bx.SBox(0, 1): 0.25, bx.SBox(1, 0): 0.25, bx.SBox(1, 1): 0.5},
        }
        for y in BITS:
            for sbox, target in expected[y].items():
                assert abs(report.alice_frequencies[y][sbox] - target) < 0.025
        assert report.verdict.passed


class TestEmpiricalJoint:
    def test_pr_statistics(self):
        report, _ = bx.run_protocol(pr_singleton(), rounds=20000, seed=2)
        table = report.empirical_joint
        pr = pr_bipartite_box(bx.PRBox(0, 0, 0))
        for x in BITS:
            for y in BITS:
                for a in BITS:
                    for b in BITS:
                        assert (
                            abs(table[x][y][a][b] - float(pr.prob(x, y, a, b)))
                            < 0.03
                        )


def _drawn_rounds(ensemble, rounds, seed, policy):
    return bx.run_protocol(ensemble, rounds, seed, policy)[1]


class TestSampleRounds:
    def test_same_rounds_as_run_protocol(self):
        e = canonical_ensemble()
        policy = bx.InputPolicy(((F(1, 8), F(3, 8)), (F(1, 3), F(1, 6))))
        _, logs = bx.run_protocol(e, rounds=200, seed=2**32, policy=policy)
        cells = simulate._cells(e)
        stamped = [simulate._stamp(r, cells[c])
                   for start, ids in simulate._cell_blocks(e, 200, 2**32, policy)
                   for r, c in enumerate(ids.tolist(), start)]
        assert stamped == logs

    @pytest.mark.parametrize(
        "rounds,seed",
        [(0, 0), (10, -1), (10, 1.5), (10, True), (True, 0), (2.5, 0), ("10", 0)],
    )
    def test_arguments_checked_on_call(self, rounds, seed):
        # before the first next(), so a CLI run can fail before writing
        with pytest.raises(bx.ValidationError):
            simulate._cell_blocks(pr_singleton(), rounds, seed, bx.InputPolicy.uniform())

    def test_builds_no_box(self, monkeypatch):
        # the tables come from the vertex formulas: no validated table,
        # no no-signalling scan, no conditioning
        e = canonical_ensemble()

        def refuse(self):
            raise AssertionError(f"{type(self).__name__} built")

        refuse_boxes(monkeypatch)
        monkeypatch.setattr(bx.LocalBox, "__post_init__", refuse)
        logs = _drawn_rounds(e, 50, 0, bx.InputPolicy.uniform())
        monkeypatch.undo()
        assert logs == _reference_rounds(e, 50, 0, bx.InputPolicy.uniform())
        assert not hasattr(simulate, "condition_on_bob")


def _reference_rounds(ensemble, rounds, seed, policy):
    """The sampler's first form, kept as the oracle: a fresh generator per
    round and each float uniform compared with the exact cumulative
    weights."""

    def cumulative(pairs):
        kept = [(w, value) for w, value in pairs if w != 0]
        return list(zip(itertools.accumulate(w for w, _ in kept), (v for _, v in kept)))

    def pick(cum, u):
        return next((value for threshold, value in cum if u < threshold), cum[-1][1])

    members = ensemble.members
    member_cum = cumulative((m.weight, i) for i, m in enumerate(members))
    pairs = list(itertools.product(BITS, BITS))
    policy_cum = cumulative((policy.table[x][y], (x, y)) for x, y in pairs)
    boxes = [member_box(m) for m in members]
    out = []
    for round_id in range(rounds):
        u_member, u_inputs, u_outcomes = np.random.default_rng([seed, round_id]).random(3)
        i = pick(member_cum, u_member)
        x, y = pick(policy_cum, u_inputs)
        a, b = pick(cumulative((boxes[i].prob(x, y, a, b), (a, b)) for a, b in pairs), u_outcomes)
        sbox = bx.constituent_after_measurement(members[i], y, b)
        out.append(bx.RoundLog(round_id, i, x, y, a, b, sbox, sbox))
    return out


ORACLE_SEEDS = [0, 2**32 - 1, 2**32, 2**64 + 5, 2**128]


class TestBlockSampler:
    @settings(max_examples=40, deadline=None)
    @given(
        nonlocal_ensembles(),
        weight_vectors(4),
        st.sampled_from(ORACLE_SEEDS) | st.integers(0, 2**70),
        st.integers(1, 30),
    )
    def test_matches_reference(self, ensemble, policy_weights, seed, rounds):
        w = policy_weights
        policy = bx.InputPolicy(((w[0], w[1]), (w[2], w[3])))
        assert _drawn_rounds(ensemble, rounds, seed, policy) == _reference_rounds(
            ensemble, rounds, seed, policy
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.fractions(0, 1, max_denominator=10**20), min_size=1, max_size=6))
    def test_thresholds_are_exact(self, weights):
        # k * 2**-53 < c exactly when k < T, for every cumulative weight c
        for c, t in zip(itertools.accumulate(weights), _stream._thresholds(weights)):
            assert F(t - 1, 2**53) < c <= F(t, 2**53)

    @pytest.mark.parametrize(
        "ensemble", catalog_ensembles(), ids=lambda e: e.members[0].label
    )
    def test_matches_reference_on_every_vertex(self, ensemble):
        # the formula thresholds against the reference's table of the
        # vertex's own box, on every input pair
        policy = bx.InputPolicy.uniform()
        logs = _drawn_rounds(ensemble, 100, 3, policy)
        assert logs == _reference_rounds(ensemble, 100, 3, policy)
        assert {(log.x, log.y) for log in logs} == set(itertools.product(BITS, BITS))

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.integers(0, 2**53 - 1), max_size=6))
    def test_outcome_rule_at_its_boundaries(self, drawn):
        # the sampler's own code on chosen k, on every vertex and input
        # pair, against the thresholds of the table member_box writes;
        # under the uniform policy, k = p * 2**51 draws input pair p
        pairs = list(itertools.product(BITS, BITS))
        ks = [0, 2**52 - 1, 2**52, 2**53 - 1, *drawn]
        ints = np.array([(0, p << 51, k) for p in range(4) for k in ks], np.uint64)
        policy = bx.InputPolicy.uniform()
        with mock.patch.object(_stream, "_round_ints", lambda _, i, j: ints[i:j]):
            for ensemble in catalog_ensembles():
                table = member_box(ensemble.members[0]).table
                logs = _drawn_rounds(ensemble, len(ints), 0, policy)
                for log, (_, k_pair, k) in zip(logs, ints.tolist(), strict=True):
                    x, y = pairs[k_pair >> 51]
                    row = [table[x][y][a][b] for a, b in pairs]
                    outcome = np.searchsorted(_stream._thresholds(row), k, "right")
                    assert (log.x, log.y, (log.a, log.b)) == (x, y, pairs[outcome])

    @pytest.mark.parametrize("seed", ORACLE_SEEDS)
    def test_matches_reference_across_a_block_edge(self, seed):
        # zero cells in the policy and in the members' tables
        policy = bx.InputPolicy(((F(1, 3), F(0)), (F(1, 2), F(1, 6))))
        ensemble = canonical_ensemble()
        rounds = _stream._BLOCK + 3
        assert _drawn_rounds(ensemble, rounds, seed, policy) == _reference_rounds(
            ensemble, rounds, seed, policy
        )

    @pytest.mark.parametrize("start", [2**32 - 2, 2**64 - 2])
    @pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 5, 2**128])
    def test_stages_match_numpy(self, seed, start):
        # the entropy grows by a word at 2**32 and 2**64
        words = _stream._generate_state(seed, start, start + 4)
        state, inc = _stream._pcg64_seeded(words)
        ints = _stream._pcg64_ints(state, inc)
        assert (ints == _stream._round_ints(seed, start, start + 4)).all()
        for i, r in enumerate(range(start, start + 4)):
            expected = np.random.SeedSequence([seed, r]).generate_state(4, np.uint64)
            assert words[i].tolist() == expected.tolist()
            rng = np.random.default_rng([seed, r])
            pcg = rng.bit_generator.state["state"]
            assert int(state[0][i]) << 64 | int(state[1][i]) == pcg["state"]
            assert int(inc[0][i]) << 64 | int(inc[1][i]) == pcg["inc"]
            assert (ints[i] == rng.bit_generator.random_raw(3) >> np.uint64(11)).all()


def test_numpy_stream_canary():
    # the sampler reproduces numpy's default_rng stream; a numpy whose
    # stream differs fails here by name, not only as a golden digest
    seeds = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**64, 2**96, 2**128 + 7]
    rounds = [0, 1, 2**32 - 1, 2**32, 2**40 + 3, 2**64 - 1, 2**64, 2**80]
    for seed, r in itertools.product(seeds, rounds):
        got = _stream._round_ints(seed, r, r + 1)[0] * 2.0**-53
        expected = np.random.default_rng([seed, r]).random(3)
        assert got.tolist() == expected.tolist(), (
            f"numpy {np.__version__}: default_rng([{seed}, {r}]) stream differs "
            "from the one boxsteer's sampler reproduces"
        )


def reweighted_canonical():
    """The canonical plan's members with other weights."""
    return bx.NonlocalEnsemble.from_weights(
        products={((0, 1), (0, 0)): F(1, 2), ((1, 1), (0, 0)): F(1, 4)},
        prs={(0, 0, 0): F(1, 4)},
    )


def kt_e_value(counts, q):
    """One stratum's Krichevsky–Trofimov e-value against its cell law q,
    as the exact rational prod_i prod_{j<n_i} (j + 1/2) / prod_{j<N}
    (K/2 + j) / prod_i q_i**n_i."""
    e = F(1)
    for n, p in zip(counts, q):
        for j in range(n):
            e *= (j + F(1, 2)) / p
    for j in range(sum(counts)):
        e /= F(len(q), 2) + j
    return e


def log_e_oracle(logs, ensemble):
    """The log of the product over input pairs of each stratum's exact
    e-value, for honest rounds; the cells on (x, y) are each member's
    outcomes there, read off its box, with q = w_m / n_m(x, y)."""
    e = F(1)
    for x, y in itertools.product(BITS, BITS):
        law = {}
        for m, member in enumerate(ensemble.members):
            box = member_box(member)
            outcomes = [ab for ab in itertools.product(BITS, BITS) if box.prob(x, y, *ab)]
            law.update({(m, *ab): member.weight / len(outcomes) for ab in outcomes})
        counts = collections.Counter(
            (log.member_id, log.a, log.b) for log in logs if (log.x, log.y) == (x, y))
        e *= kt_e_value([counts[cell] for cell in law], list(law.values()))
    return math.log(e.numerator) - math.log(e.denominator)


class TestEValue:
    @pytest.mark.parametrize("q", [
        (F(1, 2), F(1, 4), F(1, 4)),
        (F(1, 3), F(1, 3), F(1, 3)),
        (F(1, 8), F(3, 8), F(1, 4), F(1, 4)),
        (F(1, 16), F(1, 16), F(3, 8), F(1, 2)),
    ])
    def test_mean_one_under_the_cell_law(self, q):
        # at every length, E averages exactly 1 over the counts an honest
        # stratum draws: the bound P(E >= 1/alpha) <= alpha rests on it
        for total in range(5):
            mean = F(0)
            for counts in itertools.product(range(total + 1), repeat=len(q)):
                if sum(counts) == total:
                    ways = math.factorial(total) // math.prod(map(math.factorial, counts))
                    chance = math.prod(p**n for p, n in zip(q, counts))
                    mean += ways * chance * kt_e_value(counts, q)
            assert mean == 1, (q, total)

    @settings(max_examples=60, deadline=None)
    @given(ensemble=nonlocal_ensembles(), picks=st.lists(st.integers(0, 10**6), max_size=40))
    def test_log_e_value_is_the_exact_rational(self, ensemble, picks):
        # any honest counts, however unlikely, from any mixture of the 24 vertices
        cells = simulate._cells(ensemble)
        logs = [simulate._stamp(r, cells[i % len(cells)]) for r, i in enumerate(picks)]
        verdict = bx.referee_audit(logs, ensemble)
        assert verdict.mismatch_count == 0
        # E is exactly 1 for one round of a uniform stratum, hence the abs_tol
        assert math.isclose(verdict.log_e_value, log_e_oracle(logs, ensemble),
                            rel_tol=1e-9, abs_tol=1e-12)

    @pytest.mark.parametrize("declared", [canonical_ensemble, reweighted_canonical])
    def test_shuffled_log_same_verdict(self, declared):
        _, logs = bx.run_protocol(canonical_ensemble(), rounds=3000, seed=8)
        shuffled = random.Random(3).sample(logs, len(logs))
        verdict = bx.referee_audit(logs, declared())
        assert bx.referee_audit(shuffled, declared()) == verdict
        assert verdict.passed == (declared is canonical_ensemble)

    def test_weight_below_the_float_range(self):
        # q = w / n underflows as a float; its log does not
        tiny = F(1, 10**400)
        e = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 0): tiny, (0, 0, 1): 1 - tiny})
        logs = [simulate._stamp(0, simulate._cells(e)[0])]
        verdict = bx.referee_audit(logs, e)
        assert verdict.mismatch_count == 0 and not verdict.passed
        # E = 1 / (K q) with K = 4 and q = tiny / 2
        assert math.isclose(verdict.log_e_value, log_e_oracle(logs, e), rel_tol=1e-9)
        assert math.isclose(verdict.log_e_value, 400 * math.log(10) - math.log(2))


class TestRefereeAudit:
    def test_honest_log_passes(self):
        e = canonical_ensemble()
        _, logs = bx.run_protocol(e, rounds=4000, seed=4)
        verdict = bx.referee_audit(logs, e)
        assert verdict.passed
        assert verdict.mismatch_count == 0
        assert verdict.log_e_value < 0 < math.log(1 / verdict.significance)

    def test_corrupted_pr_outcome_detected(self):
        e = canonical_ensemble()
        _, logs = bx.run_protocol(e, rounds=500, seed=4)
        pr_ids = {
            i for i, m in enumerate(e.members) if isinstance(m, bx.PRMember)
        }
        victim = next(i for i, log in enumerate(logs) if log.member_id in pr_ids)
        logs[victim] = dataclasses.replace(logs[victim], b=logs[victim].b ^ 1)
        verdict = bx.referee_audit(logs, e)
        assert not verdict.passed
        assert logs[victim].round_id in verdict.mismatch_rounds

    @pytest.mark.parametrize(
        "on_pr, field, tampered",
        [
            (True, "a", lambda log: 1 - log.a),
            (False, "a", lambda log: 1 - log.a),
            (False, "b", lambda log: 1 - log.b),
            (True, "referee_inference", lambda log: bx.SBox(
                log.referee_inference.alpha, 1 - log.referee_inference.beta
            )),
        ],
        ids=["pr_a", "product_a", "product_b", "inference"],
    )
    def test_round_no_vertex_produces_detected(self, on_pr, field, tampered):
        # one round that the member drawn could not have produced; the
        # constituent its (y, b) implies is unchanged
        e = canonical_ensemble()
        _, logs = bx.run_protocol(e, rounds=500, seed=4)
        victim = next(
            i for i, log in enumerate(logs)
            if isinstance(e.members[log.member_id], bx.PRMember) == on_pr
        )
        logs[victim] = dataclasses.replace(logs[victim], **{field: tampered(logs[victim])})
        verdict = bx.referee_audit(logs, e)
        assert not verdict.passed
        assert verdict.mismatch_count == 1
        assert verdict.mismatch_rounds == (victim,)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("y", 2, "y=2 outside range(0, 2)"),
            ("y", "0", "y='0' outside range(0, 2)"),
            ("alice_actual", None, "alice_actual must be an SBox, got None"),
            ("alice_actual", "S01", "alice_actual must be an SBox, got 'S01'"),
            ("x", None, "x=None outside range(0, 2)"),
            ("alice_actual", [1], "alice_actual must be an SBox, got [1]"),
            ("x", [0], "x=[0] outside range(0, 2)"),
            ("member_id", 1.0, "member_id must be a nonnegative integer, got 1.0"),
            ("round_id", -1, "round_id must be a nonnegative integer, got -1"),
            ("x", True, "x=True outside range(0, 2)"),
            ("x", 2, "x=2 outside range(0, 2)"),
        ],
        ids=["y-2", "y-0", "alice_actual-None", "alice_actual-S01", "x-None",
             "alice_actual-value5", "x-value6", "member_id-1.0", "round_id--1",
             "x-True", "x-2"],
    )
    def test_ill_typed_round_is_one_mismatch(self, field, value, message):
        # the id of this test is older than typed rounds, when an in-process
        # round with a field of the wrong type was audited as one mismatch;
        # such a round is now refused when built, with the NDJSON reader's
        # message for that field, so no log can hold one
        _, logs = bx.run_protocol(canonical_ensemble(), rounds=10, seed=0)
        with pytest.raises(bx.ValidationError, match=f"^{re.escape(message)}$"):
            dataclasses.replace(logs[5], **{field: value})
        fields = {f.name: getattr(logs[5], f.name) for f in dataclasses.fields(bx.RoundLog)}
        with pytest.raises(bx.ValidationError, match=f"^{re.escape(message)}$"):
            bx.RoundLog(**{**fields, field: value})

    def test_corrupted_constituent_detected(self):
        e = canonical_ensemble()
        _, logs = bx.run_protocol(e, rounds=500, seed=4)
        old = logs[37].alice_actual
        swapped = bx.SBox(old.alpha ^ 1, old.beta)
        logs[37] = dataclasses.replace(logs[37], alice_actual=swapped)
        verdict = bx.referee_audit(logs, e)
        assert not verdict.passed
        assert 37 in verdict.mismatch_rounds

    def test_mismatch_list_truncated(self):
        e = canonical_ensemble()
        _, logs = bx.run_protocol(e, rounds=500, seed=4)
        for i in range(30):
            old = logs[i].alice_actual
            logs[i] = dataclasses.replace(
                logs[i], alice_actual=bx.SBox(old.alpha ^ 1, old.beta)
            )
        verdict = bx.referee_audit(logs, e)
        assert verdict.mismatch_count == 30
        assert len(verdict.mismatch_rounds) == 20
        assert verdict.mismatch_rounds == tuple(range(20))

    def test_swapped_member_detected_per_round(self):
        # log generated from PR000, audited against a PR001 declaration:
        # the recomputed constituents disagree round by round
        honest = pr_singleton()
        _, logs = bx.run_protocol(honest, rounds=300, seed=6)
        declared = bx.NonlocalEnsemble.from_weights(prs={(0, 0, 1): F(1)})
        verdict = bx.referee_audit(logs, declared)
        assert not verdict.passed
        assert verdict.mismatch_count == 300

    def test_wrong_weights_fail_frequency_check(self):
        # same members, different weights: per-round recomputation is
        # consistent, so only the e-value can flag it
        honest = canonical_ensemble()
        _, logs = bx.run_protocol(honest, rounds=4000, seed=8)
        verdict = bx.referee_audit(logs, reweighted_canonical())
        assert verdict.mismatch_count == 0
        assert not verdict.passed
        assert verdict.log_e_value >= math.log(1000)

    def test_zero_weight_cell_requires_zero_counts(self):
        e = pr_singleton()
        _, logs = bx.run_protocol(e, rounds=50, seed=0)
        # flipping alpha moves the constituent into the other input's
        # support, where the declared weight at this y is exactly zero:
        # the round is a mismatch, and its cell stays out of the e-value
        old = logs[0].alice_actual
        foreign = bx.SBox(old.alpha ^ 1, old.beta)
        logs[0] = dataclasses.replace(logs[0], alice_actual=foreign)
        verdict = bx.referee_audit(logs, e)
        assert not verdict.passed
        assert verdict.mismatch_count == 1 and verdict.mismatch_rounds == (0,)
        assert verdict.log_e_value == bx.referee_audit(logs[1:], e).log_e_value

    def test_significance_validated(self):
        _, logs = bx.run_protocol(pr_singleton(), rounds=10, seed=0)
        with pytest.raises(bx.ValidationError):
            bx.referee_audit(logs, pr_singleton(), significance=0)

    def test_fraction_significance_writes(self):
        # the verdict holds the float, so its JSON document can be written
        from boxsteer import serialize

        _, logs = bx.run_protocol(pr_singleton(), rounds=10, seed=0)
        verdict = bx.referee_audit(logs, pr_singleton(), significance=F(1, 1000))
        assert type(verdict.significance) is float
        doc = serialize.dumps(serialize.audit_verdict_to_json(verdict))
        assert '"significance": 0.001' in doc
        assert verdict == bx.referee_audit(logs, pr_singleton(), significance=0.001)

    @pytest.mark.parametrize("significance, shown", [
        ("0.01", "0.01"), (False, "False"), ([0.01], "[0.01]"), (1, "1"), (F(3, 2), "3/2"),
        (F(1, 10**400), "1/10000000000000000000000000000000000000...0000000000"),
    ], ids=["str", "bool", "list", "int", "fraction-above-1", "fraction-below-float"])
    def test_significance_not_a_number_in_range(self, significance, shown):
        # a string leaked TypeError; a Fraction whose float is 0.0 has no log(1/alpha)
        _, logs = bx.run_protocol(pr_singleton(), rounds=10, seed=0)
        with pytest.raises(bx.ValidationError) as raised:
            bx.referee_audit(logs, pr_singleton(), significance=significance)
        assert str(raised.value) == f"significance must be in (0, 1), got {shown}"

    def test_empty_log_fails(self):
        verdict = bx.referee_audit([], canonical_ensemble())
        assert not verdict.passed
        assert verdict.mismatch_count == 0
        assert verdict.log_e_value == 0.0

    def test_one_shot_iterator(self):
        e = canonical_ensemble()
        _, logs = bx.run_protocol(e, rounds=2000, seed=4)
        old = logs[3].alice_actual
        logs[3] = dataclasses.replace(logs[3], alice_actual=bx.SBox(old.alpha ^ 1, old.beta))
        expected = bx.referee_audit(logs, e)
        assert bx.referee_audit((log for log in logs), e) == expected
        assert expected.mismatch_count == 1 and expected.log_e_value < 0

    def test_sbox_hash_is_the_dataclass_hash(self):
        # computed once per S box, the same value, so no set or dict order moves
        for alpha, beta in itertools.product(BITS, BITS):
            assert hash(bx.SBox(alpha, beta)) == hash((alpha, beta))

    def test_seen_cell_hashes_its_sboxes_once(self, monkeypatch):
        e = canonical_ensemble()
        _, logs = bx.run_protocol(e, rounds=10, seed=4)
        tally = simulate.LogTally(e)
        tally.add(logs[0])
        calls = []
        sbox_hash = bx.SBox.__hash__

        def counted(sbox):
            calls.append(sbox)
            return sbox_hash(sbox)

        monkeypatch.setattr(bx.SBox, "__hash__", counted)
        tally.add(dataclasses.replace(logs[0], round_id=10))
        assert len(calls) <= 2  # one lookup of the cell, two S boxes in it
        monkeypatch.undo()
        assert bx.referee_audit([logs[0]] * 2, e) == tally.verdict()

    def test_tally_matches_per_round_oracle(self):
        # reference: per-round loops over the rule, on a log with
        # out-of-range members, flipped inputs and outcomes, swapped
        # inferences and constituents, and reordering
        e = canonical_ensemble()
        _, logs = bx.run_protocol(e, rounds=1500, seed=17)
        logs = logs[::-1]
        for i in range(0, 1500, 37):
            logs[i] = dataclasses.replace(logs[i], member_id=5 + i % 3)
        for i in range(5, 1500, 53):
            old = logs[i].alice_actual
            logs[i] = dataclasses.replace(logs[i], alice_actual=bx.SBox(old.alpha, old.beta ^ 1))
        for i in range(9, 1500, 61):
            logs[i] = dataclasses.replace(logs[i], x=logs[i].x ^ 1)
        for i in range(13, 1500, 43):
            logs[i] = dataclasses.replace(logs[i], a=logs[i].a ^ 1)
        for i in range(17, 1500, 59):
            old = logs[i].referee_inference
            logs[i] = dataclasses.replace(logs[i], referee_inference=bx.SBox(old.alpha ^ 1, old.beta))
        members = e.members

        def offends(log):
            if not 0 <= log.member_id < len(members):
                return True
            if not {log.x, log.y, log.a, log.b} <= {0, 1}:
                return True
            member = members[log.member_id]
            implied = bx.constituent_after_measurement(member, log.y, log.b)
            return member_box(member).prob(log.x, log.y, log.a, log.b) == 0 or not (
                log.referee_inference == log.alice_actual == implied
            )

        offending = [log.round_id for log in logs if offends(log)]
        verdict = bx.referee_audit(logs, e)
        assert verdict.mismatch_count == len(offending) > 20
        assert verdict.mismatch_rounds == tuple(offending[:20])
        honest = [log for log in logs if not offends(log)]
        assert math.isclose(verdict.log_e_value, log_e_oracle(honest, e), rel_tol=1e-9)


class TestReportFromCounts:
    def test_frequencies_match_per_round_oracle(self):
        policy = bx.InputPolicy(((F(1, 2), F(1, 4)), (F(1, 4), F(0))))
        report, logs = bx.run_protocol(
            canonical_ensemble(), rounds=700, seed=2**32 - 1, policy=policy
        )
        for x, y, a, b in itertools.product(BITS, repeat=4):
            at_xy = [log for log in logs if (log.x, log.y) == (x, y)]
            cell = report.empirical_joint[x][y][a][b]
            if not at_xy:
                assert cell is None
            else:
                hits = sum((log.a, log.b) == (a, b) for log in at_xy)
                assert cell == hits / len(at_xy)
        for key, frequencies in report.alice_frequencies_by_outcome.items():
            at_key = [log for log in logs if (log.y, log.b) == key]
            assert frequencies == {
                s: sum(log.alice_actual == s for log in at_key) / len(at_key)
                for s in {log.alice_actual for log in at_key}
            }
        assert list(report.alice_frequencies) == [0, 1]
        assert report.rounds == 700

    @settings(max_examples=20, deadline=None)
    @given(
        nonlocal_ensembles(),
        weight_vectors(4),
        st.sampled_from(ORACLE_SEEDS) | st.integers(0, 2**70),
        st.integers(1, 40) | st.integers(_stream._BLOCK - 3, _stream._BLOCK + 40),
    )
    def test_block_tally_matches_per_round_tally(self, ensemble, weights, seed, rounds):
        # counted a block of cell ids at a time or a round at a time, the
        # counts by cell id, and so the report, are the same
        policy = bx.InputPolicy(((weights[0], weights[1]), (weights[2], weights[3])))
        report, logs = bx.run_protocol(ensemble, rounds, seed, policy)
        assert logs == _reference_rounds(ensemble, rounds, seed, policy)
        per_round = simulate.LogTally(ensemble)
        for log in logs:
            per_round.add(log)
        expected = per_round.report(seed, policy)
        assert report == expected and repr(report) == repr(expected)
        by_block = simulate.LogTally(ensemble)
        for _, ids in simulate._cell_blocks(ensemble, rounds, seed, policy):
            by_block.add_block(ids)
        assert by_block.counts == per_round.counts
        assert per_round.mismatch_count == 0 and sum(per_round.counts) == rounds
        cells = simulate._cells(ensemble)
        assert per_round.counts == [
            sum(simulate._cell(log) == cell for log in logs) for cell in cells
        ]

    @settings(max_examples=30, deadline=None)
    @given(
        nonlocal_ensembles(),
        weight_vectors(4),
        st.sampled_from(ORACLE_SEEDS) | st.integers(0, 2**70),
        st.integers(1, 40),
    )
    def test_key_order_is_the_ensembles(self, ensemble, weights, seed, rounds):
        # groups sorted, values in the order of their first cell in the
        # table: the order depends on the ensemble alone, not on the draws
        policy = bx.InputPolicy(((weights[0], weights[1]), (weights[2], weights[3])))
        report, _ = bx.run_protocol(ensemble, rounds, seed, policy)
        cells = simulate._cells(ensemble)
        assert len(set(cells)) == len(cells)  # a cell's id is its only index

        def table_order(group, value):
            order = {}
            for cell in cells:
                order.setdefault(group(cell), {}).setdefault(value(cell))
            return order

        for frequencies, group, value in [
            (report.alice_frequencies, lambda c: c[2], lambda c: c[6]),
            (report.alice_frequencies_by_outcome, lambda c: (c[2], c[4]), lambda c: c[6]),
        ]:
            order = table_order(group, value)
            assert list(frequencies) == sorted(frequencies)
            for key, by_value in frequencies.items():
                assert list(by_value) == [v for v in order[key] if v in by_value]

    def test_held_log_size(self):
        # a RoundLog has slots: held, it takes 136 bytes with its round id
        # and its place in the list, where one with a __dict__ took 184
        _, logs = bx.run_protocol(canonical_ensemble(), rounds=10, seed=0)
        tracemalloc.start()
        try:
            held = list(itertools.starmap(simulate._stamp, zip(
                range(10**6, 10**6 + 10**4), map(simulate._cell, itertools.cycle(logs)))))
            size = tracemalloc.get_traced_memory()[0] / len(held)
        finally:
            tracemalloc.stop()
        assert size <= 184
        assert not hasattr(held[0], "__dict__")


# four rounds of the (1/4, 1/2) plan, seed 0, as simulate --out writes them
FIXED_LOG = (
    '{"a": 0, "alice_actual": "S10", "b": 0, "member_id": 2, '
    '"referee_inference": "S10", "round_id": 0, "x": 0, "y": 1}\n'
    '{"a": 1, "alice_actual": "S01", "b": 1, "member_id": 2, '
    '"referee_inference": "S01", "round_id": 1, "x": 1, "y": 0}\n'
    '{"a": 1, "alice_actual": "S01", "b": 0, "member_id": 0, '
    '"referee_inference": "S01", "round_id": 2, "x": 0, "y": 1}\n'
    '{"a": 0, "alice_actual": "S11", "b": 1, "member_id": 2, '
    '"referee_inference": "S11", "round_id": 3, "x": 1, "y": 1}\n'
)

PR_BOX = str(Path(__file__).resolve().parent / "pr_box.json")
# the README pair, one ensemble per Bob input, both mixing to the uniform state
PR_PAIR = (
    '[{"X": 2, "A": 2, "members": [{"w": "1/2", "f": [0, 0]}, {"w": "1/2", "f": [1, 1]}]}, '
    '{"X": 2, "A": 2, "members": [{"w": "1/2", "f": [0, 1]}, {"w": "1/2", "f": [1, 0]}]}]'
)


def command(*argv):
    """A child's code that runs ``boxsteer *argv`` in-process and needs exit 0;
    ``PAIR`` in ``argv`` stands for a file holding PR_PAIR."""
    return f"from boxsteer import cli\nassert cli.main({list(argv)!r}) == 0"


# each child's code, and the modules it must not load
LIGHT_IMPORTS = {
    "import": ("import boxsteer", ("numpy", "scipy")),
    "blind": ("from boxsteer import cli; cli.main(['blind', '1/4', '1/2'])", ("numpy",)),
    "decompose": (command("decompose", PR_BOX), ("numpy", "scipy")),
    "check": (command("check", PR_BOX), ("numpy", "scipy")),
    "steer": (command("steer", "PAIR"), ("numpy", "scipy")),
    "verify": (command("verify", PR_BOX, "PAIR"), ("numpy", "scipy")),
    "audit": (
        "import boxsteer as bx\n"
        "from boxsteer import serialize\n"
        "e = bx.plan_blind_steering(bx.TargetState('1/4', '1/2')).ensemble\n"
        f"verdict = bx.referee_audit(serialize.logs_from_ndjson({FIXED_LOG!r}), e)\n"
        "assert verdict.passed and verdict.log_e_value < 0",
        ("numpy", "scipy"),
    ),
    "simulate": (
        "import boxsteer as bx\n"
        "e = bx.plan_blind_steering(bx.TargetState('1/4', '1/2')).ensemble\n"
        "report, _ = bx.run_protocol(e, 200, 0)\n"
        "assert report.verdict.passed",
        ("scipy",),
    ),
}


@pytest.mark.parametrize("child", sorted(LIGHT_IMPORTS))
def test_child_loads_only_what_it_runs(child, tmp_path):
    # numpy loads only when rounds are drawn, and scipy never
    code, unloaded = LIGHT_IMPORTS[child]
    pair = tmp_path / "pair.json"
    pair.write_text(PR_PAIR, encoding="utf-8")
    code = code.replace("'PAIR'", repr(str(pair)))
    check = f"import sys\nloaded = [m for m in {unloaded!r} if m in sys.modules]\nassert not loaded, loaded"
    done = subprocess.run(
        [sys.executable, "-c", f"{code}\n{check}"], capture_output=True, text=True
    )
    assert done.returncode == 0, done.stderr

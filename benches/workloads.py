"""The four benchmark workloads.

Each is closed-loop with one client: one process, no worker threads,
and the next op starts when the previous one has finished.  A workload
turns the seeded ``random.Random`` into plain inputs (``make``), runs
one op against the library namespace it is given (``run``, the timed
part), and checks the outputs with the oracles (``check``, untimed).
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import inputs
import oracles
from spans import CLI_COMMANDS

GOLDEN_FILE = Path(__file__).with_name("golden.json")
# Ops at this workload seed are checked against stored log digests.
GOLDEN_SEED = 1
# Every run first replays this many golden experiments, whatever its seed.
GOLDEN_REPLAY = 3
CHILD_TIMEOUT_S = 120


@dataclasses.dataclass(frozen=True)
class Sizes:
    protocol_rounds: int = 1000   # rounds per in-process protocol op
    cli_rounds: int = 10000       # rounds per `boxsteer simulate` op
    tamper_rounds: int = 5000     # log length for the audit-strength probe
    setup_reps: int = 3           # fresh processes timed for setup_s


FULL = Sizes()
# One op of every workload at these sizes starts each traced run.
PROBE = dataclasses.replace(FULL, protocol_rounds=200, cli_rounds=500)


@dataclasses.dataclass
class Counters:
    """Counts the oracles collect while checking ops."""

    protocol_rounds: int = 0   # rounds through in-process protocol ops
    log_bytes: int = 0         # NDJSON bytes those ops encoded
    honest_audited: int = 0    # honest logs audited
    honest_flagged: int = 0    # of those, failed at the declared significance
    max_den_bits: int = 0      # bit length of decompose's largest denominator


def fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def ensemble_doc(products: dict, prs: dict) -> dict:
    """A nonlocal ensemble in the CLI's JSON format."""
    return {
        "products": [
            {"w": fraction_text(w), "ij": list(ij), "kl": list(kl)}
            for (ij, kl), w in products.items()
        ],
        "prs": [{"w": fraction_text(w), "abd": list(abd)} for abd, w in prs.items()],
    }


def box_doc(flat) -> dict:
    """A 2x2x2x2 box in the CLI's JSON format (rows x*2+y, entries a*2+b)."""
    return {
        "X": 2, "Y": 2, "A": 2, "B": 2,
        "table": [[fraction_text(Fraction(p)) for p in flat[4 * r:4 * r + 4]]
                  for r in range(4)],
    }


def doc_weights(doc: dict) -> tuple[dict, dict]:
    products = {
        (tuple(m["ij"]), tuple(m["kl"])): Fraction(m["w"]) for m in doc["products"]
    }
    prs = {tuple(m["abd"]): Fraction(m["w"]) for m in doc["prs"]}
    return products, prs


class Workload:
    name = ""
    cycle = ("op",)   # op kinds, in the order consecutive ops take them
    # A run ends on a multiple of this many ops, after which the mix of
    # op kinds and input sizes repeats, so that a slow host or a fast
    # one sees the same mix.
    period = 1

    def __init__(self, root: Path, seed: int, sizes: Sizes, counters: Counters,
                 workdir: Path):
        self.root = root
        self.seed = seed
        self.sizes = sizes
        self.counters = counters
        self.workdir = workdir

    def setup(self) -> None:
        """Untimed preparation shared by all ops."""

    def kind(self, index: int) -> str:
        return self.cycle[index % len(self.cycle)]

    def make(self, rng: random.Random, index: int):
        raise NotImplementedError

    def warm_up_item(self):
        """The input of the untimed op before a run's measured ones."""
        return self.make(random.Random("warm-up"), 0)

    def run(self, lib, item):
        raise NotImplementedError

    def check(self, item, result) -> list[str]:
        raise NotImplementedError

    def rounds(self, item) -> int:
        """Protocol rounds the op carries (for rounds_per_s)."""
        return 0


# ---------------------------------------------------------------------------
# protocol: one Referee experiment per op
# ---------------------------------------------------------------------------


class Protocol(Workload):
    """run_protocol -> logs_to_ndjson -> logs_from_ndjson -> referee_audit
    on a blind-steering plan.  Plans and policies are a fixed catalog; the
    workload seed gives each op its simulation seed."""

    name = "protocol"

    def setup(self) -> None:
        import boxsteer as bx

        rng = random.Random("protocol-catalog")
        self.plans = []
        for _ in range(6):
            s, t = inputs.grid_target(rng)
            target = bx.TargetState(s, t)
            split = bx.NonlocalEnsemble.from_weights(*inputs.blind_split(rng, s, t))
            self.plans.append(bx.plan_blind_steering(target).ensemble)
            self.plans.append(bx.plan_blind_steering(target, split).ensemble)
        self.policies = [bx.InputPolicy.uniform()] + [
            bx.InputPolicy(inputs.skewed_policy(rng)) for _ in range(3)
        ]
        self.period = len(self.plans)
        golden = json.loads(GOLDEN_FILE.read_text()) if GOLDEN_FILE.exists() else {}
        self.golden = (
            golden["digests"] if golden.get("rounds") == self.sizes.protocol_rounds else []
        )

    def make(self, rng, index):
        """(plan, policy, simulation seed, golden log digest or None).
        Ops walk through every plan and policy pairing in turn, so that
        runs at different seeds see the same mix of plan sizes."""
        golden = None
        if self.seed == GOLDEN_SEED and index < len(self.golden):
            golden = self.golden[index]
        plan = index % len(self.plans)
        policy = (index // len(self.plans) + plan) % len(self.policies)
        return plan, policy, rng.randrange(2**32), golden

    def warm_up_item(self):
        # made at index 0 like the first golden op, but not that op
        return super().warm_up_item()[:3] + (None,)

    def golden_items(self, count: int) -> list:
        """The first ``count`` experiments of the golden seed, each with
        its stored digest."""
        rng = workload_rng(self.name, GOLDEN_SEED)
        return [self.make(rng, k)[:3] + (digest,)
                for k, digest in enumerate(self.golden[:count])]

    def run(self, lib, item):
        plan, policy, seed, _ = item
        ensemble = self.plans[plan]
        report, logs = lib.run_protocol(
            ensemble, rounds=self.sizes.protocol_rounds, seed=seed,
            policy=self.policies[policy])
        text = lib.logs_to_ndjson(logs)
        decoded = lib.logs_from_ndjson(text)
        verdict = lib.referee_audit(decoded, ensemble)
        return report, logs, text, decoded, verdict

    def check(self, item, result):
        report, logs, text, decoded, verdict = result
        rounds = self.sizes.protocol_rounds
        problems = oracles.check_protocol(rounds, report, logs, decoded, verdict)
        digest = hashlib.sha256(text.encode()).hexdigest()
        if item[3] is not None and digest != item[3]:
            problems.append(f"log digest {digest[:12]} differs from golden {item[3][:12]}")
        c = self.counters
        c.protocol_rounds += rounds
        c.log_bytes += len(text.encode())
        c.honest_audited += 1
        c.honest_flagged += not verdict.passed and not verdict.mismatch_count
        return problems

    def rounds(self, item):
        return self.sizes.protocol_rounds


# ---------------------------------------------------------------------------
# geometry: the exact one-bit polytope
# ---------------------------------------------------------------------------


class Geometry(Workload):
    name = "geometry"

    def make(self, rng, index):
        return inputs.geometry_box(rng)

    def run(self, lib, flat):
        box = lib.BipartiteBox(inputs.nest(flat))
        violations = lib.no_signalling_violations(box)
        ensemble = lib.decompose(box)
        remix = lib.mix_nonlocal(ensemble)
        return violations, ensemble, remix, lib.is_local(box)

    def check(self, flat, result):
        violations, ensemble, remix, local = result
        bits = max(m.weight.denominator.bit_length() for m in ensemble.members)
        self.counters.max_den_bits = max(self.counters.max_den_bits, bits)
        return oracles.check_geometry(flat, violations, ensemble, remix, local)


# ---------------------------------------------------------------------------
# construct: remote preparation and blind planning
# ---------------------------------------------------------------------------


class Construct(Workload):
    """One remote-preparation case, then two blind targets, repeating.
    Remote cases cost 2-90 ms by shape and blind ones 30-75 ms (on a
    2-vCPU VM); a fixed mix with two blind ops to one remote puts the
    op-time median where op times are dense, so it does not jump with
    the seed.  The remote cases take every shape in turn."""

    name = "construct"
    cycle = ("remote", "blind", "blind")
    period = len(cycle) * len(inputs.SAME_MIXTURE_SHAPES)

    def make(self, rng, index):
        if self.kind(index) == "remote":
            shapes = inputs.SAME_MIXTURE_SHAPES
            return ("remote",) + inputs.same_mixture_case(rng, shapes[index // 3 % len(shapes)])
        s, t = inputs.grid_target(rng)
        products, prs = inputs.blind_split(rng, s, t)
        seen = [(y, b) for y in inputs.BITS for b in oracles.bob_outcomes(products, prs, y)]
        return ("blind", (s, t), products, prs, seen)

    def run(self, lib, item):
        if item[0] == "remote":
            _, num_outputs, sources = item
            ensembles = [
                lib.Ensemble(tuple(
                    (w, lib.LocalBox(inputs.strategy_table(f, num_outputs)))
                    for w, f in members))
                for members in sources
            ]
            state = lib.construct_steering_state(ensembles)
            report = lib.verify_steering_state(state)
            return state, report, [lib.steered_ensemble(state, y) for y in range(len(sources))]
        _, (s, t), products, prs, seen = item
        plan = lib.plan_blind_steering(lib.TargetState(s, t), lib.from_weights(products, prs))
        return plan, {(y, b): lib.bob_posterior(plan.ensemble, y, b) for y, b in seen}

    def check(self, item, result):
        if item[0] == "remote":
            return oracles.check_steering(item[1], item[2], *result)
        return oracles.check_blind(item[1], *result)


# ---------------------------------------------------------------------------
# cli: one `boxsteer` child process per op
# ---------------------------------------------------------------------------


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_child(argv: list[str], root: Path, cwd: Path, stdout: Path) -> int:
    """Run one child to completion with stdout in a file; returns its
    exit code, or -1 after killing it at the timeout."""
    with open(stdout, "wb") as out:
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.DEVNULL,
                                cwd=cwd, env=child_env(root))
        try:
            return proc.wait(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            return -1


def in_process(argv: list[str]) -> tuple[int, str]:
    """``boxsteer.cli.main`` in this process: (exit code, stdout)."""
    from boxsteer import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


class Cli(Workload):
    """`blind`, `decompose`, `check`, `simulate --out` and `audit` of the
    log that simulate wrote, in turn.  Input files are written before
    the op's clock starts; each child's result is compared with
    ``boxsteer.cli.main`` run in this process on the same arguments."""

    name = "cli"
    cycle = CLI_COMMANDS
    period = len(cycle)

    def make(self, rng, index):
        command = self.kind(index)
        base = self.workdir / f"op{index}"
        base.mkdir(parents=True, exist_ok=True)
        if command == "blind":
            s, t = inputs.grid_target(rng)
            return command, [fraction_text(s), fraction_text(t)], base, (s, t)
        if command in ("decompose", "check"):
            flat = inputs.geometry_box(rng)
            (base / "box.json").write_text(json.dumps(box_doc(flat)))
            return command, [str(base / "box.json")], base, flat
        if command == "simulate":
            s, t = inputs.grid_target(rng)
            (base / "ensemble.json").write_text(
                json.dumps(ensemble_doc(*inputs.blind_split(rng, s, t))))
            policy = "uniform"
            if rng.random() < 0.5:
                table = inputs.skewed_policy(rng)
                policy = json.dumps({"table": [[fraction_text(p) for p in row] for row in table]})
            self.simulated = base
            return command, [
                str(base / "ensemble.json"), "--rounds", str(self.sizes.cli_rounds),
                "--seed", str(rng.randrange(2**32)), "--policy", policy,
                "--out", str(base / "out"),
            ], base, None
        sim = self.simulated
        return command, [str(sim / "out" / "logs.ndjson"), str(sim / "ensemble.json")], base, None

    def run(self, lib, item):
        command, args, base, _ = item
        with lib.span(f"cli.{command}"):
            return run_child([sys.executable, "-m", "boxsteer", command, *args],
                             self.root, base, base / "stdout")

    def check(self, item, code):
        command, args, base, data = item
        if command == "simulate":
            # the reference writes its own directory; the files must match
            out, ref = base / "out", base / "ref"
            ref_code, _ = in_process([command, *args[:-1], str(ref)])
            problems = [f"simulate wrote a {name} that differs in-process"
                        for name in ("report.json", "logs.ndjson")
                        if (out / name).read_bytes() != (ref / name).read_bytes()]
            problems += self._log_problems(out / "logs.ndjson")
            doc = json.loads((out / "report.json").read_text())
        else:
            ref_code, ref_stdout = in_process([command, *args])
            stdout = (base / "stdout").read_text()
            problems = [] if stdout == ref_stdout else [f"{command} printed a different document"]
            doc = json.loads(stdout)
        if code != ref_code:
            problems.append(f"{command} exited {code}, in-process {ref_code}")
        if command in ("simulate", "audit"):
            return problems + self._verdict_problems(command, code, doc["verdict"])
        if command == "blind":
            return problems + self._blind_problems(code, doc, data)
        if code != 0:
            problems.append(f"{command} exited {code}")
        if command == "decompose" and inputs.mix_weights(*doc_weights(doc["ensemble"])) != tuple(data):
            problems.append("decompose output does not remix to the box")
        if command == "check" and doc != {"ns": True, "local": oracles.chsh_local(data)}:
            problems.append(f"check printed {doc}, CHSH oracle disagrees")
        return problems

    def _log_problems(self, path: Path) -> list[str]:
        logs = [json.loads(line) for line in path.open()]
        if len(logs) != self.sizes.cli_rounds:
            return [f"simulate logged {len(logs)} rounds"]
        if any(log["referee_inference"] != log["alice_actual"] for log in logs):
            return ["a logged round has referee_inference != alice_actual"]
        return []

    def _verdict_problems(self, command, code, verdict):
        """An honest log: no mismatching round, and the exit code follows
        the verdict.  A statistical flag on it is counted, not failed."""
        self.counters.honest_audited += 1
        if verdict["mismatch_count"]:
            return [f"{command}: audit found {verdict['mismatch_count']} mismatching rounds"]
        if not verdict["passed"]:
            self.counters.honest_flagged += 1
        if code != (0 if verdict["passed"] else 5):
            return [f"{command} exited {code} on verdict passed={verdict['passed']}"]
        return []

    def _blind_problems(self, code, doc, target):
        report = doc["report"]
        problems = []
        if code != 0 or not report["passed"]:
            problems.append("blind report did not pass")
        products, prs = doc_weights(doc["ensemble"])
        if oracles.alice_marginal(products, prs) != target:
            problems.append("blind ensemble's Alice marginal is not the target")
        supports = report["bob_posterior_supports"]
        if not supports or any(len(labels) < 2 for labels in supports.values()):
            problems.append(f"Bob's posterior supports {supports} single out a constituent")
        return problems

    def rounds(self, item):
        return self.sizes.cli_rounds if item[0] in ("simulate", "audit") else 0


WORKLOADS = {cls.name: cls for cls in (Protocol, Geometry, Construct, Cli)}


def workload_rng(name: str, seed: int) -> random.Random:
    return random.Random(f"boxsteer-bench/{name}/{seed}")


# ---------------------------------------------------------------------------
# audit strength
# ---------------------------------------------------------------------------


def audit_strength(rounds: int) -> tuple[int, int]:
    """Apply ten tamperings to an honest log of the (1/4, 1/2) plan and
    count how many ``referee_audit`` rejects: (rejected, tampered)."""
    import boxsteer as bx

    plan = bx.plan_blind_steering(bx.TargetState(Fraction(1, 4), Fraction(1, 2)))
    ensemble = plan.ensemble
    _, logs = bx.run_protocol(ensemble, rounds=rounds, seed=0)
    members = ensemble.members
    is_pr = [isinstance(members[log.member_id], bx.PRMember) for log in logs]
    pr_round = is_pr.index(True)
    product_round = is_pr.index(False)

    def edit(position, **changes):
        out = list(logs)
        out[position] = dataclasses.replace(logs[position], **changes)
        return out

    def forced_x0(log):
        member = members[log.member_id]
        if isinstance(member, bx.PRMember):
            a = member.box.parity(0, log.y) ^ log.b
        else:
            a = member.alice.output(0)
        return dataclasses.replace(log, x=0, a=a)

    pr, prod = logs[pr_round], logs[product_round]
    wrong = bx.SBox(pr.referee_inference.alpha, 1 - pr.referee_inference.beta)
    tampered = [
        edit(pr_round, a=1 - pr.a),
        edit(pr_round, x=1 - pr.x),
        edit(product_round, a=1 - prod.a),
        edit(product_round, b=1 - prod.b),
        edit(pr_round, referee_inference=wrong),
        [logs[0]] * 3 + logs,
        logs[:100] + logs[200:],
        [dataclasses.replace(log, round_id=7) for log in logs],
        [forced_x0(log) for log in logs],
        [],
    ]
    rejected = sum(not bx.referee_audit(log, ensemble).passed for log in tampered)
    return rejected, len(tampered)


def write_golden(count: int = 256) -> None:
    """Store the log digests of the first ``count`` protocol experiments
    at the golden seed, as the code that runs this writes them."""
    from spans import library

    rounds = FULL.protocol_rounds
    protocol = Protocol(Path(), GOLDEN_SEED, FULL, Counters(), Path())
    protocol.setup()
    lib = library()
    rng = workload_rng(protocol.name, GOLDEN_SEED)
    digests = []
    for k in range(count):
        _, _, text, _, _ = protocol.run(lib, protocol.make(rng, k))
        digests.append(hashlib.sha256(text.encode()).hexdigest())
    GOLDEN_FILE.write_text(json.dumps(
        {"seed": GOLDEN_SEED, "rounds": rounds, "digests": digests}, indent=0) + "\n")


if __name__ == "__main__":
    # python3 benches/workloads.py: rewrite golden.json from the current
    # library.  Do this only when a change to the log bytes is intended.
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    write_golden()

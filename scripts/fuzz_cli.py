#!/usr/bin/env python3
"""A longer, seeded run of the CLI fuzz test.

    python3 scripts/fuzz_cli.py --seed 1 --examples 3000

Runs the contract of ``tests/test_cli_fuzz.py`` on ``--examples``
mutated inputs drawn from ``--seed``, where the test runs a fixed 800:
``cli.main`` returns 0, 2, 3 or 5 without raising, bad input is one
``error:`` line of at most 200 bytes, and stdout is strict JSON.  The
inputs come from the mutation helpers in ``tests/strategies.py``.  On
success it prints how many runs of each subcommand ended with each exit
code; a broken contract is reported with its shrunk example, and the
script exits 1.  Needs the test dependencies (hypothesis, pytest).
"""

import argparse
import collections
import sys
from pathlib import Path

from hypothesis import HealthCheck, given, seed, settings
from hypothesis import strategies as st

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

import test_cli_fuzz  # noqa: E402
from boxsteer import cli  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--examples", type=int, default=3000)
    args = parser.parse_args(argv)
    if args.examples < 1:
        parser.error("--examples must be at least 1")

    tally = collections.Counter()
    run_cli = cli.main

    def counted(cli_args):
        code = run_cli(cli_args)
        tally[cli_args[0], code] += 1
        return code

    contract = test_cli_fuzz.test_cli_contract_under_mutation.hypothesis.inner_test
    fuzz = seed(args.seed)(
        settings(
            database=None,
            max_examples=args.examples,
            deadline=None,
            suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        )(given(st.data())(contract))
    )
    cli.main = counted
    try:
        fuzz()
    finally:
        cli.main = run_cli
    print(f"seed {args.seed}: {sum(tally.values())} runs kept the CLI contract")
    for (command, code), count in sorted(tally.items()):
        print(f"  {command:<9} exit {code}: {count}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

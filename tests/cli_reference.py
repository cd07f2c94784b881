"""The reference for `cli.main`: every argv parsed by the full grammar.

`cli.main` parses a call that names a subcommand with that subcommand's
parser alone, and builds the grammar of every subcommand only for the help
and errors.  `main_full_grammar` parses every argv with the full grammar and
then runs the handler as `cli.main` does, so the two must print the same
and exit with the same code for every argv.
"""

import sys

from cacti import cli
from cacti.stats import (BudgetExceeded, InconsistentResult, UsageError,
                         ValidationError)


def main_full_grammar(argv: list[str]) -> int:
    args = cli.build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValidationError, UsageError, BudgetExceeded, InconsistentResult) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2

"""What one call of `cli.main` builds.

A call whose first argument names a subcommand builds one parser, with only
that subcommand's options; the parser with every subcommand's options is
built only for the help, an unknown command or arguments left over.  Either
way stdout, stderr and exit code must be those of the full grammar.  On the
oracle route, pointed counts and rooted counts at every level print the
closed forms' values.
"""

import argparse

import pytest

from cacti import cli, formulas, oracle, stats
from cli_reference import main_full_grammar

# (argv, whether the oracle route is replaced by one that answers -1)
SEQUENCE = [
    (["count", "--m", "3", "--colors", "4,4,5", "--mode", "unlabelled"], False),
    (["count", "--m", "2", "--degrees", "1^2 2^2 4^1; 1^2 2^4", "--mode",
      "pointed", "--color", "2", "--format", "json"], False),
    (["table", "2", "--format", "csv"], False),
    (["count", "--m", "3", "--p", "4", "--mode", "aut-exact"], False),
    (["count", "--m", "3", "--p", "3", "--mode", "rooted", "--bogus"], False),
    (["count", "--m", "3", "--p", "3", "--mode", "rooted", "--order", "5"], False),
    (["count", "--m", "3", "--p", "3", "--mo", "rooted"], False),
    (["--help"], False),
    (["-h", "count"], False),
    (["--help", "count"], False),
    (["verify", "--m", "2", "--p-max", "3"], False),
    (["verify", "--m", "2", "--p-max", "3", "extra"], False),
    (["count", "--m", "3", "--p", "3", "--mode", "asymmetric",
      "--check", "oracle"], True),
    (["count", "--m", "3", "--p", "3", "--mode", "asymmetric",
      "--check", "oracle"], False),
    (["series", "--m", "3", "--order", "5", "--target", "rooted"], False),
    (["count", "--m", "two", "--p", "3", "--mode", "rooted"], False),
    (["table", "3", "--m-range", "2..3", "--p-max", "5"], False),
    ([], False),
    (["series", "--m", "2", "--order", "9", "--target", "unlabelled",
      "--one-sort", "--format", "json"], False),
    (["count", "--help"], False),
    (["table", "--help"], False),
    (["count", "--m", "2", "--p", "5", "--mode", "fancy"], False),
    (["series", "--m", "3", "--order", "5", "--target", "planted",
      "--color", "4"], False),
    (["verify", "--m", "3", "--p-max", "2", "--format", "json"], False),
    (["count", "--m", "2", "--colors", "3,4", "--mode", "rooted", "--path",
      "series", "--check", "oracle"], True),
    (["frobnicate"], False),
    (["-1", "count"], False),
    (["--", "count", "--m", "2", "--p", "3", "--mode", "rooted"], False),
    (["--m", "2", "count"], False),
    (["table", "1"], False),
]


# The calls of SEQUENCE with arguments that the subcommand's parser leaves.
LEFTOVER = [
    ["count", "--m", "3", "--p", "3", "--mode", "rooted", "--bogus"],
    ["count", "--m", "3", "--p", "3", "--mode", "rooted", "--order", "5"],
    ["verify", "--m", "2", "--p-max", "3", "extra"],
]


def _outcomes(capsys, monkeypatch, main) -> list[tuple]:
    """(exit code, stdout, stderr, argument parsers built) of each call."""
    init = argparse.ArgumentParser.__init__
    built = []

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    results = []
    for argv, broken_oracle in SEQUENCE:
        built.clear()
        with monkeypatch.context() as patch:
            patch.setattr(argparse.ArgumentParser, "__init__", counted)
            if broken_oracle:
                patch.setitem(cli.ROUTES, "oracle", lambda mode, stat, **options: -1)
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err, len(built)))
    return results


def test_each_call_matches_the_full_grammar(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    calls = _outcomes(capsys, monkeypatch, cli.main)
    full = _outcomes(capsys, monkeypatch, main_full_grammar)
    for (argv, _), a, b in zip(SEQUENCE, calls, full):
        assert a[:3] == b[:3], argv
    grammar = 1 + len(cli.SUBCOMMANDS)  # the top level and each subcommand
    assert {b[3] for b in full} == {grammar}
    assert [a[3] for a in calls] == [
        grammar if not argv or argv[0] not in cli.SUBCOMMANDS
        else 1 + grammar if argv in LEFTOVER else 1
        for argv, _ in SEQUENCE]
    codes = [code for code, _, _, _ in calls]
    assert {0, 1, 2} <= set(codes)


def test_other_subcommands_get_no_options(capsys):
    parser = cli.build_parser("table")
    assert parser.parse_args(["2"]).which == 2
    with pytest.raises(SystemExit):
        parser.parse_args(["2", "--mode", "rooted", "--colors", "4,4,5"])
    assert capsys.readouterr().err.endswith(
        "cacti table: error: unrecognized arguments: --mode rooted --colors 4,4,5\n")
    full = cli.build_parser()
    for argv, handler in [
            (["count", "--m", "2", "--p", "3", "--mode", "rooted"], cli.cmd_count),
            (["table", "2"], cli.cmd_table),
            (["verify", "--m", "2", "--p-max", "3"], cli.cmd_verify),
            (["series", "--m", "2", "--order", "3", "--target", "rooted"],
             cli.cmd_series)]:
        assert full.parse_args(argv).func is handler
        assert cli.build_parser(argv[0]).parse_args(argv[1:]).func is handler


def test_a_replaced_handler_runs(capsys, monkeypatch):
    seen = []
    monkeypatch.setattr(cli, "cmd_table", lambda args: seen.append(args.which) or 0)
    assert cli.main(["table", "2"]) == 0
    assert seen == [2] and capsys.readouterr().out == ""


@pytest.mark.parametrize("m, p", [(3, 4), (2, 6)])
def test_oracle_classes_and_counts_build_no_graph(capsys, m, p):
    degrees = oracle.enumerate_unlabelled(m, p)[-1][1].degrees
    colors = stats.color_marginal(degrees)
    queries = [
        (["--p", str(p), "--mode", "pointed"],
         formulas.count_pointed(stats.size_stat(m, p), None)),
        (["--colors", ",".join(map(str, colors.counts)), "--mode", "rooted"],
         formulas.count_rooted(colors)),
        (["--degrees", "; ".join(" ".join(f"{j}^{k}" for j, k in row)
                                 for row in degrees.rows), "--mode", "rooted"],
         formulas.count_rooted(degrees)),
    ]
    for query, expected in queries:
        assert cli.main(["count", "--m", str(m), *query, "--path", "oracle"]) == 0
        assert int(capsys.readouterr().out) == expected


def test_oracle_rooted_size_level_counts_the_list(capsys):
    assert cli.main(["count", "--m", "2", "--p", "7", "--mode", "rooted",
                     "--path", "oracle"]) == 0
    expected = formulas.count_rooted(stats.size_stat(2, 7))
    assert int(capsys.readouterr().out) == expected

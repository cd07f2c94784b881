"""What one call of `cli.main` builds.

Each call builds its own parser, with only the options of the subcommand
named by its first argument; its stdout, stderr and exit code must be those
of the parser with every subcommand's options.  On the oracle route, pointed
counts and rooted counts at every level print the closed forms' values.
"""

import pytest

from cacti import cli, formulas, oracle, stats

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


def _outcomes(capsys, monkeypatch) -> list[tuple]:
    results = []
    for argv, broken_oracle in SEQUENCE:
        with monkeypatch.context() as patch:
            if broken_oracle:
                patch.setattr(cli, "_count_oracle", lambda mode, stat, args: -1)
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_each_call_matches_the_full_grammar(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    build_parser = cli.build_parser
    firsts = []

    def counted(first_arg=None):
        firsts.append(first_arg)
        return build_parser(first_arg)

    monkeypatch.setattr(cli, "build_parser", counted)
    partial = _outcomes(capsys, monkeypatch)
    assert firsts == [argv[0] if argv else None for argv, _ in SEQUENCE]
    monkeypatch.setattr(cli, "build_parser", lambda first_arg=None: build_parser())
    full = _outcomes(capsys, monkeypatch)
    for (argv, _), a, b in zip(SEQUENCE, partial, full):
        assert a == b, argv
    codes = [code for code, _, _ in partial]
    assert {0, 1, 2} <= set(codes)


def test_other_subcommands_get_no_options():
    parser = cli.build_parser("table")
    with pytest.raises(SystemExit):
        parser.parse_args(["count", "--m", "2", "--p", "3", "--mode", "rooted"])
    assert parser.parse_args(["table", "2"]).which == 2
    full = cli.build_parser("--help")
    assert full.parse_args(["count", "--m", "2", "--p", "3",
                            "--mode", "rooted"]).m == 2


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

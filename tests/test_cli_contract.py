"""The exit-code contract over argv drawn from the CLI grammar.

Every argv exits 0 or 2 without a traceback; exit 1 is a cross-check
mismatch and comes only with `MISMATCH` on stderr.  A count that the series
or oracle route prints, the formula route prints too.  Sizes stay small
(m <= 4, p <= 5, series order <= 12) so that every route answers within
its budgets or refuses at once.  The draws are derandomized, so a failure
reproduces on every run.
"""

import contextlib
import io
import json
from collections import Counter

from hypothesis import example, given, settings
from hypothesis import strategies as st

from cacti import cli, formulas
from cacti.formulas import GonalKind
from cli_reference import main_full_grammar

SMALL = st.integers(-1, 5)
CONTRACT = settings(max_examples=200, deadline=None, derandomize=True)


def run(argv: list[str], main=cli.main) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the argv
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def check_contract(argv: list[str]) -> tuple[int, str]:
    code, out, err = run(argv)
    assert "Traceback" not in err, argv
    assert code in (0, 2) or (code == 1 and "MISMATCH" in err), (argv, code, err)
    return code, out


def optional(flag: str, values: st.SearchStrategy) -> st.SearchStrategy:
    return st.one_of(st.just([]), values.map(lambda v: [flag, str(v)]))


@st.composite
def degree_row(draw, p: int) -> str:
    """Terms j^k of a composition of p."""
    parts, left = [], p
    while left > 0:
        parts.append(draw(st.integers(1, left)))
        left -= parts[-1]
    return " ".join(f"{j}^{k}" for j, k in sorted(Counter(parts).items()))


@st.composite
def statistic(draw, m: int) -> list[str]:
    """--p, --colors or --degrees with a value that is realizable often,
    though not always: colour counts of at most p summing to n = (m - 1)p + 1,
    degree rows each summing to p, or a malformed degree text."""
    p = draw(SMALL)
    level = draw(st.sampled_from(["--p", "--colors", "--degrees"]))
    if level == "--p":
        return [level, str(p)]
    size = max(draw(st.sampled_from([m] * 4 + [m - 1, m + 1])), 1)
    if level == "--colors":
        head = draw(st.lists(st.integers(0, max(p, 1)), min_size=size - 1,
                             max_size=size - 1))
        return [level, ",".join(map(str, head + [(m - 1) * p + 1 - sum(head)]))]
    rows = draw(st.lists(degree_row(p), min_size=size, max_size=size))
    return [level, draw(st.sampled_from(["; ".join(rows)] * 6
                                        + ["0^1", "2^0; 1", "1^1 1^2; 2", "x"]))]


@st.composite
def count_argv(draw) -> list[str]:
    """A `count` argv without --path or --check."""
    m = draw(st.sampled_from([1, 2, 2, 3, 3, 4, 4]))
    return (["count", "--m", str(m)] + draw(statistic(m))
            + ["--mode", draw(st.sampled_from(list(formulas.MODES)))]
            + draw(optional("--color", SMALL))
            + draw(optional("--s", st.integers(-1, 6)))
            + draw(optional("--kind", st.sampled_from([k.value for k in GonalKind])))
            + draw(optional("--format", st.just("json"))))


# Arguments added to a `count` argv: unknown flags and abbreviated options
# (`--c` is ambiguous), then perhaps a trailing positional.
JUNK_OPTIONS = st.sampled_from([[], ["--bogus"], ["--order", "5"], ["--mo", "rooted"],
                                ["--form", "json"], ["--c", "1"]])


@st.composite
def count_argv_with_junk(draw) -> list[str]:
    argv = draw(count_argv())
    at = draw(st.integers(1, len(argv)))
    return (argv[:at] + draw(JUNK_OPTIONS) + argv[at:]
            + draw(st.sampled_from([[], ["extra"]])))


ROUTE = st.sampled_from([[], ["--path", "formula"], ["--path", "series"],
                         ["--path", "oracle"]])
CHECK = st.sampled_from([[], ["--check", "oracle"]])

SERIES_ARGV = st.builds(
    lambda m, order, target, one_sort, color, fmt:
        ["series", "--m", str(m), "--order", str(order), "--target", target]
        + one_sort + color + fmt,
    st.integers(1, 4), st.integers(-1, 12),
    st.sampled_from(["planted", "rooted", "unlabelled"]),
    st.sampled_from([[], ["--one-sort"]]), optional("--color", SMALL),
    optional("--format", st.just("json")))

VERIFY_ARGV = st.builds(
    lambda m, p_max, fmt: ["verify", "--m", str(m), "--p-max", str(p_max)] + fmt,
    st.integers(1, 4), SMALL, optional("--format", st.just("json")))

TABLE_ARGV = st.builds(
    lambda which, m_range, p_max, fmt: ["table", str(which)] + m_range + p_max + fmt,
    st.integers(0, 4),
    optional("--m-range", st.one_of(
        st.builds("{}..{}".format, st.integers(1, 4), st.integers(1, 4)),
        st.sampled_from(["2-4", "x..3", "2..3..4"]))),
    optional("--p-max", SMALL), optional("--format", st.just("csv")))


@CONTRACT
@given(st.one_of(st.builds(lambda a, r, c: a + r + c, count_argv(), ROUTE, CHECK),
                 SERIES_ARGV, VERIFY_ARGV, TABLE_ARGV))
def test_every_argv_keeps_the_exit_code_contract(argv):
    check_contract(argv)


def _payload(out: str, argv: list[str]):
    """What a count prints, less the route it names in JSON."""
    if "json" not in argv:
        return out
    report = json.loads(out)
    del report["path"]
    return report


@CONTRACT
@given(count_argv(), st.sampled_from(["series", "oracle"]), CHECK)
@example(["count", "--m", "2", "--colors", "3,4", "--mode", "gonal"], "oracle", [])
def test_other_routes_print_only_what_the_formula_route_prints(argv, path, check):
    code, out = check_contract(argv + ["--path", path] + check)
    if code == 0:
        formula_code, formula_out = check_contract(argv)
        assert formula_code == 0, argv
        assert _payload(out, argv) == _payload(formula_out, argv), argv


@CONTRACT
@given(count_argv_with_junk())
def test_count_prints_what_the_full_grammar_prints(argv):
    assert run(argv) == run(argv, main_full_grammar), argv

"""Usage errors exit 2 with a one-line diagnostic, and counts of any size print."""

import decimal
import json
import os
import subprocess
import sys

import pytest

import cacti
from cacti import cli
from cacti import formulas as F
from cacti import oracle, stats

BAD_M_RANGES = ["x", "2..", "1..2..3", "a..b"]
# (--m, --degrees, its row count): the rows are not m, and invalid besides.
MISSIZED_DEGREES = [("2", "1^5", 1), ("3", "1^1; 1^2", 2)]
USAGE_ERRORS = [
    ["series", "--m", "3", "--order", "5", "--target", "planted", "--color", "0"],
    ["series", "--m", "3", "--order", "5", "--target", "planted", "--color", "-1"],
    ["series", "--m", "3", "--order", "5", "--target", "planted", "--color", "4"],
    ["series", "--m", "1", "--order", "3", "--target", "rooted"],
    ["series", "--m", "1", "--order", "3", "--target", "rooted", "--one-sort"],
    ["series", "--m", "100000", "--order", "16", "--target", "rooted"],
    ["table", "3", "--p-max", "-1"],
    ["table", "3", "--m-range", "5..2"],
    *(["table", "3", "--m-range", bad] for bad in BAD_M_RANGES),
    ["verify", "--m", "2", "--p-max", "-1"],
    ["verify", "--m", "2", "--p-max", "0"],
    ["verify", "--m", "101", "--p-max", "1"],
    *(["count", "--m", m, "--degrees", degrees, "--mode", "rooted"]
      for m, degrees, _ in MISSIZED_DEGREES),
]


@pytest.mark.parametrize("argv", USAGE_ERRORS, ids=" ".join)
def test_usage_error_exits_2(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ")


def test_multivariate_series_budget_on_m(capsys):
    # Past m = 17, m - 1 exceeds every accepted order: each A_i is x_i.
    series = ["series", "--order", "16", "--target", "unlabelled"]
    assert cli.main(series + ["--m", "17"]) == 0
    assert cli.main(series + ["--m", "18", "--one-sort"]) == 0
    capsys.readouterr()
    assert cli.main(series + ["--m", "18"]) == 2
    assert capsys.readouterr().err == (
        "error: BudgetExceeded: --m must be at most 17 without --one-sort\n")


def test_verify_budget_on_m(capsys):
    # At p = 1 the pointed comparisons of verify grow as m^2.
    assert cli.main(["verify", "--m", str(oracle.VERIFY_M_BUDGET), "--p-max", "1"]) == 0
    capsys.readouterr()
    assert cli.main(["verify", "--m", "101", "--p-max", "1"]) == 2
    assert capsys.readouterr().err == (
        "error: BudgetExceeded: verify capped at m <= 100, got m = 101\n")


@pytest.mark.parametrize("bad", BAD_M_RANGES)
def test_bad_m_range_text(capsys, bad):
    assert cli.main(["table", "3", "--m-range", bad]) == 2
    assert capsys.readouterr().err == (
        f"error: UsageError: bad --m-range {bad!r}, expected like 2..7\n")


@pytest.mark.parametrize("m, degrees, rows", MISSIZED_DEGREES)
def test_degree_row_count_is_checked_first(capsys, m, degrees, rows):
    assert cli.main(["count", "--m", m, "--degrees", degrees, "--mode", "rooted"]) == 2
    assert capsys.readouterr().err == (
        f"error: UsageError: --degrees has {rows} rows but --m is {m}\n")


AUT_S = [["count", "--m", "2", "--p", "3", "--mode", mode, "--s", s]
         for mode in ("aut-exact", "aut-atleast") for s in ("0", "1", "-2")]
POINTED_COLOR = [["count", "--m", "3", "--colors", "2,2,3", "--mode", "pointed",
                  "--color", color] for color in ("0", "4", "-1")]
WRONG_LEVEL = [
    ["count", "--m", "3", "--colors", "2,2,3", "--mode", "gonal"],
    ["count", "--m", "2", "--degrees", "1^2; 2^1", "--mode", "gonal"],
    ["count", "--m", "3", "--colors", "2,2,3", "--mode", "constellation"],
    ["count", "--m", "2", "--p", "3", "--mode", "free"],
]
NO_COLOR = ["count", "--m", "3", "--colors", "2,2,3", "--mode", "pointed"]


@pytest.mark.parametrize("argv, path",
                         [(argv, path) for argv in AUT_S + POINTED_COLOR + WRONG_LEVEL
                            for path in ("series", "oracle")]
                         + [(NO_COLOR, "series")],
                         ids=lambda x: " ".join(x) if isinstance(x, list) else x)
def test_other_routes_reject_what_the_formula_route_rejects(capsys, argv, path):
    assert cli.main(argv) == 2
    formula = capsys.readouterr()
    assert formula.out == "" and formula.err.startswith("error: ")
    assert cli.main(argv + ["--path", path]) == 2
    assert capsys.readouterr() == formula


MODE_FLAGS = [[mode, *flags] for mode in F.MODES
              for flags in ([("--kind", k.value) for k in F.GonalKind]
                            if mode == "gonal" else
                            [("--s", "2")] if mode.startswith("aut-") else [()])]
ROUTES = [["--path", "oracle"], ["--path", "series"], ["--check", "oracle"]]


@pytest.mark.parametrize("route", ROUTES, ids=" ".join)
@pytest.mark.parametrize("mode_flags", MODE_FLAGS, ids=" ".join)
def test_route_refusals_hold_at_p_0(capsys, mode_flags, route):
    """At p = 0 a route answers as the formula route, or refuses as it
    refuses at p = 1; under --check the formula route runs first, so its own
    refusal at p = 0 comes first."""
    mode, *flags = mode_flags

    def run(p, extra):
        stat = ["--colors", f"1,{p}"] if mode == "free" else ["--p", str(p)]
        code = cli.main(["count", "--m", "2", *stat, "--mode", mode, *flags, *extra])
        return code, *capsys.readouterr()

    at_1, at_0, formula_0 = run(1, route), run(0, route), run(0, [])
    if at_1[0] == 2 and not (route[0] == "--check" and formula_0[0] == 2):
        assert at_0 == at_1
    else:
        assert at_0 == formula_0


def test_usage_errors_exit_2_under_optimize():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cacti.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    for argv in USAGE_ERRORS:
        result = subprocess.run([sys.executable, "-O", "-m", "cacti.cli", *argv],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 2, argv
        assert result.stdout == "", argv
        assert result.stderr.startswith("error: "), argv
        assert "Traceback" not in result.stderr, argv


def test_counts_past_the_int_to_str_limit_print(capsys):
    code = cli.main(["count", "--m", "2", "--p", "10000", "--mode", "rooted"])
    out = capsys.readouterr().out.strip()
    assert code == 0 and len(out) > 4300
    assert int(decimal.Decimal(out)) == F.count_rooted(stats.size_stat(2, 10000))
    code = cli.main(["count", "--m", "2", "--p", "2000", "--mode", "labelled",
                     "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0 and len(payload["count"]) > 4300
    assert (int(decimal.Decimal(payload["count"]))
            == F.count_labelled(stats.size_stat(2, 2000)))

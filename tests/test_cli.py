import csv
import functools
import hashlib
import io
import itertools
import json
import os
import pathlib
import subprocess
import sys

import pytest

import cacti
import series_reference as ref
from cacti import cli, formulas, series

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cacti.__file__)))
SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCount:
    def test_color_unlabelled(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "3", "--colors", "4,4,5",
                               "--mode", "unlabelled")
        assert code == 0 and out.strip() == "39"

    def test_degree_pointed(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "2", "--degrees",
                               "1^2 2^2 4^1; 1^2 2^4", "--mode", "pointed",
                               "--color", "2")
        assert code == 0 and out.strip() == "90"

    def test_empty_cactus(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "3", "--p", "0",
                               "--mode", "unlabelled")
        assert code == 0 and out.strip() == "1"

    def test_json_round_trip(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "5", "--p", "12",
                               "--mode", "unlabelled", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["path"] == "formula"
        assert payload["query"] == {"mode": "unlabelled", "m": 5, "p": 12}
        assert isinstance(payload["count"], str)
        assert int(payload["count"]) == 2379912355

    @pytest.mark.parametrize("argv, query", [
        (["--m", "3", "--colors", "4,4,5", "--mode", "unlabelled"],
         [("mode", "unlabelled"), ("m", 3), ("colors", "4,4,5")]),
        (["--m", "2", "--degrees", "1^2 2^2 4^1; 1^2 2^4", "--mode", "rooted"],
         [("mode", "rooted"), ("m", 2), ("degrees", "1^2 2^2 4^1; 1^2 2^4")]),
        (["--m", "3", "--colors", "2,2,3", "--mode", "pointed", "--color", "1"],
         [("mode", "pointed"), ("m", 3), ("colors", "2,2,3"), ("color", 1)]),
        (["--m", "3", "--p", "4", "--mode", "aut-exact", "--s", "2"],
         [("mode", "aut-exact"), ("m", 3), ("p", 4), ("s", 2)]),
        (["--m", "3", "--p", "4", "--mode", "gonal", "--kind", "rooted"],
         [("mode", "gonal"), ("m", 3), ("p", 4), ("kind", "rooted")]),
        (["--m", "3", "--p", "4", "--mode", "unlabelled", "--kind", "rooted"],
         [("mode", "unlabelled"), ("m", 3), ("p", 4)]),
    ], ids=["colors", "degrees", "color", "s", "gonal-kind", "no-kind"])
    def test_json_query_key_order(self, capsys, argv, query):
        code, out, _ = run_cli(capsys, "count", *argv, "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["query", "count", "path"]
        assert list(payload["query"].items()) == query

    def test_aut_and_gonal_and_free(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "3", "--p", "4",
                               "--mode", "aut-exact", "--s", "2")
        assert code == 0 and out.strip() == "6"
        code, out, _ = run_cli(capsys, "count", "--m", "3", "--p", "4",
                               "--mode", "gonal")
        assert code == 0 and out.strip() == "7"
        code, out, _ = run_cli(capsys, "count", "--m", "2", "--colors", "2,2",
                               "--mode", "free")
        assert code == 0 and out.strip() == "4"
        code, out, _ = run_cli(capsys, "count", "--m", "2", "--p", "2",
                               "--mode", "constellation")
        assert code == 0 and out.strip() == "3"

    def test_alternate_paths_agree(self, capsys):
        for flags, expected in [
                (["--m", "3", "--colors", "4,4,5", "--mode", "rooted"], "225"),
                (["--m", "2", "--p", "6", "--mode", "unlabelled"], "28"),
                (["--m", "3", "--p", "4", "--mode", "pointed"], "129"),
                (["--m", "3", "--p", "4", "--mode", "aut-exact", "--s", "2"], "6"),
                (["--m", "3", "--colors", "1,4,4", "--mode", "aut-atleast",
                  "--s", "2"], "1"),
                (["--m", "3", "--colors", "3,3,3", "--mode", "asymmetric"], "4"),
                (["--m", "3", "--colors", "2,3,4", "--mode", "labelled"], "432"),
                (["--m", "3", "--degrees", "1^2 2^1; 1^2 2^1; 1^2 2^1",
                  "--mode", "labelled"], "864")]:
            for path in ("formula", "series", "oracle"):
                code, out, _ = run_cli(capsys, "count", *flags, "--path", path)
                assert code == 0 and out == f"{expected}\n", (flags, path)

    def test_series_route_refuses_what_it_has_no_centres_for(self, capsys):
        for flags, message in [
                (["--degrees", "1^2 2^1; 1^2 2^1; 1^2 2^1", "--mode", "unlabelled"],
                 "the series route counts no centres at degree level: "
                 "--mode rooted or labelled only"),
                (["--p", "3", "--mode", "gonal"],
                 "the series route does not support mode 'gonal'")]:
            code, out, err = run_cli(capsys, "count", "--m", "3", *flags,
                                     "--path", "series")
            assert code == 2 and out == ""
            assert err == f"error: UsageError: {message}\n"

    @pytest.mark.parametrize("m", [2, 3, 4])
    def test_degree_lone_vertex_prints_as_its_colour_vector(self, capsys, m):
        """`0^1` in row c and empty rows elsewhere is the lone vertex of colour
        c: each route, and the oracle check, prints what `--colors` with a 1
        at c prints, at every mode it answers; JSON echoes the spec."""
        modes = [(mode, options) for mode, entry in formulas.MODES.items()
                 if entry.level is None
                 for options in ([["--color", str(k)] for k in range(1, m + 1)]
                                 if mode == "pointed" else
                                 [["--s", "2"]] if mode.startswith("aut-") else [[]])]
        for c in range(1, m + 1):
            degrees = "; ".join("0^1" if i == c else "" for i in range(1, m + 1))
            colors = ",".join(str(int(i == c)) for i in range(1, m + 1))
            for (mode, options), route, fmt in itertools.product(
                    modes, [["--path", "formula"], ["--path", "series"],
                            ["--path", "oracle"], ["--check", "oracle"]],
                    [[], ["--format", "json"]]):
                flags = ["--m", str(m), "--mode", mode, *options, *route, *fmt]
                by_degrees = run_cli(capsys, "count", "--degrees", degrees, *flags)
                by_colors = run_cli(capsys, "count", "--colors", colors, *flags)
                assert by_degrees[0] == 0 and by_degrees[2] == "", (degrees, flags)
                if fmt:
                    echo, plain = json.loads(by_degrees[1]), json.loads(by_colors[1])
                    assert echo["query"].pop("degrees") == degrees
                    plain["query"].pop("colors")
                    assert echo == plain, (degrees, flags)
                else:
                    assert by_degrees == by_colors, (degrees, flags)

    def test_check_oracle_passes(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "3", "--p", "3",
                               "--mode", "asymmetric", "--check", "oracle")
        assert code == 0 and out.strip() == "3"

    def test_check_oracle_mismatch_exits_1(self, capsys, monkeypatch):
        monkeypatch.setitem(cli.ROUTES, "oracle", lambda mode, stat, **options: -1)
        code, out, err = run_cli(capsys, "count", "--m", "3", "--p", "3",
                                 "--mode", "asymmetric", "--check", "oracle")
        assert code == 1 and "MISMATCH" in err

    def test_gonal_oracle_within_and_past_the_m5_budget(self, capsys):
        code, out, _ = run_cli(capsys, "count", "--m", "5", "--p", "4",
                               "--mode", "gonal", "--path", "oracle")
        assert code == 0 and out == "17\n"
        code, out, err = run_cli(capsys, "count", "--m", "5", "--p", "5",
                                 "--mode", "gonal", "--path", "oracle")
        assert code == 2 and out == "" and "BudgetExceeded" in err

    def test_validation_error_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "count", "--m", "2", "--degrees",
                               "1^5 3^2; 2^7", "--mode", "rooted")
        assert code == 2 and "RowSumMismatch" in err
        code, _, err = run_cli(capsys, "count", "--m", "3", "--colors", "4,4,4",
                               "--mode", "rooted")
        assert code == 2 and "NonIntegralP" in err
        code, _, err = run_cli(capsys, "count", "--m", "3", "--p", "2",
                               "--mode", "pointed", "--color", "1")
        assert code == 2 and "ColorForbidden" in err
        code, _, err = run_cli(capsys, "count", "--m", "3", "--p", "2",
                               "--mode", "rooted", "--colors", "1,2,2")
        assert code == 2 and "exactly one" in err


class TestTable:
    def test_table1_first_row_annotated(self, capsys):
        code, out, _ = run_cli(capsys, "table", "1", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 15
        assert "COHERENCE-FAIL" in rows[0]["pointed"]
        assert "RowSumMismatch" in rows[0]["pointed"]
        assert rows[0]["rooted"] == ""
        row = rows[14]
        assert row["pointed"] == "6000 6000 6000 7008"
        assert (row["rooted"], row["unlabelled"], row["asymmetric"]) == (
            "8000", "1008", "992")

    def test_table2_rows(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2", "--format", "csv")
        assert code == 0
        rows = {r["colors"]: r for r in csv.DictReader(io.StringIO(out))}
        assert len(rows) == 20
        assert (rows["7,7"]["rooted"], rows["7,7"]["unlabelled"],
                rows["7,7"]["asymmetric"]) == ("226512", "17424", "17424")
        assert rows["4,4,4,4"]["unlabelled"] == "25"

    def test_table3_cells(self, capsys):
        code, out, _ = run_cli(capsys, "table", "3", "--m-range", "3..3",
                               "--p-max", "4", "--format", "csv")
        assert code == 0
        rows = {int(r["p"]): r for r in csv.DictReader(io.StringIO(out))}
        assert (rows[4]["unlabelled"], rows[4]["asymmetric"], rows[4]["gonal"]) == (
            "19", "10", "7")
        assert rows[0]["n"] == "1" and rows[0]["unlabelled"] == "1"

    # The two table 3 sweeps of the formula-route benchmark, pinned byte for
    # byte by the sha256 of their stdout.
    @pytest.mark.parametrize("argv, digest", [
        (["--m-range", "2..4", "--p-max", "240", "--format", "csv"],
         "af5a8a7576e0bff49e0c40a3afad3b3fba04211c3f383b2ec1da42827bce200d"),
        (["--m-range", "2..7", "--p-max", "120"],
         "0a61fc9bbec24c977e06dd91084c0ad347d0bc498f4f24903937250bd9697325"),
    ], ids=["2..4-csv", "2..7-text"])
    def test_table3_sweeps_pinned(self, capsys, argv, digest):
        code, out, err = run_cli(capsys, "table", "3", *argv)
        assert code == 0 and err == ""
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_text_format(self, capsys):
        code, out, _ = run_cli(capsys, "table", "2")
        assert code == 0
        assert out.splitlines()[0].split() == [
            "colors", "rooted", "unlabelled", "asymmetric"]


class TestVerify:
    def test_pass_exit_0(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "3", "--p-max", "2")
        assert code == 0 and "all checks passed" in out

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "2", "--p-max", "2",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert all(r["passed"] for r in payload["results"])

    def test_json_keys(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--m", "2", "--p-max", "3",
                               "--format", "json")
        assert code == 0
        payload = json.loads(out)
        assert list(payload) == ["m", "p_max", "passed", "results"]
        assert payload["results"]
        for result in payload["results"]:
            assert list(result) == ["name", "p", "comparisons", "passed", "detail"]

    def test_budget_exit_2(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--m", "2", "--p-max", "99")
        assert code == 2 and "BudgetExceeded" in err


class TestSeries:
    def test_planted_listing(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--m", "2", "--order", "3",
                               "--target", "planted")
        assert code == 0
        lines = dict(line.rsplit(" ", 1) for line in out.strip().splitlines())
        assert lines["x1"] == "1"

    def test_rooted_listing(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--m", "2", "--order", "11",
                               "--target", "rooted")
        assert code == 0
        lines = dict(line.rsplit(" ", 1) for line in out.strip().splitlines())
        assert lines["x1^5*x2^6"] == "5292"

    def test_one_sort_unlabelled(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--m", "3", "--order", "9",
                               "--target", "unlabelled", "--one-sort")
        assert code == 0
        lines = dict(line.rsplit(" ", 1) for line in out.strip().splitlines())
        assert lines["x^9"] == "19"

    def test_json_and_bounds(self, capsys):
        code, out, _ = run_cli(capsys, "series", "--m", "2", "--order", "5",
                               "--target", "rooted", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        coeffs = {tuple(c["exponents"]): c["coefficient"]
                  for c in payload["coefficients"]}
        assert coeffs[(2, 2)] == "3"
        code, _, err = run_cli(capsys, "series", "--m", "2", "--order", "40",
                               "--target", "rooted")
        assert code == 2 and "BudgetExceeded" in err

    @pytest.mark.parametrize("flags, named", [
        (["--target", "rooted"], "--target rooted"),
        (["--target", "unlabelled"], "--target unlabelled"),
        (["--target", "planted", "--one-sort"], "--target planted --one-sort")])
    def test_color_refused_where_it_means_nothing(self, capsys, flags, named):
        code, out, err = run_cli(capsys, "series", "--m", "3", "--order", "4",
                                 *flags, "--color", "2")
        assert (code, out) == (2, "")
        assert err == f"error: UsageError: {named} takes no --color\n"

    def test_color_picks_the_planted_series(self, capsys):
        code, out, err = run_cli(capsys, "series", "--m", "3", "--order", "4",
                                 "--target", "planted", "--color", "2")
        assert (code, err) == (0, "")
        assert out == "x2 1\nx1*x2*x3 1\n"


MULTI_GRID = [(m, order) for m in range(2, 6)
              for order in range(1, series.SERIES_MULTI_BOUND + 1)]
ONE_SORT_GRID = [(m, order) for m in range(2, 8)
                 for order in (1, 2, 3, 5, 8, 16, 33, series.SERIES_ONE_SORT_BOUND)]


@functools.lru_cache(maxsize=None)
def _reference_targets(m: int, one_sort: bool) -> dict:
    """Each printed target at the order bound, built with the reference
    arithmetic: (target, --color or None) -> {exponent: coefficient}."""
    if one_sort:
        order = series.SERIES_ONE_SORT_BOUND
        a = ref.one_sort(m, order)
        targets = {("planted", None): a, ("rooted", None): ref.power(a, m),
                   ("unlabelled", None): ref.one_sort_unlabelled(m, order)}
    else:
        fam = series.solve_planted(m, series.SERIES_MULTI_BOUND)
        targets = {("planted", c): ref.planted(fam, c or 1)
                   for c in [None] + list(range(1, m + 1))}
        targets["rooted", None] = ref.rooted(fam)
        targets["unlabelled", None] = ref.unlabelled(fam)
    return {key: s.coeffs for key, s in targets.items()}


def _series_stdout(coeffs: dict, q: dict) -> str:
    """What `cacti series` prints for the terms of `coeffs` up to the order."""
    items = sorted(((e, c) for e, c in coeffs.items() if sum(e) <= q["order"]),
                   key=lambda kv: (sum(kv[0]), kv[0]))
    if q["format"] == "json":
        return json.dumps({
            "m": q["m"], "order": q["order"], "target": q["target"],
            "one_sort": q["one_sort"],
            "coefficients": [{"exponents": list(e), "coefficient": str(c)}
                             for e, c in items]}) + "\n"
    lines = []
    for e, c in items:
        names = ["x" if q["one_sort"] else f"x{i}" for i in range(1, len(e) + 1)]
        monomial = "*".join(name if k == 1 else f"{name}^{k}"
                            for name, k in zip(names, e) if k)
        lines.append(f"{monomial} {c}\n")
    return "".join(lines)


class TestSeriesGrid:
    """`cacti series` stdout against the same targets built from whole series."""

    @pytest.mark.parametrize("m, order", MULTI_GRID)
    def test_multivariate(self, capsys, m, order):
        self.check(capsys, m, order, one_sort=False)

    @pytest.mark.parametrize("m, order", ONE_SORT_GRID)
    def test_one_sort(self, capsys, m, order):
        self.check(capsys, m, order, one_sort=True)

    @staticmethod
    def check(capsys, m, order, one_sort):
        for (target, color), coeffs in _reference_targets(m, one_sort).items():
            for fmt in ("text", "json"):
                argv = ["series", "--m", str(m), "--order", str(order),
                        "--target", target, "--format", fmt]
                argv += (["--color", str(color)] if color else []) + (
                    ["--one-sort"] if one_sort else [])
                q = {"m": m, "order": order, "target": target,
                     "one_sort": one_sort, "format": fmt}
                assert run_cli(capsys, *argv) == (0, _series_stdout(coeffs, q), ""), argv


def test_console_entry_point():
    result = subprocess.run(
        [sys.executable, "-m", "cacti.cli", "count", "--m", "3", "--colors",
         "4,4,5", "--mode", "unlabelled"],
        capture_output=True, text=True)
    assert result.returncode == 0
    assert result.stdout.strip() == "39"


@pytest.mark.parametrize("fmt", ["text", "csv"])
def test_reproduce_tables_script(capsys, fmt):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    result = subprocess.run(
        [sys.executable, str(SCRIPTS / "reproduce_tables.py"), "--format", fmt],
        capture_output=True, env=env)
    assert result.returncode == 0 and result.stderr == b""
    expected = ""
    for which in ("1", "2", "3"):
        assert cli.main(["table", which, "--format", fmt]) == 0
        expected += f"# table {which}\n{capsys.readouterr().out}\n"
    assert result.stdout.decode() == expected

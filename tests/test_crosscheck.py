"""The sweeps of `scripts/crosscheck.py` that run without the oracle, and
its rejection of bad --budgets and --degree."""

import importlib.util
import pathlib
import sys

import pytest

from cacti import formulas, oracle, series, stats

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "crosscheck.py"


def _crosscheck():
    spec = importlib.util.spec_from_file_location("crosscheck", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_sort_sweep_passes():
    assert _crosscheck().one_sort_sweep(series.SERIES_ONE_SORT_BOUND) is None


def test_falsified_unlabelled_count_exits_1(capsys, monkeypatch):
    crosscheck = _crosscheck()
    count = formulas.count_unlabelled
    monkeypatch.setattr(formulas, "count_unlabelled",
                        lambda stat: count(stat) + (stat.m == 3 and stat.p == 20))
    monkeypatch.setattr(sys, "argv", ["crosscheck.py", "--budgets", "2:2",
                                      "--degree", "4"])
    assert crosscheck.main() == 1
    out = capsys.readouterr().out
    assert out.endswith("series mismatch in one-sort unlabelled m=3 at x^41: "
                        f"series {count(stats.size_stat(3, 20))}, "
                        f"formula {count(stats.size_stat(3, 20)) + 1}\n")


@pytest.mark.parametrize("budgets, message", [
    ("2-3", "bad m:p pair '2-3'"),
    ("2:0", "need m >= 2 and p >= 1 in '2:0'"),
    ("2:9", "'2:9' is past the generation budget p <= 8 for m = 2"),
])
def test_bad_budgets_exit_2(capsys, monkeypatch, budgets, message):
    crosscheck = _crosscheck()
    monkeypatch.setattr(sys, "argv", ["crosscheck.py", "--budgets", budgets])
    with pytest.raises(SystemExit) as exc:
        crosscheck.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --budgets: {message}\n")


@pytest.mark.parametrize("degree, message", [
    ("0", "need a degree >= 1, got 0"),
    ("-3", "need a degree >= 1, got -3"),
    ("x", "bad degree 'x'"),
])
def test_bad_degree_exits_2(capsys, monkeypatch, degree, message):
    crosscheck = _crosscheck()
    monkeypatch.setattr(sys, "argv", ["crosscheck.py", "--budgets", "2:1",
                                      "--degree", degree])
    with pytest.raises(SystemExit) as exc:
        crosscheck.main()
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f"error: argument --degree: {message}\n")


def test_falsified_stratum_exits_1(capsys, monkeypatch):
    crosscheck = _crosscheck()
    count = formulas.count_aut
    monkeypatch.setattr(formulas, "count_aut", lambda stat, s, mode: count(
        stat, s, mode) + (stat.m == 2 and s == 3 and mode is formulas.AutMode.EXACTLY))
    monkeypatch.setattr(sys, "argv", ["crosscheck.py", "--budgets", "2:1",
                                      "--degree", "7"])
    assert crosscheck.main() == 1
    assert capsys.readouterr().out.endswith(
        "series mismatch in aut-exact s=3 m=2 at (1, 3): series 1, formula 2\n")


def test_centred_count_off_its_closed_form_exits_1(capsys, monkeypatch):
    crosscheck = _crosscheck()
    count = formulas.count_pointed
    monkeypatch.setattr(formulas, "count_pointed", lambda stat, color=None: count(
        stat, color) + (color == 2 and isinstance(stat, stats.ColorStat)))
    monkeypatch.setattr(sys, "argv", ["crosscheck.py", "--budgets", "2:2",
                                      "--degree", "4"])
    assert crosscheck.main() == 1
    assert capsys.readouterr().out.endswith(
        "mismatch in centred pointed 2 m=2 at (1, 1): 1, formula 2\n")



def test_centred_count_off_its_series_count_fails_the_centre_sweep(monkeypatch):
    crosscheck = _crosscheck()
    centred_counts, target = formulas.centred_counts, stats.color_stat(2, (2, 3))

    def bumped(stat):
        counts = centred_counts(stat)
        counts["asymmetric", None] += stat == target
        return counts

    monkeypatch.setattr(formulas, "centred_counts", bumped)
    vectors = [c for p in range(1, 6) for c in oracle._all_color_vectors(2, p)]
    failure, _ = crosscheck.centre_sweep(series.solve_planted(2, 6), vectors)
    value = formulas.count_asymmetric(target)
    assert failure == f"centred asymmetric None m=2 at (2, 3): {value + 1}, series {value}"


def test_count_that_is_not_whole_exits_1_without_a_traceback(capsys, monkeypatch):
    crosscheck = _crosscheck()
    exact = formulas._exact
    # A numerator off by one at colour level, p = 3: `verify` meets it first.
    monkeypatch.setattr(formulas, "_exact", lambda value, context, den=1: exact(
        value + (den == 9), context, den))
    monkeypatch.setattr(sys, "argv", ["crosscheck.py", "--budgets", "2:4",
                                      "--degree", "4"])
    assert crosscheck.main() == 1
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == ("  first failure: InconsistentResult: "
                            "non-integral centred count: 10/9\n")

"""The sweeps of `scripts/crosscheck.py` that run without the oracle."""

import importlib.util
import pathlib
import sys

from cacti import cli, formulas, stats

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "crosscheck.py"


def _crosscheck():
    spec = importlib.util.spec_from_file_location("crosscheck", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_one_sort_sweep_passes():
    assert _crosscheck().one_sort_sweep(cli.SERIES_ONE_SORT_BOUND) is None


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

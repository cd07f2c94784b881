"""Result checks that hold under ``python -O`` and exit 2 when they fail, and
``count --check`` on every route."""

import dataclasses
import itertools
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import cacti
from cacti import cli, oracle, series
from cacti import formulas as F
from cacti import stats
from cacti.stats import InconsistentResult
from test_series_bounds import _degree_spec

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cacti.__file__)))


class _Unformattable:
    def __format__(self, spec):
        raise AssertionError("`at` formatted where the guard holds")


def test_non_integral_formula_result_raises():
    with pytest.raises(InconsistentResult, match="non-integral test value"):
        stats.exact(Fraction(1, 2), "test value")
    with pytest.raises(InconsistentResult,
                       match=r"^non-integral test value at \(1, 2\): 7/2$"):
        stats.exact(7, "test value", 2, at=(1, 2))
    assert stats.exact(6, "test value", 3, at=_Unformattable()) == 2


def test_non_integral_formula_result_raises_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = ("from fractions import Fraction\n"
            "from cacti import stats\n"
            "try:\n"
            "    stats.exact(Fraction(1, 2), 'test value')\n"
            "except stats.InconsistentResult:\n"
            "    print('raised')\n")
    result = subprocess.run([sys.executable, "-O", "-c", code],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "raised\n"


@pytest.mark.parametrize("row", oracle._partitions(3))
@pytest.mark.parametrize("k", range(3))
def test_a_hook_character_off_by_one_raises(monkeypatch, row, k):
    """Any one character of S_3 off by one leaves some census entry
    fractional, and the census refuses it."""
    hook_characters = oracle._hook_characters

    def bumped(r):
        chars = hook_characters(r)
        chars[k] += r == row
        return chars

    monkeypatch.setattr(oracle, "_hook_characters", bumped)
    with pytest.raises(InconsistentResult, match="non-integral census at "):
        oracle.factorizations(2, 3)


def test_a_hook_character_off_by_one_raises_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = ("from cacti import oracle, stats\n"
            "chars = oracle._hook_characters\n"
            "oracle._hook_characters = lambda row: [c + (row == ((3, 1),) and k == 1)\n"
            "                                       for k, c in enumerate(chars(row))]\n"
            "try:\n"
            "    oracle.factorizations(2, 3)\n"
            "except stats.InconsistentResult as exc:\n"
            "    print(exc)\n")
    result = subprocess.run([sys.executable, "-O", "-c", code],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "non-integral census at (((3, 1),), ((3, 1),)): 4/3\n"


# With the rooted count forced to 1, the labelled count 24^4 / 5 of the
# colours (4, 4, 4, 4) is not an integer, and the exactness guards fire.
NON_INTEGRAL = ["count", "--m", "4", "--colors", "4,4,4,4", "--mode", "labelled"]
# With the rooted count one too many, the d = 1 term of the dissymmetry
# theorem, R n_i / p, is not an integer at these statistics.
ROOTED_PLUS_1 = {
    "size": ["count", "--m", "2", "--p", "2", "--mode", "unlabelled"],
    "degree": ["count", "--m", "2", "--degrees", "1^1 2^1; 1^1 2^1", "--mode",
               "unlabelled"]}
COUNT_ROOTED, ENUMERATE_UNLABELLED = F.count_rooted, oracle.enumerate_unlabelled


def _colours_2_2_of_order_7(m, p):
    """The classes, the one at colours (2, 2) given automorphism order 7."""
    return [(rc, dataclasses.replace(st, aut_order=7) if st.colors.counts == (2, 2)
             else st) for rc, st in ENUMERATE_UNLABELLED(m, p)]


@pytest.mark.parametrize("argv, module, name, patch, message", [
    (NON_INTEGRAL + ["--path", "formula"], F, "count_rooted", lambda stat: 1,
     "non-integral labelled count: 331776/5"),
    (NON_INTEGRAL + ["--path", "series"], series, "_rooted",
     lambda family: {family.pack((4, 4, 4, 4)): 1},
     "non-integral count at (4, 4, 4, 4): 331776/5"),
    (ROOTED_PLUS_1["size"], F, "count_rooted", lambda stat: COUNT_ROOTED(stat) + 1,
     "non-integral d = 1 term: 9/2"),
    (ROOTED_PLUS_1["degree"], F, "count_rooted", lambda stat: COUNT_ROOTED(stat) + 1,
     "non-integral d = 1 term: 16/3"),
    (["count", "--m", "2", "--colors", "2,2", "--mode", "labelled", "--path", "oracle"],
     oracle, "enumerate_unlabelled", _colours_2_2_of_order_7,
     "non-integral labelled class count: 4/7"),
], ids=["formula", "series", "rooted-plus-1-size", "rooted-plus-1-degree",
        "oracle-labelled-aut-7"])
def test_failed_guard_exits_2(capsys, monkeypatch, argv, module, name, patch,
                              message):
    """A count that must divide exactly and does not exits 2, never printing
    a floored quotient."""
    monkeypatch.setattr(module, name, patch)
    code = cli.main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == f"error: InconsistentResult: {message}\n"


def test_failed_rootings_guard_exits_2(capsys, monkeypatch):
    enumerate_unlabelled = oracle.enumerate_unlabelled
    monkeypatch.setattr(oracle, "enumerate_unlabelled",
                        lambda m, p: enumerate_unlabelled(m, p)[1:])
    code = cli.main(["verify", "--m", "2", "--p-max", "3"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == ("error: InconsistentResult: 0 classes have 0 "
                            "rootings, but 1 rooted cacti were generated\n")


def test_failed_guard_exits_2_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    for argv, rooted, message in [
            (NON_INTEGRAL, "1", "labelled count: 331776/5"),
            (ROOTED_PLUS_1["size"], "count_rooted(stat) + 1", "d = 1 term: 9/2")]:
        code = ("import sys\n"
                "from cacti import cli, formulas\n"
                "count_rooted = formulas.count_rooted\n"
                f"formulas.count_rooted = lambda stat: {rooted}\n"
                f"sys.exit(cli.main({argv!r}))\n")
        result = subprocess.run([sys.executable, "-O", "-c", code],
                                capture_output=True, text=True, env=env)
        assert result.returncode == 2 and result.stdout == "", argv
        assert result.stderr == f"error: InconsistentResult: non-integral {message}\n"


def test_check_mismatch_names_the_route_that_ran(capsys, monkeypatch):
    monkeypatch.setitem(cli.ROUTES, "oracle", lambda mode, stat, **options: -1)
    code = cli.main(["count", "--m", "3", "--colors", "2,2,3", "--mode",
                     "rooted", "--path", "series", "--check", "oracle"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "MISMATCH: series gives 3, oracle gives -1\n"


def test_check_oracle_can_fail_at_p_0(capsys, monkeypatch):
    """The oracle counts the lone vertex itself, pointed at its own colour
    only, so a wrong closed form at p = 0 is caught."""
    monkeypatch.setattr(F, "count_pointed", lambda stat, color=None: 1)
    code = cli.main(["count", "--m", "3", "--colors", "1,0,0", "--mode",
                     "pointed", "--color", "2", "--check", "oracle"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "MISMATCH: formula gives 1, oracle gives 0\n"


def test_oracle_path_is_not_rechecked_by_itself(capsys, monkeypatch):
    calls = []
    count_oracle = cli.ROUTES["oracle"]

    def counted(mode, stat, **options):
        calls.append(mode)
        return count_oracle(mode, stat, **options)

    monkeypatch.setitem(cli.ROUTES, "oracle", counted)
    code = cli.main(["count", "--m", "3", "--p", "3", "--mode", "asymmetric",
                     "--path", "oracle", "--check", "oracle"])
    assert code == 0 and capsys.readouterr().out.strip() == "3"
    assert calls == ["asymmetric"]


@pytest.mark.parametrize("m", [2, 3, 4])
def test_check_on_any_route_prints_what_the_path_alone_prints(capsys, m):
    """At one size, one colour vector and one degree matrix, every mode that
    two routes both answer passes `--path X --check Y`, printing what
    `--path X` prints."""
    levels = [["--p", "3"],
              ["--colors", ",".join(map(str, oracle._all_color_vectors(m, 3)[1].counts))],
              ["--degrees", _degree_spec(oracle._all_degree_matrices(m, 3)[1])]]
    modes = [[mode, *flags] for mode in F.MODES
             for flags in ([["--color", str(c)] for c in range(1, m + 1)]
                           if mode == "pointed" else
                           [["--s", "3"]] if mode.startswith("aut-") else [[]])]
    checked = 0
    for level, mode_flags in itertools.product(levels, modes):
        argv = ["count", "--m", str(m), *level, "--mode", *mode_flags]
        alone = {}
        for route in cli.ROUTES:
            code = cli.main(argv + ["--path", route])
            alone[route] = code, capsys.readouterr()
        for path, check in itertools.permutations(cli.ROUTES, 2):
            if alone[path][0] == alone[check][0] == 0:
                code = cli.main(argv + ["--path", path, "--check", check])
                assert (code, capsys.readouterr()) == alone[path], (argv, path, check)
                checked += 1
    assert checked > 100


def test_check_series_mismatch_exits_1(capsys, monkeypatch):
    count = series.count
    monkeypatch.setitem(cli.ROUTES, "series",
                        lambda mode, stat, **options: count(mode, stat, **options) + 1)
    code = cli.main(["count", "--m", "3", "--colors", "2,2,3", "--mode",
                     "unlabelled", "--check", "series"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "MISMATCH: formula gives 1, series gives 2\n"


@pytest.mark.parametrize("flags, message", [
    (["--p", "3", "--mode", "constellation", "--check", "series"],
     "the series route does not support mode 'constellation'"),
    (["--p", "3", "--mode", "gonal", "--kind", "rooted", "--check", "oracle"],
     "the oracle route counts only unlabelled gonal classes"),
    (["--degrees", "3^1; 1^3; 1^3", "--mode", "unlabelled", "--check", "series"],
     "the series route counts no centres at degree level: --mode rooted or labelled only"),
    (["--p", "3", "--mode", "constellation", "--check", "oracle"],
     "the oracle route has no constellation generator; use --path formula"),
], ids=["constellation-series", "gonal-rooted-oracle", "degree-centres-series",
        "constellation-oracle"])
def test_a_check_route_that_refuses_exits_2(capsys, flags, message):
    """The formula route answers each of these; the check route's refusal
    exits 2, never 1."""
    assert cli.main(["count", "--m", "3", *flags]) == 2
    assert capsys.readouterr() == ("", f"error: UsageError: {message}\n")

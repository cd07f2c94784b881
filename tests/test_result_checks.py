"""Result checks that hold under ``python -O`` and exit 2 when they fail, and
``count --check oracle``."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import cacti
from cacti import cli, oracle, series
from cacti import formulas as F
from cacti.stats import InconsistentResult

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cacti.__file__)))


def test_non_integral_formula_result_raises():
    with pytest.raises(InconsistentResult, match="non-integral test value"):
        F._exact(Fraction(1, 2), "test value")


def test_non_integral_formula_result_raises_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    code = ("from fractions import Fraction\n"
            "from cacti import formulas, stats\n"
            "try:\n"
            "    formulas._exact(Fraction(1, 2), 'test value')\n"
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


@pytest.mark.parametrize("path, module, name, rooted, message", [
    ("formula", F, "count_rooted", lambda stat: 1,
     "non-integral labelled count: 331776/5"),
    ("series", series, "_rooted", lambda family: {family.pack((4, 4, 4, 4)): 1},
     "count 331776/5 at (4, 4, 4, 4) is not an integer"),
], ids=["formula", "series"])
def test_failed_guard_exits_2(capsys, monkeypatch, path, module, name, rooted,
                              message):
    monkeypatch.setattr(module, name, rooted)
    code = cli.main(NON_INTEGRAL + ["--path", path])
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
    code = ("import sys\n"
            "from cacti import cli, formulas\n"
            "formulas.count_rooted = lambda stat: 1\n"
            f"sys.exit(cli.main({NON_INTEGRAL!r}))\n")
    result = subprocess.run([sys.executable, "-O", "-c", code],
                            capture_output=True, text=True, env=env)
    assert result.returncode == 2 and result.stdout == ""
    assert result.stderr == ("error: InconsistentResult: non-integral "
                             "labelled count: 331776/5\n")


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

"""Result checks that hold under ``python -O``, and ``count --check oracle``."""

import os
import subprocess
import sys
from fractions import Fraction

import pytest

import cacti
from cacti import cli
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


def test_check_mismatch_names_the_route_that_ran(capsys, monkeypatch):
    monkeypatch.setattr(cli, "_count_oracle", lambda mode, stat, args: -1)
    code = cli.main(["count", "--m", "3", "--colors", "2,2,3", "--mode",
                     "rooted", "--path", "series", "--check", "oracle"])
    captured = capsys.readouterr()
    assert code == 1 and captured.out == ""
    assert captured.err == "MISMATCH: series gives 3, oracle gives -1\n"


def test_oracle_path_is_not_rechecked_by_itself(capsys, monkeypatch):
    calls = []
    count_oracle = cli._count_oracle

    def counted(mode, stat, args):
        calls.append(mode)
        return count_oracle(mode, stat, args)

    monkeypatch.setattr(cli, "_count_oracle", counted)
    code = cli.main(["count", "--m", "3", "--p", "3", "--mode", "asymmetric",
                     "--path", "oracle", "--check", "oracle"])
    assert code == 0 and capsys.readouterr().out.strip() == "3"
    assert calls == ["asymmetric"]

"""The route table: `series.count` and `oracle.count` answer a query on their
own terms, the lone vertex included, or refuse it."""

import dataclasses

import pytest

from cacti import formulas as F
from cacti import oracle, series, stats
from cacti.arith import euler_phi

ROUTES = {"series": series.count, "oracle": oracle.count}


def _lone_vertices(m: int) -> list:
    """The p = 0 statistics at every level, each with the p = 1 statistic of
    the same level: the size, the lone vertex of each colour by colours and
    by degrees (a degree-0 vertex)."""
    out = [(stats.size_stat(m, 0), stats.size_stat(m, 1))]
    for c in range(m):
        out.append((stats.color_stat(m, [int(i == c) for i in range(m)]),
                    stats.color_stat(m, [1] * m)))
        out.append((stats.degree_stat(m, [{0: 1} if i == c else {} for i in range(m)]),
                    stats.parse_degree_spec("; ".join(["1"] * m))))
    return out


def _options(mode: str, stat) -> list[dict]:
    if mode == "gonal":
        return [{"kind": kind} for kind in F.GonalKind]
    if mode.startswith("aut-"):
        return [{"s": 2}, {"s": 3}]
    if mode == "pointed" and not isinstance(stat, stats.SizeStat):
        return [{"color": c} for c in range(1, stat.m + 1)]
    return [{}]


def _formula(mode, stat, **options):
    return F.MODES[mode].formula(stat, **options)


def _outcome(count, mode, stat, options):
    try:
        return count(mode, stat, **options)
    except (stats.ValidationError, stats.UsageError, stats.BudgetExceeded) as exc:
        return type(exc), str(exc)


def _queries() -> list[tuple]:
    """(route, mode, p = 0 statistic, options, the formula's outcome, the
    route's outcome at p = 1) of every mode at every level it accepts,
    m = 2..4; an outcome is a count or a refusal's type and message."""
    out = []
    for m in range(2, 5):
        for stat, stat_1 in _lone_vertices(m):
            for mode, entry in F.MODES.items():
                if entry.level is not None and not isinstance(stat, entry.level):
                    continue
                for options in _options(mode, stat):
                    expected = _outcome(_formula, mode, stat, options)
                    for route, count in ROUTES.items():
                        out.append((route, mode, stat, options, expected,
                                    _outcome(count, mode, stat_1, options)))
    return out


def test_each_route_counts_the_lone_vertex_itself(monkeypatch):
    """With every closed form raising, the series and oracle routes still give
    each p = 0 count the formula route gives, or refuse it as at p = 1."""
    queries = _queries()

    def closed_form(*args, **kwargs):
        raise AssertionError("a route called a closed form")

    for name in vars(F):
        if name.startswith(("count", "_count")) or name in ("centred_counts",
                                                             "gonal_orbits"):
            monkeypatch.setattr(F, name, closed_form)
    for mode, entry in F.MODES.items():
        monkeypatch.setitem(F.MODES, mode, dataclasses.replace(entry, formula=closed_form))
    answered = 0
    for route, mode, stat, options, expected, at_1 in queries:
        got = _outcome(ROUTES[route], mode, stat, options)
        if isinstance(got, tuple):
            assert got == at_1, (route, mode, stat, options)
        else:
            assert got == expected, (route, mode, stat, options)
            answered += 1
    assert answered > len(queries) // 2


@pytest.mark.parametrize("m", range(2, 6))
def test_the_labelled_form_at_p_0_is_the_class_form(m):
    size = stats.size_stat(m, 0)
    assert F.MODES["labelled"].centres(size) == F.class_centres(size, euler_phi)
    assert series.count("labelled", size) == 1
    for c in range(m):
        lone = stats.color_stat(m, [int(i == c) for i in range(m)])
        assert series.count("labelled", lone) == 1 == F.count_labelled(lone)

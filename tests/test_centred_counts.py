"""`formulas.centred_counts` against the per-mode closed forms, a batch of
the modes' `Centres` against each form counted alone, and the comparisons
of `oracle.verify`, which reads its closed forms from it."""

import random

import pytest

from cacti import formulas, oracle, stats

# The statistics and sizes of the oracle cross-check in the acceptance suite.
VERIFY_SIZES = [(2, p) for p in range(1, 7)] + [(3, p) for p in range(1, 5)] + [
    (4, p) for p in range(1, 4)]


def _statistics(m: int, p: int) -> list:
    """Every statistic that `verify` compares at this size."""
    return [stats.size_stat(m, p), *oracle._all_color_vectors(m, p),
            *oracle._all_degree_matrices(m, p)]


def _queries(stat) -> list[tuple[tuple[str, int | None], dict]]:
    """Every centred-count key of `stat`, with the options that ask the
    mode's closed form for the same count."""
    colors = [None] if isinstance(stat, stats.SizeStat) else range(1, stat.m + 1)
    strata = [s for s in range(2, stat.p + 1) if stat.p % s == 0]
    return ([((mode, None), {}) for mode in ("rooted", "unlabelled", "asymmetric")]
            + [((mode, s), {"s": s}) for s in strata
               for mode in ("aut-exact", "aut-atleast")]
            + [(("pointed", c), {"color": c}) for c in colors])


@pytest.mark.parametrize("m, p", VERIFY_SIZES, ids=[f"m{m}-p{p}" for m, p in VERIFY_SIZES])
def test_every_entry_is_the_per_mode_closed_form(m, p):
    for stat in _statistics(m, p):
        counts = formulas.centred_counts(stat)
        queries = _queries(stat)
        assert set(counts) == {key for key, _ in queries}
        for (mode, option), options in queries:
            assert counts[mode, option] == formulas.MODES[mode].formula(
                stat, **options), (stat, mode, option)


@pytest.mark.parametrize("stat", [
    stats.size_stat(2, 0), stats.size_stat(5, 0), stats.color_stat(3, (0, 1, 0)),
], ids=repr)
def test_single_vertex_conventions(stat):
    counts = formulas.centred_counts(stat)
    assert set(counts) == {key for key, _ in _queries(stat)}
    for (mode, option), options in _queries(stat):
        assert counts[mode, option] == formulas.MODES[mode].formula(stat, **options)


def _forms(stat) -> list[tuple[str, dict, formulas.Centres]]:
    """Every mode's `Centres` for `stat`, with the options that ask for it:
    pointed at each colour, the automorphism strata at every s up to p + 2,
    so at orders that do not divide p and past p, and labelled if p >= 1."""
    colors = [None] if isinstance(stat, stats.SizeStat) else range(1, stat.m + 1)
    queries = ([(mode, {}) for mode in ("rooted", "unlabelled", "asymmetric")]
               + [("labelled", {})] * (stat.p > 0)
               + [("pointed", {"color": c}) for c in colors]
               + [(mode, {"s": s}) for s in range(2, stat.p + 3)
                  for mode in ("aut-exact", "aut-atleast")])
    return [(mode, options, formulas.MODES[mode].centres(stat, **options))
            for mode, options in queries]


@pytest.mark.parametrize("m, p_max", [(3, 4), (2, 6)], ids=["m3-p4", "m2-p6"])
def test_a_batch_of_forms_counts_each_form_as_alone(m, p_max):
    rng = random.Random(10 * m + p_max)
    lone_vertex = [stats.size_stat(m, 0), stats.color_stat(m, (1,) + (0,) * (m - 1)),
                   stats.degree_stat(m, [{0: 1}] + [{}] * (m - 1))]
    for stat in lone_vertex + [st for p in range(1, p_max + 1)
                               for st in _statistics(m, p)]:
        queries = _forms(stat)
        queries += rng.sample(queries, 3)  # the same form twice in one batch
        rng.shuffle(queries)
        batch = formulas._count_centred(stat, [form for _, _, form in queries])
        assert batch == [formulas._count_centred(stat, [form])[0]
                         for _, _, form in queries], stat
        for (mode, options, _), count in zip(queries, batch):
            assert count == formulas.MODES[mode].formula(stat, **options), (
                stat, mode, options)
            if "s" in options and (stat.p == 0 or stat.p % options["s"]):
                assert count == 0, (stat, mode, options)
            elif stat.p == 0:  # one class, no rooting, one pointing at its colour, 1
                assert count == (mode != "rooted" and options.get("color") in (None, 1)), (
                    stat, mode, options)


def test_a_bumped_entry_fails_verify_with_its_label(monkeypatch):
    target = oracle._all_degree_matrices(3, 4)[5]
    centred_counts = formulas.centred_counts

    def bumped(stat, *forms):
        counts = centred_counts(stat, *forms)
        if stat == target:
            counts["aut-exact", 2] += 1
        return counts

    monkeypatch.setattr(formulas, "centred_counts", bumped)
    report = oracle.verify(3, 4)
    failure = report.first_failure
    assert not report.passed and (failure.name, failure.p) == ("classes degree", 4)
    value = centred_counts(target)["aut-exact", 2]
    assert failure.detail == (f"aut=2 {target.rows}: expected {value + 1}, "
                              f"got {value}")
    assert [r.name for r in report.results if not r.passed] == ["classes degree"]


# (name, p, comparisons) of every check of `verify`, as the closed forms
# were compared one mode at a time: the same checks, each with as many
# comparisons.
CHECKS = ("rooted size", "rooted color", "rooted degree", "classes size",
          "classes color", "classes degree", "labelled", "pointed orbits",
          "factorizations")
COMPARISONS = {
    (3, 4): [(1, 1, 1, 2, 2, 3, 2, 7, 1), (1, 3, 3, 4, 9, 12, 4, 19, 4),
             (1, 6, 6, 4, 18, 24, 7, 37, 13), (1, 10, 16, 6, 40, 80, 11, 79, 59)],
    (2, 6): [(1, 1, 1, 2, 2, 3, 2, 5, 1), (1, 2, 2, 4, 6, 8, 3, 9, 2),
             (1, 3, 3, 4, 9, 12, 4, 13, 4), (1, 4, 6, 6, 16, 30, 5, 21, 10),
             (1, 5, 10, 4, 15, 40, 6, 31, 19), (1, 6, 20, 8, 30, 120, 7, 53, 48)],
    (4, 4): [(1, 1, 1, 2, 2, 3, 2, 9, 1), (1, 4, 4, 4, 12, 16, 5, 33, 8),
             (1, 10, 10, 4, 30, 40, 11, 81, 40), (1, 20, 32, 6, 80, 160, 21, 209, 308)],
    (5, 4): [(1, 1, 1, 2, 2, 3, 2, 11, 1), (1, 5, 5, 4, 15, 20, 6, 51, 16),
             (1, 15, 15, 4, 45, 60, 16, 151, 121),
             (1, 35, 55, 6, 140, 275, 36, 451, 1557)],
}


@pytest.mark.parametrize("m, p_max", COMPARISONS,
                         ids=["m3-p4", "m2-p6", "m4-p4", "m5-p4"])
def test_verify_makes_the_same_comparisons(m, p_max):
    report = oracle.verify(m, p_max)
    assert report.passed
    assert [(r.name, r.p, r.comparisons) for r in report.results] == [
        (name, p, count) for p, row in enumerate(COMPARISONS[m, p_max], start=1)
        for name, count in zip(CHECKS, row)]

"""The benchmark's four workloads, generated from a seed.

A workload is one round of CLI operations; a run repeats the same round.
The sizes in each round are fixed, so every seed costs about the same: the
seed only picks the statistics, the equal-cost variants (planted or
rooted target, `--path oracle` or `--check oracle`), the output formats and
the order of the round.  The sizes are today's budgets written out, not read
from the program, so a change of budget does not change the workload.

Count operations that share a statistic form a group, which the checker
tests against the identities between counting modes.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("formula-route", "series-multi", "series-one-sort", "oracle-verify")

# Today's SERIES_ONE_SORT_BOUND and GEN_BUDGET.
SERIES_ONE_SORT_MAX = 64
GEN_SIZES = {2: 8, 3: 6, 4: 4}
# Series of middling cost (about 40 ms) run for every target, so that the
# median operation of `series-multi` lies inside a run of like-cost ones.
EVERY_TARGET = {(3, 11), (4, 13)}


@dataclass
class Op:
    """One CLI command; `q` holds its parameters, typed, for the checker."""

    q: dict
    group: int | None = None
    argv: list[str] = field(init=False)

    def __post_init__(self):
        self.argv = _argv(self.q)

    def __str__(self) -> str:
        return "cacti " + " ".join(
            repr(a) if " " in a or ";" in a else a for a in self.argv)


def _argv(q: dict) -> list[str]:
    argv = [q["command"]] + ([str(q["which"])] if "which" in q else [])
    for flag in ("m", "p", "colors", "degrees", "mode", "color", "s", "kind",
                 "path", "check", "order", "target", "m_range", "p_max"):
        if flag in q:
            value = q[flag]
            if flag == "colors":
                value = ",".join(map(str, value))
            elif flag == "degrees":
                value = degree_spec(value)
            argv += ["--" + flag.replace("_", "-"), str(value)]
    if q.get("one_sort"):
        argv.append("--one-sort")
    return argv + ["--format", q["format"]]


def degree_spec(rows: list[dict[int, int]]) -> str:
    return "; ".join(" ".join(f"{j}^{k}" for j, k in sorted(row.items()))
                     for row in rows)


def _strata(p: int) -> list[int]:
    return [s for s in range(2, p + 1) if p % s == 0]


def _with_divisor_count(rng: random.Random, lo: int, hi: int, tau: int) -> int:
    """A p in lo..hi with exactly tau divisors, so groups keep their size."""
    return rng.choice([p for p in range(lo, hi + 1)
                       if len(_strata(p)) + 1 == tau])


def _color_vector(rng: random.Random, m: int, p: int) -> tuple[int, ...]:
    n = (m - 1) * p + 1
    while True:
        head = [rng.randint(1, p) for _ in range(m - 1)]
        last = n - sum(head)
        if 1 <= last <= p:
            return tuple(head + [last])


def _partition(rng: random.Random, p: int, k: int) -> dict[int, int]:
    """A partition of p into k parts, as degree -> multiplicity."""
    parts = [1] * k
    for _ in range(p - k):
        parts[rng.randrange(k)] += 1
    row: dict[int, int] = {}
    for j in parts:
        row[j] = row.get(j, 0) + 1
    return row


def _degree_rows(rng: random.Random, m: int, p: int) -> list[dict[int, int]]:
    return [_partition(rng, p, c) for c in _color_vector(rng, m, p)]


class _Builder:
    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.ops: list[Op] = []
        self.groups = 0

    def fmt(self, choices=("text", "json")) -> str:
        return self.rng.choice(choices)

    def add(self, q: dict, group: int | None = None) -> None:
        q.setdefault("format", self.fmt())
        self.ops.append(Op(q, group))

    def count_group(self, m: int, level: str, p: int, oracle: bool) -> None:
        """Every counting mode on one statistic (the identity group).

        With `oracle`, each count goes through exhaustive generation, which
        has no constellation or free route and only unlabelled gonal counts.
        """
        self.groups += 1
        g = self.groups
        if level == "size":
            stat = {"p": p}
        elif level == "colors":
            stat = {"colors": _color_vector(self.rng, m, p)}
        else:
            stat = {"degrees": _degree_rows(self.rng, m, p)}
        modes: list[dict] = [{"mode": "rooted"}, {"mode": "labelled"},
                             {"mode": "unlabelled"}, {"mode": "asymmetric"}]
        for s in _strata(p):
            modes += [{"mode": "aut-exact", "s": s}, {"mode": "aut-atleast", "s": s}]
        if level == "size":
            modes.append({"mode": "pointed"})
            kinds = ("labelled", "unlabelled", "pointed", "rooted", "planted")
            modes += [{"mode": "gonal", "kind": k}
                      for k in (("unlabelled",) if oracle else kinds)]
            if not oracle:
                modes.append({"mode": "constellation"})
        else:
            modes += [{"mode": "pointed", "color": c} for c in range(1, m + 1)]
            if not oracle and level == "colors" and m == 2:
                modes.append({"mode": "free"})
        for mode in modes:
            route = self.oracle_route() if oracle else {}
            self.add({"command": "count", "m": m, **stat, **mode, **route}, g)

    def oracle_route(self) -> dict:
        """`--path oracle`, or the formula route rechecked by the oracle."""
        return self.rng.choice(({"path": "oracle"}, {"check": "oracle"}))

    def shuffled(self) -> list[Op]:
        self.rng.shuffle(self.ops)
        return self.ops


def formula_route(seed: int) -> list[Op]:
    """Small formula counts over every mode and level, plus table sweeps."""
    b = _Builder(seed)
    for m, tau in ((2, 6), (3, 4), (4, 2), (5, 6), (6, 4), (7, 2)):
        b.count_group(m, "size", _with_divisor_count(b.rng, 5, 60, tau),
                      oracle=False)
    for m, tau in ((2, 4), (3, 6), (4, 2), (5, 4)):
        b.count_group(m, "colors", _with_divisor_count(b.rng, 4, 30, tau),
                      oracle=False)
    for m, tau in ((2, 6), (3, 4), (4, 2)):
        b.count_group(m, "degrees", _with_divisor_count(b.rng, 4, 16, tau),
                      oracle=False)
    tables = [{"which": 1}, {"which": 2},
              {"which": 3, "m_range": "2..7", "p_max": 120},
              {"which": 3, "m_range": "2..4", "p_max": 240}]
    for t in tables:
        b.add({"command": "table", **t, "format": b.fmt(("text", "csv"))})
    return b.shuffled()


def series_multi(seed: int) -> list[Op]:
    """Multivariate planted series: unweighted and weighted (degree level)."""
    b = _Builder(seed)
    plan = {  # m -> (planted/rooted orders, unlabelled orders,
              #       colour-level p for rooted/pointed, for unlabelled,
              #       degree-level p); orders stop at today's
              #       SERIES_MULTI_BOUND = 16
        2: ((6, 8, 10, 12), (8, 10), (8,), (9,), (7, 9, 10)),
        3: ((7, 9, 11, 13, 15), (11, 13), (5,), (6,), (4, 5, 6)),
        4: ((7, 10, 13, 16), (13,), (3,), (4,), (3, 4)),
        5: ((9, 13, 16), (13,), (2, 3), (3,), (2, 3)),
    }
    for m, (orders, unl_orders, rp_ps, unl_ps, deg_ps) in plan.items():
        for order in orders:
            if (m, order) in EVERY_TARGET:
                targets = [("planted", c) for c in range(1, m + 1)] + [("rooted", None)]
            else:
                target = b.rng.choice(("planted", "rooted"))
                targets = [(target, b.rng.randint(1, m) if target == "planted" else None)]
            for target, color in targets:
                q = {"command": "series", "m": m, "order": order, "target": target}
                if color:
                    q["color"] = color
                b.add(q)
        for order in unl_orders:
            b.add({"command": "series", "m": m, "order": order,
                   "target": "unlabelled"})
        for p in rp_ps:
            q = {"command": "count", "m": m, "colors": _color_vector(b.rng, m, p),
                 "mode": b.rng.choice(("rooted", "pointed")), "path": "series"}
            if q["mode"] == "pointed":
                q["color"] = b.rng.randint(1, m)
            b.add(q)
        for p in unl_ps:
            b.add({"command": "count", "m": m, "colors": _color_vector(b.rng, m, p),
                   "mode": "unlabelled", "path": "series"})
        for p in deg_ps:
            b.add({"command": "count", "m": m, "degrees": _degree_rows(b.rng, m, p),
                   "mode": "rooted", "path": "series"})
    return b.shuffled()


def series_one_sort(seed: int) -> list[Op]:
    """One-variable series (`--one-sort` and size-level `--path series`)."""
    b = _Builder(seed)
    for m in range(2, 8):
        for order in (16, 32, 48, SERIES_ONE_SORT_MAX):
            b.add({"command": "series", "m": m, "order": order,
                   "target": b.rng.choice(("planted", "rooted")), "one_sort": True})
            b.add({"command": "series", "m": m, "order": order,
                   "target": "unlabelled", "one_sort": True})
        p_max = (SERIES_ONE_SORT_MAX - 1) // (m - 1)
        for p in (p_max // 2, p_max):
            for mode in ("rooted", "unlabelled"):
                b.add({"command": "count", "m": m, "p": p, "mode": mode,
                       "path": "series"})
    return b.shuffled()


def oracle_verify(seed: int) -> list[Op]:
    """Exhaustive generation: `verify` and oracle counts at today's budgets.

    The round's costs form runs of like-cost operations around its median
    (the colour group at m = 2 and the size group at m = 4, about 40 ms)
    and around its 90th percentile (the operations at the budget sizes,
    0.5-0.6 s), so that neither lies on a jump between two costs.
    """
    b = _Builder(seed)
    for m, p_max in GEN_SIZES.items():
        for p in (p_max, p_max - 1 if m > 2 else p_max - 2):
            b.add({"command": "verify", "m": m, "p_max": p})
    for m, level, p in ((2, "colors", 6), (3, "degrees", 4), (4, "size", 4)):
        b.count_group(m, level, p, oracle=True)
    for m in (2, 3):
        mode = b.rng.choice(("unlabelled", "asymmetric", "labelled"))
        b.add({"command": "count", "m": m, "p": GEN_SIZES[m], "mode": mode,
               **b.oracle_route()})
    b.add({"command": "count", "m": 3, "p": 5, "mode": "gonal",
           "kind": "unlabelled", **b.oracle_route()})
    return b.shuffled()


BUILDERS = {"formula-route": formula_route, "series-multi": series_multi,
            "series-one-sort": series_one_sort, "oracle-verify": oracle_verify}


def build(workload: str, seed: int) -> list[Op]:
    return BUILDERS[workload](seed)

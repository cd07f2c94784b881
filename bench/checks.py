"""Output checks for every benchmark operation.

Each CLI output is parsed and compared with `reference` (published tables,
Fuss-Catalan numbers, Goulden-Jackson products, size-level counts derived
apart from the program), with the identities between the counting modes of
one statistic, and, where two routes of the program overlap, with the
closed-form route.  Nothing is compared with a stored copy of an earlier
output.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import re

import reference as ref
from workloads import Op, degree_spec

from cacti import formulas, oracle, stats
from cacti.formulas import AutMode, GonalKind


class Mismatch(Exception):
    pass


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def _decimal(text: str) -> int:
    expect(re.fullmatch(r"-?\d+", text) is not None, f"not a decimal: {text!r}")
    return int(text)


# --- count -------------------------------------------------------------------

def _stat_of(q: dict):
    if "p" in q:
        return stats.size_stat(q["m"], q["p"])
    if "colors" in q:
        return stats.color_stat(q["m"], q["colors"])
    return stats.degree_stat(q["m"], q["degrees"])


def _p_of(q: dict) -> int:
    if "p" in q:
        return q["p"]
    if "colors" in q:
        return (sum(q["colors"]) - 1) // (q["m"] - 1)
    return sum(j * k for j, k in q["degrees"][0].items())


def _formula_count(q: dict) -> int:
    """The closed-form route, for cross-route agreement."""
    stat, mode = _stat_of(q), q["mode"]
    if mode in ("aut-exact", "aut-atleast"):
        which = AutMode.EXACTLY if mode == "aut-exact" else AutMode.AT_LEAST
        return formulas.count_aut(stat, q["s"], which)
    if mode == "gonal":
        return formulas.count_gonal(q["m"], q["p"], GonalKind(q["kind"]))
    if mode == "pointed":
        return formulas.count_pointed(stat, q.get("color"))
    return {"rooted": formulas.count_rooted, "labelled": formulas.count_labelled,
            "unlabelled": formulas.count_unlabelled,
            "asymmetric": formulas.count_asymmetric}[mode](stat)


def _reference_count(q: dict) -> int | None:
    """Independent value of one count, where the benchmark has one."""
    m, mode, p = q["m"], q["mode"], _p_of(q)
    if "p" in q:
        if mode == "gonal":
            return ref.gonal(m, p, q["kind"])
        if mode == "constellation":
            return ref.constellation(m, p)
        size = ref.size_counts(m, p)
        if mode == "aut-exact":
            return size["exact"].get(q["s"], 0)
        if mode == "aut-atleast":
            return size["at_least"].get(q["s"], 0)
        return size[mode]
    if mode == "free":
        return ref.free_bicoloured(*q["colors"])
    if mode == "rooted":
        return (ref.rooted_color(tuple(q["colors"])) if "colors" in q
                else ref.rooted_degree(q["degrees"]))
    if "colors" in q:
        published = ref.TABLE2.get(tuple(q["colors"]))
        columns = ("rooted", "unlabelled", "asymmetric")
    else:
        published = ref.TABLE1.get(degree_spec(q["degrees"]))
        columns = ("pointed", "rooted", "unlabelled", "asymmetric")
    if published is None or mode not in columns:
        return None
    value = published[columns.index(mode)]
    return value[q["color"] - 1] if mode == "pointed" else value


def parse_count(q: dict, out: str) -> int:
    if q["format"] == "text":
        return _decimal(out.strip())
    payload = json.loads(out)
    expect(set(payload) == {"query", "count", "path"}, "json keys")
    expect(payload["path"] == q.get("path", "formula"), "json path")
    echo = {"mode": q["mode"], "m": q["m"]}
    for key in ("p", "colors", "degrees", "color", "s"):
        if key in q:
            echo[key] = q[key]
    if "colors" in q:
        echo["colors"] = ",".join(map(str, q["colors"]))
    if "degrees" in q:
        echo["degrees"] = degree_spec(q["degrees"])
    if q["mode"] == "gonal":
        echo["kind"] = q["kind"]
    expect(payload["query"] == echo, f"json query {payload['query']} != {echo}")
    expect(isinstance(payload["count"], str), "count must be a string")
    return _decimal(payload["count"])


def check_count(q: dict, out: str) -> int:
    value = parse_count(q, out)
    want = _reference_count(q)
    if want is not None:
        expect(value == want, f"count {value}, reference {want}")
    if q.get("path", "formula") != "formula" or "check" in q:
        want = _formula_count(q)
        expect(value == want, f"count {value}, formula route gives {want}")
    return value


def check_group(ops: list[Op], values: list[int]) -> None:
    """Identities between the counting modes of one statistic."""
    q0 = ops[0].q
    m, p = q0["m"], _p_of(q0)
    got: dict = {"exact": {}, "at_least": {}, "pointed": {}}
    for op, value in zip(ops, values):
        mode = op.q["mode"]
        if mode == "aut-exact":
            got["exact"][op.q["s"]] = value
        elif mode == "aut-atleast":
            got["at_least"][op.q["s"]] = value
        elif mode == "pointed":
            got["pointed"][op.q.get("color")] = value
        elif mode == "gonal":
            got["gonal " + op.q["kind"]] = value
        else:
            got[mode] = value
    exact = {1: got["asymmetric"], **got["exact"]}
    expect(got["unlabelled"] == sum(exact.values()),
           "unlabelled != sum of automorphism strata")
    expect(got["rooted"] == sum(p // s * n for s, n in exact.items()),
           "rooted != sum of (p/s) N_s")
    for s, value in got["at_least"].items():
        expect(value == sum(n for t, n in exact.items() if t % s == 0),
               f"aut-atleast {s} != sum of N_t over multiples t")
    if "p" in q0:
        weights = math.factorial((m - 1) * p + 1)
    elif "colors" in q0:
        weights = math.prod(math.factorial(c) for c in q0["colors"])
    else:
        weights = math.prod(math.factorial(sum(r.values())) for r in q0["degrees"])
    expect(got["labelled"] * p == got["rooted"] * weights,
           "labelled * p != rooted * prod n_i!")
    expect(got["unlabelled"] == sum(got["pointed"].values()) - (m - 1) * got["rooted"],
           "dissymmetry: unlabelled != sum pointed - (m-1) rooted")
    if "gonal pointed" in got:
        expect(got["gonal unlabelled"] == got["gonal pointed"]
               + got["gonal rooted"] - got["gonal planted"], "gonal dissymmetry")


# --- table -------------------------------------------------------------------

def _table_rows(q: dict, out: str) -> tuple[list[str], list[list[str]]]:
    if q["format"] == "csv":
        rows = list(csv.reader(io.StringIO(out)))
    else:
        rows = [re.split(r" {2,}", line) for line in out.splitlines()]
    expect(len(rows) >= 1, "empty table")
    return rows[0], rows[1:]


def _table1(header, rows, fmt) -> None:
    expect(header == ["m", "degrees", "pointed", "rooted", "unlabelled",
                      "asymmetric"], f"table 1 header {header}")
    expect(len(rows) == len(ref.TABLE1) + 1, "table 1 row count")
    first = rows[0]
    sums = [sum(int(j) * int(k) for j, k in (t.split("^") for t in row.split()))
            for row in ref.TABLE1_INCOHERENT.split(";")]
    note = ("COHERENCE-FAIL (RowSumMismatch: rows imply different polygon "
            f"counts: {sums})")
    tail = ["", "", ""] if fmt == "csv" else []
    expect(first == ["2", ref.TABLE1_INCOHERENT, note] + tail,
           f"table 1 incoherent row {first}")
    seen = set()
    for row in rows[1:]:
        expect(len(row) == 6 and row[1] in ref.TABLE1, f"table 1 row {row}")
        pointed, rooted, unlabelled, asymmetric = ref.TABLE1[row[1]]
        want = [str(row[1].count(";") + 1), row[1],
                " ".join(map(str, pointed)), str(rooted), str(unlabelled),
                str(asymmetric)]
        expect(row == want, f"table 1 row {row}, published {want}")
        seen.add(row[1])
    expect(len(seen) == len(ref.TABLE1), "table 1 rows repeat")


def _table2(header, rows) -> None:
    expect(header == ["colors", "rooted", "unlabelled", "asymmetric"],
           f"table 2 header {header}")
    expect(len(rows) == len(ref.TABLE2), "table 2 row count")
    seen = set()
    for row in rows:
        expect(len(row) == 4, f"table 2 row {row}")
        colors = tuple(_decimal(c) for c in row[0].split(","))
        want = ref.TABLE2.get(colors)
        expect(want is not None and [_decimal(c) for c in row[1:]] == list(want),
               f"table 2 row {row}, published {want}")
        seen.add(colors)
    expect(len(seen) == len(ref.TABLE2), "table 2 rows repeat")


def _table3(q, header, rows) -> None:
    expect(header == ["m", "p", "n", "unlabelled", "asymmetric", "gonal"],
           f"table 3 header {header}")
    lo, hi = map(int, q["m_range"].split(".."))
    keys = [(m, p) for m in range(lo, hi + 1) for p in range(q["p_max"] + 1)]
    expect(len(rows) == len(keys), "table 3 row count")
    for (m, p), row in zip(keys, rows):
        expect(len(row) == 6, f"table 3 row {row}")
        cells = [_decimal(c) for c in row]
        if p == 0:
            want = (1, 1, 1)
        else:
            size = ref.size_counts(m, p)
            want = (size["unlabelled"], size["asymmetric"],
                    ref.gonal(m, p, "unlabelled"))
        published = ref.TABLE3.get(m, {}).get(p)
        expect(published is None or published == want,
               f"reference disagrees with published table 3 at {m},{p}")
        expect(cells == [m, p, (m - 1) * p + 1, *want],
               f"table 3 row {row}, reference {want}")


def check_table(q: dict, out: str) -> None:
    header, rows = _table_rows(q, out)
    if q["which"] == 1:
        _table1(header, rows, q["format"])
    elif q["which"] == 2:
        _table2(header, rows)
    else:
        _table3(q, header, rows)


# --- series ------------------------------------------------------------------

def _monomial(text: str, m: int, one_sort: bool) -> tuple[int, ...]:
    exps = [0] * (1 if one_sort else m)
    if text == "1":
        return tuple(exps)
    for factor in text.split("*"):
        name, _, power = factor.partition("^")
        var = 0 if one_sort and name == "x" else (
            int(name[1:]) - 1 if not one_sort and re.fullmatch(r"x\d+", name)
            else -1)
        expect(0 <= var < len(exps) and exps[var] == 0, f"bad monomial {text!r}")
        exps[var] = _decimal(power) if power else 1
        expect(exps[var] >= 1, f"bad exponent in {text!r}")
    return tuple(exps)


def parse_series(q: dict, out: str) -> dict[tuple[int, ...], int]:
    m, one_sort = q["m"], bool(q.get("one_sort"))
    coeffs: dict[tuple[int, ...], int] = {}
    if q["format"] == "text":
        pairs = []
        for line in out.splitlines():
            mono, _, coeff = line.rpartition(" ")
            pairs.append((_monomial(mono, m, one_sort), _decimal(coeff)))
    else:
        payload = json.loads(out)
        expect({k: payload.get(k) for k in ("m", "order", "target", "one_sort")}
               == {"m": m, "order": q["order"], "target": q["target"],
                   "one_sort": one_sort}, "series json header")
        pairs = [(tuple(c["exponents"]), _decimal(c["coefficient"]))
                 for c in payload["coefficients"]]
        expect(all(len(e) == (1 if one_sort else m) for e, _ in pairs),
               "series json exponent length")
    for e, c in pairs:
        expect(e not in coeffs, f"monomial {e} repeats")
        coeffs[e] = c
    return coeffs


def expected_series(q: dict) -> dict[tuple[int, ...], int]:
    m, order, target = q["m"], q["order"], q["target"]
    want: dict[tuple[int, ...], int] = {}
    if q.get("one_sort"):
        for p in range(0, (order - 1) // (m - 1) + 1):
            n = (m - 1) * p + 1
            if target == "unlabelled":
                want[(n,)] = 1 if p == 0 else ref.size_counts(m, p)["unlabelled"]
            elif p or target == "planted":
                want[(n,)] = ref.fuss_catalan(m, p)
        return want
    units = [tuple(int(i == j) for j in range(m)) for i in range(m)]
    if target == "planted":
        want[units[q.get("color", 1) - 1]] = 1
    elif target == "unlabelled":
        want.update({u: 1 for u in units})
    p = 1
    while (m - 1) * p + 1 <= order:
        vectors = ref.color_vectors(m, p)
        if target == "unlabelled":
            values = {v: formulas.count_unlabelled(stats.color_stat(m, v))
                      for v in vectors}
            expect(sum(values.values()) == ref.size_counts(m, p)["unlabelled"],
                   f"colour-level unlabelled counts at p={p} do not sum "
                   "to the size-level count")
            for v, value in values.items():
                if v in ref.TABLE2:
                    expect(value == ref.TABLE2[v][1], f"table 2 at {v}")
            want.update(values)
        else:
            want.update({v: ref.rooted_color(v) for v in vectors})
        p += 1
    return want


def check_series(q: dict, out: str) -> None:
    got, want = parse_series(q, out), expected_series(q)
    expect(set(got) == set(want),
           f"monomials differ: {sorted(set(got) ^ set(want))[:4]}")
    bad = next((e for e in want if got[e] != want[e]), None)
    expect(bad is None, f"coefficient of {bad} is {got.get(bad)}, "
                        f"reference {want.get(bad)}")


# --- verify ------------------------------------------------------------------

_LINE = re.compile(r"(PASS|FAIL) m=(\d+) p=(\d+) (.+) \((\d+) comparisons\)")


def check_verify(q: dict, out: str) -> None:
    m, p_max = q["m"], q["p_max"]
    want = []
    for p in range(1, p_max + 1):
        census = p <= oracle.FACT_BUDGET.get(m, 2)
        for name, n in ref.verify_comparisons(m, p, census).items():
            want.append((name, p, n))
    if q["format"] == "json":
        payload = json.loads(out)
        expect(payload.get("m") == m and payload.get("p_max") == p_max
               and payload.get("passed") is True, "verify json header")
        got = [(r["name"], r["p"], r["comparisons"]) for r in payload["results"]]
        expect(all(r["passed"] is True and r["detail"] == ""
                   for r in payload["results"]), "a verify check failed")
    else:
        lines = out.splitlines()
        expect(lines[-1:] == ["all checks passed"], "verify summary line")
        got = []
        for line in lines[:-1]:
            match = _LINE.fullmatch(line)
            expect(match is not None and match[1] == "PASS"
                   and int(match[2]) == m, f"verify line {line!r}")
            got.append((match[4], int(match[3]), int(match[5])))
    expect(got == want, f"verify checks {got[:2]}..., expected {want[:2]}...")


# --- rounds ------------------------------------------------------------------

CHECKERS = {"count": check_count, "table": check_table,
            "series": check_series, "verify": check_verify}


class Checker:
    """Checks a round of results; an output identical to one already
    verified for the same operation is not parsed again."""

    def __init__(self, ops: list[Op]):
        self.ops = ops
        self.groups: dict[int, list[int]] = {}
        for i, op in enumerate(ops):
            if op.group is not None:
                self.groups.setdefault(op.group, []).append(i)
        self.verified: dict[int, bytes] = {}

    @staticmethod
    def digest(code: int, out: str) -> bytes:
        return hashlib.blake2b(f"{code}\0{out}".encode(), digest_size=16).digest()

    def check(self, results: list[tuple[int, str, str]]) -> dict[int, str]:
        """Problems by operation index; an empty dict means all correct."""
        problems: dict[int, str] = {}
        values: dict[int, int] = {}
        fresh = []
        for i, (op, (code, out, err)) in enumerate(zip(self.ops, results)):
            digest = self.digest(code, out)
            if self.verified.get(i) == digest:
                continue
            fresh.append(i)
            if code != 0:
                problems[i] = f"exit code {code}: {err.strip()[-300:]}"
                continue
            try:
                value = CHECKERS[op.q["command"]](op.q, out)
                if op.group is not None:
                    values[i] = value
            except Exception as exc:  # any failure to check rejects the output
                problems[i] = f"{type(exc).__name__}: {exc}"
        touched = {self.ops[i].group for i in fresh} - {None}
        for g in touched:
            members = self.groups[g]
            if any(i in problems or results[i][0] != 0 for i in members):
                continue
            try:
                check_group([self.ops[i] for i in members],
                            [values[i] if i in values
                             else parse_count(self.ops[i].q, results[i][1])
                             for i in members])
            except Exception as exc:
                for i in members:
                    problems.setdefault(i, f"group identity: {exc}")
        for i in fresh:
            if i not in problems:
                self.verified[i] = self.digest(results[i][0], results[i][1])
        return problems

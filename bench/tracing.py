"""Per-layer spans and counters, recorded from outside the program.

`Tracer.install` replaces the public functions of each `cacti` module, the
public and arithmetic methods of its classes, and every `from ... import`
binding of them in the other modules, with wrappers that time each call.
A span's self time is its duration minus that of the wrapped calls it
made, so a layer's self time excludes the layers it calls.  `uninstall`
puts the originals back.  Nothing is changed inside `src/cacti`.
"""

from __future__ import annotations

import functools
import types
from time import perf_counter

LAYERS = ("cli", "stats", "arith", "formulas", "series", "oracle")
# Methods traced besides public ones: the series arithmetic.
OPERATORS = {"__add__", "__radd__", "__sub__", "__neg__", "__mul__", "__rmul__"}

# Per-layer metrics: name -> (unit, how it is read from the span records).
# "calls:K" counts calls of span K, "ms:K" its inclusive time, "self:K" its
# self time; a bare layer name sums over all spans of that layer.  "items:K"
# is a count of things made, "peak:K" the largest value seen.
METRICS = {
    "cli.main.calls": ("count", "calls:cli.main"),
    "cli.self_ms": ("ms", "self:cli"),
    "cli.build_parser_ms": ("ms", "ms:cli.build_parser"),
    "stats.calls": ("count", "calls:stats"),
    "stats.ms": ("ms", "self:stats"),
    "arith.calls": ("count", "calls:arith"),
    "arith.ms": ("ms", "self:arith"),
    "arith.binomial.calls": ("count", "calls:arith.binomial"),
    "arith.euler_phi.calls": ("count", "calls:arith.euler_phi"),
    "arith.moebius_mu.calls": ("count", "calls:arith.moebius_mu"),
    "arith.divisors.calls": ("count", "calls:arith.divisors"),
    "formulas.calls": ("count", "calls:formulas"),
    "formulas.self_ms": ("ms", "self:formulas"),
    "series.solve_planted.calls": ("count", "calls:series.solve_planted"),
    "series.solve_planted.ms": ("ms", "ms:series.solve_planted"),
    "series.geometric.calls": ("count", "calls:series.geometric"),
    "series.marker_mul.calls": ("count", "calls:series.MarkerPoly.__mul__"),
    "series.marker_mul.ms": ("ms", "ms:series.MarkerPoly.__mul__"),
    "series.mul.calls": ("count", "calls:series.Series.__mul__"),
    "series.mul.ms": ("ms", "ms:series.Series.__mul__"),
    "series.solve_one_sort.ms": ("ms", "ms:series.solve_one_sort"),
    "series.log_geometric.ms": ("ms", "ms:series.log_geometric"),
    "series.coeffs_out": ("count", "items:series.coeffs_out"),
    "oracle.rooted_generated": ("count", "items:oracle.rooted_generated"),
    "oracle.generate_rooted.ms": ("ms", "ms:oracle.generate_rooted"),
    "oracle.canonical_unrooted.calls": ("count", "calls:oracle.canonical_unrooted"),
    "oracle.canonical_unrooted.ms": ("ms", "ms:oracle.canonical_unrooted"),
    "oracle.re_root.calls": ("count", "calls:oracle.re_root"),
    "oracle.encode_rooted.calls": ("count", "calls:oracle.encode_rooted"),
    "oracle.to_graph.calls": ("count", "calls:oracle.to_graph"),
    "oracle.to_graph.ms": ("ms", "ms:oracle.to_graph"),
    "oracle.verify.self_ms": ("ms", "self:oracle.verify"),
    "oracle.count_pointed_orbits.ms": ("ms", "ms:oracle.count_pointed_orbits"),
    "oracle.factorizations.ms": ("ms", "ms:oracle.factorizations"),
    "oracle.planted_cache.size": ("count", "peak:oracle.planted_cache.size"),
}


def _coefficients(result) -> int:
    """Coefficients in a Series or in every series of a PlantedFamily."""
    if hasattr(result, "coeffs"):
        return len(result.coeffs)
    return sum(len(s.coeffs) for s in getattr(result, "series", ()))


class Tracer:
    def __init__(self, modules: dict[str, types.ModuleType]):
        self.modules = modules
        # span key -> [calls, inclusive seconds, self seconds, active depth]
        self.spans: dict[str, list] = {}
        self.items: dict[str, int] = {}
        self._children = [0.0]
        self._layers = [""]
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, fn, layer: str, key: str):
        rec = self.spans.setdefault(key, [0, 0.0, 0.0, 0])
        children, layers, items = self._children, self._layers, self.items
        count_items = None
        if key == "oracle.generate_rooted":
            count_items = ("oracle.rooted_generated", len)
        elif layer == "series":
            count_items = ("series.coeffs_out", _coefficients)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            caller = layers[-1]
            children.append(0.0)
            layers.append(layer)
            rec[3] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                layers.pop()
                rec[3] -= 1
                rec[0] += 1
                rec[2] += dt - children.pop()
                if rec[3] == 0:
                    rec[1] += dt
                children[-1] += dt
            if count_items and (layer != "series" or caller != "series"):
                name, measure = count_items
                items[name] = items.get(name, 0) + measure(result)
            return result

        return wrapper

    def install(self) -> None:
        wrappers: dict[int, object] = {}
        for layer in LAYERS:
            module = self.modules[layer]
            for name, obj in list(vars(module).items()):
                if (isinstance(obj, types.FunctionType) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = self._wrap(obj, layer, f"{layer}.{name}")
                elif isinstance(obj, type) and obj.__module__ == module.__name__:
                    self._install_methods(obj, layer)
        for module in list(self.modules.values()):
            for name, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patch(module, name, wrappers[id(obj)])

    def _install_methods(self, cls: type, layer: str) -> None:
        wrapped: dict[int, object] = {}
        for name, obj in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            if isinstance(obj, types.FunctionType):
                if id(obj) not in wrapped:  # __rmul__ = __mul__ shares one span
                    wrapped[id(obj)] = self._wrap(
                        obj, layer, f"{layer}.{cls.__name__}.{name}")
                self._patch(cls, name, wrapped[id(obj)])
            elif isinstance(obj, classmethod):
                fn = self._wrap(obj.__func__, layer, f"{layer}.{cls.__name__}.{name}")
                self._patch(cls, name, classmethod(fn))

    def _patch(self, owner, name: str, value) -> None:
        self._patches.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    def note_max(self, name: str, value: int) -> None:
        self.items[name] = max(self.items.get(name, 0), value)

    def metrics(self, rounds: int) -> dict[str, dict]:
        """Every per-layer metric, per round of the workload."""
        def read(source: str) -> float:
            kind, _, key = source.partition(":")
            if kind == "peak":
                return self.items.get(key, 0)
            if kind == "items":
                return self.items.get(key, 0) / rounds
            field = {"calls": 0, "ms": 1, "self": 2}[kind]
            if key in LAYERS:
                total = sum(rec[field] for k, rec in self.spans.items()
                            if k.split(".", 1)[0] == key)
            else:
                total = self.spans.get(key, [0, 0.0, 0.0])[field]
            return total / rounds * (1 if field == 0 else 1000.0)

        return {name: {"value": read(source), "unit": unit}
                for name, (unit, source) in METRICS.items()}

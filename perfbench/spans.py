"""Traced replay support: spans around calls into bchnest's layers.

While ``installed`` is active, each layer function listed in ``LAYERS`` is
replaced, in every bchnest module that binds it, by a wrapper that records a
span (name, request, parent, start, end) plus counts taken from the call's
arguments and result.  Calls a layer makes into another layer therefore nest,
and a layer's self time is its span minus its child spans.  Spans stay in
memory until the run ends.  The program's files are not touched, and the
original functions are restored on exit.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from time import perf_counter
from types import ModuleType
from typing import Any, Callable, Iterator

Count = Callable[[tuple, Any], dict[str, int]]

# (layer name, module, functions, counts taken on a cache miss or an
# uncached call)
LAYERS: list[tuple[str, str, tuple[str, ...], Count | None]] = [
    ("series.bch_term", "bchnest.series", ("bch_term",), lambda a, r: {"terms": len(r)}),
    ("series.symmetric_bch_term", "bchnest.series", ("symmetric_bch_term",), None),
    (
        "identities.identities_and_basis",
        "bchnest.identities",
        ("identities_and_basis",),
        lambda a, r: {
            "commutators": len(r.commutators),
            "basis": len(r.basis),
            "identities": len(r.identities),
        },
    ),
    (
        "identities.lifted_identities",
        "bchnest.identities",
        ("lifted_identities",),
        lambda a, r: {"lifts": len(r)},
    ),
    ("identities.relation_rules", "bchnest.identities", ("relation_rules",), None),
    ("identities.lifted_rules", "bchnest.identities", ("lifted_rules",), None),
    ("identities.apply_rules", "bchnest.identities", ("apply_rules",), None),
    ("identities.rewrite_in_basis", "bchnest.identities", ("rewrite_in_basis",), None),
    ("identities.full_reduce", "bchnest.identities", ("full_reduce",), None),
    (
        "identities.compact_reduce",
        "bchnest.identities",
        ("compact_reduce",),
        lambda a, r: {"terms_in": len(a[0]), "terms_out": len(r)},
    ),
    (
        "cli.render",
        "bchnest.cli",
        ("cmd_bch", "cmd_symbch", "cmd_identities"),
        lambda a, r: {"bytes": len(r.encode())},
    ),
]


@dataclass
class Span:
    id: int  # index in Tracer.spans
    name: str
    request: int
    parent: int | None
    start: float
    end: float = 0.0
    cached: bool = False  # an lru_cache hit
    counts: dict[str, int] = field(default_factory=dict)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.request = 0
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._open[-1] if self._open else None
        idx = len(self.spans)
        self.spans.append(Span(idx, name, self.request, parent, perf_counter()))
        self._open.append(idx)
        try:
            yield self.spans[idx]
        finally:
            self._open.pop()
            self.spans[idx].end = perf_counter()

    def wrap(self, name: str, fn: Callable, count: Count | None) -> Callable:
        info = getattr(fn, "cache_info", None)

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            misses = info().misses if info else 0
            with self.span(name) as span:
                result = fn(*args, **kwargs)
            span.cached = info is not None and info().misses == misses
            if count and not span.cached:
                span.counts = count(args, result)
            return result

        return traced


def bchnest_modules() -> list[ModuleType]:
    """The bchnest package and every module in it, imported."""
    import bchnest

    for info in pkgutil.walk_packages(bchnest.__path__, "bchnest."):
        importlib.import_module(info.name)
    return [mod for name, mod in sys.modules.items() if name.split(".")[0] == "bchnest"]


def find_caches() -> list[Any]:
    """Every lru_cache bound in a bchnest module, found by its cache_clear."""
    found: dict[int, Any] = {}
    for mod in bchnest_modules():
        for value in vars(mod).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


def cold_start(caches: list[Any]) -> None:
    """Clear every cache and check that each is empty."""
    for cache in caches:
        cache.cache_clear()
    full = [c.__name__ for c in caches if c.cache_info().currsize]
    if full:
        raise RuntimeError(f"caches not empty after clearing: {full}")


@contextmanager
def installed(tracer: Tracer) -> Iterator[list[str]]:
    """Wrap the layer functions; yields the names of layers not found."""
    modules = bchnest_modules()
    patched: list[tuple[ModuleType, str, Callable]] = []
    missing: list[str] = []
    for name, modname, attrs, count in LAYERS:
        home = importlib.import_module(modname)
        for attr in attrs:
            fn = getattr(home, attr, None)
            if fn is None:
                missing.append(f"{modname}.{attr}")
                continue
            wrapper = tracer.wrap(name, fn, count)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        setattr(mod, key, wrapper)
                        patched.append((mod, key, fn))
    try:
        yield missing
    finally:
        for mod, key, fn in reversed(patched):
            setattr(mod, key, fn)


def layer_summary(spans: list[Span]) -> dict[str, float]:
    """Per-layer self seconds, summed counts and lru_cache hit ratio."""
    child_s: dict[int, float] = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_s[span.parent] += span.end - span.start
    out: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    hits: dict[str, int] = defaultdict(int)
    for span in spans:
        out[f"{span.name}.s"] += span.end - span.start - child_s[span.id]
        calls[span.name] += 1
        hits[span.name] += span.cached
        for key, value in span.counts.items():
            out[f"{span.name}.{key}"] += value
    for name in calls:
        out[f"{name}.cache_hit_ratio"] = hits[name] / calls[name]
    return out

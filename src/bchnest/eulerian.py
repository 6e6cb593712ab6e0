"""Permutation descent statistics and the multilinear series building block.

The grade-n multilinear piece of the series is a signed sum over permutations
with weight (-1)^d / (n * C(n-1, d)), d being the permutation's descent count.
It comes in two forms: a word polynomial summed over all n! permutations
(``multilinear_words``), and a right-nested commutator expression summed over
the (n-1)! permutations of everything but the final slot, which stays fixed as
the anchor of every bracket (``multilinear_nested``).  Both expand to the same
element of the free algebra; tests exercise that equality.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import permutations
from math import comb
from typing import Sequence

from bchnest.terms import AssocPoly, LieExpr, accumulate


def descents(perm: Sequence[int]) -> int:
    """Number of positions i with perm[i] > perm[i+1]."""
    return sum(1 for i in range(len(perm) - 1) if perm[i] > perm[i + 1])


def eulerian_coeff(n: int, d: int) -> Fraction:
    """Weight (-1)^d / (n * C(n-1, d)) of a descent class; requires 0 <= d < n."""
    if n < 1:
        raise ValueError(f"n must be positive, got {n}")
    if not 0 <= d <= n - 1:
        raise ValueError(f"descent count {d} out of range for n={n}")
    sign = -1 if d % 2 else 1
    return Fraction(sign, n * comb(n - 1, d))


@lru_cache(maxsize=None)
def eulerian_number(n: int, d: int) -> int:
    """Count of permutations of n items with exactly d descents."""
    if n < 1 or d < 0 or d > n - 1:
        return 0
    if n == 1:
        return 1 if d == 0 else 0
    # Standard recurrence: insert n into a permutation of n-1 items.
    return (d + 1) * eulerian_number(n - 1, d) + (n - d) * eulerian_number(n - 1, d - 1)


def _descent_classes(items: tuple[int, ...]) -> dict[tuple[tuple[int, ...], int], int]:
    # Integer multiplicities per (image word, descent count), so Fraction
    # arithmetic happens once per distinct key, not once per permutation.
    # At n=10 this is the hot loop of the whole package.
    n = len(items)
    counts: dict[tuple[tuple[int, ...], int], int] = {}
    for perm in permutations(range(n)):
        d = 0
        for i in range(n - 1):
            if perm[i] > perm[i + 1]:
                d += 1
        word = tuple(items[p] for p in perm)
        key = (word, d)
        counts[key] = counts.get(key, 0) + 1
    return counts


def multilinear_words(gens: Sequence[int]) -> AssocPoly:
    """Word form: sum over all permutations of the given generators."""
    gens = tuple(gens)
    n = len(gens)
    if n < 1:
        raise ValueError("need at least one generator")
    counts = _descent_classes(gens)
    return AssocPoly._from_clean(
        accumulate(
            {}, ((word, k * eulerian_coeff(n, d)) for (word, d), k in counts.items())
        )
    )


def multilinear_nested(gens: Sequence[int]) -> LieExpr:
    """Right-nested form: the final generator anchors every bracket.

    Sums over permutations of the first n-1 arguments only; the coefficient of
    [g_{s(1)}, [..., [g_{s(n-1)}, anchor]...]] is the descent weight of s.
    Requires n >= 2 (the grade-1 series term is assembled elsewhere).

    Repeated generators are allowed: brackets whose innermost pair collides
    drop out via canonicalization and the rest merge.
    """
    gens = tuple(gens)
    n = len(gens)
    if n < 2:
        raise ValueError("need at least two generators")
    anchor = gens[-1]
    rest = gens[:-1]
    return LieExpr.from_raw(
        (word + (anchor,), k * eulerian_coeff(n, d))
        for (word, d), k in _descent_classes(rest).items()
    )

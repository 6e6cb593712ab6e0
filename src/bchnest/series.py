"""Assembly of the graded terms of log(exp(X_1)...exp(X_n)).

Three independent routes to the same homogeneous element are provided:

- ``bch_term``: polarization of the multilinear permutation sum into
  right-nested commutators.  This is the production route and works for any
  number of variables.
- ``bch_term_dynkin``: the classical nested-bracket sum over block
  decompositions, two variables only.  Oracle.
- ``log_product``: direct truncated exp/log word arithmetic through grade m,
  and ``log_product_words``, its grade-m part.  Oracle; word polynomials.

The symmetric product exp(X/2) exp(Y) exp(X/2) is obtained from the plain
series by an exact conjugation sum (``symmetric_bch_term``); its even-grade
terms vanish identically, which tests verify rather than assume.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product
from math import factorial
from typing import Callable, Iterator, Mapping

from bchnest.eulerian import multilinear_nested
from bchnest.terms import AssocPoly, LieExpr, ONE, Generator, accumulate


def _compositions(total: int, slots: int) -> Iterator[tuple[int, ...]]:
    """All tuples of `slots` nonnegative ints summing to `total`, lex order.

    Stars and bars: the parts are the gaps between slots - 1 bars placed
    among total + slots - 1 places, and bars in lex order give parts in lex
    order.
    """
    places = total + slots - 1
    for bars in combinations(range(places), slots - 1):
        edges = (-1, *bars, places)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


@lru_cache(maxsize=None)
def bch_term(m: int, nvars: int = 2) -> LieExpr:
    """Grade-m term of the series, in canonical right-nested commutators.

    Polarization: sum over compositions (i_1,...,i_n) of m, feeding the
    multilinear piece the argument list with generator j repeated i_j times
    and dividing by i_1! ... i_n!.  Compositions supported on a single
    generator contribute nothing (every bracket collapses on an equal
    innermost pair), so they are skipped outright.
    """
    if m < 1:
        raise ValueError(f"grade must be positive, got {m}")
    if nvars < 2:
        raise ValueError(f"need at least two variables, got {nvars}")
    if m == 1:
        return LieExpr({(j,): ONE for j in range(nvars)})
    total: dict[tuple[int, ...], Fraction] = {}
    for comp in _compositions(m, nvars):
        if sum(1 for i in comp if i) < 2:
            continue
        weight = ONE
        for i in comp:
            weight /= factorial(i)
        args = tuple(j for j, i in enumerate(comp) for _ in range(i))
        accumulate(total, multilinear_nested(args).terms.items(), weight)
    return LieExpr._from_clean(total)


def _block_sequences(
    total: int, blocks: int
) -> Iterator[tuple[tuple[int, int], ...]]:
    """Sequences of (p_i, q_i) with p_i + q_i >= 1, summing to `total`.

    The block sizes less one are a composition of total - blocks; each
    block of size s then splits as (p, s - p) for every p in 0..s.
    """
    for less in _compositions(total - blocks, blocks):
        sizes = [c + 1 for c in less]
        for ps in product(*(range(s + 1) for s in sizes)):
            yield tuple((p, s - p) for p, s in zip(ps, sizes))


@lru_cache(maxsize=None)
def bch_term_dynkin(m: int) -> LieExpr:
    """Grade-m term by the nested-bracket block sum; two variables, oracle.

    Each block sequence ((p_1,q_1),...,(p_k,q_k)) contributes the right
    bracketing of the word X^{p_1} Y^{q_1} ... X^{p_k} Y^{q_k} with weight
    (-1)^(k-1) / (k * m * prod p_i! q_i!).  Wasteful (most brackets collapse
    or merge) but independent of the permutation-sum machinery.
    """
    if m < 1:
        raise ValueError(f"grade must be positive, got {m}")

    def brackets() -> Iterator[tuple[tuple[int, ...], Fraction]]:
        for k in range(1, m + 1):
            sign = -1 if (k - 1) % 2 else 1
            for blocks in _block_sequences(m, k):
                denom = k * m
                for p, q in blocks:
                    denom *= factorial(p) * factorial(q)
                word = tuple(g for p, q in blocks for g in (0,) * p + (1,) * q)
                yield word, Fraction(sign, denom)

    return LieExpr.from_raw(brackets())


@lru_cache(maxsize=None)
def log_product_words(m: int, nvars: int = 2) -> AssocPoly:
    """Grade m of ``log_product``; oracle for the word expansion of ``bch_term``."""
    return log_product(m, nvars).homogeneous_part(m)


def log_product(m: int, nvars: int = 2) -> AssocPoly:
    """Word polynomial of log(exp(X_1)...exp(X_n)) through grade m.

    Multiplies the exponential series of each generator truncated at grade m,
    then runs the log series on (product - 1); every grade 1..m comes out
    of the one build.
    """
    if m < 1:
        raise ValueError(f"grade must be positive, got {m}")
    if nvars < 2:
        raise ValueError(f"need at least two variables, got {nvars}")
    unit = AssocPoly.unit()
    prod = unit
    for j in range(nvars):
        single = AssocPoly(
            {(j,) * p: Fraction(1, factorial(p)) for p in range(m + 1)}
        )
        prod = prod.concat(single, max_grade=m)
    z = prod - unit
    power = z
    acc = z
    for k in range(2, m + 1):
        power = power.concat(z, max_grade=m)
        acc = acc + power * Fraction(-1 if (k - 1) % 2 else 1, k)
    return acc


def ad_power(gen: Generator, expr: LieExpr, k: int) -> LieExpr:
    """k-fold bracketing [gen, [gen, ... [gen, expr]...]].

    Prefixing a canonical bracket keeps it canonical except when expr has
    degenerate single-leaf terms, where the first prefix forms a fresh
    innermost pair; canonicalization handles both.
    """
    if k < 0:
        raise ValueError(f"negative power {k}")
    for _ in range(k):
        expr = LieExpr.from_raw(
            ((gen,) + leaves, c) for leaves, c in expr.terms.items()
        )
    return expr


def substitute(
    expr: LieExpr, mapping: Mapping[Generator, tuple[Generator, Fraction | int]]
) -> LieExpr:
    """Replace each generator g by factor * target per the mapping.

    Every generator occurring in expr must be mapped, and factors must be
    nonzero.  Each leaf contributes its factor multiplicatively; collapsed
    innermost pairs drop out via canonicalization.
    """
    table: dict[int, tuple[int, Fraction]] = {}
    for g, (target, factor) in mapping.items():
        f = Fraction(factor)
        if not f:
            raise ValueError(f"zero factor for generator {g}")
        table[g] = (target, f)

    def rewritten() -> Iterator[tuple[tuple[int, ...], Fraction]]:
        for leaves, coeff in expr.terms.items():
            c = coeff
            new = []
            for g in leaves:
                if g not in table:
                    raise ValueError(f"generator {g} missing from substitution map")
                target, f = table[g]
                new.append(target)
                c *= f
            yield tuple(new), c

    return LieExpr.from_raw(rewritten())


def symmetric_bch_term(
    m: int, phi: Callable[[int], LieExpr] | None = None
) -> LieExpr:
    """Grade-m term of log(exp(X/2) exp(Y) exp(X/2)).

    Conjugation form: sum over k of (-1)^k / (2^k k!) ad_X^k applied to the
    plain grade-(m-k) term.  `phi` supplies those plain terms and defaults to
    ``bch_term``; passing a reduced provider (e.g. compact representations)
    yields the same element expressed over fewer commutators.
    """
    if m < 1:
        raise ValueError(f"grade must be positive, got {m}")
    if phi is None:
        phi = lambda g: bch_term(g, 2)
    total = LieExpr.zero()
    for k in range(m):
        weight = Fraction(-1 if k % 2 else 1, 2**k * factorial(k))
        total = total + ad_power(0, phi(m - k), k) * weight
    return total

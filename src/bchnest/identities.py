"""Identity discovery among right-nested commutators by exact elimination.

At grade m there are 2^(m-2) canonical two-letter right-nested commutators,
but they span a smaller space: expanding each into associative words gives
rows whose vanishing combinations are linear identities.  The expansion of a
commutator with j X's only touches words with j X's, so elimination runs per
letter multidegree: a sparse pass walks each block's commutators in lex
order and yields the commutator basis (the lexicographically first
independent subset) and the complete identity list.  The pass runs on
integer word codes, each word one int that sorts as the word does, keeps
only the Lyndon-word columns, which determine a Lie polynomial, and decodes
only the identities' commutators.  The dense expansion
matrix, augmented with an identity block, and its reduced form are built
only on demand, for the grade-4 worked example.

All row reduction is fraction-free: ``_eliminate`` clears one column of an
integer row.  ``_echelon`` takes the pivot rows of a forward pass,
``_pivot_rows`` back-substitutes them into the fully reduced pivot rows
behind the reduced form and the rules, and ``_cleared`` reduces one row or
block by given pivot rows.  Each grade's identities are held once more as
one cached table of primitive integer rows, ``_identity_rows``, which
serves the basis rewrite, the tail rules and the compaction search in
``bchnest.search``.  Fractions appear only at the edges, in expansions,
identities, rules and results.

Rewrites re-express series terms over the grade's basis, with the full
identity set, or under a tail regime.  The grade-4 and grade-6 tail regimes
rewrite away every commutator that ends in one of the regime's tails, using
the ad-prefix lifts of the grade-4 or grade-6 identities: the rules are
those lifts' fully reduced pivot rows on the ruled commutators, which
reproduce the published reduced rows.  Each rewrite clears the pivot
columns of an integer copy of the expression.  The regime dispatch hands
the compact regime to ``bchnest.search.compact_reduce``, which this module
imports as its last statement, once its own names are defined.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import product
from math import gcd, lcm
from typing import Iterable, TypeVar

from bchnest.series import bch_term, symmetric_bch_term
from bchnest.terms import (
    Leaves,
    LieExpr,
    ONE,
    Word,
    ZERO,
    accumulate,
    expand_nested,
)

# Published term counts for grades 2..10, used as reference rows by the table
# command and pinned by the acceptance tests.  "dim" is the dimension of the
# grade-m homogeneous component on two letters; the other rows are
# right-nested counts with no identities applied, with the grade-4 / grade-6
# tail rules applied, with the budgeted compaction search, and for the
# symmetric product.  The symmetric row is published through m=9; its m=10
# entry is 0 because even-grade terms of the symmetric product vanish
# identically.  The table command compares computed counts with these over
# the published grades only.
REFERENCE_COUNTS: dict[str, tuple[int, ...]] = {
    "dim": (1, 2, 3, 6, 9, 18, 30, 56, 99),
    "none": (1, 2, 1, 8, 7, 32, 31, 96, 97),
    "grade4": (1, 2, 1, 6, 5, 24, 23, 78, 78),
    "grade6": (1, 2, 1, 6, 4, 18, 17, 67, 65),
    "compact": (1, 2, 1, 6, 4, 18, 13, 38, 52),
    "symmetric": (0, 2, 0, 6, 0, 18, 0, 42, 0),
}

TABLE_MODES = ("none", "grade4", "grade6", "full", "compact")


def enumerate_nested(m: int) -> tuple[Leaves, ...]:
    """All canonical grade-m right-nested commutators on {X, Y}, lex order.

    The innermost pair is pinned to (X, Y); the 2^(m-2) prefixes range over
    all words.  Appending the fixed suffix preserves lexicographic order.
    """
    if m < 2:
        raise ValueError(f"grade must be at least 2, got {m}")
    return tuple(prefix + (0, 1) for prefix in product((0, 1), repeat=m - 2))


@dataclass(frozen=True)
class ExactMatrix:
    """Dense rational matrix with labeled columns.

    The first len(word_columns) columns are expansion coefficients per word;
    the remaining columns form the augmented block, one per commutator in
    comm_labels (which also labels the rows of the unreduced matrix).
    """

    rows: tuple[tuple[Fraction, ...], ...]
    word_columns: tuple[Word, ...]
    comm_labels: tuple[Leaves, ...]

    def __post_init__(self) -> None:
        widths = {len(r) for r in self.rows}
        if len(widths) > 1:
            raise ValueError(f"ragged rows: widths {sorted(widths)}")


def gauss_jordan(matrix: ExactMatrix) -> ExactMatrix:
    """Unique reduced row-echelon form over the rationals.

    The nonzero rows go through ``_pivot_rows`` as primitive integer rows,
    columns left to right; each pivot row is divided by its leading entry
    and zero rows follow.  Column labels carry over unchanged.
    """
    ncols = len(matrix.rows[0]) if matrix.rows else 0
    sparse = ({j: v for j, v in enumerate(r) if v} for r in matrix.rows)
    pivots = _pivot_rows([_primitive(r) for r in sparse if r], range(ncols))
    rows = [
        tuple(Fraction(prow.get(j, 0), prow[col]) for j in range(ncols))
        for col, prow in pivots.items()
    ]
    rows += [(ZERO,) * ncols] * (len(matrix.rows) - len(rows))
    return replace(matrix, rows=tuple(rows))


@dataclass(frozen=True, eq=False)
class IdentityReport:
    """Everything the elimination learns about one grade.

    basis is the lex-first independent subset of the enumeration; identities
    are normalized to coefficient +1 on their dependent commutator (the
    lex-greatest of each identity's support) and expand to zero by
    construction, their word parts cancelled exactly (``identities --verify``
    and the tests check this, not the library).  matrix (the expansion matrix
    with the augmented identity block) and rref (its reduced form) are built
    on first access.
    """

    grade: int
    commutators: tuple[Leaves, ...]
    basis: tuple[Leaves, ...]
    identities: tuple[LieExpr, ...]

    @cached_property
    def matrix(self) -> ExactMatrix:
        expansions = [expand_nested(c).terms for c in self.commutators]
        words = sorted({w for e in expansions for w in e})
        n = len(expansions)
        return ExactMatrix(
            rows=tuple(
                tuple(e.get(w, ZERO) for w in words)
                + tuple(ONE if j == i else ZERO for j in range(n))
                for i, e in enumerate(expansions)
            ),
            word_columns=tuple(words),
            comm_labels=self.commutators,
        )

    @cached_property
    def rref(self) -> ExactMatrix:
        return gauss_jordan(self.matrix)


def _expand_code(leaves: Leaves) -> dict[int, int]:
    """``expand_nested`` of a two-letter commutator, on integer word codes.

    A word of length L is the int (1 << L) | bits, its letters big-endian
    below a marker bit, so codes of one length sort as their words do.
    Prepending g adds (1 + g) << L, appending g is (w << 1) | g, and the
    coefficients are ints; terms come in ``expand_nested``'s order.
    """
    poly = {2 | leaves[-1]: 1}
    for length, g in enumerate(reversed(leaves[:-1]), 1):
        front = (1 + g) << length
        out: dict[int, int] = {}
        for w, c in poly.items():
            for k, v in ((w + front, c), ((w << 1) | g, -c)):
                v += out.get(k, 0)
                if v:
                    out[k] = v
                else:
                    del out[k]
        poly = out
    return poly


def _lyndon_codes(m: int) -> set[int]:
    """The ``_expand_code`` codes of the two-letter Lyndon words of length m.

    Duval's algorithm: each Lyndon word of length at most m in lex order is
    the last one repeated out to length m, with its trailing greatest
    letters dropped and the last letter left raised by one.
    """
    codes = set()
    word = [-1]
    while word:
        word[-1] += 1
        if len(word) == m:
            codes.add(int("1" + "".join(map(str, word)), 2))
        period = len(word)
        while len(word) < m:
            word.append(word[-period])
        while word and word[-1] == 1:
            word.pop()
    return codes


@lru_cache(maxsize=None)
def identities_and_basis(m: int) -> IdentityReport:
    """Discover the commutator basis and all linear identities at grade m.

    Elimination keeps only the Lyndon-word columns of each expansion.  A Lie
    polynomial is determined by its coefficients on Lyndon words: each
    Lyndon basis element P_w expands to w plus lex-greater words, so those
    coefficients are unitriangular on the Lyndon basis (Reutenauer, *Free
    Lie Algebras*, 1993).  A combination of commutators is therefore zero
    exactly when its Lyndon-word coefficients are, and dropping the other
    columns changes no basis commutator and no identity.
    """
    comms = enumerate_nested(m)
    blocks: dict[int, list[Leaves]] = {}
    for c in comms:
        blocks.setdefault(c.count(0), []).append(c)

    basis: list[Leaves] = []
    identities: list[LieExpr] = []
    tags = 2 << m
    lyndon = _lyndon_codes(m)
    for key in sorted(blocks):
        # In-order elimination over the block's commutators in lex order, on
        # ``_expand_code`` rows.  A row holds c's word expansion on Lyndon
        # words plus c itself under a tag, 2 << m plus c's code, which sorts
        # after every word; a row left with tags only is an identity, its
        # terms in the order elimination added them.
        pivots: dict[int, dict[int, int]] = {}
        names: dict[int, Leaves] = {}
        for c in blocks[key]:
            row = {w: v for w, v in _expand_code(c).items() if w in lyndon}
            tag = tags | int("1" + "".join(map(str, c)), 2)
            names[tag] = c
            row[tag] = 1
            row, _ = _cleared((row, 0), pivots)
            lead = min(row)
            if lead < tags:
                pivots[lead] = row
                basis.append(c)
            else:
                # Normalized to coefficient 1 on c itself; the rest is
                # supported on lex-earlier basis commutators.
                terms = {names[k]: Fraction(v, row[tag]) for k, v in row.items()}
                identities.append(LieExpr._from_clean(terms))

    basis.sort()
    identities.sort(key=lambda e: max(e.terms))
    return IdentityReport(
        grade=m,
        commutators=comms,
        basis=tuple(basis),
        identities=tuple(identities),
    )


K = TypeVar("K")
Rules = dict[Leaves, dict[Leaves, Fraction]]


def _to_int(terms: dict[K, Fraction]) -> tuple[dict[K, int], int]:
    """Numerators over the lcm of the reduced denominators, key order kept."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _primitive(terms: dict[K, Fraction]) -> dict[K, int]:
    """The integer multiple of a relation with coprime entries, key order kept."""
    nums, _ = _to_int(terms)
    g = gcd(*nums.values())
    return {k: v // g for k, v in nums.items()}


def _eliminate(row: dict[K, int], pick: dict[K, int], col: K, den: int = 0) -> int:
    """Clear col from row with pick, in place; returns the new denominator.

    row <- (p * row - row[col] * pick) / g with p = |pick[col]|: row is
    scaled in place, then pick's entries are added in pick's order, dropping
    zeros and appending new keys, so row keeps the key order that
    ``accumulate`` would give it; rule right-hand sides inherit that order.
    den is row's common denominator, scaled by p alongside; g is the gcd of
    den and the new entries, so a block stays in lowest terms and a relation
    (den 0) stays primitive.
    """
    p, f = pick[col], row[col]
    if p < 0:
        p, f = -p, -f
    if p != 1:
        for k in row:
            row[k] *= p
    get = row.get
    for k, v in pick.items():
        c = get(k, 0) - f * v
        if c:
            row[k] = c
        else:
            del row[k]
    den *= p
    g = gcd(den, *row.values())
    if g > 1:
        for k in row:
            row[k] //= g
        den //= g
    return den


def _echelon(rows: list[dict[K, int]], order: Iterable[K]) -> dict[K, dict[K, int]]:
    """Forward pass of fraction-free elimination on integer rows, in place.

    Per column in order, the first remaining row holding it becomes its
    pivot row and clears it from the rows still remaining.  Returns the
    pivot rows by column, in the order taken; none holds the column of a
    pivot taken before it.
    """
    pivots: dict[K, dict[K, int]] = {}
    for col in order:
        if not rows:
            break
        pick = next((r for r in rows if col in r), None)
        if pick is None:
            continue
        rows = [r for r in rows if r is not pick]
        for row in rows:
            if col in row:
                _eliminate(row, pick, col)
        pivots[col] = pick
    return pivots


def _pivot_rows(rows: list[dict[K, int]], order: Iterable[K]) -> dict[K, dict[K, int]]:
    """Fraction-free Gauss-Jordan elimination on integer rows, in place.

    The echelon rows of ``_echelon``, then back-substitution: in the order
    taken, each pivot row clears its column from the pivot rows taken
    before it, while it is still as the forward pass left it.  Each row
    thus meets the same eliminations in the same order as when every
    pivot clears all other rows at once, so the rows and their key orders
    are those of that single pass.  Returns the pivot rows by column, in
    the order taken; none holds another pivot's column.
    """
    pivots = _echelon(rows, order)
    done: list[dict[K, int]] = []
    for col, pick in pivots.items():
        for row in done:
            if col in row:
                _eliminate(row, pick, col)
        done.append(pick)
    return pivots


def _cleared(
    start: tuple[dict[K, int], int], pivots: dict[K, dict[K, int]]
) -> tuple[dict[K, int], int]:
    # A copy of start with every pivot column cleared, pivot rows applied
    # in order; start is integer numerators over a common denominator, in
    # lowest terms, or a relation with den 0, which stays primitive.
    # Echelon rows in the order taken hold no earlier pivot's column, so a
    # cleared column stays clear: the result is zero on every pivot column,
    # the one such block, as with the fully reduced rows.
    nums, den = dict(start[0]), start[1]
    for col, prow in pivots.items():
        if col in nums:
            den = _eliminate(nums, prow, col, den)
    return nums, den


def relation_rules(relations: Iterable[LieExpr]) -> Rules:
    """Turn vanishing combinations into substitution rules pivot -> rest.

    Runs exact elimination over the relations with columns visited in
    decreasing lexicographic order, so the lex-greatest commutator of each
    independent relation gets rewritten in terms of earlier ones.  The
    outcome depends only on the span of the relations, not on their order.
    Rule right-hand sides never mention pivots, so a single substitution
    pass fully reduces any expression.  The relations are reduced by
    ``_pivot_rows`` as primitive integer rows; only the rules are Fractions.
    """
    rows = [_primitive(r.terms) for r in relations if r.terms]
    order = sorted({l for r in rows for l in r}, reverse=True)
    return _as_rules(_pivot_rows(rows, order))


def _as_rules(pivots: dict[Leaves, dict[Leaves, int]]) -> Rules:
    # Each fully reduced pivot row as the rule pivot -> rest.
    return {
        col: {l: Fraction(-v, prow[col]) for l, v in prow.items() if l != col}
        for col, prow in pivots.items()
    }


def apply_rules(expr: LieExpr, rules: Rules) -> LieExpr:
    """Substitute every ruled commutator; assumes rule RHSs are pivot-free."""
    out: dict[Leaves, Fraction] = {}
    for leaves, c in expr.terms.items():
        rhs = rules.get(leaves)
        if rhs is None:
            accumulate(out, ((leaves, c),))
        else:
            accumulate(out, rhs.items(), c)
    return LieExpr._from_clean(out)


@lru_cache(maxsize=None)
def _identity_rows(m: int) -> dict[Leaves, dict[Leaves, int]]:
    # Each grade-m identity as a primitive integer row, key order kept, by
    # its dependent commutator, in the report's order.  A row holds its
    # dependent commutator and otherwise only basis ones, so clearing the
    # dependent columns in turn rewrites onto the basis.
    return {
        max(ident.terms): _primitive(ident.terms)
        for ident in identities_and_basis(m).identities
    }


def _rewritten(expr: LieExpr, pivots: dict[Leaves, dict[Leaves, int]]) -> LieExpr:
    # The one expression equivalent to expr under the span of the pivot rows
    # and zero on their columns, which is what substituting the matching
    # rules gives; the rows hold no other pivot's column.
    nums, den = _cleared(_to_int(expr.terms), pivots)
    return LieExpr._from_clean({l: Fraction(v, den) for l, v in nums.items()})


def rewrite_in_basis(expr: LieExpr, report: IdentityReport) -> LieExpr:
    """Express a homogeneous LieExpr over the report's commutator basis."""
    if not expr:
        return expr
    if expr.grade() != report.grade:
        raise ValueError(
            f"expression grade {expr.grade()} does not match report grade "
            f"{report.grade}"
        )
    return _rewritten(expr, _identity_rows(report.grade))


# The tails each tail regime rewrites away, by regime grade: the
# lex-greatest term of the one grade-4 identity, and for grade 6 as many
# more as there are grade-6 identities that are not lifts of it, chosen so
# that the rules reproduce the published reduced rows.
_RULED_TAILS: dict[int, tuple[Leaves, ...]] = {
    4: ((1, 0, 0, 1),),
    6: ((1, 0, 0, 1), (0, 0, 0, 1, 0, 1), (0, 0, 1, 1, 0, 1), (1, 0, 1, 1, 0, 1)),
}


@lru_cache(maxsize=None)
def _tail_rows(m: int, regime_grade: int) -> dict[Leaves, dict[Leaves, int]]:
    # The tail regime's rules at grade m as integer rows, by ruled
    # commutator: the fully reduced pivot rows, on the commutators with a
    # ruled tail, of the ad-prefix lifts of the grade-g identities, g the
    # regime grade or 4 below it.  The lifts are as many as the ruled
    # commutators, each of which is a pivot, and a reduced echelon form
    # with a given pivot set is unique.
    tails = _RULED_TAILS.get(regime_grade)
    if tails is None:
        raise ValueError(f"regime grade must be 4 or 6, got {regime_grade}")
    ruled = [c for c in enumerate_nested(m) if any(c[-len(t):] == t for t in tails)]
    g = regime_grade if m >= regime_grade else 4
    rows = [
        {prefix + l: v for l, v in row.items()}
        for row in (_identity_rows(g).values() if m >= g else ())
        for prefix in product((0, 1), repeat=m - g)
    ]
    return _pivot_rows(rows, ruled)


@lru_cache(maxsize=None)
def lifted_rules(m: int, regime_grade: int) -> Rules:
    """Substitution rules for grade m under the grade-4 or grade-6 tail regime.

    Every grade-m commutator that ends in one of the regime's tails is
    ruled: it is rewritten onto commutators with no such tail, using the
    ad-prefix lifts of the grade-4 or grade-6 identities, so one
    ``apply_rules`` pass rewrites them all away.  regime_grade is 4 or 6;
    below grade 6 the grade-6 regime is the grade-4 one, and below grade 4
    there are no rules.  A grade below 2 is refused.
    """
    return _as_rules(_tail_rows(m, regime_grade))


@lru_cache(maxsize=None)
def lifted_identities(m: int) -> tuple[LieExpr, ...]:
    """The one-letter ad-prefix lifts of the grade-(m-1) identities; () at m=2.

    They span every lift of every lower-grade identity: a longer prefix
    gives a one-letter lift of a grade-(m-1) lift, which the complete
    grade-(m-1) set spans.  They are independent: an identity is +1 on its
    dependent commutator dep and otherwise on basis commutators, so only the
    lift by letter a touches (a,) + dep.  So their number is the rank of
    "already known below grade m"; identities outside that span are new.
    """
    if m < 2:
        raise ValueError(f"grade must be at least 2, got {m}")
    if m == 2:
        return ()
    return tuple(
        LieExpr._from_clean({(a,) + leaves: c for leaves, c in ident.terms.items()})
        for ident in identities_and_basis(m - 1).identities
        for a in (0, 1)
    )


@lru_cache(maxsize=None)
def compact_bch_term(m: int) -> LieExpr:
    """The plain grade-m series term after the compaction search."""
    return compact_reduce(bch_term(m, 2), m)


def full_reduce(expr: LieExpr, m: int) -> LieExpr:
    """Rewrite over the grade's basis unless that enlarges the expression.

    The basis representation is canonical but not always the shorter one:
    assembling the symmetric series from compacted inputs can beat it.
    Applying the full identity set as a reduction keeps whichever is
    smaller, preferring the canonical form on ties.
    """
    if not expr:
        return expr
    cand = rewrite_in_basis(expr, identities_and_basis(m))
    return cand if len(cand) <= len(expr) else expr


def apply_regime(expr: LieExpr, m: int, regime: str) -> LieExpr:
    """Reduce a grade-m expression under one of ``TABLE_MODES``.

    none keeps the expression, grade4 / grade6 apply the lifted tail rules,
    full rewrites over the grade's basis unless that enlarges it, and
    compact runs the budgeted search.  Below grade 2 there is nothing to
    reduce.  A nonzero expression of another grade is refused under every
    regime.
    """
    if regime not in TABLE_MODES:
        raise ValueError(f"unknown regime {regime!r}")
    if not expr:
        return expr
    if expr.grade() != m:
        raise ValueError(f"expression grade {expr.grade()} != {m}")
    if m < 2 or regime == "none":
        return expr
    if regime in ("grade4", "grade6"):
        return _rewritten(expr, _tail_rows(m, 4 if regime == "grade4" else 6))
    if regime == "full":
        return full_reduce(expr, m)
    return compact_reduce(expr, m)


def series_term(
    m: int, regime: str = "none", variant: str = "plain", nvars: int = 2
) -> LieExpr:
    """One grade of the plain or symmetric series under a reduction regime.

    The symmetric variant and every regime other than none need two
    generators.  The symmetric full and compact regimes assemble from
    compacted plain terms: a shorter starting representation is worth having
    because the basis rewrite is only kept when it does not enlarge the
    expression.  Plain compact terms come from ``compact_bch_term``'s cache,
    which that assembly shares.
    """
    if regime not in TABLE_MODES:
        raise ValueError(f"unknown regime {regime!r}")
    if variant not in ("plain", "symmetric"):
        raise ValueError(f"unknown variant {variant!r}")
    if nvars != 2 and (regime != "none" or variant != "plain"):
        raise ValueError("only the plain unreduced series takes nvars != 2")
    if variant == "symmetric":
        compacted = regime in ("full", "compact")
        e = symmetric_bch_term(m, phi=compact_bch_term if compacted else None)
    elif regime == "compact":
        return compact_bch_term(m)
    else:
        e = bch_term(m, nvars)
    return apply_regime(e, m, regime)


def table_counts(
    max_m: int, mode: str, variant: str = "plain"
) -> tuple[int, ...]:
    """Nonzero-term counts of ``series_term`` for grades 2..max_m."""
    if max_m < 2:
        raise ValueError(f"max grade must be at least 2, got {max_m}")
    return tuple(len(series_term(m, mode, variant)) for m in range(2, max_m + 1))


# Last, so that every name above is already defined when bchnest.search runs
# its own ``from bchnest.identities import ...``.  Importing any bchnest
# module runs bchnest/__init__.py first, which imports this module before
# bchnest.search, so the search is never the half-run module here.
from bchnest.search import _COMPACT_BUDGET, compact_reduce
